"""DC-connectivity check against an independent breadth-first reference.

``CompiledCircuit.check_dc_connectivity`` must raise exactly when some node
has no DC-conductive path to ground, and name exactly those nodes.  The
reference below works from the generated part list alone (which two nodes
each part joins at DC) and shares no code with :mod:`repro.spice.netlist`.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.spice import NMOS_180, Circuit
from repro.spice.errors import NetlistError
from repro.spice.netlist import GROUND_NAMES

_GROUND = {"0", "gnd", "GND", "vss!", "ground"}
_POOL = sorted(_GROUND) + ["a", "b", "c", "d", "e", "f"]

#: parts that join their first two nodes at DC; a MOSFET joins drain/source
_JOINS_FIRST_PAIR = {"R", "L", "D", "V", "E", "H"}

_node = st.sampled_from(_POOL)
_part = st.tuples(st.sampled_from("RCLDVIEGFHM"),
                  st.tuples(_node, _node, _node, _node))


def _build(parts):
    """A Circuit from ``(kind, nodes)`` pairs, plus the reference edge list."""
    circuit = Circuit("random")
    edges = []
    vsources = []
    for i, (kind, (n1, n2, n3, n4)) in enumerate(parts):
        name = f"{kind}{i}"
        if kind in "FH" and not vsources:
            kind, name = "I", f"I{i}"  # current-controlled needs a sense V
        if kind == "R":
            circuit.resistor(name, n1, n2, 1e3)
        elif kind == "C":
            circuit.capacitor(name, n1, n2, 1e-12)
        elif kind == "L":
            circuit.inductor(name, n1, n2, 1e-9)
        elif kind == "D":
            circuit.diode(name, n1, n2)
        elif kind == "V":
            circuit.vsource(name, n1, n2, 1.0)
            vsources.append(name)
        elif kind == "I":
            circuit.isource(name, n1, n2, 1e-6)
        elif kind == "E":
            circuit.vcvs(name, n1, n2, n3, n4, 2.0)
        elif kind == "G":
            circuit.vccs(name, n1, n2, n3, n4, 1e-3)
        elif kind == "F":
            circuit.cccs(name, n1, n2, vsources[i % len(vsources)], 2.0)
        elif kind == "H":
            circuit.ccvs(name, n1, n2, vsources[i % len(vsources)], 1e3)
        else:  # M: drain n1, gate n2, source n3, bulk n4
            circuit.mosfet(name, n1, n2, n3, n4, NMOS_180, 1e-6, 0.18e-6)
        if kind in _JOINS_FIRST_PAIR:
            edges.append((n1, n2))
        elif kind == "M":
            edges.append((n1, n3))
    return circuit, edges


def _reference_floating(circuit, edges):
    """Sorted non-ground node names that BFS from ground cannot reach."""
    names = {n for device in circuit.devices for n in device.nodes} - _GROUND
    adjacent = {}
    for a, b in edges:
        a = "0" if a in _GROUND else a
        b = "0" if b in _GROUND else b
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    seen = {"0"}
    queue = deque(["0"])
    while queue:
        for nxt in adjacent.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(names - seen)


def _check_matches_reference(circuit, edges):
    floating = _reference_floating(circuit, edges)
    compiled = circuit.compile()
    if floating:
        with pytest.raises(NetlistError) as info:
            compiled.check_dc_connectivity()
        assert str(info.value) == f"nodes with no DC path to ground: {floating}"
    else:
        compiled.check_dc_connectivity()
    return floating


def test_pool_covers_every_ground_alias():
    assert set(GROUND_NAMES) == _GROUND


@settings(max_examples=300, deadline=None)
@given(st.lists(_part, min_size=1, max_size=12))
def test_random_netlists_match_bfs_reference(parts):
    _check_matches_reference(*_build(parts))


@pytest.mark.parametrize("parts, floating", [
    # a node seen only by a MOSFET gate floats
    ([("V", ("a", "0", "0", "0")), ("M", ("a", "g", "gnd", "gnd"))], ["g"]),
    # a VCVS output pair joined only to each other floats
    ([("V", ("a", "0", "0", "0")), ("R", ("a", "b", "0", "0")),
      ("E", ("c", "d", "b", "0"))], ["c", "d"]),
    # reached only through a current source or a capacitor
    ([("R", ("a", "vss!", "0", "0")), ("I", ("a", "b", "0", "0")),
      ("C", ("a", "c", "0", "0"))], ["b", "c"]),
    # every ground alias is the same node, so nothing floats
    ([("R", ("a", "GND", "0", "0")), ("L", ("b", "ground", "0", "0")),
      ("D", ("a", "b", "0", "0")), ("M", ("c", "b", "vss!", "gnd"))], []),
    # a CCVS output conducts; CCCS and VCCS outputs do not
    ([("V", ("a", "0", "0", "0")), ("H", ("b", "gnd", "0", "0")),
      ("F", ("c", "b", "0", "0")), ("G", ("d", "a", "b", "0"))], ["c", "d"]),
])
def test_explicit_floating_cases(parts, floating):
    assert _check_matches_reference(*_build(parts)) == floating
