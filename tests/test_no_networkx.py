"""The package runs with networkx unimportable, locally and on remote workers.

A directory first on ``PYTHONPATH`` holds a ``networkx`` package whose
import raises, so any import of networkx anywhere in the stack — the
coordinating process or a ``python -m repro.core.service`` worker, which
inherits the environment — fails the child run.
"""

import os
import subprocess
import sys

_CHILD = """
import sys
import numpy as np
import repro.core, repro.circuits, repro.scenarios
from repro.circuits import FoldedCascodeOTA
from repro.core import EvalEngine, service

problem = FoldedCascodeOTA().problem()
x = problem.space.sample(np.random.default_rng(5), 1)[0]
serial = problem.evaluate(x)
with service.local_workers(1) as (_, hosts), \\
        EvalEngine("remote", hosts=hosts, cache_size=0) as engine:
    remote = engine.evaluate_batch(FoldedCascodeOTA().problem(), x[None, :])[0]
assert np.array_equal(serial, remote), (serial, remote)
assert "networkx" not in sys.modules
print("ok")
"""


def test_stack_runs_without_networkx(tmp_path):
    blocker = tmp_path / "networkx"
    blocker.mkdir()
    (blocker / "__init__.py").write_text(
        "raise ImportError('networkx is blocked for this test')\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path), os.path.abspath(src), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "ok"
