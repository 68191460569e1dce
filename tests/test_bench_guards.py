"""The perf-guard harness shared by the seven ``benchmarks/bench_*.py`` guards.

Every guard writes one report schema and passes or fails through one
check (``benchmarks/_shared.py``); these tests pin that check's verdicts,
the refusal to check a run against the file it is about to overwrite, and
that each committed ``BENCH_*.json`` baseline carries every metric and
invariant its guard checks.
"""

import argparse
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from _shared import check_bench, guard_main  # noqa: E402

SCHEMA = ["host", "config", "results", "speedup", "invariants"]
GUARDS = {
    "bench_chaos": "BENCH_chaos.json",
    "bench_corners": "BENCH_corners.json",
    "bench_fleet": "BENCH_fleet.json",
    "bench_pipeline": "BENCH_pipeline.json",
    "bench_service_dispatch": "BENCH_service.json",
    "bench_spice_hotpath": "BENCH_spice.json",
    "bench_warmstart": "BENCH_warmstart.json",
}


def _report(ratio=2.0, ok=True):
    return {"speedup": {"ratio": ratio}, "invariants": {"ok": ok}}


@pytest.mark.parametrize("module, baseline", sorted(GUARDS.items()))
def test_committed_baseline_satisfies_its_own_guard(module, baseline):
    guard = importlib.import_module(module)
    data = json.loads((ROOT / baseline).read_text())
    assert list(data) == SCHEMA
    assert check_bench(data, data, guard.FLOORS,
                       getattr(guard, "INVARIANTS", ())) == 0


@pytest.mark.parametrize("report, baseline, expected", [
    (_report(2.0), _report(2.0), 0),
    (_report(1.0), _report(2.0), 0),
    (_report(0.99), _report(2.0), 1),
    ({"invariants": {"ok": True}}, _report(2.0), 1),
    (_report(2.0), {"invariants": {"ok": True}}, 1),
    (_report(2.0, ok=False), _report(2.0), 1),
    (_report(2.0), _report(2.0, ok=False), 1),
    ({"speedup": {"ratio": 2.0}}, _report(2.0), 1),
    (_report(2.0), {"speedup": {"ratio": 2.0}}, 1),
], ids=["unchanged", "at-floor", "below-floor", "ratio-missing-in-run",
        "ratio-missing-in-baseline", "invariant-false-in-run",
        "invariant-false-in-baseline", "invariant-missing-in-run",
        "invariant-missing-in-baseline"])
def test_check_bench_verdicts(report, baseline, expected):
    assert check_bench(report, baseline, {"ratio": 0.5}, ("ok",)) == expected


def _guard(argv, default_out, ratio=2.0):
    calls = []

    def measure(args):
        calls.append(args)
        return {"config": {}, "results": {}, "speedup": {"ratio": ratio},
                "invariants": {"ok": True}}

    status = guard_main(argparse.ArgumentParser(), default_out, measure,
                        {"ratio": 0.5}, ("ok",), argv=argv)
    return status, calls


@pytest.mark.parametrize("argv", [
    ["--check", "BENCH_x.json"],                           # default --out
    ["--check", "BENCH_x.json", "--out", "./BENCH_x.json"],
])
def test_guard_refuses_to_overwrite_the_baseline_it_checks(tmp_path, monkeypatch,
                                                          argv):
    # Writing the report before checking it, with --out defaulting to the
    # committed baseline, made a check pass against its own fresh run.
    monkeypatch.chdir(tmp_path)
    committed = json.dumps({"speedup": {"ratio": 9.0},
                            "invariants": {"ok": True}})
    Path("BENCH_x.json").write_text(committed)
    with pytest.raises(SystemExit) as exc:
        _guard(argv, "BENCH_x.json", ratio=1.0)
    assert exc.value.code == 2
    assert Path("BENCH_x.json").read_text() == committed


def test_guard_writes_the_schema_and_checks_against_the_baseline(tmp_path):
    base, out = tmp_path / "BENCH_x.json", tmp_path / "run.json"
    base.write_text(json.dumps({"speedup": {"ratio": 3.0},
                                "invariants": {"ok": True}}))
    argv = ["--check", str(base), "--out", str(out)]
    assert _guard(argv, str(base), ratio=2.0)[0] == 0
    assert list(json.loads(out.read_text())) == SCHEMA
    assert _guard(argv, str(base), ratio=1.0)[0] == 1
    # no --check: the run only records (re-recording a baseline on purpose)
    status, calls = _guard(["--out", str(base)], str(base), ratio=1.0)
    assert status == 0 and len(calls) == 1
    assert json.loads(base.read_text())["speedup"] == {"ratio": 1.0}
