"""Layered end-to-end benchmark of a fixed-seed DNN-Opt ``Study``.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload fc_paper_serial --seed 0 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced studies;
``--trace 1`` prints the per-layer metrics of a traced study and writes
``perfbench_out/<workload>-seed<seed>.trace.json`` (trace-event JSON) and
``.layers.txt`` (per-layer self time).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run does a fixed amount of work, so the same ``--seed`` gives the
same inputs; ``--seconds`` only sets the time limit, three times its
value (at most 175 s), past which the run fails.  The run exits 1 when
the correctness gate fails, 2 when the checkout has no program source.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
#: BLAS threads per process; remote workers inherit the setting,
#: so two busy workers never oversubscribe two cores
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
#: most busy worker processes a workload uses (capped at the CPU count)
MAX_WORKERS = 2
#: time limit of a run, whatever ``--seconds`` asks for
MAX_RUN_S = 175


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _timeout(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def prepare() -> bool:
    """Point imports and child processes at the checkout's source and pin
    BLAS threads; False when the checkout has no program source."""
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return False
    # Before numpy is first imported, here and in every child process.
    os.environ.update(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path[:0] = [str(ROOT), str(SRC)]
    return True


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not prepare():
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(max(1, min(MAX_RUN_S, int(3 * args.seconds))))

    from perfbench.bench import measure

    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    result, failures, info = measure(args.workload, args.seed,
                                     bool(args.trace), workers, OUT)
    signal.alarm(0)
    for line in info:
        print(f"# {line}")
    for failure in failures:
        print(f"gate failure: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
