"""Fleet fail-fast rule: no worker can join, the last host failed.

A coordinator without a registry server or a caller-supplied registry only
learns of workers through ``hosts=``/``add_host``.  Once its last live host
has failed, queued work can never run, so every dispatch ends at once —
``ServiceError`` with the per-host trail, or in-process rows for a
``degraded="local"`` tenant — instead of waiting forever.  An empty fleet
that has seen no failure keeps waiting (``tests/core/test_fleet.py``).

Each dispatch runs on a helper thread with a bounded join, so a regression
to waiting fails the test instead of hanging the suite (closing the fleet
unblocks the thread).
"""

import socket
import threading
import time

import numpy as np

from repro.core.fleet import FleetCoordinator, WorkerRegistry
from repro.core.service import ServiceError
from repro.problems import Sphere


def _dead_address():
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % placeholder.getsockname()[1]


def _evaluate_bounded(engine, problem, X, timeout=10.0):
    result = {}

    def run():
        try:
            result["F"] = engine.evaluate_batch(problem, X)
        except Exception as exc:
            result["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    t0 = time.monotonic()
    thread.start()
    thread.join(timeout)
    return thread, result, time.monotonic() - t0


def test_static_fleet_raises_once_its_last_host_failed():
    dead = _dead_address()
    problem = Sphere(2)
    X = problem.space.sample(np.random.default_rng(0), 4)
    with FleetCoordinator(hosts=[dead]) as fleet:
        engine = fleet.engine("t")
        thread, result, elapsed = _evaluate_bounded(engine, problem, X)
        waiting = thread.is_alive()
    thread.join(10)
    assert not waiting, "dispatch kept waiting on a fleet no worker can join"
    error = result.get("error")
    assert isinstance(error, ServiceError), result
    assert "failed on all hosts" in str(error) and dead in str(error)
    assert elapsed < 5.0


def test_static_fleet_degraded_tenant_evaluates_locally_at_once():
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(1), 5)
    # degraded_after far beyond the join bound: only the fail-fast rule
    # can finish this dispatch in time.
    with FleetCoordinator(hosts=[_dead_address()],
                          degraded_after=60.0) as fleet:
        engine = fleet.engine("t", degraded="local")
        thread, result, elapsed = _evaluate_bounded(engine, problem, X)
        waiting = thread.is_alive()
        degraded = fleet.stats()["degraded_designs"]
    thread.join(10)
    assert not waiting, "degraded tenant waited out degraded_after"
    np.testing.assert_array_equal(result["F"], problem.evaluate_batch(X))
    assert degraded == len(X)
    assert elapsed < 5.0


def test_caller_registry_fleet_keeps_waiting_after_host_failure():
    # A caller-supplied registry can still gain workers, so losing the
    # last host leaves the dispatch queued for the next one.
    registry = WorkerRegistry()
    registry.register(_dead_address(), static=True)
    problem = Sphere(2)
    X = problem.space.sample(np.random.default_rng(2), 3)
    with FleetCoordinator(registry=registry) as fleet:
        engine = fleet.engine("t")
        thread, result, _ = _evaluate_bounded(engine, problem, X, timeout=1.0)
        assert thread.is_alive() and not result
        engine.close()  # detach aborts the queued dispatch
        thread.join(10)
    assert "error" in result


def test_watcher_runs_only_when_the_worker_set_can_change():
    with FleetCoordinator() as fleet:
        assert fleet._watcher is None      # static hosts, no hedging
        fleet.listen()
        assert fleet._watcher is not None  # registrations can now arrive
    with FleetCoordinator(registry=WorkerRegistry()) as fleet:
        assert fleet._watcher is not None
    with FleetCoordinator(hedge_factor=2.0) as fleet:
        assert fleet._watcher is not None
