"""Ask/tell protocol, the Study driver, and non-blocking engine dispatch.

The load-bearing contracts of the PR-4 API redesign:

* every optimizer speaks native ask/tell, and a manual ask → evaluate →
  tell loop reproduces ``run()`` bit for bit;
* ``Study(pipeline_depth=1)`` *is* the historic blocking loop (the seed
  determinism suites pin this transitively through ``run()``);
* pipelined dispatch keeps histories replayable and, for optimizers whose
  proposals don't depend on pending tells, bit-identical at any depth;
* checkpoint/resume reproduces an uninterrupted run exactly;
* ``EvalEngine.submit``/``gather`` match ``evaluate_batch`` and never
  simulate a design twice across overlapping batches.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.baselines import (
    BOwEI,
    DifferentialEvolution,
    GASPAD,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.core import BudgetExhausted, DNNOpt, EvalEngine, Optimizer, Study
from repro.core.history import OptimizationHistory
from repro.problems import ConstrainedSphere, Sphere

ALL_OPTIMIZERS = [
    ("Random", lambda p, b, s: RandomSearch(p, b, s)),
    ("DE", lambda p, b, s: DifferentialEvolution(p, b, s, pop_size=8)),
    ("SA", lambda p, b, s: SimulatedAnnealing(p, b, s, steps_per_temperature=4)),
    ("BO-wEI", lambda p, b, s: BOwEI(p, b, s, n_init=8, pool_size=64,
                                     local_points=16)),
    ("GASPAD", lambda p, b, s: GASPAD(p, b, s, n_init=8, pop_size=6)),
    ("DNN-Opt", lambda p, b, s: small_dnnopt(p, b, s)),
]


def small_dnnopt(problem, budget, seed, **kw):
    defaults = dict(n_init=8, n_elite=5, critic_epochs=4, actor_epochs=4,
                    critic_hidden=(16, 16), actor_hidden=(16, 16), max_pseudo=400)
    defaults.update(kw)
    return DNNOpt(problem, budget, seed, **defaults)


def drive_ask_tell(optimizer):
    """Minimal external driver: the documented ask/evaluate/tell loop."""
    problem = optimizer.problem
    while optimizer.history.n_evals < optimizer.budget:
        X = optimizer.ask()
        assert len(X) > 0, "nothing in flight, ask() must propose"
        X = problem.space.round(X)[:optimizer.budget - optimizer.history.n_evals]
        F = problem.evaluate_batch(X)
        optimizer.tell(X, F)
    return optimizer.history


def assert_history_equal(a, b):
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.F, b.F)
    np.testing.assert_array_equal(a.fom, b.fom)
    np.testing.assert_array_equal(a.feasible, b.feasible)


# ----------------------------------------------------------------------
# Native ask/tell protocol
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS, ids=[n for n, _ in ALL_OPTIMIZERS])
def test_manual_ask_tell_matches_run(name, factory):
    via_run = factory(ConstrainedSphere(2), 18, 5).run()
    via_protocol = drive_ask_tell(factory(ConstrainedSphere(2), 18, 5))
    assert_history_equal(via_run, via_protocol)


@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS, ids=[n for n, _ in ALL_OPTIMIZERS])
def test_explicit_study_matches_run(name, factory):
    via_run = factory(Sphere(3), 16, 2).run()
    via_study = Study(factory(Sphere(3), 16, 2)).run()
    assert_history_equal(via_run, via_study)


def test_ask_validates_k():
    opt = RandomSearch(Sphere(2), 10, 0)
    with pytest.raises(ValueError):
        opt.ask(0)


def test_tell_rejects_mismatched_rows():
    opt = RandomSearch(Sphere(2), 10, 0)
    with pytest.raises(ValueError):
        opt.tell(np.zeros((2, 2)), np.zeros((3, 1)))


def test_tell_records_rounded_designs():
    from repro.problems import PressureVessel
    problem = PressureVessel()
    opt = RandomSearch(problem, 10, 0)
    x = np.array([5.2, 4.8, 50.0, 100.0])
    opt.tell(x, problem.evaluate(x))
    np.testing.assert_array_equal(opt.history.X[0],
                                  problem.space.round(x))


def test_de_waits_for_initial_population():
    opt = DifferentialEvolution(Sphere(2), 30, 0, pop_size=6)
    X = opt.ask()
    assert len(X) == 6  # the whole initial population
    assert len(opt.ask()) == 0  # cannot breed until it is told
    opt.tell(X, opt.problem.evaluate_batch(X))
    assert len(opt.ask()) == 1  # one trial vector per ask thereafter


@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS, ids=[n for n, _ in ALL_OPTIMIZERS])
def test_ask_honors_requested_count(name, factory):
    # ask(k) may return at most k designs in every phase, including the
    # space-filling initial block (Study(ask_size=k) bounds batch width to
    # the engine's worker pool).
    opt = factory(ConstrainedSphere(2), 40, 1)
    while opt.history.n_evals < 12:
        X = opt.ask(3)
        assert 0 < len(X) <= 3
        opt.tell(X, opt.problem.evaluate_batch(X))


def test_sa_waits_for_starting_point():
    opt = SimulatedAnnealing(Sphere(2), 30, 0)
    X = opt.ask()
    assert len(X) == 1
    assert len(opt.ask()) == 0
    opt.tell(X, opt.problem.evaluate_batch(X))
    assert len(opt.ask(3)) == 3  # batch of random-walk proposals


# ----------------------------------------------------------------------
# BudgetExhausted is public API on the direct-call path
# ----------------------------------------------------------------------
def test_budget_exhausted_public_direct_call():
    problem = Sphere(2)
    opt = RandomSearch(problem, 3, 0)
    for _ in range(3):
        opt.evaluate(problem.space.sample(opt.rng, 1)[0])
    with pytest.raises(BudgetExhausted):
        opt.evaluate(problem.space.sample(opt.rng, 1)[0])
    assert opt.history.n_evals == 3


def test_stop_when_feasible_direct_call_raises():
    problem = ConstrainedSphere(2)
    opt = RandomSearch(problem, 50, 0, stop_when_feasible=True)
    feasible_x = np.array([1.0, 1.0])
    with pytest.raises(BudgetExhausted):
        opt.evaluate(feasible_x)
    assert opt.history.n_evals == 1


# ----------------------------------------------------------------------
# Study: stop conditions, callbacks, engine stats
# ----------------------------------------------------------------------
def test_study_invalid_parameters():
    opt = RandomSearch(Sphere(2), 5, 0)
    with pytest.raises(ValueError):
        Study(opt, pipeline_depth=0)
    with pytest.raises(ValueError):
        Study(opt, ask_size=0)
    with pytest.raises(ValueError):
        Study(opt, checkpoint_every=-1)


def test_study_callbacks_and_request_stop():
    batches = []

    def watcher(study):
        batches.append(study.history.n_evals)
        if study.history.n_evals >= 6:
            study.request_stop()

    study = Study(RandomSearch(Sphere(2), 50, 0), callbacks=[watcher])
    history = study.run()
    assert history.n_evals == 6
    assert batches == list(range(1, 7))


def test_study_stop_when_predicate():
    study = Study(RandomSearch(Sphere(2), 50, 0),
                  stop_when=lambda h: h.n_evals >= 4)
    assert study.run().n_evals == 4


def test_engine_stats_surface_in_summary():
    engine = EvalEngine("serial")
    opt = small_dnnopt(Sphere(2), 15, 3, engine=engine)
    summary = Study(opt).run().summary()
    stats = summary["engine"]
    assert stats["backend"] == "serial"
    assert stats["misses"] == engine.n_sim_calls
    assert stats["misses"] <= 15
    assert stats["cache_hits"] >= 0 and stats["dedups"] >= 0
    assert 0.0 <= stats["hit_rate"] <= 1.0


def test_engine_stats_are_per_run_deltas():
    engine = EvalEngine("serial")
    h1 = Study(RandomSearch(Sphere(2), 8, 1, engine=engine)).run()
    h2 = Study(RandomSearch(Sphere(2), 8, 1, engine=engine)).run()
    assert h1.engine_stats["misses"] == 8
    # Second identical run is answered entirely from the shared cache.
    assert h2.engine_stats["misses"] == 0
    assert h2.engine_stats["cache_hits"] == 8
    assert h2.engine_stats["hit_rate"] == 1.0


# ----------------------------------------------------------------------
# Pipelined dispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [2, 4])
def test_pipelined_random_search_bit_identical(depth):
    serial = RandomSearch(Sphere(3), 20, 9).run()
    with EvalEngine("thread", workers=2) as engine:
        pipelined = Study(RandomSearch(Sphere(3), 20, 9), engine=engine,
                          pipeline_depth=depth).run()
    assert_history_equal(serial, pipelined)


def test_pipelined_batched_random_search_bit_identical():
    # ask_size batches the draws, pipeline keeps them in flight; RandomSearch
    # consumes one RNG draw per design either way.
    serial = RandomSearch(Sphere(3), 21, 4).run()
    with EvalEngine("thread", workers=3) as engine:
        pipelined = Study(RandomSearch(Sphere(3), 21, 4), engine=engine,
                          ask_size=4, pipeline_depth=3).run()
    assert_history_equal(serial, pipelined)


@pytest.mark.parametrize("name,factory", ALL_OPTIMIZERS, ids=[n for n, _ in ALL_OPTIMIZERS])
def test_pipelined_histories_replay_to_same_evaluations(name, factory):
    # Pipelined proposals may condition on a stale archive (so trajectories
    # may differ from serial), but every recorded row must be the
    # deterministic simulator answer for its design, the budget must be
    # respected exactly, and the run must be seed-reproducible.
    def run_once():
        with EvalEngine("thread", workers=2) as engine:
            return Study(factory(ConstrainedSphere(2), 14, 3), engine=engine,
                         pipeline_depth=2).run()

    h1, h2 = run_once(), run_once()
    assert h1.n_evals == 14
    assert_history_equal(h1, h2)
    problem = ConstrainedSphere(2)
    np.testing.assert_array_equal(problem.evaluate_batch(h1.X), h1.F)


def test_stuck_optimizer_raises_instead_of_spinning():
    class NeverReady(Optimizer):
        name = "never"

        def _ask(self, k):
            return np.empty((0, self.problem.dim))

    with pytest.raises(RuntimeError, match="stuck"):
        Study(NeverReady(Sphere(2), 5, 0)).run()


# ----------------------------------------------------------------------
# stop_when_feasible x batch_size>1 x pipelined dispatch
# ----------------------------------------------------------------------
def serial_one_query_reference(factory):
    """The paper's serial protocol: one query at a time, stop at feasibility."""
    opt = factory()
    problem = opt.problem
    while opt.history.n_evals < opt.budget:
        X = problem.space.round(opt.ask(1))
        F = problem.evaluate_batch(X)
        opt.tell(X, F)
        if opt.history.feasible[-1]:
            break
    return opt.history


def test_stop_when_feasible_pipelined_matches_serial_protocol():
    # RandomSearch proposals are independent of pending tells, so the batched
    # + pipelined history must equal the serial one-query protocol *bit for
    # bit* — later in-flight batches are discarded, and the kept prefix ends
    # exactly at the first feasible design.
    factory = lambda: RandomSearch(ConstrainedSphere(2), 60, 12,
                                   stop_when_feasible=True)
    reference = serial_one_query_reference(
        lambda: RandomSearch(ConstrainedSphere(2), 60, 12))
    with EvalEngine("thread", workers=2) as engine:
        got = Study(factory(), engine=engine, ask_size=5,
                    pipeline_depth=3).run()
    assert_history_equal(reference, got)
    assert got.feasible[-1] and not got.feasible[:-1].any()


def test_stop_when_feasible_batched_dnnopt_keeps_serial_prefix():
    # A batched DNN-Opt run with stop_when_feasible must record exactly the
    # no-stop run's history truncated at its first feasible design (rows
    # after the first feasible one in a batch are discarded).
    free = small_dnnopt(ConstrainedSphere(2), 30, 6, batch_size=3).run()
    first = free.evals_to_first_feasible
    assert first is not None and first < 30
    stopped = small_dnnopt(ConstrainedSphere(2), 30, 6, batch_size=3,
                           stop_when_feasible=True).run()
    assert stopped.n_evals == first
    np.testing.assert_array_equal(stopped.X, free.X[:first])
    np.testing.assert_array_equal(stopped.F, free.F[:first])


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_history_json_round_trip():
    problem = ConstrainedSphere(2)
    history = RandomSearch(problem, 12, 7).run()
    blob = json.dumps(history.to_dict())  # must be plain JSON
    restored = OptimizationHistory.from_dict(problem, json.loads(blob))
    assert_history_equal(history, restored)
    assert restored.seed == history.seed
    assert restored.optimizer_name == history.optimizer_name
    assert restored.simulation_time == history.simulation_time


@pytest.mark.parametrize("make_opt", [
    lambda p: SimulatedAnnealing(p, 20, 3, steps_per_temperature=4),
    lambda p: DifferentialEvolution(p, 20, 3, pop_size=6),
    lambda p: small_dnnopt(p, 18, 3, critic_epochs=2, actor_epochs=2),
], ids=["SA", "DE", "DNN-Opt"])
def test_checkpoint_resume_bit_identical(tmp_path, make_opt):
    problem_factory = lambda: ConstrainedSphere(2)
    reference = Study(make_opt(problem_factory())).run()

    # "Kill" a study mid-budget: checkpoint every batch, stop part-way.
    path = tmp_path / "study.ckpt.json"
    interrupted = Study(make_opt(problem_factory()), checkpoint_path=str(path),
                        checkpoint_every=1,
                        callbacks=[lambda s: s.history.n_evals >= 9
                                   and s.request_stop()])
    partial = interrupted.run()
    assert partial.n_evals < reference.n_evals

    # Resume with a fresh, identically-constructed optimizer and finish.
    resumed = Study.load(str(path), make_opt(problem_factory()))
    finished = resumed.run()
    assert_history_equal(reference, finished)


def test_checkpoint_resume_does_not_resimulate_prefix(tmp_path):
    class CountingSphere(Sphere):
        def __init__(self, dim=2):
            super().__init__(dim)
            self.calls = 0

        def _evaluate(self, x):
            self.calls += 1
            return super()._evaluate(x)

    path = tmp_path / "ckpt.json"
    study = Study(RandomSearch(CountingSphere(), 10, 1),
                  checkpoint_path=str(path), checkpoint_every=1,
                  callbacks=[lambda s: s.history.n_evals >= 6
                             and s.request_stop()])
    study.run()

    fresh_problem = CountingSphere()
    finished = Study.load(str(path), RandomSearch(fresh_problem, 10, 1)).run()
    assert finished.n_evals == 10
    assert fresh_problem.calls == 4  # only the un-recorded tail is simulated


def test_checkpoint_resume_after_stop_when_feasible_truncation(tmp_path):
    # A stop_when_feasible run can end by truncating its final batch; the
    # checkpoint records only the kept prefix.  Resuming must serve that
    # prefix (re-firing the same stop), not mistake the unrecorded batch
    # suffix for divergence.
    make = lambda: RandomSearch(ConstrainedSphere(2), 60, 12,
                                stop_when_feasible=True)
    study = Study(make(), ask_size=5)
    reference = study.run()
    assert reference.n_evals % 5 != 0  # the final batch really was truncated
    path = tmp_path / "ckpt.json"
    study.save(str(path))
    finished = Study.load(str(path), make()).run()
    assert_history_equal(reference, finished)


def test_checkpoint_load_rejects_stop_when_feasible_mismatch(tmp_path):
    path = tmp_path / "ckpt.json"
    study = Study(RandomSearch(ConstrainedSphere(2), 10, 1,
                               stop_when_feasible=True))
    study.run()
    study.save(str(path))
    with pytest.raises(ValueError, match="stop_when_feasible"):
        Study.load(str(path), RandomSearch(ConstrainedSphere(2), 10, 1))


def test_checkpoint_resume_restores_simulation_time(tmp_path):
    path = tmp_path / "ckpt.json"
    study = Study(RandomSearch(Sphere(2), 12, 2), checkpoint_path=str(path),
                  checkpoint_every=1,
                  callbacks=[lambda s: s.history.n_evals >= 8
                             and s.request_stop()])
    partial = study.run()
    assert partial.simulation_time > 0.0
    resumed = Study.load(str(path), RandomSearch(Sphere(2), 12, 2))
    finished = resumed.run()
    # The prefix's simulator cost is carried over, not silently dropped.
    assert finished.simulation_time >= partial.simulation_time


def test_checkpoint_resume_detects_hyperparameter_mismatch(tmp_path):
    # Identity metadata (class/seed/budget/problem) matches, but a changed
    # hyperparameter alters the deterministic proposal stream — the resume
    # must fail loudly instead of silently re-simulating the whole budget.
    path = tmp_path / "ckpt.json"
    study = Study(DifferentialEvolution(Sphere(2), 30, 1, pop_size=6),
                  checkpoint_path=str(path), checkpoint_every=1,
                  callbacks=[lambda s: s.history.n_evals >= 10
                             and s.request_stop()])
    study.run()
    resumed = Study.load(str(path),
                         DifferentialEvolution(Sphere(2), 30, 1, pop_size=8))
    with pytest.raises(ValueError, match="diverged"):
        resumed.run()


def test_checkpoint_load_rejects_mismatched_optimizer(tmp_path):
    path = tmp_path / "ckpt.json"
    study = Study(RandomSearch(Sphere(2), 8, 1))
    study.run()
    study.save(str(path))
    with pytest.raises(ValueError, match="seed"):
        Study.load(str(path), RandomSearch(Sphere(2), 8, 2))
    with pytest.raises(ValueError, match="budget"):
        Study.load(str(path), RandomSearch(Sphere(2), 9, 1))
    with pytest.raises(ValueError, match="class"):
        Study.load(str(path), SimulatedAnnealing(Sphere(2), 8, 1))
    with pytest.raises(ValueError, match="dim"):
        Study.load(str(path), RandomSearch(Sphere(3), 8, 1))
    with pytest.raises(ValueError, match="fresh"):
        Study.load(str(path), study.optimizer)


# ----------------------------------------------------------------------
# EvalEngine.submit / gather
# ----------------------------------------------------------------------
class SlowCountingSphere(Sphere):
    """Sphere with a small evaluation latency and an invocation counter."""

    def __init__(self, dim=2, latency_s=0.01):
        super().__init__(dim)
        self.latency_s = latency_s
        self.calls = 0
        self._lock = threading.Lock()

    def _evaluate(self, x):
        with self._lock:
            self.calls += 1
        time.sleep(self.latency_s)
        return super()._evaluate(x)


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_submit_gather_matches_evaluate_batch(backend):
    problem = Sphere(3)
    X = problem.space.sample(np.random.default_rng(0), 9)
    expected = problem.evaluate_batch(X)
    with EvalEngine(backend, workers=2) as engine:
        handle = engine.submit(problem, X)
        np.testing.assert_array_equal(engine.gather(handle), expected)
        assert handle.done()


def test_submit_is_nonblocking():
    problem = SlowCountingSphere(2, latency_s=0.2)
    with EvalEngine("serial") as engine:
        t0 = time.perf_counter()
        handle = engine.submit(problem, problem.space.sample(
            np.random.default_rng(0), 3))
        submit_elapsed = time.perf_counter() - t0
        F = engine.gather(handle)
    assert submit_elapsed < 0.15  # 3 designs x 0.2s run in the background
    assert F.shape == (3, 1)


def test_overlapping_submits_share_inflight_designs():
    problem = SlowCountingSphere(2, latency_s=0.05)
    rng = np.random.default_rng(1)
    X = problem.space.sample(rng, 4)
    with EvalEngine("serial") as engine:
        h1 = engine.submit(problem, X)
        h2 = engine.submit(problem, X)  # identical batch while 1 is in flight
        F1, F2 = engine.gather(h1), engine.gather(h2)
    np.testing.assert_array_equal(F1, F2)
    assert problem.calls == 4  # second batch rode the first's futures
    assert engine.n_dedup == 4
    assert engine._inflight == {}


def test_submit_after_gather_hits_cache():
    problem = SlowCountingSphere(2, latency_s=0.0)
    X = problem.space.sample(np.random.default_rng(2), 5)
    with EvalEngine("serial") as engine:
        engine.gather(engine.submit(problem, X))
        engine.gather(engine.submit(problem, X))
        assert problem.calls == 5
        assert engine.n_cache_hits == 5


def test_gather_propagates_evaluation_errors():
    class Exploding(Sphere):
        def _evaluate(self, x):
            raise RuntimeError("simulator crashed")

    problem = Exploding(2)
    with EvalEngine("serial") as engine:
        handle = engine.submit(problem, problem.space.sample(
            np.random.default_rng(3), 2))
        with pytest.raises(RuntimeError, match="simulator crashed"):
            engine.gather(handle)
        assert engine._inflight == {}  # failed keys are not left dangling


# ----------------------------------------------------------------------
# Canonical replay keys: mixed-integer checkpoints
# ----------------------------------------------------------------------
def test_checkpoint_resume_bit_identical_with_integer_dims(tmp_path):
    # Integer rounding used to be the gap between the replay store's keys
    # and the engine's cache keys (raw vs rounded bytes, signed zeros);
    # both now go through DesignSpace.canonical, so a mixed-integer
    # checkpoint resumes bit-identically.
    from repro.problems import PressureVessel
    make = lambda: RandomSearch(PressureVessel(), 14, 4)
    reference = Study(make()).run()
    assert PressureVessel().space.integer_mask.any()

    path = tmp_path / "mixed.ckpt.json"
    interrupted = Study(make(), checkpoint_path=str(path), checkpoint_every=1,
                        callbacks=[lambda s: s.history.n_evals >= 8
                                   and s.request_stop()])
    interrupted.run()
    finished = Study.load(str(path), make()).run()
    assert_history_equal(reference, finished)


# ----------------------------------------------------------------------
# auto_checkpoint: crash-resumable shorthand
# ----------------------------------------------------------------------
def test_auto_checkpoint_parameter_validation(tmp_path):
    opt = RandomSearch(Sphere(2), 5, 0)
    path = tmp_path / "auto.ckpt.json"
    with pytest.raises(ValueError, match="not both"):
        Study(opt, auto_checkpoint=str(path), checkpoint_path=str(path))
    with pytest.raises(ValueError, match="every requires"):
        Study(opt, every=2)
    with pytest.raises(ValueError, match="every must be"):
        Study(opt, auto_checkpoint=str(path), every=0)
    study = Study(opt, auto_checkpoint=str(path), every=3)
    assert study.checkpoint_path == str(path)
    assert study.checkpoint_every == 3
    assert Study(opt, auto_checkpoint=str(path)).checkpoint_every == 1


def test_auto_checkpoint_writes_final_snapshot_on_normal_return(tmp_path):
    path = tmp_path / "auto.ckpt.json"
    history = Study(RandomSearch(Sphere(2), 8, 1),
                    auto_checkpoint=str(path)).run()
    assert path.exists()
    # the on-exit snapshot resumes to the already-complete run
    resumed = Study.load(str(path), RandomSearch(Sphere(2), 8, 1)).run()
    assert_history_equal(history, resumed)


def test_auto_checkpoint_crash_mid_run_resumes_bit_identical(tmp_path):
    # The failure-domain pin: a run killed mid-batch by a raising evaluation
    # (the local stand-in for a fleet outage) leaves its last told batch on
    # disk; resuming with a healthy problem completes bit-identically to an
    # uninterrupted run, without re-simulating the recorded prefix.
    class DyingSphere(Sphere):
        def __init__(self, dim=2, fail_after=9):
            super().__init__(dim)
            self.calls = 0
            self.fail_after = fail_after

        def _evaluate(self, x):
            self.calls += 1
            if self.calls > self.fail_after:
                raise RuntimeError("simulator farm went down")
            return super()._evaluate(x)

    reference = Study(RandomSearch(Sphere(2), 16, 3)).run()
    path = tmp_path / "crash.ckpt.json"
    crashing = Study(RandomSearch(DyingSphere(2, fail_after=9), 16, 3),
                     auto_checkpoint=str(path))
    with pytest.raises(RuntimeError, match="farm went down"):
        crashing.run()
    assert path.exists(), "the crash exit path must still write a snapshot"
    assert crashing.n_batches >= 1

    resumed = Study.load(str(path), RandomSearch(Sphere(2), 16, 3)).run()
    assert_history_equal(reference, resumed)
