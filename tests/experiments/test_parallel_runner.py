"""Parallel trial dispatch: worker count must never change a result.

``run_trials(workers=N)`` spreads the paper's ten-repeats protocol over a
process pool; these tests pin that the histories come back trial-for-trial
identical to serial execution, and that per-algorithm budget overrides in
``compare_algorithms`` survive parallel dispatch.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.baselines import RandomSearch, SimulatedAnnealing
from repro.core import DNNOpt, EvalEngine
from repro.experiments import compare_algorithms, run_trials
from repro.problems import ConstrainedSphere, Sphere


def _assert_histories_equal(a, b):
    assert len(a) == len(b)
    for ha, hb in zip(a, b):
        assert ha.seed == hb.seed
        assert ha.optimizer_name == hb.optimizer_name
        np.testing.assert_array_equal(ha.X, hb.X)
        np.testing.assert_array_equal(ha.F, hb.F)
        np.testing.assert_array_equal(ha.fom, hb.fom)
        np.testing.assert_array_equal(ha.feasible, hb.feasible)


def test_workers4_equals_serial_random_search():
    kwargs = dict(budget=20, n_trials=6, base_seed=11)
    serial = run_trials(lambda p, b, s: RandomSearch(p, b, s),
                        lambda: Sphere(3), workers=1, **kwargs)
    parallel = run_trials(lambda p, b, s: RandomSearch(p, b, s),
                          lambda: Sphere(3), workers=4, **kwargs)
    _assert_histories_equal(serial, parallel)


def test_workers4_equals_serial_dnnopt():
    factory = lambda p, b, s: DNNOpt(p, b, s, n_init=8, n_elite=5,
                                     critic_epochs=4, actor_epochs=4,
                                     critic_hidden=(16, 16), actor_hidden=(16, 16),
                                     max_pseudo=400, batch_size=2)
    kwargs = dict(budget=14, n_trials=4, base_seed=3)
    serial = run_trials(factory, lambda: ConstrainedSphere(2), workers=1, **kwargs)
    parallel = run_trials(factory, lambda: ConstrainedSphere(2), workers=4, **kwargs)
    _assert_histories_equal(serial, parallel)


def test_workers_capped_by_trial_count():
    histories = run_trials(lambda p, b, s: RandomSearch(p, b, s),
                           lambda: Sphere(2), budget=8, n_trials=2,
                           base_seed=0, workers=16)
    assert [h.seed for h in histories] == [0, 1]


def test_trial_order_preserved_under_parallelism():
    histories = run_trials(lambda p, b, s: RandomSearch(p, b, s),
                           lambda: Sphere(2), budget=5, n_trials=5,
                           base_seed=40, workers=5)
    assert [h.seed for h in histories] == [40, 41, 42, 43, 44]


def test_compare_algorithms_budget_overrides_under_parallelism():
    optimizers = {
        "Random": lambda p, b, s: RandomSearch(p, b, s),
        "SA": lambda p, b, s: SimulatedAnnealing(p, b, s),
    }
    kwargs = dict(budget=10, n_trials=3, base_seed=1, budgets={"SA": 24})
    serial = compare_algorithms(optimizers, lambda: Sphere(2), workers=1, **kwargs)
    parallel = compare_algorithms(optimizers, lambda: Sphere(2), workers=3, **kwargs)
    assert all(h.n_evals == 10 for h in parallel["Random"])
    assert all(h.n_evals == 24 for h in parallel["SA"])
    for name in optimizers:
        _assert_histories_equal(serial[name], parallel[name])


def test_concurrent_run_trials_keep_their_own_context():
    # Two run_trials calls racing on different factories/problems: context
    # travels with each dispatch (initargs/partials, no module global), so
    # neither call can ever run the other's factory.
    specs = {
        "Random": (lambda p, b, s: RandomSearch(p, b, s), lambda: Sphere(3)),
        "SA": (lambda p, b, s: SimulatedAnnealing(p, b, s), lambda: Sphere(2)),
    }
    kwargs = dict(budget=10, n_trials=3, base_seed=2)
    serial = {name: run_trials(f, pf, workers=1, **kwargs)
              for name, (f, pf) in specs.items()}
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(run_trials, f, pf, workers=2, **kwargs)
                   for name, (f, pf) in specs.items()}
        concurrent = {name: future.result() for name, future in futures.items()}
    for name, (f, pf) in specs.items():
        dim = pf().dim
        assert all(h.X.shape[1] == dim for h in concurrent[name])
        assert all(h.optimizer_name == serial[name][0].optimizer_name
                   for h in concurrent[name])
        _assert_histories_equal(serial[name], concurrent[name])


def test_engine_factory_leaves_histories_unchanged():
    factory = lambda p, b, s: RandomSearch(p, b, s)
    kwargs = dict(budget=12, n_trials=3, base_seed=7)
    base = run_trials(factory, lambda: Sphere(3), workers=1, **kwargs)
    for engine_factory in (lambda: EvalEngine("serial"),
                           lambda: EvalEngine("thread", workers=2)):
        for workers in (1, 3):
            got = run_trials(factory, lambda: Sphere(3), workers=workers,
                             engine_factory=engine_factory, **kwargs)
            _assert_histories_equal(base, got)


def test_parallel_verbose_prints_in_trial_order(capsys):
    run_trials(lambda p, b, s: RandomSearch(p, b, s), lambda: Sphere(2),
               budget=5, n_trials=3, base_seed=0, workers=3, verbose=True)
    lines = [l for l in capsys.readouterr().out.splitlines() if "trial" in l]
    assert [f"trial {i}" in line for i, line in enumerate(lines)] == [True] * 3
