"""Which layer entry points a traced study wraps, and the per-layer metrics.

Spans are named ``<layer>.<entry point>``; the layer prefix groups them in
the self-time table.  Counts that need a call's arguments or result (critic
steps, pseudo-sample pairs, wire bytes) are taken in the wrappers.
"""

from __future__ import annotations

import json
import math
import statistics

from repro.core import Actor, Critic, EvalEngine, Optimizer
from repro.core import dnn_opt, service
from repro.nn import Tensor
from repro.problems.base import OptimizationProblem

from .tracing import Tracer, self_times

__all__ = ["instrument", "layer_metrics"]


def _frame_bytes(obj) -> int:
    """Size on the wire of one protocol frame carrying ``obj``."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return service._HEADER.size + len(payload)


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points for one traced study."""
    counts = tracer.counts

    def critic_fit(args, _result):
        critic, inputs = args[0], args[1]
        n = len(inputs)
        counts["critic.fit_steps"] += critic.epochs * math.ceil(
            n / min(critic.batch_size, n))

    def actor_fit(args, _result):
        counts["actor.fit_steps"] += args[0].epochs

    def pseudo(_args, result):
        counts["pseudo.pairs"] += len(result[0])

    def sent(args, _result):
        counts["service.bytes_out"] += _frame_bytes(args[1])

    def received(_args, result):
        if result is not None:
            counts["service.bytes_in"] += _frame_bytes(result)

    # core.study / core.dnn_opt: the ask/tell protocol the Study drives.
    tracer.wrap(Optimizer, "ask", "dnn_opt.ask")
    tracer.wrap(Optimizer, "tell", "study.tell")
    # core.pseudo (looked up through dnn_opt's namespace), core.critic,
    # core.actor, nn.
    tracer.wrap(dnn_opt, "generate_pseudo_samples", "pseudo.generate", pseudo)
    tracer.wrap(Critic, "fit", "critic.fit", critic_fit)
    tracer.wrap(Critic, "predict", "critic.predict")
    tracer.wrap(Actor, "fit", "actor.fit", actor_fit)
    tracer.wrap(Actor, "propose", "actor.propose")
    tracer.count_calls(Tensor, "__init__", "nn.tensors")
    # core.engine and problems/circuits (in-process evaluations only).
    tracer.wrap(EvalEngine, "evaluate_batch", "engine.evaluate_batch")
    tracer.wrap(EvalEngine, "submit", "engine.submit")
    tracer.wrap(EvalEngine, "gather", "engine.gather")
    tracer.wrap(OptimizationProblem, "evaluate", "problems.evaluate")
    # core.service, coordinator side.  recv_msg runs on the connection's
    # reader thread, where it mostly waits for the next frame, so it is
    # counted rather than timed.
    tracer.wrap(service.MultiplexedConnection, "request", "service.request")
    tracer.wrap(service, "send_msg", "service.send", sent)
    tracer.count_calls(service, "recv_msg", "service.recv", received)


def _total(spans, name) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _count(spans, names) -> int:
    return sum(1 for s in spans if s.name in names)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(record, tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced study."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    hp = record.hotpath
    counters = record.counters
    scen = record.scenarios

    critic_fit = _total(spans, "critic.fit")
    actor_fit = _total(spans, "actor.fit")
    critic_steps = counts["critic.fit_steps"]
    actor_steps = counts["actor.fit_steps"]
    evaluate_s = _total(spans, "problems.evaluate")
    phases = hp["assemble_s"] + hp["solve_s"] + hp["ac_build_s"] + hp["ac_solve_s"]
    sims = counters["n_sim_calls"]
    hits, dedup = counters["n_cache_hits"], counters["n_dedup"]
    batch_spans = [s for s in spans if s.name == "engine.evaluate_batch"]
    requests = [s.duration for s in spans if s.name == "service.request"]
    return {
        "critic.fit_s": critic_fit,
        "critic.fit_steps": critic_steps,
        "critic.step_ms": 1e3 * critic_fit / critic_steps if critic_steps else 0.0,
        "critic.predict_s": _total(spans, "critic.predict"),
        "actor.fit_s": actor_fit,
        "actor.fit_steps": actor_steps,
        "actor.step_ms": 1e3 * actor_fit / actor_steps if actor_steps else 0.0,
        "actor.propose_s": _total(spans, "actor.propose"),
        "nn.tensors": counts["nn.tensors"],
        "pseudo.s": _total(spans, "pseudo.generate"),
        "pseudo.pairs": counts["pseudo.pairs"],
        "dnn_opt.model_asks": sum(step.kind == "model_ask" for step in record.steps),
        "dnn_opt.select_s": sum(own[s.sid] for s in spans if s.name == "dnn_opt.ask"),
        "study.ask_s": _total(spans, "dnn_opt.ask"),
        "study.eval_wait_s": sum(s.duration for s in batch_spans if not s.parent),
        "study.tell_s": _total(spans, "study.tell"),
        "spice.assemble_s": hp["assemble_s"],
        "spice.solve_s": hp["solve_s"],
        "spice.ac_s": hp["ac_build_s"] + hp["ac_solve_s"],
        "spice.newton_iterations": hp["newton_iterations"],
        "spice.newton_solves": hp["newton_solves"],
        "spice.ac_solves": hp["ac_solves"],
        "spice.assemble_us_per_iter": (1e6 * hp["assemble_s"] / hp["newton_iterations"]
                                       if hp["newton_iterations"] else 0.0),
        "problems.evaluate_s": evaluate_s,
        "problems.failures": record.penalty_rows,
        "spice.unattributed_s": max(0.0, evaluate_s - phases) if evaluate_s else 0.0,
        "failed_frac": record.penalty_rows / record.n_evals,
        "engine.sims": sims,
        "engine.cache_hits": hits,
        "engine.dedup": dedup,
        "engine.hit_ratio": (hits + dedup) / (hits + dedup + sims) if sims else 0.0,
        "engine.batches": _count(spans, ("engine.evaluate_batch", "engine.submit")),
        "engine.batch_p50_s": _median([s.duration for s in batch_spans]),
        "engine.dispatch_s": hp["dispatch_s"],
        "service.requests": len(requests),
        "service.request_p50_s": _median(requests),
        "service.send_s": _total(spans, "service.send"),
        "service.bytes_out": counts["service.bytes_out"],
        "service.bytes_in": counts["service.bytes_in"],
        "scenarios.corner_sims": scen.get("corner_sims", 0),
        "scenarios.corner_sims_saved": scen.get("corner_sims_saved", 0),
        "scenarios.gated": scen.get("gated", 0),
        "host.probe_ms": 1e3 * record.probe_s,
        "host.probe_idle_ms": 1e3 * record.idle_probe_s,
    }
