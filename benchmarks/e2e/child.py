"""One workload in one fresh process; prints one JSON object as its last line.

``run.py`` spawns this with ``PYTHONPATH=src`` and single-threaded BLAS.  The
process sets the workload up (that is ``setup_s``, counted from the instant
the parent spawned it), measures it for ``--seconds``, runs the correctness
gate, and reports either the end-to-end metrics (``--trace 0``, wrappers
never installed) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import declare
import stats
import trace
from workloads import WORKLOADS, Measurement, peak_rss_mb


class EngineProbe:
    """Hook on ``CompiledPotential.evaluate``: which plans ran, how full they were."""

    def __init__(self) -> None:
        self.seen: dict = {}
        self.pairs = 0
        self.capacity = 0

    def __call__(self, args, kwargs):
        compiled = args[0]
        nl = kwargs["nl"] if "nl" in kwargs else args[3]
        before = compiled.n_captures

        def after() -> int:
            self.seen[id(compiled)] = compiled
            self.pairs += nl.n_edges
            self.capacity += compiled.capacity_pairs
            return compiled.n_captures - before

        return after


def verlet_hook(args, kwargs):
    verlet = args[0]
    before = verlet.n_builds
    return lambda: verlet.n_builds - before


def end_to_end(workload, m: Measurement, strict: bool) -> dict:
    """The per-process end-to-end metrics (``setup_s`` is added by the parent).

    Every time is expressed at reference machine speed: a segment that ran
    while the machine was 30 % slow has its times scaled down by as much.
    """
    tail_q = declare.WORKLOADS[workload.name][1]
    lat = [[x * s.speed for x in s.latencies_ms] for s in m.latency_segments]
    n_lat = sum(len(s) for s in lat)
    per_seg_p50 = [stats.percentile(s, 50, strict=False) for s in lat if s]
    p50 = stats.segmented_percentile(lat, 50, strict)
    tail = stats.segmented_percentile(lat, tail_q, strict)
    good = [s for s in m.rate_segments if s.ok > 0]
    return {
        "ops_per_s": stats.summary([s.ok / s.wall / s.speed for s in good]),
        "cpu_ms_per_op": stats.summary([s.cpu / s.ok * 1e3 * s.speed for s in good]),
        "latency_p50_ms": {**stats.summary(per_seg_p50), "value": p50, "n": n_lat},
        "latency_tail_ms": {"value": tail, "q1": tail, "q3": tail, "n": n_lat},
        "peak_rss_mb": stats.summary([peak_rss_mb()]),
    }


def pooled_rate(segments) -> float:
    """All ops over all time at reference speed: unlike a median of segment
    rates it counts rare expensive steps on whichever side they fell."""
    return sum(s.ok for s in segments) / sum(s.wall * s.speed for s in segments)


def per_layer(workload, tracer, engine, m, rows, strict, seconds) -> dict:
    """Every declared per-layer metric; 0 where the layer did nothing."""
    spans = tracer.spans
    measured = trace.window(spans, *rows)
    self_s = trace.self_times(measured)
    out = {name: 0.0 for name, *_ in declare.PER_LAYER}

    for name in out:
        if name.endswith(".busy_s"):
            out[name] = self_s.get(name[: -len(".busy_s")], 0.0)
    out["traj.barrier.wait_s"] = self_s.get("traj.barrier", 0.0)
    out["md.step_loop.self_s"] = self_s.get("md.step_loop", 0.0)
    out["nn.fit.self_s"] = self_s.get("nn.fit", 0.0)

    def p50_ms(span_name: str) -> float:
        d = trace.durations_ms(measured, span_name)
        return stats.percentile(d, 50, strict) if d else 0.0

    out["engine.evaluate.p50_ms"] = p50_ms("engine.evaluate")
    out["nn.optimizer_step.p50_ms"] = p50_ms("nn.optimizer_step")
    out["serve.submit.p50_us"] = p50_ms("serve.submit") * 1e3
    out["md.neighbor.rebuilds"] = sum(
        s.count for s in measured
        if s is not None and trace.ALIASES.get(s.name, s.name) == "md.neighbor"
    )

    # the first capture happens during set-up, so look at every span
    out["engine.capture_s"] = sum(
        s.end - s.start for s in spans
        if s is not None and s.name == "engine.evaluate" and s.count > 0
    )
    plans = list(engine.seen.values())
    captures = sum(p.n_captures for p in plans)
    evaluations = sum(p.n_replays for p in plans)  # a capture is a slow replay
    out["engine.captures"] = captures
    out["engine.replays"] = evaluations - captures
    out["engine.replay_share"] = (
        (evaluations - captures) / evaluations if evaluations else 0.0)
    out["engine.plan_steps"] = max(
        (p.stats().get("plan_steps", 0) for p in plans), default=0)
    out["engine.arena_bytes"] = sum(p.stats().get("arena_bytes", 0) for p in plans)
    out["engine.padding_waste"] = (
        1.0 - engine.pairs / engine.capacity if engine.capacity else 0.0)

    for key in ("data.generate_s", "data.label_frames_s"):
        out[key] = workload.setup_info.get(key, 0.0)
    out["obs.trace_overhead_share"] = (
        1.0 - pooled_rate(m.rate_segments) / pooled_rate(m.untraced_rate_segments))
    root_wall = sum(
        s.end - s.start for s in measured
        if s is not None and s.name == workload.root_span
    )
    out["obs.span_coverage"] = root_wall / m.traced_wall if m.traced_wall else 0.0

    out.update(workload.counts())
    out.update(workload.micro())
    out.update(workload.traced_metrics(m, measured, strict, seconds))
    return out


def emit(payload: dict) -> None:
    print(json.dumps(payload, allow_nan=False))
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.scale)
    strict = args.scale >= 1.0
    tracer = engine = hooks = None
    if args.trace:
        tracer, engine = trace.Tracer(), EngineProbe()
        hooks = {
            "engine.evaluate": engine,
            "md.neighbor": verlet_hook,
            "md.neighbor.shard": lambda a, k: (lambda: 1),
        }
        tracer.install(hooks)  # set-up is traced too: the first capture is there
    if workload.ONE_CPU and hasattr(os, "sched_setaffinity"):
        # before any thread exists: threads inherit the affinity of their parent
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        workload.setup()
        setup_s = time.time() - args.spawned_at
        if tracer is not None:
            tracer.uninstall()
            tracer.op = 0  # set-up spans carry -1; measured ops count from 0
            workload.tracer = tracer
        speed = workload.probe()
        result = {
            "workload": args.workload,
            "seed": args.seed,
            # at reference machine speed, like every other time
            "setup_s": setup_s * statistics.median(speed() for _ in range(3)),
            "setup_info": workload.setup_info,
        }
        if args.setup_only:
            emit(result)
            return 0

        first_row = len(tracer.spans) if tracer else 0
        m = workload.measure(args.seconds, tracer, hooks)
        if tracer is None:
            metrics = end_to_end(workload, m, strict)
        else:
            rows = (first_row, len(tracer.spans))
            values = per_layer(workload, tracer, engine, m, rows, strict, args.seconds)
            metrics = {k: {"value": float(v)} for k, v in values.items()}
        checks = workload.gate()
    finally:
        workload.close()

    if tracer is not None:
        from repro.obs.jsonio import write_json

        spans_file = args.workdir / f"spans-{args.workload}.json"
        write_json(spans_file, trace.dump(tracer.spans, {
            k: v["value"] for k, v in metrics.items()}))
        result["spans_file"] = str(spans_file)
    result.update(
        attempted=m.attempted + len(checks),
        failed=m.failed + sum(1 for _, ok, _ in checks if not ok),
        checks=[[name, bool(ok), detail] for name, ok, detail in checks],
        metrics=metrics,
    )
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
