"""The three tuning targets: MD step, serve, parallel grid.

Determinism contract
--------------------
``repro tune`` must emit byte-identical profiles across two runs with the
same seed, yet wall clocks are noisy.  Every objective here therefore
runs the real code path and ranks configurations by what the run
**recorded**: counters and gauges of an injected
:class:`repro.obs.Registry` and the server's plan-cache lookups (neighbor
rebuilds, plan captures, padded capacities, pair counts), combined
through a fixed cost model (:data:`COST`).  No wall clock enters a score
or a profile, so one run per configuration is the whole measurement.

The cost model's constants are order-of-magnitude calibrations of this
numpy stack on a dev box; only their *ratios* matter (a capture costs
thousands of replayed pair-rows, a rebuild costs a few force calls'
worth of pair work), the same way the fig. 5 allocator simulation uses
order-of-magnitude CUDA costs.  ``benchmarks/test_tune_gain.py`` checks
the serve target's pick against wall-clock throughput of real servers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace
from typing import List, Optional, Tuple

import numpy as np

from ..config import (
    EXAMPLE_SERVE_CONFIG,
    MDConfig,
    ServeConfig,
    build_potential,
    build_server,
    build_simulation,
    build_system,
    load_config,
    request_stream,
)
from ..models.base import Potential
from ..obs import Registry
from ..parallel.driver import ParallelForceEvaluator
from ..parallel.perfmodel import ClusterSpec, PerfModel
from ..parallel.topology import ProcessGrid, _factor_triplets
from .search import SearchResult, Trial, coordinate_descent
from .space import Param, ParamSpace

__all__ = [
    "COST",
    "tune_md",
    "tune_serve",
    "tune_parallel",
    "run_target",
    "TARGETS",
    "MD_SPACE",
    "SERVE_SPACE",
]

#: Fixed cost-model constants (seconds).  Ratios, not absolutes, drive the
#: search: a plan capture ≈ thousands of replayed pair-rows; a neighbor
#: rebuild ≈ a few force calls of pair work; per-batch dispatch ≈ hundreds
#: of per-pair evaluations.
COST = {
    "pair_eval": 4.0e-7,  # force-pass cost per evaluated (in-cutoff) pair
    "pair_pad": 3.5e-7,  # replayed padded pair-row (compiled plan replay)
    "rebuild_base": 5.0e-4,  # fixed neighbor-rebuild cost (binning, wrap)
    "rebuild_pair": 1.5e-7,  # per skinned-list pair during a rebuild
    "prune_pair": 3.0e-8,  # per skinned-list pair, pruned to the cutoff every step
    "capture_base": 1.2e-3,  # fixed plan-capture cost (tape record, arena)
    "capture_pair": 1.6e-6,  # per pair-row while capturing a single system
    # Per pair-row while capturing a *batch* plan: the serve path hands the
    # engine precomputed, concatenated pair arrays, so per-row tracing
    # amortizes to less than half the single-system slope (measured:
    # ~600-pair capture 1.7 ms, ~4800-pair capture 4.7 ms).
    "batch_capture_pair": 7.0e-7,
    "check_atom": 3.0e-8,  # per-atom displacement check (skipped by cadence)
    "batch_dispatch": 2.5e-4,  # per-batch pickup/concat/split/validate
    "request": 1.0e-4,  # per-request bookkeeping (NL prep, result split)
    "comm_byte": 1.0 / 4.5e10,  # per halo byte (ClusterSpec bandwidth)
}

#: Score assigned to configurations that cannot run at all (e.g. a skin
#: candidate pushing cutoff + skin past the minimum-image bound of a
#: small box).  Finite so profiles stay strict JSON; large enough that
#: no feasible configuration ever loses to an infeasible one.
INFEASIBLE_SCORE = 1e30

# Every knob is a field of the config section its profile is applied to
# (``md`` / ``serve``), and starts the search from that field's default.
# Serve knobs are the ones an inline run observes; the worker count and
# the batch window, which only a threaded run with a clock can score,
# stay hand-set in config.
MD_SPACE = ParamSpace(
    [
        Param("skin", (0.1, 0.2, 0.4, 0.7, 1.0), MDConfig.skin),
        Param("neighbor_every", (1, 2, 4), MDConfig.neighbor_every),
        Param("padding", (0.02, 0.05, 0.1, 0.2), MDConfig.padding),
    ]
)

SERVE_SPACE = ParamSpace(
    [
        Param("max_batch", (4, 8, 16, 32), ServeConfig.max_batch),
        Param("plan_floor", (16, 32, 64), ServeConfig.plan_floor),
        Param("plan_growth", (1.2, 1.5, 2.0), ServeConfig.plan_growth),
    ]
)


def _trial_sort_key(trial: Trial):
    return (trial.score, json.dumps(trial.params, sort_keys=True, default=str))


def _report(
    target: str,
    result: SearchResult,
    space_desc: dict,
    workload: dict,
) -> dict:
    """The per-target best/tried table a profile persists."""
    return {
        "target": target,
        "best": result.best,
        "score": result.best_score,
        "metrics": result.best_metrics,
        "space": space_desc,
        "trials": [
            {"params": t.params, "score": t.score, "metrics": t.metrics}
            for t in sorted(result.trials, key=_trial_sort_key)
        ],
        "n_evaluations": result.n_evaluations,
        "n_sweeps": result.n_sweeps,
        "workload": workload,
    }


# -- MD step target ------------------------------------------------------------


def _default_md_config(seed: int) -> dict:
    # n_grid 3 (81 atoms, L ≈ 9.3 Å) so even the widest skin candidate
    # keeps cutoff + skin under the minimum-image L/2 bound.
    return {
        "system": {"kind": "water", "n_grid": 3, "seed": seed},
        "potential": {
            "kind": "lennard_jones",
            "epsilon": 0.8,
            "sigma": 1.1,
            "cutoff": 3.0,
        },
        "md": {"steps": 30, "dt": 0.5, "temperature": 300.0, "seed": seed},
    }


def _md_workload(raw: dict, n_steps: int, md: MDConfig) -> dict:
    """The workload an ``md`` report describes (specs as written)."""
    return {
        "system": raw["system"],
        "potential": raw["potential"],
        "steps": n_steps,
        "seed": md.seed,
    }


def tune_md(
    config: Optional[dict] = None,
    seed: int = 0,
    steps: Optional[int] = None,
    max_sweeps: int = 3,
) -> dict:
    """Tune neighbor ``skin``, rebuild cadence, and engine ``padding``.

    Each trial runs a short seeded compiled-engine MD segment with a fresh
    injected registry; the score is the modeled seconds/step implied by
    the recorded counters (evaluated and skinned-list pairs per force
    call, rebuild rate, capture rate, padded capacity).  Trajectories are
    bitwise-deterministic per configuration, so the counters — and the
    profile — are too.
    """
    raw = config if config is not None else _default_md_config(seed)
    cfg = load_config(raw)
    md = cfg.md
    n_steps = int(steps if steps is not None else min(md.steps, 60))
    # Potentials without traced_energies (e.g. the reference labeler)
    # cannot be compiled: tune skin/cadence on the eager engine instead.
    # The padding knob is then inert, all its candidates tie, and the
    # descent keeps the default — nothing bogus lands in the profile.
    traced = getattr(
        type(build_potential(cfg.potential)), "traced_energies", None
    )
    compilable = traced is not None and traced is not Potential.traced_energies

    def objective(params: dict) -> Tuple[float, dict]:
        registry = Registry()
        knobs = dict(params, engine="compiled")
        if not compilable:
            knobs.update(engine="eager", padding=None)
        sim = build_simulation(
            replace(cfg, md=replace(md, **knobs)), registry=registry
        )
        system = sim.system
        system.seed_velocities(md.temperature, np.random.default_rng(md.seed))
        try:
            sim.run(n_steps)
        except ValueError as exc:
            # e.g. cutoff + skin beyond the minimum-image bound of this box
            return INFEASIBLE_SCORE, {"infeasible": str(exc)}

        snap = registry.snapshot()
        counters = snap["counters"]
        force_calls = max(snap["histograms"]["md.force_seconds"]["count"], 1)
        pairs_per_call = counters.get("md.pairs", 0) / force_calls
        candidates_per_call = counters.get("md.candidate_pairs", 0) / force_calls
        rebuild_rate = counters.get("md.neighbor_rebuilds", 0) / force_calls
        capture_rate = counters.get("engine.captures", 0) / force_calls
        cap_pairs = snap["gauges"].get("engine.capacity_pairs", 0.0)
        pad_rows = max(cap_pairs - pairs_per_call, 0.0)
        check_rate = 1.0 / params["neighbor_every"]

        cost = (
            pairs_per_call * COST["pair_eval"]
            + pad_rows * COST["pair_pad"]
            + candidates_per_call * COST["prune_pair"]
            + rebuild_rate
            * (COST["rebuild_base"] + candidates_per_call * COST["rebuild_pair"])
            + capture_rate
            * (COST["capture_base"] + cap_pairs * COST["capture_pair"])
            + check_rate * system.n_atoms * COST["check_atom"]
        )
        metrics = {
            "modeled_s_per_step": cost,
            "pairs_per_call": pairs_per_call,
            "candidates_per_call": candidates_per_call,
            "rebuild_rate": rebuild_rate,
            "capture_rate": capture_rate,
            "capacity_pairs": cap_pairs,
        }
        return cost, metrics

    result = coordinate_descent(MD_SPACE, objective, max_sweeps=max_sweeps)
    return _report("md", result, MD_SPACE.describe(), _md_workload(raw, n_steps, md))


# -- serve target --------------------------------------------------------------


def tune_serve(
    config: Optional[dict] = None, seed: int = 0, max_sweeps: int = 3
) -> dict:
    """Tune the batch size and the plan ladder on the real server stages.

    Each trial builds a cold :class:`~repro.serve.ForceServer` for the
    candidate, admits the whole configured request stream without
    starting a worker, closes the batcher and pumps
    ``batcher.get_batch`` → ``executor.run`` inline until the queue is
    empty.  One closed queue releases FIFO chunks of ``max_batch``, so the
    run — batches, plan captures, bucket choices — needs no clock and is
    the same on every repeat.  The score is :data:`COST` applied to what
    the run recorded: the server's ``batches`` and ``plan_captures``
    counters, and the real and padded pair rows of every plan-cache
    lookup.  ``seed`` seeds the built-in workload when ``config`` is None.
    """
    raw = config if config is not None else {
        **EXAMPLE_SERVE_CONFIG,
        "workload": {**EXAMPLE_SERVE_CONFIG["workload"], "seed": seed},
    }
    cfg = load_config(raw)
    potential = build_potential(cfg.potential)
    stream = request_stream(cfg.workload)

    def objective(params: dict) -> Tuple[float, dict]:
        registry = Registry()
        # Throughput of the batching/plan knobs alone: no admission policy,
        # and room for the whole stream in the queue.
        server = build_server(
            replace(cfg.serve, qos=None, max_queue=len(stream), **params),
            potential,
            metrics=registry,
            start=False,
        )
        cache = server.registry.get().ensure_cache()
        lookups = []  # (pair rows, padded pair capacity) per plan lookup
        acquire = cache.acquire

        def recording_acquire(n_atoms: int, n_pairs: int):
            entry = acquire(n_atoms, n_pairs)
            lookups.append((n_pairs, entry.key[1]))
            return entry

        cache.acquire = recording_acquire
        server.start(workers=False)
        futures = [server.submit(system) for system in stream]
        server.batcher.close()
        captures = registry.counter("plan_captures")
        capture_rows = 0
        while (batch := server.batcher.get_batch(timeout=0)) is not None:
            before = captures.value
            server.executor.run(batch)
            if captures.value > before:
                # Tracing cost scales with the rows actually recorded, not
                # the padded capacity: a coarse ladder makes captures rarer
                # without making each one proportionally dearer.
                capture_rows += lookups[-1][0]
        server.stop()
        for future in futures:
            future.result()  # a request the run failed fails the trial

        batches = registry.counter("batches").value
        rows = sum(n for n, _ in lookups)
        padded = sum(cap for _, cap in lookups)
        cost = (
            batches * COST["batch_dispatch"]
            + len(stream) * COST["request"]
            + padded * COST["pair_pad"]
            + captures.value * COST["capture_base"]
            + capture_rows * COST["batch_capture_pair"]
        )
        metrics = {
            "modeled_requests_per_s": len(stream) / cost,
            "batches": batches,
            "mean_occupancy": len(stream) / batches if batches else 0.0,
            "captures": captures.value,
            "replays": registry.counter("plan_replays").value,
            "evictions": cache.n_evictions,
            "padded_waste": (padded - rows) / rows if rows else 0.0,
        }
        return cost, metrics

    result = coordinate_descent(SERVE_SPACE, objective, max_sweeps=max_sweeps)
    workload = {
        # As written; a config that leaves the stream to the default
        # describes the default's full spec.
        "systems": raw.get("workload", {}).get("systems")
        or [asdict(spec) for spec in cfg.workload.systems],
        "n_requests": cfg.workload.n_requests,
        "seed": cfg.workload.seed,
        "potential": raw["potential"],
    }
    return _report("serve", result, SERVE_SPACE.describe(), workload)


# -- parallel decomposition target ---------------------------------------------


def tune_parallel(
    config: Optional[dict] = None,
    seed: int = 0,
    n_steps: int = 3,
    top_k: int = 3,
) -> dict:
    """Pick the process-grid factorization for a rank count.

    All factor triplets of ``n_ranks`` are ranked by a
    :class:`~repro.parallel.perfmodel.PerfModel` surrogate (compute floor
    + grid-shaped halo surface), then the ``top_k`` model candidates are
    verified by measurement: a real
    :class:`~repro.parallel.ParallelForceEvaluator` runs a few force
    evaluations per candidate and the deterministic comm-byte and
    load-imbalance counters decide the winner.  Unverified candidates
    keep their model scores in the tried table (``verified: false``); a
    candidate whose bricks are thinner than cutoff + skin scores
    :data:`INFEASIBLE_SCORE` and is never picked.
    """
    # The built-in workload's system and potential stand in for whichever
    # of the two the given config leaves out.
    raw = {**_default_md_config(seed), **(config or {})}
    cfg = load_config(raw)
    system_spec, potential_spec = raw["system"], raw["potential"]
    n_ranks = cfg.parallel.n_ranks
    probe = build_system(cfg.system)
    if probe.cell is None:
        raise ValueError("parallel tuning needs a periodic system")
    potential = build_potential(cfg.potential)
    volume = float(np.prod(probe.cell.lengths))
    density = probe.n_atoms / volume
    spec = ClusterSpec()
    model = PerfModel(spec=spec, density=density, cutoff=potential.cutoff)
    breakdown = model.step_breakdown(
        probe.n_atoms, max(1, math.ceil(n_ranks / spec.gpus_per_node))
    )

    def model_score(dims: Tuple[int, int, int]) -> float:
        brick = probe.cell.lengths / np.asarray(dims, dtype=np.float64)
        shell = float(
            np.prod(brick + 2.0 * potential.cutoff) - np.prod(brick)
        )
        halo_bytes = shell * density * 24.0 * 2.0
        halo = halo_bytes / (spec.total_bandwidth_Bps / n_ranks)
        return breakdown.compute + halo + breakdown.latency + breakdown.sync

    candidates = sorted(_factor_triplets(n_ranks))
    ranked = sorted(candidates, key=lambda d: (model_score(d), d))

    def measure(dims: Tuple[int, int, int]) -> Tuple[float, dict]:
        registry = Registry()
        system = build_system(cfg.system)
        try:
            evaluator = ParallelForceEvaluator(
                potential,
                ProcessGrid(dims, system.cell),
                skin=0.3,
                engine="eager",
                registry=registry,
            )
        except ValueError as exc:
            # A brick thinner than cutoff + skin along some axis.
            return INFEASIBLE_SCORE, {"infeasible": str(exc)}
        work = None
        try:
            for _ in range(max(n_steps, 1)):
                bytes_before = evaluator.cluster.stats.total_bytes()
                _, _, work = evaluator.compute(system)
                halo_bytes = evaluator.cluster.stats.total_bytes() - bytes_before
        finally:
            evaluator.close()  # trials do not pile up rank processes
        edges = np.asarray(work.n_edges, dtype=np.float64)
        max_edges = float(edges.max())
        mean_edges = float(edges.mean()) if edges.size else 0.0
        imbalance = max_edges / mean_edges if mean_edges else 1.0
        score = (
            max_edges * COST["pair_eval"]
            + halo_bytes * COST["comm_byte"]
            + spec.messages_per_step * spec.latency_s
        )
        metrics = {
            "measured_halo_bytes": float(halo_bytes),
            "load_imbalance": imbalance,
            "max_rank_edges": max_edges,
            "modeled_s_per_step": score,
        }
        return score, metrics

    trials: List[Trial] = []
    best: Optional[Trial] = None
    for rank, dims in enumerate(ranked):
        params = {"grid": list(dims)}
        if rank < max(top_k, 1):
            score, metrics = measure(dims)
            metrics["verified"] = True
            metrics["model_s_per_step"] = model_score(dims)
            trial = Trial(params, float(score), metrics)
            if best is None or trial.score < best.score:
                best = trial
        else:
            trial = Trial(
                params,
                float(model_score(dims)),
                {"verified": False, "model_s_per_step": model_score(dims)},
            )
        trials.append(trial)

    result = SearchResult(
        best=dict(best.params),
        best_score=best.score,
        best_metrics=dict(best.metrics),
        trials=trials,
        n_evaluations=min(max(top_k, 1), len(ranked)),
        n_sweeps=1,
    )
    workload = {
        "system": system_spec,
        "potential": potential_spec,
        "n_ranks": n_ranks,
        "n_steps": n_steps,
        "seed": seed,
    }
    space_desc = {"grid": [list(d) for d in candidates]}
    return _report("parallel", result, space_desc, workload)


#: target name -> tuner callable (the CLI dispatch table).
TARGETS = {
    "md": tune_md,
    "serve": tune_serve,
    "parallel": tune_parallel,
}


def run_target(target: str, config: Optional[dict] = None, **kwargs) -> dict:
    """Dispatch one tuning target by name."""
    fn = TARGETS.get(target)
    if fn is None:
        raise ValueError(
            f"unknown tuning target {target!r} (expected one of {sorted(TARGETS)})"
        )
    return fn(config, **kwargs)
