"""The four tuning targets: MD step, engine replay, serve, parallel grid.

Determinism contract
--------------------
``repro tune`` must emit byte-identical profiles across two runs with the
same seed, yet wall clocks are noisy.  Every objective here therefore
ranks configurations by **deterministic signals**: counters and histograms
an injected :class:`repro.obs.Registry` recorded (neighbor rebuilds, plan
captures, padded capacities, pair counts, simulated batch latencies)
combined through a fixed cost model (:data:`COST`).  Wall-clock numbers
are still measured — under the warmup/repeat/median protocol — but are
reported under ``wall_*`` metric keys, which
:class:`~repro.tune.profile.TuningProfile` strips before persisting.

The cost model's constants are order-of-magnitude calibrations of this
numpy stack on a dev box; only their *ratios* matter (a capture costs
thousands of replayed pair-rows, a rebuild costs a few force calls'
worth of pair work), the same way the fig. 5 allocator simulation uses
order-of-magnitude CUDA costs.

Serve simulation
----------------
The serve objective drives the *real* :class:`MicroBatcher` (via its
injectable clock) and the *real* :class:`SizeClasses` ladders through a
single-threaded discrete-event simulation of the serving pipeline:
seeded arrival trace → coalescing windows → LRU plan buckets → modeled
batch service times on an n-worker pool.  Batches are assigned greedily
to the earliest-free worker (the real pool picks up only when a worker
frees; the greedy variant models the batcher policy itself, which is
what is being tuned).  Worker-count scaling is modeled as fully serial
(GIL serial fraction 1): per-batch service inflates by ``n_workers``, so
aggregate capacity is worker-count independent and the model favors few
workers (same throughput, lower in-flight latency).  Real CPython
scaling for these numpy kernels is workload-dependent — the wall
measurements :func:`measure_serve` reports (and the gain benchmark
verifies) are the ground truth the modeled choice is checked against.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import OrderedDict
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
from ..md.neighborlist import neighbor_list
from ..models.base import Potential
from ..obs import LATENCY_BUCKETS, OCCUPANCY_BUCKETS, Registry
from ..parallel.driver import ParallelForceEvaluator
from ..parallel.perfmodel import ClusterSpec, PerfModel
from ..parallel.topology import ProcessGrid, _factor_triplets
from ..perf.allocator import PaddingPolicy
from ..serve import Client
from ..serve.batching import ForceRequest, MicroBatcher
from ..serve.plancache import SizeClasses
from .search import MeasurementProtocol, SearchResult, Trial, coordinate_descent
from .space import Param, ParamSpace

__all__ = [
    "COST",
    "tune_md",
    "tune_serve",
    "tune_engine",
    "tune_parallel",
    "run_target",
    "TARGETS",
    "MD_SPACE",
    "SERVE_SPACE",
    "ENGINE_SPACE",
]

#: Fixed cost-model constants (seconds).  Ratios, not absolutes, drive the
#: search: a plan capture ≈ thousands of replayed pair-rows; a neighbor
#: rebuild ≈ a few force calls of pair work; per-batch dispatch ≈ hundreds
#: of per-pair evaluations.
COST = {
    "pair_eval": 4.0e-7,  # eager force-pass cost per (skinned) neighbor pair
    "pair_pad": 3.5e-7,  # replayed padded pair-row (compiled plan replay)
    "rebuild_base": 5.0e-4,  # fixed neighbor-rebuild cost (binning, wrap)
    "rebuild_pair": 1.5e-7,  # per-pair cost during a rebuild
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

#: Weight of the simulated p99 latency in the serve score (seconds of
#: makespan one second of tail latency is worth).  Deliberately well
#: below 1: throughput (makespan) leads, the tail only breaks ties —
#: a weight that rivals the makespan would chase tiny low-latency
#: batches and give the throughput back.
SERVE_LATENCY_WEIGHT = 0.5

#: Score assigned to configurations that cannot run at all (e.g. a skin
#: candidate pushing cutoff + skin past the minimum-image bound of a
#: small box).  Finite so profiles stay strict JSON; large enough that
#: no feasible configuration ever loses to an infeasible one.
INFEASIBLE_SCORE = 1e30

#: How many times the configured request stream is cycled through the
#: serve simulation.  1 tunes for the declared workload as-is (cold plan
#: caches included — captures weigh what they actually cost a fresh
#: server); raise it to tune for a long-lived service where captures
#: amortize away and steady-state padding waste dominates instead.
SERVE_SIM_CYCLES = 1

# Every knob is a field of the config section its profile is applied to
# (``md`` / ``serve``), and starts the search from that field's default.
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
        Param("batch_wait", (0.0005, 0.001, 0.002, 0.004), ServeConfig.batch_wait),
        Param("adaptive", (True, False), ServeConfig.adaptive),
        Param("n_workers", (1, 2, 4), ServeConfig.n_workers),
        Param("plan_floor", (16, 32, 64), ServeConfig.plan_floor),
        Param("plan_growth", (1.2, 1.5, 2.0), ServeConfig.plan_growth),
    ]
)

ENGINE_SPACE = ParamSpace(
    [Param("padding", (0.0, 0.02, 0.05, 0.1, 0.2, 0.3), MDConfig.padding)]
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
    """The workload a ``md``/``engine`` report describes (specs as written)."""
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
    warmup: int = 0,
    repeats: int = 1,
    max_sweeps: int = 3,
) -> dict:
    """Tune neighbor ``skin``, rebuild cadence, and engine ``padding``.

    Each trial runs a short seeded compiled-engine MD segment with a fresh
    injected registry; the score is the modeled seconds/step implied by
    the recorded counters (pairs per force call, rebuild rate, capture
    rate, padded capacity).  Trajectories are bitwise-deterministic per
    configuration, so the counters — and the profile — are too.
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
        t0 = time.perf_counter()
        try:
            sim.run(n_steps)
        except ValueError as exc:
            # e.g. cutoff + skin beyond the minimum-image bound of this box
            return INFEASIBLE_SCORE, {"infeasible": str(exc)}
        wall = time.perf_counter() - t0

        snap = registry.snapshot()
        counters = snap["counters"]
        force_calls = max(snap["histograms"]["md.force_seconds"]["count"], 1)
        pairs_per_call = counters.get("md.pairs", 0) / force_calls
        rebuild_rate = counters.get("md.neighbor_rebuilds", 0) / force_calls
        capture_rate = counters.get("engine.captures", 0) / force_calls
        cap_pairs = snap["gauges"].get("engine.capacity_pairs", 0.0)
        pad_rows = max(cap_pairs - pairs_per_call, 0.0)
        check_rate = 1.0 / params["neighbor_every"]

        cost = (
            pairs_per_call * COST["pair_eval"]
            + pad_rows * COST["pair_pad"]
            + rebuild_rate
            * (COST["rebuild_base"] + pairs_per_call * COST["rebuild_pair"])
            + capture_rate
            * (COST["capture_base"] + cap_pairs * COST["capture_pair"])
            + check_rate * system.n_atoms * COST["check_atom"]
        )
        metrics = {
            "modeled_s_per_step": cost,
            "pairs_per_call": pairs_per_call,
            "rebuild_rate": rebuild_rate,
            "capture_rate": capture_rate,
            "capacity_pairs": cap_pairs,
            "wall_steps_per_s": n_steps / wall if wall > 0 else 0.0,
        }
        return cost, metrics

    protocol = MeasurementProtocol(objective, warmup=warmup, repeats=repeats)
    result = coordinate_descent(MD_SPACE, protocol, max_sweeps=max_sweeps)
    return _report("md", result, MD_SPACE.describe(), _md_workload(raw, n_steps, md))


# -- engine replay target ------------------------------------------------------


def tune_engine(
    config: Optional[dict] = None,
    seed: int = 0,
    steps: Optional[int] = None,
    warmup: int = 0,
    repeats: int = 1,
    max_sweeps: int = 2,
) -> dict:
    """Map the padding-vs-recapture frontier on a measured pair trace.

    One short seeded MD run produces the per-step neighbor-pair trace
    (the same input the fig. 5 allocator simulation uses); each padding
    candidate then replays that trace through a
    :class:`~repro.perf.allocator.PaddingPolicy`, counting recaptures and
    padded dead rows.  The tried table *is* the frontier — every padding
    with its recapture rate and waste — and the best point minimizes the
    modeled per-step cost.
    """
    raw = config if config is not None else _default_md_config(seed)
    cfg = load_config(raw)
    md = cfg.md
    n_steps = int(steps if steps is not None else min(md.steps, 120))

    sim = build_simulation(replace(cfg, md=replace(md, engine="eager")))
    sim.system.seed_velocities(md.temperature, np.random.default_rng(md.seed))
    t0 = time.perf_counter()
    md_result = sim.run(n_steps, record_every=1)
    trace_wall = time.perf_counter() - t0
    trace = [int(p) for p in md_result.pair_counts]
    if not trace:
        raise ValueError("engine tuning needs a non-empty pair-count trace")

    def objective(params: dict) -> Tuple[float, dict]:
        policy = PaddingPolicy(fraction=params["padding"])
        n_captures = 0
        total_cap = 0
        total_pairs = 0
        total = 0.0
        for pairs in trace:
            if pairs > policy._capacity:
                n_captures += 1
                cap = policy.padded_size(pairs)
                total += COST["capture_base"] + cap * COST["capture_pair"]
            else:
                cap = policy._capacity
            total += cap * COST["pair_pad"]
            total_cap += cap
            total_pairs += pairs
        n = len(trace)
        waste = total_cap / max(total_pairs, 1) - 1.0
        metrics = {
            "modeled_s_per_step": total / n,
            "recapture_rate": max(0, n_captures - 1) / n,
            "n_captures": n_captures,
            "padded_waste": waste,
            "trace_steps": n,
            "wall_trace_steps_per_s": n_steps / trace_wall if trace_wall else 0.0,
        }
        return total / n, metrics

    protocol = MeasurementProtocol(objective, warmup=warmup, repeats=repeats)
    result = coordinate_descent(ENGINE_SPACE, protocol, max_sweeps=max_sweeps)
    return _report(
        "engine", result, ENGINE_SPACE.describe(), _md_workload(raw, n_steps, md)
    )


# -- serve target --------------------------------------------------------------


class _FakeClock:
    """Deterministic monotonic clock driven by the serve simulation."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class _SizedSystem:
    """A stand-in structure carrying only the atom count."""

    __slots__ = ("n_atoms",)

    def __init__(self, n_atoms: int) -> None:
        self.n_atoms = int(n_atoms)


def _workload_sizes(raw: dict) -> Tuple[List[Tuple[int, int]], dict]:
    """Real (n_atoms, n_pairs) sizes for the configured request stream."""
    cfg = load_config(raw)
    workload = cfg.workload
    cutoff = build_potential(cfg.potential).cutoff
    sizes = [
        (system.n_atoms, neighbor_list(system, cutoff).n_edges)
        for system in request_stream(workload)
    ]
    described = {
        # As written; a config that leaves the stream to the default
        # describes the default's full spec.
        "systems": raw.get("workload", {}).get("systems")
        or [asdict(spec) for spec in workload.systems],
        "n_requests": workload.n_requests,
        "seed": workload.seed,
        "potential": raw["potential"],
    }
    return sizes, described


def _simulate_serve(
    params: dict,
    sizes: List[Tuple[int, int]],
    gaps: List[float],
    registry: Registry,
    max_plans: int = 8,
) -> dict:
    """One deterministic pass of the pipeline; records into ``registry``."""
    ladders = ServeConfig(**params).plan_cache_opts()
    clock = _FakeClock()
    batcher = MicroBatcher(
        max_batch=params["max_batch"],
        max_wait=params["batch_wait"],
        adaptive=params["adaptive"],
        clock=clock.now,
    )
    atom_ladder = SizeClasses(ladders["atom_floor"], ladders["growth"])
    pair_ladder = SizeClasses(ladders["pair_floor"], ladders["growth"])
    buckets: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
    n_workers = int(params["n_workers"])
    free_at = [0.0] * n_workers

    lat_hist = registry.histogram("tune.serve.latency_s", LATENCY_BUCKETS)
    occ_hist = registry.histogram("tune.serve.batch_occupancy", OCCUPANCY_BUCKETS)
    c_captures = registry.counter("tune.serve.plan_captures")
    c_replays = registry.counter("tune.serve.plan_replays")
    c_batches = registry.counter("tune.serve.batches")
    c_evictions = registry.counter("tune.serve.plan_evictions")

    pad_rows_total = 0
    real_rows_total = 0

    def handle(batch) -> None:
        nonlocal pad_rows_total, real_rows_total
        n_atoms = sum(r.n_atoms for r in batch)
        n_pairs = sum(r.meta["n_pairs"] for r in batch)
        key = (
            atom_ladder.round_up(n_atoms + 1),
            pair_ladder.round_up(max(n_pairs, 1)),
        )
        if key in buckets:
            buckets.move_to_end(key)
            fresh = False
        else:
            buckets[key] = True
            fresh = True
            while len(buckets) > max_plans:
                buckets.popitem(last=False)
                c_evictions.inc()
        cap_pairs = key[1]
        service = (
            COST["batch_dispatch"]
            + len(batch) * COST["request"]
            + cap_pairs * COST["pair_pad"]
        )
        if fresh:
            # Tracing cost scales with the rows actually recorded, not the
            # padded capacity — a coarse ladder makes captures *rarer*
            # without making each one proportionally dearer.
            service += COST["capture_base"] + n_pairs * COST["batch_capture_pair"]
            c_captures.inc()
        else:
            c_replays.inc()
        # GIL-neutral worker model: the serial fraction is 1, so service
        # inflates by the worker count and aggregate capacity is constant.
        service *= n_workers
        worker = min(range(n_workers), key=lambda i: free_at[i])
        start = max(clock.now(), free_at[worker])
        finish = start + service
        free_at[worker] = finish
        for req in batch:
            lat_hist.observe(finish - req.t_enqueue)
        c_batches.inc()
        occ_hist.observe(len(batch))
        pad_rows_total += cap_pairs - n_pairs
        real_rows_total += n_pairs

    def drain() -> None:
        while True:
            batch = batcher.get_batch(timeout=0.0)
            if batch is None:
                return
            handle(batch)

    for gap, (n_atoms, n_pairs) in zip(gaps, sizes):
        clock.advance(gap)
        batcher.put(
            ForceRequest(
                system=_SizedSystem(n_atoms),
                model="default",
                future=None,
                meta={"n_pairs": n_pairs},
            )
        )
        drain()
    guard = 0
    while batcher.pending() and guard < 100000:
        clock.advance(max(params["batch_wait"], 1e-4))
        drain()
        guard += 1

    makespan = max(max(free_at), clock.now()) if free_at else clock.now()
    n_requests = len(sizes)
    batches = c_batches.value
    return {
        "makespan": makespan,
        "p99": lat_hist.percentile(0.99),
        "p50": lat_hist.percentile(0.50),
        "n_requests": n_requests,
        "n_batches": batches,
        "mean_occupancy": n_requests / batches if batches else 0.0,
        "captures": c_captures.value,
        "replays": c_replays.value,
        "evictions": c_evictions.value,
        "padded_waste": (
            pad_rows_total / real_rows_total if real_rows_total else 0.0
        ),
    }


def tune_serve(
    config: Optional[dict] = None,
    seed: int = 0,
    warmup: int = 0,
    repeats: int = 1,
    max_sweeps: int = 3,
    mean_gap: float = 2.0e-5,
    cycles: Optional[int] = None,
) -> dict:
    """Tune the serving pipeline on a simulated version of the workload.

    The request sizes come from the *real* configured workload systems
    (actual neighbor-list pair counts); arrivals follow a seeded
    exponential trace around ``mean_gap``.  The default is the burst
    cadence of ``evaluate_many`` — tens of microseconds per enqueue, far
    inside any coalescing window, so batches fill to ``max_batch`` the
    way a real burst does; raise it to tune for a trickle of independent
    clients instead.  The stream cycles ``cycles`` times (default
    :data:`SERVE_SIM_CYCLES` — the declared workload as-is, cold caches
    included).  The score is the simulated makespan plus a weighted p99
    latency read back from the injected registry's histogram.
    """
    sizes, workload = _workload_sizes(
        config if config is not None else EXAMPLE_SERVE_CONFIG
    )
    n_sim = len(sizes) * max(1, int(cycles if cycles is not None else SERVE_SIM_CYCLES))
    sim_sizes = [sizes[k % len(sizes)] for k in range(n_sim)]
    rng = np.random.default_rng(seed)
    gaps = [float(g) for g in rng.exponential(mean_gap, size=n_sim)]

    def objective(params: dict) -> Tuple[float, dict]:
        registry = Registry()
        sim = _simulate_serve(params, sim_sizes, gaps, registry)
        score = sim["makespan"] + SERVE_LATENCY_WEIGHT * sim["p99"]
        total = sim["captures"] + sim["replays"]
        metrics = {
            "modeled_requests_per_s": (
                sim["n_requests"] / sim["makespan"] if sim["makespan"] else 0.0
            ),
            "modeled_p50_ms": sim["p50"] * 1e3,
            "modeled_p99_ms": sim["p99"] * 1e3,
            "mean_occupancy": sim["mean_occupancy"],
            "replay_rate": sim["replays"] / total if total else 0.0,
            "captures": sim["captures"],
            "evictions": sim["evictions"],
            "padded_waste": sim["padded_waste"],
        }
        return score, metrics

    protocol = MeasurementProtocol(objective, warmup=warmup, repeats=repeats)
    result = coordinate_descent(SERVE_SPACE, protocol, max_sweeps=max_sweeps)
    workload["simulated_requests"] = n_sim
    workload["mean_gap_s"] = mean_gap
    return _report("serve", result, SERVE_SPACE.describe(), workload)


def measure_serve(
    config: dict, params: dict, repeats: int = 1, warmup: int = 1
) -> float:
    """Wall-clock requests/s of a real :class:`ForceServer` under ``params``.

    The measured counterpart of :func:`tune_serve` — used by the CLI to
    report the tuned configuration's actual throughput and by the gain
    benchmark.  Never feeds the persisted profile (wall clocks are noisy).
    """
    cfg = load_config(config)
    systems = request_stream(cfg.workload)
    n_requests = len(systems)
    # Throughput of the batching/plan knobs alone: no admission policy.
    server = build_server(
        replace(cfg.serve, qos=None, **params),
        build_potential(cfg.potential),
    )
    rates = []
    with server:
        client = Client(server)
        for _ in range(warmup):
            client.evaluate_many(systems)
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            client.evaluate_many(systems)
            rates.append(n_requests / (time.perf_counter() - t0))
    return float(statistics.median(rates))


# -- parallel decomposition target ---------------------------------------------


def tune_parallel(
    config: Optional[dict] = None,
    seed: int = 0,
    n_steps: int = 3,
    top_k: int = 3,
    warmup: int = 0,
    repeats: int = 1,
) -> dict:
    """Pick the process-grid factorization for a rank count.

    All factor triplets of ``n_ranks`` are ranked by a
    :class:`~repro.parallel.perfmodel.PerfModel` surrogate (compute floor
    + grid-shaped halo surface), then the ``top_k`` model candidates are
    verified by measurement: a real
    :class:`~repro.parallel.ParallelForceEvaluator` runs a few force
    evaluations per candidate and the deterministic comm-byte and
    load-imbalance counters decide the winner.  Unverified candidates
    keep their model scores in the tried table (``verified: false``).
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
        evaluator = ParallelForceEvaluator(
            potential,
            ProcessGrid(dims, system.cell),
            skin=0.3,
            engine="eager",
            registry=registry,
        )
        t0 = time.perf_counter()
        work = None
        for _ in range(max(n_steps, 1)):
            bytes_before = evaluator.cluster.stats.total_bytes()
            _, _, work = evaluator.compute(system)
            halo_bytes = evaluator.cluster.stats.total_bytes() - bytes_before
        wall = (time.perf_counter() - t0) / max(n_steps, 1)
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
            "wall_s_per_step": wall,
        }
        return score, metrics

    protocol = MeasurementProtocol(measure, warmup=warmup, repeats=repeats)
    trials: List[Trial] = []
    best: Optional[Trial] = None
    for rank, dims in enumerate(ranked):
        params = {"grid": list(dims)}
        if rank < max(top_k, 1):
            score, metrics = protocol(dims)
            metrics = dict(metrics)
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
    "engine": tune_engine,
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
