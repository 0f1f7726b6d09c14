"""Serving-path throughput: batched vs unbatched, compiled vs eager.

The serving claim mirrors the deployment claim one layer up: the win at
scale comes from the layer around the model — plan reuse across
heterogeneous request sizes (bucketed plan cache) and micro-batching that
amortizes per-request overhead — not from the kernels alone.  This
benchmark drives the same mixed-size request stream through the four
corners of the (engine × batching) grid and records requests/s and
p50/p99 latency, starting the perf trajectory for ``repro.serve``.

Acceptance floors (ISSUE 2):
* batched-compiled serving ≥ 1.5× unbatched-eager serving, and
* plan-cache replay rate ≥ 95% after warmup on the mixed-size stream.
"""

import time

import numpy as np

from conftest import fmt_table
from repro.md import Cell, System
from repro.models import LennardJones
from repro.obs import Registry
from repro.serve import Client, ForceServer

N_STRUCTURES = 40
MEASURED_PASSES = 3


def make_stream(seed=0):
    """A mixed-size request stream (10-21 atoms, shuffled species)."""
    rng = np.random.default_rng(seed)
    systems = []
    for k in range(N_STRUCTURES):
        n = 10 + (k % 12)
        box = 8.0
        systems.append(
            System(
                rng.uniform(0, box, size=(n, 3)),
                rng.integers(0, 2, size=n),
                Cell.cubic(box),
            )
        )
    return systems


def timed_burst(client, systems, latencies):
    """Submit a burst, gather it; per-request submit-to-done seconds."""
    futures = []
    for s in systems:
        t = time.perf_counter()
        fut = client.submit(s)
        fut.add_done_callback(lambda _f, t=t: latencies.append(time.perf_counter() - t))
        futures.append(fut)
    for fut in futures:
        fut.result()


def run_config(label, engine, max_batch, systems):
    pot = LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
    with ForceServer(
        pot, n_workers=2, max_batch=max_batch, max_queue=4 * N_STRUCTURES, engine=engine
    ) as server:
        client = Client(server)
        client.evaluate_many(systems)  # warmup: captures + bucket discovery
        warm = server.metrics.snapshot()  # measure steady state only
        latencies = []
        t0 = time.perf_counter()
        for _ in range(MEASURED_PASSES):
            timed_burst(client, systems, latencies)
        elapsed = time.perf_counter() - t0
        counts = Registry.delta_since(warm, server.metrics.snapshot())
    n_requests = MEASURED_PASSES * len(systems)
    replays = counts.get("plan_replays", 0)
    evaluated = replays + counts.get("plan_captures", 0)
    return {
        "label": label,
        "engine": engine,
        "max_batch": max_batch,
        "requests_per_second": n_requests / elapsed,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "replay_rate": replays / evaluated if evaluated else 0.0,
        "mean_batch_occupancy": counts["requests_served"] / counts["batches"],
    }


def test_serve_throughput(reporter):
    systems = make_stream()
    configs = [
        ("batched-compiled", "compiled", 8),
        ("unbatched-compiled", "compiled", 1),
        ("batched-eager", "eager", 8),
        ("unbatched-eager", "eager", 1),
    ]
    rows = {}
    # Interleave single-pass measurements? Each config runs its own server;
    # run the slowest-sensitive pair twice and keep the best to damp
    # shared-CPU scheduling noise.
    for label, engine, max_batch in configs:
        best = None
        for _ in range(2):
            r = run_config(label, engine, max_batch, systems)
            if best is None or r["requests_per_second"] > best["requests_per_second"]:
                best = r
        rows[label] = best

    speedup = (
        rows["batched-compiled"]["requests_per_second"]
        / rows["unbatched-eager"]["requests_per_second"]
    )
    text = fmt_table(
        ["config", "req/s", "p50 (ms)", "p99 (ms)", "replay rate", "batch occ."],
        [
            (
                r["label"],
                f"{r['requests_per_second']:.0f}",
                f"{r['latency_p50_ms']:.2f}",
                f"{r['latency_p99_ms']:.2f}",
                f"{r['replay_rate']:.1%}" if r["engine"] == "compiled" else "-",
                f"{r['mean_batch_occupancy']:.1f}",
            )
            for r in rows.values()
        ],
        title=(
            "Serving throughput — mixed 10-21 atom LJ stream, 2 workers "
            f"({MEASURED_PASSES}x{N_STRUCTURES} requests): "
            f"batched-compiled / unbatched-eager = {speedup:.2f}x"
        ),
    )
    reporter(
        "serve_throughput",
        text,
        {"configs": list(rows.values()), "speedup_vs_unbatched_eager": speedup},
    )

    # Exactness spot check: the fastest config still matches direct eager.
    pot = LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
    with ForceServer(pot, n_workers=2, max_batch=8) as server:
        e, f = Client(server).evaluate(systems[0])
    from repro.md import neighbor_list

    e0, f0 = pot.energy_and_forces(systems[0], neighbor_list(systems[0], pot.cutoff))
    assert e == e0
    np.testing.assert_array_equal(f, f0)

    # Acceptance floors.
    assert rows["batched-compiled"]["replay_rate"] >= 0.95, (
        f"post-warmup replay rate {rows['batched-compiled']['replay_rate']:.1%}"
    )
    assert speedup >= 1.5, f"batched-compiled only {speedup:.2f}x unbatched-eager"
    # Batching must help the compiled path (the whole point of coalescing).
    assert (
        rows["batched-compiled"]["requests_per_second"]
        > rows["unbatched-compiled"]["requests_per_second"]
    ), "batching did not improve compiled serving throughput"
