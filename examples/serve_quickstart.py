#!/usr/bin/env python
"""Serving quickstart: a batched force-evaluation service in-process.

``repro.serve`` turns a compiled potential into a concurrent service:
requests for single structures are admitted through a bounded queue,
coalesced into padded batches by the micro-batcher, routed through a
capacity-bucketed plan cache (so heterogeneous sizes still replay a
captured plan), and evaluated by a worker pool — with results bitwise
identical to direct eager evaluation.

This script registers two models, serves a mixed-size request stream,
verifies exactness against the eager path, and prints the serving
metrics (throughput, latency percentiles, replay rate).

Run:  python examples/serve_quickstart.py

With ``REPRO_ARTIFACT_DIR`` set, span tracing is enabled for the run and
the final server metrics snapshot + trace document are written there as
deterministic JSON (the CI smoke uploads them as workflow artifacts).
"""

import os
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.md import Cell, System, neighbor_list
from repro.models import LennardJones, MorsePotential
from repro.serve import Client, ForceServer, ModelRegistry


def make_system(n, seed, box=8.0):
    rng = np.random.default_rng(seed)
    return System(
        rng.uniform(0, box, size=(n, 3)),
        rng.integers(0, 2, size=n),
        Cell.cubic(box),
    )


def main() -> None:
    artifact_dir = os.environ.get("REPRO_ARTIFACT_DIR")
    if artifact_dir:
        obs.enable()
    registry = ModelRegistry()
    lj = LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
    registry.register("lj", lj)
    registry.register(
        "morse",
        MorsePotential(
            np.full((2, 2), 0.4), np.full((2, 2), 1.6), np.full((2, 2), 1.4), cutoff=3.5
        ),
    )

    # A mixed-size stream: the bucketed plan cache maps every size onto a
    # small ladder of padded capacities, so replays dominate after warmup.
    systems = [make_system(10 + (k % 10), seed=k) for k in range(48)]

    print("1. serving a 48-request mixed-size stream (10-19 atoms) ...")
    with ForceServer(registry, n_workers=2, max_batch=8) as server:
        client = Client(server, model="lj")
        morse = Client(server, model="morse")
        client.evaluate_many(systems)  # warmup: capture + bucket discovery
        morse.evaluate(systems[0])
        warm = server.metrics.snapshot()  # report steady-state counts only
        t0 = time.perf_counter()
        results = client.evaluate_many(systems)
        elapsed = time.perf_counter() - t0
        counts = obs.Registry.delta_since(warm, server.metrics.snapshot())

        print("2. routing a request to a second registered model ...")
        e_morse, _ = morse.evaluate(systems[0])

        stats = server.stats()

    replays = counts.get("plan_replays", 0)
    evaluated = replays + counts.get("plan_captures", 0)
    print(f"   {len(systems) / elapsed:.0f} requests/s warm "
          f"({counts.get('batches', 0)} batches, "
          f"plan replay rate {replays / max(evaluated, 1):.1%})")
    latency = stats["histograms"]["latency_s"]
    print(f"   latency over all {latency['count']} requests: "
          f"p50 {latency['p50'] * 1e3:.2f} ms, p99 {latency['p99'] * 1e3:.2f} ms")
    print(f"   morse energy for request 0: {e_morse:.6f} eV")

    print("3. verifying served results are bitwise eager ...")
    exact = True
    for system, (e, f) in zip(systems, results):
        e0, f0 = lj.energy_and_forces(system, neighbor_list(system, lj.cutoff))
        exact &= (e == e0) and np.array_equal(f, f0)
    print(f"   all 48 served results bitwise identical to eager: {exact}")
    if not exact:
        raise SystemExit("serving changed the physics — this is a bug")
    print("   (batching concatenates disjoint graphs and every kernel is")
    print("    row-local, so the service changes throughput, not physics)")

    if artifact_dir:
        out = Path(artifact_dir)
        out.mkdir(parents=True, exist_ok=True)
        obs.write_json(out / "serve_stats.json", stats)
        obs.get_tracer().write_json(out / "serve_trace.json")
        obs.disable()
        print(f"   stats + trace artifacts written to {out}")


if __name__ == "__main__":
    main()
