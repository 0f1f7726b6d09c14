"""``serve``: drive the batched force server with a configured workload."""

from __future__ import annotations

import time

from ..config import build_potential, build_server, load_config, request_stream
from ..obs import write_json
from ..serve import Client
from .common import logger


def serve_config(config: dict, quiet: bool = False, stats_json=None) -> dict:
    """Run the configured serving workload; returns the server stats dict.

    Builds the potential, starts a :class:`repro.serve.ForceServer`, drives
    it with a mixed-size synthetic request stream (cycling the ``workload``
    system specs with varying seeds), and reports throughput, latency
    percentiles, and the plan-cache replay rate.
    """
    log = logger(quiet)
    cfg = load_config(config)
    workload = cfg.workload
    systems = request_stream(workload)
    n_requests = len(systems)
    server = build_server(cfg.serve, build_potential(cfg.potential))
    with server:
        client = Client(
            server, priority=workload.priority, deadline=workload.deadline_s
        )
        log(
            f"serving {n_requests} requests "
            f"({min(s.n_atoms for s in systems)}-{max(s.n_atoms for s in systems)}"
            f" atoms) on {server.engine} engine ..."
        )
        t0 = time.perf_counter()
        client.evaluate_many(systems)
        elapsed = time.perf_counter() - t0
        server.drain()
        stats = server.stats()

    latency = stats["histograms"].get("latency_s", {})
    log(
        f"{n_requests / elapsed:.1f} requests/s; latency p50 "
        f"{latency.get('p50', 0.0) * 1e3:.2f} ms, p99 "
        f"{latency.get('p99', 0.0) * 1e3:.2f} ms"
    )
    log(
        f"batches: {stats['counters'].get('batches', 0)} "
        f"(mean occupancy {stats['batcher']['mean_occupancy']:.1f}); "
        f"plan replay rate {stats['replay_rate']:.1%}"
    )
    errors = stats.get("errors", {})
    log(
        f"health: {stats['health']['state']} "
        f"({stats['health']['transitions']} transitions); "
        f"qos {'enforced' if stats['qos']['enforced'] else 'observe-only'}; "
        f"shed {errors.get('shed', 0)}, deadline-expired "
        f"{stats['counters'].get('requests_expired', 0)}"
    )
    stats["requests_per_second"] = n_requests / elapsed
    if stats_json is not None:
        write_json(stats_json, stats)
    return stats
