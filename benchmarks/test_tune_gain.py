"""Autotuning gain: the tuned serve configuration must beat the defaults.

``repro tune --target serve`` scores each candidate batch size and plan
ladder on one inline run of the real server stages: the configured stream
is admitted, the batcher closed and drained through the executor without
a worker thread, and the recorded batches, plan captures and padded pair
rows are priced by a fixed cost table.  Those are counts, not times, so
this benchmark checks the pick the only way that counts: wall-clock
throughput of *real* threaded ForceServers, cold (fresh plan cache), on
the same mixed-size request stream, and asserts the tuned pick buys
>= 1.15x the defaults.

Cold servers are the honest comparison — the tuned ladder's advantage is
fewer, cheaper plan captures plus fuller batches, which warm caches
amortize away.  The configurations are interleaved round-robin so
CPU-frequency drift on a shared box cancels out of the ratios.  A third
column runs the pick of the discrete-event serve model the tuner used
before: it chose the same batch size and ladder plus one worker and a
fixed batch window, knobs an inline run cannot observe.
"""

import statistics
import time
from dataclasses import replace

import numpy as np

from conftest import fmt_table
from repro.config import build_potential, build_server, load_config, request_stream
from repro.serve import Client
from repro.tune.targets import SERVE_SPACE, tune_serve

ROUNDS = 9

#: Mixed-size request stream: six molecule sizes cycled over 64 requests,
#: the serving analogue of the paper's heterogeneous inference traffic.
WORKLOAD_CONFIG = {
    "potential": {
        "kind": "lennard_jones",
        "epsilon": 0.8,
        "sigma": 1.1,
        "cutoff": 3.0,
    },
    "serve": {"engine": "compiled", "max_queue": 128},
    "workload": {
        "systems": [{"kind": "molecule", "n_heavy": h} for h in (3, 4, 5, 6, 7, 8)],
        "n_requests": 64,
        "seed": 0,
    },
}

#: What the discrete-event serve model picked for this workload.
MODEL_PICK = {
    "max_batch": 32,
    "plan_floor": 64,
    "plan_growth": 1.5,
    "n_workers": 1,
    "batch_wait": 0.002,
    "adaptive": False,
}


def measure_serve(params: dict) -> float:
    """Requests/s of one burst through a cold, threaded server under
    ``params`` (no admission policy: the batching/plan knobs alone)."""
    cfg = load_config(WORKLOAD_CONFIG)
    systems = request_stream(cfg.workload)
    server = build_server(
        replace(cfg.serve, qos=None, **params), build_potential(cfg.potential)
    )
    with server:
        t0 = time.perf_counter()
        Client(server).evaluate_many(systems)
        return len(systems) / (time.perf_counter() - t0)


def test_tuned_serve_beats_defaults(reporter, benchmark):
    report = tune_serve(WORKLOAD_CONFIG)
    serve = load_config(WORKLOAD_CONFIG).serve
    configs = {
        "default": SERVE_SPACE.defaults(),
        "tuned": report["best"],
        "model_pick": MODEL_PICK,
    }
    rates = {name: [] for name in configs}
    for name, params in configs.items():  # one discarded warmup round
        measure_serve(params)
    for _ in range(ROUNDS):
        for name, params in configs.items():
            rates[name].append(measure_serve(params))
    median = {name: statistics.median(r) for name, r in rates.items()}
    quartiles = {name: np.percentile(r, [25, 75]) for name, r in rates.items()}
    gain = {name: median[name] / median["default"] for name in configs}

    rows = []
    for name, params in configs.items():
        knobs = {
            "n_workers": serve.n_workers,
            "batch_wait": serve.batch_wait,
            "adaptive": serve.adaptive,
            **params,
        }
        lo, hi = quartiles[name]
        rows.append(
            (
                name,
                " ".join(f"{k}={knobs[k]}" for k in sorted(knobs)),
                f"{median[name]:.0f} [{lo:.0f}, {hi:.0f}]",
                f"{gain[name]:.2f}x",
            )
        )
    metrics = report["metrics"]
    reporter(
        "tune_gain",
        fmt_table(
            [
                "config",
                "knobs",
                f"req/s median [IQR] of {ROUNDS}, cold",
                "gain",
            ],
            rows,
            title="Serve autotuning gain, 64-request mixed-size stream",
        ),
        data={
            **{
                name: {
                    "params": params,
                    "requests_per_s": median[name],
                    "iqr": [float(q) for q in quartiles[name]],
                    "gain": gain[name],
                }
                for name, params in configs.items()
            },
            "rounds": ROUNDS,
            "modeled": {
                "score": report["score"],
                **{
                    key: metrics[key]
                    for key in (
                        "batches",
                        "captures",
                        "mean_occupancy",
                        "padded_waste",
                    )
                },
            },
        },
    )

    assert gain["tuned"] >= 1.15, (
        f"tuned serve config {report['best']} reached only "
        f"{gain['tuned']:.2f}x of the default throughput "
        f"({median['tuned']:.0f} vs {median['default']:.0f} req/s; need 1.15x)"
    )

    benchmark.pedantic(
        lambda: measure_serve(report["best"]), rounds=2, iterations=1
    )
