"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root is the contract the pipeline reads; its
schema has no room for the *interaction table* (which end-to-end metric each
layer metric should move, on which workload) nor for the seeds, the open-loop
rates and the per-workload tail percentile.  Those live here, next to the
same names, and ``benchmark_json()`` regenerates the contract file from these
tables so the two can never drift (``test_harness.py`` compares them).

Every later performance claim in this repo is stated in these names.
"""

from __future__ import annotations

#: Seed used when none is given, and a seed that must not be used while a
#: change is being written: a claimed gain has to hold on it too.
DEFAULT_SEED = 13
HELD_OUT_SEED = 7919

#: How long one run measures (``--seconds`` of the pipeline).
RUN_SECONDS = 24

#: Open-loop request rates of ``serve_mixed``, frozen as absolute numbers,
#: against a closed-loop capacity of ~3.8 k req/s on one CPU of the pipeline
#: box.  ``RATE_LO`` (~13 %) is the rate the gated latencies are taken at: a
#: request every 2 ms is the most the generator can issue one by one with its
#: 1 ms sleep floor (at 900 req/s it ran 0.8 ms late at the median, and the
#: latency with it), and light-load latency barely follows the box's speed.
#: ``RATE_HI`` (~50 %) and ``RATE_TOP`` (~70 %) feed per-layer numbers only.
#: README.md has the procedure.
RATE_LO = 500.0
RATE_HI = 1800.0
RATE_TOP = 2700.0
#: Latency limit for ``serve.max_rate_within_limit``.
LATENCY_LIMIT_MS = 50.0
CLOSED_LOOP_PERMITS = 32

#: name -> (op counted by ``ops_per_s``, percentile reported as
#: ``latency_tail_ms``, why the workload is here).  The tail percentile is
#: the highest of p99/p95/p90/p75 that keeps at least ten samples beyond it
#: at ``RUN_SECONDS`` on the pipeline box; it is fixed per workload so a
#: faster program never silently changes the estimator.  ``serve_mixed``
#: has the samples for p99 but not the machine: the box stalls for 10-100 ms
#: often enough that 1 % of 500 req/s sits behind a stall in ~40 % of the
#: slices (per-slice p99 3.6-170 ms, per-slice p95 3.4-4.1 ms), so its gated
#: tail is p95 and the p99 is reported per layer.
WORKLOADS = {
    "water_md": (
        "MD step",
        95,
        "81-atom water, Allegro lmax=2, compiled engine, NVT with .rtrj dump and "
        "checkpoints: the paper's whole-application MD time-to-solution including "
        "I/O; engine plan replay does most of the work.",
    ),
    "allegro_train": (
        "training frame consumed",
        75,
        "nn.Trainer on labeled 81-atom water frames: same autodiff/equivariant/"
        "models code as MD but tape build + double backward + optimizer, no "
        "capture/replay, so the engine does zero work here.",
    ),
    "serve_mixed": (
        "request",
        95,
        "ForceServer with a cheap LJ model behind serve.Client, 10-60 atom "
        "structures, open loop at a fixed rate then closed loop: admission, "
        "batching, plan cache and worker hand-off do most of the work.",
    ),
    "lj_parallel4": (
        "MD step",
        90,
        "4000-atom fcc LJ solid, ParallelSimulation on 4 ranks, eager engine: the "
        "paper's scaling path; per-rank force loop over owned+halo atoms, halo "
        "exchange, shard neighbor builds; engine/serve/traj idle.",
    ),
}

#: (name, unit, better, bound, definition)
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25,
     "ops completed correctly per wall second; median over the equal segments "
     "of the measured phase (serve_mixed: the closed-loop phase)"),
    ("cpu_ms_per_op", "ms", "lower", 0.25,
     "process CPU time (all threads) per op over the same segments"),
    ("latency_p50_ms", "ms", "lower", 0.25,
     "median op latency: MD step wall time, one fit(epochs=1) call, or a "
     "request timed from the instant it was due in the 500 req/s open loop"),
    ("latency_tail_ms", "ms", "lower", 0.25,
     "the workload's tail percentile of the same samples (serve_mixed and "
     "water_md p95, lj_parallel4 p90, allegro_train p75)"),
    ("setup_s", "s", "lower", 0.25,
     "subprocess start to first measured op: imports, input generation, "
     "labeling, model build, first capture, warm-up ops; median of three "
     "fresh processes"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the workload subprocess at the end of the measured phase"),
]

ALL = tuple(WORKLOADS)

#: (name, unit, better, end-to-end metrics it should move, workloads it should
#: move them on).  On every other workload the prediction is "flat"; the
#: metric is still emitted there (0 where the layer does nothing), which is
#: what lets a traced run *show* that e.g. the engine is idle in training.
#: ``busy_s`` is the self time of the benchmark's wrapper span around the
#: public call: its duration minus the child spans inside it.
PER_LAYER = [
    # engine: wrapper on CompiledPotential.evaluate + its public counters
    ("engine.evaluate.busy_s", "s", "lower", ("ops_per_s", "cpu_ms_per_op"), ("water_md",)),
    ("engine.evaluate.p50_ms", "ms", "lower", ("ops_per_s", "latency_p50_ms"), ("water_md",)),
    ("engine.capture_s", "s", "lower", ("setup_s",), ("water_md", "serve_mixed")),
    ("engine.captures", "count", "lower", ("setup_s", "latency_tail_ms"), ("water_md", "serve_mixed")),
    ("engine.replays", "count", "higher", ("ops_per_s",), ("water_md", "serve_mixed")),
    ("engine.replay_share", "ratio", "higher", ("ops_per_s",), ("water_md", "serve_mixed")),
    ("engine.plan_steps", "count", "lower", ("ops_per_s", "cpu_ms_per_op"), ("water_md",)),
    ("engine.arena_bytes", "B", "lower", ("peak_rss_mb",), ("water_md",)),
    ("engine.padding_waste", "ratio", "lower", ("cpu_ms_per_op",), ("water_md", "serve_mixed")),
    # eager model path: wrappers on Potential.atomic_energies / Tensor.backward
    # plus direct timed calls on the workload's own edge set
    ("models.atomic_energies.busy_s", "s", "lower", ("ops_per_s",), ("allegro_train", "lj_parallel4")),
    ("autodiff.backward.busy_s", "s", "lower", ("ops_per_s",), ("allegro_train", "lj_parallel4")),
    ("models.eager_force.p50_ms", "ms", "lower", ("ops_per_s", "setup_s"), ("allegro_train", "lj_parallel4")),
    ("equivariant.tp.p50_ms", "ms", "lower", ("ops_per_s",), ("allegro_train",)),
    ("equivariant.sh.p50_ms", "ms", "lower", ("ops_per_s",), ("allegro_train",)),
    ("autodiff.backward.p50_ms", "ms", "lower", ("ops_per_s",), ("allegro_train",)),
    # nn: wrappers on Trainer.train_epoch/evaluate, Adam.step; Trainer.stats()
    ("nn.train_epoch.busy_s", "s", "lower", ("ops_per_s",), ("allegro_train",)),
    ("nn.evaluate.busy_s", "s", "lower", ("ops_per_s", "latency_p50_ms"), ("allegro_train",)),
    ("nn.optimizer_step.p50_ms", "ms", "lower", ("ops_per_s",), ("allegro_train",)),
    ("nn.fit.self_s", "s", "lower", ("ops_per_s",), ("allegro_train",)),
    ("nn.batches", "count", "higher", ("ops_per_s",), ("allegro_train",)),
    ("nn.skipped_batches", "count", "lower", ("ops_per_s",), ("allegro_train",)),
    ("nn.rollbacks", "count", "lower", ("ops_per_s",), ("allegro_train",)),
    ("nn.final_train_loss", "loss", "lower", ("ops_per_s",), ("allegro_train",)),
    # md: wrappers on VerletList.get / DomainDecomposition.local_neighbor_list,
    # VelocityVerlet, LangevinThermostat; direct md.neighbor_list call
    ("md.neighbor.busy_s", "s", "lower", ("ops_per_s", "latency_tail_ms"), ("lj_parallel4", "water_md")),
    ("md.neighbor.build_ms", "ms", "lower", ("ops_per_s", "latency_tail_ms"), ("lj_parallel4",)),
    ("md.neighbor.rebuilds", "count", "lower", ("ops_per_s", "latency_tail_ms"), ("lj_parallel4", "water_md")),
    ("md.pairs_per_step", "count", "lower", ("cpu_ms_per_op",), ("lj_parallel4", "water_md")),
    ("md.integrate.busy_s", "s", "lower", ("ops_per_s",), ("lj_parallel4", "water_md")),
    ("md.thermostat.busy_s", "s", "lower", ("ops_per_s",), ("lj_parallel4", "water_md")),
    ("md.step_loop.self_s", "s", "lower", ("ops_per_s",), ("water_md", "lj_parallel4")),
    # traj / resilience: wrappers on TrajectoryWriter.record/barrier and
    # CheckpointManager.save; writer.stats()
    ("traj.record.busy_s", "s", "lower", ("ops_per_s", "latency_tail_ms"), ("water_md",)),
    ("traj.barrier.wait_s", "s", "lower", ("ops_per_s", "latency_tail_ms"), ("water_md",)),
    ("traj.frames_durable", "count", "higher", ("ops_per_s",), ("water_md",)),
    ("traj.frames_dropped", "count", "lower", ("ops_per_s",), ("water_md",)),
    ("traj.bytes_per_frame", "B", "lower", ("ops_per_s",), ("water_md",)),
    ("resilience.checkpoint.busy_s", "s", "lower", ("ops_per_s", "latency_tail_ms"), ("water_md", "allegro_train")),
    ("resilience.checkpoint.count", "count", "lower", ("ops_per_s",), ("water_md", "allegro_train")),
    ("resilience.checkpoint.bytes", "B", "lower", ("ops_per_s",), ("water_md", "allegro_train")),
    # serve: wrapper on Client.submit; ForceServer.stats(); generator clock
    ("serve.submit.p50_us", "us", "lower", ("ops_per_s", "cpu_ms_per_op"), ("serve_mixed",)),
    ("serve.queue_wait.p50_ms", "ms", "lower", ("latency_p50_ms",), ("serve_mixed",)),
    ("serve.queue_wait.p99_ms", "ms", "lower", ("latency_tail_ms",), ("serve_mixed",)),
    ("serve.batch_occupancy.mean", "count", "higher", ("ops_per_s", "latency_p50_ms"), ("serve_mixed",)),
    ("serve.batches", "count", "lower", ("ops_per_s", "cpu_ms_per_op"), ("serve_mixed",)),
    ("serve.replay_rate", "ratio", "higher", ("ops_per_s", "latency_tail_ms"), ("serve_mixed",)),
    ("serve.plan_captures", "count", "lower", ("latency_tail_ms", "setup_s"), ("serve_mixed",)),
    ("serve.plan_hit_rate", "ratio", "higher", ("latency_tail_ms", "ops_per_s"), ("serve_mixed",)),
    ("serve.shed", "count", "lower", ("ops_per_s",), ("serve_mixed",)),
    ("serve.expired", "count", "lower", ("ops_per_s",), ("serve_mixed",)),
    ("serve.retries", "count", "lower", ("ops_per_s",), ("serve_mixed",)),
    ("serve.latency_p99_ms.lo", "ms", "lower", ("latency_tail_ms",), ("serve_mixed",)),
    ("serve.latency_p99_ms.hi", "ms", "lower", ("latency_tail_ms",), ("serve_mixed",)),
    ("serve.backlog_growth.hi", "count", "lower", ("latency_tail_ms",), ("serve_mixed",)),
    ("serve.max_rate_within_limit", "1/s", "higher", ("latency_tail_ms", "ops_per_s"), ("serve_mixed",)),
    ("serve.generator_late.p99_ms", "ms", "lower", ("latency_p50_ms",), ("serve_mixed",)),
    ("serve.engine_cpu_share", "ratio", "lower", ("ops_per_s", "cpu_ms_per_op"), ("serve_mixed",)),
    ("health.transitions", "count", "lower", ("latency_tail_ms",), ("serve_mixed",)),
    # parallel: wrappers on ParallelForceEvaluator.compute and the
    # DomainDecomposition build/exchange calls; ps.stats() comm counters
    ("parallel.compute.busy_s", "s", "lower", ("ops_per_s", "cpu_ms_per_op"), ("lj_parallel4",)),
    # the per-rank force loop of parallel/driver.py: the forward and backward
    # spans whose parent is parallel.compute (the same seconds the two
    # models./autodiff. busy_s rows show from the model's side)
    ("parallel.rank_force.busy_s", "s", "lower", ("ops_per_s", "cpu_ms_per_op"), ("lj_parallel4",)),
    ("parallel.decompose.busy_s", "s", "lower", ("ops_per_s", "latency_tail_ms"), ("lj_parallel4",)),
    ("parallel.exchange.busy_s", "s", "lower", ("ops_per_s",), ("lj_parallel4",)),
    ("parallel.comm.bytes_per_step", "B", "lower", ("ops_per_s",), ("lj_parallel4",)),
    ("parallel.comm.messages_per_step", "count", "lower", ("ops_per_s",), ("lj_parallel4",)),
    ("parallel.rebuilds", "count", "lower", ("ops_per_s", "latency_tail_ms"), ("lj_parallel4",)),
    ("parallel.migrations", "count", "lower", ("ops_per_s",), ("lj_parallel4",)),
    ("parallel.halo_share", "ratio", "lower", ("ops_per_s", "cpu_ms_per_op"), ("lj_parallel4",)),
    ("parallel.load_imbalance", "ratio", "lower", ("ops_per_s",), ("lj_parallel4",)),
    ("parallel.rank_force.max_ms", "ms", "lower", ("ops_per_s",), ("lj_parallel4",)),
    ("parallel.rank_force.mean_ms", "ms", "lower", ("cpu_ms_per_op",), ("lj_parallel4",)),
    ("md.serial.ops_per_s", "1/s", "higher", ("ops_per_s",), ("lj_parallel4",)),
    ("parallel.vs_serial", "ratio", "higher", ("ops_per_s",), ("lj_parallel4",)),
    # data / obs: timed set-up calls; traced vs untraced segments of one run
    ("data.generate_s", "s", "lower", ("setup_s",), ALL),
    ("data.label_frames_s", "s", "lower", ("setup_s",), ("allegro_train",)),
    ("obs.trace_overhead_share", "ratio", "lower", ("ops_per_s",), ALL),
    ("obs.span_coverage", "ratio", "higher", ("ops_per_s",), ALL),
]


def benchmark_json() -> dict:
    """The contract file, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (_, _, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }
