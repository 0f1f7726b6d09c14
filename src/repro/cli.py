"""Command-line MD runner: the LAMMPS-input-script analogue.

A JSON config fully describes a run — system, potential, thermodynamics,
output — so simulations are reproducible artifacts rather than ad-hoc
scripts (the role LAMMPS input files play in the paper's workflow):

    python -m repro.cli run config.json [--stats-json stats.json]
    python -m repro.cli example-config > config.json

A second subcommand drives the batched force-evaluation service
(:mod:`repro.serve`) with a synthetic mixed-size request stream::

    python -m repro.cli serve serve.json [--stats-json metrics.json]
    python -m repro.cli example-serve-config > serve.json

Runs configured with ``"md": {"checkpoint_dir": ...}`` persist verified
checkpoints (and a copy of their config) as they go, and can be picked
up after a crash exactly where they left off::

    python -m repro.cli resume ckpts/ [--steps N] [--stats-json stats.json]

A third subcommand drives the force-matching trainer
(:mod:`repro.nn.training`) on a synthetic labeled dataset, with the same
checkpoint/resume discipline — a killed training run picked up with
``--resume`` reproduces the uninterrupted run bitwise::

    python -m repro.cli train train.json [--resume] [--stats-json stats.json]
    python -m repro.cli example-train-config > train.json

Observability: every subcommand takes ``--trace-json PATH`` (enable the
global span tracer for the run, export the phase table + span trees), and
``profile`` runs a traced MD segment and prints where the time goes::

    python -m repro.cli profile config.json [--steps N] [--trace-json t.json]

Autotuning (:mod:`repro.tune`): ``tune`` runs a deterministic measured
search for one target and writes a ``TuningProfile``; ``--profile`` on
``run``/``resume``/``serve`` applies it::

    python -m repro.cli tune --target serve serve.json --out profile.json
    python -m repro.cli serve serve.json --profile profile.json

Config schema (all lengths Å, times fs, temperatures K)::

    {
      "system":    {"kind": "water", "n_grid": 3, "seed": 0}
                 | {"kind": "water_box", "reps": 2}
                 | {"kind": "molecule", "n_heavy": 6}
                 | {"kind": "protein", "n_residues": 4},
      "potential": {"kind": "reference"}
                 | {"kind": "lennard_jones", "epsilon": .., "sigma": .., "cutoff": ..}
                 | {"kind": "allegro", "checkpoint": "model.npz", "config": {...}},
      "md": {"steps": 100, "dt": 0.5, "temperature": 300.0,
             "thermostat": "langevin" | "berendsen" | null,
             "friction": 0.02, "seed": 0, "minimize_first": true,
             "engine": "eager" | "compiled",
             "skin": 0.4, "neighbor_every": 1, "padding": 0.05,
             "checkpoint_dir": "ckpts/", "checkpoint_every": 100},
      "output": {"trajectory": "traj.xyz", "every": 10}
    }

``output.trajectory`` picks the dump path by extension: ``.rtrj`` uses
the binary chunked store with the asynchronous off-hot-path writer
(:mod:`repro.traj` — crash-atomic, resumable bitwise), anything else the
synchronous extended-XYZ recorder.  The ``traj`` subcommand inspects,
verifies, converts, and stream-analyzes binary trajectories::

    python -m repro.cli traj info run.rtrj
    python -m repro.cli traj verify run.rtrj          # exit 1 on damage
    python -m repro.cli traj convert run.rtrj run.xyz # either direction
    python -m repro.cli traj analyze run.rtrj --out report.json

Training config schema::

    {
      "data":  {"kind": "conformations", "n_frames": 20, "n_heavy": 4,
                "seed": 11, "sigma": 0.06, "val_fraction": 0.2}
             | {"kind": "water", "n_frames": 16, "seed": 0, "sigma": 0.05,
                "n_grid": 2, "val_fraction": 0.2},
      "model": {"kind": "allegro", "config": {...}}
             | {"kind": "classical", "n_species": 4, "r_cut": 3.5},
      "train": {"epochs": 5, "lr": 1e-3, "batch_size": 8, "seed": 0,
                "ema_decay": 0.99, "grad_clip_norm": null,
                "data_policy": "reject" | "quarantine" | "off",
                "watchdog": null | "abort" | "recover",
                "checkpoint_dir": "ckpts/", "checkpoint_every": 1,
                "save_model": "model.npz"}
    }
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

EXAMPLE_CONFIG = {
    "system": {"kind": "water", "n_grid": 3, "seed": 0},
    "potential": {"kind": "reference"},
    "md": {
        "steps": 50,
        "dt": 0.5,
        "temperature": 300.0,
        "thermostat": "langevin",
        "friction": 0.02,
        "seed": 0,
        "minimize_first": False,
        "skin": 0.4,
    },
    "output": {"trajectory": None, "every": 10},
}

EXAMPLE_SERVE_CONFIG = {
    "potential": {"kind": "lennard_jones", "epsilon": 0.8, "sigma": 1.1, "cutoff": 3.0},
    "serve": {
        "n_workers": 2,
        "max_batch": 8,
        "max_queue": 64,
        "batch_wait": 0.002,
        "adaptive": True,
        "engine": "compiled",
        "qos": {
            "weights": {"interactive": 4, "batch": 2, "background": 1},
            "queue_bounds": {"batch": 64, "background": 16},
            "shed_admit_priority": "interactive",
            "default_priority": "batch",
            "deadlines": {"interactive": 0.25},
            "health": {
                "queue_degraded": 0.75,
                "queue_shedding": 0.95,
                "hysteresis": 0.6,
                "dwell_up": 3,
                "dwell_down": 12,
            },
        },
    },
    "workload": {
        "n_requests": 32,
        "seed": 0,
        "priority": None,
        "deadline_s": None,
        "systems": [
            {"kind": "molecule", "n_heavy": 3},
            {"kind": "molecule", "n_heavy": 4},
            {"kind": "molecule", "n_heavy": 5},
        ],
    },
}


EXAMPLE_TRAIN_CONFIG = {
    "data": {
        "kind": "conformations",
        "n_frames": 20,
        "n_heavy": 4,
        "seed": 11,
        "sigma": 0.06,
        "val_fraction": 0.2,
    },
    "model": {"kind": "classical", "n_species": 4, "r_cut": 3.5},
    "train": {
        "epochs": 5,
        "lr": 1e-2,
        "batch_size": 8,
        "seed": 0,
        "checkpoint_dir": None,
        "checkpoint_every": 1,
        "save_model": None,
    },
}


def build_system(spec: dict):
    from .data import random_molecule, solvated_protein, water_box, water_unit_cell

    kind = spec.get("kind")
    if kind == "water":
        return water_unit_cell(seed=spec.get("seed", 0), n_grid=spec.get("n_grid", 4))
    if kind == "water_box":
        return water_box(reps=spec.get("reps", 1), seed=spec.get("seed", 0))
    if kind == "molecule":
        return random_molecule(n_heavy=spec.get("n_heavy", 6), seed=spec.get("seed", 0))
    if kind == "protein":
        return solvated_protein(
            n_residues=spec.get("n_residues", 4), seed=spec.get("seed", 0)
        ).system
    raise ValueError(f"unknown system kind {kind!r}")


def build_potential(spec: dict):
    from .data import ReferencePotential
    from .models import AllegroConfig, AllegroModel, LennardJones

    kind = spec.get("kind")
    if kind == "reference":
        return ReferencePotential()
    if kind == "lennard_jones":
        return LennardJones(
            epsilon=spec.get("epsilon", 0.01),
            sigma=spec.get("sigma", 2.0),
            cutoff=spec.get("cutoff", 4.0),
            n_species=spec.get("n_species", 4),
        )
    if kind == "allegro":
        cfg_dict = dict(spec.get("config", {}))
        for key in ("per_pair_cutoffs", "atomic_numbers"):
            if key in cfg_dict and cfg_dict[key] is not None:
                cfg_dict[key] = np.asarray(cfg_dict[key], dtype=np.float64)
        for key in ("two_body_hidden", "latent_hidden", "edge_energy_hidden"):
            if key in cfg_dict:
                cfg_dict[key] = tuple(cfg_dict[key])
        model = AllegroModel(AllegroConfig(**cfg_dict))
        ckpt = spec.get("checkpoint")
        if ckpt:
            model.load_state_dict(dict(np.load(ckpt)))
        return model
    raise ValueError(f"unknown potential kind {kind!r}")


def build_training_model(spec: dict):
    """A trainable model from a config ``model`` section."""
    from .models import ClassicalConfig, ClassicalForceField

    kind = spec.get("kind")
    if kind == "classical":
        return ClassicalForceField(
            ClassicalConfig(
                n_species=spec.get("n_species", 4), r_cut=spec.get("r_cut", 3.5)
            )
        )
    if kind == "allegro":
        return build_potential(spec)
    raise ValueError(f"unknown trainable model kind {kind!r} (allegro|classical)")


def build_training_frames(spec: dict):
    """``(train_frames, val_frames)`` from a config ``data`` section."""
    from .data import (
        conformation_dataset,
        label_frames,
        perturbed_water_frames,
        split_frames,
    )

    kind = spec.get("kind")
    seed = int(spec.get("seed", 0))
    n_frames = int(spec.get("n_frames", 20))
    if kind == "conformations":
        systems = conformation_dataset(
            n_frames,
            n_heavy=spec.get("n_heavy", 4),
            seed=seed,
            sigma=spec.get("sigma", 0.06),
        )
    elif kind == "water":
        systems = perturbed_water_frames(
            n_frames,
            seed=seed,
            sigma=spec.get("sigma", 0.05),
            n_grid=spec.get("n_grid", 2),
        )
    else:
        raise ValueError(f"unknown data kind {kind!r} (conformations|water)")
    frames = label_frames(systems, max_force=spec.get("max_force"))
    val_fraction = float(spec.get("val_fraction", 0.0))
    if val_fraction > 0.0:
        train, val = split_frames(
            frames, fractions=(1.0 - val_fraction, val_fraction), seed=seed
        )
        return train, val
    return frames, []


def train_config(
    config: dict, resume: bool = False, quiet: bool = False, stats_json=None
):
    """Execute (or resume) one configured training run; returns the Trainer.

    With ``"train": {"checkpoint_dir": ...}`` the full training state is
    checkpointed as the run goes (and the config is copied next to the
    checkpoints); ``resume=True`` restores the newest verified snapshot
    and finishes the configured epoch budget — bitwise-identically to a
    run that was never interrupted.
    """
    from .nn import TrainConfig, Trainer
    from .resilience import TrainingWatchdog

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    tr_spec = config.get("train", {})
    epochs = int(tr_spec.get("epochs", 5))
    cfg = TrainConfig(
        lr=float(tr_spec.get("lr", 1e-3)),
        batch_size=int(tr_spec.get("batch_size", 16)),
        max_epochs=epochs,
        ema_decay=float(tr_spec.get("ema_decay", 0.99)),
        seed=int(tr_spec.get("seed", 0)),
        grad_clip_norm=tr_spec.get("grad_clip_norm"),
        data_policy=tr_spec.get("data_policy", "reject"),
    )
    watchdog_policy = tr_spec.get("watchdog")
    watchdog = (
        TrainingWatchdog(policy=watchdog_policy) if watchdog_policy else None
    )

    train_frames, val_frames = build_training_frames(config["data"])
    model = build_training_model(config["model"])
    trainer = Trainer(model, train_frames, val_frames, cfg, watchdog=watchdog)
    log(
        f"training {config['model']['kind']} on {len(train_frames)} frames "
        f"({len(val_frames)} validation)"
    )

    ckpt_dir = tr_spec.get("checkpoint_dir")
    if ckpt_dir is not None:
        ckpt_dir = Path(ckpt_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        (ckpt_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    if resume:
        if ckpt_dir is None:
            raise ValueError("--resume needs 'train.checkpoint_dir' in the config")
        epoch = trainer.resume(ckpt_dir)
        log(f"resumed from checkpoint at epoch {epoch}")
    remaining = max(0, epochs - trainer.epochs_completed)
    trainer.fit(
        remaining,
        verbose=not quiet,
        checkpoint_every=tr_spec.get("checkpoint_every") if ckpt_dir else None,
        checkpoint_dir=ckpt_dir,
    )

    save_model = tr_spec.get("save_model")
    if save_model:
        np.savez(save_model, **trainer.model.state_dict())
        log(f"model saved to {save_model}")
    final = trainer.history[-1] if trainer.history else None
    if final is not None:
        log(f"final train loss {final.train_loss:.5f}")
    if stats_json is not None:
        payload = dict(trainer.stats())
        payload["history"] = [
            {
                "epoch": s.epoch,
                "train_loss": s.train_loss,
                "val_force_mae": s.val_force_mae,
                "val_force_rmse": s.val_force_rmse,
            }
            for s in trainer.history
        ]
        write_stats_json(stats_json, payload)
    return trainer


def write_stats_json(path, payload: dict) -> None:
    """Write a machine-readable stats payload (the ``--stats-json`` target).

    Deterministic by construction (sorted keys, stable float formatting,
    ``schema_version`` field) — two identical runs produce byte-identical
    files, so the artifacts diff cleanly in CI.
    """
    from .obs import write_json

    write_json(path, payload)


@contextlib.contextmanager
def _tracing(trace_json):
    """Enable global span tracing for one command; export on exit."""
    if trace_json is None:
        yield
        return
    from .obs import disable, enable, get_tracer

    tracer = enable()
    tracer.clear()
    try:
        yield
    finally:
        disable()
        get_tracer().write_json(trace_json)


def build_thermostat(md: dict):
    """The configured thermostat instance (or None)."""
    from .md import BerendsenThermostat, LangevinThermostat

    kind = md.get("thermostat")
    temperature = float(md.get("temperature", 300.0))
    if kind == "langevin":
        return LangevinThermostat(
            temperature, friction=md.get("friction", 0.02), seed=md.get("seed", 0)
        )
    if kind == "berendsen":
        return BerendsenThermostat(temperature, tau=md.get("tau", 100.0))
    if kind is None:
        return None
    raise ValueError(f"unknown thermostat {kind!r}")


def _is_binary_traj(path) -> bool:
    return path is not None and str(path).endswith(".rtrj")


def _dump_args(config: dict) -> dict:
    """``dump_path``/``dump_every`` kwargs for ``Simulation.run`` (or {})."""
    out = config.get("output", {})
    traj = out.get("trajectory")
    if not _is_binary_traj(traj):
        return {}
    return {"dump_path": traj, "dump_every": int(out.get("every", 10))}


def build_simulation(config: dict, registry=None):
    """``(sim, recorder, md_section)`` from a config.

    No minimization or velocity seeding happens here — ``run`` does both
    before integrating, ``resume`` overwrites all dynamic state from the
    checkpoint anyway.  Both subcommands therefore share one builder, so
    a resumed simulation is structurally identical to the original.
    ``registry`` routes the simulation's (and compiled engine's) counters
    into a shared :class:`repro.obs.Registry` tree.
    """
    from .md import Simulation, TrajectoryRecorder

    system = build_system(config["system"])
    potential = build_potential(config["potential"])
    md = config.get("md", {})
    out = config.get("output", {})
    skin = float(md.get("skin", 0.4))
    if skin < 0:
        raise ValueError(
            f"md.skin must be >= 0 (got {skin}); the Verlet skin is a buffer "
            "radius added to the cutoff, not an offset"
        )
    neighbor_every = int(md.get("neighbor_every", 1))
    if neighbor_every < 1:
        raise ValueError(
            f"md.neighbor_every must be >= 1 (got {neighbor_every})"
        )
    # A .rtrj trajectory routes to the binary data plane (async writer in
    # Simulation.run) instead of the synchronous XYZ recorder.
    traj_path = out.get("trajectory")
    xyz_path = None if _is_binary_traj(traj_path) else traj_path
    recorder = TrajectoryRecorder(
        path=xyz_path, every=int(out.get("every", 10))
    )
    sim = Simulation(
        system,
        potential,
        dt=float(md.get("dt", 0.5)),
        thermostat=build_thermostat(md),
        skin=skin,
        recorder=recorder,
        engine=md.get("engine", "eager"),
        registry=registry,
        neighbor_every=neighbor_every,
        padding=md.get("padding", 0.05),
    )
    return sim, recorder, md


def _finish_run(sim, recorder, result, md, quiet, stats_json, extra=None):
    """Shared run/resume epilogue: report, engine stats, JSON payload."""
    from .md import stability_report

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    recorder.close()
    report = stability_report(result, frames=recorder.frames or None)
    log(str(report))
    log(f"{result.n_steps} steps at {result.timesteps_per_second:.2f} timesteps/s")
    stats = sim.engine_stats()
    if stats is not None:
        log(
            f"engine: {stats['n_captures']} captures, {stats['n_replays']} replays,"
            f" {stats['recaptures']} recaptures"
        )
    if sim.n_recoveries:
        log(f"watchdog: recovered from {sim.n_recoveries} instability event(s)")
    if stats_json is not None:
        payload = {
            "engine": md.get("engine", "eager"),
            "n_steps": result.n_steps,
            "timesteps_per_second": result.timesteps_per_second,
            "n_recoveries": sim.n_recoveries,
            "engine_stats": stats,
        }
        payload.update(extra or {})
        write_stats_json(stats_json, payload)
    return result


def run_config(config: dict, quiet: bool = False, stats_json=None):
    """Execute one configured MD run; returns the MDResult."""
    from .md import minimize

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    sim, recorder, md = build_simulation(config)
    system = sim.system

    log(f"system: {system.n_atoms} atoms; potential: {config['potential']['kind']}")
    if md.get("minimize_first"):
        res = minimize(system, sim.potential, max_steps=md.get("minimize_steps", 100))
        log(f"minimized: {res.n_iterations} iterations, max|F| = {res.max_force:.3f}")

    temperature = float(md.get("temperature", 300.0))
    system.seed_velocities(temperature, np.random.default_rng(md.get("seed", 0)))

    ckpt_dir = md.get("checkpoint_dir")
    extra = {}
    if ckpt_dir is not None:
        # Persist the config next to the checkpoints so ``resume`` can
        # rebuild an identical simulation without the original file.
        ckpt_dir = Path(ckpt_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        (ckpt_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        extra["checkpoint_dir"] = str(ckpt_dir)
    result = sim.run(
        int(md.get("steps", 100)),
        checkpoint_every=md.get("checkpoint_every"),
        checkpoint_dir=ckpt_dir,
        **_dump_args(config),
    )
    return _finish_run(sim, recorder, result, md, quiet, stats_json, extra)


def resume_config(
    ckpt_dir,
    steps: Optional[int] = None,
    quiet: bool = False,
    stats_json=None,
    tuning_profile=None,
):
    """Resume an interrupted checkpointed run; returns the MDResult.

    Rebuilds the simulation from ``<ckpt_dir>/config.json``, restores the
    newest verified checkpoint (corrupt files are skipped), and continues
    — by default to the step count the original config asked for, or for
    ``steps`` more steps when given.
    """
    from .resilience import CheckpointManager

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    ckpt_dir = Path(ckpt_dir)
    config_path = ckpt_dir / "config.json"
    if not config_path.exists():
        raise FileNotFoundError(
            f"{config_path} not found — was this run started with "
            "'md.checkpoint_dir' set?"
        )
    config = json.loads(config_path.read_text())
    # Note: tuned structural knobs (skin, cadence) change the rebuild
    # schedule going forward — the continuation is valid MD but no longer
    # bitwise-identical to an uninterrupted untuned run.
    config = apply_profile_path(config, tuning_profile)
    manager = CheckpointManager(ckpt_dir)
    step, state = manager.load_latest()
    sim, recorder, md = build_simulation(config)
    sim.set_state(state)
    if steps is None:
        n = max(0, int(md.get("steps", 100)) - sim.step_count)
    else:
        n = int(steps)
    log(f"resumed from checkpoint at step {step}; running {n} more step(s)")
    # A binary dump appends from the restored step (Simulation.run sees
    # step_count > 0 and an existing file): the finished trajectory is
    # byte-identical to an uninterrupted run's.
    result = sim.run(
        n,
        checkpoint_every=md.get("checkpoint_every"),
        checkpoint_manager=manager,
        **_dump_args(config),
    )
    extra = {"resumed_from_step": step, "checkpoint_dir": str(ckpt_dir)}
    return _finish_run(sim, recorder, result, md, quiet, stats_json, extra)


def serve_config(config: dict, quiet: bool = False, stats_json=None) -> dict:
    """Run the configured serving workload; returns the server stats dict.

    Builds the potential, starts a :class:`repro.serve.ForceServer`, drives
    it with a mixed-size synthetic request stream (cycling the ``workload``
    system specs with varying seeds), and reports throughput, latency
    percentiles, and the plan-cache replay rate.
    """
    import time as _time

    from .health import health_from_config
    from .serve import Client, ForceServer, qos_from_config

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    potential = build_potential(config["potential"])
    serve = config.get("serve", {})
    workload = config.get("workload", {})
    # Validated QoS section: class weights, queue bounds and health
    # thresholds all fail loudly on typos (see qos_from_config).
    qos = health = None
    if serve.get("qos"):
        qos_cfg = dict(serve["qos"])
        qos = qos_from_config(qos_cfg)
        if qos_cfg.get("health"):
            health = health_from_config(qos_cfg["health"])
    specs = workload.get("systems") or [{"kind": "molecule", "n_heavy": 4}]
    n_requests = int(workload.get("n_requests", 32))
    seed = int(workload.get("seed", 0))
    systems = []
    for k in range(n_requests):
        spec = dict(specs[k % len(specs)])
        spec.setdefault("seed", seed + k)
        systems.append(build_system(spec))

    plan_cache_opts = None
    if "plan_floor" in serve or "plan_growth" in serve:
        floor = int(serve.get("plan_floor", 16))
        plan_cache_opts = {
            "atom_floor": floor,
            "pair_floor": 4 * floor,
            "growth": float(serve.get("plan_growth", 1.5)),
        }
    server = ForceServer(
        potential,
        n_workers=int(serve.get("n_workers", 2)),
        max_queue=int(serve.get("max_queue", 64)),
        max_batch=int(serve.get("max_batch", 8)),
        batch_wait=float(serve.get("batch_wait", 2e-3)),
        adaptive=bool(serve.get("adaptive", True)),
        plan_cache_opts=plan_cache_opts,
        engine=serve.get("engine", "compiled"),
        default_timeout=serve.get("timeout"),
        qos=qos,
        health=health,
    )
    with server:
        client = Client(
            server,
            priority=workload.get("priority"),
            deadline=workload.get("deadline_s"),
        )
        log(
            f"serving {n_requests} requests "
            f"({min(s.n_atoms for s in systems)}-{max(s.n_atoms for s in systems)}"
            f" atoms) on {server.engine} engine ..."
        )
        t0 = _time.perf_counter()
        client.evaluate_many(systems)
        elapsed = _time.perf_counter() - t0
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
        write_stats_json(stats_json, stats)
    return stats


def apply_profile_path(config: dict, profile_path) -> dict:
    """A config with a saved :class:`TuningProfile`'s winners folded in."""
    from .tune import TuningProfile, apply_profile

    if profile_path is None:
        return config
    return apply_profile(config, TuningProfile.load(profile_path))


def tune_config(
    config: Optional[dict],
    target: str,
    out=None,
    seed: int = 0,
    repeats: int = 1,
    warmup: int = 0,
    steps: Optional[int] = None,
    quiet: bool = False,
):
    """Run one offline tuning target; returns the TuningProfile.

    The search objective is fully deterministic (counter-derived modeled
    costs; see :mod:`repro.tune.targets`), so for a given config + seed
    the emitted profile is byte-identical across runs.  Wall-clock
    metrics gathered along the way are printed but never persisted.
    """
    from .tune import TuningProfile, run_target

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    kwargs = {"seed": seed, "repeats": repeats, "warmup": warmup}
    if steps is not None and target in ("md", "engine"):
        kwargs["steps"] = steps
    report = run_target(target, config, **kwargs)
    profile = TuningProfile.from_reports(
        [report],
        provenance={
            "seed": seed,
            "warmup": warmup,
            "repeats": repeats,
            "objective": "modeled",
            "targets": [target],
        },
    )
    best = report["best"]
    log(
        f"tuned target {target!r}: {report['n_evaluations']} configurations "
        f"over {report['n_sweeps']} sweep(s)"
    )
    log(f"best: {json.dumps(best, sort_keys=True)}")
    log(f"modeled score: {report['score']:.6g} (lower is better)")
    if out is not None:
        profile.save(out)
        log(f"profile written to {out}")
    return profile


def profile_config(
    config: dict,
    steps: Optional[int] = None,
    quiet: bool = False,
    trace_json=None,
    stats_json=None,
):
    """Run a traced MD segment and print the per-phase time table.

    Builds the configured simulation with one shared
    :class:`repro.obs.Registry` (MD counters and the compiled engine's
    capture/replay/arena instruments land in a single tree), enables the
    global span tracer, runs ``steps`` steps, and prints where the wall
    time went: neighbor rebuilds vs. force evaluation vs. integration vs.
    thermostatting vs. checkpointing.  Returns ``(tracer, sim)``.
    """
    from .obs import Registry, disable, enable, get_tracer

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    registry = Registry()
    sim, recorder, md = build_simulation(config, registry=registry)
    temperature = float(md.get("temperature", 300.0))
    sim.system.seed_velocities(
        temperature, np.random.default_rng(md.get("seed", 0))
    )
    n = int(steps) if steps is not None else int(md.get("steps", 50))
    tracer = enable()
    tracer.clear()
    try:
        result = sim.run(n)
    finally:
        disable()
        recorder.close()
    log(
        f"profiled {n} steps of {sim.system.n_atoms} atoms on "
        f"{md.get('engine', 'eager')} engine: "
        f"{result.timesteps_per_second:.2f} timesteps/s"
    )
    log("")
    log(tracer.format_phases("md."))
    engine_stats = sim.engine_stats()
    if engine_stats is not None:
        log("")
        log(
            f"engine: {engine_stats['n_captures']} captures, "
            f"{engine_stats['n_replays']} replays, "
            f"{engine_stats['recaptures']} recaptures"
        )
        # Third level, under md.force: where one plan replay spends its time
        # (also lands in the stats JSON as engine.kernel_seconds{class=}).
        kernels = sim.kernel_profile()
        if kernels:
            log("")
            log(format_kernel_table(kernels, engine_stats["plan_steps"]))
    if trace_json is not None:
        get_tracer().write_json(trace_json)
    if stats_json is not None:
        payload = sim.stats()
        payload["timesteps_per_second"] = result.timesteps_per_second
        write_stats_json(stats_json, payload)
    return tracer, sim


def format_kernel_table(kernels: dict, plan_steps: int) -> str:
    """The per-kernel-class rows of ``profile`` (one compiled force call)."""
    total = sum(row["seconds"] for row in kernels.values())
    lines = [
        f"    md.force / engine.replay by kernel class "
        f"({plan_steps} steps, {1e3 * total:.3f} ms per replay)",
        f"      {'class':<16}{'steps':>6}{'ms/replay':>11}{'share':>8}",
    ]
    for cls, row in kernels.items():
        share = row["seconds"] / total if total > 0 else 0.0
        lines.append(
            f"      {cls:<16}{row['steps']:>6}{1e3 * row['seconds']:>11.3f}"
            f"{100 * share:>7.1f}%"
        )
    return "\n".join(lines)


def chaos_command(args) -> int:
    """Dispatch ``chaos {run,soak,replay}``.  Returns a process exit code."""
    from .chaos import replay, report_json, run_scenario, sample_scenario, soak
    from .obs import write_json

    quiet = getattr(args, "quiet", False)

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    if args.chaos_command == "run":
        spec = sample_scenario(args.seed, workload=args.workload)
        if args.deadline is not None:
            spec.deadline_s = float(args.deadline)
        outcome = run_scenario(spec)
        log(report_json(outcome.to_dict()))
        return 0 if outcome.ok else 1

    if args.chaos_command == "replay":
        outcome = replay(args.artifact)
        log(report_json(outcome.to_dict()))
        if outcome.ok:
            log("replay: all invariants hold")
            return 0
        log(f"replay: {len(outcome.violations)} invariant violation(s)")
        return 1

    # soak
    if args.reproducer_dir is not None:
        args.reproducer_dir.mkdir(parents=True, exist_ok=True)

    def progress(i, outcome) -> None:
        status = "ok" if outcome.ok else "VIOLATED"
        log(
            f"[{i + 1}/{args.n}] {outcome.spec.workload} "
            f"seed={outcome.spec.seed} "
            f"events={len(outcome.spec.events)}: {status}"
        )

    report = soak(
        args.n,
        seed=args.seed,
        budget_s=args.budget,
        deadline_s=args.deadline,
        reproducer_dir=args.reproducer_dir,
        progress=progress,
    )
    if args.report is not None:
        write_json(args.report, report)
        log(f"wrote soak report to {args.report}")
    summary = report["summary"]
    log(
        f"soak: {report['n_run']}/{report['n_requested']} scenarios run, "
        f"{summary['passed']} passed, {summary['violated']} violated, "
        f"{report['n_skipped_budget']} skipped (budget)"
    )
    return 0 if summary["violated"] == 0 else 1


def traj_command(args) -> int:
    """Dispatch ``traj {info,verify,convert,analyze}``; returns exit code.

    All reports are byte-deterministic (``obs.jsonio`` serialization, no
    wall-clock fields): running the same subcommand twice on the same file
    produces identical bytes — CI ``cmp``s them.
    """
    from .obs import to_json, write_json
    from .traj import TrajectoryReader

    quiet = getattr(args, "quiet", False)

    def emit(payload: dict, out) -> None:
        if out is not None:
            write_json(out, payload)
            if not quiet:
                print(f"wrote report to {out}")
        elif not quiet:
            print(to_json(payload))

    if args.traj_command == "info":
        with TrajectoryReader(args.file) as reader:
            h = reader.header
            emit(
                {
                    "path": Path(args.file).name,
                    "n_atoms": h.n_atoms,
                    "species_names": list(h.species_names),
                    "frames_per_chunk": h.frames_per_chunk,
                    "compressed": h.compressed,
                    "pbc": list(h.pbc),
                    "n_frames": len(reader),
                    "n_chunks": reader.n_chunks,
                    "index_source": reader.index_source,
                    "torn_tail": reader.torn_tail,
                    "file_bytes": os.path.getsize(args.file),
                },
                args.out,
            )
        return 0

    if args.traj_command == "verify":
        with TrajectoryReader(args.file) as reader:
            report = reader.verify()
        emit(report, args.out)
        damaged = report["frames_quarantined"] > 0 or report["torn_tail"]
        return 1 if damaged else 0

    if args.traj_command == "convert":
        return _traj_convert(args, quiet)

    # analyze
    with TrajectoryReader(args.file) as reader:
        from .traj import analyze_stream

        report = analyze_stream(
            reader,
            msd_window=args.msd_window,
            vacf_window=args.msd_window,
            rdf_bins=args.rdf_bins,
            every=args.every,
        )
    emit(report, args.out)
    return 0


def _traj_convert(args, quiet: bool) -> int:
    """``traj convert SRC DST`` — direction chosen by file extension."""
    from .md.trajectory import read_xyz, write_xyz_frame
    from .traj import Frame, TrajectoryReader, TrajectoryStore

    src, dst = Path(args.src), Path(args.dst)

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    if src.suffix == ".rtrj" and dst.suffix == ".xyz":
        from .md import System
        from .md.cell import Cell

        with TrajectoryReader(src) as reader, open(dst, "w") as fh:
            h = reader.header
            n = 0
            for frame in reader.frames():
                system = System(
                    frame.positions,
                    h.species,
                    None
                    if frame.cell_lengths is None
                    else Cell(frame.cell_lengths, pbc=tuple(h.pbc)),
                    species_names=list(h.species_names),
                )
                system.velocities = frame.velocities
                fields = {"step": frame.step, "time_fs": f"{frame.time_fs:.3f}"}
                if frame.pe == frame.pe:  # not NaN
                    fields["pe"] = repr(frame.pe)
                write_xyz_frame(fh, system, fields)
                n += 1
        log(f"converted {n} frame(s) -> {dst}")
        return 0

    if src.suffix == ".xyz" and dst.suffix == ".rtrj":
        frames = read_xyz(src)
        if not frames:
            raise ValueError(f"{src} holds no frames")
        # XYZ carries no step/time metadata per atom row; synthesize
        # frame indices (the comment line is tool-specific free text).
        store = TrajectoryStore(dst, system=frames[0])
        try:
            for k, system in enumerate(frames):
                store.append(
                    Frame(
                        step=k,
                        time_fs=float(k),
                        pe=float("nan"),
                        cell_lengths=(
                            None
                            if system.cell is None
                            else np.asarray(system.cell.lengths, dtype=np.float64)
                        ),
                        positions=np.asarray(system.positions, dtype=np.float64),
                        velocities=np.asarray(system.velocities, dtype=np.float64),
                    )
                )
        finally:
            store.close()
        log(f"converted {len(frames)} frame(s) -> {dst}")
        return 0

    raise ValueError(
        f"unsupported conversion {src.suffix!r} -> {dst.suffix!r} "
        "(supported: .rtrj -> .xyz, .xyz -> .rtrj)"
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Run MD from a JSON config."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_flag(p):
        p.add_argument(
            "--trace-json",
            type=Path,
            default=None,
            help="enable span tracing and write the phase table plus "
            "buffered span trees as JSON to this path",
        )

    def add_profile_flag(p):
        p.add_argument(
            "--profile",
            type=Path,
            default=None,
            dest="tuning_profile",
            help="apply a TuningProfile (from 'tune --out') to the config "
            "before running",
        )

    run_p = sub.add_parser("run", help="execute a config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--quiet", action="store_true")
    run_p.add_argument(
        "--stats-json",
        type=Path,
        default=None,
        help="write engine_stats() as machine-readable JSON to this path",
    )
    add_trace_flag(run_p)
    add_profile_flag(run_p)
    resume_p = sub.add_parser(
        "resume", help="resume an interrupted run from its checkpoint directory"
    )
    resume_p.add_argument("checkpoint_dir", type=Path)
    resume_p.add_argument(
        "--steps",
        type=int,
        default=None,
        help="run this many more steps (default: finish the configured total)",
    )
    resume_p.add_argument("--quiet", action="store_true")
    resume_p.add_argument(
        "--stats-json",
        type=Path,
        default=None,
        help="write engine_stats() as machine-readable JSON to this path",
    )
    add_trace_flag(resume_p)
    add_profile_flag(resume_p)
    serve_p = sub.add_parser(
        "serve", help="run a batched force-serving workload from a config"
    )
    serve_p.add_argument("config", type=Path)
    serve_p.add_argument("--quiet", action="store_true")
    serve_p.add_argument(
        "--stats-json",
        type=Path,
        default=None,
        help="write the server metrics snapshot as JSON to this path",
    )
    add_trace_flag(serve_p)
    add_profile_flag(serve_p)
    train_p = sub.add_parser(
        "train", help="run a force-matching training job from a config"
    )
    train_p.add_argument("config", type=Path)
    train_p.add_argument(
        "--resume",
        action="store_true",
        help="restore the newest checkpoint under 'train.checkpoint_dir' "
        "and finish the configured epoch budget",
    )
    train_p.add_argument("--quiet", action="store_true")
    train_p.add_argument(
        "--stats-json",
        type=Path,
        default=None,
        help="write trainer stats and epoch history as JSON to this path",
    )
    add_trace_flag(train_p)
    profile_p = sub.add_parser(
        "profile", help="run a traced MD segment and print a phase-time table"
    )
    profile_p.add_argument("config", type=Path)
    profile_p.add_argument(
        "--steps",
        type=int,
        default=None,
        help="steps to profile (default: the config's md.steps)",
    )
    profile_p.add_argument("--quiet", action="store_true")
    profile_p.add_argument(
        "--trace-json",
        type=Path,
        default=None,
        help="also write the trace document as JSON to this path",
    )
    profile_p.add_argument(
        "--stats-json",
        type=Path,
        default=None,
        help="write the unified registry snapshot as JSON to this path",
    )
    tune_p = sub.add_parser(
        "tune",
        help="run a deterministic offline tuning search and write a profile",
    )
    tune_p.add_argument(
        "--target",
        required=True,
        choices=["md", "serve", "engine", "parallel"],
        help="which subsystem to tune",
    )
    tune_p.add_argument(
        "config",
        type=Path,
        nargs="?",
        default=None,
        help="workload config (default: the quickstart example for the target)",
    )
    tune_p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the TuningProfile JSON here (byte-deterministic per seed)",
    )
    tune_p.add_argument("--seed", type=int, default=0)
    tune_p.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="measured repeats per configuration (median is kept)",
    )
    tune_p.add_argument(
        "--warmup", type=int, default=0, help="discarded warmup runs per config"
    )
    tune_p.add_argument(
        "--steps",
        type=int,
        default=None,
        help="MD steps per trial (md/engine targets only)",
    )
    tune_p.add_argument("--quiet", action="store_true")
    chaos_p = sub.add_parser(
        "chaos",
        help="deterministic chaos harness: composed-fault scenarios, "
        "invariant checks, failure shrinking",
    )
    chaos_sub = chaos_p.add_subparsers(dest="chaos_command", required=True)
    chaos_run_p = chaos_sub.add_parser(
        "run", help="run one seeded composed-fault scenario"
    )
    chaos_run_p.add_argument("--seed", type=int, default=0)
    chaos_run_p.add_argument(
        "--workload",
        choices=["md", "parallel", "serve", "train"],
        default=None,
        help="pin the workload family (default: derived from the seed)",
    )
    chaos_run_p.add_argument("--deadline", type=float, default=None)
    chaos_run_p.add_argument("--quiet", action="store_true")
    chaos_soak_p = chaos_sub.add_parser(
        "soak",
        help="run N seeded scenarios under a wall-clock budget; shrink "
        "any invariant violation to a minimal reproducer",
    )
    chaos_soak_p.add_argument("--n", type=int, default=40)
    chaos_soak_p.add_argument("--seed", type=int, default=0)
    chaos_soak_p.add_argument(
        "--budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds (remaining scenarios are skipped)",
    )
    chaos_soak_p.add_argument("--deadline", type=float, default=None)
    chaos_soak_p.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write the soak report as byte-deterministic JSON here",
    )
    chaos_soak_p.add_argument(
        "--reproducer-dir",
        type=Path,
        default=None,
        help="write shrunken minimal-reproducer JSON artifacts here",
    )
    chaos_soak_p.add_argument("--quiet", action="store_true")
    chaos_replay_p = chaos_sub.add_parser(
        "replay", help="re-run a reproducer artifact (or bare spec) JSON"
    )
    chaos_replay_p.add_argument("artifact", type=Path)
    chaos_replay_p.add_argument("--quiet", action="store_true")
    traj_p = sub.add_parser(
        "traj",
        help="binary trajectory tools: inspect, verify, convert, "
        "streaming analysis",
    )
    traj_sub = traj_p.add_subparsers(dest="traj_command", required=True)

    def add_out_flag(p):
        p.add_argument(
            "--out",
            type=Path,
            default=None,
            help="write the report as byte-deterministic JSON here "
            "(default: stdout)",
        )

    traj_info_p = traj_sub.add_parser(
        "info", help="print header and index summary of a .rtrj file"
    )
    traj_info_p.add_argument("file", type=Path)
    traj_info_p.add_argument("--quiet", action="store_true")
    add_out_flag(traj_info_p)
    traj_verify_p = traj_sub.add_parser(
        "verify",
        help="checksum every chunk; exit 1 if any frame is quarantined",
    )
    traj_verify_p.add_argument("file", type=Path)
    traj_verify_p.add_argument("--quiet", action="store_true")
    add_out_flag(traj_verify_p)
    traj_convert_p = traj_sub.add_parser(
        "convert", help="convert .rtrj <-> .xyz (direction from extensions)"
    )
    traj_convert_p.add_argument("src", type=Path)
    traj_convert_p.add_argument("dst", type=Path)
    traj_convert_p.add_argument("--quiet", action="store_true")
    traj_analyze_p = traj_sub.add_parser(
        "analyze",
        help="single-pass streaming MSD/VACF/RDF/thermo report",
    )
    traj_analyze_p.add_argument("file", type=Path)
    traj_analyze_p.add_argument("--msd-window", type=int, default=50)
    traj_analyze_p.add_argument("--rdf-bins", type=int, default=50)
    traj_analyze_p.add_argument(
        "--every", type=int, default=1, help="analyze every k-th frame"
    )
    traj_analyze_p.add_argument("--quiet", action="store_true")
    add_out_flag(traj_analyze_p)
    sub.add_parser("example-config", help="print a starter MD config to stdout")
    sub.add_parser(
        "example-serve-config", help="print a starter serving config to stdout"
    )
    sub.add_parser(
        "example-train-config", help="print a starter training config to stdout"
    )

    args = parser.parse_args(argv)
    if args.command == "example-config":
        json.dump(EXAMPLE_CONFIG, sys.stdout, indent=2)
        print()
        return 0
    if args.command == "example-serve-config":
        json.dump(EXAMPLE_SERVE_CONFIG, sys.stdout, indent=2)
        print()
        return 0
    if args.command == "example-train-config":
        json.dump(EXAMPLE_TRAIN_CONFIG, sys.stdout, indent=2)
        print()
        return 0
    if args.command == "resume":
        with _tracing(args.trace_json):
            resume_config(
                args.checkpoint_dir,
                steps=args.steps,
                quiet=args.quiet,
                stats_json=args.stats_json,
                tuning_profile=args.tuning_profile,
            )
        return 0
    if args.command == "tune":
        config = (
            json.loads(args.config.read_text())
            if args.config is not None
            else None
        )
        tune_config(
            config,
            args.target,
            out=args.out,
            seed=args.seed,
            repeats=args.repeats,
            warmup=args.warmup,
            steps=args.steps,
            quiet=args.quiet,
        )
        return 0
    if args.command == "chaos":
        return chaos_command(args)
    if args.command == "traj":
        return traj_command(args)
    config = json.loads(args.config.read_text())
    if getattr(args, "tuning_profile", None) is not None:
        config = apply_profile_path(config, args.tuning_profile)
    if args.command == "profile":
        profile_config(
            config,
            steps=args.steps,
            quiet=args.quiet,
            trace_json=args.trace_json,
            stats_json=args.stats_json,
        )
        return 0
    with _tracing(args.trace_json):
        if args.command == "serve":
            serve_config(config, quiet=args.quiet, stats_json=args.stats_json)
        elif args.command == "train":
            train_config(
                config,
                resume=args.resume,
                quiet=args.quiet,
                stats_json=args.stats_json,
            )
        else:
            run_config(config, quiet=args.quiet, stats_json=args.stats_json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
