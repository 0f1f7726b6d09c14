"""``run`` / ``resume`` / ``profile``: configured MD."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from ..config import build_simulation, dump_args, load_config
from ..md import minimize, stability_report
from ..obs import Registry, write_json
from ..resilience import CheckpointManager
from .common import logger, read_config, tracing
from .traj import rtrj_to_xyz


def _engine_line(stats: dict) -> str:
    return (
        f"engine: {stats['n_captures']} captures, {stats['n_replays']} replays,"
        f" {stats['recaptures']} recaptures"
    )


def _arena_line(stats: dict) -> str:
    """Eager force calls' tape memory: a share near 0 on a large eager run
    means page-faulting is back; dropped blocks mean views escape a call."""
    asked = stats["outputs_requested"]
    share = f"{100 * stats['outputs_served'] / asked:.1f}%" if asked else "n/a"
    return (
        f"tape arena: {stats['bytes_held'] / 2**20:.1f} MB held in "
        f"{stats['blocks']} block(s), {stats['outputs_served']} of {asked} "
        f"eager outputs served ({share}), {stats['blocks_dropped']} block(s) dropped"
    )


def _run_and_report(sim, cfg, n_steps, log, stats_json, extra, **checkpoint_sink):
    """Shared run/resume body: integrate, report, engine stats, JSON payload."""
    dump = dump_args(cfg.output)
    start_positions = sim.system.positions.copy()
    result = sim.run(
        n_steps,
        checkpoint_every=cfg.md.checkpoint_every,
        **checkpoint_sink,
        **dump,
    )
    if dump and dump["dump_path"] != cfg.output.trajectory:
        # The run wrote (on resume: appended to) the sibling .rtrj; the
        # text file is its conversion, so it holds every frame of the run
        # however many times the run was killed and resumed.
        rtrj_to_xyz(dump["dump_path"], cfg.output.trajectory)
    log(str(stability_report(result, frames=(start_positions, sim.system.positions))))
    log(f"{result.n_steps} steps at {result.timesteps_per_second:.2f} timesteps/s")
    stats = sim.engine_stats()
    if stats is not None:
        log(_engine_line(stats))
    n_recoveries = sim.stats()["n_recoveries"]
    if n_recoveries:
        log(f"watchdog: recovered from {n_recoveries} instability event(s)")
    if stats_json is not None:
        payload = {
            "engine": sim.engine,
            "n_steps": result.n_steps,
            "timesteps_per_second": result.timesteps_per_second,
            "n_recoveries": n_recoveries,
            "engine_stats": stats,
        }
        payload.update(extra)
        write_json(stats_json, payload)
    return result


def run_config(config: dict, quiet: bool = False, stats_json=None):
    """Execute one configured MD run; returns the MDResult."""
    log = logger(quiet)
    cfg = load_config(config)
    md = cfg.md
    sim = build_simulation(cfg)
    system = sim.system

    log(f"system: {system.n_atoms} atoms; potential: {cfg.potential.kind}")
    if md.minimize_first:
        res = minimize(system, sim.potential, max_steps=md.minimize_steps)
        log(f"minimized: {res.n_iterations} iterations, max|F| = {res.max_force:.3f}")
    system.seed_velocities(md.temperature, np.random.default_rng(md.seed))

    ckpt_dir = md.checkpoint_dir
    extra = {}
    if ckpt_dir is not None:
        # Persist the config next to the checkpoints so ``resume`` can
        # rebuild an identical simulation without the original file.
        ckpt_dir = Path(ckpt_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        (ckpt_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        extra["checkpoint_dir"] = str(ckpt_dir)
    return _run_and_report(
        sim, cfg, md.steps, log, stats_json, extra, checkpoint_dir=ckpt_dir
    )


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
    log = logger(quiet)
    ckpt_dir = Path(ckpt_dir)
    config_path = ckpt_dir / "config.json"
    if not config_path.exists():
        raise FileNotFoundError(
            f"{config_path} not found — was this run started with "
            "'md.checkpoint_dir' set?"
        )
    # Note: tuned structural knobs (skin, cadence) change the rebuild
    # schedule going forward — the continuation is valid MD but no longer
    # bitwise-identical to an uninterrupted untuned run.
    cfg = load_config(read_config(config_path, tuning_profile))
    manager = CheckpointManager(ckpt_dir)
    step, state = manager.load_latest()
    sim = build_simulation(cfg)
    sim.set_state(state)
    n = max(0, cfg.md.steps - sim.step_count) if steps is None else int(steps)
    log(f"resumed from checkpoint at step {step}; running {n} more step(s)")
    # The dump appends from the restored step (Simulation.run sees
    # step_count > 0 and an existing file): the finished trajectory is
    # byte-identical to an uninterrupted run's.
    extra = {"resumed_from_step": step, "checkpoint_dir": str(ckpt_dir)}
    return _run_and_report(
        sim, cfg, n, log, stats_json, extra, checkpoint_manager=manager
    )


def profile_config(
    config: dict,
    steps: Optional[int] = None,
    quiet: bool = False,
    trace_json=None,
    stats_json=None,
    top: Optional[int] = None,
):
    """Run a traced MD segment and print the per-phase time table.

    Builds the configured simulation with one shared
    :class:`repro.obs.Registry` (MD counters and the compiled engine's
    capture/replay/arena instruments land in a single tree), enables the
    global span tracer, runs ``steps`` steps (default: ``md.steps``), and
    prints where the wall time went: neighbor rebuilds vs. force evaluation
    vs. integration vs. thermostatting vs. checkpointing.  ``top`` adds the
    ``top`` most expensive steps of one compiled force call under the
    per-kernel-class table.  Returns ``(tracer, sim)``.
    """
    log = logger(quiet)
    cfg = load_config(config)
    sim = build_simulation(cfg, registry=Registry())
    sim.system.seed_velocities(
        cfg.md.temperature, np.random.default_rng(cfg.md.seed)
    )
    n = int(steps) if steps is not None else cfg.md.steps
    with tracing(trace_json, force=True) as tracer:
        result = sim.run(n)
    log(
        f"profiled {n} steps of {sim.system.n_atoms} atoms on "
        f"{sim.engine} engine: {result.timesteps_per_second:.2f} timesteps/s"
    )
    log("")
    log(tracer.format_phases("md."))
    log("")
    stats = sim.stats()
    c = stats["counters"]
    log(f"neighbor pairs: {c['md.pairs']} evaluated of {c['md.candidate_pairs']} skinned")
    log(_arena_line(stats["tape_arena"]))
    engine_stats = sim.engine_stats()
    if engine_stats is not None:
        log("")
        log(_engine_line(engine_stats))
        # Third level, under md.force: where one plan replay spends its time
        # (also lands in the stats JSON as engine.kernel_seconds{class=}).
        kernels = sim.kernel_profile()
        if kernels:
            log("")
            log(format_kernel_table(kernels, engine_stats["plan_steps"]))
        steps = sim.step_profile() if top else None
        if steps:
            log("")
            log(format_step_table(steps, top))
    if stats_json is not None:
        payload = sim.stats()
        payload["timesteps_per_second"] = result.timesteps_per_second
        write_json(stats_json, payload)
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


def format_step_table(rows: list, top: int) -> str:
    """The ``top`` most expensive steps of one replay (``profile --top N``)."""
    total = sum(row["seconds"] for row in rows)

    def shape(s) -> str:
        return "x".join(str(n) for n in s) or "()"

    lines = [
        f"    the {min(top, len(rows))} most expensive of {len(rows)} steps "
        f"({1e3 * total:.3f} ms per replay)",
        f"      {'step':>4}  {'op':<12}{'spec':<18}{'out':<12}{'us':>8}{'share':>8}"
        f"  operands",
    ]
    for row in sorted(rows, key=lambda r: -r["seconds"])[:top]:
        share = row["seconds"] / total if total > 0 else 0.0
        lines.append(
            f"      {row['step']:>4}  {row['op']:<12}{row['spec']:<18}"
            f"{shape(row['out_shape']):<12}{1e6 * row['seconds']:>8.1f}"
            f"{100 * share:>7.1f}%  "
            + " ".join(shape(s) for s in row["arg_shapes"])
        )
    return "\n".join(lines)
