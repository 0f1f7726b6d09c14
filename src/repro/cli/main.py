"""Argument parsing and dispatch for ``python -m repro.cli``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from ..config import EXAMPLE_CONFIG, EXAMPLE_SERVE_CONFIG, EXAMPLE_TRAIN_CONFIG
from .chaos import chaos_command
from .common import read_config, tracing
from .md import profile_config, resume_config, run_config
from .serve import serve_config
from .train import train_config
from .traj import traj_command
from .tune import tune_config

#: subcommand -> (the starter document it prints, its help line)
EXAMPLES = {
    "example-config": (EXAMPLE_CONFIG, "print a starter MD config to stdout"),
    "example-serve-config": (
        EXAMPLE_SERVE_CONFIG,
        "print a starter serving config to stdout",
    ),
    "example-train-config": (
        EXAMPLE_TRAIN_CONFIG,
        "print a starter training config to stdout",
    ),
}

# Flags several subcommands share, as ``_flag`` arguments.
_ENGINE_STATS = (
    "--stats-json",
    Path,
    "write engine_stats() as machine-readable JSON to this path",
)
_TRACE = (
    "--trace-json",
    Path,
    "enable span tracing and write the phase table plus "
    "buffered span trees as JSON to this path",
)
_PROFILE = (
    "--profile",
    Path,
    "apply a TuningProfile (from 'tune --out') to the config before running",
)
_OUT = (
    "--out",
    Path,
    "write the report as byte-deterministic JSON here (default: stdout)",
)


def _flag(parser, name: str, type, help: Optional[str] = None, default=None, **kwargs):
    parser.add_argument(name, type=type, default=default, help=help, **kwargs)


def _quiet_flag(parser) -> None:
    parser.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Run MD from a JSON config."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a config")
    p.add_argument("config", type=Path)
    _quiet_flag(p)
    _flag(p, *_ENGINE_STATS)
    _flag(p, *_TRACE)
    _flag(p, *_PROFILE, dest="tuning_profile")

    p = sub.add_parser(
        "resume", help="resume an interrupted run from its checkpoint directory"
    )
    p.add_argument("checkpoint_dir", type=Path)
    _flag(
        p,
        "--steps",
        int,
        "run this many more steps (default: finish the configured total)",
    )
    _quiet_flag(p)
    _flag(p, *_ENGINE_STATS)
    _flag(p, *_TRACE)
    _flag(p, *_PROFILE, dest="tuning_profile")

    p = sub.add_parser(
        "serve", help="run a batched force-serving workload from a config"
    )
    p.add_argument("config", type=Path)
    _quiet_flag(p)
    _flag(
        p, "--stats-json", Path, "write the server metrics snapshot as JSON to this path"
    )
    _flag(p, *_TRACE)
    _flag(p, *_PROFILE, dest="tuning_profile")

    p = sub.add_parser("train", help="run a force-matching training job from a config")
    p.add_argument("config", type=Path)
    p.add_argument(
        "--resume",
        action="store_true",
        help="restore the newest checkpoint under 'train.checkpoint_dir' "
        "and finish the configured epoch budget",
    )
    _quiet_flag(p)
    _flag(
        p,
        "--stats-json",
        Path,
        "write trainer stats and epoch history as JSON to this path",
    )
    _flag(p, *_TRACE)

    p = sub.add_parser(
        "profile", help="run a traced MD segment and print a phase-time table"
    )
    p.add_argument("config", type=Path)
    _flag(p, "--steps", int, "steps to profile (default: the config's md.steps)")
    _flag(
        p,
        "--top",
        int,
        "also print the N most expensive steps of one compiled force call "
        "(op, einsum spec, shapes, time)",
    )
    _quiet_flag(p)
    _flag(p, "--trace-json", Path, "also write the trace document as JSON to this path")
    _flag(
        p,
        "--stats-json",
        Path,
        "write the unified registry snapshot as JSON to this path",
    )

    p = sub.add_parser(
        "tune",
        help="run a deterministic offline tuning search and write a profile",
    )
    p.add_argument(
        "--target",
        required=True,
        choices=["md", "serve", "parallel"],
        help="which subsystem to tune",
    )
    _flag(
        p,
        "config",
        Path,
        "workload config (default: the quickstart example for the target)",
        nargs="?",
    )
    _flag(
        p,
        "--out",
        Path,
        "write the TuningProfile JSON here (byte-deterministic per seed)",
    )
    _flag(p, "--seed", int, default=0)
    _flag(p, "--steps", int, "MD steps per trial (md target only)")
    _quiet_flag(p)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic chaos harness: composed-fault scenarios, "
        "invariant checks, failure shrinking",
    ).add_subparsers(dest="chaos_command", required=True)
    p = chaos.add_parser("run", help="run one seeded composed-fault scenario")
    _flag(p, "--seed", int, default=0)
    p.add_argument(
        "--workload",
        choices=["md", "parallel", "serve", "train"],
        default=None,
        help="pin the workload family (default: derived from the seed)",
    )
    _flag(p, "--deadline", float)
    _quiet_flag(p)
    p = chaos.add_parser(
        "soak",
        help="run N seeded scenarios under a wall-clock budget; shrink "
        "any invariant violation to a minimal reproducer",
    )
    _flag(p, "--n", int, default=40)
    _flag(p, "--seed", int, default=0)
    _flag(
        p,
        "--budget",
        float,
        "wall-clock budget in seconds (remaining scenarios are skipped)",
    )
    _flag(p, "--deadline", float)
    _flag(p, "--report", Path, "write the soak report as byte-deterministic JSON here")
    _flag(
        p,
        "--reproducer-dir",
        Path,
        "write shrunken minimal-reproducer JSON artifacts here",
    )
    _quiet_flag(p)
    p = chaos.add_parser(
        "replay", help="re-run a reproducer artifact (or bare spec) JSON"
    )
    p.add_argument("artifact", type=Path)
    _quiet_flag(p)

    traj = sub.add_parser(
        "traj",
        help="binary trajectory tools: inspect, verify, convert, streaming analysis",
    ).add_subparsers(dest="traj_command", required=True)
    p = traj.add_parser("info", help="print header and index summary of a .rtrj file")
    p.add_argument("file", type=Path)
    _quiet_flag(p)
    _flag(p, *_OUT)
    p = traj.add_parser(
        "verify",
        help="checksum every chunk; exit 1 if any frame is quarantined",
    )
    p.add_argument("file", type=Path)
    _quiet_flag(p)
    _flag(p, *_OUT)
    p = traj.add_parser(
        "convert", help="convert .rtrj <-> .xyz (direction from extensions)"
    )
    p.add_argument("src", type=Path)
    p.add_argument("dst", type=Path)
    _quiet_flag(p)
    p = traj.add_parser(
        "analyze",
        help="single-pass streaming MSD/VACF/RDF/thermo report",
    )
    p.add_argument("file", type=Path)
    _flag(p, "--msd-window", int, default=50)
    _flag(p, "--rdf-bins", int, default=50)
    _flag(p, "--every", int, "analyze every k-th frame", default=1)
    _quiet_flag(p)
    _flag(p, *_OUT)

    for name, (_, help) in EXAMPLES.items():
        sub.add_parser(name, help=help)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command in EXAMPLES:
        json.dump(EXAMPLES[command][0], sys.stdout, indent=2)
        print()
        return 0
    if command == "chaos":
        return chaos_command(args)
    if command == "traj":
        return traj_command(args)
    if command == "tune":
        tune_config(
            None if args.config is None else read_config(args.config),
            args.target,
            out=args.out,
            seed=args.seed,
            steps=args.steps,
            quiet=args.quiet,
        )
        return 0
    if command == "profile":
        profile_config(
            read_config(args.config),
            steps=args.steps,
            quiet=args.quiet,
            trace_json=args.trace_json,
            stats_json=args.stats_json,
            top=args.top,
        )
        return 0
    with tracing(args.trace_json):
        if command == "resume":
            resume_config(
                args.checkpoint_dir,
                steps=args.steps,
                quiet=args.quiet,
                stats_json=args.stats_json,
                tuning_profile=args.tuning_profile,
            )
        elif command == "train":
            train_config(
                read_config(args.config),
                resume=args.resume,
                quiet=args.quiet,
                stats_json=args.stats_json,
            )
        else:
            config = read_config(args.config, args.tuning_profile)
            handler = serve_config if command == "serve" else run_config
            handler(config, quiet=args.quiet, stats_json=args.stats_json)
    return 0
