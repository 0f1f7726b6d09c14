"""``tune``: one offline tuning target, written as a TuningProfile."""

from __future__ import annotations

import json
from typing import Optional

from ..tune import TuningProfile, run_target
from .common import logger


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
    log = logger(quiet)
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
    log(
        f"tuned target {target!r}: {report['n_evaluations']} configurations "
        f"over {report['n_sweeps']} sweep(s)"
    )
    log(f"best: {json.dumps(report['best'], sort_keys=True)}")
    log(f"modeled score: {report['score']:.6g} (lower is better)")
    if out is not None:
        profile.save(out)
        log(f"profile written to {out}")
    return profile
