"""TuningProfile: the persisted, loadable, applicable tuning artifact.

A profile is deterministic JSON (via :mod:`repro.obs.jsonio`: sorted keys,
stable float formatting, schema_version) holding, per tuning target, the
best configuration, its deterministic metrics, and the full tried table.
Measurement provenance (seed, warmup/repeats, objective kind) rides along
so a profile can be traced back to how it was produced.

Wall-clock metrics (keys prefixed ``wall_``) are *stripped* before
persisting: they are reported to the operator at tune time but would break
the byte-identity guarantee across same-seed runs, so only counter-derived
modeled metrics are written.

:func:`apply_profile` is the single entry point that folds a profile into
a CLI-style config dict; ``Simulation``, ``compile()``, ``ForceServer``
and ``ParallelForceEvaluator`` all receive tuned values through the
config keys it writes.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields
from typing import Dict, Iterable, List, Optional, get_type_hints

from ..config import RunConfig
from ..obs import write_json
from ..obs.jsonio import SCHEMA_VERSION, to_json
from .targets import ENGINE_SPACE, MD_SPACE, SERVE_SPACE

__all__ = ["TuningProfile", "apply_profile", "PROFILE_KIND"]

PROFILE_KIND = "tuning_profile"

#: Fixed application order: later targets override earlier ones on shared
#: keys (``md`` refines the engine padding with MD-workload context).
APPLY_ORDER = ("engine", "md", "serve", "parallel")


def _strip_wall(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.startswith("wall_")}


def _strip_report(report: dict) -> dict:
    out = dict(report)
    out["metrics"] = _strip_wall(dict(report.get("metrics", {})))
    out["trials"] = [
        {
            "params": dict(t.get("params", {})),
            "score": t.get("score"),
            "metrics": _strip_wall(dict(t.get("metrics", {}))),
        }
        for t in report.get("trials", [])
    ]
    return out


class TuningProfile:
    """Per-target tuning results plus measurement provenance."""

    def __init__(
        self, targets: Dict[str, dict], provenance: Optional[dict] = None
    ) -> None:
        self.targets = dict(targets)
        self.provenance = dict(provenance or {})

    @classmethod
    def from_reports(
        cls, reports: Iterable[dict], provenance: Optional[dict] = None
    ) -> "TuningProfile":
        targets = {}
        for report in reports:
            name = report.get("target")
            if not name:
                raise ValueError("target report is missing its 'target' key")
            targets[name] = report
        return cls(targets, provenance)

    def best(self, target: str) -> dict:
        """The winning params dict for one target."""
        return dict(self.targets[target]["best"])

    def to_payload(self) -> dict:
        """JSON-able payload with ``wall_*`` metrics stripped."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": PROFILE_KIND,
            "provenance": dict(self.provenance),
            "targets": {
                name: _strip_report(report)
                for name, report in sorted(self.targets.items())
            },
        }

    def to_json(self) -> str:
        return to_json(self.to_payload())

    def save(self, path: str) -> None:
        write_json(path, self.to_payload())

    @classmethod
    def from_payload(cls, payload: dict) -> "TuningProfile":
        kind = payload.get("kind")
        if kind != PROFILE_KIND:
            raise ValueError(
                f"not a tuning profile: kind={kind!r} (expected {PROFILE_KIND!r})"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported tuning-profile schema_version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        return cls(payload.get("targets", {}), payload.get("provenance", {}))

    @classmethod
    def load(cls, path: str) -> "TuningProfile":
        with open(path) as fh:
            return cls.from_payload(json.load(fh))

    def __repr__(self) -> str:
        return f"TuningProfile(targets={sorted(self.targets)})"


#: target -> (config section its winners are written to, the space naming
#: the keys).  ``parallel`` writes its one key, ``parallel.grid``, itself.
_WRITES = {
    "engine": ("md", ENGINE_SPACE),
    "md": ("md", MD_SPACE),
    "serve": ("serve", SERVE_SPACE),
}

# A tuned knob must be a key the config schema knows, or applying a profile
# would produce a config that no longer loads.
for _section, _space in _WRITES.values():
    _keys = {f.name for f in fields(get_type_hints(RunConfig)[_section])}
    if not set(_space.names) <= _keys:
        raise ImportError(
            f"tuned knobs {sorted(set(_space.names) - _keys)} are not "
            f"'{_section}' config keys"
        )


def _apply(config: dict, target: str, best: dict) -> List[str]:
    if target == "parallel":
        config.setdefault("parallel", {})["grid"] = [int(d) for d in best["grid"]]
        return ["parallel.grid"]
    section, space = _WRITES[target]
    tuned = {name: best[name] for name in space.names if name in best}
    config.setdefault(section, {}).update(tuned)
    return [f"{section}.{name}" for name in tuned]


def apply_profile(
    config: dict,
    profile: TuningProfile,
    targets: Optional[Iterable[str]] = None,
) -> dict:
    """Fold a profile's winning configurations into a config dict.

    Returns a deep copy of ``config`` with the tuned values written under
    the keys the builders read (``md.skin``, ``serve.max_batch``,
    ``parallel.grid``, ...).  ``targets`` restricts application to a
    subset; by default every target present in the profile is applied, in
    :data:`APPLY_ORDER`.  The input config always wins nothing — profile
    values overwrite — so pass ``targets`` to keep hand-set sections.
    """
    if targets is None:
        wanted = set(profile.targets)
    else:
        wanted = set(targets)
        unknown = wanted - set(APPLY_ORDER)
        if unknown:
            raise ValueError(f"unknown profile targets: {sorted(unknown)}")
    out = copy.deepcopy(config)
    applied: List[str] = []
    for name in APPLY_ORDER:
        if name in wanted and name in profile.targets:
            applied.extend(_apply(out, name, profile.best(name)))
    out.setdefault("_tuning", {})["applied"] = applied
    return out
