"""TuningProfile: the persisted, loadable, applicable tuning artifact.

A profile is deterministic JSON (via :mod:`repro.obs.jsonio`: sorted keys,
stable float formatting, schema_version) holding, per tuning target, the
best configuration, its deterministic metrics, and the full tried table.
Provenance (seed, objective kind) rides along so a profile can be traced
back to how it was produced.  A profile names only targets this build
tunes: loading one that names another fails instead of applying nothing.

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
from .targets import MD_SPACE, SERVE_SPACE, TARGETS

__all__ = ["TuningProfile", "apply_profile", "PROFILE_KIND"]

PROFILE_KIND = "tuning_profile"


def _check_targets(names: Iterable[str]) -> None:
    unknown = sorted(set(names) - set(TARGETS))
    if unknown:
        raise ValueError(
            f"unknown profile targets: {unknown} (expected some of {sorted(TARGETS)})"
        )


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
        """The JSON-able document :meth:`save` writes."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": PROFILE_KIND,
            "provenance": dict(self.provenance),
            "targets": dict(self.targets),
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
        targets = payload.get("targets", {})
        _check_targets(targets)
        return cls(targets, payload.get("provenance", {}))

    @classmethod
    def load(cls, path: str) -> "TuningProfile":
        with open(path) as fh:
            return cls.from_payload(json.load(fh))

    def __repr__(self) -> str:
        return f"TuningProfile(targets={sorted(self.targets)})"


#: target -> (config section its winners are written to, the space naming
#: the keys).  ``parallel`` writes its one key, ``parallel.grid``, itself.
_WRITES = {
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
    subset; by default every target present in the profile is applied.
    No two targets write the same key.  The input config always wins
    nothing — profile values overwrite — so pass ``targets`` to keep
    hand-set sections.
    """
    wanted = set(profile.targets if targets is None else targets)
    _check_targets(wanted)
    out = copy.deepcopy(config)
    applied: List[str] = []
    for name in TARGETS:
        if name in wanted and name in profile.targets:
            applied.extend(_apply(out, name, profile.best(name)))
    out.setdefault("_tuning", {})["applied"] = applied
    return out
