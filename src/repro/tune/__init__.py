"""repro.tune: measured autotuning for the performance knobs.

The paper's throughput rests on hand-picked constants — 5% engine
padding (§V-C), plan-ladder growth, batching windows, neighbor skins,
process grids.  This package closes the loop the ``repro.obs`` registry
opened: it *measures* those knobs.

Three layers:

* **offline tuner** (:mod:`~repro.tune.targets`): deterministic seeded
  coordinate-descent searches over declared
  :class:`~repro.tune.space.ParamSpace` candidates for three targets —
  ``md``, ``serve``, ``parallel`` — each scored on counters of a real run
  of the code it tunes;
* **profiles** (:mod:`~repro.tune.profile`): the
  :class:`TuningProfile` JSON artifact (byte-deterministic for a given
  seed) plus :func:`apply_profile`, the one entry point that folds tuned
  values into a run/serve config;
* **online controllers** (:mod:`~repro.tune.controllers`): off-by-default
  guardrailed hysteresis controllers that adapt the serve batch window,
  admission cap, and engine padding at runtime.

CLI: ``repro tune --target serve --out profile.json`` then
``repro serve --profile profile.json``.
"""

from .controllers import (
    AdmissionController,
    BatchWindowController,
    ControllerSet,
    HysteresisController,
    RepadController,
)
from .profile import PROFILE_KIND, TuningProfile, apply_profile
from .search import (
    TIE_TOL,
    SearchResult,
    Trial,
    coordinate_descent,
)
from .space import Param, ParamSpace
from .targets import (
    COST,
    MD_SPACE,
    SERVE_SPACE,
    TARGETS,
    run_target,
    tune_md,
    tune_parallel,
    tune_serve,
)

__all__ = [
    "Param",
    "ParamSpace",
    "Trial",
    "SearchResult",
    "coordinate_descent",
    "TIE_TOL",
    "COST",
    "TARGETS",
    "MD_SPACE",
    "SERVE_SPACE",
    "tune_md",
    "tune_serve",
    "tune_parallel",
    "run_target",
    "TuningProfile",
    "apply_profile",
    "PROFILE_KIND",
    "HysteresisController",
    "BatchWindowController",
    "AdmissionController",
    "RepadController",
    "ControllerSet",
]
