"""User-facing equivariance validation utilities.

Equivariance is the core correctness property of everything in this
package; these helpers let downstream users verify it for their own models
and layers, the same way the internal test-suite does:

* :func:`check_potential_invariance` — E(3) invariance of energies and
  equivariance of forces for any :class:`~repro.models.base.Potential`.
* :func:`check_feature_equivariance` — D-matrix equivariance of any map
  between strided feature layouts (custom tensor-product compositions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..md.system import System
from .layout import StridedLayout
from .wigner import random_rotation, rotation_to_wigner_d


@dataclass
class EquivarianceReport:
    """Maximum deviations observed over the random-transformation trials."""

    energy_error: float
    force_error: float
    n_trials: int

    @property
    def passed(self) -> bool:
        return self.energy_error < 1e-7 and self.force_error < 1e-6

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] E(3) check over {self.n_trials} trials: "
            f"max |ΔE| = {self.energy_error:.2e}, max |ΔF| = {self.force_error:.2e}"
        )


def check_potential_invariance(
    potential,
    system: System,
    n_trials: int = 3,
    seed: int = 0,
    include_inversion: bool = True,
) -> EquivarianceReport:
    """Verify E(3) symmetry of a potential on an open-boundary system.

    Applies random rotations, translations and (optionally) inversions;
    energies must be invariant and forces must co-rotate.  Periodic systems
    are not supported here (lattice vectors would need transforming too) —
    strip the cell or test on a cluster.
    """
    if system.cell is not None:
        raise ValueError("use an open-boundary (cell=None) system")
    rng = np.random.default_rng(seed)
    e0, f0 = potential.energy_and_forces(system)
    e_err = 0.0
    f_err = 0.0
    for _ in range(n_trials):
        R = random_rotation(rng)
        det = -1.0 if (include_inversion and rng.random() < 0.5) else 1.0
        t = rng.normal(size=3) * 5.0
        moved = System(
            det * (system.positions @ R.T) + t, system.species, None
        )
        e1, f1 = potential.energy_and_forces(moved)
        e_err = max(e_err, abs(e1 - e0))
        f_err = max(f_err, float(np.abs(f1 - det * (f0 @ R.T)).max()))
    return EquivarianceReport(e_err, f_err, n_trials)


def block_diagonal_rep(
    layout: StridedLayout, R: np.ndarray, improper: bool = False
) -> np.ndarray:
    """The O(3) representation matrix acting on a strided layout's columns."""
    # Filled block by block with numpy: importing scipy.linalg for one
    # block_diag put ~30 MB and 0.2 s on every ``import repro.models``.
    rep = np.zeros((layout.dim, layout.dim))
    for ir, sl in zip(layout.irreps, layout.slices()):
        D = rotation_to_wigner_d(ir.l, R)
        rep[sl, sl] = D * ir.p if improper else D
    return rep


def check_feature_equivariance(
    fn: Callable[[np.ndarray], np.ndarray],
    layout_in: StridedLayout,
    layout_out: StridedLayout,
    n_trials: int = 3,
    batch: int = 4,
    seed: int = 0,
    atol: float = 1e-8,
) -> float:
    """Max deviation of ``fn(x @ Dᵢₙᵀ)`` from ``fn(x) @ Dₒᵤₜᵀ``.

    ``fn`` maps arrays of shape [batch, mul, layout_in.dim] to
    [batch, mul, layout_out.dim].  Returns the worst absolute error over
    proper and improper transformations (raise on > atol yourself, or use
    in asserts).
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, layout_in.mul, layout_in.dim))
    y0 = np.asarray(fn(x))
    worst = 0.0
    for _ in range(n_trials):
        R = random_rotation(rng)
        for improper in (False, True):
            Din = block_diagonal_rep(layout_in, R, improper)
            Dout = block_diagonal_rep(layout_out, R, improper)
            y1 = np.asarray(fn(x @ Din.T))
            worst = max(worst, float(np.abs(y1 - y0 @ Dout.T).max()))
    return worst
