"""Run-level diagnostics: the stability summary and the Einstein fit.

What a finished run's time series says about its health (the paper's
fig. 4 acceptance criteria), plus the MSD → diffusion-coefficient fit.
Everything that walks *frames* — MSD, VACF, g(r), thermo drift — is a
single-pass fold in :mod:`repro.traj.stream`; the fits they share live in
:mod:`repro.md.observables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .observables import SeriesDrift, energy_drift_per_atom


def diffusion_coefficient(
    msd: np.ndarray,
    dt_between_frames_fs: float,
    fit_fraction: tuple[float, float] = (0.3, 0.9),
) -> float:
    """Einstein relation: D = slope(MSD)/6, returned in Å²/fs.

    Fits the linear regime (by default lags 30–90% of the window, skipping
    ballistic onset and noisy tail).
    """
    n = len(msd)
    if n < 4:
        raise ValueError("MSD too short to fit")
    lo = max(1, int(fit_fraction[0] * n))
    hi = max(lo + 2, int(fit_fraction[1] * n))
    lags = np.arange(lo, hi) * dt_between_frames_fs
    slope = np.polyfit(lags, msd[lo:hi], 1)[0]
    return float(slope / 6.0)


@dataclass
class StabilityReport:
    """Summary of an MD run's health (the fig. 4 acceptance criteria)."""

    mean_temperature: float
    temperature_drift: float  # K per recorded step, linear fit
    energy_drift_per_atom: float  # eV/atom over the run (NVE figure)
    max_displacement: float  # Å, max per-atom move over the run
    exploded: bool

    def __str__(self) -> str:
        status = "UNSTABLE" if self.exploded else "stable"
        return (
            f"[{status}] <T> = {self.mean_temperature:.0f} K "
            f"(drift {self.temperature_drift:+.2f} K/step), "
            f"|dE|/N = {self.energy_drift_per_atom:.2e} eV, "
            f"max disp = {self.max_displacement:.2f} Å"
        )


def stability_report(
    result,
    frames: Optional[Sequence[np.ndarray]] = None,
    explosion_temperature: float = 5000.0,
) -> StabilityReport:
    """Health summary from an :class:`~repro.md.simulation.MDResult`.

    ``frames`` are positions bracketing the run — a snapshot taken before
    ``run`` and the system's positions after it are enough: only the first
    and the last entry are read, for the displacement figure and the atom
    count of the per-atom energy drift (1 without frames).
    """
    temps = SeriesDrift(result.temperatures)
    e = np.asarray(result.total_energies, dtype=np.float64)
    n_atoms = 1
    max_disp = 0.0
    if frames is not None and len(frames) > 1:
        first, last = np.asarray(frames[0]), np.asarray(frames[-1])
        n_atoms = len(first)
        max_disp = float(np.linalg.norm(last - first, axis=1).max())
    exploded = bool(
        (np.asarray(result.temperatures) > explosion_temperature).any()
        or not np.isfinite(e).all()
    )
    return StabilityReport(
        mean_temperature=temps.mean,
        temperature_drift=temps.slope,
        energy_drift_per_atom=energy_drift_per_atom(e, n_atoms),
        max_displacement=max_disp,
        exploded=exploded,
    )
