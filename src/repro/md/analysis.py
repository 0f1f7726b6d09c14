"""Trajectory analysis: MSD, velocity autocorrelation, diffusion, stability.

The observables a biomolecular-MD user computes from production runs (the
paper's fig. 4 uses RMSD + temperature from :mod:`observables`; these are
the standard companions: transport coefficients and drift diagnostics).
All functions operate on in-memory trajectories as produced by
:class:`~repro.md.trajectory.TrajectoryRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


def mean_squared_displacement(
    frames: Sequence[np.ndarray],
    max_lag: Optional[int] = None,
    atom_indices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """MSD(τ) averaged over atoms and time origins.

    ``frames`` must be *unwrapped* positions ([T] arrays of [N, 3]); feed
    trajectories recorded without wrapping, or unwrap first with
    :func:`unwrap_trajectory`.  Returns MSD for lags 0..max_lag (Å²).

    Uses the FKT decomposition: MSD(τ) = S(τ) − 2·C(τ) per coordinate
    signal, with S(τ) from prefix sums of |x|² and C(τ) (the position
    autocorrelation summed over origins) from one FFT — O(T log T) total
    instead of the naive O(T·τ_max) sweep, which it agrees with to float
    round-off (pinned by a regression test against that sweep).
    """
    traj = np.stack([np.asarray(f, dtype=np.float64) for f in frames])
    if atom_indices is not None:
        traj = traj[:, np.asarray(atom_indices)]
    T = len(traj)
    if T < 2:
        raise ValueError("need at least two frames")
    max_lag = max_lag if max_lag is not None else T - 1
    max_lag = min(max_lag, T - 1)
    X = traj.reshape(T, -1)  # [T, N*3] independent coordinate signals
    # C(τ) = Σ_t x_t·x_{t+τ}, all signals at once via zero-padded FFT.
    F = np.fft.rfft(X, n=2 * T, axis=0)
    corr = np.fft.irfft(F * np.conj(F), n=2 * T, axis=0)[: max_lag + 1]
    # S(τ) = Σ over the τ-overlap window of |x_t|² + |x_{t+τ}|².
    sq = (X**2).sum(axis=1)  # [T], |frame|² summed over atoms/dims
    css = np.concatenate([[0.0], np.cumsum(sq)])
    lags = np.arange(max_lag + 1)
    S = (css[T - lags] - css[0]) + (css[T] - css[lags])
    n_atoms = traj.shape[1]
    out = (S - 2.0 * corr.sum(axis=1).real) / ((T - lags) * n_atoms)
    out[0] = 0.0
    return out


def unwrap_trajectory(
    frames: Sequence[np.ndarray], box_lengths: np.ndarray
) -> list:
    """Undo periodic wrapping: make positions continuous across frames.

    Assumes no atom moves more than half a box length between consecutive
    frames (standard recording-interval requirement).
    """
    L = np.asarray(box_lengths, dtype=np.float64)
    out = [np.array(frames[0], dtype=np.float64, copy=True)]
    offsets = np.zeros_like(out[0])
    for prev, cur in zip(frames, frames[1:]):
        jump = np.asarray(cur) - np.asarray(prev)
        offsets = offsets - L * np.round(jump / L)
        out.append(np.asarray(cur, dtype=np.float64) + offsets)
    return out


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


def velocity_autocorrelation(
    velocities: Sequence[np.ndarray], max_lag: Optional[int] = None
) -> np.ndarray:
    """Normalized VACF(τ) = ⟨v(0)·v(τ)⟩ / ⟨v²⟩ over atoms and origins."""
    v = np.stack([np.asarray(x) for x in velocities])  # [T, N, 3]
    T = len(v)
    if T < 2:
        raise ValueError("need at least two frames")
    max_lag = min(max_lag if max_lag is not None else T - 1, T - 1)
    norm = float((v * v).sum(axis=-1).mean())
    out = np.zeros(max_lag + 1)
    out[0] = 1.0
    for lag in range(1, max_lag + 1):
        dot = (v[:-lag] * v[lag:]).sum(axis=-1).mean()
        out[lag] = float(dot) / norm
    return out


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
    """Health summary from an :class:`~repro.md.simulation.MDResult`."""
    temps = np.asarray(result.temperatures, dtype=np.float64)
    drift = float(np.polyfit(np.arange(len(temps)), temps, 1)[0]) if len(temps) > 1 else 0.0
    e = np.asarray(result.total_energies, dtype=np.float64)
    n_atoms = None
    max_disp = 0.0
    if frames is not None and len(frames) > 1:
        first, last = np.asarray(frames[0]), np.asarray(frames[-1])
        n_atoms = len(first)
        max_disp = float(np.linalg.norm(last - first, axis=1).max())
    if n_atoms is None:
        n_atoms = 1
    e_drift = abs(e[-1] - e[0]) / n_atoms if len(e) > 1 else 0.0
    exploded = bool(
        (temps > explosion_temperature).any() or not np.isfinite(e).all()
    )
    return StabilityReport(
        mean_temperature=float(temps.mean()) if len(temps) else 0.0,
        temperature_drift=drift,
        energy_drift_per_atom=float(e_drift),
        max_displacement=max_disp,
        exploded=exploded,
    )
