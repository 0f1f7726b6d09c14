"""Streaming trajectory analysis: single-pass folds over a reader.

The one analysis stack: materializing a whole trajectory is exactly what a
data plane must avoid at production scale (the paper's 44M-atom capsid
runs), so each fold below consumes one frame at a time in O(window · N)
work and O(window · N) memory:

* :class:`StreamingMSD` — MSD over a windowed ring buffer of unwrapped
  positions (incremental minimum-image unwrapping, so wrapped dumps are
  handled without a second pass).  Equals the all-origins MSD of the
  materialized trajectory exactly when the window covers it (pinned by
  tests against a test-side reference).
* :class:`StreamingVACF` — normalized velocity autocorrelation over the
  same ring-buffer scheme.
* :class:`StreamingRDF` — g(r) accumulated per frame under the
  minimum-image convention: the histogram and normalization of
  :func:`repro.md.observables.radial_distribution`, summed over frames.
* :class:`StreamingThermo` — temperature mean/drift and the NVE energy
  drift per atom from the per-frame ``pe`` the binary format stores (the
  fits ``stability_report`` applies to a run's time series).

:func:`analyze_stream` drives all folds in one pass over a
:class:`~repro.traj.store.TrajectoryReader` and returns a plain dict that
``obs.jsonio`` serializes byte-deterministically — the payload of the
``traj analyze`` CLI subcommand.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

import numpy as np

from ..md.analysis import diffusion_coefficient
from ..md.observables import (
    SeriesDrift,
    energy_drift_per_atom,
    rdf_counts,
    rdf_normalize,
)
from ..md.system import ACCEL_CONV, KB_EV

__all__ = [
    "StreamingMSD",
    "StreamingVACF",
    "StreamingRDF",
    "StreamingThermo",
    "analyze_stream",
]


class StreamingMSD:
    """MSD(τ) for τ ≤ window, averaged over atoms and all time origins.

    Positions are unwrapped incrementally: each new frame's displacement
    from the previous one is reduced to its minimum image before being
    accumulated, so periodic wrapping in the dump never corrupts the MSD
    (the standard no-atom-moves-more-than-L/2-per-frame requirement).
    """

    def __init__(
        self, window: int, atom_indices: Optional[np.ndarray] = None
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.atom_indices = (
            None if atom_indices is None else np.asarray(atom_indices)
        )
        self._ring: deque = deque(maxlen=self.window + 1)
        self._prev_raw: Optional[np.ndarray] = None
        self._unwrapped: Optional[np.ndarray] = None
        self._sums = np.zeros(self.window + 1)
        self._counts = np.zeros(self.window + 1, dtype=np.int64)
        self.n_frames = 0

    def update(
        self, positions: np.ndarray, cell_lengths: Optional[np.ndarray] = None
    ) -> None:
        pos = np.asarray(positions, dtype=np.float64)
        if self.atom_indices is not None:
            pos = pos[self.atom_indices]
        if self._unwrapped is None:
            self._unwrapped = pos.copy()
        else:
            jump = pos - self._prev_raw
            if cell_lengths is not None:
                L = np.asarray(cell_lengths, dtype=np.float64)
                jump = jump - L * np.round(jump / L)
            self._unwrapped = self._unwrapped + jump
        self._prev_raw = pos.copy()
        self._ring.append(self._unwrapped)
        self.n_frames += 1
        cur = self._unwrapped
        for lag in range(1, len(self._ring)):
            past = self._ring[len(self._ring) - 1 - lag]
            disp = cur - past
            self._sums[lag] += float((disp**2).sum(axis=-1).mean())
            self._counts[lag] += 1

    def result(self) -> np.ndarray:
        """MSD for lags 0..min(window, n_frames-1), in Å²."""
        max_lag = min(self.window, max(self.n_frames - 1, 0))
        out = np.zeros(max_lag + 1)
        for lag in range(1, max_lag + 1):
            out[lag] = self._sums[lag] / self._counts[lag]
        return out


class StreamingVACF:
    """Normalized VACF(τ) = ⟨v(0)·v(τ)⟩ / ⟨v²⟩ for τ ≤ window."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._ring: deque = deque(maxlen=self.window + 1)
        self._sums = np.zeros(self.window + 1)
        self._counts = np.zeros(self.window + 1, dtype=np.int64)
        self._vsq_sum = 0.0
        self.n_frames = 0

    def update(self, velocities: np.ndarray) -> None:
        v = np.asarray(velocities, dtype=np.float64)
        self._ring.append(v.copy())
        self.n_frames += 1
        self._vsq_sum += float((v * v).sum(axis=-1).mean())
        for lag in range(1, len(self._ring)):
            past = self._ring[len(self._ring) - 1 - lag]
            self._sums[lag] += float((past * v).sum(axis=-1).mean())
            self._counts[lag] += 1

    def result(self) -> np.ndarray:
        max_lag = min(self.window, max(self.n_frames - 1, 0))
        out = np.zeros(max_lag + 1)
        if self.n_frames == 0:
            return out
        out[0] = 1.0
        norm = self._vsq_sum / self.n_frames
        if norm == 0.0:
            return out
        for lag in range(1, max_lag + 1):
            out[lag] = (self._sums[lag] / self._counts[lag]) / norm
        return out


class StreamingRDF:
    """g(r) accumulated frame by frame (ordered pairs, minimum image).

    Brute-force O(N²) distances per frame — the streaming property is
    about *frames*, not pairs; for the system sizes the analysis CLI
    targets this is the robust choice (no skin, no rebuild schedule).
    """

    def __init__(self, r_max: float, n_bins: int = 100) -> None:
        if r_max <= 0:
            raise ValueError("r_max must be positive")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        self.r_max = float(r_max)
        self.n_bins = int(n_bins)
        self._edges = np.linspace(0.0, self.r_max, self.n_bins + 1)
        self._hist = np.zeros(self.n_bins, dtype=np.int64)
        self._expected = np.zeros(self.n_bins)
        self.n_frames = 0

    def update(
        self, positions: np.ndarray, cell_lengths: Optional[np.ndarray] = None
    ) -> None:
        pos = np.asarray(positions, dtype=np.float64)
        n = len(pos)
        if n < 2:
            return
        delta = pos[:, None, :] - pos[None, :, :]
        if cell_lengths is not None:
            L = np.asarray(cell_lengths, dtype=np.float64)
            delta = delta - L * np.round(delta / L)
            volume = float(np.prod(L))
        else:
            span = pos.max(axis=0) - pos.min(axis=0)
            volume = float(np.prod(np.maximum(span, 1e-12)))
        r = np.sqrt((delta**2).sum(axis=-1))
        hist, expected = rdf_counts(
            r[~np.eye(n, dtype=bool)], n, volume, self._edges
        )
        self._hist += hist
        self._expected += expected
        self.n_frames += 1

    def result(self) -> Dict[str, np.ndarray]:
        centers = 0.5 * (self._edges[:-1] + self._edges[1:])
        return {"r": centers, "g": rdf_normalize(self._hist, self._expected)}


class StreamingThermo:
    """Temperature mean/drift + energy drift from per-frame pe snapshots.

    ``masses`` come from the trajectory file header, so the fold needs
    nothing beyond the frame stream itself.
    """

    def __init__(self, masses: np.ndarray) -> None:
        self.masses = np.asarray(masses, dtype=np.float64)
        self._temps = SeriesDrift()
        self._first_total_e: Optional[float] = None
        self._last_total_e: Optional[float] = None
        self._has_pe = True

    @property
    def n_frames(self) -> int:
        return self._temps.n

    def update(self, velocities: np.ndarray, pe: float) -> None:
        v = np.asarray(velocities, dtype=np.float64)
        ke = float(0.5 * np.sum(self.masses * (v**2).sum(axis=-1)) / ACCEL_CONV)
        dof = 3 * len(v)
        self._temps.add(2.0 * ke / (dof * KB_EV) if dof else 0.0)
        if np.isfinite(pe):
            total = pe + ke
            if self._first_total_e is None:
                self._first_total_e = total
            self._last_total_e = total
        else:
            self._has_pe = False

    def result(self) -> Dict[str, float]:
        e_drift = 0.0
        if (
            self._has_pe
            and self._first_total_e is not None
            and len(self.masses)
        ):
            e_drift = energy_drift_per_atom(
                [self._first_total_e, self._last_total_e], len(self.masses)
            )
        return {
            "n_frames": self.n_frames,
            "mean_temperature": self._temps.mean,
            "temperature_drift_per_frame": self._temps.slope,
            "energy_drift_per_atom": e_drift,
        }


def analyze_stream(
    reader,
    msd_window: int = 50,
    vacf_window: int = 50,
    rdf_r_max: Optional[float] = None,
    rdf_bins: int = 50,
    every: int = 1,
) -> Dict:
    """One pass over ``reader`` feeding every fold; returns the report dict.

    The report contains only values derived from the file's bytes (no
    wall clock, no paths beyond the basename), so serializing it through
    :func:`repro.obs.write_json` is byte-deterministic — rerunning
    ``traj analyze`` on the same file yields an identical report.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    header = reader.header
    msd = StreamingMSD(msd_window)
    vacf = StreamingVACF(vacf_window)
    thermo = StreamingThermo(header.masses)
    rdf: Optional[StreamingRDF] = None
    times = []
    steps = []
    n_seen = 0
    for k, frame in enumerate(reader.frames()):
        if k % every:
            continue
        cell = frame.cell_lengths
        if rdf is None and cell is not None:
            r_max = (
                float(rdf_r_max)
                if rdf_r_max is not None
                else float(cell.min()) / 2.0
            )
            rdf = StreamingRDF(r_max, n_bins=rdf_bins)
        msd.update(frame.positions, cell)
        vacf.update(frame.velocities)
        thermo.update(frame.velocities, frame.pe)
        if rdf is not None:
            rdf.update(frame.positions, cell)
        times.append(frame.time_fs)
        steps.append(frame.step)
        n_seen += 1

    report: Dict = {
        "n_atoms": header.n_atoms,
        "n_frames_analyzed": n_seen,
        "n_frames_quarantined": reader.frames_quarantined,
        "first_step": steps[0] if steps else None,
        "last_step": steps[-1] if steps else None,
        "msd": list(msd.result()),
        "vacf": list(vacf.result()),
        "thermo": thermo.result(),
    }
    if rdf is not None and rdf.n_frames:
        res = rdf.result()
        report["rdf"] = {"r": list(res["r"]), "g": list(res["g"])}
    if len(times) > 1:
        dt = times[1] - times[0]
        report["dt_between_frames_fs"] = dt
        msd_arr = np.asarray(report["msd"])
        if len(msd_arr) >= 4 and dt > 0:
            report["diffusion_coefficient"] = diffusion_coefficient(msd_arr, dt)
    return report
