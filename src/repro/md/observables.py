"""Observables: RMSD, RDF, temperature series, energy drift.

Fig. 4 of the paper monitors the backbone RMSD of solvated proteins and the
instantaneous temperature over nanoseconds of dynamics; these are the same
quantities computed here.  RMSD uses the standard Kabsch optimal-alignment
algorithm so rigid-body drift does not register as structural change.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def kabsch_align(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Optimal rotation of P onto Q (both centered); returns rotated P."""
    Pc = P - P.mean(axis=0)
    Qc = Q - Q.mean(axis=0)
    H = Pc.T @ Qc
    U, _S, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    return Pc @ R.T


def rmsd(positions: np.ndarray, reference: np.ndarray, align: bool = True) -> float:
    """Root mean squared deviation after optimal superposition (Å)."""
    P = np.asarray(positions, dtype=np.float64)
    Q = np.asarray(reference, dtype=np.float64)
    if P.shape != Q.shape:
        raise ValueError(f"shape mismatch {P.shape} vs {Q.shape}")
    if align:
        P = kabsch_align(P, Q)
        Q = Q - Q.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum((P - Q) ** 2, axis=1))))


def rdf_counts(
    distances: np.ndarray, n_atoms: int, volume: float, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One frame's pair histogram and its ideal-gas expectation per bin.

    ``distances`` are ordered-pair distances; both arrays are additive over
    frames, so a streaming fold sums them and normalizes once
    (:func:`rdf_normalize`).
    """
    hist, _ = np.histogram(distances, bins=edges)
    shell_vol = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    density = n_atoms / volume
    # ordered pairs: each of the n_atoms has density·shell expected neighbors
    return hist, density * shell_vol * n_atoms


def rdf_normalize(hist: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """g = observed / expected pair counts (0 where nothing is expected)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(expected > 0, hist / expected, 0.0)


def radial_distribution(
    distances: np.ndarray,
    n_atoms: int,
    volume: float,
    r_max: float,
    n_bins: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """g(r) from a flat array of pair distances (ordered pairs).

    Returns (bin centers, g values).  Used to choose the per-species-pair
    cutoffs the way the paper did ("chosen based on radial distribution
    functions of the HIV capsid starting structure", §VI-D).
    """
    edges = np.linspace(0.0, r_max, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, rdf_normalize(*rdf_counts(distances, n_atoms, volume, edges))


def energy_drift_per_atom(energies: Sequence[float], n_atoms: int) -> float:
    """|E_last − E_first| / N: the NVE conservation figure of merit (eV/atom)."""
    e = np.asarray(energies, dtype=np.float64)
    if len(e) < 2:
        return 0.0
    return float(abs(e[-1] - e[0]) / n_atoms)


class SeriesDrift:
    """Mean and least-squares slope of a series against its sample index.

    Running sums only, so a trajectory fold and an in-memory time series
    get the same fit: ``slope`` is K per recorded sample for a temperature
    series (0.0 below two samples).
    """

    def __init__(self, values: Sequence[float] = ()) -> None:
        self.n = 0
        self._y_sum = 0.0
        self._xy_sum = 0.0
        self._x_sum = 0.0
        self._x_sq_sum = 0.0
        for y in values:
            self.add(float(y))

    def add(self, y: float) -> None:
        x = float(self.n)
        self._y_sum += y
        self._xy_sum += x * y
        self._x_sum += x
        self._x_sq_sum += x * x
        self.n += 1

    @property
    def mean(self) -> float:
        return self._y_sum / self.n if self.n else 0.0

    @property
    def slope(self) -> float:
        n = self.n
        denom = n * self._x_sq_sum - self._x_sum**2
        if n < 2 or not denom:
            return 0.0
        return (n * self._xy_sum - self._x_sum * self._y_sum) / denom


def block_average(series: Sequence[float], block: int) -> np.ndarray:
    """Block-averaged series (noise reduction for T(t) plots)."""
    arr = np.asarray(series, dtype=np.float64)
    n = (len(arr) // block) * block
    if n == 0:
        return arr.copy()
    return arr[:n].reshape(-1, block).mean(axis=1)
