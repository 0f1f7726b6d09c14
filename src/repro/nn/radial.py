"""Radial bases: trainable Bessel functions and the polynomial cutoff.

The interatomic distance enters Allegro through a trainable
per-ordered-species-pair basis of 8 Bessel functions multiplied by a
polynomial envelope (paper §VI-D).  The envelope also multiplies the
per-pair energies so the potential goes smoothly to zero at the cutoff —
required for energy conservation in MD.

:class:`PerPairBesselBasis` implements the per-*ordered*-species-pair
version with the per-pair cutoffs of §V-B4 (an H→C pair may use 1.25 Å
while C→H keeps 4.0 Å).
"""

from __future__ import annotations

import math

import numpy as np

from .. import autodiff as ad
from .module import Module


class PolynomialCutoff:
    """Smooth envelope u(x), x = r/r_c, with p−1 vanishing derivatives at 1.

    u(x) = 1 − ((p+1)(p+2)/2)·xᵖ + p(p+2)·xᵖ⁺¹ − (p(p+1)/2)·xᵖ⁺²; 0 for x ≥ 1.
    """

    def __init__(self, p: int = 6) -> None:
        if p < 2:
            raise ValueError("p must be >= 2")
        self.p = p
        self._c0 = (p + 1) * (p + 2) / 2.0
        self._c1 = p * (p + 2)
        self._c2 = p * (p + 1) / 2.0

    def __call__(self, x):
        x = ad.astensor(x)
        p = self.p
        poly = 1.0 - self._c0 * x**p + self._c1 * x ** (p + 1) - self._c2 * x ** (p + 2)
        # Recorded mask op (not a baked array) so compiled replay re-evaluates
        # the inside-cutoff condition on rebound distances.
        inside = ad.less(x, 1.0)
        return ad.where(inside, poly, ad.Tensor(np.zeros_like(poly.data)))

    def numpy(self, x: np.ndarray) -> np.ndarray:
        """u(x) as the fused pair kernels compute it (Horner form)."""
        return ad.kernels.envelope(np.minimum(x, 1.0), self.p)


class BesselBasis(Module):
    """b_n(r) = √(2/r_c) · sin(ω_n · r/r_c) / r with trainable ω_n.

    ω_n initialized at nπ (n = 1..num_basis).  Output is multiplied by the
    polynomial cutoff envelope; everything is smooth and differentiable so
    forces are exact.
    """

    def __init__(
        self,
        r_cut: float,
        num_basis: int = 8,
        trainable: bool = True,
        cutoff_p: int = 6,
    ) -> None:
        if r_cut <= 0:
            raise ValueError("r_cut must be positive")
        self.r_cut = float(r_cut)
        self.num_basis = int(num_basis)
        freqs = np.pi * np.arange(1, num_basis + 1, dtype=np.float64)
        self.frequencies = ad.Tensor(freqs, requires_grad=trainable, name="bessel.freqs")
        self.envelope = PolynomialCutoff(cutoff_p)
        self._prefactor = math.sqrt(2.0 / r_cut)

    def __call__(self, r):
        """r: [E] distances → [E, num_basis] basis values (envelope applied)."""
        r = ad.astensor(r)
        x = r * (1.0 / self.r_cut)
        arg = x.expand_dims(-1) * self.frequencies
        # sin(ω x)/x is bounded near 0; divide by x with safety epsilon.
        basis = ad.sin(arg) / (x.expand_dims(-1) + 1e-12)
        u = self.envelope(x).expand_dims(-1)
        return basis * u * (self._prefactor / self.r_cut)


class PerPairBesselBasis(Module):
    """Bessel basis with per-ordered-species-pair frequencies and cutoffs.

    Parameters
    ----------
    cutoffs:
        [S, S] matrix of ordered cutoffs r_c(Z_i → Z_j); asymmetric entries
        are allowed and are the point of §V-B4.
    num_basis:
        Basis size per pair (8 in the paper).

    Call with distances ``r`` [E] and the ordered species-pair index
    ``pair_idx`` [E] (= Z_i·S + Z_j); returns [E, num_basis].
    """

    def __init__(self, cutoffs: np.ndarray, num_basis: int = 8, cutoff_p: int = 6):
        cutoffs = np.asarray(cutoffs, dtype=np.float64)
        if cutoffs.ndim != 2 or cutoffs.shape[0] != cutoffs.shape[1]:
            raise ValueError("cutoffs must be a square [S, S] matrix")
        if (cutoffs <= 0).any():
            raise ValueError("all cutoffs must be positive")
        self.num_species = cutoffs.shape[0]
        self.cutoffs = cutoffs
        self.num_basis = int(num_basis)
        n_pairs = self.num_species**2
        freqs = np.tile(np.pi * np.arange(1, num_basis + 1, dtype=np.float64), (n_pairs, 1))
        self.frequencies = ad.Tensor(freqs, requires_grad=True, name="bessel.pair_freqs")
        self.envelope = PolynomialCutoff(cutoff_p)
        self._flat_cutoffs = cutoffs.reshape(-1)

    def __call__(self, r, pair_idx: np.ndarray):
        r = ad.astensor(r)
        pair_idx = np.asarray(pair_idx)
        # Traced gathers (not numpy fancy indexing) so a captured plan
        # follows the current pair indices when the buffers are rebound.
        rc = ad.gather(ad.Tensor(self._flat_cutoffs), pair_idx)  # [E]
        x = r / rc
        freqs = ad.gather(self.frequencies, pair_idx)  # [E, B]
        arg = x.expand_dims(-1) * freqs
        basis = ad.sin(arg) / (x.expand_dims(-1) + 1e-12)
        u = self.envelope(x).expand_dims(-1)
        pref = ad.sqrt(2.0 / rc) / rc
        return basis * u * pref.expand_dims(-1)

    def envelope_of(self, r, pair_idx: np.ndarray):
        """Just the per-pair envelope u(r / r_c(pair)); multiplies E_ij."""
        r = ad.astensor(r)
        rc = ad.gather(ad.Tensor(self._flat_cutoffs), np.asarray(pair_idx))
        return self.envelope(r / rc)
