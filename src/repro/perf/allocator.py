"""Caching-allocator simulation: the fig. 5 padding experiment.

The paper found that per-step fluctuations in the number of local atoms and
neighbor pairs change the shapes of the tensors fed to the TorchScript
model, causing PyTorch's caching allocator to free and re-allocate large
blocks ("large deallocations and allocations of memory by the internal
PyTorch memory handler whenever the shapes of the input tensors ... changed",
§V-C).  The fix pads the input arrays by 5% with fake atoms so shapes stay
constant until the padded capacity is exceeded.

:class:`CachingAllocator` models the allocator mechanism that produces this
behaviour: a free list of size-bucketed blocks under a memory cap; a
request served from cache is cheap, a cache miss pays a device-malloc, and
when the cap is hit the cache is flushed (the expensive synchronizing
``cudaFree`` storm the paper observed).  :func:`simulate_md_allocation`
drives it with a *measured* per-step pair-count series from a real MD run
and returns steps/s time series with and without padding — fig. 5's two
curves.

This module is a *simulation* of the mechanism with order-of-magnitude CUDA
costs.  The same effect is *measured* on this repo's own CPU allocator —
glibc page-faulting an eager force call's tape in on every call — and
removed by :mod:`repro.autodiff.arena` (DESIGN §20; EXPERIMENTS.md,
"Fig. 5 in miniature, measured").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


@dataclass
class AllocatorCosts:
    """Cost model in seconds (order-of-magnitude CUDA costs)."""

    cache_hit: float = 2.0e-6
    device_malloc: float = 1.0e-3
    flush: float = 2.0e-2


class CachingAllocator:
    """Size-bucketed caching allocator with a memory cap.

    Blocks are rounded up to ``granularity``; a freed block returns to the
    cache keyed by its rounded size.  A request is served from cache only
    by a block of exactly the rounded size (PyTorch splits large blocks,
    but for the large model-input tensors at issue here requests of a new
    size allocate fresh — which is precisely the churn the padding
    removes).
    """

    def __init__(
        self,
        capacity_bytes: float = 40e9,
        granularity: int = 512,
        buckets_per_octave: int = 64,
        costs: Optional[AllocatorCosts] = None,
    ) -> None:
        if capacity_bytes <= 0 or granularity <= 0:
            raise ValueError("capacity and granularity must be positive")
        self.capacity = float(capacity_bytes)
        self.granularity = int(granularity)
        self.buckets_per_octave = int(buckets_per_octave)
        self.costs = costs or AllocatorCosts()
        self._cache: Dict[int, int] = {}  # rounded size -> count of free blocks
        self._cached_bytes = 0
        self._active_bytes = 0
        self.n_hits = 0
        self.n_misses = 0
        self.n_flushes = 0

    def _round(self, size: int) -> int:
        """Round up with *relative* granularity (size-class bucketing).

        Large blocks quantize to size/buckets_per_octave (≈1–2% relative),
        matching how real caching allocators (PyTorch, jemalloc) make
        near-identical large requests land in the same size class while
        genuinely different shapes still miss.
        """
        size = max(int(size), 1)
        quantum = max(self.granularity, 1 << max(int(size).bit_length() - 1 - int(self.buckets_per_octave).bit_length() + 1, 0))
        return ((size + quantum - 1) // quantum) * quantum

    def malloc(self, size: int) -> Tuple[int, float]:
        """Allocate; returns (rounded size handle, time cost in seconds)."""
        r = self._round(size)
        if self._cache.get(r, 0) > 0:
            self._cache[r] -= 1
            self._cached_bytes -= r
            self._active_bytes += r
            self.n_hits += 1
            return r, self.costs.cache_hit
        cost = self.costs.device_malloc
        self.n_misses += 1
        if self._active_bytes + self._cached_bytes + r > self.capacity:
            # Out of room: flush the cache (cudaFree storm).
            self._cache.clear()
            self._cached_bytes = 0
            self.n_flushes += 1
            cost += self.costs.flush
        self._active_bytes += r
        return r, cost

    def free(self, handle: int) -> None:
        """Return a block to the cache (no device free)."""
        self._cache[handle] = self._cache.get(handle, 0) + 1
        self._cached_bytes += handle
        self._active_bytes -= handle


@dataclass
class PaddingPolicy:
    """The paper's 5% input padding (§V-C).

    Capacity only grows, in steps of ``fraction`` above the incoming
    requirement, so tensor shapes are piecewise constant.
    """

    fraction: float = 0.05
    _capacity: int = 0

    def padded_size(self, required: int) -> int:
        if required > self._capacity:
            self._capacity = int(np.ceil(required * (1.0 + self.fraction)))
        return self._capacity


def simulate_md_allocation(
    pair_counts: Sequence[int],
    bytes_per_pair: float = 4096.0,
    n_tensors: int = 8,
    base_step_time: float = 0.010,
    padding: Optional[float] = 0.05,
    capacity_bytes: float = 40e9,
    costs: Optional[AllocatorCosts] = None,
) -> np.ndarray:
    """Per-step throughput (steps/s) for an MD pair-count trace.

    Each step allocates ``n_tensors`` model-input/intermediate tensors
    whose sizes scale with the (padded) pair count, runs the model for
    ``base_step_time``, then frees them — the allocation pattern of the
    TorchScript Allegro call in pair_allegro.

    Returns an array of steps/s with the allocator overhead included;
    fig. 5 plots this with ``padding=None`` vs ``padding=0.05``.
    """
    alloc = CachingAllocator(capacity_bytes=capacity_bytes, costs=costs)
    pad = PaddingPolicy(padding) if padding is not None else None
    out = np.empty(len(pair_counts))
    for k, pairs in enumerate(pair_counts):
        eff_pairs = pad.padded_size(int(pairs)) if pad is not None else int(pairs)
        overhead = 0.0
        handles = []
        for t in range(n_tensors):
            # Distinct tensor roles have distinct sizes (different feature
            # widths), all proportional to the pair count.
            size = int(eff_pairs * bytes_per_pair * (0.25 + 0.25 * t))
            h, cost = alloc.malloc(size)
            handles.append(h)
            overhead += cost
        for h in handles:
            alloc.free(h)
        out[k] = 1.0 / (base_step_time + overhead)
    return out


def scale_pair_trace(
    pair_counts: Sequence[int],
    atoms_measured: int,
    atoms_target: int,
    smooth_window: int = 25,
) -> np.ndarray:
    """Rescale a measured pair-count trace to a larger per-GPU system size.

    The fig. 5 experiment runs at realistic per-GPU atom counts (tens of
    thousands), where the *relative* neighbor-count noise is far smaller
    than in the reduced cells measured here: counting statistics scale the
    fluctuation as 1/√N while the equilibration drift is intensive.  This
    helper decomposes the measured trace into drift (moving average) +
    noise, scales the mean by N_target/N_measured and the noise additionally
    by √(N_measured/N_target), preserving the drift shape.
    """
    p = np.asarray(pair_counts, dtype=np.float64)
    if atoms_measured <= 0 or atoms_target <= 0:
        raise ValueError("atom counts must be positive")
    if smooth_window < 1:
        raise ValueError("smooth_window must be >= 1")
    kernel = np.ones(smooth_window) / smooth_window
    pad = np.concatenate([np.full(smooth_window - 1, p[0]), p])
    drift = np.convolve(pad, kernel, mode="valid")
    noise = p - drift
    scale = atoms_target / atoms_measured
    noise_scale = scale * np.sqrt(atoms_measured / atoms_target)
    return drift * scale + noise * noise_scale
