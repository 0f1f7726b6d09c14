"""Performance emulation: mixed precision and the caching allocator.

* :mod:`precision` — bit-true emulation of the paper's mixed-precision
  schemes (Table IV): TF32 mantissa truncation on matmul inputs, float32
  weight/compute rounding, float64 final energy summation, plus an A100
  speed model for the relative-throughput row.
* :mod:`allocator` — a PyTorch-style caching-allocator simulator that
  reproduces the fig. 5 warmup instability and its elimination by the 5%
  input padding.
"""

from .precision import (
    PrecisionPolicy,
    POLICIES,
    apply_policy,
    truncate_tf32,
    round_f32,
    policy_speed_factor,
)
from .allocator import (
    AllocatorCosts,
    CachingAllocator,
    PaddingPolicy,
    scale_pair_trace,
    simulate_md_allocation,
)

__all__ = [
    "PrecisionPolicy",
    "POLICIES",
    "apply_policy",
    "truncate_tf32",
    "round_f32",
    "policy_speed_factor",
    "AllocatorCosts",
    "CachingAllocator",
    "PaddingPolicy",
    "scale_pair_trace",
    "simulate_md_allocation",
]
