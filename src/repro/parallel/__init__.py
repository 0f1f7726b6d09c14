"""Spatial domain decomposition over a virtual cluster.

This package replaces LAMMPS + MPI on Perlmutter (see DESIGN.md).  It
implements the same parallelization the paper relies on:

* :mod:`topology` — a LAMMPS-style 3D process grid (surface-minimizing
  factorization of the rank count over the box).
* :mod:`comm` — an in-process virtual communicator that routes numpy
  payloads between ranks and accounts every message and byte, so
  communication volume is measured, not guessed.
* :mod:`decomposition` — ghost-atom (halo) exchange via the standard
  6-direction staged protocol, atom migration, and per-rank neighbor
  lists.  Because Allegro is strictly local with per-*center* ordered
  pairs, each rank computes exactly the edges whose center it owns and
  reverse-communicates ghost forces — the decomposition is *exact*
  (validated against the serial driver to floating-point accumulation
  order).
* :mod:`driver` — the multi-rank MD loop (forward position exchange per
  step, reverse force exchange, migration at reneighboring).
* :mod:`workers` — ranks 1…R−1 on persistent forked processes over shared
  memory, evaluating at the same time as rank 0 in the driver.
* :mod:`perfmodel` — the calibrated analytic performance model of an
  A100-GPU cluster used to regenerate the paper-scale scaling curves
  (fig. 6, fig. 7, Table III) from measured work statistics.
"""

from .topology import ProcessGrid
from .loadbalance import BalancedProcessGrid
from .comm import VirtualCluster, CommStats, CommError
from .decomposition import DomainDecomposition, RankShard
from .driver import ParallelForceEvaluator, ParallelSimulation
from .workers import RankFailure
from .perfmodel import (
    ClusterSpec,
    PerfModel,
    strong_scaling_curve,
    weak_scaling_curve,
)

__all__ = [
    "ProcessGrid",
    "BalancedProcessGrid",
    "VirtualCluster",
    "CommStats",
    "CommError",
    "DomainDecomposition",
    "RankShard",
    "ParallelForceEvaluator",
    "ParallelSimulation",
    "RankFailure",
    "ClusterSpec",
    "PerfModel",
    "strong_scaling_curve",
    "weak_scaling_curve",
]
