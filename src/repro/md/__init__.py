"""Molecular dynamics engine: cells, systems, neighbor lists, integrators,
thermostats, observables, and the simulation driver.

The MD loop follows the LAMMPS structure the paper builds on: velocity
Verlet with per-step force calls into a :class:`~repro.models.base.Potential`,
a skin-buffered Verlet neighbor list rebuilt on demand, and thermostats for
NVT biomolecular runs (fig. 4 uses 300 K).
"""

from .cell import Cell
from .system import System, KB_EV, ACCEL_CONV, DEFAULT_MASSES
from .neighborlist import (
    NeighborList,
    VerletList,
    neighbor_list,
    filter_by_pair_cutoffs,
    ordered_pair_counts,
    triplet_list,
)
from .integrators import VelocityVerlet
from .thermostats import LangevinThermostat, BerendsenThermostat, NoseHooverThermostat
from .barostat import BerendsenBarostat, instantaneous_pressure
from .simulation import Simulation, MDResult
from .minimize import minimize, sample_md_frames, MinimizeResult
from .analysis import StabilityReport, diffusion_coefficient, stability_report
from .observables import rmsd, kabsch_align, radial_distribution, energy_drift_per_atom, block_average
from .trajectory import write_xyz_frame, read_xyz

__all__ = [
    "Cell",
    "System",
    "KB_EV",
    "ACCEL_CONV",
    "DEFAULT_MASSES",
    "NeighborList",
    "VerletList",
    "neighbor_list",
    "filter_by_pair_cutoffs",
    "ordered_pair_counts",
    "triplet_list",
    "VelocityVerlet",
    "LangevinThermostat",
    "BerendsenThermostat",
    "NoseHooverThermostat",
    "BerendsenBarostat",
    "instantaneous_pressure",
    "Simulation",
    "MDResult",
    "minimize",
    "sample_md_frames",
    "MinimizeResult",
    "StabilityReport",
    "diffusion_coefficient",
    "stability_report",
    "rmsd",
    "kabsch_align",
    "radial_distribution",
    "energy_drift_per_atom",
    "block_average",
    "write_xyz_frame",
    "read_xyz",
]
