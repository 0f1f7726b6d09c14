"""One description of a run: the config schema, its defaults, and its builders.

A run — MD, serving, training, tuning — is a JSON document (the role a
LAMMPS input script plays in the paper's workflow, §V-C), and this module
alone knows its *format*.  Each section is a frozen dataclass whose fields
*are* the JSON keys; the field comments carry meaning and units (lengths
Å, times fs, temperatures K, wall-clock seconds s) and every default is
written here once.  :func:`load` is the one loader: it coerces values to
the declared field types, recurses into nested sections and rejects
unknown keys naming the valid ones; range checks live in ``__post_init__``
so a section is valid however it was built.

``build_*`` turn sections into the library's objects by producing the
*existing* constructor keyword arguments — ``Simulation``, ``ForceServer``
and ``Trainer`` take no config object, so there is one construction path
and the library stays usable without this module.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import os
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import data, models
from .md import BerendsenThermostat, LangevinThermostat, Simulation
from .models import AllegroConfig
from .nn import TrainConfig
from .serve import ForceServer, QoSPolicy

# -- the section loader --------------------------------------------------------


def load(cls, raw, where: str = ""):
    """``raw`` (a JSON mapping) as an instance of the dataclass ``cls``.

    Values are coerced to the declared field types (nested dataclasses,
    tuples and mappings of them recurse), unknown keys raise ``ValueError``
    listing the valid ones, and an instance of ``cls`` passes through unchanged — so
    every builder accepts either the typed section or its JSON form.
    ``where`` is the section's dotted path, for error messages.
    """
    if isinstance(raw, cls):
        return raw
    name = where or "top-level"
    if not isinstance(raw, Mapping):
        raise ValueError(f"{name} config must be a mapping, got {raw!r}")
    hints = get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(
            f"unknown {name} config keys: {unknown} (expected {sorted(hints)})"
        )
    prefix = f"{where}." if where else ""
    try:
        return cls(**{k: _coerce(hints[k], v, prefix + k) for k, v in raw.items()})
    except TypeError as exc:  # a required key (``kind``) is absent
        raise ValueError(f"{name} config: {exc}") from None


def _coerce(tp, value, where: str):
    """``value`` as the field type ``tp``; ``ValueError`` when it cannot be."""
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
        return _coerce(tp, value, where)
    if dataclasses.is_dataclass(tp):
        return load(tp, value, where)
    if origin is tuple and isinstance(value, (list, tuple)):  # Tuple[X, ...]
        item = get_args(tp)[0]
        return tuple(_coerce(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is np.ndarray:
        return np.asarray(value, dtype=np.float64)
    if origin is collections.abc.Mapping and isinstance(value, Mapping):  # Mapping[K, V]
        key, item = get_args(tp)
        return {
            _coerce(key, k, where): _coerce(item, v, f"{where}.{k}")
            for k, v in value.items()
        }
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is float and is_number:
        return float(value)
    if tp is int and is_number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if tp in (bool, str) and isinstance(value, tp):
        return value
    if tp is str and isinstance(value, os.PathLike):  # a Python caller's Path
        return os.fspath(value)
    raise ValueError(f"{where} must be {getattr(tp, '__name__', tp)}, got {value!r}")


def _check_min(where: str, value, minimum) -> None:
    if value < minimum:
        raise ValueError(f"{where} must be >= {minimum} (got {value})")


# -- sections ------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """``system`` (and each ``workload.systems`` entry): what to simulate."""

    kind: str  # "water" | "water_box" | "molecule" | "protein"
    #: Generator seed.  None means 0 for a standalone system and
    #: ``workload.seed + k`` for the k-th request of a serving stream.
    seed: Optional[int] = None
    n_grid: int = 4  # water: molecules per box edge (3 * n_grid**3 atoms)
    reps: int = 1  # water_box: unit-cell replications per edge
    n_heavy: int = 6  # molecule: heavy-atom count
    n_residues: int = 4  # protein: chain length (solvated)


@dataclass(frozen=True)
class PotentialSpec:
    """``potential``: the force field driving MD or being served."""

    kind: str  # "reference" | "lennard_jones" | "allegro"
    epsilon: float = 0.01  # lennard_jones well depth, eV
    sigma: float = 2.0  # lennard_jones zero crossing, Å
    cutoff: float = 4.0  # lennard_jones cutoff, Å
    n_species: int = 4  # lennard_jones species table size
    config: Optional[AllegroConfig] = None  # allegro hyperparameters
    checkpoint: Optional[str] = None  # allegro weights (.npz) to load


@dataclass(frozen=True)
class MDConfig:
    """``md``: integration, thermostat, engine and checkpoint cadence."""

    steps: int = 100  # timesteps to integrate
    dt: float = 0.5  # timestep, fs
    temperature: float = 300.0  # initial velocities and thermostat target, K
    thermostat: Optional[str] = None  # "langevin" | "berendsen" | None (NVE)
    friction: float = 0.02  # langevin friction, 1/fs
    tau: float = 100.0  # berendsen coupling time, fs
    seed: int = 0  # velocity-initialisation and langevin noise seed
    minimize_first: bool = False  # relax the structure before integrating
    minimize_steps: int = 100  # iteration cap of that relaxation
    engine: str = "eager"  # "eager" | "compiled" (capture once, replay)
    skin: float = 0.4  # Verlet buffer radius added to the cutoff, Å
    neighbor_every: int = 1  # check for a neighbor rebuild every N steps
    #: Compiled-engine capacity headroom (fraction); None captures exact-fit.
    padding: Optional[float] = 0.05
    checkpoint_dir: Optional[str] = None  # where verified snapshots go
    #: Snapshot interval in steps (None: ``Simulation``'s own default).
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        _check_min("md.skin", self.skin, 0)
        _check_min("md.neighbor_every", self.neighbor_every, 1)


@dataclass(frozen=True)
class OutputConfig:
    """``output``: the trajectory dump."""

    #: Dump path; None, no file.  The run always dumps the binary ``.rtrj``
    #: store (:mod:`repro.traj`: synchronous, crash-atomic, appended on
    #: resume); any other suffix names the extended-XYZ conversion of the
    #: sibling ``.rtrj``, written when the run or the resume completes.
    trajectory: Optional[str] = None
    every: int = 10  # dump interval, steps


@dataclass(frozen=True)
class ServeConfig:
    """``serve``: the :class:`~repro.serve.ForceServer` knobs."""

    n_workers: int = 2  # worker threads
    max_queue: int = 64  # admission bound, requests
    max_batch: int = 8  # structures coalesced per batch
    batch_wait: float = 2e-3  # coalescing window, s
    adaptive: bool = True  # shrink the window when the queue is idle
    engine: str = "compiled"  # "compiled" | "eager"
    plan_floor: int = 16  # smallest atom size class of the plan ladder
    plan_growth: float = 1.5  # geometric growth of the ladder's classes
    #: Admission policy (:class:`repro.serve.QoSPolicy`, the health
    #: thresholds nested under its ``health`` key); a server given one
    #: enforces it.  None: the health monitor only observes.
    qos: Optional[QoSPolicy] = None

    def __post_init__(self) -> None:
        _check_min("serve.max_batch", self.max_batch, 1)

    def plan_cache_opts(self) -> dict:
        """The plan-cache size ladders: the pair ladder starts at four times
        the atom ladder's floor (a structure has a few neighbors per atom)."""
        return {
            "atom_floor": self.plan_floor,
            "pair_floor": 4 * self.plan_floor,
            "growth": self.plan_growth,
        }


@dataclass(frozen=True)
class WorkloadConfig:
    """``workload``: the synthetic request stream ``serve`` is driven with."""

    n_requests: int = 32  # stream length
    seed: int = 0  # request k gets system seed ``seed + k``
    priority: Optional[str] = None  # QoS class every request carries
    deadline_s: Optional[float] = None  # per-request deadline, s
    #: System specs the stream cycles through.
    systems: Tuple[SystemSpec, ...] = (SystemSpec("molecule", n_heavy=4),)

    def __post_init__(self) -> None:
        _check_min("workload.n_requests", self.n_requests, 1)
        _check_min("the number of workload.systems", len(self.systems), 1)


@dataclass(frozen=True)
class DataSpec:
    """``data``: the synthetic labeled dataset ``train`` fits."""

    kind: str  # "conformations" | "water"
    n_frames: int = 20  # frames generated (before the validation split)
    seed: int = 0  # generator and split seed
    sigma: float = 0.06  # Gaussian position perturbation, Å
    n_heavy: int = 4  # conformations: heavy atoms of the base molecule
    n_grid: int = 2  # water: molecules per box edge
    max_force: Optional[float] = None  # drop frames with a larger |F|, eV/Å
    val_fraction: float = 0.0  # share of frames held out for validation

    def __post_init__(self) -> None:
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(
                f"data.val_fraction must be in [0, 1) (got {self.val_fraction})"
            )


@dataclass(frozen=True)
class ModelSpec:
    """``model``: the trainable potential."""

    kind: str  # "classical" | "allegro"
    n_species: int = 4  # classical species table size
    r_cut: float = 3.5  # classical cutoff, Å
    config: Optional[AllegroConfig] = None  # allegro hyperparameters
    checkpoint: Optional[str] = None  # allegro weights (.npz) to start from


@dataclass(frozen=True)
class TrainRunConfig:
    """``train``: one training run; the optimiser keys share their defaults
    with the :class:`repro.nn.TrainConfig` that :meth:`trainer_config` builds."""

    epochs: int = 5  # total epoch budget (a resumed run finishes it)
    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size
    seed: int = TrainConfig.seed
    ema_decay: float = TrainConfig.ema_decay
    grad_clip_norm: Optional[float] = TrainConfig.grad_clip_norm
    data_policy: str = TrainConfig.data_policy  # "reject" | "quarantine" | "off"
    watchdog: Optional[str] = None  # "abort" | "recover" | None (unguarded)
    checkpoint_dir: Optional[str] = None  # where training snapshots go
    checkpoint_every: Optional[int] = None  # snapshot interval, epochs
    save_model: Optional[str] = None  # write the final weights (.npz) here

    def trainer_config(self) -> TrainConfig:
        return TrainConfig(
            lr=self.lr,
            batch_size=self.batch_size,
            max_epochs=self.epochs,
            ema_decay=self.ema_decay,
            seed=self.seed,
            grad_clip_norm=self.grad_clip_norm,
            data_policy=self.data_policy,
        )


@dataclass(frozen=True)
class ParallelConfig:
    """``parallel``: the decomposition ``tune --target parallel`` searches.

    ``grid`` is that target's recorded pick: a profile writes it, and no
    builder reads it (``ParallelSimulation`` always builds
    ``ProcessGrid.create(n_ranks, cell)``).
    """

    n_ranks: int = 8  # ranks whose factorisations are ranked
    grid: Optional[Tuple[int, ...]] = None  # the parallel target's recorded pick


@dataclass(frozen=True)
class RunConfig:
    """A whole config document.  Each subcommand reads the sections it needs;
    ``system``/``potential``/``data``/``model`` have no default, and the
    builder that needs an absent one says so."""

    system: Optional[SystemSpec] = None
    potential: Optional[PotentialSpec] = None
    md: MDConfig = MDConfig()
    output: OutputConfig = OutputConfig()
    serve: ServeConfig = ServeConfig()
    workload: WorkloadConfig = WorkloadConfig()
    data: Optional[DataSpec] = None
    model: Optional[ModelSpec] = None
    train: TrainRunConfig = TrainRunConfig()
    parallel: ParallelConfig = ParallelConfig()


def load_config(config) -> RunConfig:
    """A config document as a validated :class:`RunConfig`.

    ``_tuning`` — the provenance stamp :func:`repro.tune.apply_profile`
    leaves at the top level — is not configuration and is ignored.
    """
    if isinstance(config, Mapping):
        config = {k: v for k, v in config.items() if k != "_tuning"}
    return load(RunConfig, config)


# -- builders ------------------------------------------------------------------


def build_system(spec):
    spec = load(SystemSpec, spec, "system")
    seed = spec.seed or 0
    if spec.kind == "water":
        return data.water_unit_cell(seed=seed, n_grid=spec.n_grid)
    if spec.kind == "water_box":
        return data.water_box(reps=spec.reps, seed=seed)
    if spec.kind == "molecule":
        return data.random_molecule(n_heavy=spec.n_heavy, seed=seed)
    if spec.kind == "protein":
        return data.solvated_protein(n_residues=spec.n_residues, seed=seed).system
    raise ValueError(f"unknown system kind {spec.kind!r}")


def _build_allegro(config: Optional[AllegroConfig], checkpoint: Optional[str]):
    model = models.AllegroModel(config if config is not None else AllegroConfig())
    if checkpoint:
        model.load_state_dict(dict(np.load(checkpoint)))
    return model


def build_potential(spec):
    spec = load(PotentialSpec, spec, "potential")
    if spec.kind == "reference":
        return data.ReferencePotential()
    if spec.kind == "lennard_jones":
        return models.LennardJones(
            epsilon=spec.epsilon,
            sigma=spec.sigma,
            cutoff=spec.cutoff,
            n_species=spec.n_species,
        )
    if spec.kind == "allegro":
        return _build_allegro(spec.config, spec.checkpoint)
    raise ValueError(f"unknown potential kind {spec.kind!r}")


def build_thermostat(md: MDConfig):
    """The configured thermostat instance (or None)."""
    if md.thermostat == "langevin":
        return LangevinThermostat(md.temperature, friction=md.friction, seed=md.seed)
    if md.thermostat == "berendsen":
        return BerendsenThermostat(md.temperature, tau=md.tau)
    if md.thermostat is None:
        return None
    raise ValueError(f"unknown thermostat {md.thermostat!r}")


def dump_args(output: OutputConfig) -> dict:
    """``dump_path``/``dump_every`` kwargs for ``Simulation.run``.  The step
    loop only ever writes ``.rtrj``: a trajectory named otherwise dumps the
    sibling ``.rtrj`` and is converted from it afterwards."""
    if output.trajectory is None:
        return {}
    return {
        "dump_path": os.path.splitext(output.trajectory)[0] + ".rtrj",
        "dump_every": output.every,
    }


def build_simulation(config, registry=None) -> Simulation:
    """The configured :class:`~repro.md.Simulation`.

    No minimization or velocity seeding happens here — ``run`` does both
    before integrating, ``resume`` overwrites all dynamic state from the
    checkpoint anyway — so a resumed simulation is structurally identical
    to the original.  ``registry`` routes the simulation's (and compiled
    engine's) counters into a shared :class:`repro.obs.Registry` tree.
    """
    config = load_config(config)
    md = config.md
    return Simulation(
        build_system(config.system),
        build_potential(config.potential),
        dt=md.dt,
        thermostat=build_thermostat(md),
        skin=md.skin,
        engine=md.engine,
        registry=registry,
        neighbor_every=md.neighbor_every,
        padding=md.padding,
    )


def request_stream(workload: WorkloadConfig) -> list:
    """The seeded request stream: ``systems`` cycled, request k seeded
    ``workload.seed + k`` unless its spec pins a seed."""
    systems = []
    for k in range(workload.n_requests):
        spec = workload.systems[k % len(workload.systems)]
        if spec.seed is None:
            spec = replace(spec, seed=workload.seed + k)
        systems.append(build_system(spec))
    return systems


def build_server(serve: ServeConfig, potential, **runtime) -> ForceServer:
    """A :class:`~repro.serve.ForceServer` for ``potential`` (or a model
    registry) from a ``serve`` section; ``runtime`` carries the constructor
    arguments that are not configuration (``metrics``, ``fault_plan``, ...)."""
    return ForceServer(
        potential,
        n_workers=serve.n_workers,
        max_queue=serve.max_queue,
        max_batch=serve.max_batch,
        batch_wait=serve.batch_wait,
        adaptive=serve.adaptive,
        plan_cache_opts=serve.plan_cache_opts(),
        engine=serve.engine,
        qos=serve.qos,
        **runtime,
    )


def build_training_model(spec):
    """A trainable model from a ``model`` section."""
    spec = load(ModelSpec, spec, "model")
    if spec.kind == "classical":
        return models.ClassicalForceField(
            models.ClassicalConfig(n_species=spec.n_species, r_cut=spec.r_cut)
        )
    if spec.kind == "allegro":
        return _build_allegro(spec.config, spec.checkpoint)
    raise ValueError(f"unknown trainable model kind {spec.kind!r} (allegro|classical)")


def build_training_frames(spec):
    """``(train_frames, val_frames)`` from a ``data`` section."""
    spec = load(DataSpec, spec, "data")
    if spec.kind == "conformations":
        systems = data.conformation_dataset(
            spec.n_frames, n_heavy=spec.n_heavy, seed=spec.seed, sigma=spec.sigma
        )
    elif spec.kind == "water":
        systems = data.perturbed_water_frames(
            spec.n_frames, seed=spec.seed, sigma=spec.sigma, n_grid=spec.n_grid
        )
    else:
        raise ValueError(f"unknown data kind {spec.kind!r} (conformations|water)")
    frames = data.label_frames(systems, max_force=spec.max_force)
    if spec.val_fraction > 0.0:
        return data.split_frames(
            frames,
            fractions=(1.0 - spec.val_fraction, spec.val_fraction),
            seed=spec.seed,
        )
    return frames, []


# -- starter documents (the ``example-*-config`` subcommands print them) -------

EXAMPLE_CONFIG = {
    "system": {"kind": "water", "n_grid": 3, "seed": 0},
    "potential": {"kind": "reference"},
    "md": {
        "steps": 50,
        "dt": 0.5,
        "temperature": 300.0,
        "thermostat": "langevin",
        "friction": 0.02,
        "seed": 0,
        "minimize_first": False,
        "skin": 0.4,
    },
    "output": {"trajectory": None, "every": 10},
}

EXAMPLE_SERVE_CONFIG = {
    "potential": {"kind": "lennard_jones", "epsilon": 0.8, "sigma": 1.1, "cutoff": 3.0},
    "serve": {
        "n_workers": 2,
        "max_batch": 8,
        "max_queue": 64,
        "batch_wait": 0.002,
        "adaptive": True,
        "engine": "compiled",
        "qos": {
            "weights": {"interactive": 4, "batch": 2, "background": 1},
            "queue_bounds": {"batch": 64, "background": 16},
            "shed_admit_priority": "interactive",
            "default_priority": "batch",
            "deadlines": {"interactive": 0.25},
            "health": {
                "queue_degraded": 0.75,
                "queue_shedding": 0.95,
                "hysteresis": 0.6,
                "dwell_up": 3,
                "dwell_down": 12,
            },
        },
    },
    "workload": {
        "n_requests": 32,
        "seed": 0,
        "priority": None,
        "deadline_s": None,
        "systems": [
            {"kind": "molecule", "n_heavy": 3},
            {"kind": "molecule", "n_heavy": 4},
            {"kind": "molecule", "n_heavy": 5},
        ],
    },
}

EXAMPLE_TRAIN_CONFIG = {
    "data": {
        "kind": "conformations",
        "n_frames": 20,
        "n_heavy": 4,
        "seed": 11,
        "sigma": 0.06,
        "val_fraction": 0.2,
    },
    "model": {"kind": "classical", "n_species": 4, "r_cut": 3.5},
    "train": {
        "epochs": 5,
        "lr": 1e-2,
        "batch_size": 8,
        "seed": 0,
        "checkpoint_dir": None,
        "checkpoint_every": 1,
        "save_model": None,
    },
}
