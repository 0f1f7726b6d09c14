"""One trajectory path, one potential protocol (PR 21).

The step loop writes ``.rtrj`` and nothing else; extended XYZ is a
conversion of that file, so it inherits crash-atomic kill-and-resume and
watchdog rollback instead of reimplementing (or, before this PR, losing)
them.  Every force evaluator answers ``prepare_neighbors`` itself — no
caller probes for it.
"""

import inspect
import json
from collections import deque

import numpy as np
import pytest

import repro.md
from repro.cli.md import resume_config, run_config
from repro.cli.traj import rtrj_to_xyz
from repro.config import EXAMPLE_CONFIG
from repro.data import water_unit_cell
from repro.md import (
    Cell,
    Simulation,
    System,
    filter_by_pair_cutoffs,
    neighbor_list,
    read_xyz,
)
from repro.models import AllegroConfig, AllegroModel, LennardJones
from repro.resilience import (
    POTENTIAL_CORRUPT,
    FaultPlan,
    FaultyPotential,
    ForceWatchdog,
)
from repro.traj import TrajectoryReader


def _lj_crystal(seed=7, n_side=4, a=1.7):
    rng = np.random.default_rng(seed)
    g = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1)
    system = System(
        g.reshape(-1, 3) * a + rng.normal(scale=0.02, size=(n_side**3, 3)),
        np.zeros(n_side**3, int),
        Cell.cubic(n_side * a),
        species_names=["Ar"],
    )
    system.seed_velocities(30.0, np.random.default_rng(8))
    return system, LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)


class TestOneTrajectorySink:
    """``Simulation._run_loop`` has exactly one place frames can go."""

    def test_no_recorder_anywhere(self):
        assert "recorder" not in inspect.signature(Simulation.__init__).parameters
        assert "recorder" not in inspect.signature(Simulation._init_loop).parameters
        assert not hasattr(repro.md, "TrajectoryRecorder")
        assert "TrajectoryRecorder" not in repro.md.__all__

    def test_run_loop_mentions_one_sink(self):
        source = inspect.getsource(Simulation._run_loop)
        assert source.count(".record(") == 1
        assert "writer.record(" in source
        assert "recorder" not in source and "xyz" not in source.lower()


class TestXYZIsAConversion:
    def _config(self, tmp_path, name, steps):
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["system"] = {"kind": "water", "n_grid": 3, "seed": 1}
        cfg["potential"] = {
            "kind": "lennard_jones", "cutoff": 3.0, "sigma": 0.8, "epsilon": 0.002,
        }
        cfg["md"].update(
            steps=steps,
            dt=0.25,
            checkpoint_dir=str(tmp_path / name / "ckpts"),
            checkpoint_every=20,
        )
        cfg["output"] = {"trajectory": str(tmp_path / name / "run.xyz"), "every": 10}
        (tmp_path / name).mkdir()
        return cfg

    def test_resume_does_not_lose_xyz_frames(self, tmp_path):
        """Run 40, resume 20 more: ``run.xyz`` holds all six frames of the
        uninterrupted 60-step run (the parent reopened it with mode "w" and
        kept only the two frames written after the resume)."""
        run_config(self._config(tmp_path, "whole", 60), quiet=True)
        run_config(self._config(tmp_path, "killed", 40), quiet=True)
        resume_config(tmp_path / "killed" / "ckpts", steps=20, quiet=True)

        whole, killed = tmp_path / "whole", tmp_path / "killed"
        ref, got = read_xyz(whole / "run.xyz"), read_xyz(killed / "run.xyz")
        assert len(ref) == len(got) == 6
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.velocities, b.velocities)
            np.testing.assert_array_equal(a.species, b.species)
            np.testing.assert_array_equal(a.cell.lengths, b.cell.lengths)
        assert (whole / "run.xyz").read_bytes() == (killed / "run.xyz").read_bytes()
        assert (whole / "run.rtrj").read_bytes() == (killed / "run.rtrj").read_bytes()

    def test_convert_after_watchdog_rollback(self, tmp_path):
        """The XYZ of a run that rolled back mid-way holds every dumped step
        once, equal to the reader's frames up to the text precision."""
        system, lj = _lj_crystal()
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [23]})
        sim = Simulation(
            system,
            FaultyPotential(lj, plan, mode="nan"),
            dt=0.2,
            watchdog=ForceWatchdog(policy="recover", spike_factor=None),
        )
        path = tmp_path / "run.rtrj"
        sim.run(
            40,
            checkpoint_every=10,
            checkpoint_dir=tmp_path / "ckpts",
            dump_every=4,
            dump_path=path,
        )
        assert sim.stats()["n_recoveries"] == 1
        assert rtrj_to_xyz(path, tmp_path / "run.xyz") == 10
        text = read_xyz(tmp_path / "run.xyz", ["Ar"])
        with TrajectoryReader(path) as reader:
            binary = list(reader.frames())
        assert [f.step for f in binary] == list(range(4, 41, 4))
        assert len(text) == len(binary)
        for a, b in zip(text, binary):
            assert np.abs(a.positions - b.positions).max() <= 1e-8
            assert np.abs(a.velocities - b.velocities).max() <= 1e-8
            np.testing.assert_array_equal(a.cell.lengths, b.cell_lengths)

    def test_run_holds_no_frame_list(self, tmp_path, monkeypatch):
        """A 200-step ``repro run`` dumping every 10 steps keeps O(1) frames:
        nothing reachable from the simulation holds the 20 dumped ones."""
        import repro.cli.md as cli_md

        built = []

        def build(cfg, **kw):
            built.append(rc_build(cfg, **kw))
            return built[-1]

        rc_build = cli_md.build_simulation
        monkeypatch.setattr(cli_md, "build_simulation", build)
        cfg = self._config(tmp_path, "long", 200)
        del cfg["md"]["checkpoint_dir"], cfg["md"]["checkpoint_every"]
        run_config(cfg, quiet=True)
        (sim,) = built
        n_atoms = sim.system.n_atoms
        assert len(read_xyz(tmp_path / "long" / "run.xyz")) == 20

        def is_frame(x):
            return isinstance(x, np.ndarray) and x.shape == (n_atoms, 3)

        seen, stack, worst = set(), [sim], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, dict):
                children = list(obj.values())
            elif isinstance(obj, (list, tuple, deque, set)):
                children = list(obj)
            elif hasattr(obj, "__dict__") and not inspect.ismodule(obj):
                children = list(vars(obj).values())
            else:
                continue
            worst = max(worst, sum(is_frame(c) for c in children))
            stack.extend(c for c in children if not isinstance(c, (np.ndarray, type)))
        # positions / velocities / forces / masses-shaped state, never 20.
        assert worst <= 4


class TestOnePotentialProtocol:
    """``prepare_neighbors`` through every evaluator is the list the parent
    built for it: ``neighbor_list`` at the model cutoff, pruned by the
    model's per-pair matrix for Allegro."""

    @staticmethod
    def _parent_list(model, system):
        nl = neighbor_list(system, model.cutoff)
        pc = getattr(model, "pair_cutoffs", None)
        if pc is not None and not np.allclose(pc, model.cutoff):
            nl = filter_by_pair_cutoffs(nl, system.positions, system.species, pc)
        return nl

    @pytest.mark.parametrize("which", ["water", "lj"])
    def test_every_evaluator_prepares_the_same_list(self, which):
        if which == "water":
            system = water_unit_cell(seed=1, n_grid=3)
            pair = np.full((4, 4), 3.0)  # species H, C, N, O
            pair[0, 0], pair[0, 3], pair[3, 0] = 2.0, 2.5, 2.25
            model = AllegroModel(
                AllegroConfig(
                    n_species=4, n_tensor=2, latent_dim=8, lmax=1, n_layers=1,
                    r_cut=3.0, per_pair_cutoffs=pair,
                )
            )
        else:
            system, model = _lj_crystal()
        ref = self._parent_list(model, system)
        assert ref.n_edges > 0
        evaluators = {
            "eager": model,
            "compiled": model.compile(),
            "faulty": FaultyPotential(model, FaultPlan()),
        }
        for name, ev in evaluators.items():
            nl = ev.prepare_neighbors(system)
            np.testing.assert_array_equal(nl.edge_index, ref.edge_index, err_msg=name)
            np.testing.assert_array_equal(nl.shifts, ref.shifts, err_msg=name)
            assert ev.cutoff == model.cutoff
        for name in ("compiled", "faulty"):
            got, want = evaluators[name].pair_cutoffs, model.pair_cutoffs
            assert (got is None and want is None) or np.array_equal(got, want)
        # With no list given, energy_and_forces builds that same one.
        e_ref, f_ref = model.energy_and_forces(system, ref)
        e, f = model.energy_and_forces(system)
        assert e == e_ref and np.array_equal(f, f_ref)
