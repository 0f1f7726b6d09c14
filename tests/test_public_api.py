"""The public API surface: README snippet works, exports resolve, docs exist."""

import importlib
import inspect

import numpy as np
import pytest

import repro


class TestReadmeSnippet:
    def test_minimal_pipeline(self):
        """The README's minimal API example, at smoke-test size."""
        from repro.data import label_frames, perturbed_water_frames
        from repro.md import LangevinThermostat, Simulation
        from repro.models import AllegroConfig, AllegroModel
        from repro.nn import TrainConfig, Trainer

        frames = label_frames(perturbed_water_frames(4, n_grid=3, sigma=0.04))
        model = AllegroModel(
            AllegroConfig(
                n_species=4,
                lmax=1,
                n_layers=1,
                n_tensor=2,
                latent_dim=8,
                two_body_hidden=(8,),
                latent_hidden=(8,),
                edge_energy_hidden=(4,),
                r_cut=3.0,
                avg_num_neighbors=10.0,
            )
        )
        Trainer(model, frames[:3], frames[3:], TrainConfig(lr=4e-3, batch_size=3)).fit(
            epochs=1
        )
        system = frames[0].system.copy()
        system.seed_velocities(300.0, np.random.default_rng(0))
        res = Simulation(
            system, model, dt=0.5, thermostat=LangevinThermostat(300.0)
        ).run(3)
        assert res.n_steps == 3
        assert np.isfinite(res.total_energies).all()


class TestExports:
    @pytest.mark.parametrize(
        "modname",
        [
            "repro.autodiff",
            "repro.equivariant",
            "repro.nn",
            "repro.models",
            "repro.md",
            "repro.parallel",
            "repro.perf",
            "repro.data",
            "repro.serve",
        ],
    )
    def test_all_exports_resolve(self, modname):
        mod = importlib.import_module(modname)
        assert hasattr(mod, "__all__")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{modname}.{name} in __all__ but missing"

    def test_package_lists_subpackages(self):
        for sub in repro.__all__:
            importlib.import_module(f"repro.{sub}")

    @pytest.mark.parametrize(
        "modname",
        [
            "repro.autodiff",
            "repro.equivariant",
            "repro.nn",
            "repro.models",
            "repro.md",
            "repro.parallel",
            "repro.perf",
            "repro.data",
            "repro.serve",
        ],
    )
    def test_public_items_documented(self, modname):
        """Every public class/function in __all__ carries a docstring."""
        mod = importlib.import_module(modname)
        undocumented = []
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{modname}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_module_docstrings(self):
        import pkgutil

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(info.name)
            if not (mod.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"


class TestImportFootprint:
    def test_importing_the_package_does_not_import_scipy_or_numpy_testing(self):
        """``scipy.linalg`` (pulled in for one ``block_diag``) dragged
        ``scipy._lib`` and ``numpy.testing`` into every process: ~30 MB of
        RSS and 0.15-0.4 s of start-up."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "import repro.models, repro.parallel, repro.serve, repro.nn\n"
            "import repro.traj, repro.engine\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] == 'scipy' or m.startswith('numpy.testing'))\n"
            "print(heavy)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
