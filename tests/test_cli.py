"""Tests for the command-line MD runner."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.cli.md import run_config
from repro.cli.serve import serve_config
from repro.cli.train import train_config
from repro.config import (
    EXAMPLE_CONFIG,
    EXAMPLE_SERVE_CONFIG,
    EXAMPLE_TRAIN_CONFIG,
    build_potential,
    build_system,
    build_training_frames,
    build_training_model,
)


class TestBuilders:
    def test_build_each_system_kind(self):
        assert build_system({"kind": "water", "n_grid": 2}).n_atoms == 24
        assert build_system({"kind": "water_box", "reps": 1}).n_atoms == 192
        assert build_system({"kind": "molecule", "n_heavy": 3}).n_atoms > 3
        assert build_system({"kind": "protein", "n_residues": 3}).n_atoms > 30

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            build_system({"kind": "quantum_computer"})
        with pytest.raises(ValueError):
            build_potential({"kind": "magic"})

    def test_build_reference_and_lj(self):
        assert build_potential({"kind": "reference"}).cutoff > 0
        lj = build_potential({"kind": "lennard_jones", "cutoff": 3.0})
        assert lj.cutoff == 3.0

    def test_build_allegro_with_checkpoint(self, tmp_path):
        cfg = {
            "n_species": 4,
            "n_tensor": 2,
            "latent_dim": 8,
            "two_body_hidden": [8],
            "latent_hidden": [8],
            "edge_energy_hidden": [4],
            "r_cut": 3.0,
            "avg_num_neighbors": 8.0,
        }
        m1 = build_potential({"kind": "allegro", "config": cfg})
        path = tmp_path / "ckpt.npz"
        np.savez(path, **m1.state_dict())
        m2 = build_potential(
            {"kind": "allegro", "config": cfg, "checkpoint": str(path)}
        )
        s = build_system({"kind": "molecule", "n_heavy": 3})
        e1, _ = m1.energy_and_forces(s)
        e2, _ = m2.energy_and_forces(s)
        assert e1 == e2


class TestRunConfig:
    def _config(self, **md_overrides):
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))  # deep copy
        cfg["system"] = {"kind": "water", "n_grid": 3, "seed": 1}
        cfg["md"].update({"steps": 5, "dt": 0.5}, **md_overrides)
        return cfg

    def test_langevin_run(self):
        result = run_config(self._config(), quiet=True)
        assert result.n_steps == 5
        assert np.isfinite(result.total_energies).all()

    def test_berendsen_and_nve(self):
        run_config(self._config(thermostat="berendsen"), quiet=True)
        run_config(self._config(thermostat=None), quiet=True)

    def test_minimize_first(self):
        result = run_config(self._config(minimize_first=True), quiet=True)
        assert np.isfinite(result.potential_energies).all()

    def test_unknown_thermostat(self):
        with pytest.raises(ValueError):
            run_config(self._config(thermostat="nose-hoover-42"), quiet=True)

    def test_trajectory_written(self, tmp_path):
        cfg = self._config()
        path = tmp_path / "out.xyz"
        cfg["output"] = {"trajectory": str(path), "every": 2}
        run_config(cfg, quiet=True)
        assert path.exists()
        assert path.read_text().startswith("81\n")


class TestServeConfig:
    def _config(self, **serve_overrides):
        cfg = json.loads(json.dumps(EXAMPLE_SERVE_CONFIG))  # deep copy
        cfg["workload"]["n_requests"] = 8
        cfg["serve"].update(serve_overrides)
        return cfg

    def test_serve_workload_runs(self):
        stats = serve_config(self._config(), quiet=True)
        assert stats["counters"]["requests_served"] == 8
        assert stats["requests_per_second"] > 0
        assert stats["engine"] == "compiled"
        # Everything completed: nothing shed, nothing expired.
        assert stats["counters"].get("requests_shed", 0) == 0
        assert stats["counters"].get("requests_expired", 0) == 0

    def test_serve_eager_engine(self):
        stats = serve_config(self._config(engine="eager"), quiet=True)
        assert stats["engine"] == "eager"
        assert stats["counters"]["requests_served"] == 8

    def test_serve_stats_json_written(self, tmp_path):
        path = tmp_path / "metrics.json"
        serve_config(self._config(), quiet=True, stats_json=path)
        payload = json.loads(path.read_text())
        assert payload["counters"]["requests_served"] == 8
        assert "latency_s" in payload["histograms"]


class TestTrainConfig:
    def _config(self, **train_overrides):
        cfg = json.loads(json.dumps(EXAMPLE_TRAIN_CONFIG))  # deep copy
        cfg["data"]["n_frames"] = 10
        cfg["train"].update({"epochs": 2, "batch_size": 4}, **train_overrides)
        return cfg

    def test_builders(self):
        assert build_training_model({"kind": "classical"}).cutoff > 0
        train, val = build_training_frames(
            {"kind": "conformations", "n_frames": 10, "val_fraction": 0.2}
        )
        assert len(train) == 8 and len(val) == 2
        with pytest.raises(ValueError):
            build_training_model({"kind": "magic"})
        with pytest.raises(ValueError):
            build_training_frames({"kind": "magic"})

    def test_train_runs_and_reports(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        trainer = train_config(self._config(), quiet=True, stats_json=stats_path)
        assert trainer.epochs_completed == 2
        payload = json.loads(stats_path.read_text())
        assert len(payload["history"]) == 2
        assert np.isfinite(payload["history"][-1]["train_loss"])

    def test_train_saves_model(self, tmp_path):
        path = tmp_path / "model.npz"
        trainer = train_config(
            self._config(save_model=str(path)), quiet=True
        )
        saved = dict(np.load(path))
        for key, value in trainer.model.state_dict().items():
            np.testing.assert_array_equal(saved[key], value)

    def test_kill_and_resume_is_bitwise(self, tmp_path):
        full = train_config(
            self._config(epochs=4, checkpoint_dir=str(tmp_path / "a")), quiet=True
        )
        ckpt = tmp_path / "b"
        train_config(
            self._config(epochs=2, checkpoint_dir=str(ckpt)), quiet=True
        )
        resumed = train_config(
            self._config(epochs=4, checkpoint_dir=str(ckpt)),
            resume=True,
            quiet=True,
        )
        assert [s.train_loss for s in full.history] == [
            s.train_loss for s in resumed.history
        ]
        for key, value in full.model.state_dict().items():
            np.testing.assert_array_equal(resumed.model.state_dict()[key], value)

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            train_config(self._config(), resume=True, quiet=True)

    def test_train_from_file(self, tmp_path, capsys):
        cfg = self._config()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", str(path), "--quiet"]) == 0


class TestMain:
    def test_example_config_roundtrip(self, capsys):
        assert main(["example-config"]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["system"]["kind"] == "water"

    def test_example_serve_config_roundtrip(self, capsys):
        assert main(["example-serve-config"]) == 0
        printed = capsys.readouterr().out
        assert "serve" in json.loads(printed)

    def test_example_train_config_roundtrip(self, capsys):
        assert main(["example-train-config"]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["model"]["kind"] == "classical"

    def test_run_from_file(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["system"] = {"kind": "water", "n_grid": 3}
        cfg["md"]["steps"] = 3
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "timesteps/s" in out

    def test_run_stats_json(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["system"] = {"kind": "water", "n_grid": 3}
        cfg["potential"] = {"kind": "lennard_jones", "cutoff": 3.0, "n_species": 4}
        cfg["md"].update({"steps": 3, "engine": "compiled"})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        stats_path = tmp_path / "stats.json"
        assert main(["run", str(cfg_path), "--stats-json", str(stats_path)]) == 0
        payload = json.loads(stats_path.read_text())
        assert payload["engine"] == "compiled"
        assert payload["n_steps"] == 3
        assert payload["engine_stats"]["n_captures"] >= 1

    def test_serve_from_file(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(EXAMPLE_SERVE_CONFIG))
        cfg["workload"]["n_requests"] = 6
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps(cfg))
        stats_path = tmp_path / "metrics.json"
        assert main(["serve", str(cfg_path), "--stats-json", str(stats_path)]) == 0
        out = capsys.readouterr().out
        assert "requests/s" in out
        assert json.loads(stats_path.read_text())["counters"]["requests_served"] == 6


class TestObservabilityCli:
    def _write_config(self, tmp_path, steps=4):
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["system"] = {"kind": "water", "n_grid": 3, "seed": 1}
        cfg["md"].update({"steps": steps, "dt": 0.5})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_trace_json_covers_md_phases(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        trace_path = tmp_path / "trace.json"
        assert main(["run", str(cfg_path), "--trace-json", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        assert doc["schema_version"] == 1
        phases = doc["phases"]
        # The acceptance tree: step spans with nested phase children.
        assert phases["md.step"]["count"] == 4
        for child in ("md.integrate", "md.force", "md.neighbor"):
            assert phases[f"md.step/{child}"]["count"] >= 1
        # The exported trace tree itself nests children under md.step.
        root = doc["traces"][-1]
        assert root["name"] == "md.step"
        assert {c["name"] for c in root["children"]} >= {
            "md.integrate",
            "md.force",
        }

    def test_run_trace_json_disabled_afterwards(self, tmp_path, capsys):
        from repro import obs

        cfg_path = self._write_config(tmp_path)
        assert main(
            ["run", str(cfg_path), "--trace-json", str(tmp_path / "t.json")]
        ) == 0
        assert not obs.enabled()

    def test_profile_prints_phase_table(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, steps=6)
        assert main(["profile", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "md.step" in out
        assert "share" in out
        assert "timesteps/s" in out

    def test_profile_compiled_prints_kernel_classes(self, tmp_path, capsys):
        """Third level under md.force: one plan replay by kernel class."""
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["system"] = {"kind": "water", "n_grid": 3, "seed": 1}
        cfg["potential"] = {"kind": "lennard_jones"}
        cfg["md"].update({"steps": 3, "dt": 0.5, "engine": "compiled"})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        stats_path = tmp_path / "stats.json"
        assert main(["profile", str(cfg_path), "--stats-json", str(stats_path)]) == 0
        out = capsys.readouterr().out
        assert "by kernel class" in out
        for cls in ("scatter_put", "elementwise", "alias_folded"):
            assert cls in out
        gauges = json.loads(stats_path.read_text())["gauges"]
        assert gauges["engine.kernel_seconds{class=scatter_put}"] > 0.0

    def test_profile_top_prints_the_most_expensive_steps(self, tmp_path, capsys):
        """``--top N``: per-step rows under the per-class table."""
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["system"] = {"kind": "water", "n_grid": 3, "seed": 1}
        cfg["potential"] = {"kind": "allegro", "config": {"n_species": 4, "lmax": 1}}
        cfg["md"].update({"steps": 2, "dt": 0.1, "engine": "compiled"})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["profile", str(cfg_path), "--top", "4"]) == 0
        out = capsys.readouterr().out
        head, _, table = out.partition("most expensive of")
        assert "by kernel class" in head and head.rstrip().endswith("the 4")
        rows = [line.split() for line in table.splitlines()[2:] if line.strip()]
        assert len(rows) == 4
        assert "einsum" in {r[1] for r in rows}  # a contraction, with its spec
        assert any("->" in r[2] for r in rows if r[1] == "einsum")
        # the time column sits left of the share column ("12.3%")
        micros = [float(r[[t.endswith("%") for t in r].index(True) - 1]) for r in rows]
        assert micros == sorted(micros, reverse=True) and micros[-1] > 0.0
        # without the flag the per-step table is not printed
        assert main(["profile", str(cfg_path)]) == 0
        assert "most expensive" not in capsys.readouterr().out

    def test_profile_steps_rows_add_up_to_the_class_table(self):
        import repro.autodiff as ad
        from repro.engine import capture
        from repro.engine.plan import KERNEL_CLASSES

        x = np.arange(24.0).reshape(4, 2, 3)
        w = np.linspace(-1.0, 1.0, 15).reshape(3, 5)

        def build():
            h = ad.einsum("zul,ld->zud", ad.Tensor(x), ad.Tensor(w))
            return (ad.sigmoid(h) * 2.0).sum(axis=1)

        _, plan = capture(build, inputs=[x])
        rows = plan.profile_steps(repeats=3)
        assert [r["step"] for r in rows] == list(range(plan.n_steps))
        assert [r["op"] for r in rows] == ["einsum", "sigmoid", "mul", "sum"]
        first = rows[0]
        assert first["spec"] == "zul,ld->zud" and first["class"] == "einsum"
        assert first["out_shape"] == (4, 2, 5)
        assert first["arg_shapes"] == ((4, 2, 3), (3, 5))
        assert rows[1]["spec"] == "" and rows[1]["class"] == "activation"
        assert all(r["seconds"] > 0.0 for r in rows)
        table = plan.profile(repeats=1)
        assert tuple(table) == KERNEL_CLASSES
        for cls in KERNEL_CLASSES:
            if cls != "alias_folded":
                assert table[cls]["steps"] == sum(r["class"] == cls for r in rows)
        with pytest.raises(ValueError):
            plan.profile_steps(0)

    def test_profile_writes_trace_and_stats(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, steps=3)
        trace_path = tmp_path / "trace.json"
        stats_path = tmp_path / "stats.json"
        assert main([
            "profile", str(cfg_path), "--steps", "5", "--quiet",
            "--trace-json", str(trace_path),
            "--stats-json", str(stats_path),
        ]) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["phases"]["md.step"]["count"] == 5  # --steps overrides
        stats = json.loads(stats_path.read_text())
        assert stats["schema_version"] == 1
        assert stats["counters"]["md.steps"] == 5
        assert stats["timesteps_per_second"] > 0

    def test_stats_json_deterministic_bytes(self, tmp_path):
        cfg = json.loads(json.dumps(EXAMPLE_SERVE_CONFIG))
        cfg["workload"]["n_requests"] = 4
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["serve", str(cfg_path), "--stats-json", str(a)]) == 0
        assert main(["serve", str(cfg_path), "--stats-json", str(b)]) == 0
        da = json.loads(a.read_bytes())
        db = json.loads(b.read_bytes())
        assert da["schema_version"] == db["schema_version"] == 1
        # Key order is sorted, so identical payloads give identical bytes.
        assert list(da["counters"]) == sorted(da["counters"])
        assert da["counters"] == db["counters"]
