"""Tests for the offline autotuner: space, search, targets, profiles, CLI."""

import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.cli.common import apply_profile_path
from repro.cli.tune import tune_config
from repro.config import (
    EXAMPLE_CONFIG,
    EXAMPLE_SERVE_CONFIG,
    build_potential,
    build_server,
    build_simulation,
    build_system,
)
from repro.obs.jsonio import SCHEMA_VERSION
from repro.parallel.topology import ProcessGrid
from repro.serve import ForceServer
from repro.tune import (
    MD_SPACE,
    SERVE_SPACE,
    Param,
    ParamSpace,
    TuningProfile,
    apply_profile,
    coordinate_descent,
    run_target,
    tune_md,
    tune_serve,
)
from repro.tune import targets
from repro.tune.targets import INFEASIBLE_SCORE

TINY_SERVE_CONFIG = {
    "potential": {"kind": "lennard_jones", "epsilon": 0.8, "sigma": 1.1, "cutoff": 3.0},
    "serve": {"engine": "compiled"},
    "workload": {
        "systems": [
            {"kind": "molecule", "n_heavy": 3},
            {"kind": "molecule", "n_heavy": 5},
        ],
        "n_requests": 12,
        "seed": 0,
    },
}


class TestParamSpace:
    def test_defaults_and_validation(self):
        space = ParamSpace(
            [Param("a", (1, 2, 3), 2), Param("b", (0.1, 0.2), 0.1)]
        )
        assert space.defaults() == {"a": 2, "b": 0.1}
        space.validate({"a": 3, "b": 0.2})
        with pytest.raises(ValueError):
            space.validate({"a": 4, "b": 0.1})
        with pytest.raises(ValueError):
            space.validate({"a": 1})

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Param("x", (), 1)
        with pytest.raises(ValueError):
            Param("x", (1, 1), 1)
        with pytest.raises(ValueError):
            Param("x", (1, 2), 3)

    def test_declared_spaces_are_valid(self):
        for space in (MD_SPACE, SERVE_SPACE):
            space.validate(space.defaults())


class TestCoordinateDescent:
    SPACE = ParamSpace(
        [Param("x", (0, 1, 2, 3), 0), Param("y", (0, 1, 2, 3), 0)]
    )

    def test_finds_separable_minimum(self):
        calls = []

        def evaluate(p):
            calls.append(dict(p))
            return (p["x"] - 2) ** 2 + (p["y"] - 3) ** 2, {}

        result = coordinate_descent(self.SPACE, evaluate)
        assert result.best == {"x": 2, "y": 3}
        assert result.best_score == 0
        # Cached: each configuration is evaluated exactly once.
        keys = [tuple(sorted(c.items())) for c in calls]
        assert len(keys) == len(set(keys))
        assert result.n_evaluations == len(calls)

    def test_ties_keep_current_value(self):
        # Objective indifferent to y: y must stay at its default.
        result = coordinate_descent(
            self.SPACE, lambda p: ((p["x"] - 1) ** 2, {})
        )
        assert result.best == {"x": 1, "y": 0}

    def test_deterministic_trial_table(self):
        def evaluate(p):
            return abs(p["x"] - 3) + 0.5 * abs(p["y"] - 1), {"m": p["x"]}

        r1 = coordinate_descent(self.SPACE, lambda p: (evaluate(p)[0], {}))
        r2 = coordinate_descent(self.SPACE, lambda p: (evaluate(p)[0], {}))
        assert [t.params for t in r1.trials] == [t.params for t in r2.trials]
        assert [t.score for t in r1.trials] == [t.score for t in r2.trials]

    def test_start_point_respected(self):
        result = coordinate_descent(
            self.SPACE, lambda p: (0.0, {}), start={"x": 3, "y": 2}
        )
        assert result.best == {"x": 3, "y": 2}  # flat objective: no move


class TestTargets:
    def test_serve_report_shape(self):
        rep = tune_serve(TINY_SERVE_CONFIG, seed=0, max_sweeps=1)
        assert rep["target"] == "serve"
        SERVE_SPACE.validate(rep["best"])
        assert rep["n_evaluations"] == len(rep["trials"])
        assert rep["workload"]["n_requests"] == 12
        scores = [t["score"] for t in rep["trials"]]
        assert scores == sorted(scores)
        assert rep["score"] == scores[0]

    def test_serve_profile_byte_identical_across_runs(self):
        def one():
            rep = tune_serve(TINY_SERVE_CONFIG, seed=0, max_sweeps=2)
            return TuningProfile.from_reports(
                [rep], provenance={"seed": 0}
            ).to_json()

        assert one() == one()

    def test_md_target_with_uncompilable_potential_runs_eager(self):
        # The quickstart EXAMPLE_CONFIG uses the reference potential, which
        # cannot be compiled; tune_md must fall back to the eager engine
        # (padding inert -> its candidates tie -> default kept) instead of
        # crashing on every trial.
        cfg = {
            # n_grid 3: the reference potential's 4.0 cutoff needs the
            # larger box to keep cutoff + skin under the L/2 bound for at
            # least the narrower skin candidates.
            "system": {"kind": "water", "n_grid": 3, "seed": 0},
            "potential": {"kind": "reference"},
            "md": {"steps": 2, "dt": 0.5, "seed": 0},
        }
        rep = tune_md(cfg, seed=0, steps=2, max_sweeps=1)
        MD_SPACE.validate(rep["best"])
        assert rep["best"]["padding"] == MD_SPACE.param("padding").default
        assert rep["score"] < INFEASIBLE_SCORE

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown tuning target"):
            run_target("gpu", None)

    def test_parallel_default_pick_is_feasible(self):
        # The built-in 81-atom box (L ≈ 9.3 Å) on 8 ranks: one model-ranked
        # grid has 2.33 Å bricks, below cutoff + skin.  It is scored, not
        # raised, and never picked.
        report = run_target("parallel")
        raw = targets._default_md_config(0)
        cell = build_system(raw["system"]).cell
        cutoff = build_potential(raw["potential"]).cutoff
        dims = tuple(report["best"]["grid"])
        ProcessGrid(dims, cell).validate_cutoff(cutoff + 0.3)
        assert report["score"] < INFEASIBLE_SCORE
        infeasible = [
            t for t in report["trials"] if "infeasible" in t["metrics"]
        ]
        assert infeasible, "the default workload has an infeasible top-k grid"
        for trial in infeasible:
            assert trial["score"] == INFEASIBLE_SCORE
            assert "below the cutoff" in trial["metrics"]["infeasible"]


class TestServeTrial:
    """A serve trial is one inline run of the real server stages."""

    @pytest.fixture
    def trials(self, monkeypatch):
        """Each trial's server and the (system, future) pairs it was given."""
        built = []

        def recording_build_server(*args, **kwargs):
            server = build_server(*args, **kwargs)
            submitted = []

            def submit(system, **kw):
                future = ForceServer.submit(server, system, **kw)
                submitted.append((system, future))
                return future

            server.submit = submit
            built.append((server, submitted))
            return server

        monkeypatch.setattr(targets, "build_server", recording_build_server)
        return built

    def test_every_request_resolves_bitwise_eager(self, trials):
        report = tune_serve(TINY_SERVE_CONFIG, max_sweeps=1)
        assert len(trials) == report["n_evaluations"]
        pot = build_potential(TINY_SERVE_CONFIG["potential"])
        for _, submitted in trials:
            assert len(submitted) == TINY_SERVE_CONFIG["workload"]["n_requests"]
            for system, future in submitted:
                e, f = future.result(timeout=0)
                e0, f0 = pot.energy_and_forces(system, pot.prepare_neighbors(system))
                assert e == e0
                np.testing.assert_array_equal(f, f0)

    def test_trial_metrics_are_the_servers_counters(self, trials):
        report = tune_serve(TINY_SERVE_CONFIG, max_sweeps=1)
        counted = {}
        for server, _ in trials:
            ladder = server.registry.get().plan_cache.atom_classes
            counters = server.stats()["counters"]
            counted[(server.batcher.max_batch, ladder.floor, ladder.growth)] = (
                counters["plan_captures"],
                counters["batches"],
            )
        for trial in report["trials"]:
            p, m = trial["params"], trial["metrics"]
            key = (p["max_batch"], p["plan_floor"], p["plan_growth"])
            assert (m["captures"], m["batches"]) == counted[key]
            assert m["captures"] >= 1

    def test_no_thread_is_spawned(self, monkeypatch):
        before = threading.active_count()
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        tune_serve(TINY_SERVE_CONFIG, max_sweeps=1)
        assert started == []
        assert threading.active_count() == before


class TestProfile:
    def _profile(self):
        rep = tune_serve(TINY_SERVE_CONFIG, seed=0, max_sweeps=1)
        return TuningProfile.from_reports(
            [rep], provenance={"seed": 0, "objective": "modeled"}
        )

    def test_roundtrip(self, tmp_path):
        profile = self._profile()
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = TuningProfile.load(path)
        assert loaded.best("serve") == profile.best("serve")
        assert loaded.to_json() == profile.to_json()

    def test_rejects_wrong_kind_and_version(self, tmp_path):
        with pytest.raises(ValueError, match="not a tuning profile"):
            TuningProfile.from_payload({"kind": "trace", "schema_version": 1})
        with pytest.raises(ValueError, match="schema_version"):
            TuningProfile.from_payload(
                {"kind": "tuning_profile", "schema_version": SCHEMA_VERSION + 1}
            )

    def test_apply_profile_writes_config_keys(self):
        profile = self._profile()
        cfg = apply_profile({"serve": {"engine": "compiled"}}, profile)
        best = profile.best("serve")
        for key in ("max_batch", "plan_floor", "plan_growth"):
            assert cfg["serve"][key] == best[key]
        assert cfg["serve"]["engine"] == "compiled"  # untouched keys survive
        assert "serve.max_batch" in cfg["_tuning"]["applied"]

    def test_apply_profile_md_and_parallel(self):
        profile = TuningProfile(
            {
                "md": {"best": {"skin": 0.7, "neighbor_every": 2, "padding": 0.1}},
                "parallel": {"best": {"grid": [2, 2, 1]}},
            }
        )
        cfg = apply_profile({}, profile)
        assert cfg["md"] == {"skin": 0.7, "neighbor_every": 2, "padding": 0.1}
        assert cfg["parallel"]["grid"] == [2, 2, 1]

    def test_apply_profile_unknown_target_rejected(self):
        profile = self._profile()
        with pytest.raises(ValueError, match="unknown profile targets"):
            apply_profile({}, profile, targets=["serve", "gpu"])
        # A saved profile naming a target this build does not tune (a typo,
        # or the retired ``engine`` target) fails to load instead of
        # silently applying nothing.
        for name in ("engine", "gpu"):
            payload = profile.to_payload()
            payload["targets"][name] = {"best": {"padding": 0.2}}
            with pytest.raises(
                ValueError, match=rf"unknown profile targets: \['{name}'\]"
            ):
                TuningProfile.from_payload(payload)

    def test_apply_order_md_overrides_engine_padding(self):
        # The compiled engine's padding is the md.padding key, and only the
        # md target writes it: a profile's md padding replaces the config's,
        # and a profile still carrying an ``engine`` padding is refused
        # rather than contending for the key.
        profile = TuningProfile({"md": {"best": {"skin": 0.2, "padding": 0.05}}})
        cfg = apply_profile({"md": {"padding": 0.3}}, profile)
        assert cfg["md"]["padding"] == 0.05
        assert cfg["_tuning"]["applied"].count("md.padding") == 1
        stale = TuningProfile(
            {
                "engine": {"best": {"padding": 0.3}},
                "md": {"best": {"skin": 0.2, "padding": 0.05}},
            }
        )
        with pytest.raises(ValueError, match=r"unknown profile targets: \['engine'\]"):
            apply_profile({}, stale)


class TestCLI:
    def test_tune_serve_cli_byte_identical(self, tmp_path, capsys):
        cfg_path = tmp_path / "serve.json"
        cfg_path.write_text(json.dumps(TINY_SERVE_CONFIG))
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        for out in (out1, out2):
            rc = main(
                [
                    "tune",
                    "--target",
                    "serve",
                    str(cfg_path),
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["kind"] == "tuning_profile"
        assert payload["provenance"]["targets"] == ["serve"]

    def test_tune_config_defaults_to_example(self, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        for out in (out1, out2):
            profile = tune_config(None, "md", out=out, steps=10, quiet=True)
        MD_SPACE.validate(profile.best("md"))
        assert out1.read_bytes() == out2.read_bytes()

    def test_tune_parallel_cli_without_config(self, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        for out in (out1, out2):
            rc = main(["tune", "--target", "parallel", "--out", str(out), "--quiet"])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["provenance"]["targets"] == ["parallel"]

    def test_run_with_profile_flag(self, tmp_path, capsys):
        profile = TuningProfile(
            {"md": {"best": {"skin": 0.2, "neighbor_every": 2, "padding": 0.1}}}
        )
        ppath = tmp_path / "profile.json"
        profile.save(ppath)
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["md"]["steps"] = 2
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(
            ["run", str(cfg_path), "--profile", str(ppath), "--quiet"]
        )
        assert rc == 0

    def test_apply_profile_path_none_is_identity(self):
        cfg = {"md": {"skin": 0.3}}
        assert apply_profile_path(cfg, None) is cfg

    def test_skin_validated_at_parse(self):
        cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
        cfg["md"]["skin"] = -0.1
        with pytest.raises(ValueError, match="md.skin must be >= 0"):
            build_simulation(cfg)
        cfg["md"]["skin"] = 0.4
        cfg["md"]["neighbor_every"] = 0
        with pytest.raises(ValueError, match="neighbor_every"):
            build_simulation(cfg)

    def test_example_configs_carry_tuning_knobs(self):
        assert EXAMPLE_CONFIG["md"]["skin"] >= 0
        assert isinstance(EXAMPLE_SERVE_CONFIG["serve"]["adaptive"], bool)


class TestSimulationKnobs:
    def test_neighbor_every_preserves_trajectory(self):
        # Cadence skips displacement *checks*; with a generous skin the
        # trajectory stays bitwise identical to per-step checking.
        def run(neighbor_every):
            cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
            cfg["md"]["steps"] = 10
            cfg["md"]["skin"] = 0.6
            cfg["md"]["neighbor_every"] = neighbor_every
            sim = build_simulation(cfg)
            sim.run(10)
            return sim.system.positions.copy()

        np.testing.assert_array_equal(run(1), run(4))
