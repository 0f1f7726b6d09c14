"""repro.config: one owner of the run-config format.

The schema (sections, keys, defaults, validation) and the spec→object
builders live in :mod:`repro.config`; the CLI, the tuner and the chaos
workloads consume them.  These tests pin the properties that make that
true: strict loading, loss-free round trips, tuned knobs that are config
keys, a layering rule, and builders that produce what the CLI produced
when it translated dicts itself.
"""

import ast
import hashlib
import json
import re
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import config as rc
from repro.cli import main
from repro.cli.md import resume_config, run_config
from repro.data import random_molecule
from repro.health import HealthThresholds
from repro.serve import ForceServer, QoSPolicy
from repro.serve.plancache import PlanCache
from repro.tune import (
    MD_SPACE,
    SERVE_SPACE,
    TuningProfile,
    apply_profile,
)
from repro.tune.targets import _default_md_config

#: The sections ``repro.config`` defines, and the two it loads from next to
#: the code they configure (``serve.qos`` and ``serve.qos.health``).
SECTION_CLASSES = [
    obj
    for name, obj in vars(rc).items()
    if is_dataclass(obj) and obj.__module__ == rc.__name__
] + [QoSPolicy, HealthThresholds]

#: Instances away from the defaults, one per section class (plus the three
#: starter documents as whole configs).
INSTANCES = [
    rc.SystemSpec("water_box", seed=3, reps=2),
    rc.PotentialSpec("lennard_jones", epsilon=0.8, sigma=1.1, cutoff=3.0),
    rc.PotentialSpec(
        "allegro", config=rc.AllegroConfig(n_species=4, two_body_hidden=(8, 8))
    ),
    rc.MDConfig(steps=7, thermostat="berendsen", padding=None, checkpoint_dir="c"),
    rc.OutputConfig(trajectory="run.rtrj", every=3),
    rc.ServeConfig(max_batch=4, batch_wait=1.5e-3, qos=QoSPolicy(queue_bounds={"background": 9})),
    QoSPolicy(
        weights={"interactive": 5.0, "batch": 1.5, "background": 1.0},
        shed_admit_priority="batch",
        deadlines={"interactive": 0.1, "batch": None},
        health=HealthThresholds(queue_shedding=0.9, dwell_down=4),
    ),
    HealthThresholds(queue_degraded=0.5, hysteresis=0.7, dwell_up=2),
    rc.WorkloadConfig(
        n_requests=5,
        priority="batch",
        systems=(rc.SystemSpec("molecule", n_heavy=3), rc.SystemSpec("water")),
    ),
    rc.DataSpec("water", n_frames=6, val_fraction=0.25, max_force=9.0),
    rc.ModelSpec("classical", r_cut=3.0),
    rc.TrainRunConfig(epochs=2, grad_clip_norm=1.0, watchdog="recover"),
    rc.ParallelConfig(n_ranks=4, grid=(1, 2, 2)),
    rc.load_config(rc.EXAMPLE_CONFIG),
    rc.load_config(rc.EXAMPLE_SERVE_CONFIG),
    rc.load_config(rc.EXAMPLE_TRAIN_CONFIG),
]


class TestRoundTrip:
    def test_every_section_class_has_an_instance(self):
        assert {type(i) for i in INSTANCES} == set(SECTION_CLASSES)

    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: type(i).__name__)
    def test_load_asdict_is_identity(self, instance):
        cls = type(instance)
        assert rc.load(cls, asdict(instance)) == instance
        # ... and through real JSON (tuples become lists, ints stay ints).
        assert rc.load(cls, json.loads(json.dumps(asdict(instance)))) == instance

    @pytest.mark.parametrize("cls", SECTION_CLASSES, ids=lambda c: c.__name__)
    def test_defaults_round_trip(self, cls):
        required = {
            f.name: "x" for f in fields(cls) if f.name == "kind"
        }  # the only required field any section has
        instance = cls(**required)
        assert rc.load(cls, asdict(instance)) == instance


#: The three configs ISSUE 16 measured: the first two ran to completion
#: silently before repro.config existed; the third already raised.
TYPO_CONFIGS = [
    ({"md": {"skinn": -5.0, "neighbour_every": 0}}, "unknown md config keys"),
    ({"serve": {"max_batchh": 0}}, "unknown serve config keys"),
    # The error names the dotted section; the case keeps its original id.
    pytest.param({"serve": {"qos": {"weightss": {}}}}, "unknown serve.qos config keys",
                 id="config2-unknown qos config keys"),
    ({"serve": {"qos": {"health": {"p99_degraded_s": 0.1}}}},
     "unknown serve.qos.health config keys"),
]


class TestStrictLoading:
    @pytest.mark.parametrize("config, message", TYPO_CONFIGS)
    def test_typos_fail_loudly_with_the_valid_keys(self, config, message):
        with pytest.raises(ValueError, match=message) as err:
            rc.load_config(config)
        assert "expected [" in str(err.value)

    @pytest.mark.parametrize(
        "section",
        ["system", "potential", "md", "output", "serve", "workload", "data",
         "model", "train", "parallel"],
    )
    def test_unknown_key_rejected_in_every_section(self, section):
        with pytest.raises(ValueError, match=f"unknown {section} config keys"):
            rc.load_config({section: {"kind": "water", "no_such_key": 1}})

    def test_serve_timeout_key_rejected(self):
        # `deadline` is a request's only time budget: the per-server
        # queue-wait timeout is gone, and a config still naming it fails.
        with pytest.raises(ValueError, match="unknown serve config keys"):
            rc.load_config({"serve": {"timeout": 1.0}})

    def test_unknown_top_level_key_rejected_but_tuning_stamp_accepted(self):
        with pytest.raises(ValueError, match="unknown top-level config keys"):
            rc.load_config({"mdd": {}})
        assert rc.load_config({"_tuning": {"applied": []}}) == rc.RunConfig()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"md": {"skin": -0.1}}, "md.skin must be >= 0"),
            ({"md": {"neighbor_every": 0}}, "md.neighbor_every must be >= 1"),
            ({"serve": {"max_batch": 0}}, "serve.max_batch must be >= 1"),
            ({"workload": {"n_requests": 0}}, "workload.n_requests must be >= 1"),
            ({"data": {"kind": "water", "val_fraction": 1.0}}, "val_fraction"),
            ({"data": {"kind": "water", "val_fraction": -0.1}}, "val_fraction"),
        ],
    )
    def test_out_of_range_values_rejected(self, config, message):
        with pytest.raises(ValueError, match=message):
            rc.load_config(config)

    @pytest.mark.parametrize(
        "config",
        [
            {"md": {"steps": 2.5}},
            {"md": {"steps": True}},
            {"md": {"dt": "0.5"}},
            {"serve": {"adaptive": 1}},
            {"workload": {"systems": {"kind": "molecule"}}},
            {"md": []},
            {"system": {}},
        ],
    )
    def test_wrongly_typed_values_rejected(self, config):
        with pytest.raises(ValueError):
            rc.load_config(config)

    def test_values_are_coerced_to_the_field_type(self):
        cfg = rc.load_config(
            {"md": {"dt": 1, "steps": 10.0}, "parallel": {"grid": [2, 2, 1]}}
        )
        assert (cfg.md.dt, type(cfg.md.dt)) == (1.0, float)
        assert (cfg.md.steps, type(cfg.md.steps)) == (10, int)
        assert cfg.parallel.grid == (2, 2, 1)

    def test_missing_section_named_when_a_builder_needs_it(self):
        with pytest.raises(ValueError, match="system config must be a mapping, got None"):
            rc.build_simulation({"potential": {"kind": "reference"}})


class TestDocumentsLoad:
    """Everything the repo ships as a config loads strictly."""

    def test_starter_documents(self):
        for doc in (rc.EXAMPLE_CONFIG, rc.EXAMPLE_SERVE_CONFIG, rc.EXAMPLE_TRAIN_CONFIG):
            rc.load_config(doc)

    def test_ci_and_readme_snippets(self):
        # .github/workflows/ci.yml: the kernel-profile and binary-dump edits.
        profile = json.loads(json.dumps(rc.EXAMPLE_CONFIG))
        profile["potential"] = {"kind": "allegro", "config": {"n_species": 4}}
        profile["md"].update(engine="compiled", steps=20)
        assert rc.load_config(profile).potential.config.n_species == 4
        dump = json.loads(json.dumps(rc.EXAMPLE_CONFIG))
        dump["output"] = {"trajectory": "run.rtrj", "every": 5}
        assert rc.dump_args(rc.load_config(dump).output) == {
            "dump_path": "run.rtrj",
            "dump_every": 5,
        }
        # README: "md" with checkpoint_dir, "train" with checkpoint_dir.
        rc.load_config({"md": {"checkpoint_dir": "ckpts", "checkpoint_every": 100}})
        rc.load_config({"train": {"checkpoint_dir": "ckpts"}})

    def test_tune_built_in_default(self):
        cfg = rc.load_config(_default_md_config(seed=5))
        assert cfg.system.seed == cfg.md.seed == 5

    @pytest.mark.parametrize(
        "command, sha256",
        [
            ("example-config", "c1e3f209d906cd064a5fad872aeef0cb5e7849435bcc905a6983ea1ac431b795"),
            ("example-serve-config", "39e09407bf55234042ed8f931b69f29a71564e19a86c42396a681c728accf9b4"),
            ("example-train-config", "45631b9fa730b29f3a738b8f6c08a4000d6960d7b90ee32848c4dd25715a4ecb"),
        ],
    )
    def test_starter_documents_are_json_equal_to_the_pre_config_cli(
        self, command, sha256, capsys
    ):
        # The schema may grow; a starter document a user already has on disk
        # keeps meaning what it meant.  Hashes: canonical JSON of what
        # `cli.py` printed at the commit before `repro.config` existed.
        assert main([command]) == 0
        printed = json.loads(capsys.readouterr().out)
        canonical = json.dumps(printed, sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == sha256


class TestOneDefaultPerKey:
    def test_md_steps_has_one_fallback(self):
        # run/resume used 100, profile 50, tune_md 30.
        assert rc.load_config({}).md.steps == rc.MDConfig.steps == 100

    def test_train_defaults_are_the_trainers(self):
        from repro.nn import TrainConfig

        ours, theirs = rc.TrainRunConfig().trainer_config(), TrainConfig()
        for name in ("lr", "batch_size", "seed", "ema_decay", "data_policy"):
            assert getattr(ours, name) == getattr(theirs, name)

    def test_search_spaces_start_from_the_config_defaults(self):
        assert MD_SPACE.defaults() == {
            name: getattr(rc.MDConfig, name) for name in MD_SPACE.names
        }
        assert SERVE_SPACE.defaults() == {
            name: getattr(rc.ServeConfig, name) for name in SERVE_SPACE.names
        }


class TestProfilesWriteConfigKeys:
    @pytest.mark.parametrize(
        "space, section",
        [
            (MD_SPACE, rc.MDConfig),
            (SERVE_SPACE, rc.ServeConfig),
        ],
    )
    def test_every_tuned_knob_is_a_field_of_its_section(self, space, section):
        assert set(space.names) <= {f.name for f in fields(section)}

    def test_applied_profile_loads_strictly(self):
        profile = TuningProfile(
            {
                "md": {"best": MD_SPACE.defaults()},
                "serve": {"best": SERVE_SPACE.defaults()},
                "parallel": {"best": {"grid": [2, 2, 1]}},
            }
        )
        tuned = apply_profile(rc.EXAMPLE_SERVE_CONFIG, profile)
        assert tuned["_tuning"]["applied"] == (
            [f"md.{n}" for n in MD_SPACE.names]
            + [f"serve.{n}" for n in SERVE_SPACE.names]
            + ["parallel.grid"]
        )
        cfg = rc.load_config(tuned)
        assert cfg.parallel.grid == (2, 2, 1)
        assert cfg.serve.plan_floor == SERVE_SPACE.param("plan_floor").default


class TestLayering:
    def test_only_the_cli_imports_the_cli(self):
        """No module under src/repro/ outside cli/ imports repro.cli."""
        root = Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            rel = path.relative_to(root)
            if rel.parts[0] == "cli":
                continue
            # Package depth of this module, to resolve relative imports.
            package = ("repro",) + rel.parts[:-1]
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1] if node.level else ()
                    module = ".".join(base + ((node.module,) if node.module else ()))
                    names = [module] + [f"{module}.{a.name}" for a in node.names]
                else:
                    continue
                if any(n == "repro.cli" or n.startswith("repro.cli.") for n in names):
                    offenders.append(str(rel))
        assert offenders == []


class TestDesignLayout:
    def test_the_layout_tree_names_every_module(self):
        """DESIGN §6's tree lists each module under src/repro/ (packages'
        ``__init__``/``__main__`` aside), and no module that is gone."""
        root = Path(repro.__file__).parent
        design = (root.parents[1] / "DESIGN.md").read_text()
        tree = design.split("## 6. Repository layout", 1)[1].split("```")[1]
        named, package = set(), None
        for line in tree.splitlines():
            entry = re.match(r"  (\S+)", line)
            if entry and entry.group(1).endswith("/"):
                package = entry.group(1)
            elif entry:
                named.add(entry.group(1))
                package = None
                continue
            elif not line.startswith("   "):
                package = None
            if package:
                named.update(package + name for name in re.findall(r"\b\w+\.py\b", line))
        modules = {
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if path.name not in ("__init__.py", "__main__.py")
        }
        assert sorted(modules - named) == [], "modules missing from DESIGN §6"
        assert sorted(named - modules) == [], "DESIGN §6 names modules that are gone"


class TestBuildersMatchTheOldTranslation:
    """`request_stream` / `build_server` against the loops `cli.serve_config`
    hand-wrote before this module existed (kept here as the reference)."""

    def test_request_stream_is_bitwise_the_old_loop(self):
        workload = rc.EXAMPLE_SERVE_CONFIG["workload"]
        specs, seed = workload["systems"], workload["seed"]
        reference = []
        for k in range(workload["n_requests"]):
            spec = dict(specs[k % len(specs)])
            spec.setdefault("seed", seed + k)
            reference.append(random_molecule(n_heavy=spec["n_heavy"], seed=spec["seed"]))
        stream = rc.request_stream(rc.load_config(rc.EXAMPLE_SERVE_CONFIG).workload)
        assert len(stream) == len(reference) == 32
        for ours, theirs in zip(stream, reference):
            np.testing.assert_array_equal(ours.positions, theirs.positions)
            np.testing.assert_array_equal(ours.species, theirs.species)

    def test_pinned_spec_seed_wins_over_the_stream_seed(self):
        workload = rc.WorkloadConfig(
            n_requests=2, seed=40, systems=(rc.SystemSpec("molecule", seed=7),)
        )
        a, b = rc.request_stream(workload)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_build_server_has_the_old_server_attributes(self):
        serve = rc.EXAMPLE_SERVE_CONFIG["serve"]
        potential = rc.build_potential(rc.EXAMPLE_SERVE_CONFIG["potential"])
        old = ForceServer(
            potential,
            n_workers=int(serve.get("n_workers", 2)),
            max_queue=int(serve.get("max_queue", 64)),
            max_batch=int(serve.get("max_batch", 8)),
            batch_wait=float(serve.get("batch_wait", 2e-3)),
            adaptive=bool(serve.get("adaptive", True)),
            plan_cache_opts=None,
            engine=serve.get("engine", "compiled"),
            qos=QoSPolicy(
                **{**serve["qos"], "health": HealthThresholds(**serve["qos"]["health"])}
            ),
            start=False,
        )
        new = rc.build_server(
            rc.load_config(rc.EXAMPLE_SERVE_CONFIG).serve, potential, start=False
        )

        def view(server):
            ladders = PlanCache(potential, **server.registry._cache_opts)
            stats = server.stats()
            return {
                "engine": stats["engine"],
                "qos_stats": stats["qos"],
                "batcher": stats["batcher"],
                "health_stats": stats["health"],
                "max_queue": server.max_queue,
                "n_workers": server.n_workers,
                "max_batch": server.batcher.max_batch,
                "adaptive": server.batcher.adaptive,
                "qos": server.qos,
                "thresholds": server.health.thresholds,
                "stall_time": server.executor.stall_time,
                "drain_timeout": server.drain_timeout,
                "atom_ladder": (ladders.atom_classes.floor, ladders.atom_classes.growth),
                "pair_ladder": (ladders.pair_classes.floor, ladders.pair_classes.growth),
            }

        assert view(new) == view(old)
        assert view(new)["pair_ladder"] == (64, 1.5)

    def test_plan_ladder_rule(self):
        assert rc.ServeConfig(plan_floor=32, plan_growth=2.0).plan_cache_opts() == {
            "atom_floor": 32,
            "pair_floor": 128,
            "growth": 2.0,
        }


class TestPersistedConfigsResume:
    def test_config_with_tuning_stamp_and_grid_resumes(self, tmp_path):
        """A config.json an older run persisted after `--profile` carries
        `_tuning` and `parallel.grid`; it must still load and resume."""
        ckpts = tmp_path / "ckpts"
        config = json.loads(json.dumps(rc.EXAMPLE_CONFIG))
        config["potential"] = {"kind": "lennard_jones", "cutoff": 3.0}
        config["md"].update(
            steps=8, checkpoint_dir=str(ckpts), checkpoint_every=4, thermostat=None
        )
        config["parallel"] = {"grid": [1, 1, 2]}
        config["_tuning"] = {"applied": ["parallel.grid"]}
        full = run_config(config, quiet=True)
        assert json.loads((ckpts / "config.json").read_text()) == config
        newest = sorted(ckpts.glob("ckpt-*.ckpt"))[-1]
        newest.unlink()
        resumed = resume_config(ckpts, quiet=True)
        assert resumed.n_steps == 4
        np.testing.assert_array_equal(
            resumed.potential_energies[-1:], full.potential_energies[-1:]
        )
