"""The four end-to-end workloads, driven through public entry points only.

Every workload takes its inputs from ``seed`` alone (the program receives
only the generated structures), does its set-up including warm-up ops in
``setup()``, runs equal ``segment()``s of the measured phase, and checks its
own outputs in ``gate()``.  ``scale`` shrinks segment sizes for the harness
self-test; the pipeline always runs at 1.

Why these four, and which layer each one loads, is in ``declare.WORKLOADS``
and README.md.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import declare
import loadgen
import stats

_clock = time.perf_counter


@dataclass
class Seg:
    """One equal segment of a measured phase."""

    ok: int
    failed: int
    wall: float
    cpu: float
    latencies_ms: list = field(default_factory=list)
    #: machine speed during the segment relative to the workload's probe
    #: reference (mean of the probes right before and after it)
    speed: float = 1.0


@dataclass
class Measurement:
    #: segments ``ops_per_s`` / ``cpu_ms_per_op`` are medians over
    rate_segments: list
    #: segments the latency percentiles are taken from
    latency_segments: list
    attempted: int = 0
    failed: int = 0
    #: same workload with the wrappers uninstalled, for the tracing overhead
    untraced_rate_segments: list = field(default_factory=list)
    #: wall seconds inside traced root spans (what span self times must cover)
    traced_wall: float = 0.0
    extra: dict = field(default_factory=dict)


def rate(segments) -> float:
    """Median ops per wall second at reference machine speed."""
    return stats.quartiles([s.ok / s.wall / s.speed for s in segments])[1]


def timed_ms(fn, n: int = 20) -> float:
    """Median wall milliseconds of ``n`` direct calls (after one warm-up)."""
    fn()
    samples = []
    for _ in range(n):
        t0 = _clock()
        fn()
        samples.append((_clock() - t0) * 1e3)
    return stats.percentile(samples, 50)


class Workload:
    name = ""
    #: name of the root span a traced run opens around each segment
    root_span = "md.step_loop"
    #: (rows, reference iterations/s) of the machine-speed probe: the array
    #: length the workload's hot loop works on (edges per force call), and
    #: the kernel's rate at that length on the pipeline box — see calibrate.py
    PROBE = (2000, 1150.0)
    #: run the whole process on one CPU (child.py pins it before set-up); for
    #: a workload with more runnable threads than the box has cores to spare
    ONE_CPU = False

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.scale = float(scale)
        #: set-up facts the parent compares across same-seed processes
        self.setup_info: dict = {}
        #: set by child.py in a traced run, so spans of one op share an id
        self.tracer = None

    def scaled(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def probe(self):
        """The machine-speed probe of this workload."""
        return calibrate.Probe(*self.PROBE)

    def next_op(self) -> None:
        """An op (step, epoch) just ended: later spans belong to the next."""
        if self.tracer is not None:
            self.tracer.op += 1

    def md_segment(self, run, n_steps: int) -> Seg:
        """``run(n_steps)`` as one segment; ``self.stamps`` gets one clock
        reading per finished step, which gives the per-step latencies."""
        del self.stamps[:]
        c0, t0 = time.process_time(), _clock()
        result = run(n_steps)
        wall, cpu = _clock() - t0, time.process_time() - c0
        finite = int(np.isfinite(result.potential_energies).sum())
        edges = [t0] + self.stamps
        return Seg(
            ok=finite, failed=n_steps - finite, wall=wall, cpu=cpu,
            latencies_ms=[(b - a) * 1e3 for a, b in zip(edges, edges[1:])],
        )

    # -- the protocol ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def segment(self) -> Seg:
        raise NotImplementedError

    def gate(self) -> list:
        """``[(check name, passed, detail)]``, run after the timed phase."""
        raise NotImplementedError

    def counts(self) -> dict:
        """Per-layer counts from the program's public ``stats()``."""
        return {}

    def micro(self) -> dict:
        """Per-layer numbers from direct timed calls (traced run only)."""
        return {}

    def traced_metrics(self, m, spans, strict: bool, seconds: float) -> dict:
        """Per-layer numbers only this workload can derive from its spans."""
        return {}

    def close(self) -> None:
        pass

    def measure(self, seconds: float, tracer=None, hooks=None) -> Measurement:
        """Run equal segments for ``seconds`` (at least four).

        The machine-speed probe runs between segments, so each segment knows
        the speed on both of its sides.  With a tracer, segments come in
        traced/untraced pairs — each kind gets ``seconds / 3`` — so the
        overhead estimate sees the same drift on both sides; only traced
        segments feed the per-layer numbers.
        """
        m = Measurement(rate_segments=[], latency_segments=[])
        speed = calibrate.Bracket(self.probe())

        def timed_segment(traced: bool) -> Seg:
            if traced:
                tracer.install(hooks)
                with tracer.span(self.root_span):
                    seg = self.segment()
                tracer.uninstall()
                m.traced_wall += seg.wall
            else:
                seg = self.segment()
            seg.speed = speed()
            return seg

        if tracer is None:
            # on a box much slower than the one the run length was chosen on,
            # run on until the tail percentile has its samples
            need = stats.samples_needed(declare.WORKLOADS[self.name][1])
            have = 0
            t_end = _clock() + seconds
            while (_clock() < t_end or len(m.rate_segments) < 4
                   or (self.scale >= 1.0 and have < need)):
                m.rate_segments.append(timed_segment(False))
                have += len(m.rate_segments[-1].latencies_ms)
        else:
            sides = (m.rate_segments, m.untraced_rate_segments)
            spent = [0.0, 0.0]
            # which of a pair goes first is random: periodic work (a rebuild
            # every N steps) must not always land on the same side
            order = random.Random(self.seed)
            while min(spent) < seconds / 3 or len(sides[1]) < 2:
                for side in order.sample((0, 1), 2):
                    sides[side].append(timed_segment(traced=side == 0))
                    spent[side] += sides[side][-1].wall
        m.latency_segments = m.rate_segments
        for seg in m.rate_segments + m.untraced_rate_segments:
            m.attempted += seg.ok + seg.failed
            m.failed += seg.failed
        return m


# ---------------------------------------------------------------------------
# water_md
# ---------------------------------------------------------------------------


def small_allegro():
    """``benchmarks/conftest.small_allegro_config`` values, copied not imported.

    The weights are configuration, not input: their seed is fixed, so the
    workload seed only moves the structures, velocities and thermostat noise.
    """
    from repro.models import AllegroConfig, AllegroModel

    return AllegroModel(
        AllegroConfig(
            n_species=4, lmax=2, n_tensor=4, n_layers=2, latent_dim=24,
            two_body_hidden=(24,), latent_hidden=(32,), edge_energy_hidden=(16,),
            r_cut=3.5, avg_num_neighbors=14.0, seed=0,
        )
    )


def checkpoint_counts(manager) -> dict:
    latest = manager.latest_path()
    return {
        "resilience.checkpoint.count": manager.n_saved,
        "resilience.checkpoint.bytes": latest.stat().st_size if latest else 0,
    }


def eager_micro(potential, system, nl, skin: float) -> dict:
    """Direct timed calls into the eager layers on the workload's own edges."""
    from repro import autodiff as ad
    from repro.md import neighbor_list

    backward_ms = []

    def forward_backward():
        pos = ad.Tensor(system.positions, requires_grad=True)
        e = potential.atomic_energies(pos, system.species, nl).sum()
        t0 = _clock()
        e.backward()
        backward_ms.append((_clock() - t0) * 1e3)

    timed_ms(forward_backward)
    return {
        "models.eager_force.p50_ms": timed_ms(
            lambda: potential.energy_and_forces(system, nl)),
        "autodiff.backward.p50_ms": stats.percentile(backward_ms[1:], 50),
        "md.neighbor.build_ms": timed_ms(
            lambda: neighbor_list(system, potential.cutoff + skin)),
    }


def allegro_micro(model, system, skin: float) -> dict:
    """``eager_micro`` plus the two equivariant kernels Allegro spends its time in."""
    from repro import autodiff as ad
    from repro.equivariant import spherical_harmonics

    nl = model.prepare_neighbors(system)
    disp = nl.displacements(system.positions)
    cfg = model.config
    rng = np.random.default_rng(0)
    x = rng.normal(size=(nl.n_edges, cfg.n_tensor, model.layouts[0].dim))
    y = rng.normal(size=(nl.n_edges, cfg.n_tensor, model.env_layout.dim))
    out = eager_micro(model, system, nl, skin)
    out["equivariant.sh.p50_ms"] = timed_ms(
        lambda: spherical_harmonics(cfg.lmax, ad.Tensor(disp, requires_grad=True)))
    out["equivariant.tp.p50_ms"] = timed_ms(
        lambda: model.tps[0](
            ad.Tensor(x, requires_grad=True), ad.Tensor(y, requires_grad=True)))
    return out


class WaterMD(Workload):
    name = "water_md"
    PROBE = (2000, 1150.0)  # ~1950 edges per force call
    SEGMENT_STEPS = 50  # one checkpoint per segment, five dumped frames
    DUMP_EVERY = 10
    WARMUP_STEPS = 20
    SKIN = 0.4
    # Untrained weights give forces of tens of eV/A: the cell heats to 10^4 K
    # within 300 steps, pair counts climb 60 % and the plan re-captures ten
    # times, differently for every seed.  Scaling the per-species output (the
    # knob Trainer sets from the force RMS) to thermal size keeps 300 K, a
    # steady ~1950 pairs and the same arithmetic per step.
    OUTPUT_SCALE = 0.02
    # The lattice start relaxes by ~3 % more pairs; 10 % headroom (paper: 5 %)
    # keeps whether a re-capture happens from depending on the seed.
    PADDING = 0.10

    def setup(self) -> None:
        from repro.data import perturbed_water_frames
        from repro.md import LangevinThermostat, Simulation
        from repro.resilience import CheckpointManager
        from repro.traj import TrajectoryWriter

        t0 = _clock()
        system = perturbed_water_frames(1, seed=self.seed, sigma=0.05, n_grid=3)[0]
        system.seed_velocities(300.0, np.random.default_rng(self.seed))
        self.setup_info["data.generate_s"] = _clock() - t0
        self.model = small_allegro()
        self.model.scale_shift.scales.data[:] = self.OUTPUT_SCALE
        self.compiled = self.model.compile(padding=self.PADDING)
        self.sim = Simulation(
            system, self.compiled, dt=0.5, skin=self.SKIN,
            thermostat=LangevinThermostat(300.0, friction=0.01, seed=self.seed),
        )
        self.traj_path = self.workdir / "water.rtrj"
        self.writer = TrajectoryWriter(self.traj_path, system=system)
        self.manager = CheckpointManager(self.workdir / "water-ckpt")
        self.stamps: list = []

        def step_done(step, sim) -> None:
            self.stamps.append(_clock())
            self.next_op()

        self.sim.add_callback(step_done)
        self.steps = self.scaled(self.SEGMENT_STEPS)
        self._run(self.scaled(self.WARMUP_STEPS))  # first capture happens here

    def _run(self, n_steps: int):
        return self.sim.run(
            n_steps, dump_every=self.DUMP_EVERY, dump_writer=self.writer,
            checkpoint_every=self.steps, checkpoint_manager=self.manager,
        )

    def segment(self) -> Seg:
        return self.md_segment(self._run, self.steps)

    def gate(self) -> list:
        from repro.traj import TrajectoryReader

        system = self.sim.system
        nl = self.model.prepare_neighbors(system)
        e_c, f_c = self.compiled.energy_and_forces(system, nl)
        e_e, f_e = self.model.energy_and_forces(system, nl)
        bitwise = e_c == e_e and np.array_equal(f_c, f_e)
        self.writer.close()
        with TrajectoryReader(self.traj_path) as reader:
            report = reader.verify()
        expect = self.sim.step_count // self.DUMP_EVERY
        return [
            ("compiled == eager (bitwise)", bool(bitwise),
             f"|dE|={abs(e_c - e_e):.3g} max|dF|={np.abs(f_c - f_e).max():.3g}"),
            ("rtrj frame count", report["frames_readable"] == expect,
             f"{report['frames_readable']} readable, {expect} expected"),
            ("rtrj no quarantine",
             report["frames_quarantined"] == 0 and not report["torn_tail"],
             f"{report['frames_quarantined']} quarantined"),
        ]

    def counts(self) -> dict:
        sim = self.sim.stats()["counters"]
        traj = self.writer.stats()
        return {
            "md.pairs_per_step": sim["md.pairs"] / max(sim["md.steps"], 1),
            "traj.frames_durable": traj["frames_durable"],
            "traj.frames_dropped": traj["frames_dropped"],
            "traj.bytes_per_frame": traj["bytes"] / max(traj["frames_durable"], 1),
            **checkpoint_counts(self.manager),
        }

    def micro(self) -> dict:
        return allegro_micro(self.model, self.sim.system, self.SKIN)

    def close(self) -> None:
        self.writer.close()


# ---------------------------------------------------------------------------
# allegro_train
# ---------------------------------------------------------------------------


class AllegroTrain(Workload):
    name = "allegro_train"
    root_span = "nn.fit"
    PROBE = (4000, 585.0)  # a batch of two frames: ~3900 edges
    # One fit(epochs=1) call is the op whose latency is reported, and p75
    # needs forty of them in a run, so an epoch is kept small: one batch of
    # two 81-atom frames, one validation frame, one checkpoint.  The ratio of
    # validation to training frames (1:2) is that of a usual 8+4 split.
    N_TRAIN = 2
    N_VAL = 1
    BATCH = 2
    SEGMENT_EPOCHS = 4
    WARMUP_EPOCHS = 2  # the first epoch was measured 2x slower

    def setup(self) -> None:
        from repro.data import label_frames, perturbed_water_frames
        from repro.nn import TrainConfig, Trainer
        from repro.resilience import CheckpointManager

        t0 = _clock()
        systems = perturbed_water_frames(
            self.N_TRAIN + self.N_VAL, seed=self.seed, sigma=0.05, n_grid=3)
        self.setup_info["data.generate_s"] = _clock() - t0
        t0 = _clock()
        frames = label_frames(systems)
        self.setup_info["data.label_frames_s"] = _clock() - t0
        self.model = small_allegro()
        self.trainer = Trainer(
            self.model, frames[: self.N_TRAIN], frames[self.N_TRAIN:],
            TrainConfig(lr=5e-3, batch_size=self.BATCH, seed=self.seed),
        )
        self.manager = CheckpointManager(self.workdir / "train-ckpt")
        self.epochs = self.scaled(self.SEGMENT_EPOCHS)
        for _ in range(self.WARMUP_EPOCHS):
            self.trainer.fit(epochs=1, checkpoint_manager=self.manager)
        # exact decimal repr: the parent compares these across processes
        self.setup_info["warmup_losses"] = [
            repr(h.train_loss) for h in self.trainer.history]

    def segment(self) -> Seg:
        latencies = []
        skipped0 = self.trainer.stats()["n_skipped_batches"]
        c0, t0 = time.process_time(), _clock()
        for _ in range(self.epochs):
            t = _clock()
            self.trainer.fit(epochs=1, checkpoint_manager=self.manager)
            latencies.append((_clock() - t) * 1e3)
            self.next_op()
        wall, cpu = _clock() - t0, time.process_time() - c0
        lost = (self.trainer.stats()["n_skipped_batches"] - skipped0) * self.BATCH
        frames = self.epochs * self.N_TRAIN
        return Seg(ok=frames - lost, failed=lost, wall=wall, cpu=cpu,
                   latencies_ms=latencies)

    def gate(self) -> list:
        losses = [h.train_loss for h in self.trainer.history]
        return [
            ("loss finite", bool(np.isfinite(losses).all()), f"last={losses[-1]:.6g}"),
            ("loss below epoch 0", losses[-1] < losses[0],
             f"epoch0={losses[0]:.6g} last={losses[-1]:.6g}"),
        ]

    def counts(self) -> dict:
        s = self.trainer.stats()
        per_epoch = -(-self.N_TRAIN // self.BATCH)
        return {
            "nn.batches": s["epochs_completed"] * per_epoch - s["n_skipped_batches"],
            "nn.skipped_batches": s["n_skipped_batches"],
            "nn.rollbacks": s["n_rollbacks"],
            "nn.final_train_loss": self.trainer.history[-1].train_loss,
            **checkpoint_counts(self.manager),
        }

    def micro(self) -> dict:
        return allegro_micro(self.model, self.trainer.train_frames[0].system, 0.0)


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServeMixed(Workload):
    name = "serve_mixed"
    root_span = "serve.phase"
    # Two workers and the generator are three runnable threads that pass one
    # interpreter lock around.  Spread over the box's two vCPUs every hand-off
    # crosses cores: the closed loop then ran at 1.6-2.0 k req/s, and at
    # 2.4 k when a neighbour's load happened to confine the threads, against
    # 3.5 k on one CPU with 0.29 instead of 0.61 ms CPU a request -- that
    # number is the scheduler's.  On one CPU it is the program's.
    ONE_CPU = True
    # The server's time goes to bytecode, so its probe is the interpreter
    # kernel (iterations/s on the pipeline box in a typical state).  Only the
    # closed-loop rate and CPU cost are expressed at reference speed: open-loop
    # latency at a quarter of capacity is mostly the batching window, it
    # barely follows the machine (spread 3.5 % raw, 10-18 % once scaled).
    PROBE_REFERENCE = 42000.0
    # Admission never refuses: a stall of the box (or of the generator, which
    # then catches up in one burst) becomes latency, not failed requests.  At
    # the top rate 16384 slots hold ~6 s of arrivals; the default-sized 256
    # overflowed after a 0.2-0.5 s stall and failed the run.
    MAX_QUEUE = 16384
    N_STRUCTURES = 256
    # Room for every size class the stream touches (~25; the default 8 thrash:
    # ~12 % of batches re-captured a plan, 0.5-2 % of open-loop requests sat
    # behind a capture, and the p99 flipped between 5 and 22 ms run to run).
    MAX_PLANS = 32
    BOX = 9.0  # > 2 * cutoff; sites on a 1.5 A lattice, 10-60 of 216 occupied
    # One round is an open-loop slice then a closed-loop slice, the speed
    # probe between slices (the server is idle then).  Slices are short: the
    # box changes speed within seconds, and a probe says the less about a
    # slice the longer the slice is.  The open loop gets the larger share:
    # its percentiles are taken per slice.
    N_ROUNDS = 10
    TRACED_ROUNDS = 5  # five phases in 8 s: the pooled p99s need the samples
    SAMPLED_PER_SLICE = 2  # >= 16 served results a run go through the gate
    SHARES = {"lo": 0.55, "closed": 0.45}
    # the traced run adds the two higher rates (per-layer numbers only) and
    # an untraced closed-loop slice for the tracing overhead
    TRACED_SHARES = {"lo": 0.32, "hi": 0.2, "top": 0.14, "closed": 0.17,
                     "closed_untraced": 0.17}
    RATES = {"lo": declare.RATE_LO, "hi": declare.RATE_HI, "top": declare.RATE_TOP}

    def setup(self) -> None:
        from repro.md import Cell, System
        from repro.models import LennardJones
        from repro.serve import Client, ForceServer

        t0 = _clock()
        rng = np.random.default_rng(self.seed)
        a = 1.5
        side = int(self.BOX / a)
        sites = a * np.stack(
            np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        self.systems = []
        for _ in range(self.N_STRUCTURES):
            n = int(rng.integers(10, 61))
            idx = rng.choice(len(sites), size=n, replace=False)
            self.systems.append(System(
                sites[idx] + rng.normal(scale=0.05, size=(n, 3)),
                rng.integers(0, 2, size=n),
                Cell.cubic(self.BOX),
            ))
        self.rng = rng
        self.setup_info["data.generate_s"] = _clock() - t0
        self.potential = LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        self.server = ForceServer(
            self.potential, engine="compiled", n_workers=2, max_batch=8,
            max_queue=self.MAX_QUEUE,
            plan_cache_opts={"max_plans": self.MAX_PLANS},
        )
        self.client = Client(self.server)
        self.next_request = 0
        self.kept: dict = {}
        #: phase -> {"sent", "ok", "failed", "backlog_growth"} summed over slices
        self.phases: dict = {}
        for _ in range(2):  # captures + size-class discovery
            self.client.evaluate_many(self.systems)

    def probe(self):
        return calibrate.InterpreterProbe(self.PROBE_REFERENCE)

    def submit(self, k: int):
        if self.tracer is not None:
            self.tracer.op = k
        return self.client.submit(self.systems[k % self.N_STRUCTURES])

    def slice(self, phase: str, seconds: float) -> loadgen.Segment:
        """One slice of ``phase`` load; a few of its results kept for the gate."""
        first = self.next_request
        picks = self.rng.choice(200, size=self.SAMPLED_PER_SLICE, replace=False)
        keep = {first + int(k) for k in picks}
        depth0 = self.server.stats()["batcher"]["pending"]
        if phase in self.RATES:
            seg, kept = loadgen.open_loop(
                self.submit, first, self.RATES[phase], seconds, keep)
        else:
            seg, kept = loadgen.closed_loop(
                self.submit, first, declare.CLOSED_LOOP_PERMITS, seconds, keep)
        self.next_request += seg.sent
        self.kept.update(kept)
        tally = self.phases.setdefault(
            phase, {"sent": 0, "ok": 0, "failed": 0, "backlog_growth": 0})
        tally["sent"] += seg.sent
        tally["ok"] += seg.ok + seg.late_ok
        tally["failed"] += seg.failed
        tally["backlog_growth"] += self.server.stats()["batcher"]["pending"] - depth0
        return seg

    def measure(self, seconds: float, tracer=None, hooks=None) -> Measurement:
        shares = self.TRACED_SHARES if tracer else self.SHARES
        budget = seconds / 3 if tracer else seconds
        speed = calibrate.Bracket(self.probe())
        slices: dict = {phase: [] for phase in shares}
        m = Measurement(rate_segments=[], latency_segments=[])
        m.extra = {"slices": slices, "closed_rows": [], "closed_cpu": 0.0}
        rounds = self.TRACED_ROUNDS if tracer else self.N_ROUNDS
        for _ in range(rounds):
            for phase, share in shares.items():
                traced = tracer is not None and phase != "closed_untraced"
                if traced:
                    tracer.install(hooks)
                    first_row = len(tracer.spans)
                    with tracer.span(self.root_span):
                        seg = self.slice(phase, budget * share / rounds)
                    tracer.uninstall()
                    root = tracer.spans[first_row]
                    m.traced_wall += root.end - root.start
                    if phase == "closed":
                        m.extra["closed_rows"].append((first_row, len(tracer.spans)))
                        m.extra["closed_cpu"] += seg.cpu
                else:
                    seg = self.slice(phase, budget * share / rounds)
                now = speed()  # after every slice: the next one needs it fresh
                if phase in ("closed", "closed_untraced"):
                    seg.speed = now
                slices[phase].append(seg)
        m.rate_segments = slices["closed"]
        m.latency_segments = slices["lo"]
        m.untraced_rate_segments = slices.get("closed_untraced", [])
        m.attempted = sum(p["sent"] for p in self.phases.values())
        m.failed = sum(p["failed"] for p in self.phases.values())
        return m

    def gate(self) -> list:
        wrong = 0
        for k, served in sorted(self.kept.items()):
            e, f = self.potential.energy_and_forces(self.systems[k % self.N_STRUCTURES])
            if not (served[0] == e and np.array_equal(served[1], f)):
                wrong += 1
        counters = self.server.stats()["counters"]
        # two warm-up bursts were served before the first phase
        served = counters.get("requests_served", 0) - 2 * self.N_STRUCTURES
        ok = sum(p["ok"] for p in self.phases.values())
        balanced = all(p["sent"] == p["ok"] + p["failed"] for p in self.phases.values())
        return [
            ("served == direct (bitwise)", wrong == 0 and len(self.kept) > 0,
             f"{len(self.kept)} sampled, {wrong} differ"),
            ("sent == succeeded + failed, every phase", balanced,
             "; ".join(f"{n}: {p['sent']}={p['ok']}+{p['failed']}"
                       for n, p in self.phases.items())),
            ("server served what clients saw", served == ok,
             f"server {served}, clients {ok}"),
        ]

    def counts(self) -> dict:
        s = self.server.stats()
        c, h = s["counters"], s["histograms"]
        model = next(iter(s["registry"]["models"].values()))
        return {
            "serve.queue_wait.p50_ms": h["queue_wait_s"]["p50"] * 1e3,
            "serve.queue_wait.p99_ms": h["queue_wait_s"]["p99"] * 1e3,
            "serve.batch_occupancy.mean": s["batcher"]["mean_occupancy"],
            "serve.batches": c.get("batches", 0),
            "serve.replay_rate": s["replay_rate"],
            "serve.plan_captures": c.get("plan_captures", 0),
            "serve.plan_hit_rate": model["hit_rate"],
            "serve.shed": c.get("requests_shed", 0),
            "serve.expired": c.get("requests_expired", 0),
            "serve.retries": c.get("batch_retries", 0),
            "health.transitions": c.get("health.transitions", 0),
        }

    def traced_metrics(self, m, spans, strict: bool, seconds: float) -> dict:
        slices = m.extra["slices"]

        def p99(phase, attr="latencies_ms"):
            pooled = [x for s in slices[phase] for x in getattr(s, attr)]
            return stats.percentile(pooled, 99, strict)

        # highest fixed rate up to which every rate met the limit, no failures
        within = 0.0
        for phase, r in self.RATES.items():
            if self.phases[phase]["failed"] or p99(phase) > declare.LATENCY_LIMIT_MS:
                break
            within = r
        engine_cpu = sum(
            s.cpu for lo, hi in m.extra["closed_rows"] for s in spans[lo:hi]
            if s is not None and s.name == "engine.evaluate")
        return {
            "serve.latency_p99_ms.lo": p99("lo"),
            "serve.latency_p99_ms.hi": p99("hi"),
            "serve.backlog_growth.hi": self.phases["hi"]["backlog_growth"],
            "serve.max_rate_within_limit": within,
            "serve.generator_late.p99_ms": p99("lo", "late_ms"),
            "serve.engine_cpu_share": engine_cpu / m.extra["closed_cpu"],
        }

    def micro(self) -> dict:
        from repro.md import neighbor_list

        sizes = sorted(range(self.N_STRUCTURES), key=lambda i: self.systems[i].n_atoms)
        system = self.systems[sizes[len(sizes) // 2]]
        nl = neighbor_list(system, self.potential.cutoff)
        return eager_micro(self.potential, system, nl, 0.0)

    def close(self) -> None:
        self.server.stop()


# ---------------------------------------------------------------------------
# lj_parallel4
# ---------------------------------------------------------------------------


class LJParallel4(Workload):
    name = "lj_parallel4"
    PROBE = (20000, 88.0)  # ~53 000 edges per shard: beyond the L2 cache
    # An fcc crystal at its LJ equilibrium spacing, warm (200 K, melting is
    # near 400 K): atoms vibrate enough to trip the Verlet criterion every
    # ~18 steps and to hop across rank boundaries, and nothing drifts.  The
    # simple-cubic 16^3 lattice the dump benchmark uses is unstable under a
    # pair potential: it collapses over the run (pairs +13 %, T 30 -> 45 K,
    # steps/s -20 % in 600 steps), so a faster program would be measured on a
    # slower stretch of the trajectory.
    N_CELLS = 10  # 4 atoms per cell: 4000 atoms
    LATTICE = 2.31  # nearest neighbour 1.63 A = 1.09 sigma
    TEMPERATURE = 200.0
    SKIN = 0.4
    N_RANKS = 4
    SEGMENT_STEPS = 20
    WARMUP_STEPS = 5

    def _thermostat(self):
        from repro.md import LangevinThermostat

        workload = self
        self.stamps: list = []

        class StampedLangevin(LangevinThermostat):
            """ParallelSimulation has no step callback; the thermostat is
            applied exactly once at the end of every step."""

            def apply(self, system, dt):
                super().apply(system, dt)
                workload.stamps.append(_clock())
                workload.next_op()

        return StampedLangevin(self.TEMPERATURE, friction=0.05, seed=self.seed)

    def lattice(self):
        from repro.md import Cell, System

        rng = np.random.default_rng(self.seed)
        n = self.N_CELLS if self.scale >= 1 else 5
        basis = np.array([[0, 0, 0], [.5, .5, 0], [.5, 0, .5], [0, .5, .5]])
        cells = np.stack(
            np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 1, 3)
        positions = (self.LATTICE * (cells + basis)).reshape(-1, 3)
        system = System(
            positions + rng.normal(scale=0.02, size=positions.shape),
            np.zeros(len(positions), dtype=int),
            Cell.cubic(self.LATTICE * n),
        )
        # a harmonic solid shares kinetic energy equally with potential
        # energy within a vibration period: start at twice the target
        system.seed_velocities(2 * self.TEMPERATURE, rng)
        return system

    def setup(self) -> None:
        from repro.models import LennardJones
        from repro.parallel import ParallelSimulation

        t0 = _clock()
        system = self.lattice()
        self.setup_info["data.generate_s"] = _clock() - t0
        self.potential = LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)
        self.sim = ParallelSimulation(
            system, self.potential, n_ranks=self.N_RANKS, dt=0.2,
            thermostat=self._thermostat(), skin=self.SKIN, engine="eager",
        )
        self.steps = self.scaled(self.SEGMENT_STEPS)
        self.sim.run(self.scaled(self.WARMUP_STEPS))

    def segment(self) -> Seg:
        return self.md_segment(self.sim.run, self.steps)

    def gate(self) -> list:
        system = self.sim.system
        _, f_par, _ = self.sim.evaluator.compute(system)
        _, f_ser = self.potential.energy_and_forces(system)
        worst = float(np.abs(f_par - f_ser).max())
        return [("4-rank forces == serial within 1e-10", worst <= 1e-10,
                 f"max|dF|={worst:.3g}")]

    def counts(self) -> dict:
        c = self.sim.stats()["counters"]
        steps = max(self.sim.step_count, 1)
        work = self.sim.last_stats

        def comm(kind):
            return sum(v for k, v in c.items() if k.startswith(f"comm.{kind}{{"))

        return {
            "md.pairs_per_step": int(work.n_edges.sum()),
            "parallel.comm.bytes_per_step": comm("bytes") / steps,
            "parallel.comm.messages_per_step": comm("messages") / steps,
            "parallel.migrations": c.get("comm.messages{category=migrate}", 0),
            "parallel.halo_share": float(work.n_ghost.sum() / work.n_owned.sum()),
            "parallel.load_imbalance": work.load_imbalance,
        }

    def traced_metrics(self, m, spans, strict: bool, seconds: float) -> dict:
        # One eager force call per rank inside each compute(): forward span
        # then backward span, in rank order.
        per_step = {}
        for s in spans:
            if s is not None and s.name in ("models.atomic_energies", "autodiff.backward"):
                per_step.setdefault(s.parent, []).append((s.end - s.start) * 1e3)
        rank_ms = [
            [a + b for a, b in zip(calls[0::2], calls[1::2])]
            for calls in per_step.values()
        ]
        serial = self.serial_rate(seconds / 6)
        return {
            "parallel.rank_force.busy_s": sum(sum(r) for r in rank_ms) / 1e3,
            "parallel.rebuilds": sum(
                1 for s in spans if s is not None and s.name == "parallel.decompose"),
            "parallel.rank_force.max_ms": stats.quartiles([max(r) for r in rank_ms])[1],
            "parallel.rank_force.mean_ms": stats.quartiles(
                [sum(r) / len(r) for r in rank_ms])[1],
            "md.serial.ops_per_s": serial,
            "parallel.vs_serial": rate(m.rate_segments) / serial,
        }

    def serial_rate(self, seconds: float) -> float:
        """Plain ``md.Simulation`` on the same system: the 1-rank baseline
        (steps/s at reference machine speed, like ``ops_per_s``)."""
        from repro.md import LangevinThermostat, Simulation

        sim = Simulation(
            self.lattice(), self.potential, dt=0.2, skin=self.SKIN,
            thermostat=LangevinThermostat(
                self.TEMPERATURE, friction=0.05, seed=self.seed),
        )
        sim.run(self.scaled(self.WARMUP_STEPS))
        speed = calibrate.Bracket(self.probe())
        segments = []
        t_end = _clock() + seconds
        while _clock() < t_end or len(segments) < 2:
            t0 = _clock()
            sim.run(self.steps)
            wall = _clock() - t0
            segments.append(Seg(self.steps, 0, wall, 0.0, speed=speed()))
        return rate(segments)

    def micro(self) -> dict:
        from repro.md import neighbor_list

        nl = neighbor_list(self.sim.system, self.potential.cutoff)
        return eager_micro(self.potential, self.sim.system, nl, self.SKIN)


WORKLOADS = {w.name: w for w in (WaterMD, AllegroTrain, ServeMixed, LJParallel4)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
