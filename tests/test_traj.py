"""repro.traj tests: binary format, writer, reader, streaming folds.

The load-bearing property mirrors the checkpoint suite: **dump → kill →
resume produces a trajectory file byte-identical to an uninterrupted
run's** — no duplicated frames, no gaps, same chunk boundaries.  Around
it: exact binary round-trips, O(1) random access, torn-chunk quarantine
(the reader never returns a corrupt frame), rollback-on-recovery, and
the streaming analysis folds pinned against their materialized
counterparts.
"""

import os
import time

import numpy as np
import pytest

from repro.md import Cell, Simulation, System
from repro.md.observables import radial_distribution
from repro.models import LennardJones
from repro.resilience import TRAJ_TORN_CHUNK, CheckpointManager, FaultPlan
from repro.traj import (
    Frame,
    FrameQuarantinedError,
    StreamingMSD,
    StreamingRDF,
    StreamingThermo,
    StreamingVACF,
    TrajectoryReader,
    TrajectoryWriter,
    TrajError,
    TrajFormatError,
    analyze_stream,
)
from repro.traj.format import (
    decode_chunk_header,
    decode_payload,
    encode_chunk,
    encode_header,
    read_header,
)


def _system(seed=7, n_side=4, a=1.7, jitter=0.02):
    rng = np.random.default_rng(seed)
    g = (
        np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
        * a
    )
    s = System(
        g + rng.normal(scale=jitter, size=g.shape),
        np.zeros(len(g), int),
        Cell.cubic(n_side * a),
    )
    s.seed_velocities(30.0, np.random.default_rng(8))
    return s


def _sim(system=None):
    return Simulation(
        system if system is not None else _system(),
        LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0),
        dt=0.2,
    )


def _frames(system, n, seed=3):
    """n deterministic frames derived from a system (fresh arrays each)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        out.append(
            Frame(
                step=k,
                time_fs=0.5 * k,
                pe=-float(k),
                cell_lengths=np.array(system.cell.lengths, dtype=np.float64),
                positions=system.positions + rng.normal(scale=0.01, size=(system.n_atoms, 3)),
                velocities=rng.normal(scale=0.01, size=(system.n_atoms, 3)),
            )
        )
    return out


def _write(path, system, frames, frames_per_chunk=4, **kw):
    store = TrajectoryWriter(
        path, system=system, frames_per_chunk=frames_per_chunk, **kw
    )
    for f in frames:
        store.append(f)
    store.close()
    return store


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
class TestFormat:
    def test_header_roundtrip(self, tmp_path):
        system = _system()
        path = tmp_path / "t.rtrj"
        _write(path, system, _frames(system, 1))
        with open(path, "rb") as fh:
            header, size = read_header(fh)
        assert header.n_atoms == system.n_atoms
        assert list(header.species) == list(system.species)
        np.testing.assert_array_equal(header.masses, system.masses)
        assert tuple(header.species_names) == tuple(system.species_names or ())
        assert size == len(encode_header(header))

    def test_truncated_header_is_descriptive(self, tmp_path):
        path = tmp_path / "t.rtrj"
        path.write_bytes(b"RPRTRJ1\n\x01\x00")
        with pytest.raises(TrajFormatError, match="too short"):
            with open(path, "rb") as fh:
                read_header(fh)

    def test_bad_magic_is_descriptive(self, tmp_path):
        path = tmp_path / "t.rtrj"
        path.write_bytes(b"NOTATRAJ" + b"\x00" * 64)
        with pytest.raises(TrajFormatError, match="magic"):
            with open(path, "rb") as fh:
                read_header(fh)

    @pytest.mark.parametrize("compressed", [False, True])
    def test_chunk_payload_roundtrip(self, compressed):
        system = _system(n_side=2)
        frames = _frames(system, 5)
        blob = encode_chunk(frames, 0, system.n_atoms, compressed)
        header = decode_chunk_header(blob[:36])
        assert header.n_frames == 5
        out = decode_payload(header, blob[36:], system.n_atoms)
        for a, b in zip(frames, out):
            assert a.step == b.step
            assert a.time_fs == b.time_fs
            assert a.pe == b.pe
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.velocities, b.velocities)
            np.testing.assert_array_equal(a.cell_lengths, b.cell_lengths)

    def test_corrupt_payload_fails_crc(self):
        system = _system(n_side=2)
        blob = bytearray(encode_chunk(_frames(system, 3), 0, system.n_atoms, True))
        blob[40] ^= 0xFF
        header = decode_chunk_header(bytes(blob[:36]))
        with pytest.raises(TrajFormatError, match="checksum"):
            decode_payload(header, bytes(blob[36:]), system.n_atoms)

    def test_compression_shrinks_similar_frames(self, tmp_path):
        system = _system()
        frames = _frames(system, 16)
        raw = tmp_path / "raw.rtrj"
        packed = tmp_path / "packed.rtrj"
        _write(raw, system, frames, frames_per_chunk=16, compression=False)
        _write(packed, system, frames, frames_per_chunk=16, compression=True)
        assert os.path.getsize(packed) < os.path.getsize(raw)


# ---------------------------------------------------------------------------
# Store + reader
# ---------------------------------------------------------------------------
class TestStoreReader:
    def test_roundtrip_exact(self, tmp_path):
        system = _system()
        frames = _frames(system, 10)
        path = tmp_path / "t.rtrj"
        _write(path, system, frames)
        with TrajectoryReader(path) as reader:
            assert len(reader) == 10
            assert reader.index_source == "footer"
            for k, frame in enumerate(reader.frames()):
                ref = frames[k]
                assert frame.step == ref.step
                np.testing.assert_array_equal(frame.positions, ref.positions)
                np.testing.assert_array_equal(frame.velocities, ref.velocities)

    def test_random_access_equals_sequential(self, tmp_path):
        system = _system(n_side=2)
        frames = _frames(system, 11)
        path = tmp_path / "t.rtrj"
        _write(path, system, frames, frames_per_chunk=3)
        with TrajectoryReader(path) as reader:
            seq = list(reader.frames())
            for i in [10, 0, 7, 3, 5, 9, 1]:
                frame = reader[i]
                assert frame.step == seq[i].step
                np.testing.assert_array_equal(frame.positions, seq[i].positions)
            with pytest.raises(IndexError):
                reader.read(11)

    def test_missing_footer_falls_back_to_scan(self, tmp_path):
        system = _system(n_side=2)
        frames = _frames(system, 8)
        path = tmp_path / "t.rtrj"
        store = TrajectoryWriter(path, system=system, frames_per_chunk=4)
        for f in frames:
            store.append(f)
        store.barrier()
        store.abort()  # crash-shaped: no footer written
        assert os.listdir(tmp_path) == ["t.rtrj"]  # nothing beside the file
        with TrajectoryReader(path) as reader:
            assert reader.index_source == "scan"
            assert [f.step for f in reader.frames()] == list(range(8))

    def test_torn_tail_never_raises_on_read(self, tmp_path):
        system = _system(n_side=2)
        path = tmp_path / "t.rtrj"
        _write(path, system, _frames(system, 10), frames_per_chunk=4)
        raw = path.read_bytes()
        for cut in (1, 20, 37, len(raw) // 2):
            torn = tmp_path / f"torn{cut}.rtrj"
            torn.write_bytes(raw[: len(raw) - cut])
            with TrajectoryReader(torn) as reader:
                frames = list(reader.frames())  # must not raise
                for f in frames:
                    assert np.all(np.isfinite(f.positions))

    def test_quarantined_random_access_raises_typed(self, tmp_path):
        system = _system(n_side=2)
        path = tmp_path / "t.rtrj"
        plan = FaultPlan(seed=3, at={TRAJ_TORN_CHUNK: [1]})
        _write(path, system, _frames(system, 12), fault_plan=plan)
        assert plan.fired(TRAJ_TORN_CHUNK) == 1
        with TrajectoryReader(path) as reader:
            readable = [f.step for f in reader.frames()]
            assert readable == [0, 1, 2, 3, 8, 9, 10, 11]
            assert reader.frames_quarantined == 4
            with pytest.raises(FrameQuarantinedError):
                reader.read(5)
            # chunks after the torn one stay randomly accessible
            assert reader.read(9).step == 9

    def test_torn_chunk_accounting(self, tmp_path):
        system = _system(n_side=2)
        path = tmp_path / "t.rtrj"
        plan = FaultPlan(seed=3, at={TRAJ_TORN_CHUNK: [0, 2]})
        store = _write(path, system, _frames(system, 12), fault_plan=plan)
        with TrajectoryReader(path) as reader:
            n_readable = sum(1 for _ in reader.frames())
            assert (
                store.frames_durable
                == n_readable + reader.frames_quarantined
            )
            report = reader.verify()
            assert report["frames_quarantined"] == reader.frames_quarantined
            assert [c["ok"] for c in report["chunks"]] == [False, True, False]

    def test_verify_report_shape(self, tmp_path):
        system = _system(n_side=2)
        path = tmp_path / "t.rtrj"
        _write(path, system, _frames(system, 5), frames_per_chunk=2)
        with TrajectoryReader(path) as reader:
            report = reader.verify()
        assert report["n_frames"] == 5
        assert report["frames_readable"] == 5
        assert report["frames_quarantined"] == 0
        assert report["n_chunks"] == 3
        assert not report["torn_tail"]


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------
class TestWriter:
    def test_writer_matches_store(self, tmp_path):
        """record() produces the same bytes as direct appends."""
        system = _system(n_side=2)
        frames = _frames(system, 9)
        direct = tmp_path / "direct.rtrj"
        _write(direct, system, frames)
        via_writer = tmp_path / "writer.rtrj"
        w = TrajectoryWriter(via_writer, system=system, frames_per_chunk=4)
        for f in frames:
            class _Sys:  # record() snapshots (positions, velocities, cell)
                positions = f.positions
                velocities = f.velocities
                cell = system.cell
            w.record(f.step, f.time_fs, _Sys, pe=f.pe)
        w.close()
        assert direct.read_bytes() == via_writer.read_bytes()

    def test_worker_error_surfaces_on_producer(self, tmp_path, monkeypatch):
        """A write error raises from the call that hit it, unwrapped."""
        import repro.traj.store as store_mod

        system = _system(n_side=2)
        w = TrajectoryWriter(tmp_path / "t.rtrj", system=system)
        w.record(0, 0.0, system)

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(store_mod.os, "fsync", boom)
        with pytest.raises(OSError, match="disk gone"):
            w.barrier()
        assert w.frames_durable == 0
        w.abort()

    def test_abort_drops_uncommitted(self, tmp_path):
        system = _system(n_side=2)
        path = tmp_path / "t.rtrj"
        w = TrajectoryWriter(path, system=system, frames_per_chunk=4)
        for k in range(10):
            w.record(k, 0.5 * k, system)
        w.barrier()
        for k in range(10, 13):
            w.record(k, 0.5 * k, system)
        w.abort()
        with TrajectoryReader(path) as reader:
            assert [f.step for f in reader.frames()] == list(range(10))

    @pytest.mark.parametrize("pause_s", [0.0, 1e-3])
    def test_abort_is_a_deterministic_kill(self, tmp_path, pause_s):
        """What survives abort() depends only on the call sequence.

        The barrier commits steps 0–9 (chunks 0–3, 4–7, 8–9), steps 10–13
        fill a chunk that commits on its own, and the open chunk holding
        14 and 15 is lost — with or without time between the records.
        """
        system = _system(n_side=2)
        path = tmp_path / "t.rtrj"
        w = TrajectoryWriter(path, system=system, frames_per_chunk=4)
        for k in range(10):
            w.record(k, 0.5 * k, system)
            time.sleep(pause_s)
        w.barrier()
        for k in range(10, 16):
            w.record(k, 0.5 * k, system)
            time.sleep(pause_s)
        w.abort()
        with TrajectoryReader(path) as reader:
            assert reader.index_source == "scan"  # no footer
            assert [f.step for f in reader.frames()] == list(range(14))

    def test_rollback_then_rewrite_is_bitwise(self, tmp_path):
        system = _system(n_side=2)
        frames = _frames(system, 10)
        clean = tmp_path / "clean.rtrj"
        _write(clean, system, frames)
        rolled = tmp_path / "rolled.rtrj"
        store = TrajectoryWriter(rolled, system=system, frames_per_chunk=4)
        for f in frames:
            store.append(f)
        store.rollback(6)
        for f in frames[7:]:
            store.append(f)
        store.close()
        assert clean.read_bytes() == rolled.read_bytes()

    def test_kill_after_resumed_commit_leaves_a_consistent_index(
        self, tmp_path, monkeypatch
    ):
        """A resume that truncates, then dies right after its first commit.

        Twelve frames in chunks of 4, killed; resumed at step 5 (chunk 4–7
        straddles the cut) and step 6 appended, so the first commit holds
        steps 4–6.  A kill just after that chunk's fsync — simulated by an
        ``os.replace`` that raises, the call any atomic index replace would
        make next — must leave a file whose index agrees with its bytes:
        every frame ``len(reader)`` counts reads back.
        """
        system = _system(n_side=2)
        frames = _frames(system, 12)
        path = tmp_path / "t.rtrj"
        w = TrajectoryWriter(path, system=system, frames_per_chunk=4)
        for f in frames:
            w.append(f)
        w.abort()

        class Killed(Exception):
            pass

        def kill(*args, **kwargs):
            raise Killed

        w = TrajectoryWriter(path, frames_per_chunk=4, append_from=5)
        w.append(frames[6])
        monkeypatch.setattr(os, "replace", kill)
        try:
            w.barrier()
        except Killed:
            pass
        w.abort()
        monkeypatch.undo()

        with TrajectoryReader(path) as reader:
            report = reader.verify()
            assert len(reader) == report["frames_readable"] == 7
            assert [reader.read(i).step for i in range(len(reader))] == list(range(7))
        assert os.listdir(tmp_path) == ["t.rtrj"]

    def test_convert_mixed_atom_counts_raises_typed(self, tmp_path):
        """An XYZ whose frames hold 4, 4 and 5 atoms fails at the bad frame."""
        from argparse import Namespace

        from repro.cli.traj import _traj_convert
        from repro.md import write_xyz_frame

        src = tmp_path / "mixed.xyz"
        with open(src, "w") as fh:
            for n in (4, 4, 5):
                pos = np.arange(3.0 * n).reshape(n, 3)
                write_xyz_frame(fh, System(pos, np.zeros(n, int), Cell.cubic(9.0)))
        args = Namespace(src=str(src), dst=str(tmp_path / "mixed.rtrj"))
        with pytest.raises(
            TrajError,
            match=r"step 2: positions has shape \(5, 3\), but the trajectory holds 4 atoms",
        ):
            _traj_convert(args, log=lambda msg: None)

    def test_rollback_on_closed_writer_raises(self, tmp_path):
        system = _system(n_side=2)
        w = TrajectoryWriter(tmp_path / "t.rtrj", system=system)
        w.close()
        with pytest.raises(TrajError, match="closed"):
            w.rollback(0)


# ---------------------------------------------------------------------------
# MD integration: the byte-identity guarantee
# ---------------------------------------------------------------------------
class TestKillAndResume:
    def test_resume_appends_exactly_missing_frames(self, tmp_path):
        total, killed_at, every = 60, 23, 5
        clean = tmp_path / "clean.rtrj"
        ref = _sim()
        ref.run(
            total,
            checkpoint_every=every,
            checkpoint_dir=tmp_path / "ck_ref",
            dump_every=10,
            dump_path=clean,
        )

        part = tmp_path / "part.rtrj"
        sim1 = _sim()

        def bomb(step, sim):
            if step == killed_at:
                raise KeyboardInterrupt

        sim1._callbacks.append(bomb)
        with pytest.raises(KeyboardInterrupt):
            sim1.run(
                total,
                checkpoint_every=every,
                checkpoint_dir=tmp_path / "ck",
                dump_every=10,
                dump_path=part,
            )

        sim2 = _sim()
        manager = CheckpointManager(tmp_path / "ck")
        step, state = manager.load_latest()
        assert step == 20
        sim2.set_state(state)
        sim2.run(
            total - step,
            checkpoint_every=every,
            checkpoint_manager=manager,
            dump_every=10,
            dump_path=part,
        )
        np.testing.assert_array_equal(
            sim2.system.positions, ref.system.positions
        )
        assert clean.read_bytes() == part.read_bytes()
        with TrajectoryReader(part) as reader:
            assert [f.step for f in reader.frames()] == [10, 20, 30, 40, 50, 60]

    def test_dump_records_pe_and_metadata(self, tmp_path):
        path = tmp_path / "t.rtrj"
        sim = _sim()
        res = sim.run(20, dump_every=5, dump_path=path)
        with TrajectoryReader(path) as reader:
            frames = list(reader.frames())
        assert [f.step for f in frames] == [5, 10, 15, 20]
        for f in frames:
            assert np.isfinite(f.pe)
            assert f.time_fs == pytest.approx(f.step * 0.2)

    def test_run_without_dump_unchanged(self, tmp_path):
        a = _sim()
        ra = a.run(20)
        b = _sim()
        rb = b.run(20, dump_every=5, dump_path=tmp_path / "t.rtrj")
        np.testing.assert_array_equal(a.system.positions, b.system.positions)
        np.testing.assert_array_equal(
            ra.potential_energies, rb.potential_energies
        )

    def test_dump_every_validation(self, tmp_path):
        from repro.parallel import ParallelSimulation

        parallel = ParallelSimulation(_system(), _sim().potential, n_ranks=4, dt=0.2)
        for sim in (_sim(), parallel):
            with pytest.raises(ValueError, match="dump_every"):
                sim.run(4, dump_every=0, dump_path=tmp_path / "t.rtrj")
            with pytest.raises(ValueError, match="dump_every"):
                sim.run(4, dump_every=5)

    def test_parallel_dump_matches_serial(self, tmp_path):
        from repro.parallel import ParallelSimulation

        system = _system()
        serial = _sim(_system())
        serial.run(12, dump_every=3, dump_path=tmp_path / "serial.rtrj")
        par = ParallelSimulation(
            system, LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0),
            n_ranks=4, dt=0.2,
        )
        par.run(12, dump_every=3, dump_path=tmp_path / "par.rtrj")
        with TrajectoryReader(tmp_path / "serial.rtrj") as rs, \
                TrajectoryReader(tmp_path / "par.rtrj") as rp:
            fs, fp = list(rs.frames()), list(rp.frames())
            assert [f.step for f in fs] == [f.step for f in fp]
            L = np.asarray(system.cell.lengths)
            for a, b in zip(fs, fp):
                delta = a.positions - b.positions
                delta -= L * np.round(delta / L)
                assert float(np.max(np.abs(delta))) < 1e-8


# ---------------------------------------------------------------------------
# Streaming analysis
# ---------------------------------------------------------------------------
class TestStreaming:
    def test_streaming_msd_equals_materialized(self):
        rng = np.random.default_rng(0)
        traj = np.cumsum(rng.normal(size=(40, 6, 3)), axis=0)
        fold = StreamingMSD(window=39)
        for pos in traj:
            fold.update(pos)
        ref = self._msd_reference(traj)
        np.testing.assert_allclose(fold.result(), ref, rtol=1e-10, atol=1e-12)

    def test_streaming_msd_unwraps_minimum_image(self):
        # ballistic motion through a periodic box, dumped wrapped
        L = np.array([4.0, 4.0, 4.0])
        v = np.array([0.3, 0.0, 0.0])
        unwrapped = np.array([[k * v for _ in range(2)] for k in range(30)])
        wrapped = unwrapped % L
        fold = StreamingMSD(window=29)
        for pos in wrapped:
            fold.update(pos, L)
        ref = self._msd_reference(unwrapped)
        np.testing.assert_allclose(fold.result(), ref, atol=1e-10)

    def test_streaming_vacf_equals_materialized(self):
        rng = np.random.default_rng(1)
        vel = rng.normal(size=(30, 5, 3))
        fold = StreamingVACF(window=29)
        for v in vel:
            fold.update(v)
        # Reference: materialized ⟨v(0)·v(τ)⟩ / ⟨v²⟩ over atoms and origins.
        ref = np.ones(30)
        for lag in range(1, 30):
            ref[lag] = (vel[:-lag] * vel[lag:]).sum(axis=-1).mean()
        ref[1:] /= (vel * vel).sum(axis=-1).mean()
        np.testing.assert_allclose(fold.result(), ref, rtol=1e-10, atol=1e-12)

    def test_streaming_rdf_matches_single_frame(self):
        system = _system()
        L = np.asarray(system.cell.lengths, dtype=np.float64)
        fold = StreamingRDF(r_max=2.5, n_bins=20)
        fold.update(system.positions, L)
        # Reference: min-image ordered pair distances through the batch API.
        d = system.positions[:, None, :] - system.positions[None, :, :]
        d -= np.round(d / L) * L
        r = np.linalg.norm(d, axis=-1)
        dists = r[~np.eye(system.n_atoms, dtype=bool)]
        r_ref, g_ref = radial_distribution(
            dists, system.n_atoms, float(np.prod(L)), r_max=2.5, n_bins=20
        )
        res = fold.result()
        np.testing.assert_allclose(res["r"], r_ref)
        np.testing.assert_allclose(res["g"], g_ref, rtol=1e-10, atol=1e-12)

    def test_streaming_rdf_one_frame_is_radial_distribution_bitwise(self):
        """One histogram + normalization: the fold over a single frame IS
        ``radial_distribution`` of that frame's min-image distances."""
        system = _system()
        L = np.asarray(system.cell.lengths, dtype=np.float64)
        fold = StreamingRDF(r_max=2.5, n_bins=20)
        fold.update(system.positions, L)
        d = system.positions[:, None, :] - system.positions[None, :, :]
        d = d - L * np.round(d / L)
        dists = np.sqrt((d**2).sum(axis=-1))[~np.eye(system.n_atoms, dtype=bool)]
        r_ref, g_ref = radial_distribution(
            dists, system.n_atoms, float(np.prod(L)), r_max=2.5, n_bins=20
        )
        res = fold.result()
        assert np.array_equal(res["r"], r_ref)
        assert np.array_equal(res["g"], g_ref)
        assert g_ref.max() > 0

    def test_streaming_thermo_drift(self):
        masses = np.ones(4) * 12.0
        fold = StreamingThermo(masses)
        rng = np.random.default_rng(2)
        for k in range(20):
            fold.update(rng.normal(scale=0.01, size=(4, 3)), pe=-1.0)
        res = fold.result()
        assert res["n_frames"] == 20
        assert res["mean_temperature"] > 0
        assert np.isfinite(res["temperature_drift_per_frame"])

    def test_analyze_stream_deterministic(self, tmp_path):
        path = tmp_path / "t.rtrj"
        sim = _sim()
        sim.run(30, dump_every=3, dump_path=path)
        from repro.obs import to_json

        with TrajectoryReader(path) as reader:
            a = to_json(analyze_stream(reader, msd_window=5))
        with TrajectoryReader(path) as reader:
            b = to_json(analyze_stream(reader, msd_window=5))
        assert a == b

    @staticmethod
    def _msd_reference(frames, max_lag=None, atom_indices=None):
        """Materialized all-origins O(T·τ_max) MSD the fold is pinned to."""
        traj = np.stack([np.asarray(f) for f in frames])  # [T, N, 3]
        if atom_indices is not None:
            traj = traj[:, np.asarray(atom_indices)]
        T = len(traj)
        max_lag = min(max_lag if max_lag is not None else T - 1, T - 1)
        out = np.zeros(max_lag + 1)
        for lag in range(1, max_lag + 1):
            disp = traj[lag:] - traj[:-lag]
            out[lag] = float((disp**2).sum(axis=-1).mean())
        return out

    def test_streaming_msd_window_and_subset_equal_reference(self):
        rng = np.random.default_rng(3)
        traj = np.cumsum(rng.normal(size=(120, 5, 3)), axis=0)
        for window, subset in [(119, None), (40, None), (119, np.array([0, 2, 4]))]:
            fold = StreamingMSD(window, atom_indices=subset)
            for pos in traj:
                fold.update(pos)
            np.testing.assert_allclose(
                fold.result(),
                self._msd_reference(traj, max_lag=window, atom_indices=subset),
                rtol=1e-9,
                atol=1e-9,
            )
