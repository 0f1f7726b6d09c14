"""Property tests for the trajectory data plane (Hypothesis).

Five invariants, each checked over randomized shapes/contents:

1. **Binary round-trip is exact** — every ``Frame`` field survives the
   ``.rtrj`` store bit-for-bit, compressed or not, at any chunking.
2. **XYZ round-trip is faithful to format precision** — positions and
   velocities written at 8 decimals come back within 1e-8.
3. **Random access equals sequential scan** — ``reader[i]`` is the same
   frame the iterator yields ``i``-th, for every index.
4. **Torn tails never raise** — truncating a trajectory at *any* byte
   past the file header still opens, iterates and verifies cleanly; the
   readable prefix matches the original frames exactly.
5. **Resume ≡ rollback ≡ uninterrupted** — cutting a trajectory at any
   step (on or inside a chunk boundary), from a cleanly closed file, a
   killed one or one with a torn last chunk, and re-appending the frames
   past the cut gives the bytes of a writer that never stopped.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.md.system import Cell, System
from repro.md.trajectory import read_xyz, write_xyz_frame
from repro.traj import Frame, TrajectoryReader, TrajectoryWriter


def _frames(n_frames, n_atoms, seed):
    rng = np.random.default_rng(seed)
    cell = np.abs(rng.normal(loc=8.0, scale=1.0, size=3)) + 1.0
    out = []
    for k in range(n_frames):
        out.append(
            Frame(
                step=k * 3,
                time_fs=0.25 * k,
                pe=float(rng.normal()),
                cell_lengths=cell.copy(),
                positions=rng.normal(scale=2.0, size=(n_atoms, 3)),
                velocities=rng.normal(scale=0.1, size=(n_atoms, 3)),
            )
        )
    return out


def _system(n_atoms, seed):
    rng = np.random.default_rng(seed)
    return System(
        rng.uniform(0.5, 7.5, size=(n_atoms, 3)),
        rng.integers(0, 2, size=n_atoms),
        Cell.cubic(8.0),
        species_names=["H", "O"],
    )


def _write(path, frames, n_atoms, frames_per_chunk, compression):
    system = _system(n_atoms, seed=0)
    store = TrajectoryWriter(
        path,
        system=system,
        frames_per_chunk=frames_per_chunk,
        compression=compression,
    )
    for f in frames:
        store.append(f)
    store.close()


def _assert_frame_equal(a: Frame, b: Frame) -> None:
    assert a.step == b.step
    assert a.time_fs == b.time_fs
    assert (a.pe == b.pe) or (np.isnan(a.pe) and np.isnan(b.pe))
    np.testing.assert_array_equal(a.cell_lengths, b.cell_lengths)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)


class TestBinaryRoundTrip:
    @given(
        n_frames=st.integers(1, 12),
        n_atoms=st.integers(1, 9),
        frames_per_chunk=st.integers(1, 5),
        compression=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact(self, n_frames, n_atoms, frames_per_chunk, compression, seed):
        frames = _frames(n_frames, n_atoms, seed)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.rtrj"
            _write(path, frames, n_atoms, frames_per_chunk, compression)
            with TrajectoryReader(path) as reader:
                got = list(reader.frames())
                assert len(got) == n_frames
                assert reader.frames_quarantined == 0
                for a, b in zip(frames, got):
                    _assert_frame_equal(a, b)


class TestXYZRoundTrip:
    @given(n_atoms=st.integers(1, 12), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_within_format_precision(self, n_atoms, seed):
        system = _system(n_atoms, seed)
        rng = np.random.default_rng(seed + 1)
        system.velocities = rng.normal(scale=0.1, size=(n_atoms, 3))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.xyz"
            with open(path, "w") as fh:
                write_xyz_frame(fh, system)
            (back,) = read_xyz(path, species_names=["H", "O"])
        assert back.n_atoms == n_atoms
        np.testing.assert_array_equal(back.species, system.species)
        np.testing.assert_allclose(back.positions, system.positions, atol=1e-8)
        np.testing.assert_allclose(back.velocities, system.velocities, atol=1e-8)
        np.testing.assert_allclose(
            np.asarray(back.cell.lengths), np.asarray(system.cell.lengths)
        )


class TestRandomAccess:
    @given(
        n_frames=st.integers(1, 15),
        frames_per_chunk=st.integers(1, 4),
        compression=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_sequential(self, n_frames, frames_per_chunk, compression, seed):
        n_atoms = 4
        frames = _frames(n_frames, n_atoms, seed)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.rtrj"
            _write(path, frames, n_atoms, frames_per_chunk, compression)
            with TrajectoryReader(path) as reader:
                seq = list(reader.frames())
                assert len(reader) == len(seq) == n_frames
                for i in range(n_frames):
                    _assert_frame_equal(reader[i], seq[i])
                # Out-of-range access is an IndexError, not silence.
                with pytest.raises(IndexError):
                    reader.read(n_frames)


class TestTornTail:
    @given(
        n_frames=st.integers(1, 10),
        frames_per_chunk=st.integers(1, 4),
        compression=st.booleans(),
        seed=st.integers(0, 10_000),
        cut=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_raises(
        self, n_frames, frames_per_chunk, compression, seed, cut
    ):
        n_atoms = 3
        frames = _frames(n_frames, n_atoms, seed)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.rtrj"
            _write(path, frames, n_atoms, frames_per_chunk, compression)
            raw = path.read_bytes()
            with TrajectoryReader(path) as reader:
                data_start = reader._data_start
            # Truncate anywhere from "no data at all" to "missing one byte";
            # with the footer gone the reader has to scan from scratch.
            pos = data_start + int(cut * max(0, len(raw) - 1 - data_start))
            torn = Path(d) / "torn.rtrj"
            torn.write_bytes(raw[:pos])
            with TrajectoryReader(torn) as reader:
                got = list(reader.frames())  # must never raise
                report = reader.verify()
            assert report["frames_readable"] == len(got)
            # The readable prefix is a prefix of the original frames, exact.
            assert len(got) <= n_frames
            for a, b in zip(frames, got):
                _assert_frame_equal(a, b)


class _TearNext:
    """Fault plan stub: the next chunk commit is torn once armed."""

    armed = False

    def fires(self, channel):
        return self.armed


class TestResumeEqualsRollback:
    @given(
        n_frames=st.integers(1, 12),
        frames_per_chunk=st.integers(1, 5),
        kept=st.data(),
        past_frame=st.integers(0, 2),
        pinned=st.booleans(),
        end=st.sampled_from(["footer", "kill", "torn"]),
        compression=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_uninterrupted(
        self, n_frames, frames_per_chunk, kept, past_frame, pinned, end,
        compression, seed,
    ):
        n_atoms = 3
        frames = _frames(n_frames, n_atoms, seed)  # steps 0, 3, 6, ...
        # k frames survive the cut at step s; a torn chunk lies past the cut,
        # as the MD driver's barrier before each checkpoint guarantees.
        k = kept.draw(st.integers(0, n_frames), label="k")
        m = kept.draw(st.integers(k, n_frames), label="m")  # frames dumped
        s = 3 * (k - 1) + past_frame
        pinned = pinned or end == "torn"
        system = _system(n_atoms, seed=0)

        def interrupted(path):
            tear = _TearNext()
            w = TrajectoryWriter(
                path, system=system, frames_per_chunk=frames_per_chunk,
                compression=compression, fault_plan=tear,
            )
            for f in frames[:k]:
                w.append(f)
            if pinned:
                w.barrier()  # the checkpoint barrier at s
            for f in frames[k:m]:
                w.append(f)
            if end == "torn":
                tear.armed = True
                w.barrier()
                tear.armed = False
            return w

        with tempfile.TemporaryDirectory() as d:
            ref = Path(d) / "ref.rtrj"
            w = TrajectoryWriter(
                ref, system=system, frames_per_chunk=frames_per_chunk,
                compression=compression,
            )
            for f in frames[:k]:
                w.append(f)
            if pinned:
                w.barrier()
            for f in frames[k:]:
                w.append(f)
            w.close()

            resumed = Path(d) / "resumed.rtrj"
            w = interrupted(resumed)
            if end == "footer":
                # A clean close pins a boundary at m; the reference has it
                # only where it pins s.
                assume(pinned or m > k or m == n_frames or k % frames_per_chunk == 0)
                w.close()
            else:
                # A kill loses the open buffer: it must hold no frame <= s.
                assume(w.frames_durable >= k)
                w.abort()
            w = TrajectoryWriter(resumed, append_from=s)
            for f in frames[k:]:
                w.append(f)
            w.close()

            rolled = Path(d) / "rolled.rtrj"
            w = interrupted(rolled)
            w.rollback(s)
            for f in frames[k:]:
                w.append(f)
            w.close()

            assert resumed.read_bytes() == ref.read_bytes()
            assert rolled.read_bytes() == ref.read_bytes()
            assert sorted(os.listdir(d)) == ["ref.rtrj", "resumed.rtrj", "rolled.rtrj"]
