"""The one trajectory writer (crash-atomic chunk commits) and the reader.

:class:`TrajectoryWriter` is synchronous: it runs on the caller's thread,
as a LAMMPS dump does at its dump step.  A dump is a few hundred bytes of
memcpy per frame and one encode + fsync per chunk, a fraction of a percent
of an MD step, so there is nothing to hide behind a thread.

Writer discipline — the ``.rtrj`` file is its own index, nothing is
written beside it:

* A chunk commit **appends + fsyncs** the chunk to the data file and
  does nothing else.  A kill at any point leaves a prefix of committed
  chunks, possibly followed by a torn one.
* The embedded footer index is written only on clean :meth:`close`; its
  absence is the reliable signal of an unclean shutdown.
* A kill mid-append leaves a torn tail; the reader detects it from the
  chunk CRCs and stops cleanly instead of failing (a simulated torn
  chunk can be injected deterministically via the ``traj.torn_chunk``
  fault channel).

Reader index: the embedded footer after a clean close, otherwise a full
sequential scan with ``CHNK``-magic resynchronization across damaged
regions.  Chunks are decoded lazily; a chunk that fails its CRC is
**quarantined** — counted, never yielded — so the reader's contract is
"never return a corrupt frame".
"""

from __future__ import annotations

import os
import zlib
from bisect import bisect_right
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..obs import span
from .format import (
    CHUNK_HEADER_SIZE,
    CHUNK_MAGIC,
    FileHeader,
    Frame,
    IndexEntry,
    TrajError,
    TrajFormatError,
    decode_chunk_header,
    decode_payload,
    encode_chunk,
    encode_footer,
    encode_header,
    read_footer,
    read_header,
)

__all__ = [
    "DEFAULT_FRAMES_PER_CHUNK",
    "FrameQuarantinedError",
    "TrajectoryReader",
    "TrajectoryWriter",
]

DEFAULT_FRAMES_PER_CHUNK = 16

#: Fault channel consulted once per chunk commit (kept in sync with
#: :data:`repro.resilience.TRAJ_TORN_CHUNK`; redefined here so the traj
#: layer has no import dependency on resilience).
TRAJ_TORN_CHUNK = "traj.torn_chunk"


class FrameQuarantinedError(TrajError):
    """Random access into a chunk that failed its checksum."""


def _scan_chunks(
    fh, file_size: int, start: int
) -> Tuple[List[IndexEntry], int, bool]:
    """Sequential chunk discovery with magic-based resync.

    Walks chunks from ``start``, CRC-verifying each payload.  A damaged
    chunk (bad header *or* bad payload) triggers a forward search for the
    next verifying ``CHNK`` magic, so one corrupt region never hides the
    rest of the file — crucially, a *torn* chunk whose declared payload
    length overshoots the next chunk's actual start is resynced from just
    past its header, not from its (fictional) declared end.  Damaged
    chunks keep an index entry (their header says how many frames they
    held, which the quarantine accounting needs); the reader re-fails
    their CRC on decode.  Returns ``(entries, data_end, torn_tail)``.
    Steps in scan-built entries are unknown (-1).
    """
    entries: List[IndexEntry] = []
    pos = start
    data_end = start
    torn_tail = False
    while pos + CHUNK_HEADER_SIZE <= file_size:
        fh.seek(pos)
        head = fh.read(CHUNK_HEADER_SIZE)
        try:
            ch = decode_chunk_header(head)
        except TrajFormatError:
            # Damaged header: resync on the next verifying CHNK magic.
            nxt = _find_next_chunk(fh, pos + 1, file_size)
            if nxt is None:
                torn_tail = torn_tail or pos < file_size
                break
            pos = nxt
            continue
        end = pos + CHUNK_HEADER_SIZE + ch.payload_len
        if end > file_size:
            # Torn tail: the header landed but the payload did not.
            entries.append(IndexEntry(pos, ch.first_frame, ch.n_frames))
            torn_tail = True
            break
        payload = fh.read(ch.payload_len)
        entries.append(IndexEntry(pos, ch.first_frame, ch.n_frames))
        if zlib.crc32(payload) == ch.payload_crc:
            data_end = end
            pos = end
        else:
            # Torn/corrupt payload: the next chunk may start anywhere
            # after this header (a torn write is shorter than declared).
            nxt = _find_next_chunk(fh, pos + CHUNK_HEADER_SIZE, file_size)
            if nxt is None:
                torn_tail = True
                break
            pos = nxt
    if not torn_tail and 0 < file_size - pos < CHUNK_HEADER_SIZE:
        torn_tail = True
    return entries, data_end, torn_tail


def _find_next_chunk(fh, start: int, file_size: int) -> Optional[int]:
    """Next offset >= start holding a verifying chunk header, if any."""
    block = 1 << 20
    pos = start
    carry = b""
    carry_base = start
    while pos < file_size:
        fh.seek(pos)
        buf = carry + fh.read(min(block, file_size - pos))
        base = carry_base
        at = 0
        while True:
            hit = buf.find(CHUNK_MAGIC, at)
            if hit < 0:
                break
            cand = base + hit
            fh.seek(cand)
            try:
                decode_chunk_header(fh.read(CHUNK_HEADER_SIZE))
                return cand
            except TrajFormatError:
                at = hit + 1
        pos += len(buf) - len(carry)
        carry = buf[-(len(CHUNK_MAGIC) - 1) :]
        carry_base = pos - len(carry)
    return None


def _header_from_system(
    system, frames_per_chunk: int, compressed: bool
) -> FileHeader:
    pbc = (
        tuple(bool(b) for b in system.cell.pbc)
        if system.cell is not None
        else (False, False, False)
    )
    return FileHeader(
        n_atoms=system.n_atoms,
        species=np.asarray(system.species, dtype=np.int64),
        masses=np.asarray(system.masses, dtype=np.float64),
        species_names=tuple(system.species_names or ()),
        pbc=pbc,
        frames_per_chunk=int(frames_per_chunk),
        compressed=bool(compressed),
    )


class TrajectoryWriter:
    """Chunked trajectory writer with crash-atomic commits.

    Determinism contract (the kill-and-resume guarantee): the MD driver
    dumps on an absolute-step schedule and calls :meth:`barrier`
    immediately before every checkpoint save, which pins chunk boundaries
    to the checkpoint schedule.  A run resumed from a checkpoint
    (``append_from=``) therefore appends exactly the missing frames and the
    file ends up byte-identical to an uninterrupted run.  :meth:`abort` is
    the crash-shaped close: every frame past the last committed chunk is
    lost, exactly what a kill at that call leaves behind.  :meth:`rollback`
    drops past-the-restore frames when the watchdog recovers in-process.

    Parameters
    ----------
    system:
        Source of the per-file tables (species, masses, names, pbc).
        Required when creating a new file; optional on append.
    append_from:
        Resume mode: open an existing file, index the prefix of chunks that
        decode, and :meth:`rollback` to ``append_from`` before appending (a
        chunk straddling the cut is decoded and its prefix re-buffered).
        The result is as if the original run had simply continued — the
        ingredient for bitwise kill-and-resume trajectories.
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan`; the
        ``traj.torn_chunk`` channel is consulted once per commit, and a
        firing writes a truncated chunk (header intact, payload cut) —
        what a kill mid-append leaves behind.
    """

    def __init__(
        self,
        path: Union[str, Path],
        system=None,
        frames_per_chunk: int = DEFAULT_FRAMES_PER_CHUNK,
        compression: bool = True,
        append_from: Optional[int] = None,
        registry=None,
        fault_plan=None,
    ) -> None:
        if frames_per_chunk < 1:
            raise ValueError("frames_per_chunk must be >= 1")
        self.path = Path(path)
        self.fault_plan = fault_plan
        self._buffer: List[Frame] = []
        self._entries: List[IndexEntry] = []
        self.frames_recorded = 0
        self.frames_durable = 0  # frames the writer committed (torn included)
        self.n_torn = 0
        self.closed = False
        if registry is not None:
            self._c_recorded = registry.counter("traj.frames_recorded")
            self._c_frames = registry.counter("traj.frames_written")
            self._c_chunks = registry.counter("traj.chunks_committed")
            self._c_bytes = registry.counter("traj.bytes_written")
            self._c_torn = registry.counter("traj.torn_chunks")
        else:
            self._c_recorded = self._c_frames = self._c_chunks = None
            self._c_bytes = self._c_torn = None

        if append_from is not None and self.path.exists():
            self._open_append(append_from)
        else:
            if system is None:
                raise ValueError("a System is required to create a new trajectory")
            self.header = _header_from_system(system, frames_per_chunk, compression)
            self._fh = open(self.path, "w+b")
            self._fh.write(encode_header(self.header))
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._data_start = self._fh.tell()
            self._data_end = self._data_start

    # -- resume-append --------------------------------------------------------
    def _open_append(self, append_from: int) -> None:
        self._fh = open(self.path, "r+b")
        self.header, self._data_start = read_header(self._fh)
        entries, _, _ = _scan_chunks(
            self._fh, os.path.getsize(self.path), self._data_start
        )
        # Index the contiguous prefix of chunks that decode (decoding gives
        # their steps); the first damaged chunk and everything after it is
        # dropped and re-dumped by the replay.  Then the cut at
        # ``append_from`` is the watchdog's rollback, which truncates.
        self._data_end = self._data_start
        for e in entries:
            if e.offset != self._data_end:
                break
            try:
                frames = self._load_entry(e)
            except TrajFormatError:
                break
            self._entries.append(
                IndexEntry(
                    e.offset, self.frames_durable, e.n_frames,
                    frames[0].step, frames[-1].step,
                )
            )
            self.frames_durable += e.n_frames
            self._data_end = self._fh.tell()  # just past the decoded payload
        self.rollback(append_from)

    def _load_entry(self, entry: IndexEntry) -> List[Frame]:
        self._fh.seek(entry.offset)
        ch = decode_chunk_header(self._fh.read(CHUNK_HEADER_SIZE))
        payload = self._fh.read(ch.payload_len)
        return decode_payload(ch, payload, self.header.n_atoms)

    # -- the write path -------------------------------------------------------
    def record(
        self,
        step: int,
        time_fs: float,
        system,
        pe: float = float("nan"),
    ) -> None:
        """Snapshot positions, velocities and cell into a frame; append it."""
        with span("md.dump"):
            frame = Frame(
                step=int(step),
                time_fs=float(time_fs),
                pe=float(pe),
                cell_lengths=(
                    None
                    if system.cell is None
                    else np.array(system.cell.lengths, dtype=np.float64)
                ),
                positions=np.array(system.positions, dtype=np.float64),
                velocities=np.array(system.velocities, dtype=np.float64),
            )
        self.append(frame)
        self.frames_recorded += 1
        if self._c_recorded is not None:
            self._c_recorded.inc()

    def append(self, frame: Frame) -> None:
        """Buffer one frame; commit the chunk when it fills."""
        if self.closed:
            raise TrajError("trajectory writer is closed")
        shape = (self.header.n_atoms, 3)
        for name in ("positions", "velocities"):
            got = np.shape(getattr(frame, name))
            if got != shape:
                raise TrajError(
                    f"frame at step {frame.step}: {name} has shape {got}, but "
                    f"the trajectory holds {self.header.n_atoms} atoms "
                    f"(expected {shape})"
                )
        self._buffer.append(frame)
        if len(self._buffer) >= self.header.frames_per_chunk:
            self.barrier()

    def barrier(self) -> None:
        """Commit the open buffer as one chunk (no-op when empty)."""
        if not self._buffer:
            return
        frames = self._buffer
        self._buffer = []
        first_frame = self.frames_durable
        with span("traj.encode") as sp:
            blob = encode_chunk(
                frames, first_frame, self.header.n_atoms, self.header.compressed
            )
            sp.add("frames", len(frames))
        torn = self.fault_plan is not None and self.fault_plan.fires(TRAJ_TORN_CHUNK)
        if torn:
            # Header lands, payload is cut in half: starts like a real
            # chunk, fails the payload CRC — the worst torn shape.
            payload_len = len(blob) - CHUNK_HEADER_SIZE
            blob = blob[: CHUNK_HEADER_SIZE + max(1, payload_len // 2)]
            self.n_torn += 1
            if self._c_torn is not None:
                self._c_torn.inc()
        with span("traj.flush") as sp:
            self._fh.seek(self._data_end)
            self._fh.write(blob)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            sp.add("bytes", len(blob))
        self._entries.append(
            IndexEntry(
                self._data_end,
                first_frame,
                len(frames),
                frames[0].step,
                frames[-1].step,
            )
        )
        self._data_end += len(blob)
        self.frames_durable += len(frames)
        if self._c_frames is not None:
            self._c_frames.inc(len(frames))
            self._c_chunks.inc()
            self._c_bytes.inc(len(blob))

    def rollback(self, max_step: int) -> None:
        """Drop every frame (buffered or committed) with ``step > max_step``.

        The one truncate-and-rebuffer routine, shared by watchdog recovery
        (the simulation restored a checkpoint at ``max_step``) and resume
        (``append_from=``): frames dumped past the cut vanish so the replay
        re-appends them deterministically.  A committed chunk straddling
        the cut is decoded and its prefix re-buffered; an undecodable
        (torn) straddling chunk is dropped whole — its surviving frames are
        re-dumped by the replay anyway.
        """
        if self.closed:
            raise TrajError("trajectory writer is closed")
        self._buffer = [f for f in self._buffer if f.step <= max_step]
        while self._entries and self._entries[-1].last_step > max_step:
            e = self._entries.pop()
            self.frames_durable -= e.n_frames
            self._data_end = e.offset
            if e.first_step <= max_step:
                try:
                    frames = self._load_entry(e)
                except TrajFormatError:
                    frames = []
                self._buffer = [f for f in frames if f.step <= max_step] + self._buffer
        self._fh.truncate(self._data_end)

    def close(self) -> None:
        """Commit the open buffer, embed the footer index, fsync, close."""
        if self.closed:
            return
        self.barrier()
        self._fh.seek(self._data_end)
        self._fh.write(encode_footer(self._entries, self.frames_durable))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self.closed = True

    def abort(self) -> None:
        """Close without committing the buffer or writing a footer.

        Deterministic crash semantics: the file is left exactly as a kill
        at this moment would — committed chunks durable, open buffer
        lost, no footer.
        """
        if self.closed:
            return
        self._buffer = []
        self._fh.close()
        self.closed = True

    def stats(self) -> Dict:
        return {
            "path": str(self.path),
            "frames_durable": self.frames_durable,
            "frames_buffered": len(self._buffer),
            "chunks_committed": len(self._entries),
            "torn_chunks": self.n_torn,
            "bytes": self._data_end,
            "frames_recorded": self.frames_recorded,
            # Nothing is ever dropped; the key stays for existing readers.
            "frames_dropped": 0,
        }

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class TrajectoryReader:
    """Lazy random-access reader that quarantines damage instead of failing.

    Opening reads the file header and an index: the footer after a clean
    close, otherwise one CRC-verifying scan of the chunks.  Chunks are
    decoded on demand with CRC verification and a one-chunk LRU.
    Iteration skips corrupt chunks (counting their frames as quarantined);
    random access into one raises :class:`FrameQuarantinedError` — either
    way, a corrupt frame is never returned.
    """

    def __init__(self, path: Union[str, Path], registry=None) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        self.header, self._data_start = read_header(self._fh)
        self._size = os.path.getsize(self.path)
        self.index_source = "scan"
        self.torn_tail = False
        self._build_index()
        self._starts = [e.first_frame for e in self._index]
        self._cache: Tuple[int, Optional[List[Frame]]] = (-1, None)
        self.frames_quarantined = 0
        self._quarantined_chunks: set = set()
        self._registry = registry
        if registry is not None:
            self._c_quarantined = registry.counter("traj.frames_quarantined")
        else:
            self._c_quarantined = None

    # -- index ----------------------------------------------------------------
    def _build_index(self) -> None:
        footer = read_footer(self._fh, self._size)
        if footer is not None:
            self._index, self._total, _ = footer
            self.index_source = "footer"
            return
        self._index, _, self.torn_tail = _scan_chunks(
            self._fh, self._size, self._data_start
        )
        self._total = sum(e.n_frames for e in self._index)

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        """Nominal frame count (includes frames later found quarantined)."""
        return self._total

    @property
    def n_chunks(self) -> int:
        return len(self._index)

    def _load_chunk(self, k: int) -> Optional[List[Frame]]:
        if self._cache[0] == k:
            return self._cache[1]
        e = self._index[k]
        try:
            self._fh.seek(e.offset)
            ch = decode_chunk_header(self._fh.read(CHUNK_HEADER_SIZE))
            payload = self._fh.read(ch.payload_len)
            frames = decode_payload(ch, payload, self.header.n_atoms)
        except TrajFormatError:
            if k not in self._quarantined_chunks:
                self._quarantined_chunks.add(k)
                self.frames_quarantined += e.n_frames
                if self._c_quarantined is not None:
                    self._c_quarantined.inc(e.n_frames)
            frames = None
        self._cache = (k, frames)
        return frames

    def read(self, i: int) -> Frame:
        """Frame ``i`` by absolute frame number (O(1) via the index)."""
        if not 0 <= i < self._total:
            raise IndexError(f"frame {i} out of range [0, {self._total})")
        k = bisect_right(self._starts, i) - 1
        e = self._index[k]
        frames = self._load_chunk(k)
        if frames is None:
            raise FrameQuarantinedError(
                f"frame {i} lies in chunk {k} (offset {e.offset}), which "
                "failed its checksum and was quarantined"
            )
        return frames[i - e.first_frame]

    def __getitem__(self, i: int) -> Frame:
        return self.read(i)

    def frames(self) -> Iterator[Frame]:
        """Sequential scan, silently skipping quarantined chunks."""
        for k in range(len(self._index)):
            frames = self._load_chunk(k)
            if frames is None:
                continue
            yield from frames

    def __iter__(self) -> Iterator[Frame]:
        return self.frames()

    def verify(self) -> Dict:
        """Decode every chunk; full integrity accounting for ``traj verify``."""
        chunks = []
        frames_readable = 0
        for k, e in enumerate(self._index):
            frames = self._load_chunk(k)
            ok = frames is not None
            chunks.append(
                {
                    "offset": e.offset,
                    "first_frame": e.first_frame,
                    "n_frames": e.n_frames,
                    "ok": ok,
                }
            )
            if ok:
                frames_readable += e.n_frames
        return {
            "path": self.path.name,
            "n_atoms": self.header.n_atoms,
            "compressed": self.header.compressed,
            "index_source": self.index_source,
            "torn_tail": self.torn_tail,
            "n_chunks": len(self._index),
            "n_frames": self._total,
            "frames_readable": frames_readable,
            "frames_quarantined": self._total - frames_readable,
            "chunks": chunks,
        }

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TrajectoryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
