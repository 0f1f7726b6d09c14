"""The one trajectory writer (crash-atomic chunk commits) and the reader.

:class:`TrajectoryWriter` is synchronous: it runs on the caller's thread,
as a LAMMPS dump does at its dump step.  A dump is a few hundred bytes of
memcpy per frame and one encode + fsync per chunk, a fraction of a percent
of an MD step, so there is nothing to hide behind a thread.

Writer discipline (mirrors :class:`repro.resilience.CheckpointManager`):

* A chunk commit **appends + fsyncs** the chunk to the data file, then
  atomically replaces the sidecar index (``<path>.idx``) via the same
  tmp-file + fsync + ``os.replace`` sequence the checkpoint manager uses.
  A kill between the two leaves a valid data file whose last chunk the
  sidecar merely does not know about — the reader scans past the sidecar
  end and finds it.
* The embedded footer index is written only on clean :meth:`close`; its
  absence is the reliable signal of an unclean shutdown.
* A kill mid-append leaves a torn tail; the reader detects it from the
  chunk CRCs and stops cleanly instead of failing (a simulated torn
  chunk can be injected deterministically via the ``traj.torn_chunk``
  fault channel).

Reader index preference: embedded footer → sidecar (+ scan of anything
past its end) → full sequential scan with ``CHNK``-magic resynchronization
across damaged regions.  Chunks are decoded lazily; a chunk that fails its
CRC is **quarantined** — counted, never yielded — so the reader's contract
is "never return a corrupt frame".
"""

from __future__ import annotations

import json
import os
import tempfile
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
    "sidecar_path",
]

DEFAULT_FRAMES_PER_CHUNK = 16

#: Fault channel consulted once per chunk commit (kept in sync with
#: :data:`repro.resilience.TRAJ_TORN_CHUNK`; redefined here so the traj
#: layer has no import dependency on resilience).
TRAJ_TORN_CHUNK = "traj.torn_chunk"


class FrameQuarantinedError(TrajError):
    """Random access into a chunk that failed its checksum."""


def sidecar_path(path: Union[str, Path]) -> Path:
    return Path(str(path) + ".idx")


def _write_sidecar(path: Path, entries: List[IndexEntry], total_frames: int) -> None:
    """Atomically replace the sidecar index (tmp + fsync + rename)."""
    doc = {
        "version": 1,
        "total_frames": int(total_frames),
        "entries": [
            [e.offset, e.first_frame, e.n_frames, e.first_step, e.last_step]
            for e in entries
        ],
    }
    side = sidecar_path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=side.parent, prefix=f".{side.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, side)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_sidecar(path: Path) -> Optional[Tuple[List[IndexEntry], int]]:
    side = sidecar_path(path)
    try:
        doc = json.loads(side.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != 1:
        return None
    try:
        entries = [
            IndexEntry(int(o), int(ff), int(nf), int(fs), int(ls))
            for o, ff, nf, fs, ls in doc["entries"]
        ]
        return entries, int(doc["total_frames"])
    except (KeyError, TypeError, ValueError):
        return None


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


def _entry_span(fh, entry: IndexEntry) -> int:
    fh.seek(entry.offset)
    ch = decode_chunk_header(fh.read(CHUNK_HEADER_SIZE))
    return CHUNK_HEADER_SIZE + ch.payload_len


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
        Resume mode: open an existing file and truncate it to frames with
        ``step <= append_from`` before appending (a chunk straddling the
        cut is decoded and its prefix re-buffered).  The result is as if
        the original run had simply continued — the ingredient for
        bitwise kill-and-resume trajectories.
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
        self._fh.seek(0)
        self.header, self._data_start = read_header(self._fh)
        size = os.path.getsize(self.path)
        entries, _, _ = _scan_chunks(self._fh, size, self._data_start)
        # Re-verify every chunk (payload CRC + decode for steps); the
        # resumed file must be prefix-valid, so everything from the first
        # damaged chunk onward is dropped and re-dumped by the replay.
        kept: List[IndexEntry] = []
        first_frame = 0
        for e in entries:
            try:
                frames = self._load_entry(e)
            except TrajFormatError:
                break
            if frames[0].step > append_from:
                break
            if frames[-1].step > append_from:
                # Straddling chunk: keep the prefix in the open buffer.
                self._buffer = [f for f in frames if f.step <= append_from]
                break
            kept.append(
                IndexEntry(
                    e.offset, first_frame, e.n_frames,
                    frames[0].step, frames[-1].step,
                )
            )
            first_frame += e.n_frames
        self._entries = kept
        self.frames_durable = first_frame
        self._data_end = (
            kept[-1].offset + _entry_span(self._fh, kept[-1])
            if kept
            else self._data_start
        )
        self._fh.truncate(self._data_end)
        self._fh.seek(self._data_end)

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
        _write_sidecar(self.path, self._entries, self.frames_durable)

    def rollback(self, max_step: int) -> None:
        """Drop every frame (buffered or committed) with ``step > max_step``.

        The rollback half of watchdog recovery: after the simulation
        restores a checkpoint at ``max_step``, frames dumped past it must
        vanish so the replay re-appends them deterministically.  A
        committed chunk straddling the cut is decoded and its prefix
        re-buffered; an undecodable (torn) straddling chunk is dropped
        whole — its surviving frames are re-dumped by the replay anyway.
        """
        if self.closed:
            raise TrajError("trajectory writer is closed")
        self._buffer = [f for f in self._buffer if f.step <= max_step]
        changed = False
        while self._entries and self._entries[-1].first_step > max_step:
            e = self._entries.pop()
            self.frames_durable -= e.n_frames
            self._data_end = e.offset
            changed = True
        if self._entries and self._entries[-1].last_step > max_step:
            e = self._entries.pop()
            self.frames_durable -= e.n_frames
            self._data_end = e.offset
            changed = True
            try:
                frames = self._load_entry(e)
            except TrajFormatError:
                frames = []
            self._buffer = [f for f in frames if f.step <= max_step] + self._buffer
        if changed:
            self._fh.truncate(self._data_end)
            self._fh.seek(self._data_end)
            _write_sidecar(self.path, self._entries, self.frames_durable)

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

    Opening reads only the file header and an index (footer → sidecar →
    scan); chunks are decoded on demand with CRC verification and a
    one-chunk LRU.  Iteration skips corrupt chunks (counting their frames
    as quarantined); random access into one raises
    :class:`FrameQuarantinedError` — either way, a corrupt frame is never
    returned.
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
        side = _read_sidecar(self.path)
        if side is not None:
            entries, total = side
            # Entries past EOF cannot exist; anything between the sidecar's
            # notion of the end and the file's actual end is scanned (a
            # kill between chunk append and sidecar replace leaves exactly
            # one such chunk).
            entries = [e for e in entries if e.offset + CHUNK_HEADER_SIZE <= self._size]
            end = self._data_start
            if entries:
                try:
                    end = entries[-1].offset + _entry_span(self._fh, entries[-1])
                except TrajFormatError:
                    end = self._size
            if end < self._size:
                extra, _, torn = _scan_chunks(self._fh, self._size, end)
                first = entries[-1].first_frame + entries[-1].n_frames if entries else 0
                for e in extra:
                    entries.append(
                        IndexEntry(e.offset, first, e.n_frames, -1, -1)
                    )
                    first += e.n_frames
                self.torn_tail = torn
            self._index = entries
            self._total = sum(e.n_frames for e in entries)
            self.index_source = "sidecar"
            return
        self._index, _, self.torn_tail = _scan_chunks(
            self._fh, self._size, self._data_start
        )
        self._total = sum(e.n_frames for e in self._index)
        self.index_source = "scan"

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
