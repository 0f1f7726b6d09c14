"""On-disk layout of the binary chunked trajectory format (``.rtrj``).

The paper benchmarks the *whole application including I/O* (§VII-B), so
the dump path gets a real wire format instead of formatted text: a fixed
file header (species, masses, names — everything per-frame records would
otherwise repeat), a stream of self-delimiting chunks of K frames each,
and an optional footer index for O(1) random access.  Every chunk carries
CRC32 checksums over its header and payload, so a torn or bit-rotted
chunk is *detected and quarantined* rather than silently decoded.

Layout (all integers little-endian)::

    File   := FileHeader Chunk* [Footer]
    Chunk  := "CHNK" first_frame:u64 n_frames:u32 flags:u32
              payload_len:u64 payload_crc:u32 header_crc:u32 payload
    Footer := "FOOT" total_frames:u64 n_chunks:u32 IndexEntry*
              footer_crc:u32 footer_len:u64 "RTRJEND\\n"

A frame record is fixed-size (``step:u64 time_fs:f64 pe:f64 cell:3f64
positions:Nx3 f64 velocities:Nx3 f64``), so a chunk payload is a dense
[K, record] block.  Compression (per-file flag) XORs each record with the
previous one *on the raw float64 bit patterns* — exactly invertible,
unlike floating-point subtraction — then deflates with zlib: consecutive
MD frames share exponent/high-mantissa bytes, which deflate removes.

The footer is written only on clean close; a reader that finds no footer
builds its index by one CRC-verifying sequential scan (:mod:`.store`).
The file is its own index: nothing is written beside it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FILE_MAGIC",
    "CHUNK_MAGIC",
    "FOOTER_MAGIC",
    "END_MAGIC",
    "FORMAT_VERSION",
    "TrajError",
    "TrajFormatError",
    "Frame",
    "FileHeader",
    "ChunkHeader",
    "IndexEntry",
    "frame_nbytes",
    "encode_header",
    "read_header",
    "encode_frames",
    "decode_frames",
    "encode_chunk",
    "decode_chunk_header",
    "decode_payload",
    "encode_footer",
    "read_footer",
    "CHUNK_HEADER_SIZE",
]

FILE_MAGIC = b"RPRTRJ1\n"
CHUNK_MAGIC = b"CHNK"
FOOTER_MAGIC = b"FOOT"
END_MAGIC = b"RTRJEND\n"
FORMAT_VERSION = 1

#: File-header flag bits.
FLAG_COMPRESSED = 1 << 0

_HEADER_FIXED = struct.Struct("<8sIIQII3sx")  # magic ver flags n_atoms fpc n_names pbc
_CHUNK_HEADER = struct.Struct("<4sQIIQII")  # magic first nf flags plen pcrc hcrc
_FOOTER_HEAD = struct.Struct("<4sQI")  # magic total_frames n_chunks
_INDEX_ENTRY = struct.Struct("<QQIQQ")  # offset first_frame n_frames first/last step
_FOOTER_TAIL = struct.Struct("<IQ8s")  # footer_crc footer_len end_magic

CHUNK_HEADER_SIZE = _CHUNK_HEADER.size  # 36


class TrajError(Exception):
    """Base error for the binary trajectory layer."""


class TrajFormatError(TrajError):
    """The bytes on disk do not parse as a valid trajectory structure."""


def frame_nbytes(n_atoms: int) -> int:
    """Fixed record size: step + time + pe + cell + positions + velocities."""
    return 8 + 8 + 8 + 24 + 2 * (8 * 3 * n_atoms)


@dataclass
class Frame:
    """One decoded trajectory frame (float64 throughout, bitwise faithful)."""

    step: int
    time_fs: float
    pe: float  # potential energy in eV; NaN when the producer had none
    cell_lengths: Optional[np.ndarray]  # [3] or None for open boundaries
    positions: np.ndarray  # [N, 3]
    velocities: np.ndarray  # [N, 3]


@dataclass
class FileHeader:
    """Per-file invariants: everything per-frame records would repeat."""

    n_atoms: int
    species: np.ndarray  # [N] int64 type indices
    masses: np.ndarray  # [N] float64 AMU
    species_names: Tuple[str, ...]  # may be empty
    pbc: Tuple[bool, bool, bool]
    frames_per_chunk: int
    compressed: bool

    @property
    def frame_nbytes(self) -> int:
        return frame_nbytes(self.n_atoms)


@dataclass(frozen=True)
class ChunkHeader:
    """Parsed chunk header (CRC over its own bytes already verified)."""

    first_frame: int
    n_frames: int
    flags: int
    payload_len: int
    payload_crc: int


@dataclass(frozen=True)
class IndexEntry:
    """One chunk's position in the file, for random access and truncation.

    ``first_step``/``last_step`` are -1 when unknown (index rebuilt from a
    raw scan, where only the chunk headers were read).
    """

    offset: int
    first_frame: int
    n_frames: int
    first_step: int = -1
    last_step: int = -1


# ---------------------------------------------------------------------------
# File header
# ---------------------------------------------------------------------------
def encode_header(header: FileHeader) -> bytes:
    flags = FLAG_COMPRESSED if header.compressed else 0
    pbc = bytes(1 if b else 0 for b in header.pbc)
    parts = [
        _HEADER_FIXED.pack(
            FILE_MAGIC,
            FORMAT_VERSION,
            flags,
            header.n_atoms,
            header.frames_per_chunk,
            len(header.species_names),
            pbc,
        ),
        np.ascontiguousarray(header.species, dtype="<i8").tobytes(),
        np.ascontiguousarray(header.masses, dtype="<f8").tobytes(),
    ]
    for name in header.species_names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def read_header(fh: BinaryIO) -> Tuple[FileHeader, int]:
    """Parse the file header at the current position; returns (header, size).

    Raises :class:`TrajFormatError` with a descriptive message on any
    malformed or truncated header — a file this short never held a frame,
    so there is nothing to salvage.
    """
    fixed = fh.read(_HEADER_FIXED.size)
    if len(fixed) < _HEADER_FIXED.size:
        raise TrajFormatError(
            f"file too short for a trajectory header "
            f"({len(fixed)} < {_HEADER_FIXED.size} bytes)"
        )
    magic, version, flags, n_atoms, fpc, n_names, pbc = _HEADER_FIXED.unpack(fixed)
    if magic != FILE_MAGIC:
        raise TrajFormatError(
            f"bad magic {magic!r}: not a binary trajectory file "
            f"(expected {FILE_MAGIC!r})"
        )
    if version != FORMAT_VERSION:
        raise TrajFormatError(f"unsupported trajectory format version {version}")
    species_raw = fh.read(8 * n_atoms)
    masses_raw = fh.read(8 * n_atoms)
    if len(species_raw) < 8 * n_atoms or len(masses_raw) < 8 * n_atoms:
        raise TrajFormatError("truncated header: species/masses tables cut short")
    names: List[str] = []
    name_bytes = b""
    for _ in range(n_names):
        ln_raw = fh.read(2)
        if len(ln_raw) < 2:
            raise TrajFormatError("truncated header: species-name table cut short")
        (ln,) = struct.unpack("<H", ln_raw)
        raw = fh.read(ln)
        if len(raw) < ln:
            raise TrajFormatError("truncated header: species-name table cut short")
        names.append(raw.decode("utf-8"))
        name_bytes += ln_raw + raw
    crc_raw = fh.read(4)
    if len(crc_raw) < 4:
        raise TrajFormatError("truncated header: checksum missing")
    body = fixed + species_raw + masses_raw + name_bytes
    (crc,) = struct.unpack("<I", crc_raw)
    if crc != zlib.crc32(body):
        raise TrajFormatError("header checksum mismatch: header is corrupt")
    header = FileHeader(
        n_atoms=int(n_atoms),
        species=np.frombuffer(species_raw, dtype="<i8").astype(np.int64),
        masses=np.frombuffer(masses_raw, dtype="<f8").astype(np.float64),
        species_names=tuple(names),
        pbc=tuple(bool(b) for b in pbc),
        frames_per_chunk=int(fpc),
        compressed=bool(flags & FLAG_COMPRESSED),
    )
    return header, len(body) + 4


# ---------------------------------------------------------------------------
# Frame records
# ---------------------------------------------------------------------------
def encode_frames(frames: Sequence[Frame], n_atoms: int) -> bytes:
    """Dense [K, record] block of fixed-size frame records."""
    nb = frame_nbytes(n_atoms)
    out = np.empty(len(frames) * nb, dtype=np.uint8)
    for k, f in enumerate(frames):
        rec = out[k * nb : (k + 1) * nb]
        rec[:8] = np.frombuffer(struct.pack("<Q", f.step), dtype=np.uint8)
        scalars = np.array([f.time_fs, f.pe], dtype="<f8")
        rec[8:24] = scalars.view(np.uint8)
        cell = (
            np.full(3, np.nan) if f.cell_lengths is None else f.cell_lengths
        )
        rec[24:48] = np.ascontiguousarray(cell, dtype="<f8").view(np.uint8)
        pv = 48 + 24 * n_atoms
        rec[48:pv] = np.ascontiguousarray(f.positions, dtype="<f8").reshape(-1).view(
            np.uint8
        )
        rec[pv:] = np.ascontiguousarray(f.velocities, dtype="<f8").reshape(-1).view(
            np.uint8
        )
    return out.tobytes()


def decode_frames(raw: bytes, n_atoms: int) -> List[Frame]:
    nb = frame_nbytes(n_atoms)
    if len(raw) % nb != 0:
        raise TrajFormatError(
            f"payload length {len(raw)} is not a multiple of the "
            f"{nb}-byte frame record"
        )
    frames: List[Frame] = []
    for k in range(len(raw) // nb):
        rec = raw[k * nb : (k + 1) * nb]
        (step,) = struct.unpack_from("<Q", rec, 0)
        time_fs, pe = struct.unpack_from("<dd", rec, 8)
        cell = np.frombuffer(rec, dtype="<f8", count=3, offset=24).astype(np.float64)
        pos = (
            np.frombuffer(rec, dtype="<f8", count=3 * n_atoms, offset=48)
            .astype(np.float64)
            .reshape(n_atoms, 3)
        )
        vel = (
            np.frombuffer(
                rec, dtype="<f8", count=3 * n_atoms, offset=48 + 24 * n_atoms
            )
            .astype(np.float64)
            .reshape(n_atoms, 3)
        )
        frames.append(
            Frame(
                step=int(step),
                time_fs=float(time_fs),
                pe=float(pe),
                cell_lengths=None if np.isnan(cell).all() else cell,
                positions=pos,
                velocities=vel,
            )
        )
    return frames


# ---------------------------------------------------------------------------
# XOR-delta + zlib payload transform
# ---------------------------------------------------------------------------
def _delta_encode(raw: bytes, n_frames: int) -> bytes:
    """XOR each record with its predecessor on raw 64-bit words (lossless)."""
    words = np.frombuffer(raw, dtype="<u8").reshape(n_frames, -1)
    delta = words.copy()
    delta[1:] ^= words[:-1]
    return delta.tobytes()


def _delta_decode(raw: bytes, n_frames: int) -> bytes:
    delta = np.frombuffer(raw, dtype="<u8").reshape(n_frames, -1)
    return np.bitwise_xor.accumulate(delta, axis=0).tobytes()


def _compress_payload(raw: bytes, n_frames: int) -> bytes:
    # Fixed level keeps the byte stream deterministic for a given input.
    return zlib.compress(_delta_encode(raw, n_frames), 6)


def _decompress_payload(payload: bytes, n_frames: int) -> bytes:
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise TrajFormatError(f"chunk payload fails to inflate: {exc}") from exc
    return _delta_decode(raw, n_frames)


# ---------------------------------------------------------------------------
# Chunks
# ---------------------------------------------------------------------------
def encode_chunk(
    frames: Sequence[Frame], first_frame: int, n_atoms: int, compressed: bool
) -> bytes:
    """Header + payload bytes for one committed chunk."""
    raw = encode_frames(frames, n_atoms)
    payload = _compress_payload(raw, len(frames)) if compressed else raw
    flags = FLAG_COMPRESSED if compressed else 0
    head = _CHUNK_HEADER.pack(
        CHUNK_MAGIC,
        first_frame,
        len(frames),
        flags,
        len(payload),
        zlib.crc32(payload),
        0,
    )
    # header_crc covers every header byte before itself.
    head = head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))
    return head + payload


def decode_chunk_header(buf: bytes) -> ChunkHeader:
    """Parse + CRC-verify a 36-byte chunk header; raises on any damage."""
    if len(buf) < CHUNK_HEADER_SIZE:
        raise TrajFormatError(
            f"truncated chunk header ({len(buf)} < {CHUNK_HEADER_SIZE} bytes)"
        )
    magic, first, nf, flags, plen, pcrc, hcrc = _CHUNK_HEADER.unpack(
        buf[:CHUNK_HEADER_SIZE]
    )
    if magic != CHUNK_MAGIC:
        raise TrajFormatError(f"bad chunk magic {magic!r}")
    if hcrc != zlib.crc32(buf[: CHUNK_HEADER_SIZE - 4]):
        raise TrajFormatError("chunk header checksum mismatch")
    return ChunkHeader(
        first_frame=int(first),
        n_frames=int(nf),
        flags=int(flags),
        payload_len=int(plen),
        payload_crc=int(pcrc),
    )


def decode_payload(header: ChunkHeader, payload: bytes, n_atoms: int) -> List[Frame]:
    """CRC-verify and decode one chunk's payload into frames."""
    if len(payload) != header.payload_len:
        raise TrajFormatError(
            f"torn chunk: payload is {len(payload)} of "
            f"{header.payload_len} bytes"
        )
    if zlib.crc32(payload) != header.payload_crc:
        raise TrajFormatError("chunk payload checksum mismatch")
    raw = (
        _decompress_payload(payload, header.n_frames)
        if header.flags & FLAG_COMPRESSED
        else payload
    )
    frames = decode_frames(raw, n_atoms)
    if len(frames) != header.n_frames:
        raise TrajFormatError(
            f"chunk declares {header.n_frames} frames but decodes to {len(frames)}"
        )
    return frames


# ---------------------------------------------------------------------------
# Footer index
# ---------------------------------------------------------------------------
def encode_footer(entries: Sequence[IndexEntry], total_frames: int) -> bytes:
    body = _FOOTER_HEAD.pack(FOOTER_MAGIC, total_frames, len(entries))
    for e in entries:
        body += _INDEX_ENTRY.pack(
            e.offset,
            e.first_frame,
            e.n_frames,
            max(e.first_step, 0),
            max(e.last_step, 0),
        )
    crc = zlib.crc32(body)
    footer_len = len(body) + 4  # through the crc field
    return body + _FOOTER_TAIL.pack(crc, footer_len, END_MAGIC)


def read_footer(
    fh: BinaryIO, file_size: int
) -> Optional[Tuple[List[IndexEntry], int, int]]:
    """Footer index if the file ends with a valid one, else None.

    Returns ``(entries, total_frames, footer_offset)`` — the offset lets
    callers know where the chunk stream ends.  Any damage (missing end
    magic, bad CRC, implausible length) yields None rather than an error:
    a missing footer just means the file was not closed cleanly, and the
    reader's scan takes over.
    """
    tail_size = _FOOTER_TAIL.size
    if file_size < tail_size:
        return None
    fh.seek(file_size - tail_size)
    crc, footer_len, magic = _FOOTER_TAIL.unpack(fh.read(tail_size))
    if magic != END_MAGIC:
        return None
    start = file_size - tail_size - (footer_len - 4)
    if start < 0 or footer_len < _FOOTER_HEAD.size + 4:
        return None
    fh.seek(start)
    body = fh.read(footer_len - 4)
    if len(body) != footer_len - 4 or zlib.crc32(body) != crc:
        return None
    fmagic, total_frames, n_chunks = _FOOTER_HEAD.unpack(
        body[: _FOOTER_HEAD.size]
    )
    if fmagic != FOOTER_MAGIC:
        return None
    want = _FOOTER_HEAD.size + n_chunks * _INDEX_ENTRY.size
    if len(body) != want:
        return None
    entries = []
    off = _FOOTER_HEAD.size
    for _ in range(n_chunks):
        offset, first, nf, fs, ls = _INDEX_ENTRY.unpack_from(body, off)
        off += _INDEX_ENTRY.size
        entries.append(IndexEntry(int(offset), int(first), int(nf), int(fs), int(ls)))
    return entries, int(total_frames), start
