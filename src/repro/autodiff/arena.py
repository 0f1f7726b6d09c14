"""The eager tape's memory: a per-thread bump arena for large kernel outputs.

An eager force call on 10⁴–10⁵ pairs builds a tape of a few dozen
multi-hundred-KB arrays, holds all of them until the backward pass has run,
and frees them together.  ``malloc`` serves each from fresh pages (``mmap``,
or the top of a heap it trims again when the call ends), so every call
faults its whole tape in page by page — the cost the paper's Fig. 5 removes
from LAMMPS+PyTorch by keeping buffers alive across calls.  This module
keeps them alive: while a :func:`scope` is open on the calling thread, the
kernels of :mod:`repro.autodiff.kernels` take the buffers of results the
tape will hold from a few long-lived blocks, and closing the scope rewinds
the blocks for the next call.

Safety is checked, not assumed.  Every array served is a view whose
``base`` is its block, so the block's reference count says whether any
view of it — the array itself, a slice, a reshape, in any thread — is still
reachable when the outermost scope closes.  A block with survivors is
dropped from the arena and left to the garbage collector: nothing a caller
can still reach is ever written again, an escaping intermediate just costs
its block.  Blocks the call did not need, beyond one spare, are released,
so a single large call cannot ratchet the arena up.

The arena knows nothing about autodiff; which results go through it is
decided in ``kernels.py``.
"""

from __future__ import annotations

import math
import sys
import threading
from typing import List, Optional

import numpy as np

#: Smallest result served.  glibc's default ``M_MMAP_THRESHOLD``: at or above
#: it ``malloc`` hands out pages that have to be faulted in on every call;
#: below it chunks are recycled inside the heap and never page-fault, so
#: there is nothing to save.  A property of the allocator, not a tunable.
MIN_BYTES = 128 * 1024
#: Block size, and so the largest result served: a dozen or more per-pair
#: arrays per block at 10⁴–10⁵ pairs, so the unusable tail of a block stays a
#: small share of it.  A result that would not fit an empty block is left to
#: ``malloc``, as before: blocks are all alike, allocated once, never resized.
BLOCK_BYTES = 8 * 1024 * 1024
#: Results start at multiples of this from the block's first byte, which
#: ``malloc`` aligns as it aligns any array's (starting them on cache lines
#: instead was measured: no difference).
_ALIGN = 64


class _ThreadState(threading.local):
    """Class attributes are every thread's defaults, so reading ``open`` on
    a thread that never opened a scope is a plain attribute load — the one
    read every eager kernel call pays."""

    arena: Optional["Arena"] = None  # this thread's arena, once it has one
    open: Optional["Arena"] = None  # the same object while its scope is open


state = _ThreadState()


def _refcounts(blocks: List[np.ndarray]) -> List[int]:
    return [sys.getrefcount(b) for b in blocks]


#: What :func:`_refcounts` reads for a block nothing but the list refers to.
_IDLE_REFCOUNT = _refcounts([np.empty(1, np.uint8)])[0]


class Arena:
    """One thread's blocks, bump cursor and counters (see :func:`scope`)."""

    __slots__ = (
        "blocks", "index", "offset", "depth", "bytes_served", "outputs_served",
        "outputs_requested", "blocks_dropped", "scopes",
    )

    def __init__(self) -> None:
        self.blocks: List[np.ndarray] = []
        self.index = -1  # block the cursor is in; -1: nothing served yet
        self.offset = 0
        self.depth = 0
        self.bytes_served = 0
        self.outputs_served = 0
        self.outputs_requested = 0
        self.blocks_dropped = 0
        self.scopes = 0

    def __enter__(self) -> "Arena":
        if self.depth == 0:
            self.scopes += 1
            state.open = self
        self.depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self.depth -= 1
        if self.depth == 0:
            state.open = None
            self._rewind()

    def take(self, shape, dtype) -> Optional[np.ndarray]:
        """An uninitialised C-contiguous array in a block, or None when the
        result is below :data:`MIN_BYTES` or larger than a block (the
        caller allocates as usual)."""
        self.outputs_requested += 1
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if not MIN_BYTES <= nbytes <= BLOCK_BYTES:
            return None
        if self.index < 0 or self.offset + nbytes > BLOCK_BYTES:
            # On to the next block: a new one if the arena has no more.
            self.index += 1
            self.offset = 0
            if self.index == len(self.blocks):
                self.blocks.append(np.empty(BLOCK_BYTES, np.uint8))
        block = self.blocks[self.index]
        start = self.offset
        self.offset = start + -(-nbytes // _ALIGN) * _ALIGN
        self.outputs_served += 1
        self.bytes_served += nbytes
        return np.ndarray(shape, dtype, buffer=block, offset=start)

    def _rewind(self) -> None:
        """Keep the blocks this call used, plus one, that no view outlived."""
        keep = self.index + 2
        refs = _refcounts(self.blocks)
        reached = self.blocks[:keep]
        self.blocks = [b for b, r in zip(reached, refs) if r == _IDLE_REFCOUNT]
        self.blocks_dropped += len(reached) - len(self.blocks)
        self.index = -1
        self.offset = 0


def scope() -> Arena:
    """Context manager: serve this thread's large eager results from its arena.

    Scopes nest (an ``evaluate`` reached from inside another): inner ones
    share the outermost scope's buffers, and the arena is rewound once,
    when the outermost closes — also when it closes on an exception.  No
    array taken inside may be *relied on* after that point: hand results
    out as copies.  (One that does escape stays valid; see the module
    docstring for what that costs.)
    """
    arena = state.arena
    if arena is None:
        arena = state.arena = Arena()
    return arena


def stats() -> dict:
    """The calling thread's arena: what it holds and what it has served."""
    arena = scope()
    return {
        "blocks": len(arena.blocks),
        "bytes_held": sum(b.size for b in arena.blocks),
        "bytes_served": arena.bytes_served,
        "outputs_served": arena.outputs_served,
        "outputs_requested": arena.outputs_requested,
        "blocks_dropped": arena.blocks_dropped,
        "scopes": arena.scopes,
    }
