"""Load generator that measures the server, not the scheduler.

One generator thread (the caller's) *sleeps* to the next due time, never
less than a millisecond: a spinning generator holds the interpreter lock and
was measured to starve the server's two workers, collapsing a ~4.5 k req/s
server to ~100 req/s with mass ``ServerOverloaded``.

Open loop: request ``k`` is due at ``t0 + k / rate`` whatever the server
does; its latency is stamped from that *due* time in the future's
done-callback, so the wait a stall imposes on later requests is counted, and
how late the generator itself ran is reported.  Closed loop: a fixed number
of permits; each is taken before a submit and released in the done-callback.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Collection

_clock = time.perf_counter
MIN_SLEEP = 1e-3
#: how long to wait for stragglers once the schedule is exhausted
SETTLE_TIMEOUT = 20.0


@dataclass
class Segment:
    """One slice of open- or closed-loop load."""

    sent: int = 0
    ok: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    latencies_ms: list = field(default_factory=list)
    #: how late the generator issued each request (open loop)
    late_ms: list = field(default_factory=list)
    #: completions after a closed-loop slice ended: counted, but in no rate
    late_ok: int = 0
    #: machine speed during the slice (set by the workload; 1.0 = reference)
    speed: float = 1.0


def open_loop(
    submit: Callable[[int], "Future"],  # noqa: F821
    first: int,
    rate: float,
    duration: float,
    keep: Collection[int] = (),
) -> tuple:
    """Send ``rate * duration`` requests on schedule; ``(segment, kept)``.

    ``submit(k)`` issues request number ``k`` (numbering starts at ``first``)
    and returns a future.  ``kept`` maps the request numbers in ``keep`` to
    their results, for the correctness gate.
    """
    n = max(1, int(rate * duration))
    lat = [None] * n  # slot k written once by request k's callback
    late = [0.0] * n
    kept: dict = {}
    settled = threading.Semaphore(0)

    def on_done(k: int, due: float):
        def callback(fut) -> None:
            if fut.exception() is None:
                lat[k] = (_clock() - due) * 1e3
                if first + k in keep:
                    kept[first + k] = fut.result()
            settled.release()

        return callback

    cpu0 = time.process_time()
    t0 = _clock() + 2 * MIN_SLEEP
    k = 0
    in_flight = 0
    while k < n:
        due = t0 + k / rate
        wait = due - _clock()
        if wait > 0:
            time.sleep(max(wait, MIN_SLEEP))
            continue
        late[k] = (_clock() - due) * 1e3
        try:
            submit(first + k).add_done_callback(on_done(k, due))
            in_flight += 1
        except Exception:  # refused at admission: stays None, counts as failed
            pass
        k += 1
    deadline = _clock() + SETTLE_TIMEOUT
    for _ in range(in_flight):
        if not settled.acquire(timeout=max(0.0, deadline - _clock())):
            break
    done = [x for x in lat if x is not None]
    # a request still unsettled after the timeout has failed its user
    return Segment(
        sent=n, ok=len(done), failed=n - len(done), wall=_clock() - t0,
        cpu=time.process_time() - cpu0, latencies_ms=done, late_ms=late,
    ), kept


def closed_loop(
    submit: Callable[[int], "Future"],  # noqa: F821
    first: int,
    permits: int,
    duration: float,
    keep: Collection[int] = (),
) -> tuple:
    """Keep ``permits`` requests outstanding for ``duration``; ``(segment, kept)``.

    ``ok`` counts completions inside the time slice, so ``ok / wall`` is the
    sustained completion rate; the up to ``permits`` requests that complete
    after the slice closed are counted in ``late_ok`` / ``failed`` only.
    """
    sem = threading.Semaphore(permits)
    lock = threading.Lock()
    tally = {"ok": 0, "failed": 0}
    kept: dict = {}

    def on_done(k: int):
        def callback(fut) -> None:
            good = fut.exception() is None
            if good and k in keep:
                kept[k] = fut.result()
            with lock:
                tally["ok" if good else "failed"] += 1
            sem.release()

        return callback

    cpu0 = time.process_time()
    t0 = _clock()
    sent = 0
    while True:
        sem.acquire()
        if _clock() - t0 >= duration:
            sem.release()
            break
        try:
            submit(first + sent).add_done_callback(on_done(first + sent))
        except Exception:  # refused at admission: counts as failed
            with lock:
                tally["failed"] += 1
            sem.release()
        sent += 1
    with lock:
        wall, cpu, ok = _clock() - t0, time.process_time() - cpu0, tally["ok"]
    deadline = _clock() + SETTLE_TIMEOUT
    held = sum(
        sem.acquire(timeout=max(0.0, deadline - _clock())) for _ in range(permits))
    segment = Segment(sent=sent, ok=ok, wall=wall, cpu=cpu)
    segment.late_ok = tally["ok"] - ok
    segment.failed = tally["failed"] + (permits - held)
    return segment, kept
