"""The typed errors a served request can end with.

Every failure a caller sees is one of these (the correctly-or-explicitly
contract); each maps to one ``errors_<class>`` counter.
"""

from __future__ import annotations

__all__ = [
    "ServeError", "ServerOverloaded", "LoadShed", "DeadlineExceeded",
    "ServerStopped", "ModelFailure", "CircuitOpen", "WorkerCrash", "DrainTimeout",
]


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""


class ServerOverloaded(ServeError):
    """Admission rejected: the bounded request queue is full (shed)."""


class LoadShed(ServerOverloaded):
    """QoS shed: dropped by priority/health admission policy (class
    ``shed``); a :class:`ServerOverloaded`, so queue-full handlers see it."""


class DeadlineExceeded(ServeError):
    """The request's end-to-end deadline passed, or could no longer be met,
    before evaluation (error class ``deadline``); it was shed without a
    force call."""


class ServerStopped(ServeError):
    """Submission after ``stop()``: the server no longer accepts work
    (error class ``shutdown``)."""


class ModelFailure(ServeError):
    """Evaluation kept failing (exception or non-finite output) after retries."""


class CircuitOpen(ServeError):
    """The model's circuit breaker is open; request shed without evaluation."""


class WorkerCrash(ServeError):
    """An injected (or real) worker crash during batch evaluation."""


class DrainTimeout(ServeError):
    """The shutdown drain deadline expired with this request still pending."""
