"""What every subcommand shares: logging, tracing, config and profile loading."""

from __future__ import annotations

import contextlib
import json

from ..obs import disable, enable
from ..tune import TuningProfile, apply_profile


def logger(quiet: bool):
    """``print``, or a no-op when ``quiet``."""
    return (lambda *args, **kwargs: None) if quiet else print


@contextlib.contextmanager
def tracing(trace_json, force: bool = False):
    """Global span tracing for one command, exported to ``trace_json`` on exit.

    Off unless a path is given or ``force`` (``profile`` reads the tracer
    itself); yields the tracer, or None when off.
    """
    if trace_json is None and not force:
        yield None
        return
    tracer = enable()
    tracer.clear()
    try:
        yield tracer
    finally:
        disable()
        if trace_json is not None:
            tracer.write_json(trace_json)


def read_config(path, profile_path=None) -> dict:
    """The JSON document at ``path``, with a tuning profile folded in."""
    return apply_profile_path(json.loads(path.read_text()), profile_path)


def apply_profile_path(config: dict, profile_path) -> dict:
    """A config with a saved :class:`TuningProfile`'s winners folded in."""
    if profile_path is None:
        return config
    return apply_profile(config, TuningProfile.load(profile_path))
