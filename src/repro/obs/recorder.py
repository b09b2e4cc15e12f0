"""The process-wide recorder: the on/off switch for all observability.

``recorder()`` returns the active :class:`Recorder` or ``None``; every
instrumented tier grabs the registry/tracer **at construction** and hot
paths reduce to a single ``if self._tracer is not None`` — when
recording is off nothing is allocated, timed or counted (the bench
asserts < 2 % overhead for the disabled state).

Activation:

* programmatic — ``obs.configure(metrics=True, timeline=True)`` /
  ``obs.disable()``, or the scoped ``with obs.recording(...):``;
* environment — ``REPRO_OBS`` read once at import: unset/``0``/``off``
  disabled, ``1``/``metrics``/``on`` metrics only, ``timeline``/``full``
  metrics + timeline.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import DEFAULT_CAPACITY, TimelineTracer

ENV_VAR = "REPRO_OBS"

_LOG = logging.getLogger(__name__)


class Recorder:
    """The active metrics registry and (optionally) timeline tracer."""

    __slots__ = ("registry", "tracer")

    def __init__(
        self,
        *,
        metrics: bool = True,
        timeline: bool = False,
        capacity: int = DEFAULT_CAPACITY,
    ):
        self.registry = MetricsRegistry() if metrics else None
        self.tracer = TimelineTracer(capacity=capacity) if timeline else None


_active: Recorder | None = None


def recorder() -> Recorder | None:
    """The active recorder, or None when observability is disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def configure(
    *,
    metrics: bool = True,
    timeline: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> Recorder:
    """Install (and return) a fresh recorder as the process-wide one."""
    global _active
    _active = Recorder(metrics=metrics, timeline=timeline, capacity=capacity)
    return _active


def disable() -> None:
    """Drop the active recorder; instrumentation reverts to no-ops."""
    global _active
    _active = None


@contextmanager
def recording(
    *,
    metrics: bool = True,
    timeline: bool = False,
    capacity: int = DEFAULT_CAPACITY,
):
    """Scoped recorder: installs a fresh one, restores the previous on
    exit, and yields the recorder for inspection."""
    global _active
    previous = _active
    rec = Recorder(metrics=metrics, timeline=timeline, capacity=capacity)
    _active = rec
    try:
        yield rec
    finally:
        _active = previous


def metrics_registry() -> MetricsRegistry | None:
    """The active registry, or None (the construction-time grab)."""
    rec = _active
    return rec.registry if rec is not None else None


def tracer() -> TimelineTracer | None:
    """The active timeline tracer, or None (the construction-time grab)."""
    rec = _active
    return rec.tracer if rec is not None else None


def _configure_from_env() -> None:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in ("", "0", "off", "none"):
        return
    if value in ("1", "on", "metrics"):
        configure(metrics=True)
    elif value in ("timeline", "trace", "full"):
        configure(metrics=True, timeline=True)
    else:
        # A typo'd env var must not take down every import of the
        # library; warn and stay disabled.
        _LOG.warning(
            "%s=%r not recognised (expected off/metrics/timeline); "
            "observability stays disabled",
            ENV_VAR,
            value,
        )


_configure_from_env()
