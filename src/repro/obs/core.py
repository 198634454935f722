"""Tracer and Metrics: the process-local observability primitives.

Two singletons (:data:`TRACER`, :data:`METRICS`) carry all runtime
telemetry.  Both are **disabled by default** and compiled down to
near-zero-cost no-ops in that state: a disabled counter bump is one
attribute test and an early return, a disabled ``span(...)`` returns a
shared reusable null context manager — no event objects, no clock
reads, no allocation beyond the call's own kwargs.  The invariant the
whole subsystem is tested against (DESIGN.md §11): **instrumentation
may change how long a run takes to describe, never what it computes** —
every number and artifact is bit-identical with telemetry on or off.

Enablement: ``REPRO_TRACE`` / ``REPRO_METRICS`` environment variables
(read at import and by every pool worker), :func:`enable` for
programmatic switching (the campaign CLI's ``--trace``), or the
``trace`` / ``metrics`` fields of :class:`repro.config.RuntimeConfig`.
The environment is the cross-process channel: a forked or spawned
worker inherits it, so instrumentation in worker code lights up without
plumbing; the executor additionally forwards the parent's programmatic
state with each task (see :func:`begin_task_capture`).

Span model:

* ``with TRACER.span("detection_matrix", circuit="c7552"):`` records a
  *complete* span — name, monotonic start, duration, nesting depth and
  free-form attributes — when the block exits, including exits via an
  exception (the span is closed and tagged ``error=<type name>``).
* ``TRACER.instant("store.quarantine", path=...)`` records a point
  event — the structured replacement for silent ``RuntimeWarning``
  degradation paths.
* Timestamps are ``time.monotonic_ns()``: on Linux that clock is
  system-wide, so spans recorded in pool workers on the same box order
  correctly against the parent's.

Cross-process aggregation: a worker wraps each task in
:func:`begin_task_capture` / :func:`end_task_capture`, which swap in
fresh buffers and hand back a compact picklable snapshot (events +
counter deltas).  The parent merges snapshots with
:func:`merge_task_snapshot` under a stable ``task:<index>`` site — task
indices, unlike worker pids, are deterministic at any worker count, so
a merged trace is reproducible modulo timing fields.  Counters merge by
summation (commutative), gauges by last-write in task order.
"""

from __future__ import annotations

import os
import time
from typing import Iterator, Mapping

__all__ = [
    "METRICS",
    "METRICS_ENV",
    "Metrics",
    "TRACER",
    "TRACE_ENV",
    "Tracer",
    "begin_task_capture",
    "end_task_capture",
    "enable",
    "enabled_state",
    "merge_task_snapshot",
    "trace_enabled",
    "metrics_enabled",
]

#: Environment variables enabling tracing / metrics (1/true/yes/on).
TRACE_ENV = "REPRO_TRACE"
METRICS_ENV = "REPRO_METRICS"

#: Site label of events recorded in the current process (as opposed to
#: events merged in from worker task snapshots).
LOCAL_SITE = "main"


def _env_on(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


# ---------------------------------------------------------------------- metrics
class Metrics:
    """A typed counter/gauge registry, process-local.

    Counters are monotonically increasing ints or floats
    (:meth:`inc`); gauges are last-value-wins (:meth:`gauge`).  Names
    are dotted strings (``"store.hits.separation"``); there is no label
    system — encode dimensions in the name, which keeps the disabled
    path to a single dict-free early return and the snapshot format to
    one flat dict.
    """

    __slots__ = ("enabled", "_counters", "_gauges")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, int | float] = {}

    def inc(self, name: str, value: int | float = 1) -> None:
        """Bump counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        counters = self._counters
        counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, value: int | float) -> None:
        """Set gauge ``name`` to ``value`` (no-op when disabled)."""
        if not self.enabled:
            return
        self._gauges[name] = value

    def counters(self, prefix: str = "") -> dict[str, int | float]:
        """A copy of the counters, optionally filtered by name prefix."""
        if not prefix:
            return dict(self._counters)
        return {k: v for k, v in self._counters.items() if k.startswith(prefix)}

    def gauges(self) -> dict[str, int | float]:
        return dict(self._gauges)

    def mark(self) -> dict[str, int | float]:
        """An opaque mark for :meth:`delta_since` (a counter snapshot)."""
        return dict(self._counters)

    def delta_since(self, mark: Mapping[str, int | float]) -> dict[str, int | float]:
        """Counter increments since ``mark``, dropping zero deltas."""
        out: dict[str, int | float] = {}
        for name, value in self._counters.items():
            delta = value - mark.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def merge(self, counters: Mapping[str, int | float],
              gauges: Mapping[str, int | float] | None = None) -> None:
        """Fold another registry's counters (summed) and gauges
        (last-write-wins) into this one; ignores the enabled flag so a
        parent always absorbs worker snapshots it asked for."""
        own = self._counters
        for name, value in counters.items():
            own[name] = own.get(name, 0) + value
        if gauges:
            self._gauges.update(gauges)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()


# ----------------------------------------------------------------------- tracer
class _NullSpan:
    """The shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Attribute setter no-op (mirrors :meth:`_Span.set`)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself on exit (normal or exceptional)."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (cache hit, counts)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._depth = tracer._depth
        tracer._depth = self._depth + 1
        tracer._stack.append(self.name)
        self._start = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.monotonic_ns()
        tracer = self._tracer
        tracer._depth = self._depth
        if tracer._stack:  # guarded: a reset() inside the span clears it
            tracer._stack.pop()
        if exc_type is not None:
            # The span closes even when the block raises — tagged, so
            # the trace shows where the exception unwound through.
            self.attrs["error"] = exc_type.__name__
        tracer._events.append(
            ("span", self.name, self._start, end - self._start,
             self._depth, LOCAL_SITE, self.attrs or None)
        )
        return False


class Tracer:
    """Span/instant recorder (see module docstring).

    Events are compact tuples
    ``(kind, name, ts_ns, dur_ns, depth, site, attrs)`` — ``kind`` is
    ``"span"`` or ``"instant"`` (``dur_ns`` 0), ``site`` is
    :data:`LOCAL_SITE` for events recorded here and ``task:<index>``
    for events merged from worker snapshots.
    """

    __slots__ = ("enabled", "_events", "_depth", "_stack")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._events: list[tuple] = []
        self._depth = 0
        self._stack: list[str] = []

    def span(self, name: str, **attrs):
        """A context manager timing the enclosed block.

        Returns the shared null span while disabled — callers never
        branch on the enabled flag themselves.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Record a point event (no-op when disabled)."""
        if not self.enabled:
            return
        self._events.append(
            ("instant", name, time.monotonic_ns(), 0, self._depth,
             LOCAL_SITE, attrs or None)
        )

    def events(self) -> list[tuple]:
        """A snapshot copy of the recorded events, in record order."""
        return list(self._events)

    def open_spans(self) -> list[str]:
        """Names of the currently open (unclosed) spans, outermost
        first.  This is the live view the heartbeat channel
        (:mod:`repro.obs.live`) samples from its writer thread: reading
        a list snapshot is GIL-atomic, so no locking is needed, and a
        beat taken mid-``__enter__``/``__exit__`` merely sees the stack
        a moment earlier or later."""
        return list(self._stack)

    def mark(self) -> int:
        """An opaque mark for :meth:`events_since` (event count)."""
        return len(self._events)

    def events_since(self, mark: int) -> list[tuple]:
        return list(self._events[mark:])

    def spans(self, name: str | None = None) -> Iterator[tuple]:
        for event in self._events:
            if event[0] == "span" and (name is None or event[1] == name):
                yield event

    def merge(self, events: list[tuple], site: str) -> None:
        """Fold worker events in, re-attributed to ``site`` (their own
        local-site label must not collide with the parent's)."""
        self._events.extend(
            (kind, name, ts, dur, depth,
             site if evsite == LOCAL_SITE else evsite, attrs)
            for kind, name, ts, dur, depth, evsite, attrs in events
        )

    def reset(self) -> None:
        self._events.clear()
        self._depth = 0
        self._stack.clear()


#: The process-wide singletons all instrumentation talks to.
TRACER = Tracer(enabled=_env_on(TRACE_ENV))
METRICS = Metrics(enabled=_env_on(METRICS_ENV))


def trace_enabled() -> bool:
    return TRACER.enabled


def metrics_enabled() -> bool:
    return METRICS.enabled


_OMITTED = object()


def enable(trace: bool | None = _OMITTED, metrics: bool | None = _OMITTED) -> None:
    """Programmatically flip the singletons (``None`` leaves a flag
    untouched).  Used by the campaign CLI and tests; prefer the
    environment variables for anything that spawns workers, so the
    setting crosses the process boundary by inheritance.

    Raises ``TypeError`` when called with neither keyword: a bare
    ``enable()`` would otherwise silently do nothing.
    """
    if trace is _OMITTED and metrics is _OMITTED:
        raise TypeError("obs.enable() needs trace= and/or metrics=")
    if trace is not _OMITTED and trace is not None:
        TRACER.enabled = trace
    if metrics is not _OMITTED and metrics is not None:
        METRICS.enabled = metrics


def enabled_state() -> tuple[bool, bool]:
    """The ``(trace, metrics)`` flags, e.g. to forward with a task."""
    return TRACER.enabled, METRICS.enabled


# ------------------------------------------------------- cross-process capture
def begin_task_capture(trace: bool, metrics: bool) -> tuple:
    """Start capturing telemetry for one task in a pool worker.

    Swaps fresh buffers into the singletons (so the snapshot contains
    exactly this task's events/counters, not residue from earlier tasks
    on the same worker) and applies the parent's enablement — the
    parent may have been enabled programmatically, which fork/spawn
    environment inheritance alone would miss.  Returns an opaque token
    for :func:`end_task_capture`.  Workers run tasks sequentially, so
    the buffer swap needs no locking.
    """
    saved = (
        TRACER.enabled, TRACER._events, TRACER._depth, TRACER._stack,
        METRICS.enabled, METRICS._counters, METRICS._gauges,
    )
    TRACER.enabled = trace
    TRACER._events = []
    TRACER._depth = 0
    TRACER._stack = []
    METRICS.enabled = metrics
    METRICS._counters = {}
    METRICS._gauges = {}
    return saved


def end_task_capture(token: tuple) -> dict | None:
    """Finish a task capture; returns the picklable snapshot (or
    ``None`` when nothing was recorded) and restores the pre-capture
    buffers."""
    events = TRACER._events
    counters = METRICS._counters
    gauges = METRICS._gauges
    (TRACER.enabled, TRACER._events, TRACER._depth, TRACER._stack,
     METRICS.enabled, METRICS._counters, METRICS._gauges) = token
    if not events and not counters and not gauges:
        return None
    return {"events": events, "counters": counters, "gauges": gauges}


def merge_task_snapshot(snapshot: Mapping | None, task_index: int) -> None:
    """Fold one worker task snapshot into the parent singletons under
    the stable site label ``task:<index>``.

    Only snapshots of *successful* attempts are merged (the executor
    discards failed-attempt captures), so the merged telemetry is a
    deterministic function of the task list at any worker count:
    exactly one snapshot per task, folded in gather order.
    """
    if not snapshot:
        return
    events = snapshot.get("events")
    if events:
        TRACER.merge(events, f"task:{task_index}")
    counters = snapshot.get("counters")
    gauges = snapshot.get("gauges")
    if counters or gauges:
        METRICS.merge(counters or {}, gauges)
