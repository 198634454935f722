"""Tracer/Metrics primitives: spans, counters, capture, disabled path."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.core import LOCAL_SITE, _NULL_SPAN


class TestMetrics:
    def test_disabled_records_nothing(self):
        obs.METRICS.inc("x")
        obs.METRICS.gauge("g", 7)
        assert obs.METRICS.counters() == {}
        assert obs.METRICS.gauges() == {}

    def test_counters_sum_and_filter(self):
        obs.enable(metrics=True)
        obs.METRICS.inc("store.hits")
        obs.METRICS.inc("store.hits", 2)
        obs.METRICS.inc("engine.full")
        assert obs.METRICS.counters()["store.hits"] == 3
        assert obs.METRICS.counters("store.") == {"store.hits": 3}

    def test_delta_since_drops_zero_deltas(self):
        obs.enable(metrics=True)
        obs.METRICS.inc("a")
        mark = obs.METRICS.mark()
        obs.METRICS.inc("b", 2)
        assert obs.METRICS.delta_since(mark) == {"b": 2}

    def test_merge_sums_counters_last_writes_gauges(self):
        obs.enable(metrics=True)
        obs.METRICS.inc("n", 1)
        obs.METRICS.gauge("g", 1)
        obs.METRICS.merge({"n": 4, "m": 2}, {"g": 9})
        assert obs.METRICS.counters() == {"n": 5, "m": 2}
        assert obs.METRICS.gauges() == {"g": 9}


class TestTracer:
    def test_disabled_span_is_shared_null(self):
        assert obs.TRACER.span("x", a=1) is _NULL_SPAN
        with obs.TRACER.span("x") as span:
            span.set(ignored=True)
        assert obs.TRACER.events() == []

    def test_spans_nest_with_depth(self):
        obs.enable(trace=True)
        with obs.TRACER.span("outer"):
            with obs.TRACER.span("inner"):
                pass
        events = obs.TRACER.events()
        # Inner closes (and records) first; depths reflect nesting.
        by_name = {e[1]: e for e in events}
        assert by_name["outer"][4] == 0
        assert by_name["inner"][4] == 1
        assert by_name["inner"][2] >= by_name["outer"][2]  # started later
        assert all(e[5] == LOCAL_SITE for e in events)

    def test_span_closes_under_exception_and_tags_error(self):
        obs.enable(trace=True)
        with pytest.raises(ValueError):
            with obs.TRACER.span("doomed", stage="x"):
                raise ValueError("boom")
        (event,) = obs.TRACER.events()
        kind, name, _ts, dur, depth, _site, attrs = event
        assert (kind, name, depth) == ("span", "doomed", 0)
        assert dur >= 0
        assert attrs["stage"] == "x"
        assert attrs["error"] == "ValueError"
        # Depth unwound correctly: the next span is top-level again.
        with obs.TRACER.span("after"):
            pass
        assert obs.TRACER.events()[-1][4] == 0

    def test_instant_and_mid_span_attrs(self):
        obs.enable(trace=True)
        with obs.TRACER.span("op") as span:
            obs.TRACER.instant("tick", n=1)
            span.set(outcome="hit")
        events = obs.TRACER.events()
        assert events[0][:2] == ("instant", "tick")
        assert events[0][4] == 1  # recorded inside the span
        assert events[1][6]["outcome"] == "hit"


class TestTaskCapture:
    def test_capture_isolates_and_snapshot_merges(self):
        obs.enable(trace=True, metrics=True)
        obs.METRICS.inc("before")
        token = obs.begin_task_capture(True, True)
        with obs.TRACER.span("work"):
            obs.METRICS.inc("inside", 3)
        snapshot = obs.end_task_capture(token)
        # Pre-capture state is restored untouched.
        assert obs.METRICS.counters() == {"before": 1}
        assert obs.TRACER.events() == []
        assert snapshot["counters"] == {"inside": 3}
        obs.merge_task_snapshot(snapshot, 5)
        assert obs.METRICS.counters() == {"before": 1, "inside": 3}
        (event,) = obs.TRACER.events()
        assert event[5] == "task:5"

    def test_empty_capture_returns_none(self):
        token = obs.begin_task_capture(True, True)
        assert obs.end_task_capture(token) is None
        obs.merge_task_snapshot(None, 0)  # no-op

    def test_capture_applies_parent_flags(self):
        # Worker process had obs disabled; the forwarded spec turns it on
        # for exactly the duration of the task.
        assert obs.enabled_state() == (False, False)
        token = obs.begin_task_capture(True, True)
        assert obs.enabled_state() == (True, True)
        obs.METRICS.inc("task_metric")
        snapshot = obs.end_task_capture(token)
        assert obs.enabled_state() == (False, False)
        assert snapshot["counters"] == {"task_metric": 1}


class TestRuntimeConfig:
    def test_apply_observability(self):
        from repro.config import RuntimeConfig

        RuntimeConfig(trace=True, metrics=True).apply_observability()
        assert obs.enabled_state() == (True, True)
        RuntimeConfig().apply_observability()  # None fields: unchanged
        assert obs.enabled_state() == (True, True)
        RuntimeConfig(trace=False, metrics=False).apply_observability()
        assert obs.enabled_state() == (False, False)

    def test_enable_needs_a_flag(self):
        with pytest.raises(TypeError, match="trace=.*metrics="):
            obs.enable()
        obs.enable(trace=True, metrics=None)  # explicit None: untouched
        assert obs.enabled_state() == (True, False)
