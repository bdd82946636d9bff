"""repro.obs.metrics: registry semantics and exact snapshot algebra."""

import pytest

from repro.errors import ParameterError
from repro.obs.metrics import (
    COUNT_BOUNDS,
    TIME_BOUNDS_US,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    empty_snapshot,
    format_diff,
    format_snapshot,
    merge_snapshots,
)


class TestRegistry:
    def test_counters_add_and_default_to_zero(self):
        reg = MetricsRegistry()
        assert reg.counter("never.touched") == 0
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b", 2.5)
        assert reg.counter("a") == 5
        assert reg.counter("b") == 2.5

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1)
        reg.gauge("g", 9.5)
        assert reg.snapshot()["gauges"] == {"g": 9.5}

    def test_histogram_bucket_placement(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        # bucket i counts values <= bounds[i]; last cell is overflow
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.0)
        assert snap["min"] == 0.5 and snap["max"] == 100.0

    @pytest.mark.parametrize("seed", range(5))
    def test_observe_many_equals_observing_each(self, seed):
        import random

        rng = random.Random(seed)
        bounds = TIME_BOUNDS_US if seed % 2 else COUNT_BOUNDS
        one, bulk = Histogram(bounds), Histogram(bounds)
        for batch in range(4):
            values = [rng.choice(bounds) for _ in range(5)]  # exactly on a boundary
            values += [rng.uniform(-1.0, 2 * bounds[-1]) for _ in range(40)]
            values += [rng.randrange(0, 70) for _ in range(10)]  # ints, as hop counts
            rng.shuffle(values)
            for v in values:
                one.observe(v)
            bulk.observe_many(values)
            assert bulk.snapshot() == one.snapshot()  # bit-for-bit, sum included
        bulk.observe_many([])
        assert bulk.snapshot() == one.snapshot()

    def test_registry_observe_many_creates_with_bounds_once(self):
        reg = MetricsRegistry()
        reg.observe_many("h", [])
        assert reg.histogram("h") is None  # nothing observed, nothing created
        reg.observe_many("h", [3, 9], COUNT_BOUNDS)
        reg.observe_many("h", [5.0], (100.0, 200.0))  # ignored: histogram exists
        hist = reg.histogram("h")
        assert hist.bounds == COUNT_BOUNDS
        assert hist.count == 3 and hist.vmin == 3.0 and hist.vmax == 9.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ParameterError):
            Histogram(bounds=())
        with pytest.raises(ParameterError):
            Histogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ParameterError):
            Histogram(bounds=(2.0, 1.0))

    def test_observe_bounds_honoured_only_at_creation(self):
        reg = MetricsRegistry()
        reg.observe("h", 3.0, COUNT_BOUNDS)
        reg.observe("h", 5.0, (100.0, 200.0))  # ignored: histogram exists
        hist = reg.histogram("h")
        assert hist.bounds == COUNT_BOUNDS
        assert hist.count == 2

    def test_observe_default_bounds_are_time_buckets(self):
        reg = MetricsRegistry()
        reg.observe("lat", 42.0)
        assert reg.histogram("lat").bounds == TIME_BOUNDS_US

    def test_snapshot_schema_and_reset(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.gauge("g", 1.0)
        reg.observe("h", 5.0, COUNT_BOUNDS)
        snap = reg.snapshot_and_reset()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert set(snap["histograms"]["h"]) == {
            "bounds", "counts", "count", "sum", "min", "max",
        }
        assert reg.snapshot() == empty_snapshot()


def _filled(values):
    reg = MetricsRegistry()
    for v in values:
        reg.inc("ops", 1)
        reg.inc("bytes", 10 * v)
        reg.observe("size", v, COUNT_BOUNDS)
        reg.gauge("last", v)
    return reg


class TestMergeAndDiff:
    def test_merge_is_exact(self):
        # Splitting a stream over two registries and merging must be
        # bit-identical to one registry seeing the whole stream.
        values = [1.0, 3.0, 7.0, 9.0, 200.0, 5000.0]
        whole = _filled(values).snapshot()
        parts = merge_snapshots(
            _filled(values[:2]).snapshot(), _filled(values[2:]).snapshot()
        )
        assert parts == whole

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots() == empty_snapshot()

    def test_merge_with_empty_is_identity(self):
        snap = _filled([2.0, 4.0]).snapshot()
        assert merge_snapshots(snap, empty_snapshot()) == snap

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.observe("h", 1.0, (1.0, 2.0))
        b.observe("h", 1.0, (1.0, 3.0))
        with pytest.raises(ParameterError):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_diff_counters_gauges_histograms(self):
        old = _filled([1.0]).snapshot()
        new = _filled([1.0, 8.0]).snapshot()
        delta = diff_snapshots(old, new)
        assert delta["counters"]["ops"] == 1
        assert delta["counters"]["bytes"] == 80.0
        assert delta["gauges"]["last"] == {"old": 1.0, "new": 8.0}
        assert delta["histograms"]["size"] == {"count": 1, "sum": 8.0}

    def test_diff_of_identical_snapshots_is_empty(self):
        snap = _filled([3.0]).snapshot()
        delta = diff_snapshots(snap, snap)
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_format_smoke(self):
        snap = _filled([2.0, 6.0]).snapshot()
        text = format_snapshot(snap)
        assert "counters:" in text and "ops" in text and "histograms:" in text
        assert format_snapshot(empty_snapshot()) == "(empty snapshot)"
        assert format_diff(snap, snap) == "(no differences)"
        assert "+1" in format_diff(_filled([2.0]).snapshot(), snap)
