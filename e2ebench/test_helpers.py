"""Tests of the benchmark's own helpers: ``python3 -m pytest e2ebench``."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from inputs import ChurnStream, RequestStream, udg
from ledger import Ledger, self_times
from reference import NOMINAL_MS, Reference
from stats import percentile, spread, windowed_percentile

BENCH = Path(__file__).resolve().parent


# -- percentile guard --------------------------------------------------------


@pytest.mark.parametrize("p, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(p, enough):
    assert percentile(range(enough), p) == pytest.approx(p / 100 * (enough - 1))
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        percentile(range(enough - 1), p)


def test_windowed_percentile_is_the_median_window_tail():
    calm = [1.0] * 990 + [2.0] * 10
    burst = [1.0] * 900 + [50.0] * 100
    # p99 of each 1000-sample window: ~2 calm, 50 in the burst; the median ignores one burst.
    assert windowed_percentile(calm + burst + calm + calm[:999], 99, 1000) == pytest.approx(
        percentile(calm, 99))
    with pytest.raises(ValueError, match="one window needs"):
        windowed_percentile(calm[:999], 99, 1000)
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        windowed_percentile(calm, 99.5, 1000)


def test_spread_is_interquartile_distance_over_median():
    # statistics.quantiles(1..9, n=4) -> [2.5, 5, 7.5]
    assert spread(range(1, 10)) == pytest.approx(5.0 / 5.0)
    assert spread([10.0] * 8) == 0.0


# -- self-time arithmetic ----------------------------------------------------


def _ev(name, ts, dur, depth=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "args": {"depth": depth}}


def test_self_time_is_duration_minus_child_coverage():
    events = [
        _ev("a", 10, 30, 2),
        _ev("c", 60, 10, 3),
        _ev("b", 50, 40, 2),
        _ev("tick", 0, 100, 1),
        _ev("tick", 200, 20, 1),
    ]
    got = {(e["name"], e["ts"]): (own, events[root]["ts"]) for e, own, root in self_times(events)}
    assert got[("tick", 0)] == (100 - 30 - 40, 0)
    assert got[("a", 10)] == (30, 0)
    assert got[("b", 50)] == (40 - 10, 0)
    assert got[("c", 60)] == (10, 0)
    assert got[("tick", 200)] == (20, 200)


def test_equal_intervals_nest_by_depth_and_overlaps_count_once():
    events = [_ev("inner", 0, 10, 2), _ev("outer", 0, 10, 1)]
    own = {e["name"]: o for e, o, _ in self_times(events)}
    assert own == {"outer": 0, "inner": 10}
    # Two children whose intervals overlap cover their union, not the sum.
    events = [_ev("p", 0, 100, 1), _ev("x", 10, 20, 2), _ev("y", 20, 20, 2)]
    own = {e["name"]: o for e, o, _ in self_times(events)}
    assert own["p"] == 100 - 30


def test_ledger_self_times_add_up_to_root_wall():
    ledger = Ledger(("tick", "request"))
    ledger.add([_ev("tick", 0, 100), _ev("a", 10, 30, 2), _ev("b", 50, 40, 2), _ev("c", 60, 10, 3)])
    ledger.add([_ev("request", 0, 7), _ev("lookup", 1, 2, 2), _ev("stray", 50, 1)])
    assert ledger.wall == {"tick": 100, "request": 7}
    assert ledger.roots == {"tick": 1, "request": 1}
    assert ledger.unbalanced("tick") == 0 and ledger.unbalanced("request") == 0
    assert ledger.self_us("tick", "b", "c") == 40
    assert ledger.count("request", "lookup") == 1
    assert "stray" not in ledger.table["request"]
    assert "lookup" in ledger.format()


# -- generated inputs --------------------------------------------------------


def _inputs(seed):
    edges = udg(289, 12.0, seed)
    churn = ChurnStream(edges, 5, seed)
    reqs = RequestStream(289, "zipf", seed)
    return edges, [churn.next_tick() for _ in range(100)], [reqs.batch(25) for _ in range(4)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _inputs(3) == _inputs(3)
    assert _inputs(3) != _inputs(4)


def test_churn_episode_is_valid_and_returns_to_the_initial_graph():
    edges = udg(196, 12.0, 1)
    churn = ChurnStream(edges, 3, 1)
    live = set(edges)
    for tick in churn.ticks:
        for kind, u, v in tick:
            assert u < v
            if kind == "remove":
                live.remove((u, v))
            else:
                assert (u, v) not in live
                live.add((u, v))
    assert live == set(edges)


def test_udg_wants_a_square_node_count():
    with pytest.raises(ValueError, match="square"):
        udg(200, 12.0, 1)


def test_requests_are_in_range_and_never_self_routes():
    for kind in ("uniform", "zipf"):
        for s, t in RequestStream(50, kind, 9).batch(2000):
            assert 0 <= s < 50 and 0 <= t < 50 and s != t


@pytest.mark.parametrize("module, allowed", [
    ("inputs", {"__future__", "math", "numpy"}),
    ("reference", {"__future__", "statistics", "subprocess", "sys", "time", "pathlib", "numpy", "inputs"}),
])
def test_inputs_and_reference_do_not_depend_on_the_code_under_test(module, allowed):
    tree = ast.parse((BENCH / f"{module}.py").read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in (node.names if isinstance(node, ast.Import) else [ast.alias(node.module or "")])
    }
    assert imported <= allowed
    code = f"import sys, {module}; print(any(m.split('.')[0] == 'repro' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reference_factor_is_median_time_over_nominal():
    with Reference() as ref:
        ref.sample()
        assert [len(v) for v in ref.samples.values()] == [1, 1]
        # A fan-out waits for the two helpers' timed runs (and their warm-ups).
        assert 0 < ref.samples["serial"][0] < ref.samples["fanout"][0]
        ref.samples = {"serial": [NOMINAL_MS["serial"] / 1e3 * x for x in (1, 2, 4)],
                       "fanout": [NOMINAL_MS["fanout"] / 1e3 * x for x in (8, 8, 16)]}
        # Geometric mean of the two medians over nominal: sqrt(2 * 8).
        assert ref.factor() == pytest.approx(4.0)
        assert ref.factor(last=2) == pytest.approx((3 * 12) ** 0.5)
    assert all(helper.returncode == 0 for helper in ref._helpers)
