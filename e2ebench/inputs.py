"""Seeded workload inputs, generated without importing the code under test.

Everything here is plain Python ints and tuples drawn from NumPy's
``default_rng``: a unit-disk topology, a link failure/recovery stream cut
into ticks, and request streams.  Keeping the generator apart from
``repro`` means a change to the program cannot change what it is measured
on; the same seed always gives the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ChurnStream", "RequestStream", "udg"]

REMOVE, ADD = "remove", "add"
EPISODE = 500  # ticks in a churn stream's forward episode (and in its reverse)
FAIL_PROB = 0.55  # chance that a forward-episode event fails a live link
ZIPF_EXPONENT = 1.3  # skew of zipf-targeted requests over destination rank


def _rng(seed: int, tag: str) -> np.random.Generator:
    # One independent stream per (seed, input kind): adding a consumer of
    # one stream never shifts another.
    return np.random.default_rng([seed, *tag.encode("utf-8")])


def udg(n: int, degree: float, seed: int) -> "list[tuple[int, int]]":
    """Edges ``u < v`` of a unit-disk graph on *n* jittered points.

    *n* must be a square, k².  The points lie on a torus (a square whose
    opposite sides meet), one uniformly placed in each cell of a k×k grid,
    and node ids are a seeded shuffle of the cells.  The square's side
    gives density ``n / side²`` times the unit disk's area = *degree*.
    With no boundary and no empty or crowded regions, the graphs of
    different seeds differ little in path lengths and in the repair work
    a link failure causes, so seeds change the inputs but hardly the load.
    """
    k = math.isqrt(n)
    if k * k != n:
        raise ValueError(f"n must be a square, got {n}")
    side = math.sqrt(n * math.pi / degree)
    rng = _rng(seed, "udg")
    cells = np.stack(np.divmod(np.arange(n), k), axis=1)
    pts = ((cells + rng.uniform(0.0, 1.0, size=(n, 2))) * (side / k))[rng.permutation(n)]
    edges: "list[tuple[int, int]]" = []
    for u in range(n - 1):
        gap = np.abs(pts[u + 1 :] - pts[u])
        d2 = (np.minimum(gap, side - gap) ** 2).sum(axis=1)
        edges.extend((u, u + 1 + int(j)) for j in np.flatnonzero(d2 <= 1.0))
    return edges


class ChurnStream:
    """Link failure/recovery ticks over a fixed edge set.

    A forward episode of :data:`EPISODE` ticks fails a random live link
    with probability :data:`FAIL_PROB` and otherwise recovers a random
    failed one.
    The reverse episode then undoes it, event by event, which returns the
    graph to its initial state; the two repeat for as long as a run asks.
    The work per tick therefore has the same distribution however many
    ticks a faster or slower program gets through in its time budget.
    """

    def __init__(self, edges: "list[tuple[int, int]]", tick: int, seed: int) -> None:
        rng = _rng(seed, "churn")
        live = sorted(edges)
        down: "list[tuple[int, int]]" = []
        forward: "list[tuple[str, int, int]]" = []
        for _ in range(EPISODE * tick):
            fail = not down or rng.random() < FAIL_PROB
            pool = live if fail else down
            i = int(rng.integers(len(pool)))
            pool[i], pool[-1] = pool[-1], pool[i]
            edge = pool.pop()
            (down if fail else live).append(edge)
            forward.append((REMOVE if fail else ADD, *edge))
        backward = [(ADD if k == REMOVE else REMOVE, u, v) for k, u, v in reversed(forward)]
        events = forward + backward
        self.ticks = [tuple(events[i : i + tick]) for i in range(0, len(events), tick)]
        self._next = 0

    def next_tick(self) -> "tuple[tuple[str, int, int], ...]":
        """The next tick's events as ``(kind, u, v)`` with ``u < v``."""
        out = self.ticks[self._next % len(self.ticks)]
        self._next += 1
        return out


class RequestStream:
    """Route requests ``(source, target)``, ``source != target``.

    ``uniform`` draws both endpoints uniformly.  ``zipf`` draws the target
    by Zipf rank (exponent :data:`ZIPF_EXPONENT`) over a seeded
    permutation of the nodes, so a few destinations - a few columns of
    the tables - are hot, and the source uniformly.
    """

    def __init__(self, n: int, kind: str, seed: int) -> None:
        if kind not in ("uniform", "zipf"):
            raise ValueError(f"unknown request kind {kind!r}")
        self.n = n
        self.kind = kind
        self._rng = _rng(seed, "requests-" + kind)
        if kind == "zipf":
            weights = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
            self._cdf = np.cumsum(weights / weights.sum())
            self._hot = self._rng.permutation(n)

    def batch(self, count: int) -> "list[tuple[int, int]]":
        """The next *count* requests of the stream."""
        rng, n = self._rng, self.n
        if self.kind == "zipf":
            ranks = np.searchsorted(self._cdf, rng.random(count), side="right")
            targets = self._hot[np.minimum(ranks, n - 1)]
        else:
            targets = rng.integers(n, size=count)
        # Source uniform over the other n - 1 nodes.
        sources = rng.integers(n - 1, size=count)
        sources = sources + (sources >= targets)
        return [(int(s), int(t)) for s, t in zip(sources, targets)]
