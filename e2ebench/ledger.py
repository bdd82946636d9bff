"""Per-layer ledger built from Chrome trace events.

Spans come from one thread, so they nest: a span's parent is the
innermost span that encloses it.  A span's *self time* is its duration
minus the part of its interval that its direct children cover.  Summed
over a root span's subtree, self times add up to the root's duration
exactly, which is what lets the ledger account for every microsecond of
a tick or a request.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["Ledger", "self_times"]

#: Slack (µs) for timestamps that went through float arithmetic: a child
#: ending this close past its parent's end still nests.
_EPS = 1e-3


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(events: "list[dict]") -> "list[tuple[dict, float, int]]":
    """``(event, self time, root index)`` for every trace event.

    *events* are Chrome ``"X"`` events (``name``, ``ts``, ``dur``, µs).
    The root index is the position in *events* of the outermost span
    enclosing the event (its own index for a root).
    """
    # Outer spans first; equal intervals fall back on the tracer's depth.
    order = sorted(
        range(len(events)),
        key=lambda i: (events[i]["ts"], -events[i]["dur"], events[i].get("args", {}).get("depth", 0)),
    )
    children: "dict[int, list[tuple[float, float]]]" = defaultdict(list)
    root_of = [0] * len(events)
    stack: "list[int]" = []
    for i in order:
        lo = events[i]["ts"]
        hi = lo + events[i]["dur"]
        # Pop spans that ended before this one starts (or that it outlasts).
        while stack and hi > events[stack[-1]]["ts"] + events[stack[-1]]["dur"] + _EPS:
            stack.pop()
        if stack:
            parent = stack[-1]
            plo = events[parent]["ts"]
            children[parent].append((max(lo, plo), min(hi, plo + events[parent]["dur"])))
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
        stack.append(i)
    return [(events[i], events[i]["dur"] - _covered(children[i]), root_of[i]) for i in range(len(events))]


class Ledger:
    """Self time per span name, grouped by the kind of root span.

    ``table[root][name] = [count, self µs]``; ``wall[root]`` is the summed
    duration of roots named *root* and ``roots[root]`` their number.
    Events outside any root named in *roots* are ignored.  Feed it with
    :meth:`add`, one batch of whole root spans at a time.
    """

    def __init__(self, roots: "tuple[str, ...]") -> None:
        self.table: "dict[str, dict[str, list[float]]]" = {r: defaultdict(lambda: [0, 0.0]) for r in roots}
        self.wall = dict.fromkeys(roots, 0.0)
        self.roots = dict.fromkeys(roots, 0)
        self._added = 0  # events folded in so far: makes root ids unique

    def add(self, events: "list[dict]") -> None:
        """Fold in *events*.

        Each event's ``args["root"]`` is set to an id of its root span,
        the identifier that the spans of one tick or one request share in
        a written trace.
        """
        for event, own, root in self_times(events):
            event.setdefault("args", {})["root"] = self._added + root
            kind = events[root]["name"]
            if kind not in self.table:
                continue
            cell = self.table[kind][event["name"]]
            cell[0] += 1
            cell[1] += own
            if event is events[root]:
                self.wall[kind] += event["dur"]
                self.roots[kind] += 1
        self._added += len(events)

    def self_us(self, root: str, *names: str) -> float:
        """Summed self time (µs) of *names* under roots named *root*."""
        table = self.table[root]
        return sum(table[name][1] for name in names if name in table)

    def count(self, root: str, name: str) -> int:
        cell = self.table[root].get(name)
        return int(cell[0]) if cell else 0

    def unbalanced(self, root: str) -> float:
        """Wall time minus summed self time — zero up to float rounding."""
        return self.wall[root] - sum(cell[1] for cell in self.table[root].values())

    def format(self) -> str:
        """The per-layer table: count, self time and share of root wall."""
        lines = [f"{'root/span':<44}{'count':>9}{'self ms':>12}{'per root':>12}{'share':>8}"]
        for root, table in self.table.items():
            wall, n = self.wall[root], max(self.roots[root], 1)
            lines.append(f"{root} ({self.roots[root]} roots, {wall / 1e3:.1f} ms wall)")
            for name, (count, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
                share = 100.0 * own / wall if wall else 0.0
                lines.append(
                    f"  {name:<42}{count:>9}{own / 1e3:>12.2f}{own / 1e3 / n:>12.4f}{share:>7.1f}%"
                )
        return "\n".join(lines)
