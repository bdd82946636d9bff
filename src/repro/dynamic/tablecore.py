"""The table core: distance rows and next-hop tables, repaired incrementally.

Every serving driver keeps the same two dense int32 matrices —
``D[w, v] = d_H(w, v)`` (−1 for unreachable) and ``T[u, v]`` = next hop of
*u* toward *v* (−1 for unroutable or ``v == u``) — and repairs them after a
change of (G, H) with the same four steps:

1. **damage analysis** (:meth:`TableCore._dirty_rows`): from the net
   spanner delta (ΔH⁺/ΔH⁻) and the *old* D, the rows whose H-BFS may have
   moved — a removed edge that was tight with no surviving equally-tight
   parent, or an inserted edge that shortcuts;
2. **row repair** (:meth:`TableCore._recompute_rows`): one batched BFS on
   the new frozen H over exactly those rows, returning each moved row's
   changed-destination mask;
3. **damage propagation**: a table moves only if a G-neighbor's row
   changed (at that row's changed columns) or its own G-star changed (all
   columns);
4. **projection** (:meth:`TableCore._project_tables`): the masked
   vectorized argmin :func:`~repro.routing.tables.project_table_row`.

Every test in step 1 reads row *w* alone, and table *u* reads only the
rows of *u*'s G-neighbors, so the pipeline is exact over any **held row
set** that contains the projected tables' sources and their G-neighbors.
A core projects the tables of the nodes it owns — ``u % stride == offset``
for its ``owns = (offset, stride)`` — and holds owned ∪ N_G(owned):

* :class:`~repro.dynamic.serving.RoutingService` owns everything
  (``owns = (0, 1)``): every row held, every table projected;
* each :class:`~repro.distributed.actors.ShardActor` owns one residue
  class.  As G changes, a row that enters the held set gets a fresh BFS
  and a row that leaves it is reset to −1, never trusted again.

Subclasses supply ``graph`` (G), ``advertised`` (H) and the obs name
prefixes, and feed :meth:`TableCore._ingest` the net delta since the last
repair, or call :meth:`TableCore.refresh` when only a full recompute will
do.  The three
stages — :meth:`_resize_matrices`, :meth:`_recompute_rows`,
:meth:`_project_tables` — are overridable hooks: the multiprocess
:class:`~repro.parallel.sharded.ShardedRoutingService` swaps them for
shared-memory fan-outs and keeps every damage decision made here.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable

import numpy as np

from .. import obs
from ..graph import batched_bfs
from ..routing.tables import _FAR, project_table_row

__all__ = ["TableCore"]


class TableCore:
    """D and T over a held row set, repaired from (G, H) deltas.

    Counters (``rows_recomputed``, ``tables_recomputed``,
    ``entries_updated``, ``full_refreshes``) accumulate the core's work;
    the matching obs counters are named ``<_obs_prefix>.rows_recomputed``,
    ``.tables_reprojected`` and ``.full_refreshes``, and the two repair
    stages run in ``<_span_prefix>.recompute_rows`` /
    ``.project_tables`` spans (no spans when the prefix is None).
    """

    _obs_prefix: str
    _span_prefix: "str | None"

    def __init__(self, owns: "tuple[int, int]" = (0, 1)) -> None:
        self._owns = owns
        self._held: "np.ndarray | None" = None  # None while every row is held
        self._dist = np.empty((0, 0), dtype=np.int32)
        self._tables = np.empty((0, 0), dtype=np.int32)
        self.rows_recomputed = 0
        self.tables_recomputed = 0
        self.entries_updated = 0
        self.full_refreshes = 0

    def _stage(self, name: str):
        prefix = self._span_prefix
        return obs.span(f"{prefix}.{name}") if prefix else nullcontext()

    def held_rows(self) -> "list[int]":
        """The rows of D this core keeps exact (all rows when it owns all)."""
        if self._held is None:
            return list(range(self._dist.shape[0]))
        return np.flatnonzero(self._held).tolist()

    # ------------------------------------------------------------------ #
    # full refresh and incremental repair
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        """Recompute every held row and owned table from scratch (fallback).

        Re-projects in place so ``entries_updated`` keeps counting only
        cells whose next hop actually changed, refresh or not.
        """
        n = self.graph.num_nodes
        self._resize_matrices(n)
        rows = self._reset_held(n)
        with self._stage("recompute_rows"):
            self._recompute_rows(rows, track=False)
        offset, stride = self._owns
        owned = range(offset, n, stride)
        with self._stage("project_tables"):
            self._project_tables(dict.fromkeys(owned))
        obs.inc(f"{self._obs_prefix}.full_refreshes")
        self.full_refreshes += 1
        self.rows_recomputed += len(rows)
        self.tables_recomputed += len(owned)

    def _ingest(
        self,
        h_added: "tuple[tuple[int, int], ...]",
        h_removed: "tuple[tuple[int, int], ...]",
        star_changed: "set[int]",
        rebuilt: bool,
    ) -> "tuple[bool, int, int, int]":
        """Fold one net (G, H) change into the matrices.

        *star_changed* holds the endpoints of every changed G edge (the
        sources whose argmin candidates moved); ids past the old matrix
        dimension are joined nodes.  Returns ``(refreshed, dirty_rows,
        dirty_tables, entries_updated)``.
        """
        g = self.graph
        n = g.num_nodes
        old_dim = self._dist.shape[0]
        if n != old_dim:  # node churn grew the id space: pad with -1
            self._resize_matrices(n)
        if rebuilt:  # global churn: the maintainer rebuilt, so do we
            before = (self.rows_recomputed, self.tables_recomputed, self.entries_updated)
            self.refresh()
            return (
                True,
                self.rows_recomputed - before[0],
                self.tables_recomputed - before[1],
                self.entries_updated - before[2],
            )
        trusted, entered = self._advance_held(old_dim, star_changed)
        dirty_rows = self._dirty_rows(h_added, h_removed, trusted)
        dirty_rows.update(entered)
        if dirty_rows:
            with self._stage("recompute_rows"):
                changed_cols = self._recompute_rows(sorted(dirty_rows))
        else:
            changed_cols = {}
        self.rows_recomputed += len(dirty_rows)
        # A table moves only if its argmin inputs did: a neighbor's row
        # changed, or its own G-star changed (None mask = all destinations).
        offset, stride = self._owns
        owned = None if stride == 1 else set(range(offset, n, stride))
        damage: "dict[int, np.ndarray | None]" = dict.fromkeys(
            star_changed if owned is None else owned.intersection(star_changed)
        )
        for v in entered:
            if owned is None or v in owned:
                damage[v] = None
        for w, mask in changed_cols.items():
            nbrs = g.neighbors(w)
            for u in nbrs if owned is None else nbrs & owned:
                current = damage.get(u, False)
                if current is None:
                    continue
                if current is False:
                    damage[u] = mask.copy()
                else:
                    current |= mask
        entries_before = self.entries_updated
        with self._stage("project_tables"):
            tables_touched = self._project_tables(damage)
        self.tables_recomputed += tables_touched
        return False, len(dirty_rows), tables_touched, self.entries_updated - entries_before

    # ------------------------------------------------------------------ #
    # the held row set
    # ------------------------------------------------------------------ #

    def _reset_held(self, n: int) -> "Iterable[int]":
        """Recompute the held set from G; blank every row outside it."""
        offset, stride = self._owns
        if stride == 1:
            return range(n)
        g = self.graph
        held = np.zeros(n, dtype=bool)
        for u in range(offset, n, stride):
            held[u] = True
            held[list(g.neighbors(u))] = True
        self._dist[~held] = -1
        self._held = held
        return np.flatnonzero(held).tolist()

    def _advance_held(
        self, old_dim: int, star_changed: "set[int]"
    ) -> "tuple[np.ndarray | None, Iterable[int]]":
        """Move the held set to the live G.

        Only the endpoints of changed G edges and joined ids can change
        membership.  Returns ``(trusted, entered)``: the rows held before
        and after (their old values are exact, so damage analysis may
        read them; None = all) and the rows that just entered (they get a
        fresh BFS).  Rows that left are reset to −1.
        """
        n = self._dist.shape[0]
        offset, stride = self._owns
        if stride == 1:
            return None, range(old_dim, n)
        g = self.graph
        held = np.zeros(n, dtype=bool)
        held[:old_dim] = self._held[:old_dim]
        trusted = held.copy()
        entered = []
        for c in star_changed.union(range(old_dim, n)):
            now = c % stride == offset or any(w % stride == offset for w in g.neighbors(c))
            if now and not held[c]:
                entered.append(c)
            elif held[c] and not now:
                self._dist[c] = -1
            held[c] = now
        trusted &= held
        self._held = held
        return trusted, entered

    # ------------------------------------------------------------------ #
    # overridable stages (the sharded service swaps these)
    # ------------------------------------------------------------------ #

    def _resize_matrices(self, n: int) -> None:
        """Bring D and T to shape ``(n, n)``, keeping overlapping content
        and padding fresh cells with −1 (new ids are unreachable until
        their rows are recomputed)."""
        old = self._dist.shape[0]
        if n == old:
            return
        k = min(old, n)
        dist = np.full((n, n), -1, dtype=np.int32)
        dist[:k, :k] = self._dist[:k, :k]
        self._dist = dist
        tables = np.full((n, n), -1, dtype=np.int32)
        tables[:k, :k] = self._tables[:k, :k]
        self._tables = tables

    def _recompute_rows(self, order: Iterable[int], track: bool = True) -> "dict[int, np.ndarray]":
        """BFS-recompute the given D rows on the freshly frozen H.

        Returns ``{row: changed-destination mask}`` for rows that actually
        moved (empty when *track* is false — the refresh path needs no
        damage propagation).
        """
        order = list(order)
        if not order:
            return {}
        obs.inc(f"{self._obs_prefix}.rows_recomputed", len(order))
        h = self.advertised.freeze()
        changed: "dict[int, np.ndarray]" = {}
        for s, new_row in batched_bfs(h, order, arrays=True):
            if track:
                mask = new_row != self._dist[s]
                if mask.any():
                    changed[s] = mask
            self._dist[s] = new_row
        return changed

    def _project_tables(self, damage: "dict[int, np.ndarray | None]") -> int:
        """Re-argmin the damaged table rows (``None`` mask = all columns).

        Returns how many tables were actually touched; adds every changed
        cell to ``entries_updated``.
        """
        g = self.graph
        touched = 0
        for u, mask in damage.items():
            cols = None if mask is None else np.flatnonzero(mask)
            if cols is not None and cols.size == 0:
                continue
            nbrs = sorted(g.neighbors(u))
            self.entries_updated += project_table_row(self._dist, self._tables, nbrs, u, cols)
            touched += 1
        obs.inc(f"{self._obs_prefix}.tables_reprojected", touched)
        return touched

    # ------------------------------------------------------------------ #
    # damage analysis
    # ------------------------------------------------------------------ #

    def _dirty_rows(
        self,
        h_added: "tuple[tuple[int, int], ...]",
        h_removed: "tuple[tuple[int, int], ...]",
        trusted: "np.ndarray | None" = None,
    ) -> set[int]:
        """Sources whose H-BFS row may have changed, from the old matrix.

        Certified complement — a row failing every test below kept all its
        distances.  Inserted edges shrink row *w* only when they shortcut
        it (``|D[w,x] − D[w,y]| > 1`` with unreachable = ∞).  A removed
        edge stretches row *w* only when it was *tight*
        (``D[w,x] + 1 = D[w,y]``) **and** the farther endpoint has no
        surviving equally-tight parent: any shortest path that crossed
        ``xy`` reroutes through an alternative parent ``z`` with
        ``D[w,z] + 1 = D[w,y]`` and ``zy`` still in H, level by level, so
        the whole row is preserved (the alternative-parent induction of
        dynamic SSSP).  The joint evaluation on the *old* matrix is exact:
        rows passing the deletion tests keep their distances through all
        deletions, making the insertion test's baseline valid.  Every test
        reads row *w* alone, so restricting the answer to the *trusted*
        rows (None = all) is exact for them.
        """
        d = self._dist
        n = d.shape[0]
        if n == 0 or (not h_added and not h_removed):
            return set()
        h = self.advertised  # post-repair H: alternatives must survive
        dirty = np.zeros(n, dtype=bool)
        for x, y in h_removed:
            dx = d[:, x].astype(np.int64)
            dy = d[:, y].astype(np.int64)
            for near, far, far_node in ((dx, dy, y), (dy, dx, x)):
                tight = (near >= 0) & (near + 1 == far)
                if not tight.any():
                    continue
                alts = sorted(h.neighbors(far_node))
                if alts:
                    block = d[:, alts].astype(np.int64)
                    rescued = ((block >= 0) & (block + 1 == far[:, None])).any(axis=1)
                    tight &= ~rescued
                dirty |= tight
            # Defensive: mixed reachability should be impossible for an old
            # H edge; treat it as dirty rather than provably clean.
            dirty |= (dx < 0) != (dy < 0)
        for x, y in h_added:
            dx = np.where(d[:, x] < 0, _FAR, d[:, x]).astype(np.int64)
            dy = np.where(d[:, y] < 0, _FAR, d[:, y]).astype(np.int64)
            # The new edge shortcuts w's view of one endpoint → row shrinks.
            dirty |= np.abs(dx - dy) > 1
        if trusted is not None:
            dirty &= trusted
        return {int(w) for w in np.flatnonzero(dirty)}
