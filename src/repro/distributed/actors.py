"""The distributed serving tier: sharded table actors over a transport.

Where :class:`~repro.distributed.simulator.SyncNetwork` simulates *the
paper's protocols* (one node per simulated router, lock-step rounds),
this module serves *the maintained tables* from a tier of asyncio actors:

* the **feed driver** owns the serial :class:`~repro.dynamic.serving.\
  RoutingService` (the ground truth) and republishes its per-tick
  :class:`~repro.dynamic.serving.ServeDelta` as sequence-numbered
  :class:`~repro.distributed.wire.LsaUpdate` floods — net maintainer
  deltas on the wire, never full topology (the
  :class:`~repro.distributed.wire.FullTopology` path exists as the
  cold-start bootstrap and the benchmark's naive baseline);
* **shard actors** (``owner(u) = u % shards``) each keep in-place
  :class:`~repro.graph.Graph` replicas of G and H, mutated edge by edge
  from every applied LSA, and run the serial service's
  :class:`~repro.dynamic.tablecore.TableCore` over their shard: they
  project the tables of the nodes they own and *hold* the distance rows
  of owned ∪ N_G(owned), the argmin inputs of those tables.  Between
  quiescences an actor accumulates the **net** ΔH⁺/ΔH⁻, the endpoints of
  changed G edges and the joined ids (an id-space growth) — however many
  LSAs that spans, e.g. a muzzled actor catching up — and its
  ``recompute()`` folds them through the core's damage analysis: only
  dirty rows are re-BFSed (plus rows just entering the held set; rows
  leaving it are blanked and never trusted again) and only damaged owned
  tables re-projected.  Two triggers fall back to a full refresh of the
  held rows: a :class:`~repro.distributed.wire.FullTopology` (bootstrap,
  ``mode="full"``) and an update flagged ``rebuilt``.  Same inputs, same
  code — so a converged actor's rows are bit-for-bit the service's rows,
  which the convergence property suite asserts after every tick;
* actors sit on a **ring overlay**: updates enter at ``seq % shards``
  and flood both directions with TTL + loop-window headers, HELLO
  beacons carry applied sequence numbers between ring neighbors
  (liveness via :data:`~repro.distributed.wire.HELLO_TIMEOUT`, and
  anti-entropy: a beacon ahead of the local database triggers a
  :class:`~repro.distributed.wire.ResendRequest` to the driver, which
  retransmits from its log — the mechanism that makes convergence hold
  under ``lsa.drop``/``lsa.delay`` fault plans);
* ``route()`` runs :func:`~repro.routing.greedy_routing.route_served`'s
  exact decision loop *across* actors: each next-hop lookup happens at
  the owner of the current node, the hop's potential is appended by the
  owner of the hop (the ``pending_hop`` leg of
  :class:`~repro.distributed.wire.RouteQuery`), and the finished
  journey returns as a standard
  :class:`~repro.routing.greedy_routing.RouteResult` — identical path,
  delivery and potentials to the serial call (property-tested).

The public surface is synchronous (``start``/``apply_tick``/``quiesce``/
``route``/``close`` drive a private event loop) so the CLI, tests and
benchmarks stay plain functions; all message-passing code is ``async``
and inside the RL013 lint boundary — no blocking primitives.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np

from ..dynamic.serving import RoutingService, ServeDelta
from ..dynamic.tablecore import TableCore
from ..errors import NodeNotFound, ParameterError, ProtocolError
from ..graph import Graph, canonical_edge
from ..routing.greedy_routing import RouteResult
from .transport import LoopbackTransport, Transport
from .wire import (
    HELLO_TIMEOUT,
    FullTopology,
    HelloBeacon,
    LsaDb,
    LsaUpdate,
    ResendRequest,
    RouteQuery,
    RouteReply,
)

__all__ = ["ActorSystem", "ShardActor"]


class ShardActor(TableCore):
    """One table shard: in-place (G, H) replicas plus the rows it holds.

    The actor runs the serial service's :class:`~repro.dynamic.tablecore.\
TableCore` over its own shard: it projects the tables of the nodes it
    owns (``u % shards == ident``) and holds the distance rows of owned ∪
    N_G(owned), the argmin inputs of those tables.
    """

    # Per-actor obs counters (``actors.rows_recomputed``, ...).  No stage
    # spans: a trace shows one actor's repair as its ``recompute`` call.
    _obs_prefix = "actors"
    _span_prefix = None

    def __init__(self, ident: int, system: "ActorSystem") -> None:
        super().__init__(owns=(ident, system.shards))
        self.ident = ident
        self.system = system
        self.db = LsaDb()
        self.graph = Graph(0)  # replica of G
        self.advertised = Graph(0)  # replica of H
        # Net change since the last recompute: ΔH⁺, ΔH⁻, the endpoints of
        # changed G edges, and whether only a full refresh will do.
        self._h_added: "set[tuple[int, int]]" = set()
        self._h_removed: "set[tuple[int, int]]" = set()
        self._star: "set[int]" = set()
        self._full = True
        self._stale = False
        self.last_heard: "dict[int, int]" = {}  # ring peer -> last beacon round
        self.suspects: "set[int]" = set()
        self.recomputes = 0

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def dist(self) -> "np.ndarray":
        return self._dist

    @property
    def tables(self) -> "np.ndarray":
        return self._tables

    @property
    def tables_reprojected(self) -> int:
        """Tables re-argmin'd so far (the core's ``tables_recomputed``)."""
        return self.tables_recomputed

    # -- replica maintenance ------------------------------------------- #

    def _apply_update(self, update) -> None:
        if isinstance(update, FullTopology):
            self.graph = Graph(update.num_nodes, update.g_edges)
            self.advertised = Graph(update.num_nodes, update.h_edges)
            self._full = True
        else:
            g, h = self.graph, self.advertised
            n = max(update.num_nodes, *(node + 1 for node in update.nodes_joined), g.num_nodes)
            g.add_nodes(n - g.num_nodes)
            h.add_nodes(n - h.num_nodes)
            for x, y in update.g_removed:
                if g.remove_edge(x, y):
                    self._star.update((x, y))
            for x, y in update.g_added:
                if g.add_edge(x, y):
                    self._star.update((x, y))
            added, removed = self._h_added, self._h_removed
            for x, y in update.h_removed:
                if h.remove_edge(x, y):
                    e = canonical_edge(x, y)
                    if e in added:
                        added.remove(e)
                    else:
                        removed.add(e)
            for x, y in update.h_added:
                if h.add_edge(x, y):
                    e = canonical_edge(x, y)
                    if e in removed:
                        removed.remove(e)
                    else:
                        added.add(e)
            self._full |= update.rebuilt
        self._stale = True

    def applied_seq(self) -> int:
        return self.db.applied_seq(self.system.driver_id)

    def recompute(self) -> None:
        """Repair the held rows and owned tables at quiescence.

        Folds the net change accumulated since the last call — however
        many LSAs it spans — through the table core's damage analysis, so
        only rows it marks dirty (plus rows that just entered the held
        set) are re-BFSed and only damaged owned tables re-projected.  A
        :class:`FullTopology` (bootstrap, ``mode="full"``) or a ``rebuilt``
        update refreshes every held row instead.  The owned rows come out
        bit-identical to :class:`RoutingService`'s: same inputs, same code.
        """
        if not self._stale:
            return
        if self._full:
            self.refresh()
        else:
            self._ingest(tuple(self._h_added), tuple(self._h_removed), self._star, False)
        self._h_added.clear()
        self._h_removed.clear()
        self._star.clear()
        self._full = self._stale = False
        self.recomputes += 1

    # -- read side (serial table semantics, owner-scoped) --------------- #

    def distance(self, u: int, v: int) -> "int | None":
        d = int(self._dist[u, v])
        return d if d >= 0 else None

    def next_hop(self, u: int, v: int) -> "int | None":
        hop = int(self._tables[u, v])
        return hop if hop >= 0 else None

    # -- message handling ------------------------------------------------ #

    async def handle(self, messages, round_index: int) -> None:
        system = self.system
        for m in messages:
            if isinstance(m, (LsaUpdate, FullTopology)):
                if self.db.accept(m, now=round_index):
                    await self._relay(m)
                for ready in self.db.take_ready(system.driver_id):
                    self._apply_update(ready)
            elif isinstance(m, HelloBeacon):
                self.last_heard[m.origin] = round_index
                self.suspects.discard(m.origin)
                if m.origin == system.driver_id and m.seq > self.applied_seq():
                    await self._request_resend(m.seq)
            elif isinstance(m, RouteQuery):
                await self._handle_query(m)
        self.db.purge(round_index, system.lsa_max_age)
        if round_index % system.hello_every == 0:
            beacon = HelloBeacon(self.ident, seq=self.applied_seq(), stamp=round_index)
            for peer in system.ring_peers(self.ident):
                self.last_heard.setdefault(peer, round_index)
                await system.transport.send(self.ident, peer, beacon)
        for peer, heard in self.last_heard.items():
            if round_index - heard > HELLO_TIMEOUT:
                self.suspects.add(peer)

    async def _relay(self, m) -> None:
        relayed = m.relay(self.ident)
        if relayed is None:
            return
        for peer in self.system.ring_peers(self.ident):
            await self.system.transport.send(self.ident, peer, relayed)

    async def _request_resend(self, advertised_seq: int) -> None:
        pending = self.db._pending.get(self.system.driver_id, {})
        want = tuple(
            s
            for s in range(self.applied_seq() + 1, advertised_seq + 1)
            if s not in pending
        )
        if want:
            await self.system.transport.send(
                self.ident, self.system.driver_id, ResendRequest(self.ident, want)
            )

    # -- hop-by-hop route forwarding ------------------------------------- #

    async def _handle_query(self, q: RouteQuery) -> None:
        """One actor's leg of ``route_served``'s loop, verbatim.

        The ``pending_hop`` leg appends the hop's potential (this actor
        owns the hop's distance row); the forwarding leg makes the next
        table decision (this actor owns ``path[-1]``).  Both may run in
        one call when the hop's owner is also the next decision's owner.
        """
        system = self.system
        path = q.path
        potentials = q.potentials
        if q.pending_hop is not None:
            hop = q.pending_hop
            d_hop = self.distance(hop, q.target)
            potentials = (*potentials, d_hop + 1 if d_hop is not None else None)
            path = (*path, hop)
            if hop == q.target:
                await self._reply(q.qid, path, potentials, True, final_zero=True)
                return
            q = RouteQuery(q.qid, q.target, q.hops_left, path, potentials, None)
        current = q.path[-1]
        if q.hops_left <= 0:
            await self._reply(q.qid, q.path, q.potentials, False)
            return
        hop = self.next_hop(current, q.target)
        if hop is None:
            await self._reply(q.qid, q.path, (*q.potentials, None), False)
            return
        forwarded = RouteQuery(
            q.qid, q.target, q.hops_left - 1, q.path, q.potentials, pending_hop=hop
        )
        await system.transport.send(self.ident, system.owner(hop), forwarded)

    async def _reply(self, qid, path, potentials, delivered, final_zero=False) -> None:
        if final_zero:
            potentials = (*potentials, 0)
        reply = RouteReply(qid, path, potentials, delivered)
        await self.system.transport.send(
            self.ident, self.system.driver_id, reply
        )


class ActorSystem:
    """Driver + shard actors over one transport; synchronous facade.

    Construction mirrors :class:`~repro.dynamic.serving.RoutingService`
    (it owns one, as the feed source and serial truth).  ``mode`` picks
    the wire strategy: ``"incremental"`` floods net-delta
    :class:`LsaUpdate`\\ s, ``"full"`` floods a :class:`FullTopology`
    per tick (the naive baseline the benchmark compares against).
    """

    def __init__(
        self,
        g: Graph,
        method: str = "kcover",
        *,
        k: "int | None" = None,
        epsilon: "float | None" = None,
        r: "int | None" = None,
        rebuild_fraction: float = 0.25,
        shards: int = 4,
        transport: "Transport | None" = None,
        mode: str = "incremental",
        tables: bool = True,
        hello_every: int = 4,
        lsa_max_age: int = 12,
        max_rounds: int = 400,
    ) -> None:
        if shards < 1:
            raise ParameterError(f"shards must be ≥ 1, got {shards}")
        if mode not in ("incremental", "full"):
            raise ParameterError(f"unknown wire mode {mode!r}")
        self.shards = shards
        self.driver_id = shards
        self.mode = mode
        self.tables = tables
        self.hello_every = hello_every
        self.lsa_max_age = lsa_max_age
        self.max_rounds = max_rounds
        self.transport = LoopbackTransport() if transport is None else transport
        self.service = RoutingService(
            g, method, k=k, epsilon=epsilon, r=r, rebuild_fraction=rebuild_fraction
        )
        self.service.subscribe(self._on_delta)
        self.actors = [ShardActor(i, self) for i in range(shards)]
        for actor in self.actors:
            self.transport.register(actor.ident)
        self.transport.register(self.driver_id)
        self._outbox: "list[ServeDelta]" = []
        self._log: "dict[int, LsaUpdate | FullTopology]" = {}
        self._out_seq = 0
        self._round = 0
        self._next_qid = 0
        self._replies: "dict[int, RouteReply]" = {}
        self._loop = asyncio.new_event_loop()
        self._started = False
        self._muzzled: "set[int]" = set()

    # -- topology of the tier ------------------------------------------- #

    def owner(self, node: int) -> int:
        return node % self.shards

    def owned_nodes(self, actor: int, n: int) -> "list[int]":
        return list(range(actor, n, self.shards))

    def ring_peers(self, actor: int) -> "tuple[int, ...]":
        if self.shards == 1:
            return ()
        if self.shards == 2:
            return ((actor + 1) % 2,)
        return ((actor - 1) % self.shards, (actor + 1) % self.shards)

    def actor_for(self, node: int) -> ShardActor:
        return self.actors[self.owner(node)]

    @property
    def stats(self):
        return self.transport.stats

    # -- lifecycle ------------------------------------------------------- #

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def start(self) -> None:
        """Open the transport and bootstrap every replica (seq 1)."""
        if self._started:
            return
        self._run(self.transport.start())
        self._started = True
        g = self.service.graph
        h = self.service.advertised
        boot = FullTopology(
            origin=self.driver_id,
            seq=self._next_seq(),
            num_nodes=g.num_nodes,
            g_edges=tuple(sorted(g.edges())),
            h_edges=tuple(sorted(h.edges())),
        )
        self._log[boot.seq] = boot
        self._run(self._flood(boot))
        self.quiesce()

    def close(self) -> None:
        if self._started:
            self._run(self.transport.close())
            self._started = False
        self._loop.close()

    def __enter__(self) -> "ActorSystem":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- feed side ------------------------------------------------------- #

    def _next_seq(self) -> int:
        self._out_seq += 1
        return self._out_seq

    def _on_delta(self, delta: ServeDelta) -> None:
        self._outbox.append(delta)

    def _delta_message(self, delta: ServeDelta):
        seq = self._next_seq()
        if self.mode == "full":
            g = self.service.graph
            h = self.service.advertised
            return FullTopology(
                origin=self.driver_id,
                seq=seq,
                num_nodes=g.num_nodes,
                g_edges=tuple(sorted(g.edges())),
                h_edges=tuple(sorted(h.edges())),
            )
        return LsaUpdate(
            origin=self.driver_id,
            seq=seq,
            g_added=delta.g_added,
            g_removed=delta.g_removed,
            h_added=delta.h_added,
            h_removed=delta.h_removed,
            nodes_joined=delta.nodes_joined,
            num_nodes=delta.num_nodes,
            rebuilt=delta.rebuilt,
        )

    async def _flood(self, message) -> None:
        """Inject at the ring entry with a ring-covering TTL."""
        entry = message.seq % self.shards
        armed = message.ttl if message.ttl else max(1, self.shards)
        await self.transport.send(self.driver_id, entry, replace(message, ttl=armed))

    def apply(self, event) -> None:
        """Apply one event through the serial service; flood its delta."""
        self.service.apply(event)
        self.quiesce()

    def apply_tick(self, events) -> None:
        """Apply one coalesced tick; flood its delta and converge."""
        self.service.apply_batch(events)
        self.quiesce()

    # -- convergence ------------------------------------------------------ #

    def quiesce(self) -> int:
        """Flood queued deltas and pump rounds until the tier settles.

        Settled means: no frames pending in the transport, two
        consecutive idle rounds, and every (non-muzzled) actor's applied
        sequence equals the feed's.  Raises
        :class:`~repro.errors.ProtocolError` at ``max_rounds`` — with
        count-capped fault plans and the anti-entropy path, a healthy
        tier always converges well before it.  Ends by repairing the
        held rows and owned tables on every actor (unless ``tables=False``).
        Returns the number of rounds pumped.
        """
        return self._run(self._quiesce())

    async def _quiesce(self) -> int:
        for delta in self._outbox:
            message = self._delta_message(delta)
            self._log[message.seq] = message
            await self._flood(message)
        self._outbox.clear()
        idle = 0
        rounds = 0
        while idle < 2:
            rounds += 1
            if rounds > self.max_rounds:
                raise ProtocolError(
                    f"actor tier failed to quiesce in {self.max_rounds} rounds "
                    f"(applied={[a.applied_seq() for a in self.actors]}, "
                    f"feed={self._out_seq}, pending={self.transport.pending()})"
                )
            progressed = await self._pump_round()
            lagging = any(
                a.applied_seq() < self._out_seq
                for a in self.actors
                if a.ident not in self._muzzled
            )
            if lagging and rounds % self.hello_every == 0:
                # Anti-entropy nudge: advertise the feed seq so lagging
                # actors discover the gap and request retransmission.
                beacon = HelloBeacon(self.driver_id, seq=self._out_seq, stamp=rounds)
                for actor in self.actors:
                    await self.transport.send(self.driver_id, actor.ident, beacon)
            if progressed or lagging or self.transport.pending():
                idle = 0
            else:
                idle += 1
        if self.tables:
            for actor in self.actors:
                if actor.ident not in self._muzzled:
                    actor.recompute()
        return rounds

    async def _pump_round(self) -> bool:
        self._round += 1
        progressed = False
        for actor in self.actors:
            messages = await self.transport.recv_all(actor.ident)
            if actor.ident in self._muzzled:
                continue  # a muzzled actor neither processes nor beacons
            if messages:
                progressed = True
            await actor.handle(messages, self._round)
        progressed |= await self._driver_drain()
        await self.transport.tick()
        return progressed

    async def _driver_drain(self) -> bool:
        progressed = False
        for m in await self.transport.recv_all(self.driver_id):
            if isinstance(m, ResendRequest):
                progressed = True
                for seq in m.want:
                    logged = self._log.get(seq)
                    if logged is not None:
                        # Unicast retransmit: ttl 0 — apply, don't re-flood.
                        await self.transport.send(self.driver_id, m.origin, logged)
            elif isinstance(m, RouteReply):
                self._replies[m.qid] = m
        return progressed

    # -- serving ---------------------------------------------------------- #

    def route(self, source: int, target: int, max_hops: "int | None" = None) -> RouteResult:
        """``route_served``'s journey, forwarded hop-by-hop across actors."""
        if source == target:
            raise ParameterError("source equals target")
        n = self.service.num_nodes
        for node in (target, source):  # route_served's order of checks
            if not (0 <= node < n):
                raise NodeNotFound(node, n)
        if max_hops is None:
            max_hops = n
        return self._run(self._route(source, target, max_hops))

    async def _route(self, source: int, target: int, max_hops: int) -> RouteResult:
        self._next_qid += 1
        qid = self._next_qid
        query = RouteQuery(qid, target, max_hops, path=(source,))
        await self.transport.send(self.driver_id, self.owner(source), query)
        for _ in range(self.max_rounds):
            if qid in self._replies:
                break
            await self._pump_round()
        reply = self._replies.pop(qid, None)
        if reply is None:
            raise ProtocolError(f"route query {qid} starved after {self.max_rounds} rounds")
        return RouteResult(
            path=[int(x) for x in reply.path],
            delivered=reply.delivered,
            potentials=[float("inf") if p is None else p for p in reply.potentials],
        )

    def mismatches(self) -> "list[str]":
        """Differences between the actor tier and the serial service.

        Empty iff every actor's replicas equal the live (G, H), its held
        set is owned ∪ N_G(owned), every held distance row (the rows the
        next repair's damage analysis trusts) and every owned table row
        is bit-identical to the service's matrices — the convergence
        property the suite asserts.
        """
        out = []
        service = self.service
        g = service.graph
        n = service.num_nodes
        dist = service._dist
        tabs = service._tables
        for actor in self.actors:
            if actor.ident in self._muzzled:
                continue
            tag = f"actor {actor.ident}"
            if actor.num_nodes != n:
                out.append(f"{tag}: num_nodes {actor.num_nodes} != {n}")
                continue
            if actor.graph != g:
                out.append(f"{tag}: G replica diverged")
            if actor.advertised != service.advertised:
                out.append(f"{tag}: H replica diverged")
            if not self.tables:
                continue
            owned = self.owned_nodes(actor.ident, n)
            held = set(owned).union(*(g.neighbors(u) for u in owned))
            if set(actor.held_rows()) != held:
                out.append(f"{tag}: held set differs from owned ∪ N_G(owned)")
            for w in sorted(held):
                if not np.array_equal(actor.dist[w], dist[w]):
                    out.append(f"{tag}: distance row {w} differs")
            for u in owned:
                if not np.array_equal(actor.tables[u], tabs[u]):
                    out.append(f"{tag}: table row {u} differs")
        return out

    def converged(self) -> bool:
        return not self.mismatches()

    # -- chaos hooks ------------------------------------------------------- #

    def muzzle(self, actor_id: int) -> None:
        """Silence an actor (drops its inbox, stops its beacons) — the
        hook the neighbor-timeout and fault tests use."""
        self._muzzled.add(actor_id)

    def unmuzzle(self, actor_id: int) -> None:
        self._muzzled.discard(actor_id)
