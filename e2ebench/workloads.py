"""The three workloads: build a serving stack, run its closed loop, check it.

Each workload is a closed loop with one client in this process: apply a
tick of churn, then serve that tick's requests, then the next tick.  No
request runs during a repair, so on a 2-CPU box the two pool workers of
``shm_reads`` never compete with this process for a core.

Every call into the program is timed from outside with
``time.perf_counter``.  A traced run also wraps chosen methods *on the
instances built here* with ``repro.obs`` spans and starts the program's
own tracer, so the program's spans (``serving.recompute_rows``,
``pool.run``, ...) nest under the benchmark's.  Nothing in ``src/`` is
changed to be measured.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from inputs import ChurnStream, RequestStream, udg
from repro import obs
from repro.distributed import codec
from repro.distributed.actors import ActorSystem
from repro.distributed.wire import LsaUpdate
from repro.dynamic.events import EdgeEvent
from repro.dynamic.serving import RoutingService
from repro.graph import Graph
from repro.parallel.sharded import RouteReader, ShardedRoutingService
from repro.routing.greedy_routing import route, route_served

__all__ = ["WORKLOADS", "Probe", "edge_events", "peak_rss_mb"]

DEGREE = 12.0  # expected UDG degree, the repo's reference density
# The network is part of a workload's definition, like a deployment: every
# seed runs on the same topology and draws only which links fail and
# recover and who routes to whom.  Topologies of different seeds differ
# by up to a fifth in the repair work a failure causes, which would
# drown the run-to-run comparison the benchmark exists for.
TOPOLOGY_SEED = 0
JOURNEY_SAMPLE = 4  # journeys checked against the per-hop BFS oracle


def peak_rss_mb(pids) -> float:
    """Summed ``VmHWM`` (peak resident set) of *pids*, in MB.

    Read from ``/proc/<pid>/status``.  Shared-memory pages count once in
    every process that touched them, so the sum over-counts the
    matrices the sharded workers map.
    """
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class Probe:
    """Span wrappers set on instance attributes, removable between ticks.

    Setting ``obj.method = wrapper`` shadows the class's method for every
    call made through that instance, including the program's own
    ``self.method(...)`` calls.  The spans go to ``obs.tracer()`` only and
    observe no histogram, so they add nothing to the program's metrics.
    """

    def __init__(self) -> None:
        self._wrappers: "list[tuple[object, str, object]]" = []
        self.results: "dict[str, list]" = {}

    def wrap(self, obj, method: str, name: str, *, keep: bool = False) -> None:
        """Time ``obj.method`` as span *name*; *keep* stores return values."""
        inner = getattr(obj, method)
        tracer = obs.tracer()
        results = self.results.setdefault(name, []) if keep else None
        if inspect.iscoroutinefunction(inner):

            async def wrapper(*args, **kwargs):
                with obs.Span(name, None, tracer):
                    return await inner(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                with obs.Span(name, None, tracer):
                    out = inner(*args, **kwargs)
                if results is not None:
                    results.append(out)
                return out

        self._wrappers.append((obj, method, wrapper))

    def install(self) -> None:
        for obj, method, wrapper in self._wrappers:
            setattr(obj, method, wrapper)

    def remove(self) -> None:
        for obj, method, _ in self._wrappers:
            vars(obj).pop(method, None)


def edge_events(tick) -> "list[EdgeEvent]":
    """The program's events for one generated tick."""
    return [EdgeEvent(kind, u, v) for kind, u, v in tick]


def _same_journey(a, b) -> bool:
    return a.path == b.path and a.delivered == b.delivered and a.potentials == b.potentials


def _check_tables(service, scratch) -> "list[tuple[str, bool]]":
    """Served D and T against *scratch*, a from-scratch build."""
    n = scratch.num_nodes
    return [
        ("distance matrix equals a from-scratch build",
         np.array_equal(np.asarray(service._dist)[:n, :n], scratch._dist)),
        ("next-hop tables equal a from-scratch build",
         np.array_equal(np.asarray(service._tables)[:n, :n], scratch._tables)),
    ]


def _check_journeys(live, pairs) -> "list[tuple[str, bool]]":
    """A sample of served journeys against the per-hop BFS oracle."""
    h, g = live.service.advertised, live.service.graph
    return [
        (f"journey {s}->{t} equals route()", _same_journey(live.route(s, t), route(h, g, s, t)))
        for s, t in pairs
    ]


class _Workload:
    """A workload's parameters and inputs; ``build`` returns its stack."""

    name = ""
    n = 0
    tick = 1
    requests_per_tick = 1
    request_kind = "uniform"
    setups = 9
    # Ticks every run makes however long it takes (p90 needs 100), and
    # the ticks wire bytes are counted over, so the count is exact per seed.
    min_ticks = 100

    def inputs(self, seed: int):
        edges = udg(self.n, DEGREE, TOPOLOGY_SEED)
        churn = ChurnStream(edges, self.tick, seed)
        requests = RequestStream(self.n, self.request_kind, seed)
        check = RequestStream(self.n, "uniform", seed + 1_000_003).batch(JOURNEY_SAMPLE)
        return edges, churn, requests, check


class Churn(_Workload):
    """Serial ``RoutingService``: 5-event ticks through ``apply_batch``."""

    name = "churn"
    n = 1024
    tick = 5
    requests_per_tick = 50
    min_ticks = 200

    def build(self, edges):
        return _Serial(RoutingService(Graph(self.n, edges)))


class ShmReads(_Workload):
    """``ShardedRoutingService`` (W=2), per-event ``apply``, reads via shm."""

    name = "shm_reads"
    n = 1024
    tick = 1
    requests_per_tick = 400
    request_kind = "zipf"
    min_ticks = 300

    def build(self, edges):
        service = ShardedRoutingService(Graph(self.n, edges), workers=2)
        return _Sharded(service)


class Actors(_Workload):
    """``ActorSystem`` on loopback, 4 shard actors, 1-event ticks.

    With one event a tick the feed's maintainer repairs incrementally
    (a dirty ball of ~46 of 289 nodes); with three, the ball passes the
    quarter of the graph at which it falls back to a full rebuild.
    """

    name = "actors"
    n = 289
    tick = 1
    requests_per_tick = 20

    def build(self, edges):
        system = ActorSystem(Graph(self.n, edges), shards=4)
        system.start()
        return _Actors(system)


class _Stack:
    """What the run loop asks of a serving stack; defaults for one process."""

    def journey_mismatch(self, s, t, result) -> bool:
        """Whether a served journey disagrees with the serial service's."""
        return False

    def pids(self) -> "list[int]":
        return [os.getpid()]

    def layer_counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class _Serial(_Stack):
    """The serial service."""

    def __init__(self, service: RoutingService) -> None:
        self.service = service
        # The feed a replica would subscribe to; encoded only when asked.
        self.deltas: list = []
        service.subscribe(self.deltas.append)

    def apply(self, tick) -> None:
        self.service.apply_batch(tick)

    def route(self, s: int, t: int):
        return route_served(self.service, s, t)

    def wire_bytes(self) -> int:
        """Bytes of the net delta feed, encoded as the LSA a replica gets."""
        total = 0
        for d in self.deltas:
            msg = LsaUpdate(
                origin=0, seq=d.seq, g_added=d.g_added, g_removed=d.g_removed,
                h_added=d.h_added, h_removed=d.h_removed,
                nodes_joined=d.nodes_joined, num_nodes=d.num_nodes, rebuilt=d.rebuilt,
            )
            total += len(codec.encode(msg))
        return total

    def probe(self, probe: Probe) -> None:
        probe.wrap(self.service, "apply_batch", "serving.apply", keep=True)
        probe.wrap(self.service.maintainer, "apply_batch", "maintainer.repair", keep=True)
        probe.wrap(self.service, "next_hop", "routing.next_hop")
        probe.wrap(self.service, "distance", "routing.distance")

    def checks(self, pairs) -> "list[tuple[str, bool]]":
        scratch = RoutingService(self.service.graph.copy())
        return _check_tables(self.service, scratch) + _check_journeys(self, pairs)


class _Sharded(_Stack):
    """The sharded service and its shared-memory reader."""

    def __init__(self, service: ShardedRoutingService) -> None:
        self.service = service
        self.reader = RouteReader(service.reader_handle())

    def apply(self, tick) -> None:
        for event in tick:
            self.service.apply(event)

    def route(self, s: int, t: int):
        return route_served(self.reader, s, t)

    def wire_bytes(self) -> int:
        """Bytes this process published to the workers' shared snapshots."""
        reg = obs.metrics()
        return int(reg.counter("pool.publish.delta_bytes") + reg.counter("pool.publish.full_bytes"))

    def pids(self) -> "list[int]":
        return [os.getpid(), *(p.pid for p in self.service._pool._procs)]

    def layer_counters(self) -> dict:
        return {
            "torn_retries": self.reader.torn_retries,  # over the whole run
            "pool_retries": self.service.pool_health.retries,
        }

    def probe(self, probe: Probe) -> None:
        probe.wrap(self.service, "apply", "serving.apply", keep=True)
        probe.wrap(self.service.maintainer, "apply", "maintainer.repair", keep=True)
        probe.wrap(self.reader, "next_hop", "routing.next_hop")
        probe.wrap(self.reader, "distance", "routing.distance")

    def checks(self, pairs) -> "list[tuple[str, bool]]":
        scratch = RoutingService(self.service.graph.copy())
        rows_equal = all(
            np.array_equal(self.reader.distance_row(u), scratch._dist[u])
            and np.array_equal(self.reader.table_row(u), scratch._tables[u])
            for u in range(scratch.num_nodes)
        )
        return (
            _check_tables(self.service, scratch)
            + [("rows read through the reader equal a from-scratch build", rows_equal)]
            + _check_journeys(self, pairs)
        )

    def close(self) -> None:
        self.reader.close()
        self.service.close()


class _Actors(_Stack):
    """The actor tier (feed service + shard actors)."""

    def __init__(self, system: ActorSystem) -> None:
        self.system = system
        self.service = system.service
        # WireStats totals split by what caused them: [ticks|requests, messages, bytes, rounds]
        self._ticks = [0, 0, 0, 0]
        self._requests = [0, 0, 0, 0]

    def _count(self, into: list, call, *args):
        stats = self.system.stats
        before = (stats.messages, stats.bytes, stats.rounds)
        out = call(*args)
        into[0] += 1
        into[1] += stats.messages - before[0]
        into[2] += stats.bytes - before[1]
        into[3] += stats.rounds - before[2]
        return out

    def apply(self, tick) -> None:
        self._count(self._ticks, self.system.apply_tick, tick)

    def route(self, s: int, t: int):
        return self._count(self._requests, self.system.route, s, t)

    def journey_mismatch(self, s, t, result) -> bool:
        return not _same_journey(result, route_served(self.service, s, t))

    def wire_bytes(self) -> int:
        """``WireStats.bytes`` across ``apply_tick`` calls only."""
        return self._ticks[2]

    def layer_counters(self) -> dict:
        ticks, reqs = self._ticks, self._requests
        actors = self.system.actors
        return {
            "messages_per_tick": ticks[1] / max(1, ticks[0]),
            "rounds_per_request": reqs[3] / max(1, reqs[0]),
            "messages_per_request": reqs[1] / max(1, reqs[0]),
            "matrix_bytes_per_actor": sum(a.dist.nbytes + a.tables.nbytes for a in actors) / len(actors),
        }

    def probe(self, probe: Probe) -> None:
        system = self.system
        probe.wrap(system.service, "apply_batch", "actors.feed", keep=True)
        probe.wrap(system.service.maintainer, "apply_batch", "maintainer.repair", keep=True)
        probe.wrap(system, "quiesce", "actors.quiesce", keep=True)
        for actor in system.actors:
            probe.wrap(actor, "recompute", "actors.recompute")
            probe.wrap(actor, "handle", "actors.handle")

    def checks(self, pairs) -> "list[tuple[str, bool]]":
        mismatches = self.system.mismatches()
        for line in mismatches[:5]:
            print("mismatch:", line)
        scratch = RoutingService(self.service.graph.copy())
        return (
            [("actor tier converged: replicas and owned rows equal the feed's", not mismatches)]
            + _check_tables(self.service, scratch)
            + _check_journeys(self, pairs)
        )

    def close(self) -> None:
        self.system.close()


WORKLOADS = {w.name: w for w in (Churn(), ShmReads(), Actors())}
