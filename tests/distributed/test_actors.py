"""Convergence property suite for the actor tier.

The acceptance property: after quiescence, every shard actor's replica
and owned rows are **bit-for-bit** the serial :class:`RoutingService`'s
(``mismatches() == []``), across all four scenarios × all four
constructions on loopback, and over real TCP/UDS sockets for at least
one scenario each.  Plus: ``route_actor`` journeys equal ``route_served``
exactly, HELLO timeouts mark silent peers suspect, and count-capped
``lsa.drop``/``lsa.delay`` fault plans still converge through the
anti-entropy resend path (satellite 3).
"""

import pytest

from repro import faults
from repro.distributed import ActorSystem, make_transport
from repro.dynamic import SCENARIO_NAMES, make_scenario
from repro.dynamic.events import JOIN, LEAVE, REMOVE, EdgeEvent, NodeEvent
from repro.errors import NodeNotFound, ParameterError, ProtocolError
from repro.faults import PLANS
from repro.graph import sample_pairs
from repro.graph.generators import random_connected_gnp
from repro.routing import route_actor, route_served
from repro.rng import derive_seed

#: Construction → extra kwargs (mirrors the serving suite's spellings).
METHODS = [
    ("kcover", {}),
    ("kmis", {"k": 2}),
    ("mis", {"r": 3}),
    ("greedy", {"r": 2}),
]

N = 26
NUM_EVENTS = 10
TICK = 5
SHARDS = 3


def converge(scenario, method, kwargs, *, transport=None, shards=SHARDS, seed=11, **extra):
    sc = make_scenario(scenario, N, NUM_EVENTS, seed=seed)
    system = ActorSystem(
        sc.initial,
        method,
        rebuild_fraction=1.0,
        shards=shards,
        transport=transport,
        **kwargs,
        **extra,
    )
    with system:
        assert system.mismatches() == [], "bootstrap must seed every replica"
        events = list(sc.events)
        for lo in range(0, len(events), TICK):
            system.apply_tick(events[lo : lo + TICK])
            assert system.mismatches() == [], f"{scenario}/{method} diverged at tick {lo}"
        assert system.service.graph == sc.final
        yield_system(system)


def yield_system(system):
    """Hook for tests that want post-convergence assertions."""


class TestConvergenceLoopback:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    @pytest.mark.parametrize("method,kwargs", METHODS, ids=[m for m, _ in METHODS])
    def test_all_scenarios_all_constructions(self, scenario, method, kwargs):
        converge(scenario, method, kwargs)

    def test_single_shard_and_many_shards(self):
        for shards in (1, 2, 7):
            converge("mobility", "kcover", {}, shards=shards)

    def test_rounds_and_messages_are_accounted(self):
        sc = make_scenario("mobility", N, NUM_EVENTS, seed=3)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            snap = system.stats.snapshot()
            assert system.stats.rounds > 0
            assert system.stats.messages > 0 and system.stats.bytes > 0
            assert snap["counters"]["wire.messages"] == system.stats.messages


class TestConvergenceSockets:
    def test_tcp_converges_on_mobility(self):
        converge("mobility", "kcover", {}, transport=make_transport("tcp"))

    def test_uds_converges_on_growth(self):
        converge("growth", "kcover", {}, transport=make_transport("uds"))


class TestRouteEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_actor_journeys_match_served(self, scenario):
        sc = make_scenario(scenario, N, NUM_EVENTS, seed=23)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            pairs = sample_pairs(
                system.service.graph,
                12,
                seed=derive_seed(23, "actor-route", scenario),
                require_nonadjacent=False,
            )
            for s, t in pairs:
                actor_r = route_actor(system, s, t)
                served_r = route_served(system.service, s, t)
                assert actor_r.path == served_r.path
                assert actor_r.delivered == served_r.delivered
                assert actor_r.potentials == served_r.potentials

    def test_route_validations_mirror_served(self):
        g = random_connected_gnp(N, 0.15, seed=1)
        with ActorSystem(g, "kcover", shards=SHARDS) as system:
            with pytest.raises(ParameterError):
                system.route(1, 1)
            with pytest.raises(NodeNotFound):
                system.route(0, 10_000)
            # A bad source fails like route_served's, not via numpy's
            # negative indexing (-1 read the last table row) or a bare
            # IndexError.
            for source in (-1, 10_000):
                with pytest.raises(NodeNotFound):
                    route_served(system.service, source, 1)
                with pytest.raises(NodeNotFound):
                    system.route(source, 1)


class TestIncrementalRepair:
    """Actors repair only damaged rows, and stay bit-identical doing it.

    ``mismatches()`` compares every *held* distance row (owned ∪ N_G(owned),
    the rows the next tick's damage analysis trusts), not only the owned
    ones, so each per-tick assertion below covers the incremental state.
    """

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_every_single_event_tick_is_exact(self, scenario):
        sc = make_scenario(scenario, N, NUM_EVENTS, seed=31)
        if scenario == "nodechurn":
            kinds = {e.kind for e in sc.events if isinstance(e, NodeEvent)}
            assert kinds == {JOIN, LEAVE}, "node joins and leaves must both reach the actors"
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            deltas = []
            system.service.subscribe(deltas.append)
            held_at_boot = [len(a.held_rows()) for a in system.actors]
            for event in sc.events:
                system.apply_tick([event])
                assert system.mismatches() == [], f"{scenario} diverged after {event}"
            assert not any(d.rebuilt for d in deltas)
            if scenario == "growth":  # isolated nodes link up: rows enter held sets
                assert all(len(a.held_rows()) > k for a, k in zip(system.actors, held_at_boot))
            for actor in system.actors:
                # The bootstrap is the only full refresh; every tick after
                # it went through damage analysis.
                assert actor.full_refreshes == 1
                assert actor.recomputes == 1 + len(deltas)
                outside = sorted(set(range(actor.num_nodes)) - set(actor.held_rows()))
                assert (actor.dist[outside] == -1).all(), "unheld rows are never trusted"

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_muzzled_actor_catches_up_over_missed_ticks(self, scenario):
        sc = make_scenario(scenario, N, 6, seed=32)
        events = list(sc.events)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            lagger = system.actors[1]
            before = lagger.recomputes
            system.muzzle(1)
            for lo in range(0, len(events), 2):  # three missed ticks
                system.apply_tick(events[lo : lo + 2])
                assert system.mismatches() == []  # the others stay exact
            assert system._out_seq - lagger.applied_seq() >= 2
            assert lagger.recomputes == before
            system.unmuzzle(1)
            system.quiesce()
            assert lagger.applied_seq() == system._out_seq
            assert system.mismatches() == []
            # One repair folded the net delta of every missed LSA.
            assert lagger.recomputes == before + 1
            assert lagger.full_refreshes == 1

    def test_rebuild_tick_refreshes_and_stays_exact(self):
        sc = make_scenario("failure", N, 20, seed=37)
        events = list(sc.events)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=0.5, shards=SHARDS) as system:
            deltas = []
            system.service.subscribe(deltas.append)
            for lo in range(0, len(events), 2):
                system.apply_tick(events[lo : lo + 2])
                assert system.mismatches() == []
            rebuilt = sum(d.rebuilt for d in deltas)
            assert 0 < rebuilt < len(deltas), "want rebuild and incremental ticks"
            for actor in system.actors:
                assert actor.full_refreshes == 1 + rebuilt

    def test_g_only_tick_reprojects_only_star_tables(self):
        g = make_scenario("mobility", N, NUM_EVENTS, seed=11).initial
        with ActorSystem(g, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            deltas = []
            system.service.subscribe(deltas.append)
            h = system.service.advertised
            checked = 0
            for u, v in [e for e in sorted(system.service.graph.edges()) if not h.has_edge(*e)]:
                before = [(a.rows_recomputed, a.tables_reprojected) for a in system.actors]
                held = [set(a.held_rows()) for a in system.actors]
                system.apply_tick([EdgeEvent(REMOVE, u, v)])
                assert system.mismatches() == []
                d = deltas[-1]
                if d.h_added or d.h_removed:
                    continue
                checked += 1
                for actor, (rows, tables), was in zip(system.actors, before, held):
                    owned_ends = sum(system.owner(x) == actor.ident for x in (u, v))
                    assert actor.tables_reprojected - tables == owned_ends
                    # H did not move: no row is dirty; rows only leave.
                    assert actor.rows_recomputed == rows
                    assert set(actor.held_rows()) <= was
                if checked == 3:
                    break
            assert checked == 3

    def test_full_mode_refreshes_every_tick(self):
        sc = make_scenario("growth", N, NUM_EVENTS, seed=43)
        events = list(sc.events)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS, mode="full") as system:
            ticks = 0
            for lo in range(0, len(events), TICK):
                system.apply_tick(events[lo : lo + TICK])
                ticks += 1
                assert system.mismatches() == []
            for actor in system.actors:
                assert actor.full_refreshes == 1 + ticks

    def test_mismatches_see_a_corrupt_held_row(self):
        g = random_connected_gnp(N, 0.2, seed=47)
        with ActorSystem(g, "kcover", shards=SHARDS) as system:
            actor = system.actors[0]
            owned = set(system.owned_nodes(0, N))
            w = next(x for x in actor.held_rows() if x not in owned)
            actor.dist[w, (w + 1) % N] += 1
            assert system.mismatches() == [f"actor 0: distance row {w} differs"]

    def test_work_counters_reach_obs(self):
        from repro import obs

        sc = make_scenario("failure", N, NUM_EVENTS, seed=53)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            actors = system.actors
            rows = sum(a.rows_recomputed for a in actors)
            tables = sum(a.tables_reprojected for a in actors)
            obs.reset()
            for lo in range(0, NUM_EVENTS, TICK):
                system.apply_tick(list(sc.events)[lo : lo + TICK])
            counters = obs.snapshot()["counters"]
            assert counters["actors.rows_recomputed"] == sum(a.rows_recomputed for a in actors) - rows
            assert counters["actors.tables_reprojected"] == (
                sum(a.tables_reprojected for a in actors) - tables
            )
            assert counters["actors.tables_reprojected"] > 0
            assert "actors.full_refreshes" not in counters


class TestLiveness:
    def test_silent_peer_goes_suspect_after_hello_timeout(self):
        from repro.distributed.wire import HELLO_TIMEOUT

        g = random_connected_gnp(N, 0.15, seed=5)
        with ActorSystem(g, "kcover", shards=SHARDS) as system:
            system.muzzle(1)
            for _ in range(HELLO_TIMEOUT + system.hello_every + 3):
                system._run(system._pump_round())
            assert 1 in system.actors[0].suspects
            assert 1 in system.actors[2].suspects
            assert 0 not in system.actors[2].suspects  # healthy peers stay trusted

    def test_muzzled_actor_catches_up_via_anti_entropy(self):
        sc = make_scenario("mobility", N, NUM_EVENTS, seed=7)
        events = list(sc.events)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.muzzle(1)
            system.apply_tick(events[:TICK])  # actor 1 misses this flood entirely
            assert system.actors[1].applied_seq() < system._out_seq
            system.unmuzzle(1)
            system.quiesce()  # beacon reveals the gap → ResendRequest → retransmit
            assert system.actors[1].applied_seq() == system._out_seq
            assert system.mismatches() == []


class TestFaultPlans:
    """Satellite 3: dropped/delayed LSAs still converge to the serial twin."""

    def setup_method(self):
        faults.uninstall()

    def teardown_method(self):
        faults.uninstall()

    def test_lsa_lossy_converges_through_resend(self):
        faults.install(PLANS["lsa-lossy"])
        sc = make_scenario("mobility", N, NUM_EVENTS, seed=13)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            assert system.mismatches() == []
            assert system.stats.dropped >= 1, "the plan must actually fire"
            assert faults.fired() and faults.fired()["lsa.drop"] == system.stats.dropped

    def test_lsa_slow_converges_through_delay_queue(self):
        faults.install(PLANS["lsa-slow"])
        sc = make_scenario("nodechurn", N, NUM_EVENTS, seed=17)
        with ActorSystem(sc.initial, "kcover", rebuild_fraction=1.0, shards=SHARDS) as system:
            system.apply_tick(list(sc.events))
            assert system.mismatches() == []
            assert system.stats.delayed >= 1, "the plan must actually fire"


class TestParameters:
    def test_bad_shards_and_mode_rejected(self):
        g = random_connected_gnp(N, 0.15, seed=1)
        with pytest.raises(ParameterError):
            ActorSystem(g, "kcover", shards=0)
        with pytest.raises(ParameterError):
            ActorSystem(g, "kcover", mode="telepathy")

    def test_full_mode_converges_too(self):
        # The naive baseline is still a correct protocol, just heavier.
        converge("failure", "kcover", {}, mode="full")

    def test_quiesce_raises_past_max_rounds(self):
        g = random_connected_gnp(N, 0.15, seed=1)
        system = ActorSystem(g, "kcover", shards=SHARDS, max_rounds=0)
        with pytest.raises(ProtocolError):
            system.start()
        system.close()
