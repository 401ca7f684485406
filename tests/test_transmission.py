import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashcast.transmission import (
    ROUTING_ENTRY_BYTES,
    ROUTING_TABLE_BASE_BYTES,
    TopologyError,
    build_backbone,
    charge_monitors,
    compute_routes,
    evaluate_window,
    join_network,
    reconstruct_backbone,
    route_multicast,
    routing_table_bytes,
    routing_table_text,
)
from oracles import floyd_warshall, links


def attach(graph, bn_id, display, role="validator"):
    assert join_network(display, role, [bn_id], graph) == bn_id


def random_connected_graph(rng, count, capacity=50):
    specs = [(i, capacity) for i in range(count)]
    links = []
    for i in range(1, count):
        links.append((rng.randrange(i), i, rng.uniform(0.5, 3.0)))
    for _ in range(count // 2):
        a, b = rng.sample(range(count), 2)
        links.append((min(a, b), max(a, b), rng.uniform(0.5, 3.0)))
    dedup = {}
    for a, b, d in links:
        dedup.setdefault((min(a, b), max(a, b)), d)
    return build_backbone(specs, [(a, b, d) for (a, b), d in dedup.items()])


class TestBuildBackbone:
    def test_two_nodes_one_link(self):
        graph = build_backbone([(0, 5), (1, 5)], [(0, 1, 1.0)])
        assert sorted(graph) == [0, 1]
        assert graph[0].neighbors[1] == 1.0

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            build_backbone([(0, 5), (1, 5), (2, 5)], [(0, 1, 1.0)])

    def test_bad_link_rejected(self):
        with pytest.raises(TopologyError):
            build_backbone([(0, 5)], [(0, 0, 1.0)])
        with pytest.raises(TopologyError):
            build_backbone([(0, 5), (1, 5)], [(0, 1, 0.0)])

    def test_twenty_node_random_topology(self):
        graph = random_connected_graph(random.Random(4), 20)
        assert len(graph) == 20

    def test_chain_has_linear_diameter(self):
        count = 12
        graph = build_backbone(
            [(i, 5) for i in range(count)],
            [(i - 1, i, 1.0) for i in range(1, count)],
        )
        assert floyd_warshall(graph)[0][count - 1] == count - 1
        attach(graph, count - 1, "far")
        compute_routes(graph)
        assert [graph[i].routes["far"] for i in range(count - 1)] == list(range(1, count))


class TestComputeRoutes:
    def test_figure_style_scenario_table(self):
        # BN1 links to BN2 and BN4; BN3 hangs behind BN2; the attached
        # destinations then route exactly like the published table.
        graph = build_backbone(
            [(1, 5), (2, 5), (3, 5), (4, 5)],
            [(1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0)],
        )
        attach(graph, 2, "VN.2")
        attach(graph, 3, "VN.3")
        attach(graph, 4, "VN.4")
        compute_routes(graph)
        table = graph[1].routes
        assert table["VN.4"] == 4
        assert table["VN.2"] == 2
        assert table["VN.3"] == 2

    def test_two_hop_beats_slow_direct(self):
        graph = build_backbone(
            [(0, 5), (1, 5), (2, 5)],
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)],
        )
        attach(graph, 2, "dest")
        compute_routes(graph)
        assert graph[0].routes["dest"] == 1
        assert floyd_warshall(graph)[0][2] == 2.0

    def test_matches_all_pairs_oracle(self):
        rng = random.Random(11)
        graph = random_connected_graph(rng, 20)
        oracle = floyd_warshall(graph)
        # next hops sit on shortest paths
        for i in range(20):
            attach(graph, rng.randrange(20), f"node-{i}")
        compute_routes(graph)
        homes = {d: bn for bn in graph for d in graph[bn].attached}
        for src in sorted(graph):
            node = graph[src]
            for display, nxt in node.routes.items():
                home = homes[display]
                if home == src:
                    continue
                assert node.neighbors[nxt] + oracle[nxt][home] == pytest.approx(
                    oracle[src][home]
                )

    def test_tie_break_lowest_next_hop(self):
        graph = build_backbone(
            [(0, 5), (1, 5), (2, 5), (3, 5)],
            [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
        )
        attach(graph, 3, "dest")
        compute_routes(graph)
        assert graph[0].routes["dest"] == 1

    @given(
        st.integers(2, 9).flatmap(
            lambda count: st.tuples(
                st.just(count),
                st.lists(st.integers(0, 10**6), min_size=count - 1, max_size=count - 1),
                st.lists(
                    st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
                    max_size=2 * count,
                ),
                st.lists(st.sampled_from([1.0, 2.0]), min_size=3 * count, max_size=3 * count),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_next_hop_is_lowest_id_on_a_shortest_path(self, shape):
        # integer delays in {1, 2} make many equal-delay paths
        count, parents, extra, delays = shape
        pairs = [(parent % i, i) for i, parent in zip(range(1, count), parents)]
        pairs += [(min(a, b), max(a, b)) for a, b in extra if a != b]
        links = {pair: delay for pair, delay in zip(dict.fromkeys(pairs), delays)}
        graph = build_backbone(
            [(i, 5) for i in range(count)], [(a, b, d) for (a, b), d in links.items()]
        )
        for i in range(count):
            attach(graph, i, f"d{i}")
        compute_routes(graph)
        oracle = floyd_warshall(graph)
        for src in sorted(graph):
            node = graph[src]
            for home in sorted(graph):
                if home == src:
                    assert node.routes[f"d{home}"] == src
                    continue
                on_path = [
                    nb
                    for nb, delay in node.neighbors.items()
                    if delay + oracle[nb][home] == oracle[src][home]
                ]
                assert node.routes[f"d{home}"] == min(on_path)

    def test_tables_match_oracle_after_churn(self):
        graph = build_backbone([(0, 5), (1, 5)], [(0, 1, 1.0)])
        attach(graph, 0, "a")
        attach(graph, 1, "b")
        compute_routes(graph)
        # "b" re-attaches to the other backbone node
        del graph[1].attached["b"]
        attach(graph, 0, "b")
        compute_routes(graph)
        assert graph[1].routes["b"] == 0
        assert graph[1].routes["a"] == 0


class TestJoins:
    def test_capacity_fallback(self):
        graph = build_backbone([(0, 1), (1, 1)], [(0, 1, 1.0)])
        first = join_network("a", "validator", [0, 1], graph)
        second = join_network("b", "validator", [0, 1], graph)
        assert first == 0
        assert second == 1  # first choice full, falls to second

    def test_zero_capacity_isolates(self):
        graph = build_backbone([(0, 0), (1, 0)], [(0, 1, 1.0)])
        assert join_network("a", "validator", [0, 1], graph) is None

    def test_pigeonhole_two_hundred_nodes(self):
        rng = random.Random(2)
        graph = random_connected_graph(rng, 20, capacity=10)
        attached = 0
        for i in range(200):
            nearest = rng.sample(sorted(graph), len(graph))
            if join_network(f"n{i}", "validator", nearest, graph) is not None:
                attached += 1
        assert attached == 200
        for bn in graph.values():
            assert len(bn.attached) <= bn.capacity

    def test_prefers_minimum_delay(self):
        graph = build_backbone([(0, 5), (1, 5)], [(0, 1, 1.0)])
        assert join_network("a", "validator", [1, 0], graph) == 1

    def test_skips_nodes_a_rebuild_removed(self):
        graph = build_backbone([(0, 5), (1, 5), (2, 5)], [(0, 1, 1.0), (1, 2, 1.0)])
        rebuilt = reconstruct_backbone(graph, {2}, 1.0, 5)
        assert join_network("a", "validator", [2, 1, 0], rebuilt) == 1
        assert join_network("b", "validator", [2], rebuilt) is None


class TestMulticast:
    def _graph(self):
        graph = build_backbone(
            [(1, 5), (2, 5), (3, 5), (4, 5)],
            [(1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0)],
        )
        attach(graph, 2, "VN.2")
        attach(graph, 3, "VN.3")
        attach(graph, 4, "VN.4")
        compute_routes(graph)
        return graph

    def test_shared_next_hop_coalesces(self):
        graph = self._graph()
        result = route_multicast(graph, 1, {"VN.2": 0.5, "VN.3": 0.5})
        # both destinations leave BN1 over the same link to BN2
        assert result.link_transmissions == 2  # 1->2 shared, then 2->3
        assert len(result.deliveries) == 2

    def test_scenario_deliveries(self):
        graph = self._graph()
        result = route_multicast(graph, 1, {"VN.3": 0.5, "VN.4": 0.5})
        delivered = {d.display: d for d in result.deliveries}
        assert set(delivered) == {"VN.3", "VN.4"}
        assert delivered["VN.3"].delay_ms == pytest.approx(2.0 + 0.5)
        assert delivered["VN.4"].delay_ms == pytest.approx(1.0 + 0.5)

    def test_delay_equals_oracle_shortest_path(self):
        rng = random.Random(21)
        graph = random_connected_graph(rng, 15)
        displays = []
        for i in range(12):
            home = rng.randrange(15)
            attach(graph, home, f"d{i}")
            displays.append((f"d{i}", home))
        compute_routes(graph)
        oracle = floyd_warshall(graph)
        origin = 0
        result = route_multicast(
            graph, origin, {display: 0.25 for display, _ in displays}
        )
        homes = dict(displays)
        for delivery in result.deliveries:
            assert delivery.delay_ms == pytest.approx(
                oracle[origin][homes[delivery.display]] + 0.25
            )

    def test_multicast_never_exceeds_flood(self):
        rng = random.Random(8)
        for _ in range(10):
            graph = random_connected_graph(rng, 12)
            for i in range(8):
                attach(graph, rng.randrange(12), f"d{i}")
            compute_routes(graph)
            result = route_multicast(graph, 0, {f"d{i}": 0.2 for i in range(8)})
            edges = len(links(graph))
            flood = 2 * edges - (len(graph) - 1)
            assert result.link_transmissions <= len(graph) - 1 <= flood

    def test_missing_route_reported(self):
        graph = self._graph()
        result = route_multicast(graph, 1, {"nowhere": 0.5})
        assert result.missing_route == ["nowhere"]
        assert not result.deliveries


class TestMonitoring:
    def _loaded_graph(self, dropper=None):
        graph = build_backbone(
            [(0, 10), (1, 10), (2, 10)],
            [(0, 1, 1.0), (1, 2, 1.0)],
        )
        attach(graph, 0, "src")
        attach(graph, 2, "dst")
        compute_routes(graph)
        if dropper is not None:
            graph[dropper].drop_all = True
        return graph

    def test_routing_charges_nothing(self):
        for dropper in (None, 1):
            graph = self._loaded_graph(dropper)
            result = route_multicast(graph, 0, {"dst": 0.5})
            # the dropper's copy never reaches node 2, which delivers locally
            expected = [(0, 1), (1, 0)] if dropper else [(0, 1), (1, 1), (2, 1)]
            assert result.charged == expected
            counters = [(bn.window_inbound, bn.window_forwarded) for bn in graph.values()]
            assert counters == [(0, 0)] * 3

    def test_honest_nodes_never_flagged(self):
        graph = self._loaded_graph()
        for _ in range(50):
            result = route_multicast(graph, 0, {"dst": 0.5})
            assert len(result.deliveries) == 1
            charge_monitors(graph, result.charged)
        assert [graph[i].window_inbound for i in sorted(graph)] == [50, 50, 50]
        assert evaluate_window(graph) == []

    def test_dropper_flagged_within_one_window(self):
        graph = self._loaded_graph(dropper=1)
        result = route_multicast(graph, 0, {"dst": 0.5})
        assert result.lost == ["dst"]
        charge_monitors(graph, result.charged)
        assert evaluate_window(graph) == [1]

    def test_dropper_that_only_delivers_is_flagged(self):
        graph = self._loaded_graph(dropper=2)
        result = route_multicast(graph, 0, {"dst": 0.5})
        assert result.lost == ["dst"]
        charge_monitors(graph, result.charged)
        assert evaluate_window(graph) == [2]

    def test_quiet_window_flags_nobody(self):
        graph = self._loaded_graph(dropper=1)
        assert evaluate_window(graph) == []

    def test_reconstruction_restores_delivery(self):
        graph = self._loaded_graph(dropper=1)
        charge_monitors(graph, route_multicast(graph, 0, {"dst": 0.5}).charged)
        flagged = evaluate_window(graph)
        rebuilt = reconstruct_backbone(graph, set(flagged), link_delay=2.5, capacity=10)
        assert set(rebuilt) == {0, 2}
        # components reconnected deterministically, with the given link delay
        assert rebuilt[0].neighbors[2] == rebuilt[2].neighbors[0] == 2.5
        attach(rebuilt, 0, "src")
        attach(rebuilt, 2, "dst")
        compute_routes(rebuilt)
        result = route_multicast(rebuilt, 0, {"dst": 0.5})
        assert [d.display for d in result.deliveries] == ["dst"]

    def test_reconstruct_all_excluded_rejected(self):
        graph = self._loaded_graph()
        with pytest.raises(TopologyError):
            reconstruct_backbone(graph, {0, 1, 2}, link_delay=1.0, capacity=10)

    def test_reconstruct_bridges_every_component(self):
        # a chain 0-6 without 2 and 4 falls into {0, 1}, {3} and {5, 6}
        graph = build_backbone(
            [(i, 5) for i in range(7)], [(i - 1, i, 1.0) for i in range(1, 7)]
        )
        rebuilt = reconstruct_backbone(graph, {2, 4}, link_delay=2.5, capacity=7)
        assert links(rebuilt) == [(0, 1, 1.0), (0, 3, 2.5), (3, 5, 2.5), (5, 6, 1.0)]
        assert [bn.capacity for bn in rebuilt.values()] == [7] * 5
        assert all(not bn.attached for bn in rebuilt.values())


class TestRoutingTableAccounting:
    def test_byte_formula(self):
        graph = build_backbone([(0, 5), (1, 5)], [(0, 1, 1.0)])
        for i in range(4):
            attach(graph, i % 2, f"v{i}")
        compute_routes(graph)
        bn = graph[0]
        assert routing_table_bytes(bn) == ROUTING_TABLE_BASE_BYTES + 4 * ROUTING_ENTRY_BYTES

    def test_plain_nodes_excluded_from_tables(self):
        graph = build_backbone([(0, 5), (1, 5)], [(0, 1, 1.0)])
        attach(graph, 0, "v0", role="validator")
        attach(graph, 1, "plain", role="node")
        compute_routes(graph)
        assert "v0" in graph[1].routes
        assert "plain" not in graph[0].routes

    def test_table_dump_format(self):
        graph = build_backbone([(0, 5), (1, 5)], [(0, 1, 1.0)])
        attach(graph, 1, "validator-key-1234")
        compute_routes(graph)
        text = routing_table_text(graph[0])
        assert "next hop" in text
        assert "validator-ke" in text
