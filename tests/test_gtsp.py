import io
import random

import numpy as np
import pytest

from kglinker.errors import InstanceError, NodeNotFoundError, TooLargeError
from kglinker.gtsp import (
    GtspInstance,
    GtspNode,
    build_instance,
    decode_order,
    disconnect_penalty,
    noon_bean,
    solve_approx,
    solve_exact,
    solve_tour,
    tour_cost,
)
from kglinker.index import Candidate, CandidateList
from kglinker.kg import DISCONNECTED, HopOracle, Kind, build_subdivision, load_graph

from oracles import enumerate_gtsp, enumerate_gtsp_argmin, held_karp_atsp, noon_bean_matrix

E = Kind.ENTITY
R = Kind.RELATION


def make_oracle(lines, cap=4):
    kg = load_graph(io.StringIO("\n".join(lines) + "\n"))
    return HopOracle(build_subdivision(kg), cap=cap)


def clist(keyword, kind, uris):
    cands = [
        Candidate(uri=u, matched_label=u, text_score=1.0 / r, initial_rank=r, kind=kind)
        for r, u in enumerate(uris, start=1)
    ]
    return CandidateList(keyword=keyword, kind_queried=kind, candidates=cands)


def random_instance(rng, max_clusters=4, max_size=5, max_total=None, sizes=None):
    p = rng.randint(2, max_clusters) if sizes is None else len(sizes)
    while sizes is None:
        drawn = [rng.randint(1, max_size) for _ in range(p)]
        if max_total is None or sum(drawn) <= max_total:
            sizes = drawn
    nodes = []
    clusters = []
    for c, size in enumerate(sizes):
        members = []
        for i in range(size):
            members.append(len(nodes))
            nodes.append(
                GtspNode(uri=f"u{c}_{i}", kind=E, rank=i + 1, cluster=c)
            )
        clusters.append(members)
    n = len(nodes)
    cost = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = float(rng.randint(0, 12))
            cost[i, j] = value
            cost[j, i] = value
    return GtspInstance(
        keywords=[f"k{c}" for c in range(p)],
        nodes=nodes,
        clusters=clusters,
        cost=cost,
        disconnect_penalty=13.0,
    )


def tie_instance(rng, rank_weight):
    """A small instance built to tie: integer hops 0-3, uris repeated across
    clusters, one node in two clusters, asymmetric costs and few distinct ranks."""
    p = rng.randint(2, 4)
    nodes = []
    clusters = []
    for c in range(p):
        clusters.append(list(range(len(nodes), len(nodes) + rng.randint(1, 3))))
        for _ in clusters[-1]:
            uri = f"u{rng.randint(0, 3)}"
            nodes.append(GtspNode(uri=uri, kind=E, rank=rng.randint(1, 2), cluster=c))
    shared = rng.randrange(len(nodes))
    clusters[rng.choice([c for c in range(p) if c != nodes[shared].cluster])].append(shared)
    n = len(nodes)
    cost = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                cost[i, j] = rng.randint(0, 3) + rank_weight * (nodes[i].rank + nodes[j].rank)
    return GtspInstance(
        keywords=[f"k{c}" for c in range(p)],
        nodes=nodes,
        clusters=clusters,
        cost=cost,
        disconnect_penalty=9.0,
    )


class TestBuildInstance:
    def test_cost_is_hops_plus_ranks(self):
        oracle = make_oracle(["A\tp\tB"])
        lists = [clist("ka", E, ["A"]), clist("kb", E, ["B"])]
        inst = build_instance(lists, oracle, rank_weight=1.0)
        assert inst.cost[0, 1] == pytest.approx(4.0)  # 2 hops + ranks 1+1

    def test_zero_rank_weight(self):
        oracle = make_oracle(["A\tp\tB"])
        lists = [clist("ka", E, ["A"]), clist("kb", E, ["B"])]
        inst = build_instance(lists, oracle, rank_weight=0.0)
        assert inst.cost[0, 1] == pytest.approx(2.0)

    def test_disconnected_pair_uses_penalty(self):
        oracle = make_oracle(["A\tp\tB", "C\tq\tD"])
        lists = [clist("ka", E, ["A", "B"]), clist("kc", E, ["C"])]
        inst = build_instance(lists, oracle, rank_weight=1.0)
        penalty = disconnect_penalty(4, 2)
        assert inst.disconnect_penalty == penalty
        assert inst.cost[0, 2] == pytest.approx(penalty + 2.0)

    def test_cost_symmetric_zero_diagonal(self):
        oracle = make_oracle(["A\tp\tB", "B\tq\tC", "X\tr\tY"])
        lists = [
            clist("ka", E, ["A", "B", "X"]),
            clist("kb", E, ["C", "p"]),
            clist("kc", E, ["B", "A"]),
        ]
        lists[1].candidates[1] = Candidate("p", "p", 0.5, 2, R)
        inst = build_instance(lists, oracle, rank_weight=0.5)
        assert np.allclose(inst.cost, inst.cost.T)
        assert np.all(np.diag(inst.cost) == 0)
        # only cross-cluster pairs are queried; intra-cluster costs stay 0
        assert oracle.pairs == 3 * 2 + 3 * 2 + 2 * 2
        ids = [oracle.graph.node_id(node.uri, node.kind) for node in inst.nodes]
        for u, nu in enumerate(inst.nodes):
            for v, nv in enumerate(inst.nodes):
                if nu.cluster == nv.cluster:
                    assert inst.cost[u, v] == 0.0
                    continue
                d = oracle.distance_by_id(ids[u], ids[v])
                hops = float(d) if d != DISCONNECTED else inst.disconnect_penalty
                assert inst.cost[u, v] == hops + 0.5 * (nu.rank + nv.rank)

    def test_off_graph_candidate_and_empty_list_rejected(self):
        # Retrieval removes off-graph candidates, so one reaching here is an error.
        oracle = make_oracle(["A\tp\tB"])
        lists = [clist("ka", E, ["A", "ghost"]), clist("kb", E, ["B"])]
        with pytest.raises(NodeNotFoundError, match="ghost"):
            build_instance(lists, oracle)
        with pytest.raises(InstanceError, match="kempty"):
            build_instance([clist("ka", E, ["A"]), clist("kempty", E, [])], oracle)

    def test_single_list_rejected(self):
        oracle = make_oracle(["A\tp\tB"])
        with pytest.raises(InstanceError):
            build_instance([clist("ka", E, ["A"])], oracle)


class TestSolveExact:
    def test_single_choice_instance(self):
        rng = random.Random(1)
        inst = random_instance(rng, max_clusters=3, max_size=1)
        result = solve_exact(inst)
        assert result.total_cost == pytest.approx(
            enumerate_gtsp(inst.cost, inst.clusters)
        )

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(60):
            inst = random_instance(rng)
            result = solve_exact(inst)
            expected = enumerate_gtsp(inst.cost, inst.clusters)
            assert result.total_cost == pytest.approx(expected)
            assert result.recompute_cost(inst) == pytest.approx(result.total_cost)
            assert sorted(inst.nodes[n].cluster for n in result.chosen) == list(
                range(inst.cluster_count)
            )

    def test_budget_exceeded(self):
        # the budget bounds the DP's arc relaxations: each ordered pair of
        # clusters (a, then b) relaxes m_a * m_b arcs once per subset holding both
        inst = random_instance(random.Random(2), sizes=[3, 5, 2, 4])
        relaxations = 2 ** (4 - 2) * (14**2 - (9 + 25 + 4 + 16))
        solve_exact(inst, budget=relaxations)
        with pytest.raises(TooLargeError):
            solve_exact(inst, budget=relaxations - 1)

    def test_five_clusters_of_thirty_within_default_budget(self):
        inst = random_instance(random.Random(14), sizes=[30] * 5)
        result = solve_exact(inst)
        assert result.recompute_cost(inst) == result.total_cost
        assert sorted(inst.nodes[n].cluster for n in result.chosen) == list(range(5))
        assert result.total_cost <= solve_approx(inst).total_cost

    def test_ties_break_like_full_enumeration(self):
        rng = random.Random(15)
        for _ in range(1000):
            inst = tie_instance(rng, rank_weight=0.3)
            result = solve_exact(inst)
            total, _uris, order, route = enumerate_gtsp_argmin(
                inst.cost, inst.clusters, [node.uri for node in inst.nodes]
            )
            chosen = [0] * inst.cluster_count
            for cluster, node in zip(order, route):
                chosen[cluster] = node
            assert (result.total_cost, result.order, result.chosen) == (total, list(order), chosen)

    def test_dominant_candidate_always_chosen(self):
        # cluster 1 has one node connected cheaply to everything, rivals expensive
        nodes = [
            GtspNode("a0", E, 1, 0),
            GtspNode("b_good", E, 1, 1),
            GtspNode("b_bad", E, 2, 1),
            GtspNode("c0", E, 1, 2),
        ]
        cost = np.array(
            [
                [0, 1, 50, 1],
                [1, 0, 0, 1],
                [50, 0, 0, 50],
                [1, 1, 50, 0],
            ],
            dtype=float,
        )
        inst = GtspInstance(
            keywords=["a", "b", "c"],
            nodes=nodes,
            clusters=[[0], [1, 2], [3]],
            cost=cost,
            disconnect_penalty=50.0,
        )
        result = solve_exact(inst)
        assert result.chosen[1] == 1
        assert result.total_cost == pytest.approx(enumerate_gtsp(cost, inst.clusters))

    def test_tie_break_lexicographic_uris(self):
        nodes = [
            GtspNode("x", E, 1, 0),
            GtspNode("aaa", E, 1, 1),
            GtspNode("bbb", E, 1, 1),
        ]
        cost = np.ones((3, 3)) - np.eye(3)
        inst = GtspInstance(
            keywords=["k0", "k1"],
            nodes=nodes,
            clusters=[[0], [1, 2]],
            cost=cost,
            disconnect_penalty=9.0,
        )
        result = solve_exact(inst)
        assert inst.nodes[result.chosen[1]].uri == "aaa"


class TestNoonBean:
    def test_single_cluster_rejected(self):
        rng = random.Random(3)
        inst = random_instance(rng, max_clusters=2, max_size=2)
        inst.clusters = inst.clusters[:1]
        inst.keywords = inst.keywords[:1]
        with pytest.raises(InstanceError):
            noon_bean(inst)

    def test_two_singleton_clusters(self):
        rng = random.Random(4)
        inst = random_instance(rng, max_clusters=2, max_size=1)
        matrix, mapping = noon_bean(inst)
        assert matrix.shape == (2, 2)
        assert decode_order([0, 1], mapping) == [0, 1]
        assert decode_order([1, 0], mapping) == [1, 0]

    def test_non_contiguous_tour_first_entry_wins(self):
        inst = random_instance(random.Random(4), sizes=[2, 1, 1])
        _, mapping = noon_bean(inst)
        assert mapping.cluster_of == [0, 0, 1, 2]
        # Cluster 0 is entered at tour positions 0 and 2; the first entry fixes its place.
        assert decode_order([0, 2, 1, 3], mapping) == [0, 1, 2]
        assert decode_order([2, 0, 3, 1], mapping) == [1, 0, 2]

    def test_matrix_matches_per_arc_reference(self):
        rng = random.Random(12)
        draws = [random_instance(rng, max_clusters=5, max_size=6) for _ in range(100)]
        draws += [tie_instance(rng, rank_weight) for rank_weight in (0.0, 0.3, 0.7, 1.0) * 25]
        for inst in draws:
            matrix, mapping = noon_bean(inst)
            reference = noon_bean_matrix(inst.cost, inst.clusters)
            assert matrix.shape == reference.shape
            assert (matrix == reference).all()
            assert mapping.gtsp_node == [n for members in inst.clusters for n in members]

    def test_round_trip_against_cycle_exact(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_instance(rng, max_clusters=3, max_size=4, max_total=9)
            matrix, mapping = noon_bean(inst)
            optimal_tour = held_karp_atsp(matrix)
            cycle_best = enumerate_gtsp(inst.cost, inst.clusters, cycle=True)
            assert optimal_tour - mapping.cluster_count * mapping.offset == pytest.approx(
                cycle_best
            )

    def test_offset_exceeds_total_cost(self):
        rng = random.Random(6)
        inst = random_instance(rng)
        _, mapping = noon_bean(inst)
        assert mapping.offset > float(inst.cost.sum())

    def test_overlapping_clusters_duplicated(self):
        nodes = [GtspNode("a", E, 1, 0), GtspNode("b", E, 1, 1)]
        cost = np.array([[0.0, 3.0], [3.0, 0.0]])
        inst = GtspInstance(
            keywords=["k0", "k1"],
            nodes=nodes,
            clusters=[[0, 1], [1]],  # node 1 in both clusters
            cost=cost,
            disconnect_penalty=9.0,
        )
        matrix, mapping = noon_bean(inst)
        assert matrix.shape == (3, 3)
        assert mapping.gtsp_node == [0, 1, 1]


class TestSolveLk:
    """solve_tour: the cheapest of its seeded nearest-neighbour tours."""

    def test_requires_three_nodes(self):
        with pytest.raises(InstanceError):
            solve_tour(np.zeros((2, 2)))

    def test_flat_costs_any_tour(self):
        n = 5
        cost = np.full((n, n), 3.0) - 3.0 * np.eye(n)
        tour = solve_tour(cost)
        assert sorted(tour) == list(range(n))
        assert tour_cost(cost, tour) == pytest.approx(15.0)

    def test_four_node_unique_optimum(self):
        # optimal directed tour 0 -> 1 -> 2 -> 3 -> 0 with cost 4
        cost = np.full((4, 4), 9.0)
        np.fill_diagonal(cost, 0.0)
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            cost[a, b] = 1.0
        tour = solve_tour(cost)
        assert tour_cost(cost, tour) == pytest.approx(4.0)

    def test_cheapest_of_its_seeded_nearest_neighbor_starts(self):
        from kglinker.gtsp import _nearest_neighbor, _normalize_rotation

        rng = random.Random(8)
        for trial in range(10):
            n = 12
            cost = np.array(
                [[0 if i == j else rng.randint(1, 40) for j in range(n)] for i in range(n)],
                dtype=float,
            )
            tour = solve_tour(cost, seed=trial)
            starts = random.Random(trial).sample(range(n), 6)
            tours = [_normalize_rotation(_nearest_neighbor(cost, s)) for s in starts]
            assert tour in tours
            assert tour_cost(cost, tour) == min(tour_cost(cost, t) for t in tours)

    def test_deterministic_given_seed(self):
        rng = random.Random(9)
        n = 10
        cost = np.array(
            [[0 if i == j else rng.randint(1, 30) for j in range(n)] for i in range(n)],
            dtype=float,
        )
        assert solve_tour(cost, seed=3) == solve_tour(cost, seed=3)


class TestSolveApprox:
    def test_singleton_clusters_exact(self):
        rng = random.Random(10)
        inst = random_instance(rng, max_clusters=4, max_size=1)
        approx = solve_approx(inst)
        exact = solve_exact(inst)
        assert approx.total_cost == pytest.approx(exact.total_cost)

    def test_never_better_than_exact(self):
        rng = random.Random(11)
        for _ in range(40):
            inst = random_instance(rng)
            approx = solve_approx(inst)
            exact = solve_exact(inst)
            assert approx.total_cost >= exact.total_cost - 1e-9
            assert approx.recompute_cost(inst) == pytest.approx(approx.total_cost)

    def test_dominant_selection_matches_exact(self):
        oracle = make_oracle(
            [
                "TeslaMotors\tfoundedBy\tElonMusk",
                "SpaceX\tfoundedBy\tElonMusk",
                "ElonMusk\tbirthPlace\tPretoria",
                "NikolaTesla\tknownFor\tTeslaCoil",
            ]
        )
        lists = [
            clist("founder", R, ["foundedBy"]),
            clist("tesla", E, ["NikolaTesla", "TeslaMotors"]),
            clist("spacex", E, ["SpaceX"]),
            clist("born", R, ["birthPlace"]),
        ]
        for lst in lists:
            fixed = []
            for cand in lst.candidates:
                kind = R if cand.uri in ("foundedBy", "birthPlace") else E
                fixed.append(
                    Candidate(cand.uri, cand.matched_label, cand.text_score, cand.initial_rank, kind)
                )
            lst.candidates = fixed
        inst = build_instance(lists, oracle)
        exact = solve_exact(inst)
        approx = solve_approx(inst)
        assert exact.chosen_uris(inst) == approx.chosen_uris(inst)
        assert exact.chosen_uris(inst)[1] == "TeslaMotors"
