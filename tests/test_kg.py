import io
import random

import pytest

from kglinker.errors import NodeNotFoundError, ParseError
from kglinker.kg import (
    DISCONNECTED,
    HopOracle,
    Kind,
    Triple,
    build_subdivision,
    hop_block,
    load_graph,
)

from oracles import all_pairs_bfs


def make_graph(lines):
    return load_graph(io.StringIO("\n".join(lines) + "\n"))


class TestLoadGraph:
    def test_single_triple(self):
        kg = make_graph(["A\tp\tB"])
        assert kg.vertices == {"A", "B"}
        assert kg.edge_labels == {"p"}
        assert kg.triples == [Triple("A", "p", "B")]

    def test_whitespace_fallback(self):
        kg = make_graph(["A p B"])
        assert kg.triples == [Triple("A", "p", "B")]

    def test_duplicate_lines_deduplicate(self):
        kg = make_graph(["A\tp\tB", "A\tp\tB"])
        assert len(kg.triples) == 1
        assert kg.vertices == {"A", "B"}

    def test_three_triple_chain(self):
        kg = make_graph(["A\tp\tB", "B\tq\tC", "C\tr\tA"])
        assert len(kg.vertices) == 3
        assert len(kg.edge_labels) == 3
        assert len(kg.triples) == 3

    def test_empty_stream_is_valid(self):
        kg = make_graph([""])
        assert len(kg.triples) == 0

    def test_comments_and_blanks_skipped(self):
        kg = make_graph(["# header", "", "A\tp\tB"])
        assert len(kg.triples) == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as excinfo:
            make_graph(["A\tp\tB", "A\tp"])
        assert excinfo.value.line_number == 2


class TestBuildSubdivision:
    def test_single_triple_shape(self):
        graph = build_subdivision(make_graph(["A\tp\tB"]))
        assert len(graph) == 3
        assert graph.edge_count() == 2
        a = graph.node_id("A", Kind.ENTITY)
        w = graph.node_id("p", Kind.RELATION)
        b = graph.node_id("B", Kind.ENTITY)
        assert set(graph.neighbors(w)) == {a, b}

    def test_shared_predicate_merges(self):
        graph = build_subdivision(make_graph(["A\tp\tB", "C\tp\tD"]))
        w = graph.node_id("p", Kind.RELATION)
        assert len(graph.neighbors(w)) == 4
        assert len(graph) == 5

    def test_parallel_predicates_stay_separate(self):
        graph = build_subdivision(make_graph(["A\tp\tB", "A\tq\tB"]))
        assert len(graph) == 4
        assert graph.edge_count() == 4

    def test_name_collision_between_kinds(self):
        graph = build_subdivision(make_graph(["p\tp\tB"]))
        assert graph.node_id("p", Kind.ENTITY) != graph.node_id("p", Kind.RELATION)


class TestHopDistance:
    def test_identity_is_zero(self):
        oracle = HopOracle(build_subdivision(make_graph(["A\tp\tB"])))
        assert oracle.distance("A", "A") == 0

    def test_entity_to_relation_and_entity(self):
        oracle = HopOracle(build_subdivision(make_graph(["A\tp\tB"])))
        assert oracle.distance("A", "p", kind_b=Kind.RELATION) == 1
        assert oracle.distance("A", "B") == 2

    def test_chain_cap_boundary(self):
        graph = build_subdivision(make_graph(["A\tp\tB", "B\tq\tC"]))
        assert HopOracle(graph, cap=4).distance("A", "C") == 4
        assert HopOracle(graph, cap=3).distance("A", "C") == DISCONNECTED

    def test_unknown_node_raises(self):
        oracle = HopOracle(build_subdivision(make_graph(["A\tp\tB"])))
        with pytest.raises(NodeNotFoundError):
            oracle.distance("A", "missing")

    def test_disconnected_components(self):
        oracle = HopOracle(build_subdivision(make_graph(["A\tp\tB", "C\tq\tD"])))
        assert oracle.distance("A", "C") == DISCONNECTED


def random_kg_lines(rng, n_vertices, n_triples):
    vertices = [f"v{i}" for i in range(n_vertices)]
    predicates = [f"p{i}" for i in range(max(2, n_vertices // 3))]
    lines = []
    for _ in range(n_triples):
        lines.append(
            f"{rng.choice(vertices)}\t{rng.choice(predicates)}\t{rng.choice(vertices)}"
        )
    return lines


class TestHopOracleProperties:
    def test_triple_level_invariants(self):
        rng = random.Random(11)
        kg = make_graph(random_kg_lines(rng, 12, 25))
        graph = build_subdivision(kg)
        oracle = HopOracle(graph)
        for triple in kg.triples:
            assert oracle.distance(triple.subject, triple.predicate, Kind.ENTITY, Kind.RELATION) == 1
            d = oracle.distance(triple.subject, triple.object)
            assert 0 <= d <= 2

    def test_symmetry(self):
        rng = random.Random(7)
        graph = build_subdivision(make_graph(random_kg_lines(rng, 10, 20)))
        oracle = HopOracle(graph)
        names = sorted(range(len(graph)))
        for a in names:
            for b in names:
                assert oracle.distance_by_id(a, b) == oracle.distance_by_id(b, a)

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_matches_all_pairs_bfs(self, cap):
        rng = random.Random(cap * 101)
        graph = build_subdivision(make_graph(random_kg_lines(rng, 14, 30)))
        oracle = HopOracle(graph, cap=cap)
        table = all_pairs_bfs(graph.adjacency)
        for a in range(len(graph)):
            for b in range(len(graph)):
                expected = table[a][b]
                if expected == -1 or expected > cap:
                    expected = DISCONNECTED
                assert oracle.distance_by_id(a, b) == expected
        ids = list(range(len(graph)))
        block = hop_block(HopOracle(graph, cap=cap), ids[::2], ids[::-3])
        assert block.tolist() == [[oracle.distance_by_id(a, b) for b in ids[::-3]] for a in ids[::2]]

    def test_hop_block_none_and_empty(self):
        class Counting:
            calls = 0

            def distance_by_id(self, a, b):
                self.calls += 1
                return 7

        oracle = Counting()
        block = hop_block(oracle, [0, None], [None, 1, 2])
        assert block.tolist() == [[DISCONNECTED, 7, 7], [DISCONNECTED] * 3]
        assert oracle.calls == 2
        assert hop_block(oracle, [], [1, 2]).shape == (0, 2)
        assert hop_block(oracle, [1, 2], []).shape == (2, 0)
        assert oracle.calls == 2

    def test_cache_transparency(self):
        rng = random.Random(3)
        graph = build_subdivision(make_graph(random_kg_lines(rng, 12, 24)))
        cold = HopOracle(graph)
        warm = HopOracle(graph)
        pairs = [(a, b) for a in range(len(graph)) for b in range(len(graph))]
        warm_first = {pair: warm.distance_by_id(*pair) for pair in pairs}
        warm_second = {pair: warm.distance_by_id(*pair) for pair in pairs}
        cold_answers = {pair: cold.distance_by_id(*pair) for pair in pairs}
        assert warm_first == warm_second == cold_answers
