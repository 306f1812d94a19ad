import io
import random

import numpy as np
import pytest

from kglinker import kg
from kglinker.errors import NodeNotFoundError, ParseError
from kglinker.kg import (
    DISCONNECTED,
    HopOracle,
    Kind,
    Triple,
    build_subdivision,
    cross_hops,
    hop_block,
    load_graph,
)
from kglinker.index import Candidate, CandidateList, read_expansions, read_label_entries
from kglinker.reranker import read_feature_rows
from kglinker.stopwords import load_stopwords

from oracles import all_pairs_bfs, per_pair_hop_block

TSV_READERS = (load_graph, read_label_entries, read_expansions, load_stopwords, read_feature_rows)


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

    @pytest.mark.parametrize(
        "reader, content",
        [pytest.param(r, b"# header\nA\t\xff\tB\n", id=f"{r.__name__}-not_utf8") for r in TSV_READERS]
        # Any one-field line is a valid stopword.
        + [
            pytest.param(r, b"# header\nA\n", id=f"{r.__name__}-one_field")
            for r in TSV_READERS
            if r is not load_stopwords
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, reader, content):
        path = tmp_path / "input.tsv"
        path.write_bytes(content)
        with pytest.raises(ParseError) as excinfo:
            reader(str(path))
        assert excinfo.value.line_number == 2
        assert excinfo.value.source == str(path)


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


def hub_kg_lines(rng):
    """``random_kg_lines`` with planted hubs: a ``type`` predicate linking most
    vertices to two classes, as rdf:type does; ``v0``, a hub adjacent to
    ``type`` through predicates of its own; and a chain whose far end ``x0``
    is 5 hops from ``type``, so every cap from 1 to 5 first reaches a hub at
    the cap from some source."""
    lines = random_kg_lines(rng, 60, 40)
    lines += [f"v{i}\ttype\tclass{i % 2}" for i in range(1, 60) if rng.random() < 0.9]
    lines += ["v0\ttype\tclass0", *(f"v0\tq{i}\tv{rng.randrange(1, 60)}" for i in range(50))]
    lines += ["x0\tc0\tx1", "x1\tc1\tx2", "x2\ttype\tclass1"]
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
        check_matches_all_pairs_bfs(cap)

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_matches_all_pairs_bfs_evicting(self, cap, monkeypatch):
        check_matches_all_pairs_bfs(cap, lambda graph: limit_rows(monkeypatch, graph, 2))

    def test_hop_block_empty_sides(self):
        oracle = HopOracle(build_subdivision(make_graph(["A\tp\tB"])))
        block = hop_block(oracle, [0], [1, 2])
        assert block.tolist() == [[1, 2]]
        assert oracle.pairs == 2
        assert hop_block(oracle, [], [1, 2]).shape == (0, 2)
        assert hop_block(oracle, [1, 2], []).shape == (2, 0)
        assert oracle.pairs == 2

    @pytest.mark.parametrize("rows", [None, 0, 2, 3])
    def test_hop_block_equals_per_pair_reference(self, rows, monkeypatch):
        check_hop_block_equals_per_pair_reference(monkeypatch, rows)

    def test_cache_transparency(self):
        check_cache_transparency()

    def test_cache_transparency_evicting(self, monkeypatch):
        check_cache_transparency(lambda graph: limit_rows(monkeypatch, graph, 3))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_rows_stay_within_budget(self, rows, monkeypatch):
        check_rows_stay_within_budget(monkeypatch, rows)

    @pytest.mark.parametrize("cap", [0, 255])
    def test_cap_outside_row_range_is_refused(self, cap):
        with pytest.raises(ValueError, match="cap must be"):
            HopOracle(build_subdivision(make_graph(["A\tp\tB"])), cap=cap)


class TestHubRows:
    """Rows that stop at hubs and fold in the hubs' rows answer as a plain BFS
    does, on graphs with planted hubs, every node a source, and budgets that
    keep every row or only the last 3, 2 or 1: a 1-row budget evicts the hub's
    row when the source's own row is inserted."""

    def test_hub_rule(self):
        # q of degree 20 among 25 nodes is not a hub (20 * 20 == 16 * 25);
        # one more leaf makes it degree 21 among 26, a hub (441 > 416).
        lines = [f"s\tq\to{i}" for i in range(19)] + ["a\tp\tb", "a\tr\tb"]
        graph = build_subdivision(make_graph(lines))
        assert len(graph) == 25 and not HopOracle(graph).hubs
        graph = build_subdivision(make_graph(lines + ["s\tq\to19"]))
        assert len(graph) == 26
        assert {graph.names[h] for h in HopOracle(graph).hubs} == {"q"}

    def test_planted_hubs(self):
        graph = build_subdivision(make_graph(hub_kg_lines(random.Random(1))))
        oracle = HopOracle(graph)
        assert {graph.names[h] for h in oracle.hubs} == {"type", "v0"}
        type_node = graph.node_id("type", Kind.RELATION)
        assert graph.node_id("v0", Kind.ENTITY) in graph.neighbors(type_node)
        table = all_pairs_bfs(graph.adjacency)
        nearest = {
            min((table[s][h] for h in oracle.hubs if table[s][h] >= 0), default=None)
            for s in range(len(graph))
            if s not in oracle.hubs
        }
        assert {1, 2, 3, 4, 5} <= nearest

    @pytest.mark.parametrize("rows", [None, 3, 2, 1])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_matches_all_pairs_bfs(self, cap, rows, monkeypatch):
        check_matches_all_pairs_bfs(cap, row_limit(monkeypatch, rows), hub_kg_lines)

    @pytest.mark.parametrize("rows", [None, 3, 2, 1])
    def test_cache_transparency(self, rows, monkeypatch):
        check_cache_transparency(row_limit(monkeypatch, rows), hub_kg_lines)

    @pytest.mark.parametrize("rows", [None, 3, 2, 1])
    def test_rows_stay_within_budget(self, rows, monkeypatch):
        check_rows_stay_within_budget(monkeypatch, rows, hub_kg_lines)

    @pytest.mark.parametrize("rows", [None, 3, 2, 1])
    def test_hop_block_equals_per_pair_reference(self, rows, monkeypatch):
        check_hop_block_equals_per_pair_reference(monkeypatch, rows, hub_kg_lines)

    def test_rows_built_counts_hub_rows(self):
        chain = ["x0\tc0\tx1", "x1\tc1\tx2"]
        plain = HopOracle(build_subdivision(make_graph(chain)))
        assert not plain.hubs
        assert plain.distance("x2", "x0") == 4 and plain.rows_built == 1
        hubbed = HopOracle(build_subdivision(make_graph(hub_kg_lines(random.Random(1)))))
        # x2's BFS stops at type and builds type's row to read the paths through it.
        assert hubbed.distance("x2", "x0") == 4 and hubbed.rows_built == 2
        assert hubbed.distance("type", "x1", Kind.RELATION) == 3 and hubbed.rows_built == 2


class TestCrossHops:
    """One question's matrix equals the loop of one ``hop_block`` per pair
    of lists that it replaces, on plain and hub graphs and on oracles that
    keep every row, the last 2 or only 1."""

    @pytest.mark.parametrize("rows", [None, 2, 1])
    @pytest.mark.parametrize(
        "lines", [lambda rng: random_kg_lines(rng, 30, 24), hub_kg_lines], ids=["plain", "hubs"]
    )
    def test_equals_pair_loop(self, lines, rows, monkeypatch):
        check_cross_hops_equals_pair_loop(monkeypatch, rows, lines)

    def test_off_graph_candidate_raises(self):
        oracle = HopOracle(build_subdivision(make_graph(["A\tp\tB"])))
        lists = [candidate_list([("A", Kind.ENTITY)]), candidate_list([("ghost", Kind.ENTITY)])]
        with pytest.raises(NodeNotFoundError, match="ghost"):
            cross_hops(oracle, lists)

    def test_no_lists(self):
        hops, owner = cross_hops(HopOracle(build_subdivision(make_graph(["A\tp\tB"]))), [])
        assert hops.shape == (0, 0) and owner.tolist() == []


def candidate_list(nodes):
    """A candidate list of (uri, kind) pairs, ranked in order."""
    return CandidateList(
        keyword="k",
        kind_queried=Kind.ENTITY,
        candidates=[Candidate(uri, uri, 1.0, rank, kind) for rank, (uri, kind) in enumerate(nodes, 1)],
    )


def check_cross_hops_equals_pair_loop(monkeypatch, rows, lines):
    """Cross-list entries equal the per-pair reference and entries inside a
    list are 0; the pairs counted and the rows built, in order, are those of
    a loop of ``hop_block`` over the lists a < b. Questions repeat a uri in
    two lists and hold empty and single-candidate lists."""
    rng = random.Random(17)
    graph = build_subdivision(make_graph(lines(rng)))
    if rows is not None:
        limit_rows(monkeypatch, graph, rows)
    built = []
    build = HopOracle._row

    def recorded_build(self, source):
        built.append((self, source))
        return build(self, source)

    monkeypatch.setattr(HopOracle, "_row", recorded_build)
    oracle, loop, reference = (HopOracle(graph, cap=2) for _ in range(3))
    nodes = list(zip(graph.names, graph.kinds))
    values, repeated = set(), 0
    for sizes in [(3, 4), (1, 1, 1), (4, 0, 3, 2), (5, 1, 4), (0, 2), (2, 3, 1, 3, 2)] * 3:
        picks = [rng.sample(nodes, size) for size in sizes]
        if sum(1 for pick in picks if pick) >= 2:
            shared = rng.choice([c for pick in picks for c in pick])
            later = [pick for pick in picks if pick and shared not in pick]
            if later:
                later[0][0] = shared
                repeated += 1
        lists = [candidate_list(pick) for pick in picks]
        hops, owner = cross_hops(oracle, lists)
        ids = [[graph.node_id(uri, kind) for uri, kind in pick] for pick in picks]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                hop_block(loop, ids[a], ids[b])
        assert hops.dtype == np.int64 and np.array_equal(hops, hops.T)
        assert owner.tolist() == [i for i, pick in enumerate(picks) for _ in pick]
        bounds = np.cumsum([0] + list(sizes))
        for a in range(len(ids)):
            for b in range(len(ids)):
                block = hops[bounds[a] : bounds[a + 1], bounds[b] : bounds[b + 1]]
                if a == b:
                    assert not block.any()
                else:
                    assert block.tolist() == per_pair_hop_block(reference, ids[a], ids[b]).tolist()
        values.update(hops[owner[:, None] != owner].flat)
        assert oracle.pairs == loop.pairs and oracle.rows_built == loop.rows_built
        assert [s for o, s in built if o is oracle] == [s for o, s in built if o is loop]
    assert repeated and DISCONNECTED in values and len(values) > 2


def check_hop_block_equals_per_pair_reference(
    monkeypatch, rows, lines=lambda rng: random_kg_lines(rng, 30, 24)
):
    """Warm, cold and evicting oracles give the reference's blocks, pair
    counts and sequence of rows built, beyond-cap pairs included."""
    rng = random.Random(11)
    graph = build_subdivision(make_graph(lines(rng)))
    if rows is not None:
        limit_rows(monkeypatch, graph, rows)
    built = []
    build = HopOracle._row

    def recorded_build(self, source):
        built.append((self, source))
        return build(self, source)

    monkeypatch.setattr(HopOracle, "_row", recorded_build)
    oracle, reference = HopOracle(graph, cap=2), HopOracle(graph, cap=2)
    ids = [*rng.sample(range(len(graph)), 8), *sorted(oracle.hubs)]
    shapes = [(0, 3), (3, 0), (1, 1), (4, 1), (1, 5), (5, 6)] * 8
    values = set()
    for size_a, size_b in shapes:
        ids_a, ids_b = rng.choices(ids, k=size_a), rng.choices(ids, k=size_b)
        block = hop_block(oracle, ids_a, ids_b)
        assert block.dtype == np.int64
        assert block.tolist() == per_pair_hop_block(reference, ids_a, ids_b).tolist()
        values.update(block.flat)
    # Beyond-cap pairs were asked, and none leaked the row's 255 byte.
    assert DISCONNECTED in values and 255 not in values
    assert oracle.pairs == reference.pairs
    assert [s for o, s in built if o is oracle] == [s for o, s in built if o is reference]
    assert list(oracle._rows) == list(reference._rows)


def check_rows_stay_within_budget(
    monkeypatch, rows, lines=lambda rng: random_kg_lines(rng, 16, 32)
):
    graph = build_subdivision(make_graph(lines(random.Random(5))))
    if rows is not None:
        limit_rows(monkeypatch, graph, rows)
    oracle = HopOracle(graph)
    table = all_pairs_bfs(graph.adjacency)
    for a in range(len(graph)):
        for b in range(len(graph)):
            expected = table[a][b] if 0 <= table[a][b] <= oracle.cap else DISCONNECTED
            assert oracle.distance_by_id(a, b) == expected
            assert sum(map(len, oracle._rows.values())) <= kg.ROW_BUDGET_BYTES
    if rows is not None:
        assert len(oracle._rows) == rows


def limit_rows(monkeypatch, graph, rows):
    """Shrink the oracle's row budget to ``rows`` rows of ``graph``."""
    monkeypatch.setattr(kg, "ROW_BUDGET_BYTES", rows * len(graph))


def row_limit(monkeypatch, rows):
    """A ``prepare`` hook for ``limit_rows``; None leaves the budget alone."""
    return lambda graph: None if rows is None else limit_rows(monkeypatch, graph, rows)


def check_matches_all_pairs_bfs(
    cap, prepare=lambda graph: None, lines=lambda rng: random_kg_lines(rng, 14, 30)
):
    """Every pair, queried forward then in reverse, equals a plain BFS within ``cap``."""
    rng = random.Random(cap * 101)
    graph = build_subdivision(make_graph(lines(rng)))
    prepare(graph)
    oracle = HopOracle(graph, cap=cap)
    table = all_pairs_bfs(graph.adjacency)
    pairs = [(a, b) for a in range(len(graph)) for b in range(len(graph))]
    for a, b in pairs + pairs[::-1]:
        expected = table[a][b]
        if expected == -1 or expected > cap:
            expected = DISCONNECTED
        assert oracle.distance_by_id(a, b) == expected
    ids = list(range(len(graph)))
    block = hop_block(HopOracle(graph, cap=cap), ids[::2], ids[::-3])
    assert block.tolist() == [[oracle.distance_by_id(a, b) for b in ids[::-3]] for a in ids[::2]]


def check_cache_transparency(
    prepare=lambda graph: None, lines=lambda rng: random_kg_lines(rng, 12, 24)
):
    """A warm oracle, asked again or in reverse order, answers as a cold one does."""
    rng = random.Random(3)
    graph = build_subdivision(make_graph(lines(rng)))
    prepare(graph)
    cold = HopOracle(graph)
    warm = HopOracle(graph)
    pairs = [(a, b) for a in range(len(graph)) for b in range(len(graph))]
    warm_first = {pair: warm.distance_by_id(*pair) for pair in pairs}
    warm_second = {pair: warm.distance_by_id(*pair) for pair in pairs[::-1]}
    cold_answers = {pair: cold.distance_by_id(*pair) for pair in pairs[::-1]}
    assert warm_first == warm_second == cold_answers
