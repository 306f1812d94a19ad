import io
import random

import pytest

from kglinker.density import compute_features
from kglinker.errors import InstanceError, NodeNotFoundError
from kglinker.index import Candidate, CandidateList
from kglinker.kg import HopOracle, Kind, build_subdivision, load_graph

from oracles import all_pairs_bfs, naive_density

E = Kind.ENTITY
R = Kind.RELATION


def make_oracle(lines, cap=4):
    kg = load_graph(io.StringIO("\n".join(lines) + "\n"))
    return HopOracle(build_subdivision(kg), cap=cap)


def clist(keyword, uris_with_kind):
    cands = [
        Candidate(uri=u, matched_label=u, text_score=1.0 / r, initial_rank=r, kind=k)
        for r, (u, k) in enumerate(uris_with_kind, start=1)
    ]
    return CandidateList(keyword=keyword, kind_queried=cands[0].kind if cands else E, candidates=cands)


class TestComputeFeatures:
    def test_two_singleton_lists(self):
        oracle = make_oracle(["A\tp\tB"])
        lists = [clist("ka", [("A", E)]), clist("kb", [("B", E)])]
        feats = compute_features(lists, oracle)
        assert feats[0][0].connection_count == pytest.approx(0.5)
        assert feats[0][0].hop_count == pytest.approx(1.0)
        assert feats[1][0].connection_count == pytest.approx(0.5)

    def test_disconnected_candidate_zero_connections(self):
        oracle = make_oracle(["A\tp\tB", "X\tq\tY"])
        lists = [clist("ka", [("A", E), ("X", E)]), clist("kb", [("B", E)])]
        feats = compute_features(lists, oracle)
        assert feats[0][1].connection_count == 0.0
        assert feats[0][1].hop_count == pytest.approx((oracle.cap + 1) / 2)

    def test_hub_candidate_beats_isolated_rival(self):
        lines = [
            "Queen_band\tgenre\tRock",
            "Queen_band\tmember\tFreddie",
            "Queen_chess\tpartOf\tChess",
        ]
        oracle = make_oracle(lines)
        lists = [
            clist("queen", [("Queen_chess", E), ("Queen_band", E)]),
            clist("genre", [("genre", R)]),
            clist("member", [("member", R)]),
        ]
        feats = compute_features(lists, oracle)
        by_uri = {f.candidate.uri: f for f in feats[0]}
        assert by_uri["Queen_band"].connection_count > by_uri["Queen_chess"].connection_count

    def test_single_list_rejected(self):
        oracle = make_oracle(["A\tp\tB"])
        with pytest.raises(InstanceError):
            compute_features([clist("ka", [("A", E)])], oracle)

    def test_same_uri_in_two_lists_connects(self):
        oracle = make_oracle(["A\tp\tB"])
        lists = [clist("ka", [("A", E)]), clist("kb", [("A", E)])]
        feats = compute_features(lists, oracle)
        assert feats[0][0].connection_count == pytest.approx(0.5)
        assert feats[0][0].hop_count == 0.0

    def test_off_graph_candidate_rejected(self):
        # Retrieval removes off-graph candidates, so one reaching here is an error.
        oracle = make_oracle(["A\tp\tB"])
        lists = [clist("ka", [("ghost", E)]), clist("kb", [("B", E)])]
        with pytest.raises(NodeNotFoundError, match="ghost"):
            compute_features(lists, oracle)


def random_world(rng, n_vertices=14, n_triples=26):
    vertices = [f"v{i}" for i in range(n_vertices)]
    predicates = [f"p{i}" for i in range(5)]
    triples = [
        (rng.choice(vertices), rng.choice(predicates), rng.choice(vertices))
        for _ in range(n_triples)
    ]
    oracle = make_oracle(["\t".join(triple) for triple in triples])
    # Candidates are graph nodes only, as retrieval leaves them.
    vertices = sorted({s for s, _, _ in triples} | {o for _, _, o in triples})
    predicates = sorted({p for _, p, _ in triples})
    n_lists = rng.randint(2, 4)
    lists = []
    for k in range(n_lists):
        size = rng.randint(1, 4)
        members = []
        for _ in range(size):
            if rng.random() < 0.5:
                members.append((rng.choice(vertices), E))
            else:
                members.append((rng.choice(predicates), R))
        lists.append(clist(f"kw{k}", members))
    return oracle, lists


class TestFeatureProperties:
    def test_matches_naive_recount_exactly(self):
        rng = random.Random(21)
        for _ in range(40):
            oracle, lists = random_world(rng)
            feats = compute_features(lists, oracle)
            table = all_pairs_bfs(oracle.graph.adjacency)
            node_lists = [
                [oracle.graph.node_id(c.uri, c.kind) for c in lst.candidates]
                for lst in lists
            ]
            c_exp, h_exp = naive_density(node_lists, table, oracle.cap)
            for li in range(len(lists)):
                for ci in range(len(lists[li].candidates)):
                    assert feats[li][ci].connection_count == c_exp[li][ci]
                    assert feats[li][ci].hop_count == h_exp[li][ci]

    def test_list_order_invariance(self):
        rng = random.Random(22)
        oracle, lists = random_world(rng)
        feats = compute_features(lists, oracle)
        reordered = list(reversed(lists))
        feats_rev = compute_features(reordered, oracle)
        for li, lst in enumerate(lists):
            rev_li = len(lists) - 1 - li
            for ci in range(len(lst.candidates)):
                assert feats[li][ci] == feats_rev[rev_li][ci]

    def test_adding_edge_never_decreases_connections(self):
        base_lines = ["A\tp\tB", "C\tq\tD"]
        extra_lines = base_lines + ["A\tr\tC"]
        lists_spec = [
            [("A", E), ("C", E)],
            [("B", E), ("D", E)],
        ]
        before = compute_features(
            [clist("k0", lists_spec[0]), clist("k1", lists_spec[1])],
            make_oracle(base_lines),
        )
        after = compute_features(
            [clist("k0", lists_spec[0]), clist("k1", lists_spec[1])],
            make_oracle(extra_lines),
        )
        for li in range(2):
            for ci in range(2):
                assert after[li][ci].connection_count >= before[li][ci].connection_count

    def test_pair_evaluation_count(self):
        rng = random.Random(23)
        for n_lists in (2, 3, 4):
            for m in (2, 3):
                vertices = [f"v{i}" for i in range(n_lists * m + 2)]
                lines = [f"{vertices[i]}\tp\t{vertices[i+1]}" for i in range(len(vertices) - 1)]
                oracle = make_oracle(lines)
                lists = [
                    clist(f"k{a}", [(vertices[(a * m + i) % len(vertices)], E) for i in range(m)])
                    for a in range(n_lists)
                ]
                compute_features(lists, oracle)
                assert oracle.pairs == n_lists * (n_lists - 1) // 2 * m * m
