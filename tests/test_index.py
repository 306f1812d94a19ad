import io
import pickle
import random

import pytest

from kglinker.errors import IndexVersionError, ParseError
from kglinker.index import (
    CandidateList,
    LabelEntry,
    LabelIndex,
    build_index,
    normalize,
    read_expansions,
    read_label_entries,
    trigrams_of,
)
from kglinker.kg import Kind


E = Kind.ENTITY
R = Kind.RELATION


def small_index():
    entries = [
        LabelEntry("dbr:Tesla_Motors", "Tesla Motors", E),
        LabelEntry("dbr:SpaceX", "SpaceX", E),
        LabelEntry("dbr:The_Founder", "The Founder", E),
        LabelEntry("dbo:foundedBy", "founded by", R),
        LabelEntry("dbo:author", "author", R),
    ]
    expansions = [
        ("Tesla Motors", "Tesla"),
        ("founded by", "founder"),
        ("author", "writer"),
    ]
    return build_index(entries, expansions)


class TestNormalize:
    def test_lowercase_punctuation_whitespace(self):
        assert normalize("  Tesla,  Motors!") == "tesla motors"
        assert normalize("foo_bar") == "foo bar"

    def test_trigrams_short_string(self):
        assert trigrams_of("ab") == frozenset(("ab",))


class TestBuildIndex:
    def test_expansion_reaches_base_uri(self):
        index = small_index()
        hits = index.search("Tesla", E, 5)
        assert hits.uris()[0] == "dbr:Tesla_Motors"

    def test_relation_expansion(self):
        index = small_index()
        hits = index.search("writer", R, 5)
        assert hits.uris() == ["dbo:author"]

    def test_empty_expansions_noop(self):
        entries = [LabelEntry("dbr:SpaceX", "SpaceX", E)]
        index = build_index(entries, [])
        assert index.entry_count() == 1

    def test_unmatched_expansion_ignored(self):
        entries = [LabelEntry("dbr:SpaceX", "SpaceX", E)]
        index = build_index(entries, [("Nothing", "variant")])
        assert index.entry_count() == 1

    def test_unknown_uri_warns_but_indexes(self, caplog):
        import io
        import logging

        from kglinker.kg import load_graph

        kg = load_graph(io.StringIO("A\tp\tB\n"))
        entries = [LabelEntry("ghost", "Ghost", E), LabelEntry("A", "Alpha", E)]
        with caplog.at_level(logging.WARNING, logger="kglinker.index"):
            index = build_index(entries, [], kg)
        assert index.entry_count() == 2
        assert any("ghost" in r.message for r in caplog.records)


class TestSearch:
    def test_exact_match_rank_one(self):
        index = small_index()
        hits = index.search("SpaceX", E, 10)
        assert hits.candidates[0].uri == "dbr:SpaceX"
        assert hits.candidates[0].initial_rank == 1

    def test_k_truncation(self):
        index = small_index()
        hits = index.search("founder", E, 1)
        assert len(hits) <= 1

    def test_kind_filter(self):
        index = small_index()
        hits = index.search("founder", R, 10)
        assert hits.uris() == ["dbo:foundedBy"]
        entity_hits = index.search("founder", E, 10)
        assert "dbo:foundedBy" not in entity_hits.uris()

    def test_zero_hits_is_empty_list(self):
        index = small_index()
        hits = index.search("zzzqqq", R, 10)
        assert isinstance(hits, CandidateList)
        assert len(hits) == 0

    def test_ranks_are_contiguous_and_scores_sorted(self):
        index = small_index()
        hits = index.search("tesla founder", E, 10)
        ranks = [c.initial_rank for c in hits.candidates]
        assert ranks == list(range(1, len(ranks) + 1))
        scores = [c.text_score for c in hits.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_fuzzy_fallback_on_typo(self):
        index = small_index()
        hits = index.search("foundre", R, 5)
        assert "dbo:foundedBy" in hits.uris()

    def test_rejects_empty_keyword(self):
        with pytest.raises(ValueError):
            small_index().search("!!!", E, 5)

    def test_weight_boosts_score(self):
        entries = [
            LabelEntry("a", "same label", E, weight=1.0),
            LabelEntry("b", "same label", E, weight=2.0),
        ]
        index = build_index(entries)
        hits = index.search("same label", E, 2)
        assert hits.uris() == ["b", "a"]

    def test_tie_break_shorter_label_then_uri(self):
        entries = [
            LabelEntry("uri:bbb", "alpha", E),
            LabelEntry("uri:aaa", "alpha", E),
        ]
        index = build_index(entries)
        hits = index.search("alpha", E, 5)
        assert hits.uris() == ["uri:aaa", "uri:bbb"]


class TestSearchProperties:
    def random_index(self, seed):
        rng = random.Random(seed)
        words = ["alpha", "beta", "gamma", "delta", "omega", "zeta", "kappa"]
        entries = []
        for i in range(30):
            kind = E if rng.random() < 0.6 else R
            label = " ".join(rng.sample(words, rng.randint(1, 3)))
            entries.append(LabelEntry(f"uri:{kind.value}{i}", label, kind))
        expansions = [("alpha beta", "alphabet"), ("omega", "omg")]
        return build_index(entries, expansions), entries

    def test_determinism(self):
        index, _ = self.random_index(5)
        first = index.search("alpha gamma", E, 10)
        second = index.search("alpha gamma", E, 10)
        assert first == second

    def test_kind_separation(self):
        index, entries = self.random_index(6)
        entity_uris = {e.uri for e in entries if e.kind is E}
        for keyword in ("alpha", "beta gamma", "omega"):
            hits = index.search(keyword, R, 30)
            assert not (set(hits.uris()) & entity_uris)

    def test_expansion_soundness(self):
        index, _ = self.random_index(7)
        variant_hits = index.search("alphabet", E, 100).uris()
        base_hits = index.search("alpha beta", E, 100).uris()
        for uri in variant_hits:
            assert uri in base_hits


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        index = small_index()
        path = tmp_path / "index.bin"
        index.save(str(path))
        loaded = LabelIndex.load(str(path))
        assert loaded.search("Tesla", E, 5) == index.search("Tesla", E, 5)
        assert loaded.vocabulary() == index.vocabulary()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"KGLINKER-INDEX v99\njunk")
        with pytest.raises(IndexVersionError):
            LabelIndex.load(str(path))

    def test_v1_pickle_refused(self, tmp_path):
        # version 1 stored the entry lists as a pickle, which can run code on load
        payload = {"entries": {"E": [("dbr:SpaceX", "SpaceX", 1.0)], "R": []}}
        path = tmp_path / "index.bin"
        path.write_bytes(b"KGLINKER-INDEX v1\n" + pickle.dumps(payload, protocol=4))
        with pytest.raises(IndexVersionError):
            LabelIndex.load(str(path))


class TestFileParsing:
    def test_labels_file(self):
        text = "# comment\nuri:a\tAlpha\tE\nuri:b\tBeta\tR\t2.5\n"
        entries = read_label_entries(io.StringIO(text))
        assert entries[0] == LabelEntry("uri:a", "Alpha", E)
        assert entries[1].weight == 2.5

    def test_labels_file_bad_kind(self):
        with pytest.raises(ParseError) as excinfo:
            read_label_entries(io.StringIO("uri:a\tAlpha\tX\n"))
        assert excinfo.value.line_number == 1

    def test_expansions_file(self):
        pairs = read_expansions(io.StringIO("base label\tvariant\n"))
        assert pairs == [("base label", "variant")]

    def test_expansions_file_malformed(self):
        with pytest.raises(ParseError):
            read_expansions(io.StringIO("only one field\n"))
