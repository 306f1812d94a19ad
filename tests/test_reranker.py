import json
import random

import pytest

from kglinker.density import DensityFeatures
from kglinker.errors import DataError, TrainingError
from kglinker.index import Candidate, CandidateList
from kglinker.kg import Kind
from kglinker.reranker import (
    FEATURE_NAMES,
    RerankModel,
    TrainingRow,
    mrr,
    read_feature_rows,
    rerank,
    row_from_features,
    train,
    write_feature_rows,
)

E = Kind.ENTITY


def synthetic_rows(
    rng,
    questions=60,
    list_size=5,
    miss_rate=0.0,
    broken_rate=0.0,
):
    """Rows shaped like the end-to-end feature dumps.

    Normally the gold candidate is well connected and cheap to reach.
    ``miss_rate`` puts gold at the worst initial rank (as if injected after a
    retrieval miss). ``broken_rate`` makes a group graph-blind for the gold
    while one textually weak confuser keeps a small connectivity edge, so
    only the initial rank can rescue those groups.
    """
    rows = []
    for q in range(questions):
        qid = f"q{q}"
        keyword = "kw"
        gold_idx = rng.randrange(list_size)
        broken = rng.random() < broken_rate
        missed = not broken and rng.random() < miss_rate
        confuser_idx = (gold_idx + 1) % list_size
        ranks = list(range(2, list_size + 2))
        rng.shuffle(ranks)
        for i in range(list_size):
            is_gold = i == gold_idx
            if is_gold:
                rank = list_size + 1 if missed else (1 if rng.random() < 0.75 else ranks[i])
            elif broken and i == confuser_idx:
                rank = list_size
            else:
                rank = ranks[i]
            if broken:
                if is_gold:
                    connection, hops = 0.0, 5.0
                elif i == confuser_idx:
                    connection = rng.uniform(0.1, 0.2)
                    hops = rng.uniform(4.6, 5.0)
                else:
                    connection, hops = 0.0, 5.0
            else:
                if is_gold:
                    connection = rng.uniform(0.4, 0.8)
                    hops = rng.uniform(1.0, 2.5)
                else:
                    connection = rng.uniform(0.0, 0.25) if rng.random() < 0.3 else 0.0
                    hops = rng.uniform(4.0, 5.0)
            rows.append(
                TrainingRow(
                    question_id=qid,
                    keyword=keyword,
                    uri=f"{qid}:c{i}",
                    initial_rank=float(rank),
                    connection_count=connection,
                    hop_count=hops,
                    label=1 if is_gold else 0,
                )
            )
    return rows


class TestTrain:
    def test_separable_data_reaches_perfect_mrr(self):
        rng = random.Random(31)
        rows = synthetic_rows(rng, questions=40)
        _model, cv = train(rows, folds=5)
        assert cv == pytest.approx(1.0)

    def test_single_fold_rejected(self):
        rng = random.Random(32)
        rows = synthetic_rows(rng, questions=20)
        with pytest.raises(TrainingError):
            train(rows, folds=1)

    def test_single_label_rejected(self):
        rng = random.Random(33)
        rows = [r for r in synthetic_rows(rng, questions=20) if r.label == 0]
        with pytest.raises(TrainingError):
            train(rows, folds=5)

    def test_too_few_rows_rejected(self):
        rng = random.Random(34)
        rows = synthetic_rows(rng, questions=1)[:5]
        with pytest.raises(TrainingError):
            train(rows, folds=2)

    def test_deterministic(self):
        rng = random.Random(35)
        rows = synthetic_rows(rng, questions=30)
        model_a, cv_a = train(rows, folds=5, seed=1)
        model_b, cv_b = train(rows, folds=5, seed=1)
        assert cv_a == cv_b
        assert model_a.weights.tolist() == model_b.weights.tolist()

    def test_feature_subsets(self):
        rng = random.Random(36)
        rows = synthetic_rows(rng, questions=30)
        model, _cv = train(rows, folds=3, feature_subset=("connection_count",))
        assert model.weights.shape == (1,)

    def test_ablation_ordering_on_synthetic_benchmark(self):
        rng = random.Random(37)
        train_rows = synthetic_rows(rng, questions=200, list_size=8, miss_rate=0.2, broken_rate=0.15)
        eval_rows = synthetic_rows(rng, questions=200, list_size=8, miss_rate=0.2, broken_rate=0.15)

        def eval_mrr(subset):
            model, _ = train(train_rows, folds=5, feature_subset=subset)
            groups = {}
            for row in eval_rows:
                groups.setdefault((row.question_id, row.keyword), []).append(row)
            ranked, golds = [], []
            for group in groups.values():
                probs = model.probabilities([r.feature_vector() for r in group])
                ordered = sorted(
                    zip(group, probs),
                    key=lambda item: (-item[1], item[0].initial_rank, item[0].uri),
                )
                ranked.append([r.uri for r, _ in ordered])
                golds.append(next((r.uri for r in group if r.label == 1), None))
            return mrr(ranked, golds)

        rank_only = eval_mrr(("initial_rank",))
        graph_only = eval_mrr(("connection_count", "hop_count"))
        combined = eval_mrr(FEATURE_NAMES)
        assert rank_only + 0.02 <= graph_only
        assert graph_only + 0.02 <= combined


def features_for(uri, rank, connection, hops):
    cand = Candidate(uri=uri, matched_label=uri, text_score=1.0 / rank, initial_rank=rank, kind=E)
    return cand, DensityFeatures(
        candidate=cand, initial_rank=rank, connection_count=connection, hop_count=hops
    )


class TestRerank:
    def make_model(self):
        rng = random.Random(38)
        model, _ = train(synthetic_rows(rng, questions=40), folds=5)
        return model

    def test_gold_with_dominant_connectivity_moves_up(self):
        model = self.make_model()
        pairs = [
            features_for("weak", 1, 0.0, 5.0),
            features_for("strong", 3, 1.0, 1.0),
        ]
        lists = [CandidateList("kw", E, [c for c, _ in pairs])]
        ranked = rerank(model, lists, [[f for _, f in pairs]])
        assert ranked[0][0][0].uri == "strong"
        probs = [p for _, p in ranked[0]]
        assert probs == sorted(probs, reverse=True)

    def test_equal_features_fall_back_to_initial_rank(self):
        model = self.make_model()
        pairs = [
            features_for("second", 2, 0.5, 2.0),
            features_for("first", 1, 0.5, 2.0),
        ]
        lists = [CandidateList("kw", E, [c for c, _ in pairs])]
        ranked = rerank(model, lists, [[f for _, f in pairs]])
        assert [c.uri for c, _ in ranked[0]] == ["first", "second"]

    def test_empty_list_passes_through(self):
        model = self.make_model()
        ranked = rerank(model, [CandidateList("kw", E, [])], [[]])
        assert ranked == [[]]

    def test_permutation_of_candidates(self):
        model = self.make_model()
        pairs = [features_for(f"u{i}", i + 1, 0.1 * i, 5.0 - i) for i in range(5)]
        lists = [CandidateList("kw", E, [c for c, _ in pairs])]
        ranked = rerank(model, lists, [[f for _, f in pairs]])
        assert sorted(c.uri for c, _ in ranked[0]) == sorted(p[0].uri for p in pairs)


class TestMrr:
    def test_perfect(self):
        assert mrr([["a", "b"], ["x", "y"]], ["a", "x"]) == 1.0

    def test_mixed_ranks(self):
        assert mrr([["a", "b"], ["y", "x"]], ["a", "x"]) == pytest.approx(0.75)

    def test_missing_gold_scores_zero(self):
        assert mrr([["a", "b"], ["x", "y"]], ["a", "zzz"]) == pytest.approx(0.5)

    def test_none_gold_scores_zero(self):
        assert mrr([["a"]], [None]) == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            mrr([], [])


class TestModelPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = random.Random(39)
        model, _ = train(synthetic_rows(rng, questions=30), folds=5)
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = RerankModel.load(str(path))
        vector = (2.0, 0.7, 1.5)
        assert loaded.probability(vector) == pytest.approx(model.probability(vector))
        assert loaded.feature_subset == model.feature_subset
        again = tmp_path / "again.json"
        loaded.save(str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_other_version_is_refused(self, tmp_path):
        model, _ = train(synthetic_rows(random.Random(39), questions=30), folds=5)
        path = tmp_path / "model.json"
        model.save(str(path))
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": 2}))
        with pytest.raises(DataError, match="model.json.*unsupported version 2"):
            RerankModel.load(str(path))


class TestFeatureDump:
    def test_write_read_round_trip(self, tmp_path):
        rng = random.Random(40)
        rows = synthetic_rows(rng, questions=5)
        path = tmp_path / "rows.tsv"
        write_feature_rows(str(path), rows)
        loaded = read_feature_rows(str(path))
        assert loaded == rows

    def test_row_from_features_marks_gold(self):
        cand, feats = features_for("gold", 1, 0.5, 1.0)
        row = row_from_features("q1", "kw", feats, "gold")
        assert row.label == 1
        row = row_from_features("q1", "kw", feats, "other")
        assert row.label == 0
