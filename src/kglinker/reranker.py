"""Probability-based re-ranking of candidate lists from connectivity features.

A logistic model is fitted on (initial_rank, connection_count, hop_count)
rows labelled 1 for the correct candidate of a keyword. Cross-validation
splits whole question-keyword groups and reports the mean reciprocal rank of
the correct candidate after re-ranking each held-out group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .density import DensityFeatures
from .errors import DataError, TrainingError
from .index import Candidate, CandidateList
from .kg import LineSource, read_rows
from .logreg import LogisticModel, fit_logistic, sigmoid

FEATURE_NAMES = ("initial_rank", "connection_count", "hop_count")

# The model's inputs of a TrainingRow or DensityFeatures, in FEATURE_NAMES order.
feature_vector = attrgetter(*FEATURE_NAMES)

# Training schedule for the re-ranking classifier.
RERANK_LEARNING_RATE = 0.05
RERANK_EPOCHS = 500
RERANK_L2 = 1e-4


@dataclass(frozen=True)
class TrainingRow:
    question_id: str
    keyword: str
    uri: str
    initial_rank: float
    connection_count: float
    hop_count: float
    label: int

    def feature_vector(self) -> tuple[float, ...]:
        return feature_vector(self)


def row_from_features(
    question_id: str, keyword: str, feats: DensityFeatures, gold_uri: str | None
) -> TrainingRow:
    return TrainingRow(
        question_id=question_id,
        keyword=keyword,
        uri=feats.candidate.uri,
        initial_rank=float(feats.initial_rank),
        connection_count=feats.connection_count,
        hop_count=feats.hop_count,
        label=1 if gold_uri is not None and feats.candidate.uri == gold_uri else 0,
    )


def write_feature_rows(path: str, rows: Iterable[TrainingRow]) -> None:
    """Dump rows as tab-separated question_id, keyword, uri, rank, C, H, gold."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# question_id\tkeyword\turi\tinitial_rank\tconnection_count\thop_count\tgold\n")
        for row in rows:
            handle.write(
                f"{row.question_id}\t{row.keyword}\t{row.uri}\t"
                f"{row.initial_rank!r}\t{row.connection_count!r}\t"
                f"{row.hop_count!r}\t{row.label}\n"
            )


def read_feature_rows(source: LineSource) -> list[TrainingRow]:
    return list(read_rows(source, _parse_feature_row))


def _parse_feature_row(line: str) -> TrainingRow:
    parts = line.split("\t")
    if len(parts) != 7:
        raise ValueError(f"expected 7 tab-separated fields, got {len(parts)}")
    return TrainingRow(
        question_id=parts[0],
        keyword=parts[1],
        uri=parts[2],
        initial_rank=float(parts[3]),
        connection_count=float(parts[4]),
        hop_count=float(parts[5]),
        label=int(parts[6]),
    )


class RerankModel(LogisticModel):
    """Immutable scorer over standardised connectivity features."""

    VERSION = 1
    RETRAIN = "train-reranker"

    def __init__(
        self,
        weights: np.ndarray,
        bias: float,
        means: np.ndarray,
        stds: np.ndarray,
        feature_subset: tuple[str, ...] = FEATURE_NAMES,
    ) -> None:
        super().__init__(weights, bias)
        self.means = means
        self.stds = stds
        self.feature_subset = feature_subset
        self.n_features = len(feature_subset)
        self._columns = [FEATURE_NAMES.index(name) for name in feature_subset]

    def _matrix(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        X = np.asarray(rows, dtype=np.float64)[:, self._columns]
        return (X - self.means) / self.stds

    def probabilities(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        """Probability of being the correct candidate, one row per candidate."""
        if len(rows) == 0:
            return np.zeros(0)
        return sigmoid(self._matrix(rows) @ self.weights + self.bias)

    def probability(self, row: Sequence[float]) -> float:
        return float(self.probabilities([row])[0])

    def _fields(self) -> dict:
        return {
            "feature_names": list(self.feature_subset),
            **super()._fields(),
            "scaling": {"means": self.means.tolist(), "stds": self.stds.tolist()},
        }

    @staticmethod
    def _extra_args(payload: dict) -> tuple:
        means = np.asarray(payload["scaling"]["means"], dtype=np.float64)
        stds = np.asarray(payload["scaling"]["stds"], dtype=np.float64)
        if not (np.isfinite(stds) & (stds > 0)).all():
            raise ValueError(f"scaling stds must be finite and > 0: {stds.tolist()}")
        return means, stds, tuple(payload["feature_names"])


def _fit_model(rows: Sequence[TrainingRow], columns: list[int], subset: tuple[str, ...]) -> RerankModel:
    X = np.asarray([feature_vector(r) for r in rows], dtype=np.float64)[:, columns]
    y = np.asarray([r.label for r in rows], dtype=np.float64)
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds < 1e-12, 1.0, stds)
    Xs = (X - means) / stds
    weights, bias = fit_logistic(
        Xs, y, learning_rate=RERANK_LEARNING_RATE, epochs=RERANK_EPOCHS, l2=RERANK_L2
    )
    return RerankModel(weights=weights, bias=bias, means=means, stds=stds, feature_subset=subset)


def _group_rows(rows: Sequence[TrainingRow]) -> dict[tuple[str, str], list[TrainingRow]]:
    groups: dict[tuple[str, str], list[TrainingRow]] = {}
    for row in rows:
        groups.setdefault((row.question_id, row.keyword), []).append(row)
    return groups


def _by_probability(items: Sequence, probs: Sequence[float]) -> list[tuple]:
    """(item, probability) pairs, most probable first; ties go to the lower
    initial rank, then the smaller uri."""
    return sorted(
        zip(items, probs), key=lambda item: (-item[1], item[0].initial_rank, item[0].uri)
    )


def _group_mrr(model: RerankModel, groups: Iterable[list[TrainingRow]]) -> float:
    """Mean reciprocal rank of the label-1 row after sorting by probability."""
    ranked_groups = []
    golds = []
    for group in groups:
        probs = model.probabilities([feature_vector(r) for r in group])
        ranked_groups.append([row.uri for row, _ in _by_probability(group, probs)])
        gold = next((row.uri for row in group if row.label == 1), None)
        golds.append(gold)
    return mrr(ranked_groups, golds)


def train(
    rows: Sequence[TrainingRow],
    folds: int = 5,
    feature_subset: tuple[str, ...] = FEATURE_NAMES,
    seed: int = 0,
) -> tuple[RerankModel, float]:
    """Fit the re-ranker and report cross-validated MRR.

    Folds are formed over whole (question, keyword) groups so a group never
    straddles the train/test boundary. Scaling is fitted on each fold's
    training rows only; the returned model is refitted on all rows.
    """
    if len(rows) < 10:
        raise TrainingError("need at least 10 training rows")
    labels = {row.label for row in rows}
    if labels != {0, 1}:
        raise TrainingError("training rows must contain both labels")
    if folds < 2:
        raise TrainingError("cross-validation needs at least 2 folds")
    unknown = set(feature_subset) - set(FEATURE_NAMES)
    if unknown:
        raise TrainingError(f"unknown features: {sorted(unknown)}")
    columns = [FEATURE_NAMES.index(name) for name in feature_subset]

    groups = _group_rows(rows)
    keys = sorted(groups)
    rng = random.Random(seed)
    rng.shuffle(keys)
    folds = min(folds, len(keys))
    assignments: dict[tuple[str, str], int] = {
        key: i % folds for i, key in enumerate(keys)
    }

    scores = []
    for fold in range(folds):
        train_rows = [r for key, rs in groups.items() if assignments[key] != fold for r in rs]
        test_groups = [rs for key, rs in groups.items() if assignments[key] == fold]
        if not train_rows or not test_groups:
            continue
        if {r.label for r in train_rows} != {0, 1}:
            continue
        fold_model = _fit_model(train_rows, columns, feature_subset)
        scores.append(_group_mrr(fold_model, test_groups))
    if not scores:
        raise TrainingError("cross-validation produced no usable folds")

    model = _fit_model(list(rows), columns, feature_subset)
    return model, float(np.mean(scores))


def rerank(
    model: RerankModel,
    lists: Sequence[CandidateList],
    features: Sequence[Sequence[DensityFeatures]],
) -> list[list[tuple[Candidate, float]]]:
    """Reorder every list by descending probability; ties keep the initial rank order."""
    result = []
    for clist, feats in zip(lists, features):
        if len(clist.candidates) != len(feats):
            raise DataError(
                f"feature row count {len(feats)} does not match list {clist.keyword!r}"
            )
        probs = model.probabilities([feature_vector(f) for f in feats])
        scored = _by_probability(clist.candidates, probs)
        result.append([(cand, float(prob)) for cand, prob in scored])
    return result


def mrr(ranked_groups: Sequence[Sequence[str]], gold_uris: Sequence[str | None]) -> float:
    """Mean over groups of 1/rank of the gold uri; a missing gold scores 0."""
    if not ranked_groups:
        raise DataError("cannot compute MRR over zero groups")
    if len(ranked_groups) != len(gold_uris):
        raise DataError("ranked groups and gold uris differ in length")
    total = 0.0
    for ranked, gold in zip(ranked_groups, gold_uris):
        if gold is None:
            continue
        try:
            total += 1.0 / (list(ranked).index(gold) + 1)
        except ValueError:
            continue
    return total / len(ranked_groups)
