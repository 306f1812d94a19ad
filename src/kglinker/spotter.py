"""Keyword spotting and entity-vs-relation prediction for question phrases.

Spotting either passes through annotated spans or chunks the question into
maximal non-stopword token runs, merging runs against a label vocabulary
(longest match wins). Kind prediction is a small hashed-feature logistic
model trained from label vocabularies, so it is deterministic and needs no
external resources.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import MALFORMED, DataError, TrainingError, describe, read_json
from .index import normalize
from .kg import Kind
from .logreg import LogisticModel, fit_logistic, sigmoid
from .stopwords import DEFAULT_STOPWORDS

_WORD = re.compile(r"\w+", re.UNICODE)

# Training schedule for the kind classifier.
ER_LEARNING_RATE = 0.1
ER_EPOCHS = 200
ER_LOSS_TOLERANCE = 1e-6

_HASH_DIM = 96
_SUFFIXES = ("er", "ion", "ed")
_N_FEATURES = _HASH_DIM + 5 + len(_SUFFIXES)
_MAX_MERGE_TOKENS = 4


class SpotMode(str, Enum):
    GOLD = "gold"
    CHUNKER = "chunker"


@dataclass(frozen=True)
class GoldSpan:
    phrase: str
    kind: Kind
    uri: str


@dataclass
class Question:
    id: str
    text: str
    gold_spans: list[GoldSpan] | None = None


@dataclass(frozen=True)
class ERPrediction:
    phrase: str
    kind: Kind
    confidence: float


def load_questions(path: str) -> list[Question]:
    """Load a question dataset: JSON array of {id, text, spans?} objects.

    A file that is not UTF-8 JSON, or an item or span that lacks a field,
    has a kind other than E or R, or has a phrase that normalises to
    nothing, raises DataError naming the file and the item.
    """
    return read_json(path, _parse_questions, DataError, "expected an array of {id, text, spans?}")


def _parse_questions(data: list) -> list[Question]:
    if not isinstance(data, list):
        raise TypeError("the document is not an array")
    questions = []
    for number, item in enumerate(data):
        try:
            spans = None
            if item.get("spans") is not None:
                spans = [
                    GoldSpan(phrase=s["phrase"], kind=Kind.parse(s["kind"]), uri=s["uri"])
                    for s in item["spans"]
                ]
                for span in spans:
                    if not normalize(span.phrase):
                        raise ValueError(f"span phrase {span.phrase!r} normalises to nothing")
            questions.append(Question(id=str(item["id"]), text=item["text"], gold_spans=spans))
        except MALFORMED as exc:
            raise ValueError(f"item {number}: {describe(exc)}") from None
    return questions


def extract_keywords(
    question: Question,
    stopwords: frozenset[str] | None = None,
    mode: SpotMode = SpotMode.CHUNKER,
    vocabulary: frozenset[str] | None = None,
) -> list[str]:
    """Extract keyword phrases from a question.

    Gold mode returns the annotated phrases verbatim, in order. Chunker mode
    drops stopwords and tokens that normalise to nothing (``___``), splits
    the remaining tokens into contiguous runs and greedily merges each run
    against ``vocabulary``: the longest token window whose normalised form
    is a known label becomes one phrase.
    """
    if mode is SpotMode.GOLD:
        if question.gold_spans is None:
            raise DataError(f"question {question.id!r} has no gold spans for gold-mode spotting")
        return [span.phrase for span in question.gold_spans]

    words = stopwords if stopwords is not None else DEFAULT_STOPWORDS
    spans = [(m.group(0), m.start(), m.end()) for m in _WORD.finditer(question.text)]
    runs: list[list[tuple[str, int, int]]] = []
    current: list[tuple[str, int, int]] = []
    for token, start, end in spans:
        if token.lower() in words or not normalize(token):
            if current:
                runs.append(current)
                current = []
        else:
            current.append((token, start, end))
    if current:
        runs.append(current)

    phrases: list[str] = []
    for run in runs:
        i = 0
        while i < len(run):
            merged = 1
            if vocabulary:
                for width in range(min(_MAX_MERGE_TOKENS, len(run) - i), 1, -1):
                    window = question.text[run[i][1] : run[i + width - 1][2]]
                    if normalize(window) in vocabulary:
                        merged = width
                        break
            phrases.append(question.text[run[i][1] : run[i + merged - 1][2]])
            i += merged
    return phrases


def _hash_bucket(tag: str, gram: str) -> int:
    return zlib.crc32(f"{tag}:{gram}".encode("utf-8")) % _HASH_DIM


def _phrase_features(
    phrase: str,
    entity_vocab: frozenset[str],
    relation_vocab: frozenset[str],
) -> np.ndarray:
    """Hashed character n-grams plus shape and vocabulary indicators."""
    vec = np.zeros(_N_FEATURES, dtype=np.float64)
    norm = normalize(phrase)
    for n in (2, 3):
        for i in range(max(0, len(norm) - n + 1)):
            vec[_hash_bucket(str(n), norm[i : i + n])] = 1.0
    base = _HASH_DIM
    letters = [c for c in phrase if c.isalpha()]
    vec[base] = min(len(norm), 30) / 10.0
    vec[base + 1] = (sum(c.isupper() for c in letters) / len(letters)) if letters else 0.0
    last_token = norm.split()[-1] if norm else ""
    for j, suffix in enumerate(_SUFFIXES):
        vec[base + 2 + j] = 1.0 if last_token.endswith(suffix) else 0.0
    vec[base + 2 + len(_SUFFIXES)] = 1.0 if norm in entity_vocab else 0.0
    vec[base + 3 + len(_SUFFIXES)] = 1.0 if norm in relation_vocab else 0.0
    return vec


class ERModel(LogisticModel):
    """Immutable phrase-kind classifier; concurrent prediction is safe."""

    VERSION = 1
    RETRAIN = "train-er"
    n_features = _N_FEATURES

    def __init__(
        self,
        weights: np.ndarray,
        bias: float,
        entity_vocab: frozenset[str],
        relation_vocab: frozenset[str],
    ) -> None:
        super().__init__(weights, bias)
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab

    def predict(self, phrase: str) -> ERPrediction:
        return predict_er(self, phrase)

    def _fields(self) -> dict:
        return {
            **super()._fields(),
            "entity_vocab": sorted(self.entity_vocab),
            "relation_vocab": sorted(self.relation_vocab),
        }

    @staticmethod
    def _extra_args(payload: dict) -> tuple:
        return frozenset(payload["entity_vocab"]), frozenset(payload["relation_vocab"])


def train_er_classifier(
    examples: Sequence[tuple[str, Kind]],
    entity_vocab: Iterable[str] = (),
    relation_vocab: Iterable[str] = (),
) -> ERModel:
    """Fit the kind classifier on (phrase, kind) pairs.

    Vocabularies default to the training phrases of each kind. Relation is
    the positive class. Deterministic: zero-initialised batch gradient
    descent with a fixed schedule.
    """
    counts = {Kind.ENTITY: 0, Kind.RELATION: 0}
    for _phrase, kind in examples:
        counts[kind] += 1
    if counts[Kind.ENTITY] < 2 or counts[Kind.RELATION] < 2:
        raise TrainingError(
            f"need at least 2 examples of each kind, got E={counts[Kind.ENTITY]} "
            f"R={counts[Kind.RELATION]}"
        )

    e_vocab = frozenset(normalize(p) for p in entity_vocab) or frozenset(
        normalize(p) for p, k in examples if k is Kind.ENTITY
    )
    r_vocab = frozenset(normalize(p) for p in relation_vocab) or frozenset(
        normalize(p) for p, k in examples if k is Kind.RELATION
    )

    X = np.stack([_phrase_features(p, e_vocab, r_vocab) for p, _ in examples])
    y = np.array([1.0 if k is Kind.RELATION else 0.0 for _, k in examples])
    weights, bias = fit_logistic(
        X, y, learning_rate=ER_LEARNING_RATE, epochs=ER_EPOCHS, tolerance=ER_LOSS_TOLERANCE
    )
    return ERModel(weights=weights, bias=bias, entity_vocab=e_vocab, relation_vocab=r_vocab)


def predict_er(model: ERModel, phrase: str) -> ERPrediction:
    """Predict whether a phrase names an entity or a relation."""
    if not phrase or not normalize(phrase):
        raise ValueError("cannot classify an empty phrase")
    x = _phrase_features(phrase, model.entity_vocab, model.relation_vocab)
    p_relation = sigmoid(float(np.dot(model.weights, x) + model.bias))
    if p_relation >= 0.5:
        return ERPrediction(phrase=phrase, kind=Kind.RELATION, confidence=p_relation)
    return ERPrediction(phrase=phrase, kind=Kind.ENTITY, confidence=1.0 - p_relation)
