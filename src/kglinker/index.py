"""Expanded URI/label inverted index with fuzzy candidate retrieval.

Keeps one sub-index per identifier kind so entity and relation searches
never mix. Matching is token-based with a character-trigram fallback, which
approximates a text search engine without any external service.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import IndexVersionError, ParseError
from .kg import Kind, KnowledgeGraph, LineSource, iter_data_lines

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"KGLINKER-INDEX"
INDEX_VERSION = 2

TOKEN_WEIGHT = 0.6
TRIGRAM_WEIGHT = 0.4

_NON_WORD = re.compile(r"[\W_]+", re.UNICODE)


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return _NON_WORD.sub(" ", text.lower()).strip()


def tokens_of(text: str) -> frozenset[str]:
    norm = normalize(text)
    return frozenset(norm.split()) if norm else frozenset()


def trigrams_of(text: str) -> frozenset[str]:
    """Character trigrams of the normalised string; short strings gram to themselves."""
    norm = normalize(text)
    if not norm:
        return frozenset()
    if len(norm) < 3:
        return frozenset((norm,))
    return frozenset(norm[i : i + 3] for i in range(len(norm) - 2))


@dataclass(frozen=True)
class LabelEntry:
    uri: str
    label: str
    kind: Kind
    weight: float = 1.0


@dataclass(frozen=True)
class Candidate:
    uri: str
    matched_label: str
    text_score: float
    initial_rank: int
    kind: Kind


@dataclass
class CandidateList:
    keyword: str
    kind_queried: Kind
    candidates: list[Candidate] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.candidates)

    def uris(self) -> list[str]:
        return [c.uri for c in self.candidates]


@dataclass(frozen=True)
class _Indexed:
    uri: str
    label: str
    norm: str
    tokens: frozenset[str]
    trigrams: frozenset[str]
    weight: float


class _KindIndex:
    """Postings for one identifier kind."""

    def __init__(self) -> None:
        self.entries: list[_Indexed] = []
        self.token_postings: dict[str, list[int]] = {}
        self.trigram_postings: dict[str, list[int]] = {}

    def add(self, entry: LabelEntry) -> None:
        norm = normalize(entry.label)
        if not norm:
            return
        indexed = _Indexed(
            uri=entry.uri,
            label=entry.label,
            norm=norm,
            tokens=tokens_of(entry.label),
            trigrams=trigrams_of(entry.label),
            weight=entry.weight,
        )
        position = len(self.entries)
        self.entries.append(indexed)
        for token in indexed.tokens:
            self.token_postings.setdefault(token, []).append(position)
        for gram in indexed.trigrams:
            self.trigram_postings.setdefault(gram, []).append(position)


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a or not b:
        return 0.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / len(a | b)


def _dice(a: frozenset[str], b: frozenset[str]) -> float:
    if not a or not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


class LabelIndex:
    """Immutable two-kind label index; concurrent searches are safe."""

    def __init__(self) -> None:
        self._by_kind: dict[Kind, _KindIndex] = {
            Kind.ENTITY: _KindIndex(),
            Kind.RELATION: _KindIndex(),
        }
        self._vocabulary: set[str] = set()

    def entry_count(self, kind: Kind | None = None) -> int:
        if kind is not None:
            return len(self._by_kind[kind].entries)
        return sum(len(ki.entries) for ki in self._by_kind.values())

    def vocabulary(self) -> frozenset[str]:
        """Normalised label strings of every indexed entry (both kinds)."""
        return frozenset(self._vocabulary)

    def _add(self, entry: LabelEntry) -> None:
        self._by_kind[entry.kind].add(entry)
        norm = normalize(entry.label)
        if norm:
            self._vocabulary.add(norm)

    def search(self, keyword: str, kind: Kind, k: int) -> CandidateList:
        """Top-k candidates of one kind for a keyword phrase.

        Score is a weight-boosted blend of token Jaccard and trigram Dice
        similarity. Candidates sharing a token with the query are scored;
        when no token matches at all, trigram postings act as a fuzzy
        fallback. Ties order by shorter matched label, then uri.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query_tokens = tokens_of(keyword)
        query_trigrams = trigrams_of(keyword)
        if not query_tokens:
            raise ValueError(f"keyword is empty after normalisation: {keyword!r}")
        sub = self._by_kind[kind]

        positions: set[int] = set()
        for token in query_tokens:
            positions.update(sub.token_postings.get(token, ()))
        if not positions:
            for gram in query_trigrams:
                positions.update(sub.trigram_postings.get(gram, ()))

        # Best-scoring entry per uri; ties prefer the shorter, then smaller label.
        best: dict[str, tuple[float, int, str]] = {}
        for pos in positions:
            entry = sub.entries[pos]
            score = (
                TOKEN_WEIGHT * _jaccard(query_tokens, entry.tokens)
                + TRIGRAM_WEIGHT * _dice(query_trigrams, entry.trigrams)
            ) * entry.weight
            if score <= 0.0:
                continue
            key = (-score, len(entry.label), entry.label)
            current = best.get(entry.uri)
            if current is None or key < (-current[0], current[1], current[2]):
                best[entry.uri] = (score, len(entry.label), entry.label)

        ranked = sorted(
            ((score, length, label, uri) for uri, (score, length, label) in best.items()),
            key=lambda item: (-item[0], item[1], item[3]),
        )
        candidates = [
            Candidate(uri=uri, matched_label=label, text_score=score, initial_rank=rank, kind=kind)
            for rank, (score, _length, label, uri) in enumerate(ranked[:k], start=1)
        ]
        return CandidateList(keyword=keyword, kind_queried=kind, candidates=candidates)

    def save(self, path: str) -> None:
        payload = {
            "entries": {
                kind.value: [
                    (e.uri, e.label, e.weight) for e in self._by_kind[kind].entries
                ]
                for kind in (Kind.ENTITY, Kind.RELATION)
            },
        }
        with open(path, "wb") as handle:
            handle.write(INDEX_MAGIC + b" v%d\n" % INDEX_VERSION)
            handle.write(json.dumps(payload).encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "LabelIndex":
        with open(path, "rb") as handle:
            header = handle.readline().rstrip(b"\n")
            expected = INDEX_MAGIC + b" v%d" % INDEX_VERSION
            if header != expected:
                raise IndexVersionError(
                    f"index header {header!r} does not match {expected!r}; rebuild the index"
                )
            payload = json.loads(handle.read())
        index = cls()
        for kind_value, rows in payload["entries"].items():
            kind = Kind(kind_value)
            for uri, label, weight in rows:
                index._add(LabelEntry(uri=uri, label=label, kind=kind, weight=weight))
        return index


def build_index(
    entries: Iterable[LabelEntry],
    expansions: Iterable[tuple[str, str]] = (),
    kg: KnowledgeGraph | None = None,
) -> LabelIndex:
    """Build the index from base entries plus label-variant expansions.

    Every expansion (label, variant) whose label matches an entry adds a
    synthetic entry with the same uri, kind and weight under the variant.
    When a graph is supplied, entries whose uri it does not contain are
    indexed anyway but logged as warnings.
    """
    index = LabelIndex()
    entry_list = list(entries)
    by_norm: dict[str, list[LabelEntry]] = {}
    for entry in entry_list:
        if kg is not None:
            known = (
                entry.uri in kg.vertices
                if entry.kind is Kind.ENTITY
                else entry.uri in kg.edge_labels
            )
            if not known:
                logger.warning("label entry uri %r not found in the graph", entry.uri)
        index._add(entry)
        by_norm.setdefault(normalize(entry.label), []).append(entry)

    for label, variant in expansions:
        matched = by_norm.get(normalize(label))
        if not matched:
            continue
        for entry in matched:
            index._add(
                LabelEntry(uri=entry.uri, label=variant, kind=entry.kind, weight=entry.weight)
            )
    return index


def read_label_entries(source: LineSource, name: str | None = None) -> list[LabelEntry]:
    """Parse a labels file: ``uri<TAB>label<TAB>E|R[<TAB>weight]``."""
    entries = []
    for number, line in iter_data_lines(source):
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise ParseError(f"expected 3 or 4 tab-separated fields, got {len(parts)}", number, name)
        uri, label, kind_text = parts[0].strip(), parts[1].strip(), parts[2]
        if not uri or not label:
            raise ParseError("empty uri or label", number, name)
        try:
            kind = Kind.parse(kind_text)
        except ValueError as exc:
            raise ParseError(str(exc), number, name) from None
        weight = 1.0
        if len(parts) == 4:
            try:
                weight = float(parts[3])
            except ValueError:
                raise ParseError(f"bad weight {parts[3]!r}", number, name) from None
            if weight < 0:
                raise ParseError(f"negative weight {weight}", number, name)
        entries.append(LabelEntry(uri=uri, label=label, kind=kind, weight=weight))
    return entries


def read_expansions(source: LineSource, name: str | None = None) -> list[tuple[str, str]]:
    """Parse an expansions file: ``label<TAB>variant``."""
    pairs = []
    for number, line in iter_data_lines(source):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ParseError("expected 'label<TAB>variant'", number, name)
        pairs.append((parts[0].strip(), parts[1].strip()))
    return pairs
