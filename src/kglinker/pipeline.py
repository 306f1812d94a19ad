"""End-to-end linking: spot, predict kinds, retrieve, disambiguate, adapt.

Artifacts (label index, kind classifier, re-ranking model) live in one
directory guarded by a manifest hash so they can never be mixed across
incompatible configurations. Questions are processed independently; all
shared state is immutable after loading.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from . import gtsp
from .adaptive import adapt, no_candidates_note
from .config import PipelineConfig
from .density import compute_features
from .errors import DataError, ManifestError, TooLargeError, read_json
from .index import (
    Candidate,
    CandidateList,
    LabelEntry,
    LabelIndex,
    build_index,
    normalize,
    read_expansions,
    read_label_entries,
    with_expansions,
)
from .kg import HopOracle, Kind, KnowledgeGraph, build_subdivision, load_graph
from .reranker import (
    FEATURE_NAMES,
    RerankModel,
    TrainingRow,
    _group_mrr,
    _group_rows,
    mrr,
    rerank,
    row_from_features,
    train,
)
from .spotter import (
    ERModel,
    Question,
    SpotMode,
    extract_keywords,
    train_er_classifier,
)
from .stopwords import DEFAULT_STOPWORDS, load_stopwords

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
INDEX_NAME = "index.bin"
ER_MODEL_NAME = "er_model.json"
RERANK_MODEL_NAME = "rerank_model.json"

#: The latency keys of :meth:`Pipeline.evaluate`'s metrics, in ms.
LATENCY_KEYS = ("mean_latency_ms", "p50_latency_ms", "p95_latency_ms", "max_latency_ms")


# ---------------------------------------------------------------------------
# Result model
# ---------------------------------------------------------------------------


@dataclass
class RankedCandidate:
    uri: str
    label: str
    kind: Kind
    text_score: float
    initial_rank: int
    probability: float | None = None

    @classmethod
    def of(cls, candidate: Candidate, probability: float | None) -> "RankedCandidate":
        return cls(
            uri=candidate.uri,
            label=candidate.matched_label,
            kind=candidate.kind,
            text_score=candidate.text_score,
            initial_rank=candidate.initial_rank,
            probability=probability,
        )

    def to_dict(self) -> dict:
        return {
            "uri": self.uri,
            "label": self.label,
            "kind": self.kind.value,
            "text_score": self.text_score,
            "initial_rank": self.initial_rank,
            "probability": self.probability,
        }


@dataclass
class KeywordBlock:
    keyword: str
    kind: Kind
    er_confidence: float
    candidates: list[RankedCandidate] = field(default_factory=list)

    @classmethod
    def of(
        cls,
        clist: CandidateList,
        confidence: float,
        scored: list[tuple[Candidate, float | None]],
    ) -> "KeywordBlock":
        """The block of ``clist``'s keyword and kind holding ``scored``
        (candidate, probability) pairs."""
        return cls(
            keyword=clist.keyword,
            kind=clist.kind_queried,
            er_confidence=confidence,
            candidates=[RankedCandidate.of(c, p) for c, p in scored],
        )

    def max_probability(self) -> float:
        probs = [c.probability for c in self.candidates if c.probability is not None]
        return max(probs) if probs else 0.0

    def top_uri(self) -> str | None:
        return self.candidates[0].uri if self.candidates else None

    def to_dict(self) -> dict:
        return {
            "keyword": self.keyword,
            "kind": self.kind.value,
            "er_confidence": self.er_confidence,
            "candidates": [c.to_dict() for c in self.candidates],
        }


@dataclass
class LinkingResult:
    question_id: str
    strategy: str
    blocks: list[KeywordBlock] = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict:
        data = {
            "question_id": self.question_id,
            "strategy": self.strategy,
            "keywords": [b.to_dict() for b in self.blocks],
            "diagnostics": self.diagnostics,
        }
        if include_timings:
            data["timings_ms"] = self.timings_ms
        return data

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True)


@dataclass
class LinkState:
    """What one ``link`` built for its question, read again instead of rebuilt.

    ``lists`` holds the retrieved list of every keyword in block order;
    adaptive retry puts the list of a flip it keeps in its place.
    ``confidences`` holds the E/R confidences. On the route strategies,
    ``instance`` is the GTSP instance that was solved and ``exact`` or
    ``approx`` the route each solver found on it. The state is not kept on
    the ``LinkingResult``: a route instance outweighs the result many times.
    """

    question: Question
    lists: list[CandidateList]
    confidences: list[float]
    instance: gtsp.GtspInstance | None = None
    exact: gtsp.Assignment | None = None
    approx: gtsp.Assignment | None = None


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


@dataclass
class Artifacts:
    directory: str
    index: LabelIndex
    er_model: ERModel | None = None
    rerank_model: RerankModel | None = None


def _manifest_path(directory: str | Path) -> Path:
    return Path(directory) / MANIFEST_NAME


def write_or_check_manifest(directory: str | Path, config: PipelineConfig) -> None:
    """Create the manifest on first build; refuse a mismatched hash later."""
    path = _manifest_path(directory)
    if path.exists():
        check_manifest(directory, config)
        return
    Path(directory).mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": MANIFEST_VERSION,
        "artifact_hash": config.artifact_hash(),
        "config": config.to_dict(),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def check_manifest(directory: str | Path, config: PipelineConfig) -> None:
    path = _manifest_path(directory)
    if not path.exists():
        raise ManifestError(f"no manifest in artifact directory {directory}; build artifacts first")
    stored_hash = read_json(path, itemgetter("artifact_hash"), ManifestError, "rebuild artifacts")
    if stored_hash != config.artifact_hash():
        raise ManifestError(
            f"artifact directory {directory} was built with a different "
            "configuration (hop_cap/k/seed); rebuild or use matching settings"
        )


def _require(path_value: str | None, what: str) -> str:
    if not path_value:
        raise DataError(f"config is missing the {what} path")
    return path_value


def _read_labels(config: PipelineConfig) -> tuple[list[LabelEntry], list[tuple[str, str]]]:
    """The label entries and the expansions the config names."""
    entries = read_label_entries(_require(config.labels, "labels"))
    expansions = read_expansions(config.expansions) if config.expansions else []
    return entries, expansions


def read_er_examples(config: PipelineConfig) -> tuple[list, list, list]:
    """(phrase, kind) examples plus per-kind vocabularies from the label files."""
    examples = [(entry.label, entry.kind) for entry in with_expansions(*_read_labels(config))]
    entity_vocab = [p for p, k in examples if k is Kind.ENTITY]
    relation_vocab = [p for p, k in examples if k is Kind.RELATION]
    return examples, entity_vocab, relation_vocab


def build_index_artifact(config: PipelineConfig, kg: KnowledgeGraph | None = None) -> LabelIndex:
    directory = _require(config.artifacts, "artifacts")
    write_or_check_manifest(directory, config)
    if kg is None and config.triples:
        kg = load_graph(config.triples)
    index = build_index(*_read_labels(config), kg)
    index.save(str(Path(directory) / INDEX_NAME))
    return index


def train_er_artifact(config: PipelineConfig) -> ERModel:
    directory = _require(config.artifacts, "artifacts")
    write_or_check_manifest(directory, config)
    examples, entity_vocab, relation_vocab = read_er_examples(config)
    model = train_er_classifier(examples, entity_vocab, relation_vocab)
    model.save(str(Path(directory) / ER_MODEL_NAME))
    return model


def train_reranker_artifact(
    config: PipelineConfig,
    questions: list[Question] | None = None,
    rows: list[TrainingRow] | None = None,
    folds: int = 5,
) -> tuple[RerankModel, float]:
    """Fit and persist the re-ranking model; returns it with its CV MRR."""
    directory = _require(config.artifacts, "artifacts")
    write_or_check_manifest(directory, config)
    if rows is None:
        if questions is None:
            raise DataError("reranker training needs questions or precomputed rows")
        pipeline = Pipeline.from_config(config)
        rows = pipeline.collect_training_rows(questions)
    model, cv_mrr = train(rows, folds=folds, seed=config.seed)
    model.save(str(Path(directory) / RERANK_MODEL_NAME))
    return model, cv_mrr


def load_artifacts(config: PipelineConfig) -> Artifacts:
    directory = _require(config.artifacts, "artifacts")
    check_manifest(directory, config)
    base = Path(directory)
    index_path = base / INDEX_NAME
    if not index_path.exists():
        raise ManifestError(f"missing {INDEX_NAME} in {directory}")
    index = LabelIndex.load(str(index_path))
    er_path = base / ER_MODEL_NAME
    er_model = ERModel.load(str(er_path)) if er_path.exists() else None
    rerank_path = base / RERANK_MODEL_NAME
    rerank_model = RerankModel.load(str(rerank_path)) if rerank_path.exists() else None
    return Artifacts(
        directory=directory, index=index, er_model=er_model, rerank_model=rerank_model
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    def __init__(
        self,
        kg: KnowledgeGraph,
        oracle: HopOracle,
        index: LabelIndex,
        config: PipelineConfig,
        er_model: ERModel | None = None,
        rerank_model: RerankModel | None = None,
        stopwords: frozenset[str] | None = None,
    ) -> None:
        config.validate()
        self.kg = kg
        self.oracle = oracle
        self.index = index
        self.config = config
        self.er_model = er_model
        self.rerank_model = rerank_model
        self.stopwords = stopwords if stopwords is not None else DEFAULT_STOPWORDS
        self._vocabulary = index.vocabulary()

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "Pipeline":
        kg = load_graph(_require(config.triples, "triples"))
        oracle = HopOracle(build_subdivision(kg), cap=config.hop_cap)
        artifacts = load_artifacts(config)
        stopwords = (
            load_stopwords(config.stopwords) if config.stopwords else None
        )
        return cls(
            kg=kg,
            oracle=oracle,
            index=artifacts.index,
            config=config,
            er_model=artifacts.er_model,
            rerank_model=artifacts.rerank_model,
            stopwords=stopwords,
        )

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, keyword: str, kind: Kind) -> CandidateList:
        return self.index.search(keyword, kind, self.config.k)

    def retrieve_for(
        self, question: Question, keyword: str, kind: Kind, diagnostics: dict
    ) -> CandidateList:
        """The candidate list of one keyword of ``question``; notes go into ``diagnostics``.

        With gold injection on, when the first gold span of the keyword's
        phrase has the keyword's kind and retrieval missed its uri, that uri
        is appended at the lowest rank.
        """
        clist = self.retrieve(keyword, kind)
        if self.config.gold_injection:
            keyword_norm = normalize(keyword)
            span = next(
                (s for s in question.gold_spans or () if normalize(s.phrase) == keyword_norm),
                None,
            )
            if span is not None and span.kind is kind and span.uri not in clist.uris():
                rank = len(clist.candidates) + 1
                clist.candidates.append(Candidate(span.uri, span.phrase, 0.0, rank, kind))
                diagnostics.setdefault("injected_gold", []).append(keyword)
        if not clist.candidates:
            diagnostics.setdefault("notes", []).append(no_candidates_note(keyword))
        return clist

    def _should_flip(self, question_id: str, keyword: str) -> bool:
        fraction = self.config.er_flip_fraction
        if fraction <= 0.0:
            return False
        token = f"{self.config.seed}:{question_id}:{keyword}"
        return (zlib.crc32(token.encode("utf-8")) % 10_000) < fraction * 10_000

    # -- scoring ------------------------------------------------------------

    def rescore(self, lists: list[CandidateList], confidences: list[float]) -> list[KeywordBlock]:
        """Connectivity features plus probability re-ranking over all lists."""
        if self.rerank_model is None:
            raise DataError("no re-ranking model loaded")
        features = compute_features(lists, self.oracle)
        ranked = rerank(self.rerank_model, lists, features)
        return [KeywordBlock.of(*block) for block in zip(lists, confidences, ranked)]

    def _fallback_blocks(
        self, lists: list[CandidateList], confidences: list[float], keep: int | None
    ) -> list[KeywordBlock]:
        """Retrieval-rank ordering, the first ``keep`` candidates of each list
        (all when None), when joint disambiguation is not possible."""
        scored = [[(c, None) for c in clist.candidates[:keep]] for clist in lists]
        return [KeywordBlock.of(*block) for block in zip(lists, confidences, scored)]

    def _route_blocks(self, state: LinkState, diagnostics: dict) -> list[KeywordBlock]:
        """Single choice per keyword through the route-based solvers; the
        instance and the route go into ``state``.

        A list whose candidates are all off the graph is linked as an empty
        list, with its uris reported as dropped.
        """
        graph = self.oracle.graph
        lists = list(state.lists)
        for i, clist in enumerate(lists):
            if clist.candidates and all(
                graph.try_node_id(c.uri, c.kind) is None for c in clist.candidates
            ):
                diagnostics.setdefault("dropped_candidates", []).extend(clist.uris())
                lists[i] = CandidateList(keyword=clist.keyword, kind_queried=clist.kind_queried)
        populated = [i for i, clist in enumerate(lists) if clist.candidates]
        if len(populated) < 2:
            diagnostics.setdefault("notes", []).append(
                "joint disambiguation degenerate: fewer than 2 non-empty lists; "
                "falling back to retrieval order"
            )
            return self._fallback_blocks(lists, state.confidences, keep=1)

        instance = state.instance = gtsp.build_instance(
            [lists[i] for i in populated], self.oracle, self.config.rank_weight
        )
        if instance.dropped:
            diagnostics.setdefault("dropped_candidates", []).extend(instance.dropped)
        if self.config.strategy == "exact":
            try:
                assignment = state.exact = gtsp.solve_exact(instance)
            except TooLargeError:
                diagnostics.setdefault("notes", []).append(
                    "exact solver budget exceeded; using the approximate solver"
                )
                assignment = state.approx = gtsp.solve_approx(instance, seed=self.config.seed)
        else:
            assignment = state.approx = gtsp.solve_approx(instance, seed=self.config.seed)

        scored: list[list[tuple[Candidate, None]]] = [[] for _ in lists]
        for cluster_id, list_index in enumerate(populated):
            node = instance.nodes[assignment.chosen[cluster_id]]
            source = next(c for c in lists[list_index].candidates if c.uri == node.uri)
            scored[list_index] = [(source, None)]
        diagnostics["route_cost"] = assignment.total_cost
        return [KeywordBlock.of(*block) for block in zip(lists, state.confidences, scored)]

    # -- linking ------------------------------------------------------------

    def link(self, question: Question) -> LinkingResult:
        return self._link(question)[0]

    def _link(self, question: Question) -> tuple[LinkingResult, LinkState]:
        """The result of ``link`` and the state it was built from."""
        config = self.config
        if config.strategy == "density" and self.rerank_model is None:
            raise DataError("the density strategy needs a trained re-ranking model")
        result = LinkingResult(question_id=question.id, strategy=config.strategy)
        t_total = time.perf_counter()

        t0 = time.perf_counter()
        mode = SpotMode.GOLD if config.gold_spans else SpotMode.CHUNKER
        keywords = extract_keywords(
            question, self.stopwords, mode, vocabulary=self._vocabulary
        )
        if self.er_model is None:
            raise DataError("no kind classifier loaded")
        predictions = []
        for keyword in keywords:
            prediction = self.er_model.predict(keyword)
            kind, confidence = prediction.kind, prediction.confidence
            if self._should_flip(question.id, keyword):
                kind = kind.flipped()
                result.diagnostics.setdefault("injected_er_flips", []).append(keyword)
            predictions.append((keyword, kind, confidence))
        result.timings_ms["spot"] = (time.perf_counter() - t0) * 1000.0

        if not keywords:
            result.diagnostics.setdefault("notes", []).append("no keywords spotted")
            result.timings_ms["total"] = (time.perf_counter() - t_total) * 1000.0
            return result, LinkState(question, [], [])

        t0 = time.perf_counter()
        state = LinkState(
            question,
            lists=[
                self.retrieve_for(question, keyword, kind, result.diagnostics)
                for keyword, kind, _ in predictions
            ],
            confidences=[confidence for _, _, confidence in predictions],
        )
        result.timings_ms["retrieve"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        if config.strategy == "density":
            if len(state.lists) >= 2:
                result.blocks = self.rescore(state.lists, state.confidences)
            else:
                result.diagnostics.setdefault("notes", []).append(
                    "joint disambiguation degenerate: single keyword; "
                    "falling back to retrieval order"
                )
                result.blocks = self._fallback_blocks(state.lists, state.confidences, keep=None)
        else:
            result.blocks = self._route_blocks(state, result.diagnostics)
        result.timings_ms["disambiguate"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        if config.strategy == "density" and config.adaptive_threshold > 0:
            result = adapt(result, state, config.adaptive_threshold, self)
        result.timings_ms["adapt"] = (time.perf_counter() - t0) * 1000.0

        result.timings_ms["total"] = (time.perf_counter() - t_total) * 1000.0
        return result, state

    # -- training data ------------------------------------------------------

    def collect_training_rows(self, questions: list[Question]) -> list[TrainingRow]:
        """Feature rows from annotated questions, using the gold spans' kinds."""
        rows: list[TrainingRow] = []
        for question in questions:
            if not question.gold_spans or len(question.gold_spans) < 2:
                continue
            lists = [
                self.retrieve_for(question, span.phrase, span.kind, {})
                for span in question.gold_spans
            ]
            features = compute_features(lists, self.oracle)
            for span, feats in zip(question.gold_spans, features):
                for f in feats:
                    rows.append(row_from_features(question.id, span.phrase, f, span.uri))
        return rows

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, questions: list[Question]) -> dict:
        """Link every question and score rank-1 answers against the gold spans.

        On the route strategies the solver gap is measured on the instances
        that linking built, running the solver that linking did not. Latency
        is the mean, the nearest-rank p50 and p95, and the maximum of the
        per-question ``total`` timings, in ms.
        """
        if not questions:
            raise DataError("cannot evaluate an empty dataset")
        if any(not q.gold_spans for q in questions):
            raise DataError("evaluation needs gold spans on every question")

        correct = {Kind.ENTITY: 0, Kind.RELATION: 0}
        total = {Kind.ENTITY: 0, Kind.RELATION: 0}
        ranked_groups: list[list[str]] = []
        golds: list[str | None] = []
        latencies = []
        route_costs: list[tuple[float, float]] = []
        for question in questions:
            result, state = self._link(question)
            latencies.append(result.timings_ms.get("total", 0.0))
            costs = self._route_costs(state)
            if costs is not None:
                route_costs.append(costs)
            # The k-th span of a phrase is scored against the k-th block of it.
            blocks_by_phrase: dict[str, list[KeywordBlock]] = {}
            for b in result.blocks:
                blocks_by_phrase.setdefault(normalize(b.keyword), []).append(b)
            for span in question.gold_spans:
                total[span.kind] += 1
                same_phrase = blocks_by_phrase.get(normalize(span.phrase), [])
                block = same_phrase.pop(0) if same_phrase else None
                uris = [c.uri for c in block.candidates] if block else []
                ranked_groups.append(uris)
                golds.append(span.uri)
                if uris and uris[0] == span.uri:
                    correct[span.kind] += 1

        metrics = {
            "strategy": self.config.strategy,
            "questions": len(questions),
            "entity_accuracy": (
                correct[Kind.ENTITY] / total[Kind.ENTITY] if total[Kind.ENTITY] else None
            ),
            "relation_accuracy": (
                correct[Kind.RELATION] / total[Kind.RELATION] if total[Kind.RELATION] else None
            ),
            "keywords": {
                "entities": total[Kind.ENTITY],
                "relations": total[Kind.RELATION],
            },
            "mrr": mrr(ranked_groups, golds) if self.config.strategy == "density" else None,
            "solver_gap": _solver_gap(route_costs) if self.config.strategy != "density" else None,
            "mean_latency_ms": sum(latencies) / len(latencies),
            "p50_latency_ms": _nearest_rank(latencies, 0.50),
            "p95_latency_ms": _nearest_rank(latencies, 0.95),
            "max_latency_ms": max(latencies),
        }
        return metrics

    def _route_costs(self, state: LinkState) -> tuple[float, float] | None:
        """(exact, approximate) route cost on the instance ``link`` solved,
        running the solver it did not; None without an instance or when the
        exact solver refuses it."""
        if state.instance is None:
            return None
        try:
            exact = state.exact or gtsp.solve_exact(state.instance)
        except TooLargeError:
            return None
        approx = state.approx or gtsp.solve_approx(state.instance, seed=self.config.seed)
        return exact.total_cost, approx.total_cost

    def run_ablation(
        self,
        train_questions: list[Question],
        eval_questions: list[Question],
        folds: int = 5,
    ) -> dict[str, float]:
        """MRR per feature subset, the shape of the re-ranking ablation table."""
        train_rows = self.collect_training_rows(train_questions)
        eval_rows = self.collect_training_rows(eval_questions)
        subsets = {
            "initial_rank": ("initial_rank",),
            "connectivity": ("connection_count", "hop_count"),
            "all": FEATURE_NAMES,
        }
        groups = _group_rows(eval_rows)
        ordered_groups = [groups[key] for key in sorted(groups)]
        report = {}
        for name, subset in subsets.items():
            model, _cv = train(
                train_rows, folds=folds, feature_subset=subset, seed=self.config.seed
            )
            report[name] = _group_mrr(model, ordered_groups)
        return report


def _nearest_rank(values: list[float], fraction: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``fraction`` of ``values`` at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _solver_gap(route_costs: list[tuple[float, float]]) -> dict | None:
    """Exact-versus-approximate route cost statistics over (exact, approx) pairs."""
    if not route_costs:
        return None
    gaps = []
    exact_hits = 0
    for exact, approx in route_costs:
        if exact > 0:
            gaps.append((approx - exact) / exact)
        else:
            gaps.append(0.0 if approx == 0 else float("inf"))
        if abs(approx - exact) < 1e-9:
            exact_hits += 1
    return {
        "instances": len(route_costs),
        "mean_relative_gap": sum(gaps) / len(gaps),
        "max_relative_gap": max(gaps),
        "exact_match_rate": exact_hits / len(route_costs),
    }
