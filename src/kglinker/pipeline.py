"""End-to-end linking: spot, predict kinds, retrieve, disambiguate, adapt.

Artifacts (label index, kind classifier, re-ranking model) live in one
directory guarded by a manifest hash so they can never be mixed across
incompatible configurations. Questions are processed independently; all
shared state is immutable after loading.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from . import gtsp
from .adaptive import adapt
from .config import PipelineConfig
from .density import compute_features
from .errors import DataError, InstanceError, ManifestError, TooLargeError
from .index import (
    Candidate,
    CandidateList,
    LabelIndex,
    build_index,
    normalize,
    read_expansions,
    read_label_entries,
)
from .kg import HopOracle, Kind, KnowledgeGraph, build_subdivision, load_graph
from .reranker import (
    FEATURE_NAMES,
    RerankModel,
    TrainingRow,
    _group_mrr,
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
    def of(cls, candidate: Candidate, probability: float | None = None) -> "RankedCandidate":
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

    def max_probability(self) -> float:
        probs = [c.probability for c in self.candidates if c.probability is not None]
        return max(probs) if probs else 0.0

    def probabilities_missing(self) -> bool:
        return any(c.probability is None for c in self.candidates)

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


def candidate_list_of(block: KeywordBlock) -> CandidateList:
    """Rebuild the retrieval-ordered candidate list behind a block."""
    ordered = sorted(block.candidates, key=lambda c: c.initial_rank)
    return CandidateList(
        keyword=block.keyword,
        kind_queried=block.kind,
        candidates=[
            Candidate(
                uri=c.uri,
                matched_label=c.label,
                text_score=c.text_score,
                initial_rank=c.initial_rank,
                kind=c.kind,
            )
            for c in ordered
        ],
    )


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
    expected = config.artifact_hash()
    if path.exists():
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if manifest.get("artifact_hash") != expected:
            raise ManifestError(
                f"artifact directory {directory} was built with a different "
                "configuration (hop_cap/k/seed); rebuild or use matching settings"
            )
        return
    Path(directory).mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": MANIFEST_VERSION,
        "artifact_hash": expected,
        "config": config.to_dict(),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def check_manifest(directory: str | Path, config: PipelineConfig) -> None:
    path = _manifest_path(directory)
    if not path.exists():
        raise ManifestError(f"no manifest in artifact directory {directory}; build artifacts first")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("artifact_hash") != config.artifact_hash():
        raise ManifestError(
            f"artifact directory {directory} does not match the current configuration"
        )


def _require(path_value: str | None, what: str) -> str:
    if not path_value:
        raise DataError(f"config is missing the {what} path")
    return path_value


def read_er_examples(config: PipelineConfig) -> tuple[list, list, list]:
    """(phrase, kind) examples plus per-kind vocabularies from the label files."""
    entries = read_label_entries(_require(config.labels, "labels"))
    expansions = read_expansions(config.expansions) if config.expansions else []
    by_norm: dict[str, list] = {}
    examples = []
    for entry in entries:
        examples.append((entry.label, entry.kind))
        by_norm.setdefault(normalize(entry.label), []).append(entry)
    for label, variant in expansions:
        for entry in by_norm.get(normalize(label), []):
            examples.append((variant, entry.kind))
    entity_vocab = [p for p, k in examples if k is Kind.ENTITY]
    relation_vocab = [p for p, k in examples if k is Kind.RELATION]
    return examples, entity_vocab, relation_vocab


def build_index_artifact(config: PipelineConfig, kg: KnowledgeGraph | None = None) -> LabelIndex:
    directory = _require(config.artifacts, "artifacts")
    write_or_check_manifest(directory, config)
    if kg is None and config.triples:
        kg = load_graph(config.triples)
    entries = read_label_entries(_require(config.labels, "labels"))
    expansions = read_expansions(config.expansions) if config.expansions else []
    index = build_index(entries, expansions, kg)
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

    def _inject_gold(self, clist: CandidateList, question: Question) -> tuple[CandidateList, bool]:
        """Append the annotated uri at the lowest rank when retrieval missed it."""
        if not question.gold_spans:
            return clist, False
        keyword_norm = normalize(clist.keyword)
        span = next(
            (s for s in question.gold_spans if normalize(s.phrase) == keyword_norm),
            None,
        )
        if span is None or span.kind is not clist.kind_queried:
            return clist, False
        if span.uri in (c.uri for c in clist.candidates):
            return clist, False
        injected = Candidate(
            uri=span.uri,
            matched_label=span.phrase,
            text_score=0.0,
            initial_rank=len(clist.candidates) + 1,
            kind=span.kind,
        )
        return (
            CandidateList(
                keyword=clist.keyword,
                kind_queried=clist.kind_queried,
                candidates=clist.candidates + [injected],
            ),
            True,
        )

    def _should_flip(self, question_id: str, keyword: str) -> bool:
        fraction = self.config.er_flip_fraction
        if fraction <= 0.0:
            return False
        token = f"{self.config.seed}:{question_id}:{keyword}"
        return (zlib.crc32(token.encode("utf-8")) % 10_000) < fraction * 10_000

    # -- scoring ------------------------------------------------------------

    def rescore(
        self,
        lists: list[CandidateList],
        kinds: list[Kind],
        confidences: list[float],
    ) -> list[KeywordBlock]:
        """Connectivity features plus probability re-ranking over all lists."""
        if self.rerank_model is None:
            raise DataError("no re-ranking model loaded")
        features = compute_features(lists, self.oracle)
        ranked = rerank(self.rerank_model, lists, features)
        blocks = []
        for clist, kind, confidence, scored in zip(lists, kinds, confidences, ranked):
            blocks.append(
                KeywordBlock(
                    keyword=clist.keyword,
                    kind=kind,
                    er_confidence=confidence,
                    candidates=[RankedCandidate.of(cand, prob) for cand, prob in scored],
                )
            )
        return blocks

    def _fallback_blocks(
        self,
        lists: list[CandidateList],
        kinds: list[Kind],
        confidences: list[float],
        single_choice: bool,
    ) -> list[KeywordBlock]:
        """Retrieval-rank ordering when joint disambiguation is not possible."""
        blocks = []
        for clist, kind, confidence in zip(lists, kinds, confidences):
            candidates = [RankedCandidate.of(c) for c in clist.candidates]
            if single_choice:
                candidates = candidates[:1]
            blocks.append(
                KeywordBlock(
                    keyword=clist.keyword, kind=kind, er_confidence=confidence, candidates=candidates
                )
            )
        return blocks

    def _route_blocks(
        self,
        lists: list[CandidateList],
        kinds: list[Kind],
        confidences: list[float],
        diagnostics: dict,
    ) -> list[KeywordBlock]:
        """Single choice per keyword through the route-based solvers."""
        populated = [i for i, clist in enumerate(lists) if clist.candidates]
        if len(populated) < 2:
            diagnostics.setdefault("notes", []).append(
                "joint disambiguation degenerate: fewer than 2 non-empty lists; "
                "falling back to retrieval order"
            )
            return self._fallback_blocks(lists, kinds, confidences, single_choice=True)

        instance = gtsp.build_instance(
            [lists[i] for i in populated], self.oracle, self.config.rank_weight
        )
        if instance.dropped:
            diagnostics.setdefault("dropped_candidates", []).extend(instance.dropped)
        if self.config.strategy == "exact":
            try:
                assignment = gtsp.solve_exact(instance, budget=self.config.exact_budget)
            except TooLargeError:
                diagnostics.setdefault("notes", []).append(
                    "exact solver budget exceeded; using the approximate solver"
                )
                assignment = gtsp.solve_approx(instance, seed=self.config.seed)
        else:
            assignment = gtsp.solve_approx(instance, seed=self.config.seed)

        chosen_by_list: dict[int, RankedCandidate] = {}
        for cluster_id, list_index in enumerate(populated):
            node = instance.nodes[assignment.chosen[cluster_id]]
            source = next(
                c for c in lists[list_index].candidates if c.uri == node.uri
            )
            chosen_by_list[list_index] = RankedCandidate.of(source)
        diagnostics["route_cost"] = assignment.total_cost
        blocks = []
        for i, (clist, kind, confidence) in enumerate(zip(lists, kinds, confidences)):
            chosen = [chosen_by_list[i]] if i in chosen_by_list else []
            blocks.append(
                KeywordBlock(
                    keyword=clist.keyword, kind=kind, er_confidence=confidence, candidates=chosen
                )
            )
        return blocks

    # -- linking ------------------------------------------------------------

    def link(self, question: Question) -> LinkingResult:
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
            return result

        t0 = time.perf_counter()
        lists = []
        for keyword, kind, _confidence in predictions:
            clist = self.retrieve(keyword, kind)
            if config.gold_injection:
                clist, injected = self._inject_gold(clist, question)
                if injected:
                    result.diagnostics.setdefault("injected_gold", []).append(keyword)
            if not clist.candidates:
                result.diagnostics.setdefault("notes", []).append(
                    f"no candidates for keyword {keyword!r}"
                )
            lists.append(clist)
        result.timings_ms["retrieve"] = (time.perf_counter() - t0) * 1000.0

        kinds = [kind for _, kind, _ in predictions]
        confidences = [confidence for _, _, confidence in predictions]

        t0 = time.perf_counter()
        if config.strategy == "density":
            if len(lists) >= 2:
                result.blocks = self.rescore(lists, kinds, confidences)
            else:
                result.diagnostics.setdefault("notes", []).append(
                    "joint disambiguation degenerate: single keyword; "
                    "falling back to retrieval order"
                )
                result.blocks = self._fallback_blocks(
                    lists, kinds, confidences, single_choice=False
                )
        else:
            result.blocks = self._route_blocks(lists, kinds, confidences, result.diagnostics)
        result.timings_ms["disambiguate"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        if config.strategy == "density" and config.adaptive.max_retries_per_keyword > 0:
            result = adapt(result, config.adaptive, self)
        result.timings_ms["adapt"] = (time.perf_counter() - t0) * 1000.0

        result.timings_ms["total"] = (time.perf_counter() - t_total) * 1000.0
        return result

    # -- training data ------------------------------------------------------

    def collect_training_rows(self, questions: list[Question]) -> list[TrainingRow]:
        """Feature rows from annotated questions, using the gold spans' kinds."""
        rows: list[TrainingRow] = []
        for question in questions:
            if not question.gold_spans or len(question.gold_spans) < 2:
                continue
            lists = []
            for span in question.gold_spans:
                clist = self.retrieve(span.phrase, span.kind)
                if self.config.gold_injection:
                    clist, _ = self._inject_gold(clist, question)
                lists.append(clist)
            features = compute_features(lists, self.oracle)
            for span, feats in zip(question.gold_spans, features):
                for f in feats:
                    rows.append(row_from_features(question.id, span.phrase, f, span.uri))
        return rows

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, questions: list[Question]) -> dict:
        """Link every question and score rank-1 answers against the gold spans."""
        if not questions:
            raise DataError("cannot evaluate an empty dataset")
        if any(not q.gold_spans for q in questions):
            raise DataError("evaluation needs gold spans on every question")

        correct = {Kind.ENTITY: 0, Kind.RELATION: 0}
        total = {Kind.ENTITY: 0, Kind.RELATION: 0}
        ranked_groups: list[list[str]] = []
        golds: list[str | None] = []
        latencies = []
        results = []
        for question in questions:
            result = self.link(question)
            results.append(result)
            latencies.append(result.timings_ms.get("total", 0.0))
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
            "solver_gap": self._solver_gap(questions) if self.config.strategy != "density" else None,
            "mean_latency_ms": sum(latencies) / len(latencies),
        }
        return metrics

    def _solver_gap(self, questions: list[Question]) -> dict | None:
        """Exact-versus-approximate route cost statistics over the dataset."""
        gaps = []
        exact_hits = 0
        compared = 0
        for question in questions:
            if not question.gold_spans or len(question.gold_spans) < 2:
                continue
            lists = [self.retrieve(s.phrase, s.kind) for s in question.gold_spans]
            lists = [l for l in lists if l.candidates]
            if len(lists) < 2:
                continue
            try:
                instance = gtsp.build_instance(lists, self.oracle, self.config.rank_weight)
                exact = gtsp.solve_exact(instance, budget=self.config.exact_budget)
            except (InstanceError, TooLargeError):
                continue
            approx = gtsp.solve_approx(instance, seed=self.config.seed)
            compared += 1
            if exact.total_cost > 0:
                gap = (approx.total_cost - exact.total_cost) / exact.total_cost
            else:
                gap = 0.0 if approx.total_cost == 0 else float("inf")
            gaps.append(gap)
            if abs(approx.total_cost - exact.total_cost) < 1e-9:
                exact_hits += 1
        if not compared:
            return None
        return {
            "instances": compared,
            "mean_relative_gap": sum(gaps) / len(gaps),
            "max_relative_gap": max(gaps),
            "exact_match_rate": exact_hits / compared,
        }

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
        groups: dict[tuple[str, str], list[TrainingRow]] = {}
        for row in eval_rows:
            groups.setdefault((row.question_id, row.keyword), []).append(row)
        ordered_groups = [groups[key] for key in sorted(groups)]
        report = {}
        for name, subset in subsets.items():
            model, _cv = train(
                train_rows, folds=folds, feature_subset=subset, seed=self.config.seed
            )
            report[name] = _group_mrr(model, ordered_groups)
        return report
