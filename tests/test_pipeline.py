import copy
import json

import pytest

from kglinker.config import PipelineConfig
from kglinker.errors import DataError, ManifestError
from kglinker.kg import Kind
from kglinker.pipeline import (
    Pipeline,
    build_index_artifact,
    load_artifacts,
    train_er_artifact,
    train_reranker_artifact,
)
from kglinker.spotter import Question, load_questions
from kglinker.synthetic import generate_world, mini_world

E = Kind.ENTITY
R = Kind.RELATION

WORKED_QUESTION = "Where was the founder of Tesla and SpaceX born?"
WORKED_GOLD = {
    "founder": "dbo:foundedBy",
    "Tesla": "dbr:Tesla_Motors",
    "SpaceX": "dbr:SpaceX",
    "born": "dbo:birthPlace",
}


@pytest.fixture(scope="session")
def mini_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mini-world")
    world = mini_world()
    paths = world.write(tmp / "data")
    config = PipelineConfig(
        strategy="exact",
        k=10,
        triples=paths["triples"],
        labels=paths["labels"],
        expansions=paths["expansions"],
        artifacts=str(tmp / "artifacts"),
    )
    build_index_artifact(config)
    train_er_artifact(config)
    questions = load_questions(paths["dataset"])
    train_reranker_artifact(config, questions=questions[1:], folds=5)
    return {"config": config, "questions": questions, "paths": paths}


def mini_pipeline(mini_setup, strategy, **overrides):
    config = copy.deepcopy(mini_setup["config"])
    config.strategy = strategy
    for key, value in overrides.items():
        setattr(config, key, value)
    return Pipeline.from_config(config)


class TestWorkedExample:
    @pytest.mark.parametrize("strategy", ["exact", "approx", "density"])
    def test_links_all_keywords(self, mini_setup, strategy):
        pipe = mini_pipeline(mini_setup, strategy)
        result = pipe.link(Question(id="w", text=WORKED_QUESTION))
        choices = {b.keyword: b.top_uri() for b in result.blocks}
        assert choices == WORKED_GOLD

    def test_exact_and_approx_agree_on_suite(self, mini_setup):
        exact = mini_pipeline(mini_setup, "exact")
        density = mini_pipeline(mini_setup, "density")
        agreements = 0
        questions = mini_setup["questions"]
        for question in questions:
            a = exact.link(Question(id=question.id, text=question.text))
            b = density.link(Question(id=question.id, text=question.text))
            if all(
                ba.top_uri() == bb.top_uri() for ba, bb in zip(a.blocks, b.blocks)
            ):
                agreements += 1
        assert agreements / len(questions) >= 0.9


class TestLinkBehaviour:
    def test_no_keywords_spotted(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "exact")
        result = pipe.link(Question(id="empty", text="where was the and of"))
        assert result.blocks == []
        assert "no keywords spotted" in result.diagnostics["notes"]

    def test_single_keyword_density_falls_back(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "density")
        result = pipe.link(Question(id="single", text="Pretoria"))
        assert len(result.blocks) == 1
        assert result.blocks[0].probabilities_missing()
        assert any("degenerate" in n for n in result.diagnostics["notes"])
        assert result.blocks[0].candidates[0].uri == "dbr:Pretoria"

    def test_single_keyword_route_falls_back(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "exact")
        result = pipe.link(Question(id="single", text="Pretoria"))
        assert len(result.blocks) == 1
        assert len(result.blocks[0].candidates) == 1

    def test_route_strategies_single_choice(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "approx")
        result = pipe.link(Question(id="w", text=WORKED_QUESTION))
        assert all(len(b.candidates) == 1 for b in result.blocks)
        assert all(b.candidates[0].probability is None for b in result.blocks)

    def test_density_returns_full_ranked_lists(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "density")
        result = pipe.link(Question(id="w", text=WORKED_QUESTION))
        tesla_block = next(b for b in result.blocks if b.keyword == "Tesla")
        assert len(tesla_block.candidates) >= 2
        probs = [c.probability for c in tesla_block.candidates]
        assert probs == sorted(probs, reverse=True)

    def test_timings_account_for_total(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "density")
        result = pipe.link(Question(id="w", text=WORKED_QUESTION))
        stages = [v for k, v in result.timings_ms.items() if k != "total"]
        assert sum(stages) <= result.timings_ms["total"] + 1e-6

    def test_density_requires_model(self, mini_setup):
        config = copy.deepcopy(mini_setup["config"])
        config.strategy = "density"
        artifacts = load_artifacts(config)
        pipe = Pipeline(
            kg=Pipeline.from_config(config).kg,
            oracle=Pipeline.from_config(config).oracle,
            index=artifacts.index,
            config=config,
            er_model=artifacts.er_model,
            rerank_model=None,
        )
        with pytest.raises(DataError):
            pipe.link(Question(id="w", text=WORKED_QUESTION))

    def test_gold_mode_uses_annotated_spans(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "exact", gold_spans=True)
        question = mini_setup["questions"][0]
        result = pipe.link(question)
        assert [b.keyword for b in result.blocks] == [s.phrase for s in question.gold_spans]

    def test_linking_result_json_round_trip(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "density")
        result = pipe.link(Question(id="w", text=WORKED_QUESTION))
        payload = json.loads(result.to_json())
        assert payload["question_id"] == "w"
        assert "timings_ms" in payload
        without = json.loads(result.to_json(include_timings=False))
        assert "timings_ms" not in without


class TestManifest:
    def test_mismatched_hash_rejected(self, mini_setup):
        config = copy.deepcopy(mini_setup["config"])
        config.hop_cap = 3
        with pytest.raises(ManifestError):
            Pipeline.from_config(config)

    def test_missing_manifest_rejected(self, tmp_path, mini_setup):
        config = copy.deepcopy(mini_setup["config"])
        config.artifacts = str(tmp_path / "nothing")
        with pytest.raises(ManifestError):
            Pipeline.from_config(config)


class TestEvaluate:
    def test_mini_suite_exact(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "exact", gold_spans=True)
        metrics = pipe.evaluate(mini_setup["questions"])
        assert metrics["entity_accuracy"] == 1.0
        assert metrics["relation_accuracy"] == 1.0
        assert metrics["solver_gap"]["instances"] > 0
        assert metrics["solver_gap"]["mean_relative_gap"] >= 0.0

    def test_mini_suite_density_mrr(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "density", gold_spans=True)
        metrics = pipe.evaluate(mini_setup["questions"])
        assert metrics["mrr"] is not None and metrics["mrr"] > 0.9
        assert metrics["solver_gap"] is None

    def test_dataset_without_gold_rejected(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "exact")
        with pytest.raises(DataError):
            pipe.evaluate([Question(id="x", text="no spans here")])

    def test_accuracy_counts_wrong_answers(self, mini_setup):
        from kglinker.spotter import GoldSpan

        pipe = mini_pipeline(mini_setup, "exact", gold_spans=True)
        questions = [copy.deepcopy(q) for q in mini_setup["questions"]]
        entity_total = sum(
            1 for q in questions for s in q.gold_spans if s.kind is E
        )
        # poison one entity annotation so its rank-1 answer cannot match
        for question in questions:
            index = next(
                (i for i, s in enumerate(question.gold_spans) if s.kind is E), None
            )
            if index is not None:
                span = question.gold_spans[index]
                question.gold_spans[index] = GoldSpan(span.phrase, span.kind, "dbr:WrongAnswer")
                break
        metrics = pipe.evaluate(questions)
        assert metrics["entity_accuracy"] == pytest.approx((entity_total - 1) / entity_total)

    def test_repeated_phrase_pairs_spans_with_blocks_in_order(self, mini_setup, monkeypatch):
        from kglinker.index import Candidate
        from kglinker.pipeline import KeywordBlock, LinkingResult, RankedCandidate
        from kglinker.spotter import GoldSpan

        pipe = mini_pipeline(mini_setup, "density", gold_spans=True)
        question = Question(
            id="twice",
            text="Tesla and Tesla",
            gold_spans=[GoldSpan("Tesla", E, "dbr:First"), GoldSpan("Tesla", E, "dbr:Second")],
        )

        def link(q):
            blocks = [
                KeywordBlock("Tesla", E, 1.0, [RankedCandidate.of(Candidate(uri, uri, 1.0, 1, E), 0.9)])
                for uri in ("dbr:First", "dbr:Second")
            ]
            return LinkingResult(question_id=q.id, strategy="density", blocks=blocks)

        monkeypatch.setattr(pipe, "link", link)
        metrics = pipe.evaluate([question])
        assert metrics["entity_accuracy"] == 1.0
        assert metrics["mrr"] == 1.0

    def test_empty_dataset_rejected(self, mini_setup):
        pipe = mini_pipeline(mini_setup, "exact")
        with pytest.raises(DataError):
            pipe.evaluate([])


@pytest.fixture(scope="session")
def synth_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synth-world")
    world = generate_world(communities=14, questions=240, seed=29)
    paths = world.write(tmp / "data")
    config = PipelineConfig(
        strategy="density",
        k=10,
        gold_spans=True,
        gold_injection=True,
        triples=paths["triples"],
        labels=paths["labels"],
        expansions=paths["expansions"],
        artifacts=str(tmp / "artifacts"),
    )
    build_index_artifact(config)
    train_er_artifact(config)
    questions = load_questions(paths["dataset"])
    train_reranker_artifact(config, questions=questions[:120], folds=5)
    return {"config": config, "questions": questions}


class TestSyntheticWorld:
    def test_gold_injection_adds_missing_gold(self, synth_setup):
        config = copy.deepcopy(synth_setup["config"])
        pipe = Pipeline.from_config(config)
        injected = 0
        for question in synth_setup["questions"][:60]:
            result = pipe.link(question)
            injected += len(result.diagnostics.get("injected_gold", []))
            for span in question.gold_spans:
                block = next(
                    (b for b in result.blocks if b.keyword == span.phrase), None
                )
                assert block is not None
                assert span.uri in [c.uri for c in block.candidates]
        assert injected > 0

    def test_determinism_byte_identical(self, synth_setup):
        questions = synth_setup["questions"][120:150]

        def run():
            pipe = Pipeline.from_config(copy.deepcopy(synth_setup["config"]))
            lines = [pipe.link(q).to_json(include_timings=False) for q in questions]
            metrics = pipe.evaluate(questions)
            metrics.pop("mean_latency_ms")
            return "\n".join(lines) + json.dumps(metrics, sort_keys=True)

        assert run() == run()

    def test_ablation_report_shape(self, synth_setup):
        pipe = Pipeline.from_config(copy.deepcopy(synth_setup["config"]))
        questions = synth_setup["questions"]
        report = pipe.run_ablation(questions[:120], questions[120:200])
        assert set(report) == {"initial_rank", "connectivity", "all"}
        assert all(0.0 <= v <= 1.0 for v in report.values())
