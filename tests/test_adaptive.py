import copy

import pytest

from kglinker.adaptive import DEFAULT_THRESHOLD, adapt, no_candidates_note
from kglinker.config import PipelineConfig
from kglinker.pipeline import (
    Pipeline,
    build_index_artifact,
    train_er_artifact,
    train_reranker_artifact,
)
from kglinker.spotter import Question, load_questions
from kglinker.synthetic import generate_world, mini_world


@pytest.fixture(scope="session")
def adaptive_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("adaptive-world")
    world = generate_world(
        communities=14, questions=240, seed=23, broken_rate=0.0, opaque_rate=0.0
    )
    paths = world.write(tmp / "data")
    config = PipelineConfig(
        strategy="density",
        k=10,
        gold_spans=True,
        triples=paths["triples"],
        labels=paths["labels"],
        expansions=paths["expansions"],
        artifacts=str(tmp / "artifacts"),
    )
    build_index_artifact(config)
    train_er_artifact(config)
    questions = load_questions(paths["dataset"])
    train_reranker_artifact(config, questions=questions[:120], folds=5)
    return {"config": config, "questions": questions[120:]}


def make_pipeline(setup, flip_fraction=0.0, threshold=DEFAULT_THRESHOLD):
    config = copy.deepcopy(setup["config"])
    config.er_flip_fraction = flip_fraction
    config.adaptive_threshold = threshold
    return Pipeline.from_config(config)


def overall_accuracy(metrics):
    counts = metrics["keywords"]
    total = counts["entities"] + counts["relations"]
    hits = (
        metrics["entity_accuracy"] * counts["entities"]
        + metrics["relation_accuracy"] * counts["relations"]
    )
    return hits / total


class TestAdaptiveFlow:
    def test_confident_results_untouched(self, adaptive_setup):
        with_adapt = make_pipeline(adaptive_setup, threshold=DEFAULT_THRESHOLD)
        without = make_pipeline(adaptive_setup, threshold=0.0)
        for question in adaptive_setup["questions"][:30]:
            a = with_adapt.link(question)
            b = without.link(question)
            assert [blk.to_dict() for blk in a.blocks] == [blk.to_dict() for blk in b.blocks]
            assert a.diagnostics.get("flips", []) == []

    def test_flipped_prediction_recovered(self, adaptive_setup):
        pipe = make_pipeline(adaptive_setup, flip_fraction=0.2, threshold=DEFAULT_THRESHOLD)
        questions = adaptive_setup["questions"][:60]
        recovered = 0
        flips_seen = 0
        for question in questions:
            result = pipe.link(question)
            kept = [f for f in result.diagnostics.get("flips", []) if f["kept"]]
            flips_seen += len(kept)
            for flip in kept:
                assert flip["new_max_probability"] > flip["old_max_probability"]
                block = next(b for b in result.blocks if b.keyword == flip["keyword"])
                assert block.kind.value == flip["new_kind"]
                span = next(
                    s for s in question.gold_spans if s.phrase == flip["keyword"]
                )
                if block.top_uri() == span.uri:
                    recovered += 1
        assert flips_seen > 0
        assert recovered / flips_seen > 0.8

    def test_accuracy_improvement_under_injected_flips(self, adaptive_setup):
        questions = adaptive_setup["questions"][:120]
        base = make_pipeline(adaptive_setup, flip_fraction=0.2, threshold=0.0)
        adapted = make_pipeline(adaptive_setup, flip_fraction=0.2, threshold=DEFAULT_THRESHOLD)
        acc_base = overall_accuracy(base.evaluate(questions))
        acc_adapted = overall_accuracy(adapted.evaluate(questions))
        assert acc_adapted >= acc_base + 0.05

    def test_non_degradation_without_flips(self, adaptive_setup):
        questions = adaptive_setup["questions"][:120]
        base = make_pipeline(adaptive_setup, threshold=0.0)
        adapted = make_pipeline(adaptive_setup, threshold=DEFAULT_THRESHOLD)
        acc_base = overall_accuracy(base.evaluate(questions))
        acc_adapted = overall_accuracy(adapted.evaluate(questions))
        assert acc_adapted >= acc_base

    def test_idempotent_second_pass(self, adaptive_setup):
        pipe = make_pipeline(adaptive_setup, flip_fraction=0.2, threshold=DEFAULT_THRESHOLD)
        for question in adaptive_setup["questions"][:40]:
            result, state = pipe._link(question)
            snapshot = [blk.to_dict() for blk in result.blocks]
            again = adapt(result, state, pipe.config.adaptive_threshold, pipe)
            assert [blk.to_dict() for blk in again.blocks] == snapshot

    def test_max_probability_never_decreases(self, adaptive_setup):
        flipped_off = make_pipeline(adaptive_setup, flip_fraction=0.2, threshold=0.0)
        flipped_on = make_pipeline(adaptive_setup, flip_fraction=0.2, threshold=DEFAULT_THRESHOLD)
        for question in adaptive_setup["questions"][:40]:
            before = flipped_off.link(question)
            after = flipped_on.link(question)
            before_by_kw = {b.keyword: b.max_probability() for b in before.blocks}
            for block in after.blocks:
                assert block.max_probability() >= before_by_kw[block.keyword] - 1e-12

    def test_unlinkable_keyword_keeps_original(self, adaptive_setup):
        config = copy.deepcopy(adaptive_setup["config"])
        config.gold_spans = False
        pipe = Pipeline.from_config(config)
        question = Question(id="junk", text="What is the zzzuNkNoWn of the fam0 and the fam1?")
        result = pipe.link(question)
        flips = result.diagnostics.get("flips", [])
        for flip in flips:
            if not flip["kept"]:
                block = next(b for b in result.blocks if b.keyword == flip["keyword"])
                assert block.kind.value == flip["old_kind"]

    def test_kept_flip_drops_its_no_candidates_note(self, adaptive_setup):
        before = make_pipeline(adaptive_setup, flip_fraction=0.5, threshold=0.0)
        after = make_pipeline(adaptive_setup, flip_fraction=0.5, threshold=DEFAULT_THRESHOLD)
        dropped = 0
        for question in adaptive_setup["questions"][:60]:
            first = before.link(question).diagnostics.get("notes", [])
            result = after.link(question)
            notes = result.diagnostics.get("notes")
            assert notes != []
            for block in result.blocks:
                if block.candidates:
                    assert no_candidates_note(block.keyword) not in (notes or [])
            dropped += len(first) - len(notes or [])
        assert dropped > 0


class TestKeptFlipAfterOffGraphDrop:
    @pytest.fixture(scope="class")
    def ghost_pipeline(self, tmp_path_factory):
        """Density on the mini world plus an entity label "born" whose uri is
        not in the graph, with the kind of "born" always flipped to entity."""
        tmp = tmp_path_factory.mktemp("born-ghost-world")
        world = mini_world()
        world.labels.append(("dbr:Born_Ghost", "born", "E", 1.0))
        paths = world.write(tmp / "data")
        config = PipelineConfig(
            strategy="density",
            k=10,
            triples=paths["triples"],
            labels=paths["labels"],
            expansions=paths["expansions"],
            artifacts=str(tmp / "artifacts"),
        )
        build_index_artifact(config)
        train_er_artifact(config)
        train_reranker_artifact(config, questions=load_questions(paths["dataset"]), folds=5)
        pipe = Pipeline.from_config(config)
        pipe._should_flip = lambda question_id, keyword: keyword == "born"
        return pipe

    def test_first_pass_drop_is_taken_back(self, ghost_pipeline):
        question = Question(id="g", text="Where was the founder of Tesla and SpaceX born?")
        result = ghost_pipeline.link(question)
        flip = next(f for f in result.diagnostics["flips"] if f["keyword"] == "born")
        assert flip["kept"]
        assert [b.top_uri() for b in result.blocks if b.keyword == "born"] == ["dbo:birthPlace"]
        assert "dbr:Born_Ghost" not in result.diagnostics.get("dropped_candidates", [])

    def test_first_pass_drop_stays_without_retry(self, ghost_pipeline):
        config = copy.deepcopy(ghost_pipeline.config)
        config.adaptive_threshold = 0.0
        pipe = Pipeline(
            ghost_pipeline.kg, ghost_pipeline.oracle, ghost_pipeline.index, config,
            ghost_pipeline.er_model, ghost_pipeline.rerank_model,
        )
        pipe._should_flip = ghost_pipeline._should_flip
        question = Question(id="g", text="Where was the founder of Tesla and SpaceX born?")
        result = pipe.link(question)
        assert result.diagnostics["dropped_candidates"] == ["dbr:Born_Ghost"]
