import json
import random

import pytest

from kglinker.errors import DataError, TrainingError
from kglinker.kg import Kind
from kglinker.spotter import (
    ERModel,
    GoldSpan,
    Question,
    SpotMode,
    extract_keywords,
    load_questions,
    predict_er,
    train_er_classifier,
)

E = Kind.ENTITY
R = Kind.RELATION


class TestExtractKeywords:
    def test_worked_question_chunks(self):
        q = Question(id="1", text="Where was the founder of Tesla and SpaceX born?")
        assert extract_keywords(q) == ["founder", "Tesla", "SpaceX", "born"]

    def test_all_stopwords_empty(self):
        q = Question(id="2", text="where was the and of")
        assert extract_keywords(q) == []

    def test_vocabulary_merge_longest_match(self):
        q = Question(id="3", text="companies of New York")
        vocab = frozenset({"new york", "york"})
        assert extract_keywords(q, vocabulary=vocab) == ["companies", "New York"]

    def test_merge_prefers_longest_window(self):
        q = Question(id="4", text="list new york city hotels")
        vocab = frozenset({"new york", "new york city"})
        assert extract_keywords(q, vocabulary=vocab) == ["list", "new york city", "hotels"]

    def test_gold_mode_passthrough(self):
        spans = [
            GoldSpan("founder", R, "dbo:foundedBy"),
            GoldSpan("Tesla", E, "dbr:Tesla_Motors"),
        ]
        q = Question(id="5", text="founder of Tesla", gold_spans=spans)
        assert extract_keywords(q, mode=SpotMode.GOLD) == ["founder", "Tesla"]

    def test_gold_mode_without_spans_errors(self):
        q = Question(id="6", text="founder of Tesla")
        with pytest.raises(DataError):
            extract_keywords(q, mode=SpotMode.GOLD)

    def test_custom_stopwords(self):
        q = Question(id="7", text="alpha beta gamma")
        assert extract_keywords(q, stopwords=frozenset({"beta"})) == ["alpha", "gamma"]


class TestLoadQuestions:
    def test_round_trip(self, tmp_path):
        data = [
            {"id": 1, "text": "founder of Tesla", "spans": [
                {"phrase": "founder", "kind": "R", "uri": "dbo:foundedBy"}
            ]},
            {"id": 2, "text": "plain question"},
        ]
        path = tmp_path / "qs.json"
        path.write_text(json.dumps(data))
        questions = load_questions(str(path))
        assert questions[0].gold_spans == [GoldSpan("founder", R, "dbo:foundedBy")]
        assert questions[1].gold_spans is None


def training_examples():
    entities = ["Tesla", "SpaceX", "Berlin", "Nikola Tesla", "Pretoria", "HBO"]
    relations = ["founder", "born", "author", "spouse", "director", "capital"]
    examples = [(p, E) for p in entities] + [(p, R) for p in relations]
    return examples, entities, relations


class TestERClassifier:
    def test_known_vocabulary_predictions(self):
        examples, entities, relations = training_examples()
        model = train_er_classifier(examples, entities, relations)
        assert predict_er(model, "founder").kind is R
        assert predict_er(model, "Tesla").kind is E
        assert predict_er(model, "born").kind is R
        assert predict_er(model, "SpaceX").kind is E

    def test_confidence_at_least_half(self):
        examples, entities, relations = training_examples()
        model = train_er_classifier(examples, entities, relations)
        for phrase in ("founder", "Tesla", "unseen thing"):
            assert predict_er(model, phrase).confidence >= 0.5

    def test_deterministic(self):
        examples, entities, relations = training_examples()
        model_a = train_er_classifier(examples, entities, relations)
        model_b = train_er_classifier(examples, entities, relations)
        assert predict_er(model_a, "capital") == predict_er(model_b, "capital")

    def test_empty_phrase_rejected(self):
        examples, entities, relations = training_examples()
        model = train_er_classifier(examples, entities, relations)
        with pytest.raises(ValueError):
            predict_er(model, "")

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_er_classifier([("a", E), ("b", E), ("c", E)])

    def test_flip_involution(self):
        assert E.flipped().flipped() is E
        assert R.flipped().flipped() is R

    def test_capitalised_entities_learned(self):
        rng = random.Random(0)
        examples = []
        for i in range(40):
            examples.append((f"Name{i}", E))
            examples.append((f"verb{i}", R))
        model = train_er_classifier(examples)
        assert predict_er(model, "Name99").kind is E

    def test_vocabulary_separable_accuracy(self):
        rng = random.Random(13)
        letters = "abcdefghijklmnopqrstuvwxyz"
        def word():
            return "".join(rng.choice(letters) for _ in range(rng.randint(4, 9)))
        entity_vocab = [word() for _ in range(120)]
        relation_vocab = [word() for _ in range(120)]
        examples = [(p, E) for p in entity_vocab] + [(p, R) for p in relation_vocab]
        rng.shuffle(examples)
        train_set = examples[:180]
        held_out = examples[180:]
        model = train_er_classifier(
            train_set,
            entity_vocab=entity_vocab,
            relation_vocab=relation_vocab,
        )
        correct = sum(predict_er(model, p).kind is k for p, k in held_out)
        assert correct / len(held_out) >= 0.9

    def test_save_load_round_trip(self, tmp_path):
        examples, entities, relations = training_examples()
        model = train_er_classifier(examples, entities, relations)
        path = tmp_path / "er.json"
        model.save(str(path))
        loaded = ERModel.load(str(path))
        assert predict_er(loaded, "founder") == predict_er(model, "founder")
        again = tmp_path / "again.json"
        loaded.save(str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_other_version_is_refused(self, tmp_path):
        examples, entities, relations = training_examples()
        path = tmp_path / "er.json"
        train_er_classifier(examples, entities, relations).save(str(path))
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": 2}))
        with pytest.raises(DataError, match="er.json.*unsupported version 2"):
            ERModel.load(str(path))
