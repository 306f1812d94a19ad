import json
import logging

import pytest

from kglinker.cli import main


@pytest.fixture(scope="session")
def cli_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "world"
    assert main(["gen-synthetic", "--out", str(out), "--preset", "mini"]) == 0
    config_path = tmp / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "strategy": "exact",
                "k": 10,
                "triples": str(out / "triples.tsv"),
                "labels": str(out / "labels.tsv"),
                "expansions": str(out / "expansions.tsv"),
                "artifacts": str(tmp / "artifacts"),
            }
        )
    )
    assert main(["build-index", "--config", str(config_path)]) == 0
    assert main(["train-er", "--config", str(config_path)]) == 0
    assert (
        main(
            [
                "train-reranker",
                "--config",
                str(config_path),
                "--dataset",
                str(out / "dataset.json"),
            ]
        )
        == 0
    )
    return {"config": str(config_path), "world": out, "tmp": tmp}


class TestGenSynthetic:
    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = main(
                ["gen-synthetic", "--out", str(out), "--entities", "120", "--seed", "7",
                 "--questions", "40"]
            )
            assert code == 0
        for name in ("triples.tsv", "labels.tsv", "expansions.tsv", "dataset.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["gen-synthetic", "--out", str(a), "--seed", "1", "--questions", "40"])
        main(["gen-synthetic", "--out", str(b), "--seed", "2", "--questions", "40"])
        assert (a / "dataset.json").read_bytes() != (b / "dataset.json").read_bytes()


class TestLinkCommand:
    def test_single_question_json_line(self, cli_setup, capsys):
        code = main(
            [
                "link",
                "--config",
                cli_setup["config"],
                "--question",
                "Where was the founder of Tesla and SpaceX born?",
            ]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l.startswith("{")]
        payload = json.loads(lines[-1])
        choices = {b["keyword"]: b["candidates"][0]["uri"] for b in payload["keywords"]}
        assert choices["Tesla"] == "dbr:Tesla_Motors"
        assert "timings_ms" not in payload

    def test_density_strategy_flag(self, cli_setup, capsys):
        code = main(
            [
                "link",
                "--config",
                cli_setup["config"],
                "--strategy",
                "density",
                "--question",
                "What is the industry of Tesla?",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        tesla = next(b for b in payload["keywords"] if b["keyword"] == "Tesla")
        assert tesla["candidates"][0]["uri"] == "dbr:Tesla_Motors"
        assert tesla["candidates"][0]["probability"] is not None

    def test_timings_flag_includes_timings(self, cli_setup, capsys):
        code = main(
            [
                "link",
                "--config",
                cli_setup["config"],
                "--timings",
                "--question",
                "Who is the founder of SpaceX?",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "timings_ms" in payload

    def test_stdin_stream(self, cli_setup, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("Who is the founder of SpaceX?\nWhat is the capital of Serbia?\n"),
        )
        code = main(["link", "--config", cli_setup["config"]])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l.startswith("{")]
        assert len(lines) == 2
        ids = [json.loads(l)["question_id"] for l in lines]
        assert ids == ["stdin-0", "stdin-1"]

    def test_stdin_failed_line_reported_and_stream_goes_on(self, cli_setup, capsys, monkeypatch):
        import io

        from kglinker.errors import DataError
        from kglinker.pipeline import Pipeline

        real_link = Pipeline.link

        def link(self, question):
            if question.id == "stdin-1":
                raise DataError("broken line")
            return real_link(self, question)

        monkeypatch.setattr(Pipeline, "link", link)
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("Where was Tesla founded?\nWhat is the capital of Serbia?\nPretoria\n"),
        )
        code = main(["link", "--config", cli_setup["config"]])
        assert code == 2
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["question_id"] for l in lines] == ["stdin-0", "stdin-1", "stdin-2"]
        assert lines[1] == {"question_id": "stdin-1", "error": "broken line"}
        assert "keywords" in lines[0] and "keywords" in lines[2]

    def test_stdin_underscore_token_does_not_end_stream(self, cli_setup, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "Who founded SpaceX?\nWho is the ___ of Tesla?\nWhere was Elon Musk born?\n"
            ),
        )
        assert main(["link", "--config", cli_setup["config"]]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["question_id"] for l in lines] == ["stdin-0", "stdin-1", "stdin-2"]
        assert "___" not in [b["keyword"] for b in lines[1]["keywords"]]

    def test_stdin_line_not_utf8_reported_and_stream_goes_on(self, cli_setup, capsys, monkeypatch):
        import io

        raw = b"Where was Tesla founded?\nWho is the \xff of Tesla?\nPretoria\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), "utf-8", "strict"))
        assert main(["link", "--config", cli_setup["config"]]) == 2
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["question_id"] for l in lines] == ["stdin-0", "stdin-1", "stdin-2"]
        assert lines[1]["error"].startswith("stdin:2: 'utf-8' codec can't decode byte 0xff")
        assert "keywords" in lines[0] and "keywords" in lines[2]

    def test_stdin_read_lazily(self, cli_setup, capsys, monkeypatch):
        from kglinker.pipeline import Pipeline

        linked = []
        real_link = Pipeline.link

        def link(self, question):
            linked.append(question.id)
            return real_link(self, question)

        def stdin():
            yield "Where was Tesla founded?\n"
            assert linked == ["stdin-0"], "first line not linked before the second was read"
            yield "Pretoria\n"

        monkeypatch.setattr(Pipeline, "link", link)
        monkeypatch.setattr("sys.stdin", stdin())
        assert main(["link", "--config", cli_setup["config"]]) == 0
        assert linked == ["stdin-0", "stdin-1"]


class TestEvalCommand:
    def test_metrics_json(self, cli_setup, capsys):
        code = main(
            [
                "eval",
                "--config",
                cli_setup["config"],
                "--dataset",
                str(cli_setup["world"] / "dataset.json"),
                "--gold-spans",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["entity_accuracy"] == 1.0
        assert "mean_latency_ms" not in payload

    def test_timings_report_latency_percentiles(self, cli_setup, capsys):
        dataset = cli_setup["world"] / "dataset.json"
        argv = ["eval", "--config", cli_setup["config"], "--dataset", str(dataset), "--gold-spans"]
        assert main(argv + ["--timings"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        mean, p50, p95, top = (
            payload[f"{name}_latency_ms"] for name in ("mean", "p50", "p95", "max")
        )
        assert 0 < p50 <= p95 <= top and mean <= top
        assert main(argv) == 0
        assert not [key for key in json.loads(capsys.readouterr().out) if "latency" in key]

    def test_byte_identical_runs(self, cli_setup, capsys):
        argv = [
            "eval",
            "--config",
            cli_setup["config"],
            "--dataset",
            str(cli_setup["world"] / "dataset.json"),
            "--gold-spans",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_dump_features(self, cli_setup, capsys, tmp_path):
        dump = tmp_path / "rows.tsv"
        code = main(
            [
                "eval",
                "--config",
                cli_setup["config"],
                "--dataset",
                str(cli_setup["world"] / "dataset.json"),
                "--gold-spans",
                "--dump-features",
                str(dump),
            ]
        )
        assert code == 0
        text = dump.read_text()
        assert "initial_rank" in text.splitlines()[0]
        assert len(text.splitlines()) > 10

    def test_ablation_flag(self, cli_setup, capsys):
        code = main(
            [
                "eval",
                "--config",
                cli_setup["config"],
                "--dataset",
                str(cli_setup["world"] / "dataset.json"),
                "--gold-spans",
                "--ablation",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload["ablation_mrr"]) == {"initial_rank", "connectivity", "all"}


class TestLogLevel:
    WARNING = "label entry uri 'dbr:Tesla_Ghost' not found in the graph"

    @pytest.fixture
    def ghost_config(self, cli_setup, tmp_path):
        """The mini world's config plus a label whose uri is not in the graph,
        with artifacts of its own."""
        labels = tmp_path / "labels.tsv"
        labels.write_text(
            (cli_setup["world"] / "labels.tsv").read_text() + "dbr:Tesla_Ghost\tTesla\tE\t1.0\n"
        )
        config = json.loads((cli_setup["tmp"] / "config.json").read_text())
        config.update(labels=str(labels), artifacts=str(tmp_path / "artifacts"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    @pytest.fixture
    def unconfigured(self, monkeypatch):
        """Keep records from pytest's root handlers, as when no program
        configured logging, so logging's last resort writes them to stderr."""
        monkeypatch.setattr(logging.getLogger("kglinker"), "propagate", False)

    def test_default_prints_off_graph_warning(self, ghost_config, unconfigured, capsys):
        assert main(["build-index", "--config", ghost_config]) == 0
        assert self.WARNING + "\n" in capsys.readouterr().err

    def test_error_level_silences_it(self, ghost_config, unconfigured, capsys):
        assert main(["build-index", "--config", ghost_config, "--log-level", "error"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["built"] == "index"
        assert logging.getLogger("kglinker").level == logging.NOTSET

    def test_configured_logging_alone_gets_it(self, ghost_config, caplog, capsys):
        assert main(["build-index", "--config", ghost_config]) == 0
        assert capsys.readouterr().err == ""
        assert self.WARNING in caplog.messages


def _with_key(key, value):
    """An edit of a JSON artifact that sets one top-level key."""
    return lambda raw: json.dumps({**json.loads(raw), key: value}).encode()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, cli_setup, capsys):
        assert main(["link", "--config", cli_setup["config"], "--bogus"]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, cli_setup, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text(
            json.dumps(
                {
                    "triples": str(tmp_path / "missing.tsv"),
                    "labels": str(tmp_path / "missing.tsv"),
                    "artifacts": str(tmp_path / "artifacts"),
                }
            )
        )
        assert main(["build-index", "--config", str(config)]) == 2

    def test_dataset_without_gold_is_data_error(self, cli_setup, tmp_path, capsys):
        dataset = tmp_path / "nogold.json"
        dataset.write_text(json.dumps([{"id": "1", "text": "founder of Tesla"}]))
        code = main(
            [
                "eval",
                "--config",
                cli_setup["config"],
                "--dataset",
                str(dataset),
            ]
        )
        assert code == 2

    def test_bad_strategy_in_config(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"strategy": "magic"}))
        assert main(["eval", "--config", str(config), "--dataset", "x.json"]) == 2

    @pytest.mark.parametrize(
        "dataset, config, message",
        [
            ('[{"id": "1", "text": ', None, "is not valid JSON"),
            ("[]", '{"k": 10,', "is not valid JSON"),
            ('[{"id": "1", "text": "founder of Tesla"}, {"id": "2"}]', None,
             "item 1: missing field 'text'"),
            ('[{"id": "1", "text": "founder of Tesla", '
             '"spans": [{"phrase": "Tesla", "kind": "Q", "uri": "dbr:Tesla"}]}]', None,
             "item 0: expected 'E' or 'R', got 'Q'"),
            ('[{"id": "1", "text": "founder of Tesla", '
             '"spans": [{"phrase": "___", "kind": "R", "uri": "dbo:founder"}]}]', None,
             "item 0: span phrase '___' normalises to nothing"),
            ("[]", '{"k": "30"}', "config.json is malformed: config key 'k' must be int, got '30'"),
            ("[]", '{"hop_cap": 255}', "config.json is malformed: hop_cap must be in [2, 254]"),
            (b'\xff\xfe[{"id": 1}]', None, "dataset.json is malformed"),
            ("[]", b'\xff\xfe{"k": 3}', "config.json is malformed"),
        ],
        ids=[
            "dataset_json",
            "config_json",
            "item_without_text",
            "span_kind_q",
            "span_phrase_empty",
            "config_k_string",
            "config_hop_cap_255",
            "dataset_not_utf8",
            "config_not_utf8",
        ],
    )
    def test_malformed_input_is_data_error(
        self, cli_setup, tmp_path, capsys, dataset, config, message
    ):
        def write(path, content):
            path.write_bytes(content if isinstance(content, bytes) else content.encode())

        dataset_path = tmp_path / "dataset.json"
        write(dataset_path, dataset)
        config_path = cli_setup["config"]
        if config is not None:
            config_path = tmp_path / "config.json"
            write(config_path, config)
        assert main(["eval", "--config", str(config_path), "--dataset", str(dataset_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", lambda _: b"{"),
            ("er_model.json", lambda _: b"{"),
            ("rerank_model.json", lambda _: b"{"),
            ("index.bin", lambda _: b'KGLINKER-INDEX v2\n{"entr'),
            ("er_model.json", _with_key("weights", [1.0])),
            ("rerank_model.json", _with_key("weights", [1.0])),
            ("rerank_model.json", _with_key("scaling", {"means": [0.0], "stds": [1.0]})),
            ("rerank_model.json", _with_key("scaling", {"means": [0, 0, 0], "stds": [0, 0, 0]})),
        ],
        ids=[
            "manifest",
            "er_model",
            "rerank_model",
            "index",
            "er_model_short_weights",
            "rerank_model_short_weights",
            "rerank_model_short_scaling",
            "rerank_model_zero_std",
        ],
    )
    def test_truncated_artifact_is_data_error(self, cli_setup, tmp_path, capsys, name, edit):
        import shutil

        config = json.loads((cli_setup["tmp"] / "config.json").read_text())
        artifacts = tmp_path / "artifacts"
        shutil.copytree(config["artifacts"], artifacts)
        (artifacts / name).write_bytes(edit((artifacts / name).read_bytes()))
        config["artifacts"] = str(artifacts)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main(["link", "--config", str(config_path), "--question", "Who founded SpaceX?"])
        assert code == 2
        assert name in capsys.readouterr().err
