"""Command line entry points: build artifacts, link questions, run evaluations.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (bad files,
missing gold labels, mismatched artifacts). ``link`` reports a question's
data error on that question's output line, links the rest, then exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from typing import Iterator

from .config import PipelineConfig
from .errors import KglinkerError, ParseError
from .pipeline import (
    LATENCY_KEYS,
    Pipeline,
    build_index_artifact,
    train_er_artifact,
    train_reranker_artifact,
)
from .reranker import read_feature_rows, write_feature_rows
from .spotter import Question, load_questions
from .synthetic import generate_world, mini_world


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--triples", help="triples TSV path")
    parser.add_argument("--labels", help="labels TSV path")
    parser.add_argument("--expansions", help="expansions TSV path")
    parser.add_argument("--stopwords", help="stopword file path")
    parser.add_argument("--artifacts", help="artifact directory")
    parser.add_argument("--strategy", choices=("exact", "approx", "density"))
    parser.add_argument("--k", type=int, help="candidates per keyword")
    parser.add_argument("--rank-weight", type=float, dest="rank_weight")
    parser.add_argument("--hop-cap", type=int, dest="hop_cap")
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--gold-spans", action=argparse.BooleanOptionalAction, dest="gold_spans", default=None
    )
    parser.add_argument(
        "--gold-injection",
        action=argparse.BooleanOptionalAction,
        dest="gold_injection",
        default=None,
    )
    parser.add_argument("--adaptive-threshold", type=float, dest="adaptive_threshold")
    parser.add_argument("--er-flip-fraction", type=float, dest="er_flip_fraction")


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    config.validate()
    return config


def _cmd_build_index(args) -> int:
    config = _build_config(args)
    index = build_index_artifact(config)
    print(
        json.dumps(
            {
                "built": "index",
                "entries": index.entry_count(),
                "artifacts": config.artifacts,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_train_er(args) -> int:
    config = _build_config(args)
    train_er_artifact(config)
    print(json.dumps({"built": "er_model", "artifacts": config.artifacts}, sort_keys=True))
    return 0


def _cmd_train_reranker(args) -> int:
    config = _build_config(args)
    if args.features:
        rows = read_feature_rows(args.features)
        _model, cv = train_reranker_artifact(config, rows=rows, folds=args.folds)
    else:
        if not args.dataset:
            raise KglinkerError("train-reranker needs --dataset or --features")
        questions = load_questions(args.dataset)
        _model, cv = train_reranker_artifact(config, questions=questions, folds=args.folds)
    print(
        json.dumps(
            {"built": "rerank_model", "cv_mrr": cv, "artifacts": config.artifacts},
            sort_keys=True,
        )
    )
    return 0


def _cmd_link(args) -> int:
    """Print one JSON line per question as soon as it is linked."""
    config = _build_config(args)
    pipeline = Pipeline.from_config(config)
    if args.question is not None:
        questions = [("q0", Question(id="q0", text=args.question))]
    elif args.dataset:
        questions = [(q.id, q) for q in load_questions(args.dataset)]
    else:
        questions = _stdin_questions()
    failed = False
    for question_id, question in questions:
        try:
            if isinstance(question, KglinkerError):
                raise question
            line = pipeline.link(question).to_json(include_timings=args.timings)
        except KglinkerError as exc:
            failed = True
            line = json.dumps({"error": str(exc), "question_id": question_id}, sort_keys=True)
        print(line, flush=True)
    return 2 if failed else 0


def _stdin_questions() -> Iterator[tuple[str, Question | ParseError]]:
    """(id, question) per non-blank stdin line, read lazily and decoded here as
    UTF-8 whatever the locale: a line that is not UTF-8 gets a ParseError."""
    for i, raw in enumerate(getattr(sys.stdin, "buffer", sys.stdin)):
        try:
            text = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
        except UnicodeDecodeError as exc:
            yield f"stdin-{i}", ParseError(str(exc), i + 1, "stdin")
        else:
            if text:
                yield f"stdin-{i}", Question(id=f"stdin-{i}", text=text)


def _cmd_eval(args) -> int:
    config = _build_config(args)
    pipeline = Pipeline.from_config(config)
    questions = load_questions(args.dataset)
    if args.dump_features:
        rows = pipeline.collect_training_rows(questions)
        write_feature_rows(args.dump_features, rows)
    if args.ablation:
        half = len(questions) // 2
        report = pipeline.run_ablation(questions[:half], questions[half:])
        print(json.dumps({"ablation_mrr": report}, sort_keys=True))
        return 0
    metrics = pipeline.evaluate(questions)
    latency = {key: metrics.pop(key) for key in LATENCY_KEYS}
    if args.timings:
        metrics.update(latency)
    else:
        print(f"mean latency: {latency['mean_latency_ms']:.2f} ms/question", file=sys.stderr)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _cmd_gen_synthetic(args) -> int:
    if args.preset == "mini":
        world = mini_world()
    else:
        communities = args.communities or max(4, round(args.entities / 6))
        world = generate_world(
            communities=communities,
            questions=args.questions,
            seed=args.seed,
        )
    paths = world.write(args.out)
    print(
        json.dumps(
            {
                "out": args.out,
                "files": paths,
                "triples": len(world.triples),
                "questions": len(world.questions),
            },
            sort_keys=True,
        )
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="kglinker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-index", help="build and persist the label index")
    _add_common(p)
    p.set_defaults(func=_cmd_build_index)

    p = sub.add_parser("train-er", help="train the entity/relation classifier")
    _add_common(p)
    p.set_defaults(func=_cmd_train_er)

    p = sub.add_parser("train-reranker", help="train the re-ranking model")
    _add_common(p)
    p.add_argument("--dataset", help="annotated question dataset (JSON)")
    p.add_argument("--features", help="precomputed feature dump (TSV)")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=_cmd_train_reranker)

    p = sub.add_parser("link", help="link one question or a stdin stream")
    _add_common(p)
    p.add_argument("--question", help="question text; omit to read stdin lines")
    p.add_argument("--dataset", help="link every question of a dataset file")
    p.add_argument("--timings", action="store_true", help="include timings in the output")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("eval", help="evaluate linking accuracy on a dataset")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--dump-features", dest="dump_features", help="write feature rows to this TSV")
    p.add_argument("--ablation", action="store_true", help="report MRR per feature subset")
    p.add_argument("--timings", action="store_true", help="include latency in the metrics JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic world")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=("mini", "world"), default="world")
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--communities", type=int)
    p.add_argument("--questions", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_gen_synthetic)

    for p in sub.choices.values():
        p.add_argument(
            "--log-level",
            choices=("warning", "error"),
            default="warning",
            help="error hides build-index's warning about a label uri not in the graph "
            "(default: warning)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Only the level is set: records reach the handlers the calling
        # program configured, or else stderr through logging's last resort.
        logger = logging.getLogger("kglinker")
        previous = logger.level
        logger.setLevel(args.log_level.upper())
        try:
            return args.func(args)
        finally:
            logger.setLevel(previous)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (KglinkerError, OSError) as exc:
        print(f"kglinker: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
