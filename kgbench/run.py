"""The kglinker benchmark: one closed-loop client linking seeded synthetic worlds.

    python3 kgbench/run.py --workload route|density|hub --seed N --seconds S --trace 0|1

Run from the repository root. Each run generates its world (the graph is
fixed by ``--world-seed``; ``--seed`` draws the questions), builds the
artifacts (in a child process, so the build does not count towards the
linker's peak memory), loads the pipeline repeatedly, links the timed
questions in whole passes on fresh pipelines until ``--seconds`` have
passed, and checks the outputs against computations that share no code with
kglinker. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer metrics instead.
See ``kgbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".kgbench_work"

SETUP_LOADS = 5  # before the first timed pass and again after every pass
CHECK_SAMPLE = 24
BUILD_TIMEOUT_S = 600


def log(message: str) -> None:
    print(f"kgbench: {message}", file=sys.stderr, flush=True)


def _import_kglinker() -> None:
    """Put kglinker's sources and the benchmark's modules on the path.

    Also pins numpy's BLAS to one thread before numpy is first imported:
    the benchmark is one closed-loop client on one thread.
    """
    if not (SRC / "kglinker" / "__init__.py").is_file():
        raise SystemExit(f"kgbench: no kglinker sources under {SRC}; run from a repository checkout")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def build_artifacts(config_path: str, dataset_path: str) -> float:
    """The quickstart's artifact build; returns its wall time in seconds."""
    from kglinker import pipeline as kpipe
    from kglinker.config import PipelineConfig
    from kglinker.spotter import load_questions

    config = PipelineConfig.from_file(config_path)
    questions = load_questions(dataset_path)
    t0 = time.perf_counter()
    kpipe.build_index_artifact(config)
    kpipe.train_er_artifact(config)
    kpipe.train_reranker_artifact(config, questions=questions)
    return time.perf_counter() - t0


def build_in_child(config_path: Path, dataset_path: str) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--build-child", str(config_path), dataset_path],
        capture_output=True,
        text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"artifact build failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["build_s"]


def load_samples(config, count: int) -> list[float]:
    """Fresh ``Pipeline.from_config`` loads; the previous pipeline is freed untimed."""
    from kglinker.pipeline import Pipeline

    samples = []
    for _ in range(count):
        pipeline = None  # free the previous load here, outside the timed region
        gc.collect()
        t0 = time.perf_counter()
        pipeline = Pipeline.from_config(config)
        samples.append(time.perf_counter() - t0)
    return samples


def link_pass(config, questions) -> tuple[float, list[float], list[str], int]:
    """Link every question once on a fresh pipeline.

    Returns (wall seconds, per-call seconds, outputs without timings, failed links).
    """
    from kglinker.errors import KglinkerError
    from kglinker.pipeline import Pipeline

    gc.collect()
    pipeline = Pipeline.from_config(config)
    latencies, results, failed = [], [], 0
    start = time.perf_counter()
    for question in questions:
        t0 = time.perf_counter()
        try:
            result = pipeline.link(question)
        except KglinkerError:
            result = None
            failed += 1
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    wall = time.perf_counter() - start
    outputs = [r.to_json(include_timings=False) if r is not None else "" for r in results]
    return wall, latencies, outputs, failed


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {failures[0]}")


def link_recording(pipeline, question) -> tuple[str, list]:
    """Link one question; returns its output and every feature computation made.

    Each computation is ``(lists, features)`` in the plain form the checks
    take: ``(uri, kind, rank)`` per candidate and ``(rank, connection_count,
    hop_count)`` per feature row.
    """
    from kglinker import pipeline as kpipe
    from spans import Patches

    recorded: list = []

    def recorder(fn):
        def compute_features(lists, oracle):
            features = fn(lists, oracle)
            recorded.append((
                [[(c.uri, c.kind.value, c.initial_rank) for c in lst.candidates] for lst in lists],
                [[(f.initial_rank, f.connection_count, f.hop_count) for f in row] for row in features],
            ))
            return features
        return compute_features

    with Patches() as patches:
        patches.replace(kpipe, "compute_features", recorder)
        output = pipeline.link(question).to_json(include_timings=False)
    return output, recorded


def route_lists(pipeline, result: dict) -> list:
    """The candidates retrieved for each keyword block, as ``(uri, kind, rank)``."""
    from kglinker.kg import Kind

    return [
        [(c.uri, c.kind.value, c.initial_rank)
         for c in pipeline.retrieve(block["keyword"], Kind(block["kind"])).candidates]
        for block in result["keywords"]
    ]


def run_checks(workload, inputs, config, outputs: dict, tally: Tally, seed: int) -> dict:
    """Check the timed outputs; returns route figures for the traced run."""
    import checks
    from kglinker.pipeline import Pipeline

    graph = checks.PlainGraph(inputs.paths["triples"], cap=config.hop_cap)
    pipeline = Pipeline.from_config(config)
    sample = random.Random(seed).sample(inputs.timed, min(CHECK_SAMPLE, len(inputs.timed)))
    # Re-link a sample on a fresh pipeline in reverse order: same bytes.
    for question in reversed(sample):
        if not outputs[question.id]:
            continue  # a failed link is already counted
        again, recorded = link_recording(pipeline, question)
        tally.record(f"{question.id} re-link", [] if again == outputs[question.id] else
                     ["output differs on a fresh pipeline in reverse order"])
        if workload.strategy == "density":
            result = json.loads(outputs[question.id])
            tally.record(f"{question.id} probabilities", checks.check_probabilities(result))
            for lists, features in recorded:
                tally.record(f"{question.id} features", checks.check_features(graph, lists, features))

    route = {"suboptimal": 0, "costs": []}
    if workload.strategy != "density":
        for question in inputs.timed:
            if not outputs[question.id]:
                continue
            result = json.loads(outputs[question.id])
            failures, optimum = checks.check_route(graph, result, route_lists(pipeline, result),
                                                   config.rank_weight)
            tally.record(f"{question.id} route", failures)
            if optimum is not None and not failures:
                cost = result["diagnostics"]["route_cost"]
                route["costs"].append(cost)
                if cost > optimum + checks.TOLERANCE * max(1.0, optimum):
                    route["suboptimal"] += 1
    return route


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        entities: int | None = None, questions: int | None = None, world_seed: int | None = None) -> dict:
    import checks
    import worlds
    from kglinker.config import PipelineConfig

    begun = time.perf_counter()
    workload = worlds.WORKLOADS[workload_name]
    work = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    try:
        inputs = worlds.make_inputs(
            workload, seed, work,
            entities=entities or worlds.ENTITIES, questions=questions or worlds.QUESTIONS,
            world_seed=worlds.WORLD_SEED if world_seed is None else world_seed,
        )
        config_path = work / "config.json"
        config_path.write_text(json.dumps(worlds.pipeline_config(workload, inputs.paths, work / "artifacts")))
        config = PipelineConfig.from_file(config_path)
        tally = Tally()

        if trace:
            from spans import Tracer
            tracer = Tracer().install()
            tracer.phase = "build"
            build_s = build_artifacts(str(config_path), inputs.paths["dataset"])
            tracer.phase = "setup"
        else:
            build_s = build_in_child(config_path, inputs.paths["dataset"])
        log(f"world and build ready after {time.perf_counter() - begun:.1f} s (build {build_s:.2f} s)")
        # Set-up loads are spread over the run, so that their median does not
        # rest on the machine's speed at one moment.
        setup = load_samples(config, SETUP_LOADS)

        # Warm-up: questions outside the timed set, on a pipeline that is then dropped.
        if tracer:
            tracer.phase = "warmup"
        link_pass(config, inputs.warmup)

        passes = {"untraced": [], "traced": []}
        latencies: list[float] = []
        outputs: dict[str, str] = {}
        first_outputs = None
        start = time.perf_counter()
        while True:
            traced = trace and len(passes["traced"]) < len(passes["untraced"])
            if tracer:
                if traced:
                    tracer.install()
                    tracer.phase = "link"
                    tracer.pairs.clear()
                else:
                    tracer.restore()
            wall, lat, outs, failed = link_pass(config, inputs.timed)
            if tracer and traced:
                pairs = len(tracer.pairs)
                tracer.restore()
            tally.attempted += len(lat)
            tally.failed += failed
            passes["traced" if traced else "untraced"].append(len(lat) / wall)
            if not trace:
                setup.extend(load_samples(config, SETUP_LOADS))
            if not traced:
                latencies.extend(lat)
            if first_outputs is None:
                # Peak memory through the first pass: later passes would only
                # add allocator fragmentation, and their number depends on speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                first_outputs = outs
                outputs = {q.id: out for q, out in zip(inputs.timed, outs)}
            else:
                tally.record("pass outputs", [] if outs == first_outputs else ["outputs differ between passes"])
            if time.perf_counter() - start >= seconds and (not trace or passes["traced"]):
                break
        log(f"{len(passes['untraced'])} untraced and {len(passes['traced'])} traced passes "
            f"of {len(inputs.timed)} questions in {time.perf_counter() - start:.1f} s; questions/s "
            f"untraced {[round(r, 1) for r in passes['untraced']]}, traced {[round(r, 1) for r in passes['traced']]}")
        checked = time.perf_counter()

        results = [json.loads(outputs[q.id] or '{"keywords": []}') for q in inputs.timed]
        accuracy, mrr = checks.quality(results, inputs.timed)
        route = run_checks(workload, inputs, config, outputs, tally, seed)
        log(f"checks took {time.perf_counter() - checked:.1f} s; run took {time.perf_counter() - begun:.1f} s")

        if trace:
            from spans import layer_metrics, layer_violations

            problems = layer_violations(workload_name, tracer.spans)
            spans_dir = WORK / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_dir / f"{workload_name}-seed{seed}.jsonl")
            if problems:
                raise RuntimeError("trace contradicts the workload's layers: " + "; ".join(problems))
            metrics = layer_metrics(tracer.spans, len(passes["traced"]))
            metrics["kg.distinct_pairs"] = (pairs, "count")
            costs = route["costs"]
            metrics["gtsp.route_cost_mean"] = (sum(costs) / len(costs) if costs else 0.0, "cost")
            metrics["gtsp.suboptimal_routes"] = (route["suboptimal"], "count")
            metrics["trace.overhead_ratio"] = (
                statistics.median(passes["untraced"]) / statistics.median(passes["traced"]), "ratio")
        else:
            metrics = {
                "questions_per_s": (statistics.median(passes["untraced"]), "1/s"),
                "link_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
                "link_p95_ms": (percentile(latencies, 0.95) * 1000.0, "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "build_s": (build_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "accuracy": (accuracy, "ratio"),
                "mrr": (mrr, "ratio"),
            }
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--build-child"]:
        _import_kglinker()
        print(json.dumps({"build_s": build_artifacts(argv[1], argv[2])}))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("route", "density", "hub"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--entities", type=int, help="world size (default 600)")
    parser.add_argument("--questions", type=int, help="dataset size (default 300)")
    parser.add_argument("--world-seed", type=int, help="seed of the world's graph (default 7)")
    args = parser.parse_args(argv)
    _import_kglinker()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.entities, args.questions, args.world_seed)
    except RuntimeError as exc:
        log(str(exc))
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
