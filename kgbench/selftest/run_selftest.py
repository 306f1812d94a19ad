"""Self-test of the kglinker benchmark.

    python3 kgbench/selftest/run_selftest.py

Runs every workload, untraced and traced, on a tiny world and requires
correct outputs with no failed operation and exactly the metrics that
``BENCHMARK.json`` names. Then it shows that each output check rejects a
deliberately corrupted result: a swapped top candidate, a route cost off
by one, a perturbed feature, and a trace that contradicts a workload's
layers. Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench._import_kglinker()

import checks  # noqa: E402
import spans  # noqa: E402
import worlds  # noqa: E402

TINY = {"entities": 60, "questions": 30}
SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def tiny_pipeline(name: str):
    """Inputs, config and a loaded pipeline for a workload's tiny world."""
    from kglinker.config import PipelineConfig
    from kglinker.pipeline import Pipeline

    workload = worlds.WORKLOADS[name]
    work = bench.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = worlds.make_inputs(workload, SEED, work, **TINY)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(worlds.pipeline_config(workload, inputs.paths, work / "artifacts")))
    bench.build_artifacts(str(config_path), inputs.paths["dataset"])
    config = PipelineConfig.from_file(config_path)
    return inputs, config, Pipeline.from_config(config), work


def test_workloads_run_clean() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in worlds.WORKLOADS:
        for trace in (False, True):
            result = bench.run(name, SEED, 0.0, trace, **TINY)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
            wanted = per_layer if trace else end_to_end
            expect(set(result["metrics"]) == wanted,
                   f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(result['metrics']) ^ wanted)}")


def test_route_checks_reject() -> None:
    inputs, config, pipeline, work = tiny_pipeline("route")
    graph = checks.PlainGraph(inputs.paths["triples"], cap=config.hop_cap)
    try:
        for question in inputs.timed:
            result = json.loads(pipeline.link(question).to_json(include_timings=False))
            if any("approximate" in note for note in result["diagnostics"].get("notes", [])):
                continue
            lists = bench.route_lists(pipeline, result)
            failures, _optimum = checks.check_route(graph, result, lists, config.rank_weight)
            expect(not failures, f"{question.id}: an untouched route fails: {failures}")
            blocks = result["keywords"]
            pair = next(
                ((a, b) for a in range(len(blocks)) for b in range(a + 1, len(blocks))
                 if blocks[a]["candidates"] and blocks[b]["candidates"]
                 and blocks[b]["candidates"][0]["uri"] not in {u for u, _k, _r in lists[a]}),
                None,
            )
            if pair is None:
                continue
            swapped = copy.deepcopy(result)
            a, b = pair
            top_a, top_b = swapped["keywords"][a]["candidates"], swapped["keywords"][b]["candidates"]
            top_a[0], top_b[0] = top_b[0], top_a[0]
            expect(checks.check_route(graph, swapped, lists, config.rank_weight)[0],
                   "a swapped top candidate passes the route check")
            off = copy.deepcopy(result)
            off["diagnostics"]["route_cost"] += 1
            expect(checks.check_route(graph, off, lists, config.rank_weight)[0],
                   "a route cost off by one passes the route check")
            return
        raise AssertionError("no tiny-world question could be corrupted")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_density_checks_reject() -> None:
    inputs, config, pipeline, work = tiny_pipeline("density")
    graph = checks.PlainGraph(inputs.paths["triples"], cap=config.hop_cap)
    try:
        for question in inputs.timed:
            output, recorded = bench.link_recording(pipeline, question)
            result = json.loads(output)
            expect(not checks.check_probabilities(result), f"{question.id}: untouched probabilities fail")
            for lists, features in recorded:
                expect(not checks.check_features(graph, lists, features), f"{question.id}: untouched features fail")
            block = next((b for b in result["keywords"] if len(b["candidates"]) > 1
                          and b["candidates"][0]["probability"] is not None
                          and b["candidates"][0]["probability"] > b["candidates"][1]["probability"]), None)
            if block is None or not recorded:
                continue
            swapped = copy.deepcopy(result)
            candidates = swapped["keywords"][result["keywords"].index(block)]["candidates"]
            candidates[0], candidates[1] = candidates[1], candidates[0]
            expect(checks.check_probabilities(swapped), "a swapped top candidate passes the probability check")
            lists, features = copy.deepcopy(recorded[0])
            rank, connect, hops = features[0][0]
            features[0][0] = (rank, connect, hops + 1.0 / len(lists))
            expect(checks.check_features(graph, lists, features), "a perturbed feature passes the recount")
            return
        raise AssertionError("no tiny-world question could be corrupted")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_layer_expectations_reject() -> None:
    def span(name, phase):
        return {"id": 0, "name": name, "parent": None, "phase": phase, "distance_calls": 0,
                "question": "q1" if phase == "link" else None}

    setup_and_build = [span(n, "setup") for n in spans.SETUP_SPANS] + [span(n, "build") for n in spans.BUILD_SPANS]
    density_link = [span(n, "link") for n in ("pipeline.link", "spotter.extract_keywords", "index.search",
                                               "density.compute_features", "reranker.rerank", "adaptive.adapt")]
    density_link[3]["distance_calls"] = 5
    expect(not spans.layer_violations("density", setup_and_build + density_link), "a clean density trace fails")
    expect(spans.layer_violations("density", setup_and_build + density_link + [span("gtsp.solve_exact", "link")]),
           "a gtsp span on density passes")
    expect(spans.layer_violations("density", setup_and_build + density_link[:3]),
           "a density trace without density spans passes")
    expect(spans.layer_violations("route", setup_and_build + density_link),
           "density spans on route pass")


def main() -> int:
    tests = [test_layer_expectations_reject, test_route_checks_reject, test_density_checks_reject,
             test_workloads_run_clean]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
