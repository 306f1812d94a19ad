"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; a summary block is printed
at the end of the session.
"""

import contextlib
import copy
import io
import json
import random
import time

import numpy as np
import pytest

from kglinker.adaptive import DEFAULT_THRESHOLD
from kglinker.cli import main as cli_main
from kglinker.config import PipelineConfig
from kglinker.density import compute_features
from kglinker.gtsp import (
    GtspInstance,
    GtspNode,
    noon_bean,
    solve_approx,
    solve_exact,
)
from kglinker.index import Candidate, CandidateList
from kglinker.kg import DISCONNECTED, HopOracle, Kind, build_subdivision, load_graph
from kglinker.pipeline import (
    Pipeline,
    build_index_artifact,
    train_er_artifact,
    train_reranker_artifact,
)
from kglinker.spotter import Question, load_questions
from kglinker.synthetic import generate_world, mini_world

from oracles import all_pairs_bfs, enumerate_gtsp, held_karp_atsp, naive_density

RESULTS: list[str] = []

E = Kind.ENTITY
R = Kind.RELATION


def record(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d} [{status}] {name}: {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, line


def random_lines(rng, n_vertices, n_predicates, n_triples):
    vertices = [f"v{i}" for i in range(n_vertices)]
    predicates = [f"p{i}" for i in range(n_predicates)]
    return [
        f"{rng.choice(vertices)}\t{rng.choice(predicates)}\t{rng.choice(vertices)}"
        for _ in range(n_triples)
    ]


def random_instance(rng, max_clusters, max_size, max_total=None):
    p = rng.randint(2, max_clusters)
    while True:
        sizes = [rng.randint(1, max_size) for _ in range(p)]
        if max_total is None or sum(sizes) <= max_total:
            break
    nodes, clusters = [], []
    for c, size in enumerate(sizes):
        members = []
        for i in range(size):
            members.append(len(nodes))
            nodes.append(GtspNode(uri=f"u{c}_{i}", kind=E, rank=i + 1, cluster=c))
        clusters.append(members)
    n = len(nodes)
    cost = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = float(rng.randint(0, 12))
            cost[i, j] = cost[j, i] = value
    return GtspInstance(
        keywords=[f"k{c}" for c in range(p)],
        nodes=nodes,
        clusters=clusters,
        cost=cost,
        disconnect_penalty=13.0,
    )


def test_criterion_1_hop_oracle_equivalence():
    rng = random.Random(101)
    started = time.perf_counter()
    checked = 0
    mismatches = 0
    for _ in range(50):
        lines = random_lines(
            rng, rng.randint(6, 28), rng.randint(2, 10), rng.randint(8, 60)
        )
        graph = build_subdivision(load_graph(io.StringIO("\n".join(lines) + "\n")))
        assert len(graph) <= 50
        cap = rng.randint(2, 6)
        oracle = HopOracle(graph, cap=cap)
        table = all_pairs_bfs(graph.adjacency)
        for a in range(len(graph)):
            for b in range(len(graph)):
                expected = table[a][b]
                if expected == -1 or expected > cap:
                    expected = DISCONNECTED
                checked += 1
                if oracle.distance_by_id(a, b) != expected:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    record(
        1,
        "hop-oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{checked} pairs on 50 graphs, {mismatches} mismatches, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def small_instances():
    rng = random.Random(202)
    return [random_instance(rng, max_clusters=4, max_size=5, max_total=12) for _ in range(200)]


def test_criterion_2_exact_optimality(small_instances):
    failures = 0
    for inst in small_instances:
        result = solve_exact(inst)
        expected = enumerate_gtsp(inst.cost, inst.clusters)
        if abs(result.total_cost - expected) > 1e-9:
            failures += 1
    record(
        2,
        "exact solver equals full enumeration",
        failures == 0,
        f"200 instances, {failures} mismatches",
    )


def test_criterion_3_noon_bean_round_trip(small_instances):
    failures = 0
    for inst in small_instances:
        matrix, mapping = noon_bean(inst)
        tour_optimum = held_karp_atsp(matrix)
        cycle_optimum = enumerate_gtsp(inst.cost, inst.clusters, cycle=True)
        recovered = tour_optimum - mapping.cluster_count * mapping.offset
        if abs(recovered - cycle_optimum) > 1e-6:
            failures += 1
    record(
        3,
        "reduction round-trip recovers the cycle optimum",
        failures == 0,
        f"200 instances, {failures} mismatches",
    )


def test_criterion_4_approximate_quality():
    rng = random.Random(404)
    within_10 = 0
    exact_hits = 0
    total = 200
    for _ in range(total):
        inst = random_instance(rng, max_clusters=5, max_size=10)
        exact = solve_exact(inst, budget=100_000_000)
        approx = solve_approx(inst, seed=1)
        assert approx.total_cost >= exact.total_cost - 1e-9
        if exact.total_cost == 0:
            gap = 0.0 if approx.total_cost == 0 else float("inf")
        else:
            gap = (approx.total_cost - exact.total_cost) / exact.total_cost
        if gap <= 0.10 + 1e-12:
            within_10 += 1
        if abs(approx.total_cost - exact.total_cost) <= 1e-9:
            exact_hits += 1
    record(
        4,
        "approximate solver quality",
        within_10 / total >= 0.90 and exact_hits / total >= 0.60,
        f"within 10%: {within_10 / total:.2%}, exactly optimal: {exact_hits / total:.2%}",
    )


def test_criterion_5_density_oracle_equivalence():
    rng = random.Random(505)
    mismatches = 0
    for _ in range(100):
        lines = random_lines(rng, rng.randint(8, 16), rng.randint(3, 6), rng.randint(10, 40))
        graph = build_subdivision(load_graph(io.StringIO("\n".join(lines) + "\n")))
        oracle = HopOracle(graph, cap=4)
        vertices = sorted({l.split("\t")[0] for l in lines} | {l.split("\t")[2] for l in lines})
        predicates = sorted({l.split("\t")[1] for l in lines})
        lists = []
        for k in range(rng.randint(2, 5)):
            members = []
            for r in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    members.append(Candidate(rng.choice(vertices), "x", 1.0 / (r + 1), r + 1, E))
                else:
                    members.append(Candidate(rng.choice(predicates), "x", 1.0 / (r + 1), r + 1, R))
            lists.append(CandidateList(f"k{k}", members[0].kind, members))
        feats = compute_features(lists, oracle)
        table = all_pairs_bfs(graph.adjacency)
        node_lists = [
            [graph.try_node_id(c.uri, c.kind) for c in lst.candidates] for lst in lists
        ]
        c_exp, h_exp = naive_density(node_lists, table, oracle.cap)
        for li in range(len(lists)):
            for ci in range(len(lists[li].candidates)):
                if (
                    feats[li][ci].connection_count != c_exp[li][ci]
                    or feats[li][ci].hop_count != h_exp[li][ci]
                ):
                    mismatches += 1
    record(
        5,
        "connectivity features equal the naive recount bit-for-bit",
        mismatches == 0,
        f"100 inputs, {mismatches} mismatches",
    )


@pytest.fixture(scope="module")
def benchmark_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance-benchmark")
    world = generate_world(communities=20, questions=1000, seed=61)
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
    train_reranker_artifact(config, questions=questions[:500], folds=5)
    return {"config": config, "questions": questions, "paths": paths}


def test_criterion_6_feature_ablation_ordering(benchmark_world):
    config = copy.deepcopy(benchmark_world["config"])
    pipe = Pipeline.from_config(config)
    questions = benchmark_world["questions"]
    report = pipe.run_ablation(questions[:500], questions[500:1000])
    rank_mrr = report["initial_rank"]
    graph_mrr = report["connectivity"]
    combined_mrr = report["all"]
    passed = rank_mrr + 0.02 <= graph_mrr and graph_mrr + 0.02 <= combined_mrr
    record(
        6,
        "ablation ordering rank < graph < combined",
        passed,
        f"rank={rank_mrr:.3f} graph={graph_mrr:.3f} combined={combined_mrr:.3f} (500 questions)",
    )


@pytest.fixture(scope="module")
def adaptive_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance-adaptive")
    world = generate_world(
        communities=14, questions=320, seed=73, broken_rate=0.0, opaque_rate=0.0
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
    train_reranker_artifact(config, questions=questions[:140], folds=5)
    return {"config": config, "questions": questions[140:]}


def overall_accuracy(metrics):
    counts = metrics["keywords"]
    total = counts["entities"] + counts["relations"]
    return (
        metrics["entity_accuracy"] * counts["entities"]
        + metrics["relation_accuracy"] * counts["relations"]
    ) / total


def test_criterion_7_adaptive_improvement(adaptive_world):
    questions = adaptive_world["questions"]

    def run(flip_fraction, threshold):
        config = copy.deepcopy(adaptive_world["config"])
        config.er_flip_fraction = flip_fraction
        config.adaptive_threshold = threshold
        return overall_accuracy(Pipeline.from_config(config).evaluate(questions))

    flipped_without = run(0.2, 0.0)
    flipped_with = run(0.2, DEFAULT_THRESHOLD)
    clean_without = run(0.0, 0.0)
    clean_with = run(0.0, DEFAULT_THRESHOLD)
    passed = (
        flipped_with >= flipped_without + 0.05 and clean_with >= clean_without
    )
    record(
        7,
        "adaptation recovers deliberately flipped predictions",
        passed,
        f"flipped: {flipped_without:.3f} -> {flipped_with:.3f}; "
        f"clean: {clean_without:.3f} -> {clean_with:.3f}",
    )


@pytest.fixture(scope="module")
def mini_setup_acceptance(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance-mini")
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
    return {"config": config}


def test_criterion_8_worked_example(mini_setup_acceptance):
    expected = {
        "founder": "dbo:foundedBy",
        "Tesla": "dbr:Tesla_Motors",
        "SpaceX": "dbr:SpaceX",
        "born": "dbo:birthPlace",
    }
    outcome = {}
    for strategy in ("exact", "approx", "density"):
        config = copy.deepcopy(mini_setup_acceptance["config"])
        config.strategy = strategy
        pipe = Pipeline.from_config(config)
        result = pipe.link(
            Question(id="w", text="Where was the founder of Tesla and SpaceX born?")
        )
        outcome[strategy] = {b.keyword: b.top_uri() for b in result.blocks}
    passed = all(outcome[s] == expected for s in outcome)
    record(
        8,
        "worked example links under all three strategies",
        passed,
        "; ".join(f"{s}: {'ok' if outcome[s] == expected else outcome[s]}" for s in outcome),
    )


@pytest.fixture(scope="module")
def large_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance-large")
    world = generate_world(
        communities=36,
        entity_families=12,
        relation_families=6,
        presence=0.9,
        opaque_rate=0.0,
        broken_rate=0.0,
        patterns_per_community=14,
        background_per_relation=24,
        attributes_per_member=13,
        questions=60,
        seed=91,
    )
    paths = world.write(tmp / "data")
    config = PipelineConfig(
        strategy="density",
        k=30,
        gold_spans=True,
        triples=paths["triples"],
        labels=paths["labels"],
        expansions=paths["expansions"],
        artifacts=str(tmp / "artifacts"),
    )
    build_index_artifact(config)
    train_er_artifact(config)
    questions = load_questions(paths["dataset"])
    train_reranker_artifact(config, questions=questions[:40], folds=5)
    return {"config": config, "world": world, "questions": questions}


def test_criterion_9_complexity_and_latency(large_world):
    world = large_world["world"]
    config = copy.deepcopy(large_world["config"])
    pipe = Pipeline.from_config(config)
    assert len(world.triples) >= 10_000, f"world has only {len(world.triples)} triples"

    # exact cross-list pair counts
    entity_uris = sorted({u for u, _l, k, _w in world.labels if k == "E"})
    count_failures = []
    for n in (2, 3, 4, 5):
        for m in (5, 10, 30):
            rng = random.Random(n * 100 + m)
            pool = rng.sample(entity_uris, n * m)
            lists = []
            for a in range(n):
                members = [
                    Candidate(pool[a * m + i], "x", 1.0 / (i + 1), i + 1, E)
                    for i in range(m)
                ]
                lists.append(CandidateList(f"k{a}", E, members))
            before = pipe.oracle.pairs
            compute_features(lists, pipe.oracle)
            pairs = pipe.oracle.pairs - before
            expected = n * (n - 1) // 2 * m * m
            if pairs != expected:
                count_failures.append((n, m, pairs, expected))

    # end-to-end latency of a 4-keyword, k=30 question
    chain = next(q for q in large_world["questions"] if len(q.gold_spans) == 5)
    spans = chain.gold_spans[:4]
    text = (
        f"What was the {spans[0].phrase} of the {spans[1].phrase} "
        f"and the {spans[2].phrase} with the {spans[3].phrase}?"
    )
    question = Question(id="latency", text=text, gold_spans=list(spans))
    result = pipe.link(question)
    assert len(result.blocks) == 4
    latency_ms = result.timings_ms["total"]

    passed = not count_failures and latency_ms < 1000.0
    record(
        9,
        "pair-evaluation count and end-to-end latency",
        passed,
        f"counts ok for n in 2..5, m in (5,10,30): {not count_failures}; "
        f"{len(world.triples)} triples, 4-keyword k=30 link in {latency_ms:.0f} ms",
    )


def test_criterion_10_eval_determinism(benchmark_world, tmp_path):
    config = copy.deepcopy(benchmark_world["config"])
    config_path = tmp_path / "config.json"
    config.save(config_path)
    dataset = benchmark_world["paths"]["dataset"]
    argv = ["eval", "--config", str(config_path), "--dataset", dataset]

    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(argv)
        assert code == 0
        return buffer.getvalue()

    first = run()
    second = run()
    payload = json.loads(first.strip().splitlines()[-1])
    record(
        10,
        "eval runs are byte-identical",
        first == second,
        f"{payload['questions']} questions, output {len(first)} bytes, identical: {first == second}",
    )
