"""Seeded workload inputs: the synthetic world, the hub predicate, the question sets.

Every workload starts from the graph of
``kglinker gen-synthetic --entities 600 --questions 300 --seed 7``: the
world seed is fixed, so that a run's figures move with the code and the
machine rather than with the community structure of a different graph.
On ``hub`` the benchmark adds one predicate to that graph, also seeded by
the world seed. The run's ``--seed`` draws the questions from a pool the
generator makes for the world, and their order. Each draw has the same
make-up: a fixed number of 3- and 5-keyword questions. Questions that are
not drawn serve as the warm-up. kglinker only ever sees the files that
result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORLD_SEED = 7
ENTITIES = 600
QUESTIONS = 300
POOL_QUESTIONS = 1500  # the generator yields ~1/3 five-keyword questions
WARMUP_QUESTIONS = 12

HUB_PREDICATE = "syn:hubType"
HUB_CLASSES = 5
HUB_FRACTION = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    three_keyword: int  # timed questions with 3 gold spans
    five_keyword: int  # timed questions with 5 gold spans
    er_flip_fraction: float
    hub: bool


WORKLOADS = {
    # Route solvers: 5-keyword questions exceed the exact budget and fall back.
    "route": Workload("route", "exact", 140, 70, 0.0, False),
    # Re-ranking with injected E/R mistakes, so adaptive retry has work.
    "density": Workload("density", "density", 200, 100, 0.2, False),
    # As density, on a graph where one predicate touches most entities.
    "hub": Workload("hub", "density", 200, 100, 0.2, True),
}

# Pipeline settings shared by every workload (chunker spotting, k = 30).
K = 30
CONFIG_SEED = 0


def communities_for(entities: int) -> int:
    """The community count ``gen-synthetic --entities`` derives."""
    return max(4, round(entities / 6))


def add_hub(triples: list, seed: int, fraction: float = HUB_FRACTION, classes: int = HUB_CLASSES) -> int:
    """Link a seeded ``fraction`` of the labelled entities to a few class nodes.

    All uses of one predicate share one node in the subdivision view, so
    every hub entity ends up two hops from every other. Returns the number
    of entities linked.
    """
    entities = sorted(
        {s for s, _p, _o in triples if s.startswith("syn:e")}
        | {o for _s, _p, o in triples if o.startswith("syn:e")}
    )
    rng = random.Random(f"hub:{seed}")
    linked = 0
    for entity in entities:
        if rng.random() < fraction:
            triples.append((entity, HUB_PREDICATE, f"syn:class{rng.randrange(classes)}"))
            linked += 1
    return linked


@dataclass
class Inputs:
    paths: dict  # triples, labels, expansions, dataset
    timed: list  # kglinker Question objects, in link order
    warmup: list
    hub_entities: int
    labelled_entities: int


def make_inputs(workload: Workload, seed: int, out_dir: Path, entities: int = ENTITIES,
                questions: int = QUESTIONS, world_seed: int = WORLD_SEED) -> Inputs:
    """Write the workload's files under ``out_dir`` and pick its question sets.

    ``dataset.json`` holds ``questions`` questions drawn by ``seed`` from the
    world's pool (two thirds with 3 keywords, one third with 5), in draw
    order; the re-ranker is trained on it. The timed set is its first
    ``three_keyword`` 3-keyword and first ``five_keyword`` 5-keyword
    questions, in the same order.
    """
    from kglinker.spotter import load_questions
    from kglinker.synthetic import generate_world

    scale = questions / QUESTIONS
    want = {3: round(200 * scale), 5: questions - round(200 * scale)}
    timed_want = {3: round(workload.three_keyword * scale), 5: round(workload.five_keyword * scale)}
    world = generate_world(
        communities=communities_for(entities),
        questions=round(POOL_QUESTIONS * scale),
        seed=world_seed,
    )
    pool = list(world.questions)
    rng = random.Random(f"questions:{seed}")
    rng.shuffle(pool)
    dataset, spare = [], []
    taken = {3: 0, 5: 0}
    for item in pool:
        size = len(item["spans"])
        if taken.get(size, 0) < want.get(size, 0):
            taken[size] += 1
            dataset.append(item)
        else:
            spare.append(item)
    if taken != want:
        raise RuntimeError(f"the question pool is too small: drew {taken}, want {want}")
    world.questions = dataset
    hub_entities = add_hub(world.triples, world_seed) if workload.hub else 0
    labelled = sum(1 for _uri, _label, kind, _w in world.labels if kind == "E")
    paths = world.write(out_dir)
    spare_path = Path(out_dir) / "warmup.json"
    spare_path.write_text(json.dumps(spare[:WARMUP_QUESTIONS]), encoding="utf-8")

    loaded = load_questions(paths["dataset"])
    timed, counts = [], {3: 0, 5: 0}
    for question in loaded:
        size = len(question.gold_spans)
        if counts[size] < timed_want[size]:
            counts[size] += 1
            timed.append(question)
    return Inputs(
        paths=paths,
        timed=timed,
        warmup=load_questions(str(spare_path)),
        hub_entities=hub_entities,
        labelled_entities=labelled,
    )


def pipeline_config(workload: Workload, paths: dict, artifacts: Path) -> dict:
    """The kglinker config of a workload, as the JSON a user would write."""
    return {
        "strategy": workload.strategy,
        "k": K,
        "seed": CONFIG_SEED,
        "er_flip_fraction": workload.er_flip_fraction,
        "triples": paths["triples"],
        "labels": paths["labels"],
        "expansions": paths["expansions"],
        "artifacts": str(artifacts),
    }
