"""Print the make-up of each workload's input for a list of seeds.

    python3 kgbench/describe.py --seeds 1-10

Per workload and seed: labelled entities and relations, triples, timed
questions by keyword count (gold spans and chunker keywords), the mean
radius-2 ball over labelled nodes (the nodes whose balls the hop oracle
expands), the share of labelled entities linked to a hub class node, and
the injected E/R flip fraction. Reads no timing; takes a few seconds.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench._import_kglinker()

import checks  # noqa: E402
import worlds  # noqa: E402
from batch import seeds_of  # noqa: E402


def make_up(name: str, seed: int) -> dict:
    from kglinker.index import normalize
    from kglinker.spotter import SpotMode, extract_keywords

    workload = worlds.WORKLOADS[name]
    work = bench.WORK / f"describe-{name}-{seed}"
    try:
        inputs = worlds.make_inputs(workload, seed, work)
        graph = checks.PlainGraph(inputs.paths["triples"], cap=4)
        labels = [line.split("\t") for line in Path(inputs.paths["labels"]).read_text().splitlines()
                  if line and not line.startswith("#")]
        labelled = {(kind, uri) for uri, _label, kind, *_w in labels}
        nodes = [graph.ids[key] for key in labelled if key in graph.ids]
        vocabulary = frozenset(normalize(label) for _u, label, *_r in labels)
        chunked = Counter(len(extract_keywords(q, None, SpotMode.CHUNKER, vocabulary)) for q in inputs.timed)
        triples = sum(1 for line in Path(inputs.paths["triples"]).read_text().splitlines()
                      if line and not line.startswith("#"))
        return {
            "entities": sum(1 for kind, _u in labelled if kind == "E"),
            "relations": sum(1 for kind, _u in labelled if kind == "R"),
            "triples": triples,
            "gold": dict(sorted(Counter(len(q.gold_spans) for q in inputs.timed).items())),
            "chunked": dict(sorted(chunked.items())),
            "ball2": statistics.mean(len(graph.ball(n, 2)) for n in nodes),
            "hub_fraction": inputs.hub_entities / inputs.labelled_entities,
            "flip_fraction": workload.er_flip_fraction,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", default=list(worlds.WORKLOADS))
    args = parser.parse_args()
    print("| workload | seed | entities | relations | triples | timed questions (3 kw / 5 kw) "
          "| chunker keywords (3 / 5) | mean radius-2 ball | hub fraction | flip fraction |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for name in args.workloads:
        for seed in seeds_of(args.seeds):
            m = make_up(name, seed)
            print(f"| {name} | {seed} | {m['entities']} | {m['relations']} | {m['triples']} | "
                  f"{m['gold'].get(3, 0)} / {m['gold'].get(5, 0)} | "
                  f"{m['chunked'].get(3, 0)} / {m['chunked'].get(5, 0)} | {m['ball2']:.1f} | "
                  f"{m['hub_fraction']:.2f} | {m['flip_fraction']:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
