"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 kgbench/batch.py --label A --workloads route density hub --seeds 1-10 --seconds 15

Runs ``kgbench/run.py`` once per (workload, seed), one run at a time, and
appends every result line to ``.kgbench_work/batches/<label>.jsonl``. It
then prints, per workload and metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. ``--summarise``
only re-reads a file written before; ``--compare B`` sets batch B beside
this one, with the change of each median and the bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATCHES = ROOT / ".kgbench_work" / "batches"


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_batch(label: str, workloads: list[str], seeds: list[int], seconds: float, trace: int) -> Path:
    BATCHES.mkdir(parents=True, exist_ok=True)
    path = BATCHES / f"{label}.jsonl"
    with open(path, "a", encoding="utf-8") as out:
        for workload in workloads:
            for seed in seeds:
                command = [sys.executable, "kgbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)]
                t0 = time.time()
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if done.returncode != 0:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                record = {"workload": workload, "seed": seed, "trace": trace, "started": t0,
                          "wall_s": time.time() - t0, **result}
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: {record['wall_s']:.1f} s, correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return path


def summary(path: Path) -> dict:
    """{workload: {metric: (median, q1, q3, spread, unit)}} over the file's untraced runs."""
    by: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            by.setdefault(record["workload"], {}).setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    table = {}
    for workload, metrics in by.items():
        table[workload] = {}
        for name, values in metrics.items():
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            table[workload][name] = (median, q1, q3, (q3 - q1) / median if median else 0.0, units[name], len(values))
    return table


def print_summary(path: Path) -> None:
    print("| workload | metric | unit | runs | median | q1 | q3 | spread |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload, metrics in summary(path).items():
        for name, (median, q1, q3, spread, unit, runs) in metrics.items():
            print(f"| {workload} | {name} | {unit} | {runs} | {median:.4g} | {q1:.4g} | {q3:.4g} | {spread:.1%} |")


def print_compare(first: Path, second: Path, bounds: dict) -> None:
    a, b = summary(first), summary(second)
    print("| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B vs A | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in a:
        for name, (median_a, q1a, q3a, spread_a, _unit, _n) in a[workload].items():
            median_b, q1b, q3b, spread_b, _unit_b, _nb = b[workload][name]
            change = (median_b - median_a) / median_a if median_a else 0.0
            print(f"| {workload} | {name} | {median_a:.4g} [{q1a:.4g}, {q3a:.4g}] | {spread_a:.1%} | "
                  f"{median_b:.4g} [{q1b:.4g}, {q3b:.4g}] | {spread_b:.1%} | {change:+.1%} | "
                  f"{bounds.get(name, '')} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", nargs="+", default=["route", "density", "hub"])
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summarise", action="store_true", help="only summarise an existing file")
    parser.add_argument("--compare", help="label of a second batch to set beside this one")
    args = parser.parse_args()
    path = BATCHES / f"{args.label}.jsonl"
    if args.compare:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print_compare(path, BATCHES / f"{args.compare}.jsonl", bounds)
        return 0
    if not args.summarise:
        run_batch(args.label, args.workloads, seeds_of(args.seeds), args.seconds, args.trace)
    print_summary(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
