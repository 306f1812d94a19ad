"""Outside-in tracing: spans around kglinker's public functions.

The tracer replaces functions where kglinker looks them up (module
attributes and class attributes), records one span per call (name, start,
end, parent span, question id, phase) in memory and restores every
original on exit. ``HopOracle.distance_by_id`` runs millions of times per
pass, so its calls and time are added to the enclosing span instead of
opening spans of their own. Nothing here changes what a function returns.
"""

from __future__ import annotations

import json
import statistics
import time

_NS_PER_MS = 1e6


class Patches:
    """Replace attributes and put the originals back, innermost first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``; skip an attribute that is gone."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# (span name, owner path, attribute). Owners are looked up in kglinker at
# install time; names imported by value into kglinker.pipeline are wrapped
# there, because that is where the pipeline resolves them.
SPANNED = [
    ("pipeline.link", "pipeline.Pipeline", "link"),
    ("pipeline.from_config", "pipeline.Pipeline", "from_config"),
    ("pipeline.load_artifacts", "pipeline", "load_artifacts"),
    ("pipeline.build_index_artifact", "pipeline", "build_index_artifact"),
    ("pipeline.train_er_artifact", "pipeline", "train_er_artifact"),
    ("pipeline.train_reranker_artifact", "pipeline", "train_reranker_artifact"),
    ("pipeline.collect_training_rows", "pipeline.Pipeline", "collect_training_rows"),
    ("kg.load_graph", "pipeline", "load_graph"),
    ("kg.build_subdivision", "pipeline", "build_subdivision"),
    ("index.load", "index.LabelIndex", "load"),
    ("index.search", "index.LabelIndex", "search"),
    ("spotter.extract_keywords", "pipeline", "extract_keywords"),
    ("spotter.er_predict", "spotter.ERModel", "predict"),
    ("gtsp.build_instance", "gtsp", "build_instance"),
    ("gtsp.solve_exact", "gtsp", "solve_exact"),
    ("gtsp.solve_approx", "gtsp", "solve_approx"),
    ("density.compute_features", "pipeline", "compute_features"),
    ("reranker.rerank", "pipeline", "rerank"),
    ("reranker.train", "pipeline", "train"),
    ("adaptive.adapt", "pipeline", "adapt"),
]


def resolve(path: str):
    import importlib

    module_name, _, attr = path.partition(".")
    owner = importlib.import_module(f"kglinker.{module_name}")
    return getattr(owner, attr) if attr else owner


def _pairs_of(name: str, args, out) -> int:
    """Work counts a span carries beyond its duration."""
    if name == "gtsp.build_instance":
        n = len(out.nodes)
        return n * (n - 1) // 2
    if name == "density.compute_features":
        sizes = [len(lst.candidates) for lst in args[0]]
        return sum(sizes[a] * sizes[b] for a in range(len(sizes)) for b in range(a + 1, len(sizes)))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "setup"
        self.pairs: set[tuple[int, int]] = set()
        self._stack: list[dict] = []
        self._patches = Patches()

    # -- recording ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            question = getattr(args[1], "id", None) if name == "pipeline.link" else None
            span = {
                "id": len(spans),
                "name": name,
                "parent": parent["id"] if parent else None,
                "question": question if question is not None else (parent or {}).get("question"),
                "phase": self.phase,
                "distance_calls": 0,
                "distance_ns": 0,
                "pairs": 0,
                "error": None,
            }
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            span["pairs"] = _pairs_of(name, args, out)
            if name == "adaptive.adapt":
                flips = out.diagnostics.get("flips", [])
                span["flips_attempted"] = len(flips)
                span["flips_kept"] = sum(1 for f in flips if f["kept"])
            return out

        return wrapper

    def _counted_distance(self, fn):
        stack, pairs = self._stack, self.pairs
        clock = time.perf_counter_ns

        def distance_by_id(oracle, a, b):
            t0 = clock()
            d = fn(oracle, a, b)
            elapsed = clock() - t0
            if stack:
                top = stack[-1]
                top["distance_calls"] += 1
                top["distance_ns"] += elapsed
            pairs.add((a, b) if a <= b else (b, a))
            return d

        return distance_by_id

    def install(self) -> "Tracer":
        for name, owner_path, attr in SPANNED:
            self._patches.replace(resolve(owner_path), attr, lambda fn, name=name: self._spanned(name, fn))
        self._patches.replace(resolve("kg.HopOracle"), "distance_by_id", self._counted_distance)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------


def _in_phase(span: dict, phase: str) -> bool:
    """Link-phase spans count only inside a ``Pipeline.link`` call, not the pass's load."""
    return span["phase"] == phase and (phase != "link" or span["question"] is not None)


def _duration_ms(span: dict) -> float:
    return (span["end"] - span["start"]) / _NS_PER_MS


def self_times_ms(spans: list[dict]) -> dict[int, float]:
    """Span duration minus its children's and its aggregated distance calls."""
    covered: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0) + span["end"] - span["start"]
    return {
        s["id"]: (s["end"] - s["start"] - covered.get(s["id"], 0) - s["distance_ns"]) / _NS_PER_MS
        for s in spans
    }


def layer_metrics(spans: list[dict], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: setup figures per load, build figures per build, link figures per pass."""

    def of(name: str, phase: str) -> list[dict]:
        return [s for s in spans if s["name"] == name and _in_phase(s, phase)]

    def median_ms(name: str) -> float:
        durations = [_duration_ms(s) for s in of(name, "setup")]
        return statistics.median(durations) if durations else 0.0

    def build_ms(name: str) -> float:
        return sum(_duration_ms(s) for s in of(name, "build"))

    def link_ms(name: str) -> float:
        return sum(_duration_ms(s) for s in of(name, "link")) / passes

    def link_calls(name: str) -> float:
        return len(of(name, "link")) / passes

    link_spans = [s for s in spans if _in_phase(s, "link")]
    self_ms = self_times_ms(link_spans)
    adapt = of("adaptive.adapt", "link")
    exact = of("gtsp.solve_exact", "link")
    return {
        "kg.load_graph_ms": (median_ms("kg.load_graph"), "ms"),
        "kg.build_subdivision_ms": (median_ms("kg.build_subdivision"), "ms"),
        "index.load_ms": (median_ms("index.load"), "ms"),
        "pipeline.load_artifacts_ms": (median_ms("pipeline.load_artifacts"), "ms"),
        "pipeline.build_index_artifact_ms": (build_ms("pipeline.build_index_artifact"), "ms"),
        "pipeline.train_er_artifact_ms": (build_ms("pipeline.train_er_artifact"), "ms"),
        "pipeline.train_reranker_artifact_ms": (build_ms("pipeline.train_reranker_artifact"), "ms"),
        "pipeline.collect_training_rows_ms": (build_ms("pipeline.collect_training_rows"), "ms"),
        "reranker.train_ms": (build_ms("reranker.train"), "ms"),
        "spotter.extract_keywords_ms": (link_ms("spotter.extract_keywords"), "ms"),
        "spotter.er_predict_calls": (link_calls("spotter.er_predict"), "count"),
        "spotter.er_predict_ms": (link_ms("spotter.er_predict"), "ms"),
        "index.search_calls": (link_calls("index.search"), "count"),
        "index.search_ms": (link_ms("index.search"), "ms"),
        "kg.distance_calls": (sum(s["distance_calls"] for s in link_spans) / passes, "count"),
        "kg.distance_ms": (sum(s["distance_ns"] for s in link_spans) / _NS_PER_MS / passes, "ms"),
        "gtsp.build_instance_ms": (link_ms("gtsp.build_instance"), "ms"),
        "gtsp.instance_pairs": (sum(s["pairs"] for s in of("gtsp.build_instance", "link")) / passes, "count"),
        "gtsp.solve_exact_calls": (link_calls("gtsp.solve_exact"), "count"),
        "gtsp.solve_exact_ms": (link_ms("gtsp.solve_exact"), "ms"),
        "gtsp.exact_refused": (sum(1 for s in exact if s["error"] == "TooLargeError") / passes, "count"),
        "gtsp.solve_approx_calls": (link_calls("gtsp.solve_approx"), "count"),
        "gtsp.solve_approx_ms": (link_ms("gtsp.solve_approx"), "ms"),
        "density.compute_features_calls": (link_calls("density.compute_features"), "count"),
        "density.compute_features_ms": (link_ms("density.compute_features"), "ms"),
        "density.feature_pairs": (
            sum(s["pairs"] for s in of("density.compute_features", "link")) / passes, "count"),
        "reranker.rerank_ms": (link_ms("reranker.rerank"), "ms"),
        "adaptive.adapt_ms": (link_ms("adaptive.adapt"), "ms"),
        "adaptive.flips_attempted": (sum(s.get("flips_attempted", 0) for s in adapt) / passes, "count"),
        "adaptive.flips_kept": (sum(s.get("flips_kept", 0) for s in adapt) / passes, "count"),
        "pipeline.link_self_ms": (
            sum(self_ms[s["id"]] for s in of("pipeline.link", "link")) / passes, "ms"),
    }


# Layers that must record link-time calls on a workload, and layers that
# must record none there. Build and setup spans are checked on every workload.
WORKS = {
    "route": {"pipeline", "spotter", "index", "kg", "gtsp"},
    "density": {"pipeline", "spotter", "index", "kg", "density", "reranker", "adaptive"},
    "hub": {"pipeline", "spotter", "index", "kg", "density", "reranker", "adaptive"},
}
BYPASSED = {
    "route": {"density", "reranker", "adaptive"},
    "density": {"gtsp"},
    "hub": {"gtsp"},
}
SETUP_SPANS = ("kg.load_graph", "kg.build_subdivision", "index.load", "pipeline.load_artifacts")
BUILD_SPANS = (
    "pipeline.build_index_artifact",
    "pipeline.train_er_artifact",
    "pipeline.train_reranker_artifact",
    "pipeline.collect_training_rows",
    "reranker.train",
)


def layer_violations(workload: str, spans: list[dict]) -> list[str]:
    """Where the trace contradicts which layers a workload exercises or bypasses."""
    link_layers: dict[str, int] = {}
    for span in spans:
        if _in_phase(span, "link"):
            layer = span["name"].split(".")[0]
            link_layers[layer] = link_layers.get(layer, 0) + 1
            if span["distance_calls"]:
                link_layers["kg"] = link_layers.get("kg", 0) + span["distance_calls"]
    problems = [f"layer {layer} recorded no calls while linking" for layer in sorted(WORKS[workload])
                if not link_layers.get(layer)]
    problems += [f"layer {layer} recorded {link_layers[layer]} calls while linking but is bypassed"
                 for layer in sorted(BYPASSED[workload]) if link_layers.get(layer)]
    for phase, names in (("setup", SETUP_SPANS), ("build", BUILD_SPANS)):
        seen = {s["name"] for s in spans if s["phase"] == phase}
        problems += [f"span {name} recorded no calls during {phase}" for name in names if name not in seen]
    return problems
