"""Knowledge graph storage, its edge-reified undirected view, and bounded hop queries.

The graph is loaded from a tab-separated triple file and kept immutable.
Relations are made first-class by replacing every edge with a node: all
occurrences of one predicate label collapse into a single relation node, so
relation identifiers resolve to exactly one place in the graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

from .errors import NodeNotFoundError, ParseError

#: Sentinel distance for pairs with no path within the oracle's cap.
DISCONNECTED = -1

DEFAULT_HOP_CAP = 4


class Kind(str, Enum):
    """Whether an identifier names a graph entity or a relation (predicate)."""

    ENTITY = "E"
    RELATION = "R"

    def flipped(self) -> "Kind":
        return Kind.RELATION if self is Kind.ENTITY else Kind.ENTITY

    @classmethod
    def parse(cls, text: str) -> "Kind":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise ValueError(f"expected 'E' or 'R', got {text!r}") from None


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: str


@dataclass
class KnowledgeGraph:
    """A labelled directed multigraph given by its distinct triples.

    ``triples`` preserves first-seen order so that every structure derived
    from the graph is reproducible across runs.
    """

    vertices: set[str] = field(default_factory=set)
    edge_labels: set[str] = field(default_factory=set)
    triples: list[Triple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.triples)


LineSource = Union[str, os.PathLike, TextIO, Iterable[str]]


def _iter_lines(source: LineSource) -> Iterator[tuple[int, str]]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from enumerate(handle, start=1)
    else:
        yield from enumerate(source, start=1)


def iter_data_lines(source: LineSource) -> Iterator[tuple[int, str]]:
    """Yield (line_number, stripped_line) skipping blanks and '#' comments."""
    for number, raw in _iter_lines(source):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield number, line


def load_graph(source: LineSource, name: str | None = None) -> KnowledgeGraph:
    """Load a knowledge graph from a line-oriented triple stream.

    Each data line holds three identifiers separated by a tab (or, as a
    convenience, any whitespace when the line contains no tab). Duplicate
    triples are stored once. An empty stream yields an empty graph.
    """
    if name is None and isinstance(source, (str, os.PathLike)):
        name = os.fspath(source)
    kg = KnowledgeGraph()
    seen: set[Triple] = set()
    for number, line in iter_data_lines(source):
        if "\t" in line:
            parts = [p.strip() for p in line.split("\t")]
        else:
            parts = line.split()
        if len(parts) != 3 or not all(parts):
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(parts)}", number, name
            )
        triple = Triple(*parts)
        if triple in seen:
            continue
        seen.add(triple)
        kg.triples.append(triple)
        kg.vertices.add(triple.subject)
        kg.vertices.add(triple.object)
        kg.edge_labels.add(triple.predicate)
    return kg


class SubdivisionGraph:
    """Undirected graph with one node per KG vertex and one per predicate label.

    For every triple (u, p, v) the graph holds the edges (u, w_p) and
    (w_p, v), where w_p is the single node representing predicate p.
    Immutable after construction; safe for concurrent readers.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kinds: list[Kind] = []
        self.adjacency: list[list[int]] = []
        self._entity_ids: dict[str, int] = {}
        self._relation_ids: dict[str, int] = {}
        self._edge_seen: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self.names)

    def _add_node(self, name: str, kind: Kind) -> int:
        table = self._entity_ids if kind is Kind.ENTITY else self._relation_ids
        node = table.get(name)
        if node is None:
            node = len(self.names)
            table[name] = node
            self.names.append(name)
            self.kinds.append(kind)
            self.adjacency.append([])
        return node

    def _add_edge(self, a: int, b: int) -> None:
        key = (a, b) if a <= b else (b, a)
        if key in self._edge_seen:
            return
        self._edge_seen.add(key)
        self.adjacency[a].append(b)
        self.adjacency[b].append(a)

    def edge_count(self) -> int:
        return len(self._edge_seen)

    def node_id(self, identifier: str, kind: Kind | None = None) -> int:
        """Resolve an identifier to its node id.

        With ``kind`` the lookup is restricted to that namespace; without,
        entity nodes take precedence over relation nodes.
        """
        if kind is Kind.ENTITY:
            node = self._entity_ids.get(identifier)
        elif kind is Kind.RELATION:
            node = self._relation_ids.get(identifier)
        else:
            node = self._entity_ids.get(identifier)
            if node is None:
                node = self._relation_ids.get(identifier)
        if node is None:
            raise NodeNotFoundError(f"unknown {kind.value if kind else ''} node: {identifier!r}")
        return node

    def try_node_id(self, identifier: str, kind: Kind | None = None) -> int | None:
        try:
            return self.node_id(identifier, kind)
        except NodeNotFoundError:
            return None

    def neighbors(self, node: int) -> list[int]:
        return self.adjacency[node]


def build_subdivision(kg: KnowledgeGraph) -> SubdivisionGraph:
    """Build the edge-reified undirected view of ``kg``.

    Literals in object position are handled like any other entity node.
    """
    graph = SubdivisionGraph()
    for triple in kg.triples:
        u = graph._add_node(triple.subject, Kind.ENTITY)
        w = graph._add_node(triple.predicate, Kind.RELATION)
        v = graph._add_node(triple.object, Kind.ENTITY)
        graph._add_edge(u, w)
        graph._add_edge(w, v)
    return graph


class HopOracle:
    """Answers bounded shortest-path (hop) queries on a subdivision graph.

    Distances above ``cap`` are reported as :data:`DISCONNECTED`. Queries run
    a bidirectional breadth-first search: each endpoint expands a cached ball
    of at most ``ceil(cap/2)`` / ``floor(cap/2)`` levels and the answer is the
    cheapest meeting point. Results are memoised per unordered node pair.

    The underlying graph is immutable and cache writes are idempotent, so
    concurrent queries are safe and interleaving cannot change any answer.
    """

    def __init__(self, graph: SubdivisionGraph, cap: int = DEFAULT_HOP_CAP) -> None:
        if cap < 1:
            raise ValueError("cap must be a positive integer")
        self.graph = graph
        self.cap = cap
        self._radius_a = (cap + 1) // 2
        self._radius_b = cap // 2
        self._pair_cache: dict[tuple[int, int], int] = {}
        self._ball_cache: dict[tuple[int, int], dict[int, int]] = {}

    def _ball(self, node: int, radius: int) -> dict[int, int]:
        """BFS distances from ``node`` up to ``radius`` levels."""
        key = (node, radius)
        cached = self._ball_cache.get(key)
        if cached is not None:
            return cached
        dist = {node: 0}
        frontier = [node]
        for level in range(1, radius + 1):
            nxt: list[int] = []
            for u in frontier:
                for v in self.graph.adjacency[u]:
                    if v not in dist:
                        dist[v] = level
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        self._ball_cache[key] = dist
        return dist

    def distance_by_id(self, a: int, b: int) -> int:
        """Hop count between two node ids, or DISCONNECTED beyond the cap."""
        if a == b:
            return 0
        key = (a, b) if a <= b else (b, a)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        ball_a = self._ball(a, self._radius_a)
        ball_b = self._ball(b, self._radius_b)
        if len(ball_a) > len(ball_b):
            ball_a, ball_b = ball_b, ball_a
        best = DISCONNECTED
        for node, da in ball_a.items():
            db = ball_b.get(node)
            if db is None:
                continue
            total = da + db
            if best == DISCONNECTED or total < best:
                best = total
        self._pair_cache[key] = best
        return best

    def distance(
        self,
        a: str,
        b: str,
        kind_a: Kind | None = None,
        kind_b: Kind | None = None,
    ) -> int:
        """Hop count between two identifiers; raises NodeNotFoundError for unknown ones."""
        node_a, node_b = self.graph.node_id(a, kind_a), self.graph.node_id(b, kind_b)
        return int(hop_block(self, [node_a], [node_b])[0, 0])


def hop_block(
    oracle: HopOracle, ids_a: Sequence[int | None], ids_b: Sequence[int | None]
) -> np.ndarray:
    """Hop counts from every node of ``ids_a`` (rows) to every node of ``ids_b``.

    The one place pairwise distances are read from the oracle: each pair
    costs one :meth:`HopOracle.distance_by_id` call, except that a ``None``
    id (a candidate with no graph node) is DISCONNECTED from everything
    without a query.
    """
    distance = oracle.distance_by_id
    rows = [
        [DISCONNECTED if a is None or b is None else distance(a, b) for b in ids_b]
        for a in ids_a
    ]
    return np.array(rows, dtype=np.int64).reshape(len(ids_a), len(ids_b))
