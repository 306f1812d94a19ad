"""Knowledge graph storage, its edge-reified undirected view, and bounded hop queries.

The graph is loaded from a tab-separated triple file and kept immutable.
Relations are made first-class by replacing every edge with a node: all
occurrences of one predicate label collapse into a single relation node, so
relation identifiers resolve to exactly one place in the graph.

Hop distances are read from per-source BFS rows that :class:`HopOracle`
caches within a byte budget; :func:`hop_block` reads a whole cached row with
one numpy gather and asks the oracle pair by pair only for a source whose
row is not cached, and :func:`cross_hops` puts a question's blocks into the
one matrix both linking strategies read. A row's BFS stops at hub nodes
(such as an ``rdf:type`` predicate node; see :class:`HopOracle`) and reads
every path through a hub from the hub's own row, so no row walks a hub's
adjacency more than once while that hub's row stays cached.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

from .errors import NodeNotFoundError, ParseError

if TYPE_CHECKING:
    from .index import CandidateList

#: Sentinel distance for pairs with no path within the oracle's cap.
DISCONNECTED = -1

DEFAULT_HOP_CAP = 4

#: Hop-row byte for a node beyond the cap, so no cap may reach it.
_BEYOND = 255
MAX_HOP_CAP = _BEYOND - 1

#: Most bytes that one oracle's cached hop rows may hold together.
ROW_BUDGET_BYTES = 64 * 1024 * 1024


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


def _iter_lines(source: LineSource) -> Iterator[tuple[int, str | bytes]]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            yield from enumerate(handle, start=1)
    else:
        yield from enumerate(source, start=1)


def read_rows(source: LineSource, parse: Callable[[str], Any]) -> Iterator:
    """Yield ``parse`` of each line but blanks and '#' comments; a ValueError
    from it or a line that is not UTF-8 raises ParseError naming file and line."""
    name = os.fspath(source) if isinstance(source, (str, os.PathLike)) else None
    for number, raw in _iter_lines(source):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield parse(line)
        except ValueError as exc:
            raise ParseError(str(exc), number, name) from None


def load_graph(source: LineSource) -> KnowledgeGraph:
    """Load a knowledge graph from a line-oriented triple stream.

    Each data line holds three identifiers separated by a tab (or, as a
    convenience, any whitespace when the line contains no tab). Duplicate
    triples are stored once. An empty stream yields an empty graph.
    """
    kg = KnowledgeGraph()
    seen: set[Triple] = set()
    for triple in read_rows(source, _parse_triple):
        if triple in seen:
            continue
        seen.add(triple)
        kg.triples.append(triple)
        kg.vertices.add(triple.subject)
        kg.vertices.add(triple.object)
        kg.edge_labels.add(triple.predicate)
    return kg


def _parse_triple(line: str) -> Triple:
    if "\t" in line:
        parts = [p.strip() for p in line.split("\t")]
    else:
        parts = line.split()
    if len(parts) != 3 or not all(parts):
        raise ValueError(f"expected 3 tab-separated fields, got {len(parts)}")
    return Triple(*parts)


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

    Distances above ``cap`` are reported as :data:`DISCONNECTED`. A query
    reads the hop row of either endpoint: one byte per node, filled by a
    breadth-first search of ``cap`` levels from the row's source, with
    :data:`_BEYOND` past the cap. When neither row is cached, the first
    endpoint's is built, so rows exist only for sources that were queried.
    Cached rows hold at most :data:`ROW_BUDGET_BYTES` together; a new row
    that would pass the budget evicts the oldest rows first.

    A row is the exact answer for every pair at its source and the graph is
    immutable, so no answer depends on which rows are cached, on query order
    or on eviction, and concurrent queries are safe.

    A node is a hub when its degree exceeds four times the square root of
    the node count; ``hubs`` holds them. A row's BFS does not expand a hub
    other than its source and takes the paths through it from the hub's
    row, which is built and cached like any other row; see :meth:`_row`.

    ``pairs`` counts the node pairs answered, by :meth:`distance_by_id` and
    by :func:`hop_block`'s row gathers alike, and ``rows_built`` the rows
    built, hub rows included; :meth:`cached_row` looks a row up without
    building it.
    """

    def __init__(self, graph: SubdivisionGraph, cap: int = DEFAULT_HOP_CAP) -> None:
        if not 1 <= cap <= MAX_HOP_CAP:
            raise ValueError(f"cap must be an integer in [1, {MAX_HOP_CAP}], got {cap!r}")
        self.graph = graph
        self.cap = cap
        n = len(graph)
        # Stopping at a hub trades a walk of its neighbourhood for numpy passes
        # over all n nodes plus the hub's own row. On planted predicates that
        # trade breaks even near 1.5 sqrt(n) at 3,663 nodes, 2 sqrt(n) at
        # 30,202 and 4 sqrt(n) at 120,025, and wins above that at all three.
        self.hubs = frozenset(
            v for v, adj in enumerate(graph.adjacency) if len(adj) ** 2 > 16 * n
        )
        self._rows: OrderedDict[int, bytearray] = OrderedDict()
        self.pairs = 0
        self.rows_built = 0

    def _row(self, source: int) -> bytearray:
        """BFS hop levels from ``source``, cached within the byte budget.

        The BFS from a non-hub source gives a hub its level but does not
        expand it; each hub reached below the cap is then folded in as its
        level plus the hub's own row (cached, or built here), which expands
        everything, so hub rows never recurse. A hub reached at the cap adds
        nothing within it. Exact: the first hub on a shortest path splits it
        into a hub-free part, which the BFS finds, and a part the hub's row
        holds; every value folded in is the length of a real walk.
        """
        adjacency = self.graph.adjacency
        stop = frozenset() if source in self.hubs else self.hubs
        row = bytearray([_BEYOND]) * len(adjacency)
        row[source] = 0
        frontier = [source]
        through: list[tuple[int, int]] = []
        for level in range(1, self.cap + 1):
            nxt: list[int] = []
            for u in frontier:
                for v in adjacency[u]:
                    if row[v] == _BEYOND:
                        row[v] = level
                        nxt.append(v)
            if stop and level < self.cap:
                for hub in stop.intersection(nxt):
                    nxt.remove(hub)
                    through.append((hub, level))
            frontier = nxt
        if through:
            # Both operands int16: a 255 byte plus a level would wrap in uint8.
            levels = np.frombuffer(row, np.uint8).astype(np.int16)
            for hub, level in through:
                hub_row = self._rows.get(hub) or self._row(hub)
                reach = np.frombuffer(hub_row, np.uint8).astype(np.int16)
                np.minimum(levels, reach + level, out=levels)
            np.copyto(levels, _BEYOND, where=levels > self.cap)
            row = bytearray(levels.astype(np.uint8))
        self.rows_built += 1
        fits = ROW_BUDGET_BYTES // len(row)
        while self._rows and len(self._rows) >= fits:
            self._rows.popitem(last=False)
        if fits:
            self._rows[source] = row
        return row

    def cached_row(self, source: int) -> bytearray | None:
        """The cached hop row of ``source``, or None; never builds one."""
        return self._rows.get(source)

    def distance_by_id(self, a: int, b: int) -> int:
        """Hop count between two node ids, or DISCONNECTED beyond the cap."""
        self.pairs += 1
        row = self._rows.get(a)
        if row is not None:
            level = row[b]
        else:
            row = self._rows.get(b)
            level = row[a] if row is not None else self._row(a)[b]
        return DISCONNECTED if level == _BEYOND else level

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


def hop_block(oracle: HopOracle, ids_a: Sequence[int], ids_b: Sequence[int]) -> np.ndarray:
    """Hop counts from every node of ``ids_a`` (rows) to every node of ``ids_b``.

    The one place pairwise distances are read from the oracle. A source
    whose hop row is cached is answered by one gather of that row; any other
    source is answered pair by pair through :meth:`HopOracle.distance_by_id`,
    which reads the partner's row first and builds the source's row only
    when neither is cached, so the rows built do not depend on this choice.
    Every answered pair adds to ``oracle.pairs``.
    """
    cols = np.array(ids_b, dtype=np.intp)
    hops = np.empty((len(ids_a), len(ids_b)), dtype=np.int64)
    for i, a in enumerate(ids_a):
        row = oracle.cached_row(a)
        if row is None:
            hops[i] = [oracle.distance_by_id(a, b) for b in ids_b]
        else:
            hops[i] = np.frombuffer(row, np.uint8)[cols]
            oracle.pairs += len(ids_b)
    # Gathered bytes are widened to int64 above, so _BEYOND maps to DISCONNECTED here.
    hops[hops == _BEYOND] = DISCONNECTED
    return hops


def cross_hops(oracle: HopOracle, lists: Sequence[CandidateList]) -> tuple[np.ndarray, np.ndarray]:
    """Hop counts between the candidates of different lists, as one matrix.

    Rows and columns run over the lists' candidates in order, and ``owner``
    holds each one's list index. Node ids are resolved once (an off-graph
    candidate raises NodeNotFoundError) and each pair of lists a < b is read
    once through :func:`hop_block`, list a as rows, so rows are built and
    pairs counted as one block per pair does. Entries inside a list are 0.
    """
    ids = [[oracle.graph.node_id(c.uri, c.kind) for c in clist.candidates] for clist in lists]
    bounds = np.cumsum([0] + [len(members) for members in ids])
    owner = np.repeat(np.arange(len(ids)), np.diff(bounds))
    hops = np.zeros((len(owner), len(owner)), dtype=np.int64)
    for a in range(len(ids)):
        rows = slice(bounds[a], bounds[a + 1])
        for b in range(a + 1, len(ids)):
            cols = slice(bounds[b], bounds[b + 1])
            hops[rows, cols] = hop_block(oracle, ids[a], ids[b])
            hops[cols, rows] = hops[rows, cols].T
    return hops, owner
