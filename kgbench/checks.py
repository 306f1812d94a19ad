"""Output checks that share no code with kglinker.

The graph is re-read from ``triples.tsv`` and re-built as the paper's
subdivision view (one node per entity, one per predicate label); hop
distances come from a plain breadth-first search. Route costs follow the
paper's formula, the optimum is an independent Held–Karp dynamic program
over keyword clusters (Held & Karp 1962), and connectivity features are a
literal double-loop recount. Every check takes plain data (result dicts,
candidate lists as ``(uri, kind, rank)`` tuples) and returns a list of
failure messages, so the self-test can feed it corrupted results.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations

import numpy as np

TOLERANCE = 1e-9


class PlainGraph:
    """Undirected subdivision view of a triple file, with memoised bounded BFS."""

    def __init__(self, triples_path: str, cap: int) -> None:
        self.cap = cap
        self.ids: dict[tuple[str, str], int] = {}
        self.adjacency: list[set[int]] = []
        with open(triples_path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                subject, predicate, obj = (part.strip() for part in line.split("\t"))
                u = self._node("E", subject)
                w = self._node("R", predicate)
                v = self._node("E", obj)
                self.adjacency[u].add(w)
                self.adjacency[w].add(u)
                self.adjacency[w].add(v)
                self.adjacency[v].add(w)
        self._bfs: dict[int, dict[int, int]] = {}

    def _node(self, kind: str, name: str) -> int:
        key = (kind, name)
        if key not in self.ids:
            self.ids[key] = len(self.adjacency)
            self.adjacency.append(set())
        return self.ids[key]

    def resolve(self, uri: str, kind: str) -> int | None:
        return self.ids.get((kind, uri))

    def ball(self, source: int, radius: int) -> dict[int, int]:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if dist[u] == radius:
                continue
            for v in self.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def hops(self, a: int | None, b: int | None) -> int:
        """Hop distance, or -1 when unresolved or beyond the cap."""
        if a is None or b is None:
            return -1
        if a not in self._bfs:
            self._bfs[a] = self.ball(a, self.cap)
        return self._bfs[a].get(b, -1)


# ---------------------------------------------------------------------------
# Route checks
# ---------------------------------------------------------------------------


def route_instance(graph: PlainGraph, lists: list, rank_weight: float):
    """Clusters and the pair-cost matrix of the paper's route formula.

    ``lists`` holds one candidate list per populated keyword, each a list of
    ``(uri, kind, rank)``. Candidates absent from the graph are dropped.
    cost(u, v) = hops + rank_weight * (rank_u + rank_v); pairs beyond the
    cap cost cap + 2 * max_rank + 1 hops.
    """
    members = []
    for cluster, candidates in enumerate(lists):
        for uri, kind, rank in candidates:
            node = graph.resolve(uri, kind)
            if node is not None:
                members.append((cluster, uri, rank, node))
    max_rank = max(rank for _c, _u, rank, _n in members)
    penalty = graph.cap + 2 * max_rank + 1
    n = len(members)
    cost = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d = graph.hops(members[i][3], members[j][3])
                hops = d if d >= 0 else penalty
                cost[i, j] = hops + rank_weight * (members[i][2] + members[j][2])
    clusters = [[i for i, m in enumerate(members) if m[0] == c] for c in range(len(lists))]
    return members, clusters, cost


def held_karp_path(cost: np.ndarray, clusters: list[list[int]]) -> float:
    """Cheapest open route visiting one member of every cluster, in any order."""
    p = len(clusters)
    full = (1 << p) - 1
    best = np.full((1 << p, cost.shape[0]), np.inf)
    for c, nodes in enumerate(clusters):
        best[1 << c, nodes] = 0.0
    for mask in range(1, full + 1):
        row = best[mask]
        if not np.isfinite(row).any():
            continue
        for c, nodes in enumerate(clusters):
            if mask & (1 << c):
                continue
            reach = np.min(row[:, None] + cost[:, nodes], axis=0)
            nxt = mask | (1 << c)
            best[nxt, nodes] = np.minimum(best[nxt, nodes], reach)
    return float(best[full].min())


def check_route(graph: PlainGraph, result: dict, lists: list, rank_weight: float):
    """Route checks for one result; returns (failures, optimum or None).

    ``lists`` holds the retrieved candidates of every keyword of the result,
    in keyword order, as ``(uri, kind, rank)`` tuples.
    """
    failures = []
    keywords = result["keywords"]
    if len(keywords) != len(lists):
        return [f"{len(keywords)} keyword blocks for {len(lists)} retrieved lists"], None
    populated = [i for i, candidates in enumerate(lists) if candidates]
    chosen = {}
    for i, block in enumerate(keywords):
        uris = [c["uri"] for c in block["candidates"]]
        if i not in populated:
            if uris:
                failures.append(f"keyword {block['keyword']!r} has no candidates but chose {uris}")
            continue
        if len(uris) != 1:
            failures.append(f"keyword {block['keyword']!r} chose {len(uris)} candidates")
            continue
        if uris[0] not in {uri for uri, _kind, _rank in lists[i]}:
            failures.append(f"keyword {block['keyword']!r} chose {uris[0]!r}, not one of its candidates")
            continue
        chosen[i] = uris[0]
    if failures or len(populated) < 2:
        return failures, None

    members, clusters, cost = route_instance(graph, [lists[i] for i in populated], rank_weight)
    optimum = held_karp_path(cost, clusters)
    picked = []
    for c, i in enumerate(populated):
        node = next((m for m in clusters[c] if members[m][1] == chosen[i]), None)
        if node is None:
            return [f"chosen {chosen[i]!r} is not in the graph"], optimum
        picked.append(node)
    reported = result["diagnostics"].get("route_cost")
    if reported is None:
        return ["no route_cost reported"], optimum
    route_costs = [
        sum(cost[order[k], order[k + 1]] for k in range(len(order) - 1))
        for order in permutations(picked)
    ]
    if min(abs(reported - c) for c in route_costs) > TOLERANCE * max(1.0, abs(reported)):
        failures.append(f"route_cost {reported} is not the cost of any order of the chosen candidates")
    if reported < optimum - TOLERANCE * max(1.0, optimum):
        failures.append(f"route_cost {reported} is below the Held-Karp optimum {optimum}")
    fell_back = any("approximate" in note for note in result["diagnostics"].get("notes", []))
    if not fell_back and abs(reported - optimum) > TOLERANCE * max(1.0, optimum):
        failures.append(f"exact route_cost {reported} differs from the Held-Karp optimum {optimum}")
    return failures, optimum


# ---------------------------------------------------------------------------
# Density checks
# ---------------------------------------------------------------------------


def naive_features(graph: PlainGraph, lists: list):
    """Connection and hop counts per candidate, recounted pair by pair.

    Mirrors the acceptance oracle: pairs within two hops connect, pairs
    beyond the cap contribute cap + 1 hops, and both counts are divided by
    the number of lists.
    """
    n = len(lists)
    nodes = [[graph.resolve(uri, kind) for uri, kind, _rank in lst] for lst in lists]
    connect = [[0] * len(lst) for lst in lists]
    hops = [[0] * len(lst) for lst in lists]
    for a in range(n):
        for b in range(a + 1, n):
            for i, u in enumerate(nodes[a]):
                for j, v in enumerate(nodes[b]):
                    d = graph.hops(u, v)
                    if 0 <= d <= 2:
                        connect[a][i] += 1
                        connect[b][j] += 1
                    contribution = d if d >= 0 else graph.cap + 1
                    hops[a][i] += contribution
                    hops[b][j] += contribution
    return (
        [[value / n for value in row] for row in connect],
        [[value / n for value in row] for row in hops],
    )


def check_features(graph: PlainGraph, lists: list, features: list) -> list[str]:
    """``features[l][i]`` is ``(initial_rank, connection_count, hop_count)``."""
    connect, hops = naive_features(graph, lists)
    failures = []
    for l, (lst, row) in enumerate(zip(lists, features)):
        if len(row) != len(lst):
            failures.append(f"list {l}: {len(row)} feature rows for {len(lst)} candidates")
            continue
        for i, ((_uri, _kind, rank), (f_rank, f_connect, f_hops)) in enumerate(zip(lst, row)):
            if (f_rank, f_connect, f_hops) != (rank, connect[l][i], hops[l][i]):
                failures.append(
                    f"list {l} candidate {i}: features {(f_rank, f_connect, f_hops)} "
                    f"!= recount {(rank, connect[l][i], hops[l][i])}"
                )
    return failures


def check_probabilities(result: dict) -> list[str]:
    """Probabilities lie in [0, 1] and never increase down a block."""
    failures = []
    for block in result["keywords"]:
        probs = [c["probability"] for c in block["candidates"]]
        if any(p is None for p in probs):
            continue  # retrieval-order fallback blocks carry no probabilities
        if any(not 0.0 <= p <= 1.0 for p in probs):
            failures.append(f"keyword {block['keyword']!r}: probability outside [0, 1]")
        if any(later > earlier for earlier, later in zip(probs, probs[1:])):
            failures.append(f"keyword {block['keyword']!r}: probabilities increase down the block")
    return failures


# ---------------------------------------------------------------------------
# Quality
# ---------------------------------------------------------------------------


def _norm(text: str) -> str:
    return " ".join(text.lower().split())


def gold_ranks(result: dict, gold_spans) -> list[int | None]:
    """Rank of each gold uri in the block spotted for its phrase (None if absent)."""
    blocks = list(result["keywords"])
    ranks = []
    for span in gold_spans:
        block = next((b for b in blocks if _norm(b["keyword"]) == _norm(span.phrase)), None)
        if block is None:
            ranks.append(None)
            continue
        blocks.remove(block)
        uris = [c["uri"] for c in block["candidates"]]
        ranks.append(uris.index(span.uri) + 1 if span.uri in uris else None)
    return ranks


def quality(results: list[dict], questions) -> tuple[float, float]:
    """(accuracy, mrr) over every gold span of the questions."""
    ranks = [r for result, q in zip(results, questions) for r in gold_ranks(result, q.gold_spans)]
    accuracy = sum(1 for r in ranks if r == 1) / len(ranks)
    mrr = sum(1.0 / r for r in ranks if r is not None) / len(ranks)
    return accuracy, mrr
