"""One-candidate-per-keyword selection as a clustered shortest-route problem.

Each keyword's candidate list becomes a cluster; pairwise costs combine the
graph hop distance between candidates with their retrieval ranks. The exact
solver is a Held-Karp dynamic program over cluster subsets. The
approximate path reduces the clustered problem to an asymmetric TSP (one
zero-cost directed cycle per cluster, inter-cluster arcs shifted to the
cycle predecessor and offset by a constant larger than any route), takes the
cheapest of several nearest-neighbour tours, and decodes it into a cluster
order. The same dynamic program then finds the cheapest selection along each
rotation and reversal of that order, and a polish that relocates one
cluster at a time improves the best of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceError, TooLargeError
from .index import CandidateList
from .kg import DISCONNECTED, HopOracle, Kind, hop_block

DEFAULT_BUDGET = 10_000_000
DEFAULT_RANK_WEIGHT = 1.0


@dataclass(frozen=True)
class GtspNode:
    uri: str
    kind: Kind
    rank: int
    cluster: int
    graph_node: int | None = None


@dataclass
class GtspInstance:
    keywords: list[str]
    nodes: list[GtspNode]
    clusters: list[list[int]]
    cost: np.ndarray
    disconnect_penalty: float
    dropped: list[str] = field(default_factory=list)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


@dataclass
class Assignment:
    """One chosen node per cluster plus the cluster visit order."""

    order: list[int]
    chosen: list[int]
    total_cost: float

    def chosen_uris(self, instance: GtspInstance) -> dict[int, str]:
        return {c: instance.nodes[n].uri for c, n in enumerate(self.chosen)}

    def recompute_cost(self, instance: GtspInstance) -> float:
        route = [self.chosen[c] for c in self.order]
        return sum(
            float(instance.cost[route[i], route[i + 1]]) for i in range(len(route) - 1)
        )


def disconnect_penalty(cap: int, max_rank: int) -> float:
    """Hop substitute for pairs beyond the cap: worse than any connected pair."""
    return float(cap + 2 * max_rank + 1)


def build_instance(
    lists: list[CandidateList],
    oracle: HopOracle,
    rank_weight: float = DEFAULT_RANK_WEIGHT,
) -> GtspInstance:
    """Build the clustered instance from candidate lists.

    cost(u, v) = hops(u, v) + rank_weight * (rank_u + rank_v) for u and v in
    different clusters, with the disconnect penalty substituted for pairs
    beyond the oracle's cap. No route moves inside a cluster, so
    intra-cluster costs are 0 and those pairs are never queried.
    Candidates that resolve to no graph node are dropped with a note; a
    cluster losing all members is an error.
    """
    if len(lists) < 2:
        raise InstanceError("need at least 2 candidate lists")
    if rank_weight < 0:
        raise InstanceError("rank_weight must be >= 0")
    nodes: list[GtspNode] = []
    clusters: list[list[int]] = []
    keywords: list[str] = []
    dropped: list[str] = []
    for cluster_id, clist in enumerate(lists):
        members: list[int] = []
        for cand in clist.candidates:
            graph_node = oracle.graph.try_node_id(cand.uri, cand.kind)
            if graph_node is None:
                dropped.append(cand.uri)
                continue
            members.append(len(nodes))
            nodes.append(
                GtspNode(
                    uri=cand.uri,
                    kind=cand.kind,
                    rank=cand.initial_rank,
                    cluster=cluster_id,
                    graph_node=graph_node,
                )
            )
        if not members:
            raise InstanceError(
                f"no resolvable candidates left for keyword {clist.keyword!r}"
            )
        clusters.append(members)
        keywords.append(clist.keyword)

    max_rank = max(node.rank for node in nodes)
    penalty = disconnect_penalty(oracle.cap, max_rank)
    graph_nodes = [[nodes[i].graph_node for i in members] for members in clusters]
    ranks = np.array([node.rank for node in nodes])
    cost = np.zeros((len(nodes), len(nodes)), dtype=np.float64)
    for a, rows in enumerate(clusters):
        for b in range(a + 1, len(clusters)):
            cols = clusters[b]
            hops = hop_block(oracle, graph_nodes[a], graph_nodes[b])
            block = np.where(hops == DISCONNECTED, penalty, hops) + rank_weight * (
                ranks[rows][:, None] + ranks[cols]
            )
            cost[np.ix_(rows, cols)] = block
            cost[np.ix_(cols, rows)] = block.T
    return GtspInstance(
        keywords=keywords,
        nodes=nodes,
        clusters=clusters,
        cost=cost,
        disconnect_penalty=penalty,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# Exact solving
# ---------------------------------------------------------------------------

# (cost, uri sequence, cluster order, node sequence): routes compare on this key.
_RouteKey = tuple[float, tuple[str, ...], tuple[int, ...], tuple[int, ...]]
_NO_TIE = np.iinfo(np.int64).max


def _ranks(prefix, step):
    """Ranks of a DP layer's (uri, cluster, node) sequences after one more step.

    ``prefix`` holds each state's predecessor ranks and ``step`` the keys of
    the element it appends; sequences of one layer have equal length, so an
    extended one compares as (prefix, element). A rank counts the smaller
    keys in the layer. Also returns the rank of the three sequences
    together, the route key's tie-break after the cost.
    """

    def rank(major, minor):
        keys = major * (int(minor.max()) + 1) + minor
        return np.searchsorted(np.sort(keys, axis=None), keys)

    uris, order, nodes = (rank(p, s) for p, s in zip(prefix, step))
    return (uris, order, nodes), rank(rank(uris, order), nodes)


def _cheapest_route(instance: GtspInstance, start: np.ndarray, steps) -> _RouteKey:
    """The least route key through a layered dynamic program.

    A state is a (row, slot) pair; a slot is one (cluster, member) pair, so a
    node shared by two clusters is a state in each. Row r of the first layer
    starts in cluster ``start[r]``. ``steps`` holds (rows, moves) per later
    layer; a move (c, target, pred, sources) extends the previous layer's
    rows ``pred`` from slots of the clusters ``sources`` into cluster c as
    rows ``target``. Costs add left to right along the route, and equal
    costs go to the lowest prefix rank.
    """
    slot_cluster = np.array([c for c, members in enumerate(instance.clusters) for _ in members])
    slot_node = np.array([n for members in instance.clusters for n in members])
    bounds = np.cumsum([0] + [len(members) for members in instance.clusters])
    weights = instance.cost[np.ix_(slot_node, slot_node)]
    uri_rank = {uri: i for i, uri in enumerate(sorted({n.uri for n in instance.nodes}))}
    keys = (np.array([uri_rank[instance.nodes[n].uri] for n in slot_node]), slot_cluster, slot_node)

    cost = np.where(slot_cluster == start[:, None], 0.0, np.inf)
    parts, rank = _ranks((np.zeros(cost.shape, dtype=np.int64),) * 3, keys)
    back = []
    for rows, moves in steps:
        next_cost = np.full((rows, len(slot_node)), np.inf)
        came_row, came_slot = np.zeros((2, rows, len(slot_node)), dtype=np.int64)
        for c, target, pred, sources in moves:
            cols = slice(bounds[c], bounds[c + 1])
            src = np.concatenate([np.arange(bounds[b], bounds[b + 1]) for b in sources])
            total = cost[np.ix_(pred, src)][:, :, None] + weights[src, cols][None]
            best = total.min(axis=1)
            tied = np.where(total == best[:, None], rank[np.ix_(pred, src)][:, :, None], _NO_TIE)
            next_cost[target, cols] = best
            came_row[target, cols] = pred[:, None]
            came_slot[target, cols] = src[tied.argmin(axis=1)]
        parts, rank = _ranks(tuple(part[came_row, came_slot] for part in parts), keys)
        cost = next_cost
        back.append((came_row, came_slot))

    row, slot = np.unravel_index(np.lexsort((rank.ravel(), cost.ravel()))[0], cost.shape)
    total_cost = float(cost[row, slot])
    route = [slot]
    for came_row, came_slot in reversed(back):
        row, slot = came_row[row, slot], came_slot[row, slot]
        route.append(slot)
    nodes = slot_node[route[::-1]].tolist()
    order = tuple(slot_cluster[route[::-1]].tolist())
    return total_cost, tuple(instance.nodes[n].uri for n in nodes), order, tuple(nodes)


def _best_path_for_order(instance: GtspInstance, order: tuple[int, ...]) -> _RouteKey:
    """Cheapest selection for a fixed cluster visit order (open path)."""
    row = np.zeros(1, dtype=np.int64)
    steps = [(1, [(c, row, row, [b])]) for b, c in zip(order, order[1:])]
    return _cheapest_route(instance, np.array(order[:1]), steps)


def _assignment(instance: GtspInstance, key: _RouteKey) -> Assignment:
    cost, _uris, order, route = key
    chosen = [0] * instance.cluster_count
    for cluster, node in zip(order, route):
        chosen[cluster] = node
    return Assignment(order=list(order), chosen=chosen, total_cost=cost)


def solve_exact(instance: GtspInstance, budget: int = DEFAULT_BUDGET) -> Assignment:
    """Globally optimal assignment over all selections and cluster orders.

    A Held-Karp dynamic program whose rows in layer k are the sets of k
    visited clusters. Ties break as enumerating every order and selection
    would: on the uri sequence along the route, then the cluster order, then
    the node sequence. Each ordered pair of clusters (a, then b) relaxes
    m_a * m_b arcs once per subset holding both, 2^(p-2) * ((sum m)^2 -
    sum m^2) arcs in all; above ``budget`` the instance is refused so
    callers can fall back to the approximate solver.
    """
    if not instance.clusters:
        raise InstanceError("instance has no clusters")
    if any(not members for members in instance.clusters):
        raise InstanceError("instance has an empty cluster")
    p = instance.cluster_count
    sizes = [len(members) for members in instance.clusters]
    size = (1 << p) // 4 * (sum(sizes) ** 2 - sum(m * m for m in sizes))
    if size > budget:
        raise TooLargeError(f"exact DP relaxes {size} arcs, above the budget of {budget}")
    popcount = np.array([bin(mask).count("1") for mask in range(1 << p)])
    layers = [np.flatnonzero(popcount == k) for k in range(1, p + 1)]
    steps = []
    for previous, masks in zip(layers, layers[1:]):
        moves = []
        for c in range(p):
            target = np.flatnonzero(masks >> c & 1)
            pred = np.searchsorted(previous, masks[target] ^ (1 << c))
            moves.append((c, target, pred, [b for b in range(p) if b != c]))
        steps.append((len(masks), moves))
    return _assignment(instance, _cheapest_route(instance, np.arange(p), steps))


# ---------------------------------------------------------------------------
# Reduction to asymmetric TSP
# ---------------------------------------------------------------------------


@dataclass
class NoonBeanMapping:
    """How ATSP nodes map back onto the clustered instance."""

    cluster_of: list[int]
    gtsp_node: list[int]
    offset: float  # the constant added to every inter-cluster arc
    cluster_count: int


def noon_bean(instance: GtspInstance) -> tuple[np.ndarray, NoonBeanMapping]:
    """Reduce the clustered instance to an asymmetric TSP cost matrix.

    One ATSP node is created per (cluster, member) pair, which also makes
    overlapping clusters disjoint by duplication. Within a cluster the nodes
    form a zero-cost directed cycle; an arc that leaves the cluster from
    node x carries the original cost of the *successor* of x in that cycle,
    plus a constant M = cost.sum() + 1. Costs are non-negative and a route
    or cycle reads each cost entry at most once, so M exceeds any route's
    cost; the intra-cluster entries, all 0, add nothing to it. An optimal
    tour therefore traverses each cluster in one block and enters it at the
    node it selects, and its cost is the optimal cluster-cycle cost plus
    cluster_count * M. Every other intra-cluster arc is forbidden.
    """
    p = instance.cluster_count
    if p < 2:
        raise InstanceError("the reduction needs at least 2 clusters")
    cluster_of = np.array([c for c, members in enumerate(instance.clusters) for _ in members])
    gtsp_node = np.array([node for members in instance.clusters for node in members])
    bounds = np.cumsum([0] + [len(members) for members in instance.clusters])
    position = np.arange(len(gtsp_node))
    successor = np.where(
        position + 1 == bounds[cluster_of + 1], bounds[cluster_of], position + 1
    )
    offset = float(instance.cost.sum()) + 1.0
    same_cluster = cluster_of[:, None] == cluster_of[None, :]
    matrix = np.where(
        same_cluster,
        (p + 1) * offset,
        instance.cost[np.ix_(gtsp_node[successor], gtsp_node)] + offset,
    )
    cycle = successor != position  # a singleton cluster has no cycle arc
    matrix[position[cycle], successor[cycle]] = 0.0
    mapping = NoonBeanMapping(
        cluster_of=cluster_of.tolist(),
        gtsp_node=gtsp_node.tolist(),
        offset=offset,
        cluster_count=p,
    )
    return matrix, mapping


def decode_order(tour: list[int], mapping: NoonBeanMapping) -> list[int]:
    """The clusters of an ATSP tour in the order it first enters them.

    Tours that do not keep clusters contiguous still decode: a cluster's
    first entry fixes its place.
    """
    order: list[int] = []
    for prev, node in zip(tour[-1:] + tour[:-1], tour):
        cluster = mapping.cluster_of[node]
        if mapping.cluster_of[prev] != cluster and cluster not in order:
            order.append(cluster)
    return order


# ---------------------------------------------------------------------------
# Nearest-neighbour tours
# ---------------------------------------------------------------------------


def tour_cost(cost: np.ndarray, tour: list[int]) -> float:
    return float(sum(cost[tour[i], tour[(i + 1) % len(tour)]] for i in range(len(tour))))


def _nearest_neighbor(cost: np.ndarray, start: int) -> list[int]:
    n = len(cost)
    tour = [start]
    unvisited = np.ones(n, dtype=bool)
    unvisited[start] = False
    for _ in range(n - 1):
        row = np.where(unvisited, cost[tour[-1]], np.inf)
        nxt = int(np.argmin(row))
        tour.append(nxt)
        unvisited[nxt] = False
    return tour


def _normalize_rotation(tour: list[int]) -> list[int]:
    pivot = tour.index(min(tour))
    return tour[pivot:] + tour[:pivot]


def solve_tour(cost: np.ndarray, seed: int = 0, starts: int = 6) -> list[int]:
    """Heuristic tour: the cheapest of several nearest-neighbour tours.

    ``starts`` start nodes are drawn with ``random.Random(seed)``; each
    tour is rotated to begin at its smallest node, and equal costs go to the
    smallest such tour, so the result is deterministic for a given seed.
    """
    n = len(cost)
    if n < 3:
        raise InstanceError("tour search needs at least 3 nodes")
    start_nodes = sorted(random.Random(seed).sample(range(n), min(n, starts)))
    tours = [_normalize_rotation(_nearest_neighbor(cost, start)) for start in start_nodes]
    return min(tours, key=lambda tour: (tour_cost(cost, tour), tour))


def solve_approx(instance: GtspInstance, seed: int = 0) -> Assignment:
    """Approximate assignment: reduce, tour, decode, then re-optimise the path.

    The tour fixes a cyclic cluster order. Every rotation (and reversal) of
    it is evaluated as an open path with the cheapest selection for that
    order, and the winning sequence is polished by relocating one cluster at
    a time until no move improves it. Still a heuristic: only orders
    reachable from the tour are ever considered.
    """
    matrix, mapping = noon_bean(instance)
    tour = list(range(len(matrix))) if len(matrix) < 3 else solve_tour(matrix, seed=seed)
    order = decode_order(tour, mapping)
    sequences = []
    for rotation in range(len(order)):
        rotated = tuple(order[rotation:] + order[:rotation])
        sequences += [rotated, rotated[::-1]]
    best = min(_best_path_for_order(instance, sequence) for sequence in sequences)
    p = len(order)
    relocations = [(i, j) for i in range(p) for j in range(p) if i != j]
    while True:
        base = list(best[2])
        for i, j in relocations:
            moved = base[:i] + base[i + 1 :]
            moved.insert(j, base[i])
            if moved != base and (key := _best_path_for_order(instance, tuple(moved))) < best:
                best = key
                break
        else:
            return _assignment(instance, best)
