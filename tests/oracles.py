"""Independent brute-force oracles the main code is checked against.

Everything here is deliberately naive and shares no code path with the
package: plain BFS over adjacency built from scratch, full enumeration of
clustered routes (cost only, or the whole tie-broken route key), a literal
double-loop feature recount, a per-arc Noon-Bean reduction, and a bitmask
dynamic program for exact asymmetric tours. The one exception is
``per_pair_hop_block``, which asks a real oracle one pair at a time: it is
the rule the package's row-gathering ``hop_block`` must keep, rows built
included.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations, product

import numpy as np


def all_pairs_bfs(adjacency: list[list[int]]) -> list[list[int]]:
    """Unbounded all-pairs shortest hop counts; -1 where unreachable."""
    n = len(adjacency)
    table = [[-1] * n for _ in range(n)]
    for source in range(n):
        dist = table[source]
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return table


def enumerate_gtsp(cost: np.ndarray, clusters: list[list[int]], cycle: bool = False):
    """Minimum route cost over every selection and every cluster order."""
    best = None
    for order in permutations(range(len(clusters))):
        for selection in product(*(clusters[c] for c in order)):
            total = sum(
                float(cost[selection[i], selection[i + 1]])
                for i in range(len(selection) - 1)
            )
            if cycle and len(selection) > 1:
                total += float(cost[selection[-1], selection[0]])
            if best is None or total < best:
                best = total
    return best


def enumerate_gtsp_argmin(cost: np.ndarray, clusters: list[list[int]], uris: list[str]):
    """Least (cost, uri sequence, cluster order, node sequence) over every order and selection.

    Costs are summed left to right along the route. Returns that key.
    """
    best = None
    for order in permutations(range(len(clusters))):
        for route in product(*(clusters[c] for c in order)):
            total = 0.0
            for a, b in zip(route, route[1:]):
                total += float(cost[a, b])
            key = (total, tuple(uris[n] for n in route), order, route)
            if best is None or key < best:
                best = key
    return best


def noon_bean_matrix(cost: np.ndarray, clusters: list[list[int]]) -> np.ndarray:
    """The Noon-Bean ATSP cost matrix, written one arc at a time.

    ATSP nodes are the (cluster, member) pairs in cluster order. Each
    cluster's nodes form a zero-cost cycle; the arc from a node to a node of
    another cluster costs M = cost.sum() + 1 plus the original cost from its
    cycle successor; every other arc costs (clusters + 1) * M.
    """
    nodes = [node for members in clusters for node in members]
    n = len(nodes)
    offset = float(cost.sum()) + 1.0
    matrix = np.full((n, n), (len(clusters) + 1) * offset, dtype=np.float64)
    positions = []
    start = 0
    for members in clusters:
        positions.append(list(range(start, start + len(members))))
        start += len(members)
    for cluster_id, ids in enumerate(positions):
        r = len(ids)
        if r > 1:
            for j in range(r):
                matrix[ids[j], ids[(j + 1) % r]] = 0.0
        for j in range(r):
            source = ids[(j - 1) % r]  # arcs leave from the cycle predecessor
            u = nodes[ids[j]]
            for other_cluster, other_ids in enumerate(positions):
                if other_cluster == cluster_id:
                    continue
                for v_id in other_ids:
                    matrix[source, v_id] = float(cost[u, nodes[v_id]]) + offset
    return matrix


def held_karp_atsp(cost: np.ndarray) -> float:
    """Exact minimum tour cost of an asymmetric TSP via bitmask DP."""
    n = int(cost.shape[0])
    if n == 1:
        return 0.0
    if n == 2:
        return float(cost[0, 1] + cost[1, 0])
    full = 1 << n
    dp = np.full((full, n), np.inf)
    dp[1, 0] = 0.0
    for mask in range(1, full):
        if not mask & 1:
            continue
        row = dp[mask]
        if not np.isfinite(row).any():
            continue
        reach = np.min(np.where(np.isfinite(row)[:, None], row[:, None] + cost, np.inf), axis=0)
        for j in range(1, n):
            if mask & (1 << j):
                continue
            nxt = mask | (1 << j)
            if reach[j] < dp[nxt, j]:
                dp[nxt, j] = reach[j]
    last = dp[full - 1] + cost[:, 0]
    return float(np.min(last[1:]))


def naive_density(lists_of_nodes, hop_table, cap):
    """Literal double-loop recount of connection and hop counts.

    ``lists_of_nodes`` holds graph node ids per keyword list; ``hop_table``
    is an unbounded all-pairs distance table. Distances above ``cap`` (or
    unreachable pairs) count as disconnected and contribute cap + 1 hops.
    """
    n = len(lists_of_nodes)
    connect = [[0] * len(lst) for lst in lists_of_nodes]
    hops = [[0] * len(lst) for lst in lists_of_nodes]
    for a in range(n):
        for b in range(n):
            if a >= b:
                continue
            for i, u in enumerate(lists_of_nodes[a]):
                for j, v in enumerate(lists_of_nodes[b]):
                    d = hop_table[u][v] if u is not None and v is not None else -1
                    if d == -1 or d > cap:
                        d_eff = -1
                    else:
                        d_eff = d
                    if d_eff != -1 and d_eff <= 2:
                        connect[a][i] += 1
                        connect[b][j] += 1
                    contribution = d_eff if d_eff != -1 else cap + 1
                    hops[a][i] += contribution
                    hops[b][j] += contribution
    c_features = [[value / n for value in row] for row in connect]
    h_features = [[value / n for value in row] for row in hops]
    return c_features, h_features


def per_pair_hop_block(oracle, ids_a, ids_b) -> np.ndarray:
    """Hop block by one ``oracle.distance_by_id`` call per pair."""
    rows = [[oracle.distance_by_id(a, b) for b in ids_b] for a in ids_a]
    return np.array(rows, dtype=np.int64).reshape(len(ids_a), len(ids_b))
