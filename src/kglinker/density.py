"""Cross-list connectivity features for candidate re-ranking.

For every candidate, two graph features are accumulated over all candidates
in the *other* keyword lists: how many of them sit within two hops
(connection count) and the sum of capped hop distances to them (hop count).
Both are divided by the number of keyword lists. Pairs inside one list are
never compared, and each unordered cross-list pair is evaluated exactly
once, updating both endpoints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InstanceError
from .index import Candidate, CandidateList
from .kg import DISCONNECTED, HopOracle, hop_block

logger = logging.getLogger(__name__)

CONNECT_THRESHOLD = 2


@dataclass(frozen=True)
class DensityFeatures:
    candidate: Candidate
    initial_rank: int
    connection_count: float
    hop_count: float


def compute_features(
    lists: list[CandidateList],
    oracle: HopOracle,
) -> list[list[DensityFeatures]]:
    """Connectivity features for every candidate of every list.

    Candidates that resolve to no graph node are treated as disconnected
    from everything (their pairs are not evaluated against the oracle).
    Raises when fewer than two lists are given, since cross-list evidence is
    undefined for a single keyword.
    """
    n = len(lists)
    if n < 2:
        raise InstanceError("connectivity features need at least 2 candidate lists")
    far = oracle.cap + 1  # finite substitute for pairs beyond the cap

    node_ids: list[list[int | None]] = []
    for clist in lists:
        ids: list[int | None] = []
        for cand in clist.candidates:
            node = oracle.graph.try_node_id(cand.uri, cand.kind)
            if node is None:
                logger.warning("candidate uri %r not in the graph; treated as disconnected", cand.uri)
            ids.append(node)
        node_ids.append(ids)

    connects = [np.zeros(len(ids), dtype=np.int64) for ids in node_ids]
    hop_sums = [np.zeros(len(ids), dtype=np.int64) for ids in node_ids]
    for a in range(n):
        for b in range(a + 1, n):
            d = hop_block(oracle, node_ids[a], node_ids[b])
            near = (d != DISCONNECTED) & (d <= CONNECT_THRESHOLD)
            hops = np.where(d == DISCONNECTED, far, d)
            connects[a] += near.sum(axis=1)
            connects[b] += near.sum(axis=0)
            hop_sums[a] += hops.sum(axis=1)
            hop_sums[b] += hops.sum(axis=0)

    features: list[list[DensityFeatures]] = []
    for clist, counts, sums in zip(lists, connects, hop_sums):
        # Python ints, so the divisions give the same floats as a scalar recount.
        row = [
            DensityFeatures(
                candidate=cand,
                initial_rank=cand.initial_rank,
                connection_count=count / n,
                hop_count=total / n,
            )
            for cand, count, total in zip(clist.candidates, counts.tolist(), sums.tolist())
        ]
        features.append(row)
    return features
