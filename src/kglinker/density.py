"""Cross-list connectivity features for candidate re-ranking.

For every candidate, two graph features are summed over all candidates in
the *other* keyword lists: how many of them sit within two hops
(connection count) and the capped hop distances to them (hop count). Both
are divided by the number of keyword lists. They are masked row sums of the
question's :func:`~kglinker.kg.cross_hops` matrix, so pairs inside one list
are never compared and each cross-list pair is read once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceError
from .index import Candidate, CandidateList
from .kg import DISCONNECTED, HopOracle, cross_hops

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

    Raises when fewer than two lists are given, since cross-list evidence is
    undefined for a single keyword, and NodeNotFoundError for a candidate
    that is not a graph node.
    """
    n = len(lists)
    if n < 2:
        raise InstanceError("connectivity features need at least 2 candidate lists")
    hops, owner = cross_hops(oracle, lists)
    near = (owner[:, None] != owner) & (hops != DISCONNECTED) & (hops <= CONNECT_THRESHOLD)
    far = np.where(hops == DISCONNECTED, oracle.cap + 1, hops)  # finite beyond the cap
    # Python ints, so the divisions give the same floats as a scalar recount.
    rows = zip(near.sum(axis=1).tolist(), far.sum(axis=1).tolist())
    return [
        [
            DensityFeatures(cand, cand.initial_rank, count / n, total / n)
            for cand, (count, total) in zip(clist.candidates, rows)
        ]
        for clist in lists
    ]
