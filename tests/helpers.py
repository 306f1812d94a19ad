"""Test doubles shared by several test modules."""


class CountingOracle:
    """Wraps a HopOracle and counts distance evaluations."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.graph = oracle.graph
        self.cap = oracle.cap
        self.calls = 0

    def distance_by_id(self, a, b):
        self.calls += 1
        return self._oracle.distance_by_id(a, b)
