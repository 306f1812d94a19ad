"""Deterministic batch-gradient-descent logistic regression, and its saved form.

Deliberately tiny: both classifiers in this package need reproducible,
zero-initialised fits on small feature matrices, which rules out stochastic
solvers and makes an external dependency pointless.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataError, read_json


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    *,
    learning_rate: float,
    epochs: int,
    l2: float = 0.0,
    tolerance: float | None = None,
) -> tuple[np.ndarray, float]:
    """Fit weights and bias by full-batch gradient descent from zero.

    Stops early when the mean log-loss improves by less than ``tolerance``
    between epochs. The bias is not regularised.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, dim = X.shape
    weights = np.zeros(dim)
    bias = 0.0
    previous_loss = None
    for _ in range(epochs):
        p = sigmoid(X @ weights + bias)
        error = p - y
        grad_w = X.T @ error / n + l2 * weights
        grad_b = float(np.sum(error)) / n
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
        if tolerance is not None:
            eps = 1e-12
            loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
            if previous_loss is not None and abs(previous_loss - loss) < tolerance:
                break
            previous_loss = loss
    return weights, bias


class LogisticModel:
    """Weights and a bias saved as versioned JSON. A subclass sets ``VERSION``,
    ``RETRAIN`` (the command that writes the file) and ``n_features``, the length
    of every vector it holds; it adds keys in ``_fields``, read by ``_extra_args``."""

    def __init__(self, weights: np.ndarray, bias: float) -> None:
        self.weights = weights
        self.bias = bias

    def _fields(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": self.VERSION, **self._fields()}, handle)

    @classmethod
    def load(cls, path: str):
        """Read a saved model; a malformed file raises DataError naming it."""
        return read_json(path, cls._parse, DataError, f"rerun {cls.RETRAIN}")

    @classmethod
    def _parse(cls, payload: dict):
        if payload["version"] != cls.VERSION:
            raise ValueError(f"unsupported version {payload['version']!r}; expected {cls.VERSION}")
        weights = np.asarray(payload["weights"], dtype=np.float64)
        model = cls(weights, float(payload["bias"]), *cls._extra_args(payload))
        for name, value in vars(model).items():
            if isinstance(value, np.ndarray) and value.shape != (model.n_features,):
                raise ValueError(f"{name} has shape {value.shape}; expected ({model.n_features},)")
        return model
