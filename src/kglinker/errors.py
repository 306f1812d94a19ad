"""Exception types shared across the package, and the one guarded JSON read."""

from __future__ import annotations

import json
from typing import Any, Callable


class KglinkerError(Exception):
    """Base class for all package errors."""


class ParseError(KglinkerError):
    """A line-oriented input file could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None, source: str | None = None):
        self.line_number = line_number
        self.source = source
        prefix = ""
        if source is not None:
            prefix += f"{source}:"
        if line_number is not None:
            prefix += f"{line_number}: "
        super().__init__(prefix + message)


class NodeNotFoundError(KglinkerError):
    """An identifier does not name any node of the graph."""


class IndexVersionError(KglinkerError):
    """A persisted index file has an incompatible version header."""


class TrainingError(KglinkerError):
    """Training data is degenerate (single class, too few examples, ...)."""


class InstanceError(KglinkerError):
    """A disambiguation instance could not be built or transformed."""


class TooLargeError(InstanceError):
    """The exact solver's dynamic program would exceed its relaxation budget."""


class ManifestError(KglinkerError):
    """Artifact directory is inconsistent with the requested configuration."""


class DataError(KglinkerError):
    """An input dataset violates a precondition (e.g. missing gold labels)."""


# What reading a malformed JSON document into typed fields raises: bad JSON
# or UTF-8 (ValueError), a missing key, or a value of the wrong shape.
MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def describe(exc: Exception) -> str:
    """One line for a MALFORMED exception; a KeyError names the missing field."""
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def read_json(path, parse: Callable[[Any], Any], error: type[KglinkerError], hint: str) -> Any:
    """Return ``parse`` of the UTF-8 JSON file at ``path``; bad bytes, or a MALFORMED
    exception or an ``error`` from ``parse``, raise ``error`` naming the file, then ``hint``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(json.load(handle))
    except (*MALFORMED, error) as exc:
        problem = "is not valid JSON" if isinstance(exc, json.JSONDecodeError) else "is malformed"
        raise error(f"{path} {problem}: {describe(exc)}; {hint}") from None
