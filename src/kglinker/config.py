"""Run configuration: one JSON file, every CLI flag overrides its key."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .adaptive import DEFAULT_THRESHOLD
from .errors import DataError, read_json
from .kg import MAX_HOP_CAP

STRATEGIES = ("exact", "approx", "density")

# JSON value types accepted per field annotation; a bool is no number here.
_JSON_TYPES = {
    "str": str,
    "int": int,
    "float": (int, float),
    "bool": bool,
    "str | None": (str, type(None)),
}


@dataclass
class PipelineConfig:
    strategy: str = "density"
    k: int = 30
    rank_weight: float = 1.0
    hop_cap: int = 4
    adaptive_threshold: float = DEFAULT_THRESHOLD  # 0 turns adaptive retry off
    gold_spans: bool = False
    gold_injection: bool = False
    seed: int = 0
    er_flip_fraction: float = 0.0  # fault injection for adaptation experiments
    triples: str | None = None
    labels: str | None = None
    expansions: str | None = None
    stopwords: str | None = None
    artifacts: str | None = None

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DataError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.k < 1:
            raise DataError("k must be >= 1")
        if not 2 <= self.hop_cap <= MAX_HOP_CAP:
            raise DataError(f"hop_cap must be in [2, {MAX_HOP_CAP}]: connectivity needs 2 hops")
        if self.rank_weight < 0:
            raise DataError("rank_weight must be >= 0")
        if not 0.0 <= self.er_flip_fraction <= 1.0:
            raise DataError("er_flip_fraction must be in [0, 1]")
        if not 0.0 <= self.adaptive_threshold < 1.0:
            raise DataError("adaptive_threshold must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise DataError("config must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not isinstance(value, _JSON_TYPES[types[key]]) or (
                isinstance(value, bool) and types[key] != "bool"
            ):
                raise DataError(f"config key {key!r} must be {types[key]}, got {value!r}")
        config = cls(**data)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return read_json(path, cls.from_dict, DataError, "expected a JSON object of config keys")

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def artifact_hash(self) -> str:
        """Hash of the settings that shape build products.

        Index, classifier and re-ranker all depend on these; loading
        artifacts under a different value is refused to prevent silent skew.
        """
        payload = json.dumps(
            {"hop_cap": self.hop_cap, "k": self.k, "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
