"""Declarative descriptions of sweep work.

A :class:`TrialSpec` is the schedulable unit of an experiment: one
top-level trial function applied to one picklable parameter dict and
one seed.  A :class:`SweepSpec` fans a parameter grid × seed list into
trials.  Both are pure descriptions — executing them (serially, in a
process pool, against a cache) is the runner's job.

Determinism contract: a sweep enumerates its trials in grid-major,
seed-minor order, and the runner reduces results in exactly that order,
so ``--jobs N`` produces byte-identical tables to serial execution.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence

import repro

#: Bump when the meaning of cached trial results changes (new fields,
#: changed units, renamed metrics) so stale on-disk entries are ignored.
CACHE_SCHEMA_VERSION = 1

#: A trial function: ``(params, seed) -> JSON-serializable result``.
#: Must be a top-level function so it pickles by reference into worker
#: processes; must derive all randomness from ``seed``.
TrialFn = Callable[[Dict[str, Any], int], Any]


def canonical_params(params: Mapping[str, Any]) -> str:
    """Canonical JSON encoding of a parameter dict.

    Keys are sorted and tuples collapse to JSON lists, so two dicts that
    describe the same trial produce the same cache key regardless of
    construction order or sequence type.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def trial_name(trial: TrialFn) -> str:
    """Stable import path of a trial function (part of the cache key)."""
    return f"{trial.__module__}:{trial.__qualname__}"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """A digest of the whole ``repro`` source tree, part of every cache
    key: any code edit invalidates existing entries, so a cached table
    can never silently quote results from before a fix.  Computed once
    per process (~100 files)."""
    root = Path(repro.__file__).resolve().parent
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


@dataclass
class TrialSpec:
    """One schedulable, cacheable unit of experiment work."""

    experiment_id: str
    trial: TrialFn
    params: Dict[str, Any]
    seed: int

    def cache_key(self) -> str:
        """SHA-256 identity of this trial for the on-disk result cache.

        Keyed by ``(experiment_id, trial function, canonical params,
        seed, cache-schema version, source-tree fingerprint)`` —
        everything that determines the result, given deterministic
        trial functions.
        """
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "code": code_fingerprint(),
                "experiment_id": self.experiment_id,
                "trial": trial_name(self.trial),
                "params": json.loads(canonical_params(self.params)),
                "seed": self.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class SweepSpec:
    """A parameter grid × seed list, fanned into :class:`TrialSpec` units.

    ``grid`` is a sequence of parameter dicts (one per sweep point);
    every point runs once per seed, as given.
    """

    experiment_id: str
    trial: TrialFn
    grid: Sequence[Dict[str, Any]]
    seeds: Sequence[int]

    def trials(self) -> List[TrialSpec]:
        """Fan out: grid-major, seed-minor, deterministic order."""
        seeds = [int(seed) for seed in self.seeds]
        return [
            TrialSpec(self.experiment_id, self.trial, dict(params), seed)
            for params in self.grid
            for seed in seeds
        ]

    def group(self, results: Sequence[Any]) -> List[List[Any]]:
        """Chunk flat trial results back into one list per grid point."""
        per_point = len(self.seeds)
        expected = per_point * len(self.grid)
        if len(results) != expected:
            raise ValueError(
                f"sweep {self.experiment_id!r} expects {expected} results "
                f"({len(self.grid)} points x {per_point} seeds), got {len(results)}"
            )
        return [
            list(results[index:index + per_point])
            for index in range(0, expected, per_point)
        ]
