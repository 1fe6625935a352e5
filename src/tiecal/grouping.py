"""Score matrices, segment-level grouping, and grouped statistics.

A campaign is a sparse matrix of (system, segment) scores.  A statistic can
be computed over the pooled scores, per source segment, or per system; the
grouped variants average the per-group values over the groups where the
statistic is defined, and the report discloses how many groups were
dropped because their value was undefined.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .stats import (
    EpsilonPolicy,
    PairCounts,
    StatKind,
    _as_policy,
    _pair_counts,
    _stat_from_arrays,
    tau_c_context,
)


class ScoreMatrix:
    """Sparse mapping (system_id, segment_id) -> finite score."""

    __slots__ = ("_entries", "_systems", "_segments")

    def __init__(self, entries: Mapping[tuple[str, str], float] |
                 Iterable[tuple[str, str, float]] = ()):
        self._entries: dict[tuple[str, str], float] = {}
        self._systems: dict[str, None] = {}
        self._segments: dict[str, None] = {}
        if isinstance(entries, Mapping):
            for (system, segment), score in entries.items():
                self.add(system, segment, score)
        else:
            for system, segment, score in entries:
                self.add(system, segment, score)

    def add(self, system: str, segment: str, score: float) -> None:
        key = (str(system), str(segment))
        value = float(score)
        if not math.isfinite(value):
            raise ValueError(f"non-finite score for {key}: {score!r}")
        if key in self._entries:
            raise ValueError(f"duplicate entry for system={key[0]!r} segment={key[1]!r}")
        self._entries[key] = value
        self._systems[key[0]] = None
        self._segments[key[1]] = None

    @property
    def systems(self) -> tuple[str, ...]:
        return tuple(self._systems)

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self._segments)

    def get(self, system: str, segment: str, default: float | None = None) -> float | None:
        return self._entries.get((system, segment), default)

    def scores(self) -> np.ndarray:
        return np.fromiter(self._entries.values(), dtype=np.float64, count=len(self._entries))

    def items(self) -> Iterator[tuple[str, str, float]]:
        for (system, segment), score in self._entries.items():
            yield system, segment, score

    def keys(self) -> Iterator[tuple[str, str]]:
        return iter(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return (f"ScoreMatrix({len(self._entries)} entries, "
                f"{len(self._systems)} systems, {len(self._segments)} segments)")


class GroupingMode(enum.Enum):
    """How paired scores are split into groups before correlating."""

    NO_GROUPING = "no-grouping"
    GROUP_BY_ITEM = "group-by-item"
    GROUP_BY_SYSTEM = "group-by-system"

    @classmethod
    def parse(cls, name: str) -> "GroupingMode":
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown grouping mode {name!r} (known: {known})") from None


AlignedGroup = tuple[str, np.ndarray, np.ndarray]


def align(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode) -> list[AlignedGroup]:
    """Pair up scores present in both matrices and split them into groups.

    Only (system, segment) keys present in both matrices contribute.  Group
    ids and the entries inside each group are ordered lexicographically, so
    the output is independent of insertion order.  Groups with a single
    aligned entry are still emitted; they simply produce zero pairs.
    """
    common = sorted(key for key in human.keys() if key in metric)

    def vectors(keys: list[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
        h = np.array([human.get(*k) for k in keys], dtype=np.float64)
        m = np.array([metric.get(*k) for k in keys], dtype=np.float64)
        return h, m

    if mode is GroupingMode.NO_GROUPING:
        if not common:
            return []
        h, m = vectors(common)
        return [("all", h, m)]

    index = 1 if mode is GroupingMode.GROUP_BY_ITEM else 0
    grouped: dict[str, list[tuple[str, str]]] = {}
    for key in common:
        grouped.setdefault(key[index], []).append(key)
    out: list[AlignedGroup] = []
    for group_id in sorted(grouped):
        h, m = vectors(grouped[group_id])
        out.append((group_id, h, m))
    return out


@dataclass(frozen=True)
class CorrelationReport:
    """A statistic value plus the group and pair accounting behind it.

    ``groups_used`` counts the groups whose statistic was defined;
    ``pairs_by_class`` sums pair counts over those groups only, while
    ``pairs_total`` covers every aligned group.
    """

    kind: StatKind
    mode: GroupingMode
    epsilon: EpsilonPolicy
    value: float | None
    groups_total: int
    groups_used: int
    pairs_total: int
    pairs_by_class: PairCounts


def mean_defined(values: np.ndarray) -> float | None:
    """Mean over the non-NaN entries of ``values``; None if there are none.

    The calibration sweep aggregates per-group values with this same
    reduction, so its argmax agrees with a batch re-evaluation to the ulp.
    """
    defined = int(np.count_nonzero(~np.isnan(values)))
    return float(np.nansum(values) / defined) if defined else None


def _flatten(groups: list[AlignedGroup]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The groups' human and metric vectors concatenated, and their sizes."""
    h = np.concatenate([h for _, h, _ in groups] + [np.empty(0)])
    m = np.concatenate([m for _, _, m in groups] + [np.empty(0)])
    return h, m, [hg.size for _, hg, _ in groups]


def _tau_c_contexts(groups: list[AlignedGroup]) -> np.ndarray:
    """TAU_C's (k, n) for every group, as a (2, groups) int64 array."""
    return np.array([tau_c_context(h, m) for _, h, m in groups],
                    dtype=np.int64).reshape(-1, 2).T


def grouped_stats(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode,
                  kinds: Sequence[StatKind], eps: EpsilonPolicy | float = 0.0
                  ) -> list[CorrelationReport]:
    """Compute statistics under a grouping mode with full NaN accounting.

    One pass classifies every within-group pair; each statistic is then
    evaluated on the per-group counts, giving one report per entry of
    ``kinds``.  Grouped modes return the unweighted mean over groups whose
    statistic is defined; NO_GROUPING evaluates the pooled vectors
    directly.  Undefined results are reported as value None, never raised.
    """
    pol = _as_policy(eps)
    groups = align(human, metric, mode)
    counts = _pair_counts(*_flatten(groups), pol)
    k, n = _tau_c_contexts(groups) if StatKind.TAU_C in kinds else (None, None)
    reports = []
    for kind in kinds:
        values = _stat_from_arrays(kind, *counts.T, k, n)
        used = ~np.isnan(values)
        groups_used = int(np.count_nonzero(used))
        reports.append(CorrelationReport(
            kind=kind,
            mode=mode,
            epsilon=pol,
            value=mean_defined(values),
            groups_total=len(groups),
            groups_used=groups_used,
            pairs_total=int(counts.sum()),
            pairs_by_class=PairCounts(*counts[used].sum(axis=0).tolist()),
        ))
    return reports


def grouped_stat(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode,
                 kind: StatKind, eps: EpsilonPolicy | float = 0.0) -> CorrelationReport:
    """:func:`grouped_stats` for a single statistic."""
    return grouped_stats(human, metric, mode, [kind], eps)[0]


def bucketize(metric: ScoreMatrix, k: int) -> ScoreMatrix:
    """Map every score to one of ``k`` equal-width buckets over the global range.

    Bucket index is min(k - 1, floor((s - lo) / (hi - lo) * k)) with lo/hi
    the global extremes of the matrix; a constant matrix maps to all zeros.
    """
    if k < 1:
        raise ValueError(f"bucket count must be >= 1, got {k}")
    if len(metric) == 0:
        raise ValueError("cannot bucketize an empty matrix")
    values = metric.scores()
    lo = float(values.min())
    hi = float(values.max())
    out = ScoreMatrix()
    for system, segment, score in metric.items():
        if hi == lo:
            bucket = 0
        else:
            t = (score - lo) / (hi - lo)
            bucket = min(k - 1, math.floor(t * k))
        out.add(system, segment, float(bucket))
    return out
