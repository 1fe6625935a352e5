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
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .stats import (
    EpsilonPolicy,
    PairCounts,
    StatKind,
    _as_policy,
    _pair_counts,
    _stat_from_arrays,
)


class ScoreMatrix:
    """Sparse mapping (system_id, segment_id) -> finite score."""

    __slots__ = ("_entries", "_aligned")

    def __init__(self, entries: Mapping[tuple[str, str], float] |
                 Iterable[tuple[str, str, float]] = ()):
        self._entries: dict[tuple[str, str], float] = {}
        self._aligned: dict[GroupingMode, tuple] = {}  # align's human side, per mode
        if isinstance(entries, Mapping):
            for (system, segment), score in entries.items():
                self.add(system, segment, score)
        else:
            for system, segment, score in entries:
                self.add(system, segment, score)

    @classmethod
    def _from_checked(cls, entries: dict[tuple[str, str], float]) -> "ScoreMatrix":
        """Wrap ``entries``, whose keys are pairs of str and whose values are
        finite floats, without checking them again."""
        matrix = cls()
        matrix._entries = entries
        return matrix

    def add(self, system: str, segment: str, score: float) -> None:
        key = (str(system), str(segment))
        value = float(score)
        if not math.isfinite(value):
            raise ValueError(f"non-finite score for {key}: {score!r}")
        if key in self._entries:
            raise ValueError(f"duplicate entry for system={key[0]!r} segment={key[1]!r}")
        self._entries[key] = value
        self._aligned.clear()

    @property
    def systems(self) -> tuple[str, ...]:
        """Distinct system ids in first-seen order."""
        return tuple(dict.fromkeys(system for system, _ in self._entries))

    @property
    def segments(self) -> tuple[str, ...]:
        """Distinct segment ids in first-seen order."""
        return tuple(dict.fromkeys(segment for _, segment in self._entries))

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
                f"{len(self.systems)} systems, {len(self.segments)} segments)")


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


class Aligned(NamedTuple):
    """Paired scores split into groups, in the layout the pair kernel reads:
    the groups' human and metric vectors concatenated, and their sizes."""

    human: np.ndarray
    metric: np.ndarray
    sizes: np.ndarray


def _human_side(human: ScoreMatrix, mode: GroupingMode
                ) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """Every human key in align's order, the human vector and each key's
    group index; computed once per matrix and mode."""
    side = human._aligned.get(mode)
    if side is None:
        keys = sorted(human._entries)  # often already sorted, which keeps the sort cheap
        if mode is GroupingMode.NO_GROUPING:
            sizes = [len(keys)]
        else:
            group_of = itemgetter(1 if mode is GroupingMode.GROUP_BY_ITEM else 0)
            keys.sort(key=group_of)  # stable: (system, segment) order inside each group
            sizes = [len(list(run)) for _, run in groupby(keys, group_of)]
        side = human._aligned[mode] = (
            keys, np.fromiter(map(human._entries.__getitem__, keys), np.float64, len(keys)),
            np.repeat(np.arange(len(sizes)), sizes))
    return side


def align(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode) -> Aligned:
    """Pair up scores present in both matrices and split them into groups.

    Only (system, segment) keys present in both matrices contribute.  Groups
    are ordered by id and the entries inside each by (system, segment), so
    the output is independent of insertion order.  Groups with a single
    aligned entry are still emitted; they simply produce zero pairs.  The
    human side is ordered once per matrix and mode; each metric then costs
    one lookup per human key.
    """
    keys, h, group = _human_side(human, mode)
    # NaN marks a missing key: matrices hold finite scores only
    m = np.fromiter(map(metric._entries.get, keys, repeat(np.nan)), np.float64, len(keys))
    common = ~np.isnan(m)
    sizes = np.bincount(group[common])
    return Aligned(h[common], m[common], sizes[sizes > 0])


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


def _tau_c_contexts(aligned: Aligned) -> np.ndarray:
    """TAU_C's (k, n) for every group, as a (2, groups) int64 array: k is
    the smaller count of distinct values, each side counted from one sort
    by (group, value)."""
    group = np.repeat(np.arange(aligned.sizes.size), aligned.sizes)

    def distinct(values: np.ndarray) -> np.ndarray:
        v = values[np.lexsort((values, group))]
        new = np.ones(v.size, dtype=bool)
        new[1:] = (v[1:] != v[:-1]) | (group[1:] != group[:-1])  # -0.0 == 0.0, as in np.unique
        return np.bincount(group[new], minlength=aligned.sizes.size)

    return np.stack([np.minimum(distinct(aligned.human), distinct(aligned.metric)),
                     aligned.sizes])


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
    return _reports(align(human, metric, mode), mode, kinds, _as_policy(eps))


def _reports(aligned: Aligned, mode: GroupingMode, kinds: Sequence[StatKind],
             pol: EpsilonPolicy) -> list[CorrelationReport]:
    """:func:`grouped_stats` on scores already aligned under ``mode``."""
    counts = _pair_counts(*aligned, pol)
    k, n = _tau_c_contexts(aligned) if StatKind.TAU_C in kinds else (None, None)
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
            groups_total=aligned.sizes.size,
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
