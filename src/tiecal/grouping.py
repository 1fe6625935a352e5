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
from array import array
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .stats import (
    EpsilonPolicy,
    PairCounts,
    StatKind,
    _kernel_sized,
    _pair_counts,
    _stat_from_arrays,
    _tau_c_contexts,
)


class ScoreMatrix:
    """Sparse mapping (system_id, segment_id) -> finite score, fixed once
    built and stored as columns in insertion order: a key list (system ids,
    segment ids), which ``with_scores`` shares, and a float64 score array.
    The key -> row index is built on first lookup."""

    __slots__ = ("_keys", "_scores", "_index", "_aligned")

    def __init__(self, entries: Mapping[tuple[str, str], float] |
                 Iterable[tuple[str, str, float]] = ()):
        if isinstance(entries, Mapping):
            entries = ((system, segment, score) for (system, segment), score in entries.items())
        self._keys: tuple[list[str], list[str]] = ([], [])
        self._scores = array("d")
        self._index: dict[tuple[str, str], int] | None = {}
        self._aligned: dict[GroupingMode, tuple] = {}  # align's human side, per mode
        for system, segment, score in entries:
            key, value = (str(system), str(segment)), float(score)
            if not math.isfinite(value):
                raise ValueError(f"non-finite score for {key}: {score!r}")
            if key in self._index:
                raise ValueError(f"duplicate entry for system={key[0]!r} segment={key[1]!r}")
            self._index[key] = len(self._scores)
            self._keys[0].append(key[0])
            self._keys[1].append(key[1])
            self._scores.append(value)

    @classmethod
    def _from_columns(cls, keys: tuple[list[str], list[str]], scores: array) -> "ScoreMatrix":
        """Wrap unique (system, segment) columns of str and their finite
        scores without checking them again."""
        matrix = cls()
        matrix._keys, matrix._scores, matrix._index = keys, scores, None
        return matrix

    def with_scores(self, scores: array) -> "ScoreMatrix":
        """A matrix on this matrix's key list with ``scores``, an array("d")
        of one finite score per row."""
        if len(scores) != len(self) or not np.isfinite(np.frombuffer(scores)).all():
            raise ValueError(f"expected {len(self)} finite scores")
        return ScoreMatrix._from_columns(self._keys, scores)

    def _lookup(self) -> dict[tuple[str, str], int]:
        if self._index is None:
            self._index = dict(zip(self.keys(), range(len(self))))
        return self._index

    def scores(self) -> np.ndarray:
        return np.array(self._scores, dtype=np.float64)

    def items(self) -> Iterator[tuple[str, str, float]]:
        return zip(*self._keys, self._scores)

    def keys(self) -> Iterator[tuple[str, str]]:
        return zip(*self._keys)

    def __len__(self) -> int:
        return len(self._scores)

    def __repr__(self) -> str:
        return (f"ScoreMatrix({len(self)} entries, "
                f"{len(set(self._keys[0]))} systems, {len(set(self._keys[1]))} segments)")


class GroupingMode(enum.Enum):
    """How paired scores are split into groups before correlating."""

    NO_GROUPING = "no-grouping"
    GROUP_BY_ITEM = "group-by-item"
    GROUP_BY_SYSTEM = "group-by-system"


class Aligned(NamedTuple):
    """Paired scores split into groups, in the layout the pair kernel reads:
    the groups' human and metric vectors concatenated, sizes and pair layout."""

    human: np.ndarray
    metric: np.ndarray
    sizes: np.ndarray
    pairs: list | None = None


def _human_side(human: ScoreMatrix, mode: GroupingMode
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list | None]:
    """The rows of the human matrix in align's order, the human vector, each
    row's group index, the group sizes (all read-only) and their pair layout
    (None unless the kernel counts them, else filled on first use), per mode."""
    side = human._aligned.get(mode)
    if side is None:
        keys = list(human.keys())
        rows = sorted(range(len(keys)), key=keys.__getitem__)  # often sorted already
        if mode is GroupingMode.NO_GROUPING:
            sizes = [len(rows)]
        else:
            column = human._keys[1 if mode is GroupingMode.GROUP_BY_ITEM else 0]
            rows.sort(key=column.__getitem__)  # stable: (system, segment) order inside each group
            sizes = [len(list(run)) for _, run in groupby(rows, column.__getitem__)]
        order = np.array(rows, dtype=np.intp)
        group = np.repeat(np.arange(len(sizes)), sizes)
        side = order, np.frombuffer(human._scores)[order], group, np.bincount(group)
        for part in side:
            part.flags.writeable = False
        human._aligned[mode] = side = (*side, [] if _kernel_sized(side[3]) else None)
    return side


def align(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode) -> Aligned:
    """Pair up scores present in both matrices and split them into groups.

    Only (system, segment) keys present in both matrices contribute.  Groups
    are ordered by id and the entries inside each by (system, segment), so
    the output is independent of insertion order.  Groups with a single
    aligned entry are still emitted; they simply produce zero pairs.  The
    human side is ordered once per matrix and mode.  A metric on the human's
    own key list then costs one positional take, and shares the human
    vector and sizes, read-only; any other metric costs one lookup of each
    of its keys in the human's index.  Only the former shares the human
    side's pair layout.
    """
    order, h, group, sizes, pairs = _human_side(human, mode)
    scores = np.frombuffer(metric._scores)
    if metric._keys is human._keys:  # the same rows: every key is common
        return Aligned(h, scores[order], sizes, pairs)
    found = np.fromiter(map(human._lookup().get, metric.keys(), repeat(-1)), np.intp,
                        len(metric))  # each metric row's human row, or -1
    at = np.full(len(human), -1, dtype=np.intp)  # each human row's metric row, or -1
    at[found[found >= 0]] = np.flatnonzero(found >= 0)
    at = at[order]
    common = at >= 0
    sizes = np.bincount(group[common])
    return Aligned(h[common], scores[at[common]], sizes[sizes > 0])


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


def grouped_stats(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode,
                  kinds: Sequence[StatKind], eps: EpsilonPolicy = EpsilonPolicy()
                  ) -> list[CorrelationReport]:
    """Compute statistics under a grouping mode with full NaN accounting.

    One pass classifies every within-group pair; each statistic is then
    evaluated on the per-group counts, giving one report per entry of
    ``kinds``.  Grouped modes return the unweighted mean over groups whose
    statistic is defined; NO_GROUPING evaluates the pooled vectors
    directly.  Undefined results are reported as value None, never raised.
    """
    return _reports(align(human, metric, mode), mode, kinds, eps)


def _reports(aligned: Aligned, mode: GroupingMode, kinds: Sequence[StatKind],
             pol: EpsilonPolicy) -> list[CorrelationReport]:
    """:func:`grouped_stats` on scores already aligned under ``mode``."""
    counts = _pair_counts(*aligned[:3], pol, aligned.pairs)
    k, n = _tau_c_contexts(*aligned[:3]) if StatKind.TAU_C in kinds else (None, None)
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


def bucketize(metric: ScoreMatrix, k: int) -> ScoreMatrix:
    """Map every score to one of ``k`` equal-width buckets over the global range.

    Bucket index is min(k - 1, floor((s - lo) / (hi - lo) * k)) with lo/hi
    the global extremes of the matrix; an empty or constant matrix maps to
    all zeros, and a range beyond the float range raises ValueError.
    """
    if k < 1:
        raise ValueError(f"bucket count must be >= 1, got {k}")
    values = metric.scores()
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    if not math.isfinite(hi - lo):
        raise ValueError(f"cannot bucketize scores from {lo!r} to {hi!r}: their range "
                         "overflows a float")
    if hi == lo:
        buckets = np.zeros_like(values)
    else:  # + 0.0: a score of -0.0 above a minimum of 0.0 gets bucket 0.0, not -0.0
        buckets = np.minimum(k - 1, np.floor((values - lo) / (hi - lo) * k)) + 0.0
    return metric.with_scores(array("d", buckets.tobytes()))
