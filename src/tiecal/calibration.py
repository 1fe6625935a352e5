"""Tie calibration: sweep candidate thresholds to maximize a statistic.

The statistic induced by a gap-threshold tie rule is a step function that
only changes at observed pair gaps, so the candidate set is exactly zero
plus every distinct within-group gap.  Passing a pair's gap moves the pair
from its zero-threshold class (concordant, discordant or tied-human) to
tied-metric or tied-both.  Restarting cumulative sums over the moves in
(group, gap) order give each group's counts and value after each move; the
value changes, summed in gap order, give the grouped mean at every
candidate up to last-ulp drift.  Candidates within a stated rounding bound
of the best are replayed exactly, in ascending order, with the reduction
``grouped_stat`` uses, so ties in the maximum resolve to the smallest
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .grouping import (
    AlignedGroup,
    CorrelationReport,
    GroupingMode,
    ScoreMatrix,
    _flatten,
    _tau_c_contexts,
    align,
    grouped_stat,
    mean_defined,
)
from .stats import (
    _CONC,
    _DISC,
    _TIED_BOTH,
    _TIED_H,
    _TIED_M,
    EpsilonMode,
    EpsilonPolicy,
    PairCounts,
    StatKind,
    _as_policy,
    _pair_blocks,
    _stat_from_arrays,
)

CheckpointHook = Callable[[float, list[PairCounts], "float | None"], None]


@dataclass(frozen=True)
class CalibrationConfig:
    """What to maximize and how to search.

    ``sample_fraction`` = 1 sweeps every distinct gap; smaller values draw
    that fraction of pairs (without replacement, seeded) as threshold
    candidates, while each candidate is still evaluated on all pairs.
    """

    kind: StatKind = StatKind.ACC_EQ
    mode: GroupingMode = GroupingMode.GROUP_BY_ITEM
    eps_mode: EpsilonMode = EpsilonMode.ABSOLUTE
    sample_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.sample_fraction <= 1.0):
            raise ValueError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")


@dataclass(frozen=True)
class CalibrationResult:
    """The chosen threshold and the statistic it achieves."""

    epsilon_star: float
    stat_star: float | None
    candidates_evaluated: int
    exact: bool
    config: CalibrationConfig
    report: CorrelationReport


def _pairs(groups: list[AlignedGroup], eps_mode: EpsilonMode, *, midpoints: bool = False
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The pair kernel's blocks at threshold zero, concatenated: every
    within-group pair's gap, group, class and, on request, midpoint."""
    empty = (np.empty(0), np.empty(0, np.int32), np.empty(0, np.int8), np.empty(0))
    columns = list(zip(empty, *_pair_blocks(*_flatten(groups), EpsilonPolicy(0.0, eps_mode),
                                            midpoints=midpoints)))
    gap, group, cls0 = (np.concatenate(column) for column in columns[:3])
    return gap, group, cls0, np.concatenate(columns[3]) if midpoints else None


def _moves(gap: np.ndarray, group: np.ndarray, cls0: np.ndarray, n_groups: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-group counts at threshold zero, then the gap, group and class of
    the pairs a positive threshold can tie, stably sorted by gap."""
    counts = np.bincount(group * 5 + cls0, minlength=5 * n_groups).reshape(n_groups, 5)
    moving = np.flatnonzero(gap > 0.0)
    order = moving[np.argsort(gap[moving], kind="stable")]
    return counts, gap[order], group[order], cls0[order]


def _replay(counts: np.ndarray, grp: np.ndarray, src: np.ndarray,
            ends: Sequence[int]) -> Iterator[np.ndarray]:
    """Apply the gap-ordered moves to ``counts`` in place, up to each
    ascending prefix length in ``ends``; yields the groups each step touched."""
    start = 0
    for end in ends:
        g, s = grp[start:end], src[start:end]
        np.subtract.at(counts, (g, s), 1)
        np.add.at(counts, (g, np.where(s == _TIED_H, _TIED_BOTH, _TIED_M)), 1)
        start = end
        yield np.unique(g)


def _value_changes(kind: StatKind, counts: np.ndarray, grp: np.ndarray, src: np.ndarray,
                   start_values: np.ndarray, contexts: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per gap-ordered move: the change of its group's value (NaN read as 0)
    and of its definedness (+1, 0 or -1)."""
    by_group = np.argsort(grp, kind="stable")
    g = grp[by_group]
    s = src[by_group]
    starts = np.flatnonzero(np.diff(g, prepend=-1))
    lengths = np.diff(np.append(starts, g.size))
    narrow = np.int32 if g.size < 2**31 else np.int64

    def so_far(moved: np.ndarray) -> np.ndarray:  # own-group moves up to here, inclusive
        total = np.cumsum(moved, dtype=narrow)
        return total - np.repeat(total[starts] - moved[starts], lengths)

    at0 = counts.astype(narrow)
    c_out, d_out, h_out = so_far(s == _CONC), so_far(s == _DISC), so_far(s == _TIED_H)
    k, n = (None, None) if contexts is None else contexts[:, g]
    values = _stat_from_arrays(
        kind, at0[g, _CONC] - c_out, at0[g, _DISC] - d_out, at0[g, _TIED_H] - h_out,
        at0[g, _TIED_M] + c_out + d_out, at0[g, _TIED_BOTH] + h_out, k, n)
    del c_out, d_out, h_out, k, n
    before = np.empty_like(values)
    before[1:] = values[:-1]
    before[starts] = start_values[g[starts]]
    defined = np.isnan(before).astype(np.int8) - np.isnan(values)
    np.nan_to_num(values, copy=False)
    values -= np.nan_to_num(before, copy=False)
    del before
    out_values = np.empty_like(values)
    out_values[by_group] = values
    out_defined = np.empty_like(defined)
    out_defined[by_group] = defined
    return out_values, out_defined


def calibrate(human: ScoreMatrix, metric: ScoreMatrix,
              config: CalibrationConfig = CalibrationConfig(), *,
              checkpoint_hook: CheckpointHook | None = None) -> CalibrationResult:
    """Find the tie threshold maximizing the configured statistic.

    Returns the smallest threshold achieving the maximum; the reported
    value is re-verified against a fresh batch evaluation at that
    threshold.  ``checkpoint_hook``, when given, is called at every
    candidate threshold with (epsilon, per-group counts, grouped value).

    Raises ValueError when no group has two aligned entries.
    """
    groups = align(human, metric, config.mode)
    gap, group, cls0, _ = _pairs(groups, config.eps_mode)
    total_pairs = gap.size
    if total_pairs == 0:
        raise ValueError("nothing to calibrate: no group has two aligned entries")

    if config.sample_fraction >= 1.0:
        candidates = np.unique(gap)
        exact = True
    else:
        rng = np.random.default_rng(config.seed)
        size = max(1, int(round(config.sample_fraction * total_pairs)))
        picked = rng.choice(total_pairs, size=size, replace=False)
        candidates = np.unique(gap[picked])
        exact = False
    if candidates.size == 0 or candidates[0] != 0.0:
        candidates = np.concatenate(([0.0], candidates))

    kind = config.kind
    n_groups = len(groups)
    contexts = _tau_c_contexts(groups) if kind is StatKind.TAU_C else None
    counts, gaps, grp, src = _moves(gap, group, cls0, n_groups)
    del gap, group, cls0

    def group_values(rows: np.ndarray | slice) -> np.ndarray:
        k, n = (None, None) if contexts is None else contexts[:, rows]
        return _stat_from_arrays(kind, *counts[rows].T, k, n)

    values = group_values(slice(None))
    start_defined = int(np.count_nonzero(~np.isnan(values)))

    # Approximate grouped mean at every candidate, from cumulative changes.
    d_value, d_defined = _value_changes(kind, counts, grp, src, values, contexts)
    at = np.searchsorted(gaps, candidates, side="right")
    defined = start_defined + np.concatenate(([0], np.cumsum(d_defined, dtype=np.int64)))[at]
    sums = np.nansum(values) + np.concatenate(([0.0], np.cumsum(d_value)))[at]
    del d_value, d_defined
    approx = np.divide(sums, defined, out=np.full(sums.size, np.nan), where=defined > 0)

    picks = np.flatnonzero(defined > 0)
    if checkpoint_hook is not None:
        picks = np.arange(candidates.size)
    elif picks.size:
        # Rounding bound.  Every statistic lies in [-1, 1], so no partial sum
        # of group values or of their changes exceeds M = 2G, and a float sum
        # of N terms with partial sums below M is within N*M*u of exact.  The
        # cumulative path sums G + 2E terms, the exact path G, and each then
        # rounds once more dividing by the defined count.  Twice the summed
        # error keeps the true maximizer.
        u = np.finfo(np.float64).eps / 2
        err = (2 * n_groups + 2 * gaps.size) * 2 * n_groups * u / defined[picks].min() + 2 * u
        picks = picks[approx[picks] >= approx[picks].max() - 2 * err]

    best_eps = 0.0
    best_val: float | None = None
    cand_list = candidates.tolist()
    for pick, touched in zip(picks.tolist(), _replay(counts, grp, src, at[picks])):
        values[touched] = group_values(touched)
        value = mean_defined(values)
        if checkpoint_hook is not None:
            checkpoint_hook(cand_list[pick], [PairCounts(*row) for row in counts.tolist()],
                            value)
        if value is not None and (best_val is None or value > best_val):
            best_val = value
            best_eps = cand_list[pick]

    report = grouped_stat(human, metric, config.mode, kind,
                          EpsilonPolicy(best_eps, config.eps_mode))
    if report.value != best_val:
        raise RuntimeError(
            "calibration sweep disagrees with batch re-evaluation at "
            f"epsilon={best_eps!r}: {best_val!r} vs {report.value!r}")
    return CalibrationResult(
        epsilon_star=float(best_eps),
        stat_star=report.value,
        candidates_evaluated=candidates.size,
        exact=exact,
        config=config,
        report=report,
    )


@dataclass(frozen=True)
class TieHistogram:
    """Binned distribution of per-pair average metric scores.

    ``all_pairs`` counts every within-group pair; ``newly_tied`` counts the
    pairs that are tied under the policy but were not tied at threshold
    zero.  Both share ``bin_edges``.
    """

    bin_edges: np.ndarray
    all_pairs: np.ndarray
    newly_tied: np.ndarray


def tie_location_histogram(human: ScoreMatrix, metric: ScoreMatrix,
                           eps: EpsilonPolicy | float, bins: int,
                           mode: GroupingMode = GroupingMode.NO_GROUPING) -> TieHistogram:
    """Where on the score axis does a threshold introduce ties?

    For every within-group pair the location is the average of its two
    metric scores; the histogram range covers all pairs.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    pol = _as_policy(eps)
    gap, _, _, mid = _pairs(align(human, metric, mode), pol.mode, midpoints=True)
    if gap.size == 0:
        edges = np.linspace(0.0, 1.0, bins + 1)
        zeros = np.zeros(bins, dtype=np.int64)
        return TieHistogram(edges, zeros, zeros.copy())
    all_counts, edges = np.histogram(mid, bins=bins)
    new_counts, _ = np.histogram(mid[(gap > 0.0) & (gap <= pol.epsilon)], bins=edges)
    return TieHistogram(edges, all_counts.astype(np.int64), new_counts.astype(np.int64))


@dataclass(frozen=True)
class F1CurvePoint:
    epsilon: float
    ties_f1: float | None
    rank_f1: float | None
    acc_eq: float | None


def f1_curve(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode,
             eps_grid: Sequence[float],
             eps_mode: EpsilonMode = EpsilonMode.ABSOLUTE) -> list[F1CurvePoint]:
    """Tie-F1, correct-rank-F1, and pairwise accuracy along a threshold grid.

    One pass over the gap-ordered pairs reads the per-group counts out at
    each grid point; values equal ``grouped_stat`` at that point exactly.
    """
    if len(eps_grid) == 0:
        raise ValueError("eps_grid must not be empty")
    grid = sorted(float(e) for e in eps_grid)
    for eps in grid:
        EpsilonPolicy(eps, eps_mode)  # rejects a negative or non-finite threshold
    groups = align(human, metric, mode)
    gap, group, cls0, _ = _pairs(groups, eps_mode)
    counts, gaps, grp, src = _moves(gap, group, cls0, len(groups))
    del gap, group, cls0

    def grouped(kind: StatKind) -> float | None:
        return mean_defined(_stat_from_arrays(kind, *counts.T))

    points = []
    for eps, _ in zip(grid, _replay(counts, grp, src, np.searchsorted(gaps, grid, "right"))):
        points.append(F1CurvePoint(
            epsilon=eps,
            ties_f1=grouped(StatKind.TIES_F1),
            rank_f1=grouped(StatKind.RANK_F1),
            acc_eq=grouped(StatKind.ACC_EQ),
        ))
    return points
