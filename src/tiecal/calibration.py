"""Tie calibration: sweep candidate thresholds to maximize a statistic.

The statistic induced by a gap-threshold tie rule is a step function that
only changes at observed pair gaps, so the candidates are zero and every
distinct within-group gap.  Passing a pair's gap moves it from its class at
zero (concordant, discordant or tied-human) to tied-metric or tied-both.
One pass over the pair kernel keeps the moving pairs.  For acc_eq and
tau_eq a move changes its group's value by a fixed weight, so weight sums
by gap bin bound the value inside each bin, and only the window of bins
that can hold the maximum, a slice of the gaps sorted in place, has its
moves ordered by gap; other statistics take every move.  A walk gives the
grouped mean at every candidate within a stated rounding bound; those near
the best are replayed exactly in ascending order, so ties resolve to the
smallest threshold, and a batch evaluation re-verifies the winner.
"""

from __future__ import annotations

import os
import resource
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .grouping import (
    Aligned,
    CorrelationReport,
    GroupingMode,
    ScoreMatrix,
    _reports,
    align,
    mean_defined,
)
from .stats import (
    EpsilonMode,
    EpsilonPolicy,
    StatKind,
    _fold,
    _midpoints,
    _pair_blocks,
    _stat_from_arrays,
    _tau_c_contexts,
)

# Moves per block of the approximate sweep, and its temporaries' bytes per move.
_SWEEP_MOVES, _MOVE_BYTES = 1 << 14, 256
# Peak bytes per pair of a sweep: the moving pairs' gaps (8 B), a mask (1 B), the
# window's packed group and class (4 B), its gaps' copy and sort permutation (16 B);
# and of the pair layout (stats._pair_blocks) that the sweep may keep.
_SWEEP_BYTES_PER_PAIR, _LAYOUT_BYTES = 32, 13
# Where calibrate's memory guard reads this process's cgroups and their limits.
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")
# A move's change to its group's counts, by its class at threshold zero
# (concordant, discordant, tied-human): it becomes tied-metric or tied-both.
# Row 3, no class, makes a (groups, 4) array indexed by packed moves.
_MOVE = np.array([[-1, 0, 0, 1, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1], [0, 0, 0, 0, 0]])
# A replay step costs about as much as walking this many moves plus one a group.
_REPLAY_STEP_MOVES = 700
# A move's change to its group's value numerator, for the statistics whose group
# value is a fixed row over the counts divided by the group's pair count: a unit
# count row has one pair, so its value is that class's coefficient.
_MOVE_GAINS = {kind: _MOVE @ _stat_from_arrays(kind, *np.eye(5, dtype=np.int64))
               for kind in (StatKind.ACC_EQ, StatKind.TAU_EQ)}
# Bits a gap's float64 pattern drops to give its bin: at most 2**18 bins (2 MiB a
# per-bin array), monotone in the gap, and equal gaps share one.
_BIN_SHIFT = 45


@dataclass(frozen=True)
class CalibrationResult:
    """The batch report at the chosen threshold: ``report.epsilon.epsilon``
    and the maximum, ``report.value``; and the candidates searched."""

    report: CorrelationReport
    candidates_evaluated: int


def _moves(aligned: Aligned, eps_mode: EpsilonMode, total: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the pair kernel at threshold zero, for ``total`` pairs:
    the per-group class counts, and in kernel order the gaps of the pairs a
    positive threshold can tie and each one's ``group << 2 | class``."""
    counts = np.zeros((aligned.sizes.size, 5), dtype=np.int64)
    gaps, packed = np.empty(total), np.empty(total, dtype=np.int32)
    n = 0
    for gap, group, cls, _ in _pair_blocks(*aligned[:3], EpsilonPolicy(0.0, eps_mode),
                                           layout=aligned.pairs):
        _fold(counts, group, cls)
        moving = (gap > 0.0) & (gap < np.inf)  # no threshold ties inf
        moved = gap[moving]
        gaps[n:n + moved.size] = moved
        packed[n:n + moved.size] = ((group << 2) | cls)[moving]
        n += moved.size
    return counts, gaps[:n], packed[:n]


def _window(kind: StatKind, counts: np.ndarray, values: np.ndarray, gaps: np.ndarray,
            packed: np.ndarray, bound: float) -> tuple[float, float]:
    """The gaps [lo, hi) that can hold the first maximum; (0, inf) for a
    statistic without a bound.  A bin's end value, the sum of group values at
    its largest gap, is reached, and no candidate inside it exceeds its start
    value plus its moves' positive weights (changes to a group's value).  The
    window runs from the first to the last bin whose upper bound is within
    ``2 * bound`` of the best end value."""
    gains = _MOVE_GAINS.get(kind)
    if gains is None or not gaps.size:
        return 0.0, np.inf
    first = gaps.min().view(np.int64) >> _BIN_SHIFT
    n_bins = int((gaps.max().view(np.int64) >> _BIN_SHIFT) - first) + 1
    weights = gains / np.maximum(counts.sum(axis=1, keepdims=True), 1)  # by packed move
    sums = np.zeros((2, n_bins))  # all weights and positive weights, by bin
    for b0 in range(0, gaps.size, _SWEEP_MOVES):
        bins = (gaps[b0:b0 + _SWEEP_MOVES].view(np.int64) >> _BIN_SHIFT) - first
        weight = weights.take(packed[b0:b0 + _SWEEP_MOVES])
        sums[0] += np.bincount(bins, weight, n_bins)
        sums[1] += np.bincount(bins, np.maximum(weight, 0.0), n_bins)
    start = np.nansum(values)
    ends = start + np.cumsum(sums[0])
    upper = np.append(start, ends[:-1]) + sums[1]
    near = np.flatnonzero(upper >= max(start, ends.max()) - 2 * bound)[[0, -1]]
    lo, hi = ((near + [0, 1] + first) << _BIN_SHIFT).view(np.float64)  # the bins' least gaps
    return float(lo) if near[0] else 0.0, float(hi) if near[1] < n_bins - 1 else np.inf


def _replay(counts: np.ndarray, packed: np.ndarray,
            ends: Sequence[int]) -> Iterator[np.ndarray]:
    """Apply the gap-ordered moves to ``counts`` in place, up to each
    ascending prefix length in ``ends``; yields the groups each step touched.
    A step bincounts its moves by ``group << 2 | class``, ``_SWEEP_MOVES`` at a time."""
    n_groups, start = counts.shape[0], 0
    for end in ends:
        moved = np.zeros((n_groups, 4), dtype=np.int64)
        for b0 in range(start, end, _SWEEP_MOVES):
            moved += np.bincount(packed[b0:min(end, b0 + _SWEEP_MOVES)],
                                 minlength=4 * n_groups).reshape(n_groups, 4)
        touched = np.flatnonzero(moved.any(axis=1))
        counts[touched] += moved[touched] @ _MOVE
        start = end
        yield touched


def _approx_means(kind: StatKind, counts: np.ndarray, values: np.ndarray,
                  contexts: np.ndarray | None, packed: np.ndarray, at: np.ndarray
                  ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per block of ``_SWEEP_MOVES`` gap-ordered moves, (first candidate,
    sums, defined): the sum of defined group values, a few ulps from exact,
    and the count of defined groups after each prefix length in ``at``.
    Restarting cumulative sums in (group, gap) order give each move's group
    counts and value; copies of ``counts`` (as columns) and ``values`` carry them on."""
    columns, values = counts.T.copy(), values.copy()
    total, defined = np.nansum(values), np.count_nonzero(~np.isnan(values))
    yield 0, np.array([total]), np.array([defined])  # at[0] == 0: no move yet
    narrow = np.uint16 if counts.shape[0] <= 2**16 else np.int32
    for b0 in range(0, packed.size, _SWEEP_MOVES):
        block = packed[b0:b0 + _SWEEP_MOVES]
        by_group = np.argsort((block >> 2).astype(narrow), kind="stable")  # radix on uint16
        moves = block[by_group]
        g, cls = moves >> 2, moves & 3
        starts = np.flatnonzero(np.diff(g, prepend=-1))
        lengths = np.diff(np.append(starts, g.size))
        now = columns.take(g, axis=1)
        for cls_k, to in enumerate((3, 3, 4)):  # the rows of _MOVE, in place
            is_k = cls == cls_k
            own = np.cumsum(is_k)  # own-group moves of the class up to here, inclusive
            own -= np.repeat(own[starts] - is_k[starts], lengths)
            now[cls_k] -= own
            now[to] += own
        k, n = (None, None) if contexts is None else contexts[:, g]
        after = _stat_from_arrays(kind, *now, k, n)
        # each move's change to the sum and the count of defined values: from
        # the move before it in its group, or from the group's value so far
        undefined, prior = np.isnan(after), values[g[starts]]
        zeroed = np.where(undefined, 0.0, after)
        grouped_change, grouped_defined = np.empty_like(zeroed), np.empty(g.size, dtype=np.int64)
        np.subtract(zeroed[1:], zeroed[:-1], out=grouped_change[1:])
        np.subtract(undefined[:-1], undefined[1:], out=grouped_defined[1:], dtype=np.int64)
        grouped_change[starts] = zeroed[starts] - np.where(np.isnan(prior), 0.0, prior)
        grouped_defined[starts] = np.isnan(prior).astype(np.int64) - undefined[starts]
        last = starts + lengths - 1
        columns[:, g[last]], values[g[last]] = now[:, last], after[last]
        change, defined_change = np.empty_like(after), np.empty(g.size, dtype=np.int64)
        change[by_group], defined_change[by_group] = grouped_change, grouped_defined
        change[0] += total
        sums, defs = np.cumsum(change), defined + np.cumsum(defined_change)
        total, defined = sums[-1], defs[-1]
        i0, i1 = np.searchsorted(at, [b0 + 1, b0 + block.size + 1])
        yield i0, sums[at[i0:i1] - 1 - b0], defs[at[i0:i1] - 1 - b0]


def _memory_limit() -> tuple[int, str]:
    """The bytes this process may use, and what sets them: the least of
    physical memory, a set RLIMIT_AS, and a readable cgroup v2 memory.max
    or cgroup v1 memory.limit_in_bytes."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    limits = [(physical, f"this machine's {physical / 2**30:.3g} GiB of memory")]
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        limits.append((soft, f"the {soft / 2**30:.3g} GiB address-space limit (RLIMIT_AS)"))
    cgroups = []
    with suppress(OSError):  # no /proc
        cgroups = [line.split(":", 2) for line in _PROC_CGROUP.read_text().splitlines()]
    for number, controllers, path in (fields for fields in cgroups if len(fields) == 3):
        v1 = "memory" in controllers.split(",")  # cgroup v1's memory controller
        if number == "0" or v1:  # "0::/path" is the cgroup v2 entry
            file = (_CGROUP_ROOT / "memory" / path.lstrip("/") / "memory.limit_in_bytes" if v1
                    else _CGROUP_ROOT / path.lstrip("/") / "memory.max")
            with suppress(OSError, ValueError):  # no such file, or "max": no limit
                limit = int(file.read_text())
                limits.append((limit, f"the {limit / 2**30:.3g} GiB {file.name} of cgroup "
                                      f"{file.parent}"))
    return min(limits, key=lambda limit: limit[0])


def calibrate(human: ScoreMatrix, metric: ScoreMatrix, *, kind: StatKind = StatKind.ACC_EQ,
              mode: GroupingMode = GroupingMode.GROUP_BY_ITEM,
              eps_mode: EpsilonMode = EpsilonMode.ABSOLUTE) -> CalibrationResult:
    """Find the tie threshold maximizing ``kind`` over ``mode``'s groups.

    Returns the smallest threshold achieving the maximum: an approximate
    walk gives a shortlist near the best (or every candidate, if few), then
    its exact replay and a batch re-verification (RuntimeError on a mismatch).
    """
    aligned = align(human, metric, mode)
    total_pairs = int((aligned.sizes * (aligned.sizes - 1) // 2).sum())
    need = (total_pairs * (_SWEEP_BYTES_PER_PAIR + (aligned.pairs is not None) * _LAYOUT_BYTES)
            + _SWEEP_MOVES * _MOVE_BYTES)
    have, what = _memory_limit()
    if need > have:
        raise MemoryError(f"calibrating {total_pairs:,} within-group pairs needs "
                          f"about {need / 2**30:.3g} GiB, more than {what}")
    counts, gaps, packed = _moves(aligned, eps_mode, total_pairs)

    n_groups = aligned.sizes.size
    contexts = _tau_c_contexts(*aligned[:3]) if kind is StatKind.TAU_C else None

    def group_values(rows: np.ndarray | slice) -> np.ndarray:
        k, n = (None, None) if contexts is None else contexts[:, rows]
        return _stat_from_arrays(kind, *counts[rows].T, k, n)

    # Rounding bound.  Every statistic lies in [-1, 1], so no partial sum of group
    # values, of their changes or of move weights exceeds M = 2G, and a float sum of
    # N terms with partial sums below M is within N*M*u of exact.  A bin's end value
    # or upper bound rounds under G + 3E + 4 terms, the walk G + 2E, an exact replay
    # G + 1; a mean then divides by the defined count D: err(D) = bound / D + 2u.
    # Twice the summed error keeps the maximizer; the walk prunes with err(1) >= err.
    u = np.finfo(np.float64).eps / 2
    bound = 4 * (n_groups + gaps.size + 1) * 2 * n_groups * u
    values = group_values(slice(None))
    lo, hi = _window(kind, counts, values, gaps, packed, bound)
    # moves below the window, in one step, bool-indexed: compress adds an 8 B index a move
    for touched in _replay(counts, packed[gaps < lo], [np.count_nonzero(gaps < lo)]):
        values[touched] = group_values(touched)
    inside = slice(None) if (lo, hi) == (0.0, np.inf) else (gaps >= lo) & (gaps < hi)
    packed = packed[inside]  # a view when the window is every move
    packed = packed[np.argsort(gaps[inside])]  # moves of equal gap enter at one candidate together
    gaps.sort()  # in place, once the window's order is taken; the window is gaps[start:stop]
    start, stop = np.searchsorted(gaps, [lo, hi])
    new = np.concatenate(([gaps.size > 0], gaps[1:] != gaps[:-1]))  # a distinct gap starts
    n_candidates = 1 + int(np.count_nonzero(new))  # 0 and every distinct gap
    at = np.flatnonzero(np.concatenate(([True], new[start + 1:stop], [stop > start])))
    del inside, new

    ends = at  # every window candidate, when replaying each costs no more than the walk
    if at.size * (n_groups + _REPLAY_STEP_MOVES) > stop - start > 0:
        best, fewest, kept = -np.inf, n_groups, [(np.empty(0, dtype=at.dtype), np.empty(0))]
        for first, sums, defined in _approx_means(kind, counts, values, contexts, packed, at):
            live = np.flatnonzero(defined > 0)
            approx = sums[live] / defined[live]
            best = max(best, approx.max(initial=-np.inf))
            fewest = min(fewest, defined[live].min(initial=n_groups))
            keep = approx >= best - 2 * (bound + 2 * u)
            kept.append((at[first + live[keep]], approx[keep]))
        ends, approx = (np.concatenate(column) for column in zip(*kept))
        ends = ends[approx >= best - 2 * (bound / fewest + 2 * u)]
        del at, kept, approx

    best_eps = 0.0
    best_val: float | None = None
    for end, touched in zip(ends.tolist(), _replay(counts, packed, ends)):
        values[touched] = group_values(touched)
        value = mean_defined(values)
        if value is not None and (best_val is None or value > best_val):
            best_val = value
            best_eps = float(gaps[start + end - 1]) if start + end else 0.0

    report = _reports(aligned, mode, [kind], EpsilonPolicy(best_eps, eps_mode))[0]
    if report.value != best_val:
        raise RuntimeError(
            "calibration sweep disagrees with batch re-evaluation at "
            f"epsilon={best_eps!r}: {best_val!r} vs {report.value!r}")
    return CalibrationResult(report, n_candidates)


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
                           pol: EpsilonPolicy, bins: int,
                           mode: GroupingMode = GroupingMode.NO_GROUPING) -> TieHistogram:
    """Where on the score axis does a threshold introduce ties?

    For every within-group pair the location is the average of its two
    metric scores; the histogram range covers all pairs.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    aligned = align(human, metric, mode)
    paired = aligned.sizes >= 2
    lo, hi = 0.0, 1.0  # the range of an input without pairs
    if paired.any():
        # Rounding is monotone, so the extreme midpoints are those of each
        # group's two lowest and two highest scores.
        owner = np.repeat(np.arange(paired.size), aligned.sizes)
        m = aligned.metric[np.lexsort((aligned.metric, owner))]
        top = np.cumsum(aligned.sizes)[paired] - 1
        low = top - aligned.sizes[paired] + 1
        lo = float(_midpoints(m[low], m[low + 1]).min())
        hi = float(_midpoints(m[top - 1], m[top]).max()) + 0.0  # a top edge of 0.0 is +0.0
    if not np.isfinite(hi - lo):  # numpy's bin edges would overflow
        raise ValueError(f"pair midpoints from {lo!r} to {hi!r} span more than the float range")
    try:
        edges = np.histogram_bin_edges([lo, hi], bins)  # what np.histogram(mid, bins) uses
    except ValueError:  # numpy's ±0.5 around one large value gives too few distinct edges
        # edges 4 ulps apart; the ulp read at half the value, as np.spacing(max) is inf
        pad = 4 * bins * float(np.spacing(max(abs(lo), abs(hi)) / 2))
        lo, hi = np.nan_to_num([lo - pad, hi + pad])  # an infinite end becomes the largest float
        edges = np.histogram_bin_edges([lo, hi], bins)
    all_counts, new_counts = np.zeros(bins, dtype=np.int64), np.zeros(bins, dtype=np.int64)
    for gap, _, _, mid in _pair_blocks(*aligned[:3], pol, midpoints=True, layout=aligned.pairs):
        all_counts += np.histogram(mid, edges)[0]
        new_counts += np.histogram(mid[(gap > 0.0) & (gap <= pol.epsilon)], edges)[0]
    return TieHistogram(edges, all_counts, new_counts)


@dataclass(frozen=True)
class F1CurvePoint:
    epsilon: float
    ties_f1: float | None
    rank_f1: float | None
    acc_eq: float | None


def f1_curve(human: ScoreMatrix, metric: ScoreMatrix, mode: GroupingMode,
             eps_grid: Sequence[float],
             eps_mode: EpsilonMode = EpsilonMode.ABSOLUTE) -> list[F1CurvePoint]:
    """Tie-F1, correct-rank-F1, and pairwise accuracy along a threshold grid,
    in ascending order: ``grouped_stats`` at each grid point."""
    if len(eps_grid) == 0:
        raise ValueError("eps_grid must not be empty")
    # rejects a negative or non-finite threshold before any work
    policies = [EpsilonPolicy(eps, eps_mode) for eps in sorted(float(e) for e in eps_grid)]
    aligned = align(human, metric, mode)
    kinds = (StatKind.TIES_F1, StatKind.RANK_F1, StatKind.ACC_EQ)
    return [F1CurvePoint(pol.epsilon, *(report.value for report in
                                        _reports(aligned, mode, kinds, pol)))
            for pol in policies]
