"""Tie calibration: sweep candidate thresholds to maximize a statistic.

The statistic induced by a gap-threshold tie rule is a step function that
only changes at observed pair gaps, so the candidate set is exactly zero
plus every distinct within-group gap.  Passing a pair's gap moves the pair
from its zero-threshold class (concordant, discordant or tied-human) to
tied-metric or tied-both.  One pass over the pair kernel keeps only the
moving pairs, and one sort puts them in gap order.  A walk over them, a
block at a time, carries each group's counts and value and gives the
grouped mean at every candidate up to last-ulp drift.  Candidates within a
stated rounding bound of the best are replayed exactly, in ascending order,
with the reduction ``grouped_stats`` uses, so ties in the maximum resolve to
the smallest threshold, and the winner is re-verified by a batch
evaluation; with few candidates for the moves, all are replayed and the
walk is skipped.  The F1 curve is the batch evaluation at each grid
point, and the tie histogram reads the kernel's blocks once and keeps no
pair.
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
    _as_policy,
    _fold,
    _midpoints,
    _pair_blocks,
    _stat_from_arrays,
    _tau_c_contexts,
)

# Moves per block of the approximate sweep, and its temporaries' bytes per move.
_SWEEP_MOVES, _MOVE_BYTES = 1 << 14, 256
# Peak bytes per pair of a sweep: the moving pairs' gaps and packed group and
# class (12 B), then the gap sort's permutation and sorted gaps (16 B), and room;
# and of the pair layout (stats._pair_blocks) that the sweep may build and keep.
_SWEEP_BYTES_PER_PAIR, _LAYOUT_BYTES = 32, 13
# Where calibrate's memory guard reads this process's cgroups and their limits.
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")
# A move's change to its group's counts, by its class at threshold zero
# (concordant, discordant, tied-human): it becomes tied-metric or tied-both.
_MOVE = np.array([[-1, 0, 0, 1, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1]])
# Bits of one class's count in the walk's packed running counts: a block's
# _SWEEP_MOVES moves fit, so no count carries into the next class's bits.
_CLASS_BITS = 20
_PACKED_ONE = np.array([1, 1 << _CLASS_BITS, 1 << 2 * _CLASS_BITS], dtype=np.int64)  # a move
# A replay step costs about as much as walking this many moves plus one a group.
_REPLAY_STEP_MOVES = 512


@dataclass(frozen=True)
class CalibrationConfig:
    """What to maximize, and over which groups and gaps."""

    kind: StatKind = StatKind.ACC_EQ
    mode: GroupingMode = GroupingMode.GROUP_BY_ITEM
    eps_mode: EpsilonMode = EpsilonMode.ABSOLUTE


@dataclass(frozen=True)
class CalibrationResult:
    """The chosen threshold and the statistic it achieves."""

    epsilon_star: float
    stat_star: float | None
    candidates_evaluated: int
    report: CorrelationReport


def _sorted_moves(aligned: Aligned, eps_mode: EpsilonMode, total: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the pair kernel at threshold zero, for ``total`` pairs:
    the per-group class counts; the gaps of the pairs a positive threshold
    can tie, sorted (not stably: moves of equal gap enter at one candidate
    together), and each one's ``group << 2 | class``; and each candidate as
    the number of moves it ties: 0, then the end of each run of equal gaps."""
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
    order = np.argsort(gaps[:n])
    gaps = gaps[:n][order]
    packed = packed[:n][order]
    del order
    ends = np.concatenate(([True], gaps[1:] != gaps[:-1], [n > 0]))
    return counts, gaps, packed, np.flatnonzero(ends)


def _replay(counts: np.ndarray, packed: np.ndarray,
            ends: Sequence[int]) -> Iterator[np.ndarray]:
    """Apply the gap-ordered moves to ``counts`` in place, up to each
    ascending prefix length in ``ends``; yields the groups each step touched.
    A step bincounts its moves by (group, class), ``_SWEEP_MOVES`` at a time."""
    n_groups, start = counts.shape[0], 0
    for end in ends:
        moved = np.zeros((n_groups, 3), dtype=np.int64)
        for b0 in range(start, end, _SWEEP_MOVES):
            block = packed[b0:min(end, b0 + _SWEEP_MOVES)]
            moved += np.bincount((block >> 2) * 3 + (block & 3),
                                 minlength=3 * n_groups).reshape(n_groups, 3)
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
        # own-group moves of each class up to here, inclusive, packed in one int64
        one = _PACKED_ONE.take(cls)
        moved = np.cumsum(one)
        moved -= np.repeat(moved[starts] - one[starts], lengths)
        mask = (1 << _CLASS_BITS) - 1
        now = columns.take(g, axis=1)
        for cls_k, to in enumerate((3, 3, 4)):  # the rows of _MOVE, in place
            own = moved >> _CLASS_BITS * cls_k & mask
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


def calibrate(human: ScoreMatrix, metric: ScoreMatrix,
              config: CalibrationConfig = CalibrationConfig()) -> CalibrationResult:
    """Find the tie threshold maximizing the configured statistic.

    Returns the smallest threshold achieving the maximum: an approximate
    walk gives a shortlist near the best (or every candidate, if few), then
    its exact replay and a batch re-verification (RuntimeError on a mismatch).
    """
    aligned = align(human, metric, config.mode)
    total_pairs = int((aligned.sizes * (aligned.sizes - 1) // 2).sum())
    need = (total_pairs * (_SWEEP_BYTES_PER_PAIR + (aligned.pairs is not None) * _LAYOUT_BYTES)
            + _SWEEP_MOVES * _MOVE_BYTES)
    have, what = _memory_limit()
    if need > have:
        raise MemoryError(f"calibrating {total_pairs:,} within-group pairs needs "
                          f"about {need / 2**30:.3g} GiB, more than {what}")
    counts, gaps, packed, at = _sorted_moves(aligned, config.eps_mode, total_pairs)

    kind = config.kind
    n_groups = aligned.sizes.size
    contexts = _tau_c_contexts(*aligned[:3]) if kind is StatKind.TAU_C else None

    def group_values(rows: np.ndarray | slice) -> np.ndarray:
        k, n = (None, None) if contexts is None else contexts[:, rows]
        return _stat_from_arrays(kind, *counts[rows].T, k, n)

    values = group_values(slice(None))
    n_candidates = at.size
    ends = at  # every candidate, when replaying each costs no more than the walk or none moves
    if n_candidates * (n_groups + _REPLAY_STEP_MOVES) > gaps.size > 0:
        # Rounding bound.  Every statistic lies in [-1, 1], so no partial sum of
        # group values or of their changes exceeds M = 2G, and a float sum of N
        # terms with partial sums below M is within N*M*u of exact.  The walk
        # sums G + 2E terms, the exact replay G, and each then rounds once more
        # dividing by the defined count D: err(D) = bound / D + 2u.  Twice the
        # summed error keeps the true maximizer.  The walk prunes with err(1),
        # never tighter than the final err.
        u = np.finfo(np.float64).eps / 2
        bound = (2 * n_groups + 2 * gaps.size) * 2 * n_groups * u
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
        eps = float(gaps[end - 1]) if end else 0.0
        if value is not None and (best_val is None or value > best_val):
            best_val = value
            best_eps = eps

    report = _reports(aligned, config.mode, [kind], EpsilonPolicy(best_eps, config.eps_mode))[0]
    if report.value != best_val:
        raise RuntimeError(
            "calibration sweep disagrees with batch re-evaluation at "
            f"epsilon={best_eps!r}: {best_val!r} vs {report.value!r}")
    return CalibrationResult(
        epsilon_star=float(best_eps),
        stat_star=report.value,
        candidates_evaluated=n_candidates,
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
    aligned = align(human, metric, mode)
    paired = aligned.sizes >= 2
    if not paired.any():
        edges = np.linspace(0.0, 1.0, bins + 1)
        zeros = np.zeros(bins, dtype=np.int64)
        return TieHistogram(edges, zeros, zeros.copy())
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
        all_counts += np.histogram(mid, bins, range=(lo, hi))[0]
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
