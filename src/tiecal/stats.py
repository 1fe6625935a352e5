"""Pairwise sufficient statistics and tie-aware ranking statistics.

Every unordered pair of observations is classified as concordant,
discordant, tied only in the human scores, tied only in the metric scores,
or tied in both.  All statistics here are pure functions of those five
counts (plus, for one of them, the length and unique-value context of the
input vectors).  Human ties are always exact score equality; metric ties
are controlled by an epsilon policy.

Per-group counts come from one of two exact paths.  The blocked kernel
(``_pair_blocks``) classifies every pair, so its cost grows with the pairs;
the calibration sweep and tie histogram read it for each pair's gap.  The
sort count (``_sort_counts``) takes O(n log² n) time for n rows from
windows and a dominance count over sorted scores, under every policy.
``_pair_counts`` picks between them by the group sizes alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Scores = Sequence[float] | np.ndarray

# Pairs per kernel block.  A block's temporaries (about 1 MB) stay in cache,
# and memory stays flat whatever the input size.
_BLOCK_PAIRS = 1 << 14

# Counting by sorting costs about as much as the blocked kernel at 6 pairs
# per row and level (groups of ~90 rows, 20k rows in all), so it takes over
# above 8.
_SORT_PAIRS_PER_ROW_LEVEL = 8

# The five pair classes, as the kernel encodes them.
_CONC, _DISC, _TIED_H, _TIED_M, _TIED_BOTH = range(5)
# Class of a pair by metric tie << 2 | human tie << 1 | discordance.
_CLASS_OF_CODE = np.array([_CONC, _DISC, _TIED_H, _TIED_H,
                           _TIED_M, _TIED_M, _TIED_BOTH, _TIED_BOTH], dtype=np.int8)


class EpsilonMode(enum.Enum):
    """How a metric-score gap is measured before comparing it to epsilon."""

    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class EpsilonPolicy:
    """Tie rule for metric scores: a pair is tied iff its gap is <= epsilon.

    ABSOLUTE uses the raw gap |a - b|.  RELATIVE divides the gap by
    max(|a|, |b|), with a pair of exact zeros counting as tied.  With
    epsilon = 0 both modes reduce to exact equality.
    """

    epsilon: float = 0.0
    mode: EpsilonMode = EpsilonMode.ABSOLUTE

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        object.__setattr__(self, "epsilon", self.epsilon + 0.0)  # -0.0 is the policy 0.0

    def gaps(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Derived gap values; a pair is tied iff gap <= epsilon.  Only absolute gaps reach inf."""
        with np.errstate(over="ignore"):
            d = np.abs(a - b)
        if self.mode is EpsilonMode.ABSOLUTE:
            return d
        denom = np.maximum(np.abs(a), np.abs(b))
        over = np.isinf(d)
        if over.any():  # halving scores this large is exact, so the ratio keeps its bits
            d, denom = np.where(over, np.abs(a / 2 - b / 2), d), np.where(over, denom / 2, denom)
        return np.divide(d, denom, out=np.zeros_like(d), where=denom > 0)


@dataclass(frozen=True)
class PairCounts:
    """The five pair classes summarizing two paired score vectors."""

    concordant: int = 0
    discordant: int = 0
    tied_human: int = 0   # tied in the human scores only
    tied_metric: int = 0  # tied in the metric scores only
    tied_both: int = 0


class StatKind(enum.Enum):
    """The supported ranking statistics.

    The eight overall statistics score all pairs at once; the six class
    statistics measure precision/recall/F1 for predicting ties and for
    ranking the non-tied pairs.
    """

    TAU_A = "tau_a"
    TAU_B = "tau_b"
    TAU_C = "tau_c"
    TAU_10 = "tau_10"
    TAU_13 = "tau_13"
    TAU_14 = "tau_14"
    TAU_EQ = "tau_eq"
    ACC_EQ = "acc_eq"
    TIES_P = "ties_p"
    TIES_R = "ties_r"
    TIES_F1 = "ties_f1"
    RANK_P = "rank_p"
    RANK_R = "rank_r"
    RANK_F1 = "rank_f1"

    @classmethod
    def parse(cls, name: str) -> "StatKind":
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown statistic {name!r} (known: {known})") from None


OVERALL_STAT_KINDS = (
    StatKind.TAU_A, StatKind.TAU_B, StatKind.TAU_C, StatKind.TAU_10,
    StatKind.TAU_13, StatKind.TAU_14, StatKind.TAU_EQ, StatKind.ACC_EQ,
)


def _stat_from_arrays(kind: StatKind, c: np.ndarray, d: np.ndarray, th: np.ndarray,
                      tm: np.ndarray, thm: np.ndarray, k: np.ndarray | None = None,
                      n: np.ndarray | None = None) -> np.ndarray:
    """Evaluate ``kind`` elementwise over arrays of class counts, NaN where a
    denominator is zero.  Equal bit for bit to the scalar float64 formulas
    while count sums fit the dtype, TAU_B's f1, f2 stay below 2**53 and
    TAU_C's n*n does."""
    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=den != 0)

    def f1(p: np.ndarray, r: np.ndarray) -> np.ndarray:  # NaN if p or r is, or both are 0
        return ratio(2 * p * r, p + r)

    formulas = {
        StatKind.TAU_A: lambda: ratio(c - d, c + d + th + tm + thm),
        StatKind.TAU_B: lambda: ratio(c - d, np.sqrt((c + d + th).astype(np.float64) * (c + d + tm))),
        StatKind.TAU_C: lambda: ratio(c - d, n * n * (k - 1.0) / k),  # float: no int64 wrap
        StatKind.TAU_10: lambda: ratio(c - d - tm, c + d + tm),
        StatKind.TAU_13: lambda: ratio(c - d, c + d),
        StatKind.TAU_14: lambda: ratio(c - d, c + d + tm),
        StatKind.TAU_EQ: lambda: ratio(c + thm - d - th - tm, c + d + th + tm + thm),
        StatKind.ACC_EQ: lambda: ratio(c + thm, c + d + th + tm + thm),
        StatKind.TIES_P: lambda: ratio(thm, thm + tm),
        StatKind.TIES_R: lambda: ratio(thm, thm + th),
        StatKind.TIES_F1: lambda: f1(ratio(thm, thm + tm), ratio(thm, thm + th)),
        StatKind.RANK_P: lambda: ratio(c, c + d + th),
        StatKind.RANK_R: lambda: ratio(c, c + d + tm),
        StatKind.RANK_F1: lambda: f1(ratio(c, c + d + th), ratio(c, c + d + tm)),
    }
    return formulas[kind]()


def _kernel_sized(sizes: np.ndarray) -> bool:
    """Whether ``_pair_counts`` counts groups of ``sizes`` on the kernel."""
    pairs = int((sizes * (sizes - 1) // 2).sum())
    levels = int(sizes.max(initial=0)).bit_length()
    return pairs <= _SORT_PAIRS_PER_ROW_LEVEL * int(sizes.sum()) * levels


def _pair_index_blocks(h: np.ndarray, sizes: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """``_pair_blocks``' pairs: row, partner, group (int32), human tie << 1 | order (uint8)."""
    owner = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
    width = np.repeat(np.cumsum(sizes), sizes) - np.arange(h.size) - 1  # pairs per row
    ends = np.cumsum(width)
    shift = ends - width - np.arange(h.size)  # pair index + 1 - column, along each row
    total = int(ends[-1]) if ends.size else 0
    for p0 in range(0, total, _BLOCK_PAIRS):
        p1 = min(p0 + _BLOCK_PAIRS, total)
        e0, e1 = np.searchsorted(ends, [p0, p1 - 1], "right")
        rows = slice(e0, e1 + 1)
        take = np.minimum(ends[rows], p1) - np.maximum(ends[rows] - width[rows], p0)
        i = np.repeat(np.arange(e0, e1 + 1, dtype=np.int32), take)
        j = (np.arange(p0 + 1, p1 + 1) - np.repeat(shift[rows], take)).astype(np.int32)
        hi, hj = np.repeat(h[rows], take), h.take(j)
        yield (i, j, np.repeat(owner[rows], take),
               ((hi == hj).view(np.uint8) << 1) | (hi > hj).view(np.uint8))


def _midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) / 2, or a/2 + b/2 where a + b overflows (exact: both are normal there)."""
    with np.errstate(over="ignore"):
        total = a + b
    return np.where(np.isinf(total), a / 2.0 + b / 2.0, total / 2.0)


def _pair_blocks(h: np.ndarray, m: np.ndarray, sizes: Sequence[int], pol: EpsilonPolicy, *,
                 midpoints: bool = False, layout: list | None = None
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """Classify every within-group pair, ``_BLOCK_PAIRS`` pairs at a time.

    ``h`` and ``m`` are the groups' vectors concatenated and ``sizes`` the
    group lengths.  Pairs come group by group, in np.triu_indices order
    inside each.  Each block is the pairs' metric gap (float64), group
    (int32), class under ``pol`` (int8; human-tied iff _TIED_H or
    _TIED_BOTH) and, on request, mean metric score.  A ``layout`` list (a
    pair layout) keeps the pairs' human side, 13 B a pair, from its first use.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if layout is not None and not layout:
        layout[:] = _pair_index_blocks(h, sizes)
    for i, j, group, relation in layout or _pair_index_blocks(h, sizes):
        mi, mj = m.take(i), m.take(j)
        gap = pol.gaps(mi, mj)
        code = ((gap <= pol.epsilon).view(np.uint8) << 2) | (relation ^ (mi > mj).view(np.uint8))
        yield gap, group, _CLASS_OF_CODE.take(code), _midpoints(mi, mj) if midpoints else None


def _fold(counts: np.ndarray, group: np.ndarray, cls: np.ndarray) -> None:
    """Add a kernel block's classes to the (groups, 5) ``counts``.  A block's
    groups are contiguous, so one bincount covers their rows."""
    first, span = group[0], group[-1] - group[0] + 1
    counts[first:first + span] += np.bincount(
        np.subtract(group, first, dtype=np.intp) * 5 + cls, minlength=5 * span).reshape(span, 5)


def _bisect(lo: np.ndarray, hi: np.ndarray, holds) -> np.ndarray:
    """The first p in (lo, hi] where ``holds(p)`` does, for a test that
    changes value once along each row's range: from failing to holding,
    and taken to hold at hi.  ``holds`` sees lo too, whose result is unused."""
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        found = holds(mid) & (mid > lo)
        hi = np.where(found, mid, hi)
        lo = np.where(found, lo, mid)
    return hi


def _cross_ties(m: np.ndarray, segment: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                pol: EpsilonPolicy) -> np.ndarray | int:
    """Each row's count of tied pairs of opposite signs, or 0 if no row has
    any: a prefix of the other segment of its group (segment ``2g + 1``
    holds group g's non-negative scores, ``2g`` its negated negative ones,
    each sorted, from ``starts`` to ``ends``).  A pair counts from its row
    of larger magnitude (the negative one if equal); with that magnitude as
    the divisor the gap never falls as the partner's grows.
    """
    other, stop, nonneg = starts[segment ^ 1], ends[segment ^ 1], segment & 1 == 1
    signed = np.where(nonneg, m, -m)

    def untied(p):
        return (m[p] > m) | (m[p] == m) & nonneg | (pol.gaps(signed, signed[p]) > pol.epsilon)

    if (untied(other % m.size) | (other == stop)).all():  # no row's first partner is tied
        return 0
    return _bisect(other - 1, stop, untied) - other


def _sort_counts(h: np.ndarray, m: np.ndarray, sizes: np.ndarray,
                 pol: EpsilonPolicy) -> np.ndarray:
    """Per-group class counts by sorting, in O(n log² n) for n rows.

    In relative mode a group's negative rows form a segment of their own,
    negated and with human ranks reversed, which keeps every pair's class.
    In (segment, metric) order each row's tie window gives the metric-tied
    pairs; run lengths in (segment, human, metric) order give the
    human-tied pairs, and windows inside each run the tied-both pairs.  A
    dominance count over dense human ranks gives the concordant pairs: rows
    before a row's window with a smaller human score, and the pairs of
    opposite signs whose non-negative row has the higher one.  Tied pairs
    of opposite signs (``_cross_ties``) leave those counts for the
    metric-tied ones.  The rest are discordant.
    """
    rows = np.arange(h.size)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    group = np.repeat(np.arange(sizes.size), sizes)
    rank = np.unique(h, return_inverse=True)[1]
    span = int(rank.max(initial=0)) + 1
    # Opposite-sign pairs, by the non-negative row: the negative rows of its
    # group with a smaller or an equal human score.
    neg = (m < 0) & (pol.mode is EpsilonMode.RELATIVE)
    key = group * span + rank
    below = np.sort(key[neg])
    smaller, equal_or_smaller = np.searchsorted(below, key), np.searchsorted(below, key, "right")
    cross_c = np.where(neg, 0, smaller - np.searchsorted(below, group * span))
    cross_h = np.where(neg, 0, equal_or_smaller - smaller)
    segment, m, rank = 2 * group + ~neg, np.where(neg, -m, m), np.where(neg, span - 1 - rank, rank)
    seg_sizes = np.bincount(segment, minlength=2 * sizes.size)
    ends = np.cumsum(seg_sizes)
    first = np.repeat(ends - seg_sizes, seg_sizes)  # each row's segment start
    by_m = np.lexsort((m, segment))
    m, rank, segment = m[by_m], rank[by_m], segment[by_m]
    start = _bisect(first - 1, rows, lambda p: pol.gaps(m, m[p]) <= pol.epsilon)
    # Concordant pairs: ranks below a row's own in the ``count`` rows of its
    # segment before its window, from row ``base``.
    conc = np.zeros(h.size, dtype=np.int64)
    queries, lt, le = [(conc, first, start - first, rank)], 0, 0
    tied = _cross_ties(m, segment, ends - seg_sizes, ends, pol)
    if np.any(tied):
        # Ranks below and not above the row's own, as the other segment
        # stores it, split each tied prefix by human relation.
        other = (ends - seg_sizes)[segment ^ 1]
        lt, le = np.zeros((2, h.size), dtype=np.int64)
        queries += [(lt, other, tied, span - 1 - rank), (le, other, tied, span - rank)]
    key = segment * span + rank
    by_h = np.argsort(key, kind="stable")  # (segment, human, metric) order
    key = key[by_h]
    run_first = np.maximum.accumulate(np.where(np.diff(key, prepend=-1) != 0, rows, 0))
    # The ``count`` rows hold, for each set bit k of ``count``, one
    # segment-aligned block of 2**k rows.  Sorting every row's (block, rank)
    # key at level k puts a block's keys after the base + (block << k) keys
    # of earlier segments and blocks, so one searchsorted counts the smaller
    # ranks inside the block.
    local = rows - first
    for k in range(int(seg_sizes.max(initial=0)).bit_length()):
        ranks_by_block = np.sort((first + (local >> k)) * span + rank)
        for found, base, count, q in queries:
            sel = np.flatnonzero((count >> k) & 1)
            block = (count[sel] >> k) - 1
            found[sel] += (np.searchsorted(ranks_by_block, (base[sel] + block) * span + q[sel])
                           - base[sel] - (block << k))
    m = m[by_h]
    # Columns in input, (segment, metric) and (segment, human) order: a
    # group's rows keep its positions in each, and only group sums are read.
    per_row = np.stack([conc + cross_c - tied + le, rows - start + tied, rows - run_first + cross_h,
                        le - lt + rows - _bisect(run_first - 1, rows,
                                                 lambda p: pol.gaps(m, m[p]) <= pol.epsilon)],
                       axis=1)
    cumulative = np.concatenate((np.zeros((1, 4), dtype=np.int64), np.cumsum(per_row, axis=0)))
    c, tied_m, tied_h, both = (cumulative[bounds[1:]] - cumulative[bounds[:-1]]).T
    d = sizes * (sizes - 1) // 2 - tied_m - tied_h + both - c
    return np.stack([c, d, tied_h - both, tied_m - both, both], axis=1)


def _pair_counts(h: np.ndarray, m: np.ndarray, sizes: Sequence[int],
                 pol: EpsilonPolicy, layout: list | None = None) -> np.ndarray:
    """Per-group class counts, a (groups, 5) int64 array in class order.

    Counts by sorting when the groups hold more than
    ``_SORT_PAIRS_PER_ROW_LEVEL`` pairs per row and level (bit of the
    largest group size); otherwise bincounts the blocked kernel's classes,
    with ``layout`` as ``_pair_blocks`` takes it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if not _kernel_sized(sizes):
        return _sort_counts(h, m, sizes, pol)
    counts = np.zeros((len(sizes), 5), dtype=np.int64)
    for _, group, cls, _ in _pair_blocks(h, m, sizes, pol, layout=layout):
        _fold(counts, group, cls)
    return counts


def _tau_c_contexts(h: np.ndarray, m: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """TAU_C's (k, n) for each group of ``sizes`` consecutive entries, as a
    (2, groups) int64 array: k is the smaller count of distinct values,
    each side counted from one sort by (group, value)."""
    group = np.repeat(np.arange(sizes.size), sizes)

    def distinct(values: np.ndarray) -> np.ndarray:
        v = values[np.lexsort((values, group))]
        new = np.ones(v.size, dtype=bool)
        new[1:] = (v[1:] != v[:-1]) | (group[1:] != group[:-1])  # -0.0 == 0.0
        return np.bincount(group[new], minlength=sizes.size)

    return np.stack([np.minimum(distinct(h), distinct(m)), sizes])


def break_ties_randomly(metric: Scores, pol: EpsilonPolicy = EpsilonPolicy(), *,
                        seed: int) -> np.ndarray:
    """Replace scores by their ranks after randomly ordering tied clusters.

    Scores are sorted and chunked into clusters greedily: a score joins the
    current cluster while its policy gap to the cluster's first score stays
    <= epsilon, so under an absolute policy any two scores with a gap
    larger than epsilon keep their relative order.  Each cluster's internal
    order is chosen uniformly at random; the result is deterministic for a
    given seed.  Returned scores are the ranks 1..n.
    """
    m = np.asarray(metric, dtype=np.float64)
    if m.ndim != 1:
        raise ValueError(f"score vector must be 1-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("score vector contains non-finite values")
    n = m.size
    rng = np.random.default_rng(seed)
    order = np.argsort(m, kind="stable")
    s, ranks = m[order], np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(1, n + 1, dtype=np.float64)  # clusters of one keep their place
    paired = np.flatnonzero(pol.gaps(s[:-1], s[1:]) <= pol.epsilon)  # i where s[i + 1] ties s[i]
    i = 0
    while (k := np.searchsorted(paired, i)) < paired.size:
        i = int(paired[k])
        # The first score to fail the test ends the cluster: relative gaps are not
        # monotone along the scores, so windows of doubling length are tested whole.
        j, width = i + 2, 1
        while j < n and not (fails := pol.gaps(s[i], s[j:j + width]) > pol.epsilon).any():
            j, width = j + width, 2 * width
        j = j + int(np.argmax(fails)) if j < n else n
        ranks[order[i:j][rng.permutation(j - i)]] = np.arange(i + 1, j + 1, dtype=np.float64)
        i = j
    return ranks
