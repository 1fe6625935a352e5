"""Pairwise sufficient statistics and tie-aware ranking statistics.

Every unordered pair of observations is classified as concordant,
discordant, tied only in the human scores, tied only in the metric scores,
or tied in both.  All statistics here are pure functions of those five
counts (plus, for one of them, the length and unique-value context of the
input vectors).  Human ties are always exact score equality; metric ties
are controlled by an epsilon policy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.stats import rankdata

Scores = Sequence[float] | np.ndarray

# Pairs per kernel block.  A block's temporaries (about 1 MB) stay in cache,
# and memory stays flat whatever the input size.
_BLOCK_PAIRS = 1 << 14

# The five pair classes, as the kernel encodes them.
_CONC, _DISC, _TIED_H, _TIED_M, _TIED_BOTH = range(5)
# Class of a pair by metric tie << 2 | human tie << 1 | discordance.
_CLASS_OF_CODE = np.array([_CONC, _DISC, _TIED_H, _TIED_H,
                           _TIED_M, _TIED_M, _TIED_BOTH, _TIED_BOTH], dtype=np.int8)


def as_score_vector(values: Scores) -> np.ndarray:
    """Return ``values`` as a 1-D float64 array, rejecting NaN and infinities."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"score vector must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("score vector contains non-finite values")
    return arr


class EpsilonMode(enum.Enum):
    """How a metric-score gap is measured before comparing it to epsilon."""

    ABSOLUTE = "absolute"
    RELATIVE = "relative"

    @classmethod
    def parse(cls, name: str) -> "EpsilonMode":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown epsilon mode {name!r}") from None


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

    def gaps(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Derived gap values; a pair is tied iff its gap <= epsilon."""
        d = np.abs(a - b)
        if self.mode is EpsilonMode.ABSOLUTE:
            return d
        denom = np.maximum(np.abs(a), np.abs(b))
        return np.divide(d, denom, out=np.zeros_like(d), where=denom > 0)

    def tie_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.gaps(a, b) <= self.epsilon


def _as_policy(eps: EpsilonPolicy | float) -> EpsilonPolicy:
    if isinstance(eps, EpsilonPolicy):
        return eps
    return EpsilonPolicy(float(eps))


@dataclass(frozen=True)
class PairCounts:
    """The five pair classes summarizing two paired score vectors."""

    concordant: int = 0
    discordant: int = 0
    tied_human: int = 0   # tied in the human scores only
    tied_metric: int = 0  # tied in the metric scores only
    tied_both: int = 0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"{name} count must be non-negative, got {value}")

    @property
    def total(self) -> int:
        return (self.concordant + self.discordant + self.tied_human
                + self.tied_metric + self.tied_both)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.concordant, self.discordant, self.tied_human,
                self.tied_metric, self.tied_both)

    def as_dict(self) -> dict[str, int]:
        return {
            "concordant": self.concordant,
            "discordant": self.discordant,
            "tied_human": self.tied_human,
            "tied_metric": self.tied_metric,
            "tied_both": self.tied_both,
        }

    def __add__(self, other: "PairCounts") -> "PairCounts":
        return PairCounts(*(a + b for a, b in zip(self.as_tuple(), other.as_tuple())))


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
CLASS_STAT_KINDS = (
    StatKind.TIES_P, StatKind.TIES_R, StatKind.TIES_F1,
    StatKind.RANK_P, StatKind.RANK_R, StatKind.RANK_F1,
)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _stat_from_arrays(kind: StatKind, c: np.ndarray, d: np.ndarray, th: np.ndarray,
                      tm: np.ndarray, thm: np.ndarray, k: np.ndarray | None = None,
                      n: np.ndarray | None = None) -> np.ndarray:
    """Evaluate ``kind`` elementwise over arrays of class counts, NaN where a
    denominator is zero.  Equal bit for bit to the scalar float64 formulas
    while count sums fit the dtype and TAU_B's f1, f2 and TAU_C's n*n*(k-1)
    stay below 2**53."""
    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=den != 0)

    def f1(p: np.ndarray, r: np.ndarray) -> np.ndarray:  # NaN if p or r is, or both are 0
        return ratio(2 * p * r, p + r)

    formulas = {
        StatKind.TAU_A: lambda: ratio(c - d, c + d + th + tm + thm),
        StatKind.TAU_B: lambda: ratio(c - d, np.sqrt((c + d + th).astype(np.float64) * (c + d + tm))),
        StatKind.TAU_C: lambda: ratio(c - d, n * n * (k - 1) / k),
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


def stat_from_counts(kind: StatKind, counts: PairCounts, *,
                     k: int | None = None, n: int | None = None) -> float | None:
    """Evaluate a statistic from pair counts.

    Returns None (undefined) whenever the formula's denominator is zero;
    callers decide how undefined values aggregate.  ``k`` (the smaller
    unique-value count of the two vectors) and ``n`` (the vector length)
    are required for TAU_C only.
    """
    if kind is StatKind.TAU_C:
        if k is None or n is None:
            raise ValueError("tau_c needs the k and n context of the input vectors")
        if k < 1 or n < 0:
            raise ValueError(f"invalid tau_c context k={k}, n={n}")
    columns = np.array(counts.as_tuple(), dtype=np.int64)[:, None]
    value = float(_stat_from_arrays(kind, *columns, k=k, n=n)[0])
    return None if math.isnan(value) else value


RELATIONS = ("<", "=", ">")

Cell = tuple[str, str]


@dataclass(frozen=True)
class CoefficientTable:
    """3x3 coefficient grid over (human relation, metric relation) cells.

    Entries are -1, 0, +1, or None meaning the cell's pairs are excluded.
    The induced statistic is sum(coef * count) / sum(count) over the
    non-excluded cells.
    """

    entries: Mapping[Cell, int | None]

    def __post_init__(self) -> None:
        expected = {(h, m) for h in RELATIONS for m in RELATIONS}
        if set(self.entries) != expected:
            raise ValueError("coefficient table must cover exactly the 9 relation cells")
        for cell, coef in self.entries.items():
            if coef is not None and coef not in (-1, 0, 1):
                raise ValueError(f"cell {cell} has invalid coefficient {coef!r}")
        if all(coef is None for coef in self.entries.values()):
            raise ValueError("at least one cell must not be excluded")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | None]]) -> "CoefficientTable":
        """Build from three rows in human-relation order; "x" or None excludes."""
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 grid")
        entries: dict[Cell, int | None] = {}
        for h, row in zip(RELATIONS, rows):
            for m, coef in zip(RELATIONS, row):
                if coef is None or (isinstance(coef, str) and coef.lower() == "x"):
                    entries[(h, m)] = None
                else:
                    entries[(h, m)] = int(coef)
        return cls(entries)


_X = "x"
COEFFICIENT_TABLES: dict[StatKind, CoefficientTable] = {
    StatKind.TAU_10: CoefficientTable.from_rows([[1, -1, -1], [_X, _X, _X], [-1, -1, 1]]),
    StatKind.TAU_13: CoefficientTable.from_rows([[1, _X, -1], [_X, _X, _X], [-1, _X, 1]]),
    StatKind.TAU_14: CoefficientTable.from_rows([[1, 0, -1], [_X, _X, _X], [-1, 0, 1]]),
    StatKind.TAU_EQ: CoefficientTable.from_rows([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]]),
    StatKind.ACC_EQ: CoefficientTable.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
}


def stat_from_table(table: CoefficientTable, counts_by_cell: Mapping[Cell, int]) -> float | None:
    """Evaluate a tabular statistic: sum(coef * count) / sum(count).

    Both sums run over the non-excluded cells only; returns None when the
    denominator is zero.  Accumulation is integer-exact.
    """
    num = 0
    den = 0
    for cell, coef in table.entries.items():
        count = int(counts_by_cell[cell])
        if count < 0:
            raise ValueError(f"cell {cell} has negative count {count}")
        if coef is None:
            continue
        num += coef * count
        den += count
    return _ratio(num, den)


def counts_from_cells(counts_by_cell: Mapping[Cell, int]) -> PairCounts:
    """Aggregate 3x3 relation-cell counts into the five pair classes."""
    g = counts_by_cell.__getitem__
    return PairCounts(
        concordant=g(("<", "<")) + g((">", ">")),
        discordant=g(("<", ">")) + g((">", "<")),
        tied_human=g(("=", "<")) + g(("=", ">")),
        tied_metric=g(("<", "=")) + g((">", "=")),
        tied_both=g(("=", "=")),
    )


def _pair_blocks(h: np.ndarray, m: np.ndarray, sizes: Sequence[int], pol: EpsilonPolicy, *,
                 midpoints: bool = False
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """Classify every within-group pair, ``_BLOCK_PAIRS`` pairs at a time.

    ``h`` and ``m`` are the groups' vectors concatenated and ``sizes`` the
    group lengths.  Pairs come group by group, in np.triu_indices order
    inside each.  Each block is the pairs' metric gap (float64), group
    (int32), class under ``pol`` (int8; human-tied iff _TIED_H or
    _TIED_BOTH) and, on request, mean metric score.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
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
        j = np.arange(p0 + 1, p1 + 1) - np.repeat(shift[rows], take)
        hi, hj = np.repeat(h[rows], take), h[j]
        mi, mj = np.repeat(m[rows], take), m[j]
        gap = pol.gaps(mi, mj)
        code = (((gap <= pol.epsilon).view(np.uint8) << 2) | ((hi == hj).view(np.uint8) << 1)
                | ((hi > hj) != (mi > mj)).view(np.uint8))
        yield (gap, np.repeat(owner[rows], take), _CLASS_OF_CODE.take(code),
               (mi + mj) / 2.0 if midpoints else None)


def _pair_counts(h: np.ndarray, m: np.ndarray, sizes: Sequence[int],
                 pol: EpsilonPolicy) -> np.ndarray:
    """Per-group class counts, a (groups, 5) int64 array in class order."""
    counts = np.zeros((len(sizes), 5), dtype=np.int64)
    for _, group, cls, _ in _pair_blocks(h, m, sizes, pol):
        first, span = group[0], group[-1] - group[0] + 1  # a block's groups are contiguous
        counts[first:first + span] += np.bincount(
            (group - first) * 5 + cls, minlength=5 * span).reshape(span, 5)
    return counts


def suff_stats(human: Scores, metric: Scores, eps: EpsilonPolicy | float = 0.0) -> PairCounts:
    """Classify every unordered pair of the two vectors into the five classes.

    Human ties are exact equality; metric ties are gap <= epsilon under the
    policy.  Vectors with fewer than two entries yield all-zero counts.
    The enumeration is blocked so memory stays bounded for large inputs.
    """
    h = as_score_vector(human)
    m = as_score_vector(metric)
    if h.size != m.size:
        raise ValueError(f"length mismatch: {h.size} human vs {m.size} metric scores")
    return PairCounts(*_pair_counts(h, m, [h.size], _as_policy(eps))[0].tolist())


def tau_c_context(human: Scores, metric: Scores) -> tuple[int, int]:
    """(k, n) for TAU_C: smaller unique-value count and the vector length.

    Unique values are counted on the raw vectors, before any epsilon tying.
    """
    h = as_score_vector(human)
    m = as_score_vector(metric)
    if h.size != m.size:
        raise ValueError(f"length mismatch: {h.size} vs {m.size}")
    return min(np.unique(h).size, np.unique(m).size), int(h.size)


def pearson(x: Scores, y: Scores) -> float | None:
    """Product-moment correlation; None if either input has zero variance."""
    xv = as_score_vector(x)
    yv = as_score_vector(y)
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 2:
        return None
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        return None
    return float((xc @ yc) / math.sqrt(sxx * syy))


def spearman(x: Scores, y: Scores) -> float | None:
    """Pearson correlation of mid-ranks (ties get their average rank)."""
    xv = as_score_vector(x)
    yv = as_score_vector(y)
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 2:
        return None
    return pearson(rankdata(xv), rankdata(yv))


def break_ties_randomly(metric: Scores, eps: EpsilonPolicy | float = 0.0, *,
                        seed: int) -> np.ndarray:
    """Replace scores by their ranks after randomly ordering tied clusters.

    Scores are sorted and chunked into clusters greedily: a score joins the
    current cluster while its policy gap to the cluster's first score stays
    <= epsilon, so under an absolute policy any two scores with a gap
    larger than epsilon keep their relative order.  Each cluster's internal
    order is drawn uniformly at random; the result is deterministic for a
    given seed.  Returned scores are the ranks 1..n.
    """
    pol = _as_policy(eps)
    m = as_score_vector(metric)
    n = m.size
    rng = np.random.default_rng(seed)
    order = np.argsort(m, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i + 1
        first = m[order[i]]
        while j < n and pol.gaps(first, m[order[j]]) <= pol.epsilon:
            j += 1
        cluster = order[i:j]
        if j - i > 1:
            cluster = cluster[rng.permutation(j - i)]
        ranks[cluster] = np.arange(i + 1, j + 1, dtype=np.float64)
        i = j
    return ranks
