"""Independent reference implementations used as test oracles.

Everything here re-derives expected values directly from definitions
(pure-python or flat-numpy enumeration, plain-dict grouping); none of it
shares code with the alignment, blocked or incremental paths it is used
to check.
"""

import math
import re
from pathlib import Path

import numpy as np


def oracle_groups(human, metric, mode):
    """Per group, the (human, metric) vectors of the keys both matrices score.

    Groups come in id order and entries in (system, segment) order inside
    each; no-grouping pools every key in one group, and no common key
    gives no group.  ``mode`` is a grouping mode, read by its value.
    """
    group_id = {"no-grouping": lambda system, segment: "",
                "group-by-item": lambda system, segment: segment,
                "group-by-system": lambda system, segment: system}[mode.value]
    scores = {(system, segment): m for system, segment, m in metric.items()}
    grouped = {}
    for system, segment, h in human.items():
        if (system, segment) in scores:
            grouped.setdefault(group_id(system, segment), []).append(((system, segment), h))
    groups = []
    for gid in sorted(grouped):
        rows = sorted(grouped[gid])
        groups.append((np.array([h for _, h in rows]),
                       np.array([scores[key] for key, _ in rows])))
    return groups


def oracle_gap(a, b, relative=False):
    """Gap between two metric scores; relative gaps divide by the larger
    magnitude, and two exact zeros have gap 0.  An absolute gap beyond the
    float range is inf; a relative one is taken on the halved scores, whose
    difference fits and whose ratio is the same."""
    gap = abs(a - b)
    if not relative:
        return gap
    scale = max(abs(a), abs(b))
    if math.isinf(gap):  # both scores are far from subnormal, so halving them is exact
        return abs(a / 2 - b / 2) / (scale / 2)
    return gap / scale if scale > 0 else 0.0


def naive_suff_stats(h, m, eps=0.0, relative=False):
    """Pure-python pair classification: the counts of concordant,
    discordant, human-only tied, metric-only tied and both tied pairs."""
    c = d = th = tm = thm = 0
    n = len(h)
    for i in range(n):
        for j in range(i + 1, n):
            h_tie = h[i] == h[j]
            m_tie = oracle_gap(m[i], m[j], relative) <= eps
            if h_tie and m_tie:
                thm += 1
            elif h_tie:
                th += 1
            elif m_tie:
                tm += 1
            elif (h[i] < h[j]) == (m[i] < m[j]):
                c += 1
            else:
                d += 1
    return c, d, th, tm, thm


def oracle_tau_c_context(h, m):
    """TAU_C's (k, n) for one group's score lists: the smaller count of
    distinct values, by Python set (where -0.0 and 0.0 are one value, as
    in np.unique), and the group size."""
    return min(len(set(h)), len(set(m))), len(h)


def pair_views(groups, relative=False):
    """Per group: (gaps, human-tie mask, concordance mask, (k, n)), by enumeration."""
    views = []
    for hg, mg in groups:
        h, m = hg.tolist(), mg.tolist()
        if len(h) < 2:
            views.append(None)
            continue
        pairs = [(i, j) for i in range(len(h)) for j in range(i + 1, len(h))]
        gaps = np.array([oracle_gap(m[i], m[j], relative) for i, j in pairs])
        h_tie = np.array([h[i] == h[j] for i, j in pairs])
        conc = np.array([(h[i] < h[j]) == (m[i] < m[j]) for i, j in pairs])
        views.append((gaps, h_tie, conc, oracle_tau_c_context(h, m)))
    return views


def _frac(num, den):
    return num / den if den else None


def _harmonic(p, r):
    if p is None or r is None or (p == 0 and r == 0):
        return None
    return 2 * p * r / (p + r)


def _tau_b(c, d, th, tm):
    f1, f2 = c + d + th, c + d + tm
    return (c - d) / math.sqrt(f1 * f2) if f1 and f2 else None


# Independent restatement of every statistic, keyed by its public name.
# Arguments: the five class counts, then tau_c's (k, n) context.
ORACLE_FORMULAS = {
    "tau_a": lambda c, d, th, tm, thm, k, n: _frac(c - d, c + d + th + tm + thm),
    "tau_b": lambda c, d, th, tm, thm, k, n: _tau_b(c, d, th, tm),
    "tau_c": lambda c, d, th, tm, thm, k, n: _frac(c - d, n * n * (k - 1) / k),
    "tau_10": lambda c, d, th, tm, thm, k, n: _frac(c - d - tm, c + d + tm),
    "tau_13": lambda c, d, th, tm, thm, k, n: _frac(c - d, c + d),
    "tau_14": lambda c, d, th, tm, thm, k, n: _frac(c - d, c + d + tm),
    "tau_eq": lambda c, d, th, tm, thm, k, n: _frac(c + thm - d - th - tm,
                                                    c + d + th + tm + thm),
    "acc_eq": lambda c, d, th, tm, thm, k, n: _frac(c + thm, c + d + th + tm + thm),
    "ties_p": lambda c, d, th, tm, thm, k, n: _frac(thm, thm + tm),
    "ties_r": lambda c, d, th, tm, thm, k, n: _frac(thm, thm + th),
    "ties_f1": lambda c, d, th, tm, thm, k, n: _harmonic(_frac(thm, thm + tm),
                                                         _frac(thm, thm + th)),
    "rank_p": lambda c, d, th, tm, thm, k, n: _frac(c, c + d + th),
    "rank_r": lambda c, d, th, tm, thm, k, n: _frac(c, c + d + tm),
    "rank_f1": lambda c, d, th, tm, thm, k, n: _harmonic(_frac(c, c + d + th),
                                                         _frac(c, c + d + tm)),
}


def oracle_stat(kind, c, d, th, tm, thm, k=None, n=None):
    """Evaluate ``kind`` from class counts; None where it is undefined."""
    return ORACLE_FORMULAS[kind.value](c, d, th, tm, thm, k, n)


# The paper's tabular statistics as 3x3 coefficient grids, keyed by public
# name.  Row and column are a pair's human and metric relation, each in
# RELATIONS order; None excludes the cell's pairs.
RELATIONS = "<=>"
X = None
COEFFICIENT_GRIDS = {
    "tau_10": ((1, -1, -1), (X, X, X), (-1, -1, 1)),
    "tau_13": ((1, X, -1), (X, X, X), (-1, X, 1)),
    "tau_14": ((1, 0, -1), (X, X, X), (-1, 0, 1)),
    "tau_eq": ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)),
    "acc_eq": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


def grid_stat(grid, cells):
    """sum(coef * count) / sum(count) over the grid's cells that are not
    excluded, summed in exact integers; None when they hold no pair.
    ``cells`` maps (human relation, metric relation) to a pair count."""
    if all(coef is None for row in grid for coef in row):
        raise ValueError("a grid must include at least one cell")
    num = den = 0
    for h, row in zip(RELATIONS, grid):
        for m, coef in zip(RELATIONS, row):
            if coef is not None:
                num += coef * cells[h, m]
                den += cells[h, m]
    return _frac(num, den)


def counts_from_cells(cells):
    """Fold 3x3 relation-cell counts into the five pair classes, in
    ``naive_suff_stats`` order."""
    return (cells["<", "<"] + cells[">", ">"], cells["<", ">"] + cells[">", "<"],
            cells["=", "<"] + cells["=", ">"], cells["<", "="] + cells[">", "="],
            cells["=", "="])


def mean_defined(values):
    """The mean over defined (non-NaN) group values, or None if none is defined."""
    defined = np.count_nonzero(~np.isnan(values))
    return float(np.nansum(values) / defined) if defined else None


def brute_force_calibration(human, metric, mode, kind, relative=False):
    """Maximize by re-evaluating every candidate threshold from scratch.

    Candidates are zero plus every within-group gap; the smallest candidate
    attaining the maximum wins, mirroring the documented tie-break.
    """
    groups = oracle_groups(human, metric, mode)
    views = pair_views(groups, relative)
    candidates = {0.0, *(float(g) for view in views if view is not None for g in view[0])}
    best_eps = 0.0
    best_val = None
    for eps in sorted(candidates):
        values = np.full(len(groups), np.nan)
        for gi, view in enumerate(views):
            if view is None:
                continue
            gaps, h_tie, conc, (k, n) = view
            m_tie = gaps <= eps
            thm = int(np.count_nonzero(h_tie & m_tie))
            th = int(np.count_nonzero(h_tie & ~m_tie))
            tm = int(np.count_nonzero(m_tie & ~h_tie))
            open_pairs = ~h_tie & ~m_tie
            c = int(np.count_nonzero(open_pairs & conc))
            d = int(np.count_nonzero(open_pairs & ~conc))
            value = oracle_stat(kind, c, d, th, tm, thm, k, n)
            if value is not None:
                values[gi] = value
        value = mean_defined(values)
        if value is not None and (best_val is None or value > best_val):
            best_val = value
            best_eps = eps
    return best_eps, best_val


def loop_break_ties_randomly(metric, eps, relative, seed):
    """``break_ties_randomly`` as a loop over the sorted scores: a score joins
    the current cluster while its gap to the cluster's first is <= eps, and
    each cluster of two or more is permuted by the seeded generator."""
    m = np.asarray(metric, dtype=np.float64)
    n = m.size
    rng = np.random.default_rng(seed)
    order = np.argsort(m, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i + 1
        first = m[order[i]]
        while j < n and oracle_gap(float(first), float(m[order[j]]), relative) <= eps:
            j += 1
        cluster = order[i:j]
        if j - i > 1:
            cluster = cluster[rng.permutation(j - i)]
        ranks[cluster] = np.arange(i + 1, j + 1, dtype=np.float64)
        i = j
    return ranks


# README's score format: a finite base-10 decimal in ASCII digits, optionally
# signed, with an optional exponent; and the spellings float() reads as
# non-finite, in ASCII letters only (float() refuses "\u0131nf").
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_NON_FINITE = re.compile(r"[+-]?(inf|infinity|nan)", re.ASCII | re.IGNORECASE)


def oracle_load_scores(path):
    """README's score-file rules, one line at a time.

    Lines end at \\n, \\r\\n or \\r and each is decoded as UTF-8 on its
    own, so a line that is not UTF-8 is an error at its place in the file.
    Returns the ((system, segment), score) entries in file order, or the
    first error as "path:line: message".
    """
    lines = re.split(rb"\r\n|\r|\n", Path(path).read_bytes())
    if lines[-1] == b"":  # the last line's terminator starts no line
        lines.pop()
    entries = {}
    header_allowed = True
    for number, raw in enumerate(lines, start=1):
        where = f"{path}:{number}: "
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return where + "not valid UTF-8"
        if number == 1:
            line = line.removeprefix("\ufeff")
        if line.startswith("#") or ("\t" not in line and (line == "" or line.isspace())):
            continue
        if header_allowed and line == "system\tsegment\tscore":
            header_allowed = False
            continue
        header_allowed = False
        fields = line.split("\t")
        if len(fields) != 3:
            return where + f"expected 3 tab-separated columns, got {len(fields)}"
        system, segment, score = fields
        if _NON_FINITE.fullmatch(score):
            return where + f"column 3: non-finite score {score!r}"
        if not _DECIMAL.fullmatch(score):
            return where + f"column 3: unparseable score {score!r}"
        if math.isinf(float(score)):  # a decimal beyond the float range
            return where + f"column 3: non-finite score {score!r}"
        if (system, segment) in entries:
            return where + f"duplicate entry for system={system!r} segment={segment!r}"
        entries[(system, segment)] = float(score)
    return list(entries.items())
