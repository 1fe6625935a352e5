"""Independent reference implementations used as test oracles.

Everything here re-derives expected values directly from definitions
(pure-python or flat-numpy enumeration, plain-dict grouping); none of it
shares code with the alignment, blocked or incremental paths it is used
to check.  The only library piece reused is the aggregation contract
(mean over defined groups).
"""

import math
import re
from pathlib import Path

import numpy as np

from tiecal import GroupingMode, PairCounts, mean_defined


def oracle_groups(human, metric, mode):
    """Per group, the (human, metric) vectors of the keys both matrices score.

    Groups come in id order and entries in (system, segment) order inside
    each; no-grouping pools every key in one group, and no common key
    gives no group.
    """
    group_id = {GroupingMode.NO_GROUPING: lambda system, segment: "",
                GroupingMode.GROUP_BY_ITEM: lambda system, segment: segment,
                GroupingMode.GROUP_BY_SYSTEM: lambda system, segment: system}[mode]
    grouped = {}
    for system, segment, h in human.items():
        if (system, segment) in metric:
            grouped.setdefault(group_id(system, segment), []).append(((system, segment), h))
    groups = []
    for gid in sorted(grouped):
        rows = sorted(grouped[gid])
        groups.append((np.array([h for _, h in rows]),
                       np.array([metric.get(*key) for key, _ in rows])))
    return groups


def oracle_gap(a, b, relative=False):
    """Gap between two metric scores; relative gaps divide by the larger
    magnitude, and two exact zeros have gap 0."""
    gap = abs(a - b)
    if not relative:
        return gap
    scale = max(abs(a), abs(b))
    return gap / scale if scale > 0 else 0.0


def naive_suff_stats(h, m, eps=0.0, relative=False):
    """Pure-python pair classification."""
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
    return PairCounts(c, d, th, tm, thm)


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
        context = (min(len(set(h)), len(set(m))), len(h))
        views.append((gaps, h_tie, conc, context))
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


def brute_force_calibration(human, metric, mode, kind, relative=False, sample=None):
    """Maximize by re-evaluating every candidate threshold from scratch.

    Candidates are zero plus every within-group gap; the smallest candidate
    attaining the maximum wins, mirroring the documented tie-break.  With
    ``sample`` = (fraction, seed) they are zero plus the gaps of a seeded
    draw of round(fraction * pairs) pairs (at least one, without
    replacement) from the pairs listed group by group, (i, j) with i < j in
    row-major order inside each.
    """
    groups = oracle_groups(human, metric, mode)
    views = pair_views(groups, relative)
    gaps = [float(g) for view in views if view is not None for g in view[0]]
    if sample is not None:
        fraction, seed = sample
        size = max(1, int(round(fraction * len(gaps))))
        picked = np.random.default_rng(seed).choice(len(gaps), size=size, replace=False)
        gaps = [gaps[i] for i in picked]
    candidates = {0.0, *gaps}
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


# README's score format: a finite base-10 decimal in ASCII digits, optionally
# signed, with an optional exponent; and the spellings float() reads as
# non-finite.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_NON_FINITE = re.compile(r"[+-]?(inf|infinity|nan)", re.IGNORECASE)


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
