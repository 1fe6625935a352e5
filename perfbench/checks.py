"""Output checks, written independently of the ``tiecal`` package.

Nothing here imports ``tiecal``: score files are parsed with plain string
splitting, pairs are classified with dense numpy arrays, and the pooled
Kendall tau-b comes from ``scipy.stats.kendalltau``.  Every check returns
a list of failure messages; an empty list means the reports are correct.

Reports print floats with six significant digits, so a value matches when
it is within ``VALUE_TOL`` of the independent one, and a reported
threshold matches every observed gap that prints as the same text.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.stats import kendalltau

VALUE_TOL = 1e-6
BASELINE = "Constant-Metric"
SAMPLED_GAPS = 48  # per metric, for the "no gap beats stat*" check


# --- inputs ---------------------------------------------------------------

def read_dense(path: Path) -> np.ndarray:
    """A (systems, segments) score matrix, both axes sorted by id."""
    cells: dict[tuple[str, str], float] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if line.startswith("#") or fields == ["system", "segment", "score"]:
                continue
            cells[(fields[0], fields[1])] = float(fields[2])
    systems = sorted({s for s, _ in cells})
    segments = sorted({g for _, g in cells})
    if len(cells) != len(systems) * len(segments):
        raise ValueError(f"{path}: campaign is not complete")
    return np.array([[cells[(s, g)] for g in segments] for s in systems])


def _metric_inputs(inputs: dict[str, Path]) -> dict[str, np.ndarray]:
    return {name[:-len(".tsv")]: read_dense(path)
            for name, path in inputs.items() if name != "human.tsv"}


# --- reports --------------------------------------------------------------

def read_tsv_report(payload: bytes) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Metadata lines ("# key=value") and rows keyed by column name."""
    meta: dict[str, str] = {}
    lines = payload.decode("utf-8").splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line.split("\t"))
    header, *rows = body
    return meta, [dict(zip(header, row)) for row in rows]


def _num(text: str | float | None) -> float | None:
    if text is None or text == "NaN":
        return None
    return float(text)


def _same(reported: str | float | None, expected: float | None) -> bool:
    got = _num(reported)
    if got is None or expected is None or np.isnan(expected):
        return got is None and (expected is None or np.isnan(expected))
    return abs(got - expected) <= VALUE_TOL * max(1.0, abs(expected))


def _prints_as(value: float, text: str) -> bool:
    return f"{value:.6g}" == text


# --- pair classification --------------------------------------------------

class GroupPairs:
    """All within-group pairs of dense (groups, members) score arrays."""

    def __init__(self, human: np.ndarray, metric: np.ndarray, relative: bool):
        iu, ju = np.triu_indices(human.shape[1], k=1)
        dh = human[:, iu] - human[:, ju]
        mi, mj = metric[:, iu], metric[:, ju]
        gap = np.abs(mi - mj)
        if relative:
            denom = np.maximum(np.abs(mi), np.abs(mj))
            gap = np.divide(gap, denom, out=np.zeros_like(gap), where=denom > 0)
        self.gap = gap
        self.h_tie = dh == 0
        self.agree = np.sign(dh) == np.sign(mi - mj)

    @property
    def total(self) -> int:
        return self.gap.size

    def classes(self, eps: float) -> dict[str, np.ndarray]:
        """Per-group counts of the five pair classes at threshold ``eps``."""
        m_tie = self.gap <= eps
        untied = ~self.h_tie & ~m_tie
        return {
            "c": np.count_nonzero(untied & self.agree, axis=1),
            "d": np.count_nonzero(untied & ~self.agree, axis=1),
            "th": np.count_nonzero(self.h_tie & ~m_tie, axis=1),
            "tm": np.count_nonzero(m_tie & ~self.h_tie, axis=1),
            "both": np.count_nonzero(self.h_tie & m_tie, axis=1),
        }

    def candidates(self) -> np.ndarray:
        """Zero plus every distinct observed gap, ascending."""
        return np.union1d([0.0], self.gap)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.full(num.shape, np.nan)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _f1(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    out = np.full(p.shape, np.nan)
    ok = ~np.isnan(p) & ~np.isnan(r) & (p + r > 0)  # both zero: undefined
    out[ok] = 2 * p[ok] * r[ok] / (p[ok] + r[ok])
    return out


def group_stats(k: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """acc_eq, ties_f1 and rank_f1 per group; NaN where undefined."""
    c, d, th, tm, both = (k[x].astype(np.float64) for x in ("c", "d", "th", "tm", "both"))
    return {
        "acc_eq": _ratio(c + both, c + d + th + tm + both),
        "ties_f1": _f1(_ratio(both, both + tm), _ratio(both, both + th)),
        "rank_f1": _f1(_ratio(c, c + d + th), _ratio(c, c + d + tm)),
    }


def grouped_mean(values: np.ndarray) -> float | None:
    defined = ~np.isnan(values)
    return float(values[defined].mean()) if defined.any() else None


def acc_eq_at(pairs: GroupPairs, eps: float) -> float | None:
    return grouped_mean(group_stats(pairs.classes(eps))["acc_eq"])


def _check_calibrated(name: str, pairs: GroupPairs, eps_text: str, value_text: str,
                      rng: np.random.Generator) -> list[str]:
    """The value at the reported threshold, and no sampled gap beats it."""
    cands = pairs.candidates()
    target = float(eps_text)
    lo = np.searchsorted(cands, target * (1 - 1e-5), side="left")
    hi = np.searchsorted(cands, target * (1 + 1e-5), side="right")
    nearby = [g for g in cands[lo:hi].tolist() if _prints_as(g, eps_text)]
    if not nearby:
        return [f"{name}: epsilon_star {eps_text} is not an observed gap"]
    # Float noise can make one decimal gap several distinct candidates.
    if not any(_same(value_text, acc_eq_at(pairs, g)) for g in nearby[:64]):
        return [f"{name}: acc_eq at epsilon_star {eps_text} is not {value_text}"]
    best = float(value_text)
    for g in rng.choice(cands, size=min(SAMPLED_GAPS, cands.size), replace=False).tolist():
        value = acc_eq_at(pairs, g)
        if value is not None and value > best + VALUE_TOL:
            return [f"{name}: gap {g!r} gives acc_eq {value} > reported stat* {best}"]
    return []


# --- workload checks ------------------------------------------------------

def check_item_rank(inputs: dict[str, Path], report: bytes, seed: int) -> list[str]:
    """rank --mode group-by-item --stat acc_eq --calibrate --baseline."""
    human = read_dense(inputs["human.tsv"])
    metrics = _metric_inputs(inputs)
    metrics[BASELINE] = np.zeros_like(human)
    meta, rows = read_tsv_report(report)
    failures = []
    if sorted(r["metric"] for r in rows) != sorted(metrics):
        return [f"rank report lists {[r['metric'] for r in rows]}, expected {sorted(metrics)}"]
    if meta.get("ranking") != ",".join(r["metric"] for r in rows):
        failures.append("rank report: '# ranking=' does not match the row order")
    values = [float(r["value"]) for r in rows]
    if values != sorted(values, reverse=True) or [r["rank"] for r in rows] != [
            str(i) for i in range(1, len(rows) + 1)]:
        failures.append("rank report: rows are not in descending value order")
    groups = str(human.shape[1])
    rng = np.random.default_rng(seed)
    for row in rows:
        name = row["metric"]
        if (row["groups_total"], row["groups_used"]) != (groups, groups):
            failures.append(f"{name}: groups {row['groups_used']}/{row['groups_total']}, "
                            f"expected {groups}/{groups}")
        # Transpose to (segments, systems): one group per item.
        pairs = GroupPairs(human.T, metrics[name].T, relative=False)
        failures += _check_calibrated(name, pairs, row["epsilon"], row["value"], rng)
    return failures


def check_pooled_correlate(inputs: dict[str, Path], report: bytes) -> list[str]:
    """correlate --mode no-grouping --stat all --epsilon 0.01.

    The discrete metric has integer levels, so epsilon 0.01 means exact
    ties: its tie classes are counted from joint value frequencies and its
    tau_b is compared with scipy's.
    """
    human = read_dense(inputs["human.tsv"])
    metrics = _metric_inputs(inputs)
    h = human.ravel()
    total = h.size * (h.size - 1) // 2
    _, rows = read_tsv_report(report)
    failures = []
    if len(rows) != 8 * len(metrics):
        failures.append(f"correlate report has {len(rows)} rows, expected {8 * len(metrics)}")
    for row in rows:
        counts = [int(row[k]) for k in ("concordant", "discordant", "tied_human_only",
                                         "tied_metric_only", "tied_both")]
        if int(row["pairs_total"]) != total or sum(counts) != total:
            failures.append(f"{row['metric']} {row['stat']}: pair counts do not sum to {total}")
    m = metrics["disc"].ravel()
    if not np.array_equal(m, np.round(m)):
        return failures + ["metric 'disc' is not integer-valued"]

    def tied(*columns: np.ndarray) -> int:
        _, freq = np.unique(np.stack(columns), axis=1, return_counts=True)
        return int((freq * (freq - 1) // 2).sum())

    both = tied(h, m)
    expected = {"tied_both": both, "tied_human_only": tied(h) - both,
                "tied_metric_only": tied(m) - both}
    tau_b = kendalltau(h, m, variant="b").statistic
    for row in rows:
        if row["metric"] != "disc":
            continue
        for key, value in expected.items():
            if int(row[key]) != value:
                failures.append(f"disc {row['stat']}: {key}={row[key]}, expected {value}")
        if row["stat"] == "tau_b" and not _same(row["value"], float(tau_b)):
            failures.append(f"disc tau_b {row['value']} != scipy kendalltau {tau_b:.6g}")
    if not any(r["metric"] == "disc" and r["stat"] == "tau_b" for r in rows):
        failures.append("correlate report has no disc tau_b row")
    return failures


def check_system_curves(inputs: dict[str, Path], reports: dict[str, bytes],
                        grid: list[float], hist_eps: float, bins: int) -> list[str]:
    """calibrate, f1-curve and tie-hist at group-by-system, relative mode."""
    human = read_dense(inputs["human.tsv"])
    (name, metric), = _metric_inputs(inputs).items()
    pairs = GroupPairs(human, metric, relative=True)
    failures = []

    doc = json.loads(reports["calibrate"])
    result, = doc["results"]
    cands = pairs.candidates()
    expected = {"metric": name, "groups_total": human.shape[0],
                "groups_used": human.shape[0], "pairs_total": pairs.total,
                "candidates": cands.size, "exact": True}
    for key, value in expected.items():
        if result.get(key) != value:
            failures.append(f"calibrate: {key}={result.get(key)!r}, expected {value!r}")
    failures += _check_calibrated(
        f"calibrate {name}", pairs, f"{result['epsilon_star']:.6g}",
        "NaN" if result["value"] is None else repr(result["value"]),
        np.random.default_rng(0))

    _, rows = read_tsv_report(reports["f1-curve"])
    if [float(r["epsilon"]) for r in rows] != sorted(grid):
        failures.append("f1-curve: rows do not follow the sorted grid")
    for row in rows:
        expected_stats = {k: grouped_mean(v) for k, v in
                          group_stats(pairs.classes(float(row["epsilon"]))).items()}
        for key, value in expected_stats.items():
            if not _same(row[key], value):
                failures.append(f"f1-curve eps={row['epsilon']}: {key}={row[key]}, "
                                f"expected {value}")

    _, rows = read_tsv_report(reports["tie-hist"])
    iu, ju = np.triu_indices(metric.shape[1], k=1)
    location = ((metric[:, iu] + metric[:, ju]) / 2.0).ravel()
    newly = ((pairs.gap > 0) & (pairs.gap <= hist_eps)).ravel()
    all_counts, edges = np.histogram(location, bins=bins)
    new_counts, _ = np.histogram(location[newly], bins=edges)
    got_all = [int(r["all_pairs"]) for r in rows]
    got_new = [int(r["newly_tied"]) for r in rows]
    if got_all != all_counts.tolist() or got_new != new_counts.tolist():
        failures.append("tie-hist: bin counts differ from the independent histogram")
    return failures
