"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line and enforcing its stated tolerance and time budget."""

import json
import os
import time
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    COEFFICIENT_GRIDS,
    brute_force_calibration,
    counts_from_cells,
    grid_stat,
    mean_defined,
    naive_suff_stats,
    oracle_groups,
    pair_views,
)

from tiecal import (
    CalibrationConfig,
    EpsilonMode,
    EpsilonPolicy,
    GroupingMode,
    ScoreMatrix,
    StatKind,
    align,
    calibrate,
    grouped_stats,
    load_scores,
)
from tiecal.calibration import _approx_means, _moves, _replay
from tiecal.cli import main as cli_main
from tiecal.stats import _pair_counts, _stat_from_arrays


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_figure3_exactness(tmp_path):
    """All 16 statistic values on the worked example, from one `correlate
    --stat all` report, within +-0.005, < 1s."""
    expected = {
        "m1": {"tau_a": .47, "tau_b": .78, "tau_c": .29, "tau_10": .78,
               "tau_13": .78, "tau_14": .78, "tau_eq": .87, "acc_eq": .93},
        "m2": {"tau_a": .60, "tau_b": .77, "tau_c": .38, "tau_10": 1.0,
               "tau_13": 1.0, "tau_14": 1.0, "tau_eq": .20, "acc_eq": .60},
    }
    columns = {"h": [0, 0, 0, 0, 1, 2], "m1": [0, 0, 0, 0, 2, 1], "m2": [0, 1, 2, 3, 4, 5]}
    for name, scores in columns.items():
        (tmp_path / f"{name}.tsv").write_text(
            "".join(f"s{i}\tg\t{v}\n" for i, v in enumerate(scores)), encoding="utf-8")
    start = time.perf_counter()
    code = cli_main(["correlate", "--stat", "all", "--format", "json",
                     "--human", str(tmp_path / "h.tsv"),
                     "--metric", f"m1={tmp_path / 'm1.tsv'}",
                     "--metric", f"m2={tmp_path / 'm2.tsv'}",
                     "--out", str(tmp_path / "report.json")])
    elapsed = time.perf_counter() - start
    rows = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["results"]
    values = {(row["metric"], row["stat"]): row["value"] for row in rows}
    assert code == 0 and len(values) == 16
    worst = max(abs(values[name, stat] - value)
                for name, stats in expected.items() for stat, value in stats.items())
    # the stated tolerance plus one ulp-scale guard for the 0.375 vs .38 boundary
    ok = worst <= 0.005 + 1e-9 and elapsed < 1.0
    report("figure3-exactness", ok, f"max dev {worst:.4f}, {elapsed:.2f}s")


def _random_instance(rng, signed=False):
    """Small grouped campaign on a coarse lattice (duplicate gaps); with
    ``signed`` the metric lattice spans zero, so relative gaps see mixed
    signs and pairs of exact zeros."""
    n_groups = int(rng.integers(1, 6))
    low = -4 if signed else 0
    h, m = [], []
    for j in range(n_groups):
        size = int(rng.integers(2, 16)) if j == 0 else int(rng.integers(1, 16))
        for i in range(size):
            h.append((f"s{i}", f"g{j}", float(rng.integers(0, 10)) / 4.0))
            m.append((f"s{i}", f"g{j}", float(rng.integers(low, 10)) / 4.0))
    return ScoreMatrix(h), ScoreMatrix(m)


def test_calibration_oracle_equivalence():
    """200 seeded instances over all 14 statistics in both epsilon modes:
    exact sweep == brute force, smallest epsilon; < 30s."""
    rng = np.random.default_rng(20240)
    kinds = list(StatKind)
    start = time.perf_counter()
    mismatches = 0
    for i in range(200):
        kind = kinds[i % len(kinds)]
        relative = (i // len(kinds)) % 2 == 1
        h, m = _random_instance(rng, signed=relative)
        mode = GroupingMode.GROUP_BY_ITEM if i % 3 else GroupingMode.NO_GROUPING
        eps_mode = EpsilonMode.RELATIVE if relative else EpsilonMode.ABSOLUTE
        result = calibrate(h, m, CalibrationConfig(kind=kind, mode=mode, eps_mode=eps_mode))
        expect_eps, expect_val = brute_force_calibration(h, m, mode, kind, relative)
        if result.stat_star != expect_val or result.epsilon_star != expect_eps:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report("calibration-oracle-equivalence", ok,
           f"{mismatches} mismatches over 200 instances, {elapsed:.1f}s")


def test_tabular_equivalence():
    """1000 random cell grids: tabular == closed-form, exact incl. undefined; < 5s."""
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    grids = []
    for _ in range(1000):
        cells = {(a, b): int(rng.integers(0, 9)) for a in "<=>" for b in "<=>"}
        if rng.random() < 0.25:
            for cell in list(cells):
                if rng.random() < 0.8:
                    cells[cell] = 0
        grids.append(cells)
    counts = np.array([counts_from_cells(cells) for cells in grids]).T
    mismatches = 0
    for name, grid in COEFFICIENT_GRIDS.items():
        values = _stat_from_arrays(StatKind(name), *counts).tolist()
        mismatches += sum(grid_stat(grid, cells) != (None if np.isnan(value) else value)
                          for cells, value in zip(grids, values))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report("tabular-equivalence", ok, f"{mismatches} mismatches, {elapsed:.1f}s")


def test_no_ties_collapse():
    """500 tie-free vectors: the tau variants coincide and accuracy is their
    affine image, exactly; < 5s."""
    rng = np.random.default_rng(4242)
    start = time.perf_counter()
    failures = 0
    for _ in range(500):
        n = int(rng.integers(2, 60))
        h = rng.permutation(n).astype(float)
        m = rng.permutation(n).astype(float)
        human = ScoreMatrix((f"s{i}", "g", v) for i, v in enumerate(h.tolist()))
        metric = ScoreMatrix((f"s{i}", "g", v) for i, v in enumerate(m.tolist()))
        tau_a, *others = grouped_stats(human, metric, GroupingMode.NO_GROUPING,
                                       [StatKind.TAU_A, StatKind.TAU_B, StatKind.TAU_10,
                                        StatKind.TAU_13, StatKind.TAU_14, StatKind.TAU_EQ])
        same = all(report.value == tau_a.value for report in others)
        # acc_eq = (tau_a + 1) / 2 holds as an exact rational identity; the
        # two float expressions round differently, so verify with Fractions
        c, d, tied_human, tied_metric, tied_both = astuple(tau_a.pairs_by_class)
        total = tau_a.pairs_total
        acc_identity = Fraction(c + tied_both, total) == (Fraction(c - d, total) + 1) / 2
        if not (same and acc_identity and tied_human == tied_metric == tied_both == 0):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    report("no-ties-collapse", ok, f"{failures} failures, {elapsed:.1f}s")


def test_constant_metric_identities():
    """Constant metric: accuracy equals the human tie fraction and tau_10 is
    -1 where defined, exactly, in every grouping mode."""
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(20):
        n_systems = int(rng.integers(2, 8))
        n_segments = int(rng.integers(2, 15))
        h, m = [], []
        for i in range(n_systems):
            for j in range(n_segments):
                if rng.random() < 0.1:
                    continue
                h.append((f"s{i}", f"g{j}", float(rng.integers(0, 3))))
                m.append((f"s{i}", f"g{j}", 7.0))
        h, m = ScoreMatrix(h), ScoreMatrix(m)
        for mode in GroupingMode:
            groups = oracle_groups(h, m, mode)
            if not groups:
                continue
            # independent per-group human tie fractions
            fractions = np.full(len(groups), np.nan)
            any_untied = False
            for gi, (hg, _) in enumerate(groups):
                pairs = tied = 0
                for a in range(hg.size):
                    for b in range(a + 1, hg.size):
                        pairs += 1
                        tied += hg[a] == hg[b]
                if pairs:
                    fractions[gi] = tied / pairs
                    any_untied |= tied < pairs
            acc = grouped_stats(h, m, mode, [StatKind.ACC_EQ])[0]
            if acc.value != mean_defined(fractions):
                failures += 1
            tau10 = grouped_stats(h, m, mode, [StatKind.TAU_10])[0]
            if any_untied:
                if tau10.value != -1.0:
                    failures += 1
            elif tau10.value is not None:
                failures += 1
    report("constant-metric-identities", failures == 0, f"{failures} failures")


def _gaming_campaign(tmp_path):
    """15 systems x 500 segments; integer human scores with >= 40% tied
    pairs; metric = human + gaussian noise whose scale varies by segment."""
    rng = np.random.default_rng(2024)
    h_lines, m_lines = [], []
    easy_tiers = [8, 16, 32, 64]
    for j in range(500):
        if j < 250:
            tier = 1
            sigma = float(np.exp(rng.uniform(np.log(0.5), np.log(3.0))))
        else:
            tier = easy_tiers[j % 4]
            sigma = 0.25
        base = int(rng.integers(0, 36))
        levels = np.array([base, base + tier], dtype=float)
        hum = levels[(rng.random(15) > 0.6).astype(int)]
        met = hum + rng.normal(scale=sigma, size=15)
        for i in range(15):
            h_lines.append(f"s{i:02d}\tg{j:03d}\t{float(hum[i])!r}")
            m_lines.append(f"s{i:02d}\tg{j:03d}\t{float(met[i])!r}")
    h_path = tmp_path / "human.tsv"
    m_path = tmp_path / "metric.tsv"
    h_path.write_text("\n".join(h_lines) + "\n", encoding="utf-8")
    m_path.write_text("\n".join(m_lines) + "\n", encoding="utf-8")
    return h_path, m_path


def test_nan_gaming_reproduction(tmp_path, capsys):
    """Coarser bucketing strictly shrinks the evaluated groups while the
    reported correlation improves; < 60s."""
    start = time.perf_counter()
    h_path, m_path = _gaming_campaign(tmp_path)
    human = load_scores(h_path)
    metric = load_scores(m_path)

    tie_counts = human_tie_totals(human, GroupingMode.GROUP_BY_ITEM)
    tie_fraction = tie_counts[0] / tie_counts[1]

    code = cli_main(["buckets", "--human", str(h_path), "--metric", f"m={m_path}",
                     "--mode", "group-by-item", "--stat", "tau_b",
                     "--k-list", "64,32,16,8,4,2,1"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()
            if line and not line.startswith("#")]
    header = rows[0]
    table = [dict(zip(header, row)) for row in rows[1:]]
    used = [int(row["groups_used"]) for row in table]
    values = [None if row["value"] == "NaN" else float(row["value"]) for row in table]
    elapsed = time.perf_counter() - start

    strictly_decreasing = all(a > b for a, b in zip(used, used[1:]))
    improves = values[0] is not None and any(
        v is not None and v > values[0] for v in values[1:])
    ok = (tie_fraction >= 0.40 and strictly_decreasing and improves
          and elapsed < 60.0)
    report("nan-gaming-reproduction", ok,
           f"ties {tie_fraction:.0%}, used {used}, tau_b(64)={values[0]:.3f}, "
           f"best later {max(v for v in values[1:] if v is not None):.3f}, {elapsed:.1f}s")


def human_tie_totals(human, mode):
    """Pairs tied in the human scores, and all pairs, summed over the groups."""
    aligned = align(human, human, mode)
    counts = _pair_counts(*aligned[:3], EpsilonPolicy()).sum(axis=0)
    return int(counts[4]), int(counts.sum())


def test_incremental_sweep_consistency():
    """At every candidate threshold (zero and each distinct within-group gap,
    from the oracle) the sweep's exact replay holds the counts of a fresh
    enumeration and its approximate walk the batch grouped value within
    1e-12, grouped and pooled, in both epsilon modes; the calibration
    evaluates exactly those candidates."""
    rng = np.random.default_rng(606)
    failures = 0
    for trial in range(12):
        relative = trial % 2 == 1
        h, m = _random_instance(rng, signed=relative)
        mode = GroupingMode.NO_GROUPING if trial % 4 >= 2 else GroupingMode.GROUP_BY_ITEM
        eps_mode = EpsilonMode.RELATIVE if relative else EpsilonMode.ABSOLUTE
        groups = oracle_groups(h, m, mode)
        candidates = sorted({0.0, *(float(gap) for view in pair_views(groups, relative)
                                    if view is not None for gap in view[0])})
        result = calibrate(h, m, CalibrationConfig(kind=StatKind.ACC_EQ, mode=mode,
                                                   eps_mode=eps_mode))
        failures += result.candidates_evaluated != len(candidates)
        aligned = align(h, m, mode)
        total = int((aligned.sizes * (aligned.sizes - 1) // 2).sum())
        counts, gaps, packed = _moves(aligned, eps_mode, total)
        order = np.argsort(gaps)  # every move, in gap order
        gaps, packed = gaps[order], packed[order]
        ends = np.searchsorted(gaps, candidates, "right")
        start = _stat_from_arrays(StatKind.ACC_EQ, *counts.T)
        _, sums, defined = zip(*_approx_means(StatKind.ACC_EQ, counts, start, None, packed, ends))
        means = np.concatenate(sums) / np.concatenate(defined)
        for eps, mean, _ in zip(candidates, means, _replay(counts, packed, ends)):
            batch = grouped_stats(h, m, mode, [StatKind.ACC_EQ], EpsilonPolicy(eps, eps_mode))[0]
            failures += not abs(mean - batch.value) <= 1e-12
            for gi, (hg, mg) in enumerate(groups):
                expected = naive_suff_stats(hg.tolist(), mg.tolist(), eps, relative)
                failures += tuple(counts[gi].tolist()) != expected
    report("incremental-sweep-consistency", failures == 0, f"{failures} failures")


def test_performance():
    """Pooled pair counting at n=20000 under 60s; exact grouped calibration
    at 15x1500 under 10s (single-threaded)."""
    rng = np.random.default_rng(8)
    n = 20000
    h = rng.integers(0, 30, n).astype(float)
    m = h + rng.normal(size=n)
    start = time.perf_counter()
    counts = _pair_counts(h, m, [n], EpsilonPolicy())
    t_pairs = time.perf_counter() - start
    assert counts.sum() == n * (n - 1) // 2

    hmat, mmat = [], []
    for j in range(1500):
        hj = rng.integers(0, 10, 15).astype(float)
        mj = hj + rng.normal(size=15)
        for i in range(15):
            hmat.append((f"s{i:02d}", f"g{j:04d}", float(hj[i])))
            mmat.append((f"s{i:02d}", f"g{j:04d}", float(mj[i])))
    hmat, mmat = ScoreMatrix(hmat), ScoreMatrix(mmat)
    start = time.perf_counter()
    result = calibrate(hmat, mmat, CalibrationConfig(kind=StatKind.ACC_EQ,
                                                     mode=GroupingMode.GROUP_BY_ITEM))
    t_sweep = time.perf_counter() - start
    assert result.report.pairs_total == 1500 * 15 * 14 // 2

    ok = t_pairs < 60.0 and t_sweep < 10.0
    report("performance", ok,
           f"pair counts(20k)={t_pairs:.1f}s, calibrate(15x1500)={t_sweep:.1f}s")


def test_pooled_counting_at_a_million():
    """Pooled pair counting of 10**6 scores at epsilon 0.01 counts every pair
    in under 30 s (single-threaded) with under 512 MB of numpy memory at
    its peak, as tracemalloc sees it."""
    rng = np.random.default_rng(12)
    n = 10**6
    h = -rng.integers(0, 25, n).astype(float)
    m = h + rng.normal(size=n)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        counts = _pair_counts(h, m, [n], EpsilonPolicy(0.01))
        elapsed = time.perf_counter() - start
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    ok = counts.sum() == n * (n - 1) // 2 and elapsed < 30.0 and peak_mb < 512
    report("pooled-counting-at-a-million", ok,
           f"pair counts(1e6)={elapsed:.1f}s, peak {peak_mb:.0f} MB")


# Group-by-item accuracy-with-calibration values for WMT'22 en-de, used only
# when the (non-redistributable) campaign files are supplied by the user.
WMT22_ENDE_EXPECTED = {
    "Metric-X": 0.605, "UniTE": 0.595, "COMET-22": 0.594, "MaTESe": 0.582,
    "UniTE-src": 0.582, "GEMBA-GPT-4": 0.573, "MaTESe-QE": 0.572,
    "COMETKiwi": 0.572, "BLEURT-20": 0.568, "MS-COMET-22": 0.565,
    "COMET-QE": 0.555, "SEScore": 0.554, "MS-COMET-QE-22": 0.550,
    "HWTSC-Teacher-Sim": 0.545, "GEMBA-GPT-3.5": 0.545, "MEE4": 0.539,
    "REUSE": 0.534, "Constant-Metric": 0.534,
}

WMT_DATA_ENV = "TIECAL_WMT22_ENDE_DIR"


@pytest.mark.skipif(WMT_DATA_ENV not in os.environ,
                    reason=f"set {WMT_DATA_ENV} to a directory with human.tsv "
                           "and <metric>.tsv files to run this check")
def test_wmt22_ende_optional():
    """User-supplied WMT'22 en-de data: calibrated accuracy within +-0.01 of
    the published column; Metric-X threshold near 0.04."""
    data_dir = Path(os.environ[WMT_DATA_ENV])
    human = load_scores(data_dir / "human.tsv")
    failures = []
    config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.GROUP_BY_ITEM)
    for path in sorted(data_dir.glob("*.tsv")):
        name = path.stem
        if name == "human" or name not in WMT22_ENDE_EXPECTED:
            continue
        result = calibrate(human, load_scores(path), config)
        if abs(result.stat_star - WMT22_ENDE_EXPECTED[name]) > 0.01:
            failures.append(f"{name}: {result.stat_star:.3f}")
        if name == "Metric-X" and abs(result.epsilon_star - 0.04) > 0.01:
            failures.append(f"Metric-X eps*: {result.epsilon_star:.3f}")
    report("wmt22-ende-optional", not failures, "; ".join(failures))
