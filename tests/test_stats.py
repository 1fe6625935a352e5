"""Tests for pair counting and the statistic formulas."""

import math
import os
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    COEFFICIENT_GRIDS,
    counts_from_cells,
    grid_stat,
    loop_break_ties_randomly,
    mean_defined,
    naive_suff_stats,
    oracle_gap,
    oracle_stat,
)

from tiecal import (
    OVERALL_STAT_KINDS,
    EpsilonMode,
    EpsilonPolicy,
    GroupingMode,
    PairCounts,
    ScoreMatrix,
    StatKind,
    break_ties_randomly,
    grouped_stats,
)
from tiecal.stats import _pair_blocks, _pair_counts, _stat_from_arrays

H_FIG = [0, 0, 0, 0, 1, 2]
M1_FIG = [0, 0, 0, 0, 2, 1]
# Scores for the tie-break property: a 3-decimal lattice with signed zeros,
# 2**53 and 2**53 + 2, whose relative gaps to 1 fall as the score grows, and
# scores near ±max float, whose differences overflow.
TIE_BREAK_SCORES = [-0.002, -0.001, -0.0, 0.0, 0.001, 0.002, 0.003, 1.0, 1.5, 2.0**53,
                    2.0**53 + 2, -1.7e308, 1e308, 1.7976931348623157e308]
M2_FIG = [0, 1, 2, 3, 4, 5]

# The worked example's class counts: concordant, discordant, tied in the
# human scores only, in the metric scores only, and in both.
M1_COUNTS = (8, 1, 0, 0, 6)
M2_COUNTS = (9, 0, 6, 0, 0)


def one_group(h, m, pol=EpsilonPolicy()):
    """The class counts of the pairs of one group, in ``naive_suff_stats`` order."""
    h, m = np.asarray(h, dtype=np.float64), np.asarray(m, dtype=np.float64)
    return tuple(_pair_counts(h, m, [h.size], pol)[0].tolist())


def pooled(h, m, kinds, pol=EpsilonPolicy()):
    """``grouped_stats``' reports on two vectors pooled in one group."""
    def matrix(scores):
        return ScoreMatrix((f"s{i}", "g", float(v)) for i, v in enumerate(scores))

    return grouped_stats(matrix(h), matrix(m), GroupingMode.NO_GROUPING, kinds, pol)


def test_oracles_import_nothing_from_tiecal():
    # the oracles restate what tiecal computes, so none of them may lean on it;
    # the child gets this process's import path, on which tiecal is found
    code = "import sys, oracles; print(sorted(m for m in sys.modules if m.startswith('tiecal')))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr


class TestPairCounts:
    def test_worked_example_first_metric(self):
        assert one_group(H_FIG, M1_FIG) == M1_COUNTS

    def test_worked_example_second_metric(self):
        assert one_group(H_FIG, M2_FIG) == M2_COUNTS

    def test_identity_no_ties(self):
        assert one_group([1, 2, 3], [1, 2, 3]) == (3, 0, 0, 0, 0)

    def test_epsilon_ties_close_pair(self):
        assert one_group([0, 0, 1], [0.0, 0.05, 1.0], EpsilonPolicy(0.05)) == (2, 0, 0, 0, 1)

    def test_tie_test_is_inclusive(self):
        # gap exactly equal to epsilon counts as tied
        assert one_group([0, 1], [0.0, 0.5], EpsilonPolicy(0.5)) == (0, 0, 0, 1, 0)

    def test_short_vectors_yield_zero_counts(self):
        assert one_group([], []) == (0, 0, 0, 0, 0)
        assert one_group([1.0], [2.0]) == (0, 0, 0, 0, 0)

    def test_matches_naive_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            h = rng.integers(0, 5, n).astype(float)
            m = rng.integers(0, 8, n) / 4.0
            eps = float(rng.choice([0.0, 0.25, 0.5]))
            assert one_group(h, m, EpsilonPolicy(eps)) == naive_suff_stats(h, m, eps)

    def test_partition_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            h = rng.integers(0, 4, n).astype(float)
            m = rng.normal(size=n)
            counts = one_group(h, m, EpsilonPolicy(float(rng.uniform(0, 1))))
            assert sum(counts) == n * (n - 1) // 2

    def test_blocked_enumeration_matches_naive_on_larger_input(self, monkeypatch):
        # this size counts by sorting; forcing the kernel exercises its multi-block path
        rng = np.random.default_rng(3)
        n = 3000
        h = rng.integers(0, 6, n).astype(float)
        m = rng.integers(0, 12, n) / 3.0
        expected = naive_suff_stats(h.tolist(), m.tolist(), 0.25)
        assert one_group(h, m, EpsilonPolicy(0.25)) == expected
        monkeypatch.setattr("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", math.inf)
        assert one_group(h, m, EpsilonPolicy(0.25)) == expected

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for transform in (np.exp, lambda x: x ** 3 + 2 * x, lambda x: 5 * x - 1):
            n = 40
            h = rng.integers(0, 5, n).astype(float)
            m = rng.normal(size=n)
            assert one_group(h, m) == one_group(h, transform(m))

    def test_negating_metric_swaps_concordant_discordant(self):
        rng = np.random.default_rng(13)
        h = rng.integers(0, 5, 60).astype(float)
        m = rng.integers(0, 10, 60) / 2.0
        a = one_group(h, m, EpsilonPolicy(0.5))
        b = one_group(h, -m, EpsilonPolicy(0.5))
        assert (a[0], a[1], *a[2:]) == (b[1], b[0], *b[2:])

    def test_relative_epsilon(self):
        pol = EpsilonPolicy(0.1, EpsilonMode.RELATIVE)
        # |100 - 95| / 100 = 0.05 <= 0.1 tied; |1.0 - 0.8| / 1.0 = 0.2 untied
        assert one_group([0, 1], [100.0, 95.0], pol) == (0, 0, 0, 1, 0)
        assert one_group([0, 1], [1.0, 0.8], pol) == (0, 1, 0, 0, 0)
        # the gap is 2 on both, though 1.7e308 - -1.7e308 overflows
        for m in ([1.7, -1.7], [1.7e308, -1.7e308]):
            assert one_group([0, 1], m, EpsilonPolicy(2, EpsilonMode.RELATIVE)) == (0, 0, 0, 1, 0)

    def test_relative_epsilon_double_zero_is_tied(self):
        pol = EpsilonPolicy(0.0, EpsilonMode.RELATIVE)
        assert one_group([0, 1], [0.0, 0.0], pol) == (0, 0, 0, 1, 0)


class TestPairKernel:
    """Counts stay exact when blocks of a few pairs cut across rows and groups."""

    SIZES = [0, 1, 2, 9, 3, 0, 1, 5, 2]  # 9 entries give 36 pairs, more than a block

    @staticmethod
    def vectors(rng, size):
        return rng.integers(0, 4, size).astype(float), rng.integers(-6, 7, size) / 4.0

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_one_group_with_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr("tiecal.stats._BLOCK_PAIRS", block)
        rng = np.random.default_rng(block)
        for size in list(range(13)) * 3:
            h, m = self.vectors(rng, size)
            for eps_mode in EpsilonMode:
                eps = float(rng.choice([0.0, 0.25, 0.5]))
                relative = eps_mode is EpsilonMode.RELATIVE
                assert one_group(h, m, EpsilonPolicy(eps, eps_mode)) == \
                    naive_suff_stats(h, m, eps, relative)

    @pytest.mark.parametrize("block", [1, 2, 4, 7])
    def test_per_group_counts_with_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr("tiecal.stats._BLOCK_PAIRS", block)
        rng = np.random.default_rng(100 + block)
        parts = [self.vectors(rng, size) for size in self.SIZES]
        h = np.concatenate([p[0] for p in parts])
        m = np.concatenate([p[1] for p in parts])
        total = sum(size * (size - 1) // 2 for size in self.SIZES)
        pol = EpsilonPolicy(0.25, EpsilonMode.RELATIVE)
        assert len(list(_pair_blocks(h, m, self.SIZES, pol))) == -(-total // block)
        counts = _pair_counts(h, m, self.SIZES, pol)
        assert counts.tolist() == [list(naive_suff_stats(hg, mg, 0.25, True)) for hg, mg in parts]

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_grouped_stat_with_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr("tiecal.stats._BLOCK_PAIRS", block)
        rng = np.random.default_rng(200 + block)
        sizes = [size for size in self.SIZES if size]  # align emits no empty group
        parts = [self.vectors(rng, size) for size in sizes]
        human = ScoreMatrix((f"s{i}", f"g{g}", float(v))
                            for g, (hg, _) in enumerate(parts) for i, v in enumerate(hg))
        metric = ScoreMatrix((f"s{i}", f"g{g}", float(v))
                             for g, (_, mg) in enumerate(parts) for i, v in enumerate(mg))
        for eps_mode in EpsilonMode:
            relative = eps_mode is EpsilonMode.RELATIVE
            naive = [naive_suff_stats(hg, mg, 0.25, relative) for hg, mg in parts]
            for kind in (StatKind.ACC_EQ, StatKind.TAU_B):
                report = grouped_stats(human, metric, GroupingMode.GROUP_BY_ITEM, [kind],
                                       EpsilonPolicy(0.25, eps_mode))[0]
                values = np.array([np.nan if v is None else v for v in
                                   (oracle_stat(kind, *c) for c in naive)])
                used = [c for c, v in zip(naive, values) if not np.isnan(v)]
                assert report.pairs_total == sum(map(sum, naive))
                assert report.groups_used == len(used)
                assert list(astuple(report.pairs_by_class)) == [
                    sum(column) for column in zip(*used, [0] * 5)]
                assert report.value == mean_defined(values)


class TestSortCount:
    """Counting by sorting and the blocked kernel both match the oracle."""

    @pytest.fixture(params=[0, math.inf], ids=["sort", "kernel"])
    def path(self, request, monkeypatch):
        monkeypatch.setattr("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", request.param)

    @staticmethod
    def assert_oracle_counts(parts, pol):
        h = np.concatenate([hg for hg, _ in parts] + [np.zeros(0)])
        m = np.concatenate([mg for _, mg in parts] + [np.zeros(0)])
        relative = pol.mode is EpsilonMode.RELATIVE
        counts = _pair_counts(h, m, [hg.size for hg, _ in parts], pol)
        assert counts.tolist() == [
            list(naive_suff_stats(hg.tolist(), mg.tolist(), pol.epsilon, relative))
            for hg, mg in parts]

    @staticmethod
    def random_parts(rng, sizes):
        parts = []
        for size in sizes:
            h = -rng.integers(0, 4, size) * 5.0  # MQM-like: non-positive, mostly tied
            if rng.random() < 0.5:
                m = rng.integers(-8, 9, size) / 4.0
            else:
                m = np.round(rng.normal(size=size), 2)
            parts.append((h, m))
        return parts

    @pytest.mark.parametrize("seed", range(4))
    def test_random_groups(self, path, seed):
        rng = np.random.default_rng(300 + seed)
        for _ in range(15):
            sizes = rng.choice([0, 1, 2, 3, 5, 8, 13, 30], size=rng.integers(0, 7))
            parts = self.random_parts(rng, sizes)
            for eps in (0.0, 0.25, 0.5, 1.0):
                self.assert_oracle_counts(parts, EpsilonPolicy(eps))

    def test_epsilon_from_observed_gaps(self, path):
        rng = np.random.default_rng(310)
        for _ in range(30):
            parts = self.random_parts(rng, rng.choice([0, 1, 2, 9, 25], size=3))
            m = np.concatenate([mg for _, mg in parts])
            if m.size < 2:
                continue
            i, j = rng.choice(m.size, size=2, replace=False)
            self.assert_oracle_counts(parts, EpsilonPolicy(abs(float(m[i] - m[j]))))

    def test_epsilon_that_the_sum_reaches_but_the_gap_exceeds(self, path):
        # 0.1 + 0.3 >= 0.4, yet the gap 0.4 - 0.1 is 0.30000000000000004 > 0.3
        m = np.array([0.4, 0.1, 0.7, 0.1, 1.0, 0.4])
        parts = [(np.array([0.0, 1.0, 0.0, 2.0, 1.0, 1.0]), m), (np.zeros(2), np.array([0.1, 0.4]))]
        self.assert_oracle_counts(parts, EpsilonPolicy(0.3))
        assert one_group([0, 1], [0.1, 0.4], EpsilonPolicy(0.3)) == (1, 0, 0, 0, 0)
        # runs a few ulps around 0.3 and 0.4: 21 of their 49 gaps are <= 0.1,
        # and 22 of their relative gaps are <= 0.25
        near = np.concatenate([v + np.arange(-3, 4) * np.spacing(v) for v in (0.3, 0.4)])
        near = np.random.default_rng(250).permutation(near)
        for pol in (EpsilonPolicy(0.1), EpsilonPolicy(0.25, EpsilonMode.RELATIVE)):
            self.assert_oracle_counts([(np.arange(near.size) % 3.0, near)], pol)

    def test_negative_zero_next_to_zero(self, path):
        h = np.array([0.0, -0.0, 0.0, -1.0, -0.0, 1.0, 0.0])
        m = np.array([-0.0, 0.0, 0.0, -0.0, 1e-300, -1e-300, -0.0])
        for eps in (0.0, 1e-300, 0.5):
            self.assert_oracle_counts([(h, m), (h[::-1], m), (h[:2], m[:2])], EpsilonPolicy(eps))

    def test_relative_mode_at_zero_epsilon(self, path):
        rng = np.random.default_rng(320)
        for _ in range(10):
            parts = self.random_parts(rng, rng.choice([0, 1, 2, 7, 20], size=4))
            self.assert_oracle_counts(parts, EpsilonPolicy(0.0, EpsilonMode.RELATIVE))

    @pytest.mark.parametrize("seed", range(3))
    def test_relative_epsilon_of_one_and_more(self, path, seed):
        # every same-sign pair is tied; pairs of opposite signs have gaps in [1, 2]
        rng = np.random.default_rng(350 + seed)
        for _ in range(10):
            parts = self.random_parts(rng, rng.choice([0, 1, 2, 9, 25], size=3))
            m = np.concatenate([mg for _, mg in parts])
            gaps = EpsilonPolicy(0.0, EpsilonMode.RELATIVE).gaps(m[:, None], m[None, :])
            for eps in (1.0, 1.5, 2.0, *rng.permutation(gaps[gaps >= 1])[:3]):
                self.assert_oracle_counts(parts, EpsilonPolicy(float(eps), EpsilonMode.RELATIVE))

    def test_opposite_signs_a_few_ulps_apart(self, path):
        # b fixed and |a| stepped through adjacent floats in [b, 4b): the float
        # gap |a - b| / |a| rises at some steps where the exact 1 + b/|a| falls,
        # so a tied pair must be found from its larger magnitude's side
        rng = np.random.default_rng(360)
        for _ in range(20):
            b = rng.uniform(0.01, 10)
            a = rng.uniform(b, 4 * b)
            small = b + np.arange(6) * np.spacing(b)
            large = a + np.arange(30) * np.spacing(a)
            for m in (np.concatenate((small, -large)), np.concatenate((-small, large))):
                m = rng.permutation(m)
                gaps = EpsilonPolicy(0.0, EpsilonMode.RELATIVE).gaps(m[:, None], m[None, :])
                for gap in rng.choice(gaps[gaps >= 1], size=4):
                    for eps in (gap, np.nextafter(gap, 0), np.nextafter(gap, 3)):
                        self.assert_oracle_counts([(np.arange(m.size) % 3.0, m)],
                                                  EpsilonPolicy(float(eps), EpsilonMode.RELATIVE))

    def test_tau_b_matches_scipy_on_the_sort_path(self):
        from scipy.stats import kendalltau
        rng = np.random.default_rng(330)
        h = rng.integers(-10, 1, 3000).astype(float)
        m = np.round(h + rng.normal(size=h.size), 1)
        ours = pooled(h, m, [StatKind.TAU_B])[0].value
        assert ours == pytest.approx(kendalltau(h, m, variant="b").statistic, abs=1e-12)

    def test_selection(self, monkeypatch):
        def kernel_reached(*args, **kwargs):
            raise AssertionError("blocked kernel reached")

        monkeypatch.setattr("tiecal.stats._pair_blocks", kernel_reached)
        rng = np.random.default_rng(340)
        n = 5000
        h = rng.integers(0, 10, n).astype(float)
        m = h + rng.normal(size=n)
        human = ScoreMatrix((f"s{i}", f"g{i % 15}", v) for i, v in enumerate(h))
        metric = ScoreMatrix((f"s{i}", f"g{i % 15}", v) for i, v in enumerate(m))
        kinds = [StatKind.ACC_EQ, StatKind.TAU_B]
        pooled = GroupingMode.NO_GROUPING
        for pol in (EpsilonPolicy(0.01), EpsilonPolicy(0.0, EpsilonMode.RELATIVE),
                    EpsilonPolicy(0.01, EpsilonMode.RELATIVE),
                    EpsilonPolicy(1.0, EpsilonMode.RELATIVE)):  # ties opposite signs
            reports = grouped_stats(human, metric, pooled, kinds, pol)
            assert reports[0].pairs_total == n * (n - 1) // 2
        with pytest.raises(AssertionError, match="blocked kernel"):  # 15 rows a group
            grouped_stats(human, metric, GroupingMode.GROUP_BY_SYSTEM, kinds, EpsilonPolicy(0.01))


class TestPooledStatistics:
    """Hand-checked values of the statistics, through ``grouped_stats``."""

    # the worked example's figure, to two decimals
    FIG_EXPECTED = {
        "m1": {"tau_a": .47, "tau_b": .78, "tau_c": .29, "tau_10": .78,
               "tau_13": .78, "tau_14": .78, "tau_eq": .87, "acc_eq": .93},
        "m2": {"tau_a": .60, "tau_b": .77, "tau_c": .38, "tau_10": 1.0,
               "tau_13": 1.0, "tau_14": 1.0, "tau_eq": .20, "acc_eq": .60},
    }

    @pytest.mark.parametrize("kind", OVERALL_STAT_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("metric,scores", [("m1", M1_FIG), ("m2", M2_FIG)],
                             ids=["m1", "m2"])
    def test_worked_example_values(self, metric, scores, kind):
        # TAU_C takes k=3, n=6 from the scores; 0.005 covers the 2-decimal
        # rounding, the tiny extra the float of the boundary case 0.375 vs 0.38
        value = pooled(H_FIG, scores, [kind])[0].value
        assert value == pytest.approx(self.FIG_EXPECTED[metric][kind.value], abs=0.005 + 1e-9)

    def test_constant_metric_non_constant_human(self):
        reports = pooled([0, 1, 2, 3, 4], [1] * 5,
                         [StatKind.TAU_B, StatKind.TAU_10, StatKind.ACC_EQ])
        assert astuple(reports[0].pairs_by_class) == (0, 0, 0, 0, 0)  # no group used
        assert reports[1].pairs_by_class == PairCounts(tied_metric=10)
        assert [r.value for r in reports] == [None, -1.0, 0.0]

    def test_class_statistics_on_worked_example(self):
        kinds = [StatKind.TIES_P, StatKind.TIES_R, StatKind.RANK_P, StatKind.RANK_R]
        assert [r.value for r in pooled(H_FIG, M1_FIG, kinds)] == [1.0, 1.0, 8 / 9, 8 / 9]

    def test_f1_undefined_when_both_zero(self):
        report = pooled([0, 1, 2], [2, 1, 0], [StatKind.RANK_F1])[0]  # precision 0, recall 0
        assert report.value is None
        assert report.pairs_total == 3

    def test_f1_undefined_when_part_undefined(self):
        report = pooled([0, 0, 0], [0, 1, 2], [StatKind.TIES_F1])[0]  # ties precision 0/0
        assert report.value is None
        assert report.pairs_total == 3

    def test_f1_harmonic_mean(self):
        # concordant 2, discordant 2, tied in the metric only 2
        report = pooled([0, 1, 2, 3], [0, 1, 1, 0], [StatKind.RANK_F1])[0]
        assert report.pairs_by_class == PairCounts(concordant=2, discordant=2, tied_metric=2)
        p, r = 2 / 4, 2 / 6
        assert report.value == 2 * p * r / (p + r)

    def test_tau_c_undefined_for_single_unique_value(self):
        assert pooled([0, 1, 2], [1, 1, 1], [StatKind.TAU_C])[0].value is None

    def test_all_zero_counts_undefined(self):
        for report in pooled([1.0], [2.0], list(StatKind)):
            assert (report.value, report.pairs_total, report.groups_used) == (None, 0, 0)

    def test_no_ties_degeneracy(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            h = rng.permutation(n).astype(float)
            m = rng.permutation(n).astype(float)
            tau_a, *others = pooled(h, m, [StatKind.TAU_A, StatKind.TAU_B, StatKind.TAU_10,
                                           StatKind.TAU_13, StatKind.TAU_14, StatKind.TAU_EQ])
            for report in others:
                assert report.value == tau_a.value
            # identity checked in exact rational arithmetic; evaluating the
            # two float expressions can differ in the last ulp
            c, d, _, _, tied_both = astuple(tau_a.pairs_by_class)
            total = tau_a.pairs_total
            assert Fraction(c + tied_both, total) == (Fraction(c - d, total) + 1) / 2

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            h = rng.integers(0, 4, n).astype(float)
            m = rng.integers(0, 6, n) / 3.0
            for report in pooled(h, m, list(StatKind), EpsilonPolicy(float(rng.uniform(0, 0.8)))):
                if report.value is None:
                    continue
                if report.kind.value.startswith("tau"):
                    assert -1.0 <= report.value <= 1.0
                else:
                    assert 0.0 <= report.value <= 1.0

    def test_tau_b_matches_scipy(self):
        from scipy.stats import kendalltau
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            h = rng.integers(0, 5, n).astype(float)
            m = rng.integers(0, 8, n) / 2.0
            ours = pooled(h, m, [StatKind.TAU_B])[0].value
            reference = kendalltau(h, m, variant="b").statistic
            if ours is None:
                assert np.isnan(reference)
            else:
                assert ours == pytest.approx(reference, abs=1e-12)

    def test_tau_c_is_half_of_scipy(self):
        # scipy's variant carries a conventional factor 2; this library's
        # scaling is the one that reproduces the worked-example values
        from scipy.stats import kendalltau
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            h = rng.integers(0, 4, n).astype(float)
            m = rng.integers(0, 6, n).astype(float)
            ours = pooled(h, m, [StatKind.TAU_C])[0].value
            reference = kendalltau(h, m, variant="c").statistic
            if ours is not None and not np.isnan(reference):
                assert 2 * ours == pytest.approx(reference, abs=1e-12)


class TestStatFromArrays:
    """The vectorised formulas equal the independent scalar restatement in
    tests/oracles.py bit for bit, with NaN exactly where it gives None."""

    @staticmethod
    def count_tuples(dtype=np.int64):
        rng = np.random.default_rng(2718)
        rows = rng.integers(0, 10, size=(3000, 5))
        rows[rng.random(rows.shape) < 0.3] = 0
        # every pattern of zero counts: covers each zero denominator, tm = th = 0
        patterns = np.array([[(p >> b) & 1 for b in range(5)] for p in range(32)])
        edge = patterns * rng.integers(1, 10, size=(32, 5))
        large = rng.integers(2**27, 2**28, size=(200, 5))
        parts = [rows, edge, large]
        if dtype == np.int64:
            # TAU_B's f1*f2 overflows int64 here; f1 and f2 stay below 2**53
            parts.append(rng.integers(2**32, 2**50, size=(200, 5)))
            parts.append(np.array([[2**32, 0, 0, 0, 0], [2**40, 2**39, 7, 0, 3]]))
        rows = np.concatenate(parts)
        n = rng.integers(1, 60, size=len(rows))
        k = rng.integers(1, n + 1)
        # fixed rows, then k and n: the worked example's two metrics, a
        # constant metric, F1 of two zero parts, of an undefined part and of
        # two others, and TAU_C of one distinct value and of no rows
        fixed = np.array([[*M1_COUNTS, 3, 6], [*M2_COUNTS, 3, 6], [0, 0, 0, 10, 0, 1, 5],
                          [0, 3, 0, 0, 0, 2, 3], [0, 0, 2, 0, 0, 2, 3], [2, 1, 1, 3, 0, 3, 5],
                          [0, 0, 0, 3, 0, 1, 3], [0, 0, 0, 0, 0, 1, 0]])
        return (np.concatenate((rows, fixed[:, :5])), np.concatenate((k, fixed[:, 5])),
                np.concatenate((n, fixed[:, 6])))

    def test_large_tuples_exceed_exact_products(self):
        rows, _, _ = self.count_tuples()
        c, d, th, tm, _ = rows.T.tolist()
        products = [(a + b + x) * (a + b + y) for a, b, x, y in zip(c, d, th, tm)]
        assert max(products) > 2**63
        assert sum(p > 2**63 for p in products) >= 200

    def test_tau_c_of_millions_of_rows(self):
        # n*n*(k-1) passes 2**63 from about 2.1M rows; TAU_C's pooled (k, n)
        # reach the array path as int64
        n = 3 * 10**6
        context = np.array([n], dtype=np.int64)
        got = _stat_from_arrays(StatKind.TAU_C, *np.array([[10**12, 0, 0, 0, 0]]).T,
                                context, context).tolist()
        assert got == [oracle_stat(StatKind.TAU_C, 10**12, 0, 0, 0, 0, k=n, n=n)]
        assert got == [pytest.approx(1 / 9)]

    def test_tau_b_beyond_int64_products(self):
        got = _stat_from_arrays(StatKind.TAU_B, *np.array([[2**32, 0, 0, 0, 0]]).T)
        assert got.tolist() == [1.0]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("kind", list(StatKind), ids=lambda k: k.value)
    def test_bit_identical_to_scalar(self, kind, dtype):
        rows, k, n = self.count_tuples(dtype)
        got = _stat_from_arrays(kind, *rows.astype(dtype).T, k=k, n=n)
        expected = [oracle_stat(kind, *row, k=kk, n=nn)
                    for row, kk, nn in zip(rows.tolist(), k.tolist(), n.tolist())]
        assert [None if np.isnan(v) else v for v in got.tolist()] == expected


class TestCoefficientTables:
    def test_accuracy_table_on_worked_example(self):
        cells = {
            ("<", "<"): 4, (">", ">"): 4,   # the 8 concordant pairs
            ("<", ">"): 1, (">", "<"): 0,   # the discordant pair
            ("<", "="): 0, (">", "="): 0,
            ("=", "<"): 0, ("=", ">"): 0,
            ("=", "="): 6,
        }
        assert grid_stat(COEFFICIENT_GRIDS["acc_eq"], cells) == pytest.approx(14 / 15)
        assert counts_from_cells(cells) == M1_COUNTS

    def test_excluded_row_drops_human_ties(self):
        cells = {
            ("<", "<"): 5, (">", ">"): 4,
            ("<", ">"): 0, (">", "<"): 0,
            ("<", "="): 0, (">", "="): 0,
            ("=", "<"): 3, ("=", ">"): 3,
            ("=", "="): 0,
        }
        assert grid_stat(COEFFICIENT_GRIDS["tau_10"], cells) == 1.0

    def test_empty_non_excluded_cell_is_undefined(self):
        grid = ((None, None, None), (None, 1, None), (None, None, None))
        cells = {(h, m): 0 for h in "<=>" for m in "<=>"}
        cells[("<", "<")] = 7  # only excluded cells have pairs
        assert grid_stat(grid, cells) is None

    def test_all_excluded_rejected(self):
        cells = {(h, m): 1 for h in "<=>" for m in "<=>"}
        with pytest.raises(ValueError, match="at least one"):
            grid_stat(((None,) * 3,) * 3, cells)

    # The worked example's two metrics, as relation cells, and each grid's
    # value on them by hand: C=8, D=1, T_hm=6 for the first metric; C=9,
    # T_h=6 for the second.
    M1_CELLS = {("<", "<"): 4, ("<", "="): 0, ("<", ">"): 1,
                ("=", "<"): 0, ("=", "="): 6, ("=", ">"): 0,
                (">", "<"): 0, (">", "="): 0, (">", ">"): 4}
    M2_CELLS = {("<", "<"): 9, ("<", "="): 0, ("<", ">"): 0,
                ("=", "<"): 6, ("=", "="): 0, ("=", ">"): 0,
                (">", "<"): 0, (">", "="): 0, (">", ">"): 0}

    @pytest.mark.parametrize("name, first, second", [
        ("tau_10", Fraction(7, 9), 1),
        ("tau_13", Fraction(7, 9), 1),
        ("tau_14", Fraction(7, 9), 1),
        ("tau_eq", Fraction(13, 15), Fraction(1, 5)),
        ("acc_eq", Fraction(14, 15), Fraction(3, 5)),
    ], ids=["tau_10", "tau_13", "tau_14", "tau_eq", "acc_eq"])
    def test_grid_and_formula_agree_on_worked_example(self, name, first, second):
        grid, kind = COEFFICIENT_GRIDS[name], StatKind(name)
        assert counts_from_cells(self.M1_CELLS) == one_group(H_FIG, M1_FIG) == M1_COUNTS
        assert counts_from_cells(self.M2_CELLS) == one_group(H_FIG, M2_FIG) == M2_COUNTS
        expected = [grid_stat(grid, self.M1_CELLS), grid_stat(grid, self.M2_CELLS)]
        assert expected == pytest.approx([float(first), float(second)])
        assert _stat_from_arrays(kind, *np.array([M1_COUNTS, M2_COUNTS]).T).tolist() == expected

    def test_tables_match_formulas_on_random_counts(self):
        rng = np.random.default_rng(17)
        tables = []
        for _ in range(300):
            cells = {(h, m): int(rng.integers(0, 8)) for h in "<=>" for m in "<=>"}
            if rng.random() < 0.2:
                # force sparse tables to hit zero denominators
                for cell in list(cells):
                    if rng.random() < 0.8:
                        cells[cell] = 0
            tables.append(cells)
        counts = np.array([counts_from_cells(cells) for cells in tables])
        for name, grid in COEFFICIENT_GRIDS.items():
            values = _stat_from_arrays(StatKind(name), *counts.T).tolist()
            assert [None if math.isnan(v) else v for v in values] == \
                [grid_stat(grid, cells) for cells in tables]


class TestBreakTiesRandomly:
    def test_all_tied_is_uniform_over_orders(self):
        counts = {}
        trials = 10_000
        for seed in range(trials):
            order = tuple(break_ties_randomly([5, 5, 5], seed=seed))
            counts[order] = counts.get(order, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / trials - 1 / 6) <= 0.02

    def test_no_ties_keeps_order(self):
        assert break_ties_randomly([1, 2, 3], seed=42).tolist() == [1.0, 2.0, 3.0]
        assert break_ties_randomly([3, 1, 2], seed=42).tolist() == [3.0, 1.0, 2.0]

    def test_worked_example_zero_cluster(self):
        seen = set()
        for seed in range(2000):
            ranks = break_ties_randomly(M1_FIG, seed=seed)
            # untied scores 2 and 1 keep their ranks
            assert ranks[4] == 6.0 and ranks[5] == 5.0
            seen.add(tuple(ranks[:4]))
        assert len(seen) == 24  # all 4! orders of the tied cluster appear

    def test_preserves_strict_orderings_with_positive_epsilon(self):
        rng = np.random.default_rng(2)
        m = rng.integers(0, 12, 40) / 4.0
        eps = 0.25
        ranks = break_ties_randomly(m, EpsilonPolicy(eps), seed=9)
        for i in range(len(m)):
            for j in range(len(m)):
                if m[i] - m[j] > eps:
                    assert ranks[i] > ranks[j]

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match=r"1-dimensional, got shape \(2, 2\)"):
            break_ties_randomly(np.eye(2), seed=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            break_ties_randomly([1.0, float("nan")], seed=0)

    def test_deterministic_given_seed(self):
        m = [1, 1, 2, 2, 2, 3]
        a = break_ties_randomly(m, seed=77)
        b = break_ties_randomly(m, seed=77)
        assert a.tolist() == b.tolist()

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(scores=st.lists(st.sampled_from(TIE_BREAK_SCORES) | st.floats(-3.0, 3.0), max_size=40),
           relative=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(scores=[1.0, 1.5, 2.0**53, 2.0**53 + 2], relative=True, seed=0,
             data=None)  # epsilon 1 - 2**-52 ties 2**53 + 2 to 1, but not 2**53
    def test_equals_the_loop_over_sorted_scores(self, scores, relative, seed, data):
        # the same ranks, bit for bit, and so the same generator draws
        gaps = {0.0, *(oracle_gap(a, b, relative) for a in scores for b in scores)}
        near = {math.nextafter(g, step) for g in gaps for step in (-math.inf, math.inf)}
        eps = (1.0 - 2.0**-52 if data is None else data.draw(
            st.sampled_from(sorted(g for g in gaps | near if 0.0 <= g < math.inf))))
        pol = EpsilonPolicy(eps, EpsilonMode.RELATIVE if relative else EpsilonMode.ABSOLUTE)
        assert (break_ties_randomly(scores, pol, seed=seed).tobytes()
                == loop_break_ties_randomly(scores, eps, relative, seed).tobytes())


class TestEpsilonPolicy:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EpsilonPolicy(-0.1)

    def test_non_finite_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EpsilonPolicy(float("inf"))

    def test_parse_unknown_names(self):
        with pytest.raises(ValueError):
            StatKind.parse("tau_z")
