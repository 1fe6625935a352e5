"""Tests for pair counting and the statistic formulas."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import naive_suff_stats, oracle_stat

from tiecal import (
    COEFFICIENT_TABLES,
    OVERALL_STAT_KINDS,
    CoefficientTable,
    EpsilonMode,
    EpsilonPolicy,
    GroupingMode,
    PairCounts,
    ScoreMatrix,
    StatKind,
    break_ties_randomly,
    counts_from_cells,
    grouped_stat,
    mean_defined,
    pearson,
    spearman,
    stat_from_counts,
    stat_from_table,
    suff_stats,
    tau_c_context,
)
from tiecal.stats import _pair_blocks, _pair_counts, _stat_from_arrays

H_FIG = [0, 0, 0, 0, 1, 2]
M1_FIG = [0, 0, 0, 0, 2, 1]
M2_FIG = [0, 1, 2, 3, 4, 5]

M1_COUNTS = PairCounts(concordant=8, discordant=1, tied_human=0,
                       tied_metric=0, tied_both=6)
M2_COUNTS = PairCounts(concordant=9, discordant=0, tied_human=6,
                       tied_metric=0, tied_both=0)


class TestSuffStats:
    def test_worked_example_first_metric(self):
        assert suff_stats(H_FIG, M1_FIG) == M1_COUNTS

    def test_worked_example_second_metric(self):
        assert suff_stats(H_FIG, M2_FIG) == M2_COUNTS

    def test_identity_no_ties(self):
        assert suff_stats([1, 2, 3], [1, 2, 3]) == PairCounts(concordant=3)

    def test_epsilon_ties_close_pair(self):
        counts = suff_stats([0, 0, 1], [0.0, 0.05, 1.0], EpsilonPolicy(0.05))
        assert counts == PairCounts(concordant=2, tied_both=1)

    def test_tie_test_is_inclusive(self):
        # gap exactly equal to epsilon counts as tied
        counts = suff_stats([0, 1], [0.0, 0.5], EpsilonPolicy(0.5))
        assert counts.tied_metric == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            suff_stats([1, 2], [1, 2, 3])

    def test_short_vectors_yield_zero_counts(self):
        assert suff_stats([], []) == PairCounts()
        assert suff_stats([1.0], [2.0]) == PairCounts()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            suff_stats([1.0, float("nan")], [1.0, 2.0])

    def test_matches_naive_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            h = rng.integers(0, 5, n).astype(float)
            m = rng.integers(0, 8, n) / 4.0
            eps = float(rng.choice([0.0, 0.25, 0.5]))
            assert suff_stats(h, m, EpsilonPolicy(eps)) == naive_suff_stats(h, m, eps)

    def test_partition_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            h = rng.integers(0, 4, n).astype(float)
            m = rng.normal(size=n)
            counts = suff_stats(h, m, EpsilonPolicy(float(rng.uniform(0, 1))))
            assert counts.total == n * (n - 1) // 2

    def test_blocked_enumeration_matches_naive_on_larger_input(self):
        # exercise the multi-block path
        rng = np.random.default_rng(3)
        n = 3000
        h = rng.integers(0, 6, n).astype(float)
        m = rng.integers(0, 12, n) / 3.0
        assert suff_stats(h, m, EpsilonPolicy(0.25)) == naive_suff_stats(h.tolist(), m.tolist(), 0.25)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for transform in (np.exp, lambda x: x ** 3 + 2 * x, lambda x: 5 * x - 1):
            n = 40
            h = rng.integers(0, 5, n).astype(float)
            m = rng.normal(size=n)
            assert suff_stats(h, m) == suff_stats(h, transform(m))

    def test_negating_metric_swaps_concordant_discordant(self):
        rng = np.random.default_rng(13)
        h = rng.integers(0, 5, 60).astype(float)
        m = rng.integers(0, 10, 60) / 2.0
        a = suff_stats(h, m, EpsilonPolicy(0.5))
        b = suff_stats(h, -m, EpsilonPolicy(0.5))
        assert (a.concordant, a.discordant) == (b.discordant, b.concordant)
        assert (a.tied_human, a.tied_metric, a.tied_both) == \
               (b.tied_human, b.tied_metric, b.tied_both)

    def test_relative_epsilon(self):
        pol = EpsilonPolicy(0.1, EpsilonMode.RELATIVE)
        # |100 - 95| / 100 = 0.05 <= 0.1 tied; |1.0 - 0.8| / 1.0 = 0.2 untied
        counts = suff_stats([0, 1], [100.0, 95.0], pol)
        assert counts.tied_metric == 1
        counts = suff_stats([0, 1], [1.0, 0.8], pol)
        assert counts.tied_metric == 0

    def test_relative_epsilon_double_zero_is_tied(self):
        pol = EpsilonPolicy(0.0, EpsilonMode.RELATIVE)
        assert suff_stats([0, 1], [0.0, 0.0], pol).tied_metric == 1


class TestPairKernel:
    """Counts stay exact when blocks of a few pairs cut across rows and groups."""

    SIZES = [0, 1, 2, 9, 3, 0, 1, 5, 2]  # 9 entries give 36 pairs, more than a block

    @staticmethod
    def vectors(rng, size):
        return rng.integers(0, 4, size).astype(float), rng.integers(-6, 7, size) / 4.0

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_suff_stats_with_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr("tiecal.stats._BLOCK_PAIRS", block)
        rng = np.random.default_rng(block)
        for size in list(range(13)) * 3:
            h, m = self.vectors(rng, size)
            for eps_mode in EpsilonMode:
                eps = float(rng.choice([0.0, 0.25, 0.5]))
                relative = eps_mode is EpsilonMode.RELATIVE
                assert suff_stats(h, m, EpsilonPolicy(eps, eps_mode)) == \
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
        assert counts.tolist() == [list(naive_suff_stats(hg, mg, 0.25, True).as_tuple())
                                   for hg, mg in parts]

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
                report = grouped_stat(human, metric, GroupingMode.GROUP_BY_ITEM, kind,
                                      EpsilonPolicy(0.25, eps_mode))
                values = np.array([np.nan if v is None else v for v in
                                   (oracle_stat(kind, *c.as_tuple()) for c in naive)])
                used = [c for c, v in zip(naive, values) if not np.isnan(v)]
                assert report.pairs_total == sum(c.total for c in naive)
                assert report.groups_used == len(used)
                assert report.pairs_by_class == sum(used, PairCounts())
                assert report.value == mean_defined(values)


class TestStatFromCounts:
    FIG_EXPECTED = {
        "m1": {"tau_a": .47, "tau_b": .78, "tau_c": .29, "tau_10": .78,
               "tau_13": .78, "tau_14": .78, "tau_eq": .87, "acc_eq": .93},
        "m2": {"tau_a": .60, "tau_b": .77, "tau_c": .38, "tau_10": 1.0,
               "tau_13": 1.0, "tau_14": 1.0, "tau_eq": .20, "acc_eq": .60},
    }

    @pytest.mark.parametrize("metric,counts", [("m1", M1_COUNTS), ("m2", M2_COUNTS)])
    def test_worked_example_values(self, metric, counts):
        for kind in OVERALL_STAT_KINDS:
            value = stat_from_counts(kind, counts, k=3, n=6)
            # 0.005 covers the 2-decimal rounding; tiny extra absorbs float
            # representation of the boundary case 0.375 vs 0.38
            assert value == pytest.approx(self.FIG_EXPECTED[metric][kind.value],
                                          abs=0.005 + 1e-9)

    def test_constant_metric_non_constant_human(self):
        counts = PairCounts(tied_metric=10)
        assert stat_from_counts(StatKind.TAU_B, counts) is None
        assert stat_from_counts(StatKind.TAU_10, counts) == -1.0
        assert stat_from_counts(StatKind.ACC_EQ, counts) == 0.0

    def test_class_statistics_on_worked_example(self):
        assert stat_from_counts(StatKind.TIES_P, M1_COUNTS) == 1.0
        assert stat_from_counts(StatKind.TIES_R, M1_COUNTS) == 1.0
        assert stat_from_counts(StatKind.RANK_P, M1_COUNTS) == 8 / 9
        assert stat_from_counts(StatKind.RANK_R, M1_COUNTS) == 8 / 9

    def test_f1_undefined_when_both_zero(self):
        counts = PairCounts(discordant=3)  # precision 0, recall 0
        assert stat_from_counts(StatKind.RANK_F1, counts) is None

    def test_f1_undefined_when_part_undefined(self):
        counts = PairCounts(tied_human=2)  # ties precision 0/0
        assert stat_from_counts(StatKind.TIES_F1, counts) is None

    def test_f1_harmonic_mean(self):
        counts = PairCounts(concordant=2, discordant=1, tied_human=1, tied_metric=3)
        p = 2 / 4
        r = 2 / 6
        assert stat_from_counts(StatKind.RANK_F1, counts) == 2 * p * r / (p + r)

    def test_tau_c_requires_context(self):
        with pytest.raises(ValueError, match="tau_c"):
            stat_from_counts(StatKind.TAU_C, M1_COUNTS)

    def test_tau_c_undefined_for_single_unique_value(self):
        assert stat_from_counts(StatKind.TAU_C, PairCounts(tied_metric=3), k=1, n=3) is None

    def test_all_zero_counts_undefined(self):
        for kind in OVERALL_STAT_KINDS:
            assert stat_from_counts(kind, PairCounts(), k=1, n=0) is None

    def test_no_ties_degeneracy(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            h = rng.permutation(n).astype(float)
            m = rng.permutation(n).astype(float)
            counts = suff_stats(h, m)
            tau_a = stat_from_counts(StatKind.TAU_A, counts)
            for kind in (StatKind.TAU_B, StatKind.TAU_10, StatKind.TAU_13,
                         StatKind.TAU_14, StatKind.TAU_EQ):
                assert stat_from_counts(kind, counts) == tau_a
            # identity checked in exact rational arithmetic; evaluating the
            # two float expressions can differ in the last ulp
            total = counts.total
            acc = Fraction(counts.concordant + counts.tied_both, total)
            assert acc == (Fraction(counts.concordant - counts.discordant, total) + 1) / 2

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            h = rng.integers(0, 4, n).astype(float)
            m = rng.integers(0, 6, n) / 3.0
            counts = suff_stats(h, m, EpsilonPolicy(float(rng.uniform(0, 0.8))))
            k, nn = tau_c_context(h, m)
            for kind in StatKind:
                value = stat_from_counts(kind, counts, k=k, n=nn)
                if value is None:
                    continue
                if kind.value.startswith("tau"):
                    assert -1.0 <= value <= 1.0
                else:
                    assert 0.0 <= value <= 1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PairCounts(concordant=-1)

    def test_tau_b_matches_scipy(self):
        from scipy.stats import kendalltau
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            h = rng.integers(0, 5, n).astype(float)
            m = rng.integers(0, 8, n) / 2.0
            ours = stat_from_counts(StatKind.TAU_B, suff_stats(h, m))
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
            k, nn = tau_c_context(h, m)
            ours = stat_from_counts(StatKind.TAU_C, suff_stats(h, m), k=k, n=nn)
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
        return rows, k, n

    def test_large_tuples_exceed_exact_products(self):
        rows, _, _ = self.count_tuples()
        c, d, th, tm, _ = rows.T.tolist()
        products = [(a + b + x) * (a + b + y) for a, b, x, y in zip(c, d, th, tm)]
        assert max(products) > 2**63
        assert sum(p > 2**63 for p in products) >= 200

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
        value = stat_from_table(COEFFICIENT_TABLES[StatKind.ACC_EQ], cells)
        assert value == pytest.approx(14 / 15)
        assert counts_from_cells(cells) == M1_COUNTS

    def test_excluded_row_drops_human_ties(self):
        cells = {
            ("<", "<"): 5, (">", ">"): 4,
            ("<", ">"): 0, (">", "<"): 0,
            ("<", "="): 0, (">", "="): 0,
            ("=", "<"): 3, ("=", ">"): 3,
            ("=", "="): 0,
        }
        assert stat_from_table(COEFFICIENT_TABLES[StatKind.TAU_10], cells) == 1.0

    def test_empty_non_excluded_cell_is_undefined(self):
        rows = [["x", "x", "x"], ["x", 1, "x"], ["x", "x", "x"]]
        table = CoefficientTable.from_rows(rows)
        cells = {(h, m): 0 for h in "<=>" for m in "<=>"}
        cells[("<", "<")] = 7  # only excluded cells have pairs
        assert stat_from_table(table, cells) is None

    def test_all_excluded_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CoefficientTable.from_rows([["x"] * 3] * 3)

    def test_tables_match_formulas_on_random_counts(self):
        rng = np.random.default_rng(17)
        kinds = (StatKind.TAU_10, StatKind.TAU_13, StatKind.TAU_14,
                 StatKind.TAU_EQ, StatKind.ACC_EQ)
        for _ in range(300):
            cells = {(h, m): int(rng.integers(0, 8)) for h in "<=>" for m in "<=>"}
            if rng.random() < 0.2:
                # force sparse tables to hit zero denominators
                for cell in list(cells):
                    if rng.random() < 0.8:
                        cells[cell] = 0
            counts = counts_from_cells(cells)
            for kind in kinds:
                assert stat_from_table(COEFFICIENT_TABLES[kind], cells) == \
                    stat_from_counts(kind, counts)


class TestPearsonSpearman:
    def test_exact_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_monotone_nonlinear(self):
        assert spearman([1, 2, 3, 4], [1, 4, 9, 16]) == pytest.approx(1.0)
        assert pearson([1, 2, 3, 4], [1, 4, 9, 16]) == pytest.approx(0.9844, abs=5e-5)

    def test_zero_variance_undefined(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert spearman([1, 2, 3], [5, 5, 5]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_spearman_midranks_handle_ties(self):
        # ranks of x: [1.5, 1.5, 3]; ranks of y: [1, 2, 3]
        x = [4, 4, 9]
        y = [1, 2, 3]
        expected = pearson([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])
        assert spearman(x, y) == expected

    def test_matches_scipy(self):
        from scipy.stats import pearsonr, spearmanr
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(3, 50))
            x = rng.integers(0, 5, n).astype(float)
            y = rng.normal(size=n)
            if np.unique(x).size < 2:
                continue
            assert pearson(x, y) == pytest.approx(pearsonr(x, y).statistic, abs=1e-12)
            assert spearman(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)


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

    def test_deterministic_given_seed(self):
        m = [1, 1, 2, 2, 2, 3]
        a = break_ties_randomly(m, seed=77)
        b = break_ties_randomly(m, seed=77)
        assert a.tolist() == b.tolist()


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
        with pytest.raises(ValueError):
            EpsilonMode.parse("squared")
