"""Tests for the tie-calibration sweep and its companions."""

import numpy as np
import pytest
from oracles import brute_force_calibration

from tiecal import (
    CalibrationConfig,
    EpsilonMode,
    EpsilonPolicy,
    GroupingMode,
    ScoreMatrix,
    StatKind,
    align,
    calibrate,
    f1_curve,
    grouped_stat,
    suff_stats,
    tie_location_histogram,
)
from tiecal.calibration import _pairs


def single_group(h_scores, m_scores):
    h = ScoreMatrix((f"s{i}", "seg", float(v)) for i, v in enumerate(h_scores))
    m = ScoreMatrix((f"s{i}", "seg", float(v)) for i, v in enumerate(m_scores))
    return h, m


def random_instance(rng):
    """Small grouped campaign with scores on a coarse lattice (duplicate gaps)."""
    n_groups = int(rng.integers(1, 6))
    h = ScoreMatrix()
    m = ScoreMatrix()
    for j in range(n_groups):
        size = int(rng.integers(2, 16)) if j == 0 else int(rng.integers(1, 16))
        for i in range(size):
            h.add(f"s{i}", f"g{j}", float(rng.integers(0, 10)) / 4.0)
            m.add(f"s{i}", f"g{j}", float(rng.integers(0, 10)) / 4.0)
    return h, m


class TestCalibrate:
    def test_small_example_finds_gap(self):
        h, m = single_group([0, 0, 1], [0.0, 0.05, 1.0])
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.NO_GROUPING)
        result = calibrate(h, m, config)
        assert result.epsilon_star == 0.05
        assert result.stat_star == 1.0
        assert result.exact
        # threshold zero only ties nothing: accuracy 2/3
        assert grouped_stat(h, m, GroupingMode.NO_GROUPING,
                             StatKind.ACC_EQ, 0.0).value == pytest.approx(2 / 3)

    def test_perfect_metric_keeps_zero(self):
        h, m = single_group([1, 2, 3, 4], [1, 2, 3, 4])
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.NO_GROUPING)
        result = calibrate(h, m, config)
        assert result.epsilon_star == 0.0
        assert result.stat_star == 1.0

    def test_constant_human_ties_everything(self):
        h, m = single_group([3, 3, 3, 3], [0.0, 1.0, 2.5, 4.0])
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.NO_GROUPING)
        result = calibrate(h, m, config)
        assert result.epsilon_star == 4.0  # the maximum gap
        assert result.stat_star == 1.0

    def test_zero_pairs_is_an_error(self):
        h = ScoreMatrix([("s1", "g1", 1.0), ("s1", "g2", 2.0)])
        m = ScoreMatrix([("s1", "g1", 1.0), ("s1", "g2", 2.0)])
        with pytest.raises(ValueError, match="nothing to calibrate"):
            calibrate(h, m, CalibrationConfig(mode=GroupingMode.GROUP_BY_ITEM))

    def test_never_worse_than_zero_threshold(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            h, m = random_instance(rng)
            config = CalibrationConfig(kind=StatKind.ACC_EQ,
                                       mode=GroupingMode.GROUP_BY_ITEM)
            result = calibrate(h, m, config)
            at_zero = grouped_stat(h, m, config.mode, config.kind, 0.0).value
            assert result.stat_star >= at_zero

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        kinds = list(StatKind)
        for i in range(280):
            h, m = random_instance(rng)
            kind = kinds[i % len(kinds)]
            mode = GroupingMode.GROUP_BY_ITEM if i % 3 else GroupingMode.NO_GROUPING
            relative = (i // len(kinds)) % 2 == 1
            eps_mode = EpsilonMode.RELATIVE if relative else EpsilonMode.ABSOLUTE
            result = calibrate(h, m, CalibrationConfig(kind=kind, mode=mode, eps_mode=eps_mode))
            expect_eps, expect_val = brute_force_calibration(h, m, mode, kind, relative)
            assert result.stat_star == expect_val
            assert result.epsilon_star == expect_eps

    def test_incremental_counts_match_fresh_suff_stats(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            h, m = random_instance(rng)
            mode = GroupingMode.GROUP_BY_ITEM
            checkpoints = []
            config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=mode)
            result = calibrate(h, m, config,
                               checkpoint_hook=lambda eps, counts, value:
                               checkpoints.append((eps, counts, value)))
            # one call per candidate, thresholds strictly ascending from zero
            assert len(checkpoints) == result.candidates_evaluated
            epsilons = [eps for eps, _, _ in checkpoints]
            assert epsilons[0] == 0.0
            assert all(a < b for a, b in zip(epsilons, epsilons[1:]))
            groups = align(h, m, mode)
            picks = rng.choice(len(checkpoints), size=min(20, len(checkpoints)),
                               replace=False)
            for idx in picks:
                eps, counts, value = checkpoints[idx]
                assert value == grouped_stat(h, m, mode, config.kind, eps).value
                for gi, (_, hg, mg) in enumerate(groups):
                    assert counts[gi] == suff_stats(hg, mg, EpsilonPolicy(eps))

    def test_deterministic(self):
        rng = np.random.default_rng(77)
        h, m = random_instance(rng)
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.GROUP_BY_ITEM,
                                   sample_fraction=0.5, seed=123)
        a = calibrate(h, m, config)
        b = calibrate(h, m, config)
        assert a == b

    def test_sampled_candidates_are_subset(self):
        rng = np.random.default_rng(88)
        h, m = random_instance(rng)
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.GROUP_BY_ITEM)
        exact = calibrate(h, m, config)
        sampled = calibrate(h, m, CalibrationConfig(
            kind=StatKind.ACC_EQ, mode=GroupingMode.GROUP_BY_ITEM,
            sample_fraction=0.3, seed=5))
        assert not sampled.exact
        assert sampled.candidates_evaluated <= exact.candidates_evaluated
        assert sampled.stat_star <= exact.stat_star

    def test_relative_mode_sweep(self):
        # relative gaps: |10-9|/10 = 0.1, |100-90|/100 = 0.1, |10-100|/100 = 0.9
        h, m = single_group([0, 0, 1], [9.0, 10.0, 100.0])
        h2, m2 = single_group([0, 0, 1], [9.0, 10.0, 100.0])
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.NO_GROUPING,
                                   eps_mode=EpsilonMode.RELATIVE)
        result = calibrate(h, m, config)
        assert result.epsilon_star == pytest.approx(0.1)
        assert result.stat_star == 1.0
        check = grouped_stat(h2, m2, GroupingMode.NO_GROUPING, StatKind.ACC_EQ,
                              EpsilonPolicy(result.epsilon_star, EpsilonMode.RELATIVE))
        assert check.value == 1.0

    def test_pair_kernel_matches_per_group_triu_order(self):
        # seeded candidate sampling indexes pairs, so their order is part of
        # the contract: groups in order, np.triu_indices order inside each
        rng = np.random.default_rng(31)
        for eps_mode in EpsilonMode:
            h, m = random_instance(rng)
            groups = align(h, m, GroupingMode.GROUP_BY_ITEM)
            gap, group, _, mid = _pairs(groups, eps_mode, midpoints=True)
            pol = EpsilonPolicy(0.0, eps_mode)
            gaps, owners, mids = [], [], []
            for gi, (_, _, mg) in enumerate(groups):
                iu, ju = np.triu_indices(mg.size, k=1)
                gaps.append(pol.gaps(mg[iu], mg[ju]))
                owners.append(np.full(iu.size, gi))
                mids.append((mg[iu] + mg[ju]) / 2.0)
            assert gap.tolist() == np.concatenate(gaps).tolist()
            assert group.tolist() == np.concatenate(owners).tolist()
            assert mid.tolist() == np.concatenate(mids).tolist()

    def test_invalid_sample_fraction(self):
        with pytest.raises(ValueError):
            CalibrationConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            CalibrationConfig(sample_fraction=1.5)


class TestApplyEpsilon:
    """A calibrated threshold applied unchanged, as on held-out data."""

    def test_self_application_consistency(self):
        h, m = single_group([0, 0, 1], [0.0, 0.05, 1.0])
        result = calibrate(h, m, CalibrationConfig(kind=StatKind.ACC_EQ,
                                                   mode=GroupingMode.NO_GROUPING))
        report = grouped_stat(h, m, GroupingMode.NO_GROUPING, StatKind.ACC_EQ,
                               result.epsilon_star)
        assert report.value == result.stat_star

    def test_zero_threshold_equals_plain_stat(self):
        rng = np.random.default_rng(15)
        h = ScoreMatrix()
        m = ScoreMatrix()
        for i in range(5):
            for j in range(6):
                h.add(f"s{i}", f"g{j}", float(rng.integers(0, 3)))
                m.add(f"s{i}", f"g{j}", float(rng.normal()))
        for kind in (StatKind.ACC_EQ, StatKind.TAU_B):
            plain = grouped_stat(h, m, GroupingMode.GROUP_BY_ITEM, kind)
            assert grouped_stat(h, m, GroupingMode.GROUP_BY_ITEM, kind, 0.0) == plain
            relative = grouped_stat(h, m, GroupingMode.GROUP_BY_ITEM, kind,
                                    EpsilonPolicy(0.0, EpsilonMode.RELATIVE))
            assert (relative.value, relative.pairs_by_class) == (plain.value, plain.pairs_by_class)

    def test_threshold_beyond_max_gap_gives_tie_fraction(self):
        rng = np.random.default_rng(16)
        h_scores = rng.integers(0, 3, 12).astype(float)
        m_scores = rng.normal(size=12)
        h, m = single_group(h_scores, m_scores)
        report = grouped_stat(h, m, GroupingMode.NO_GROUPING, StatKind.ACC_EQ, 1e9)
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        tie_fraction = sum(h_scores[i] == h_scores[j] for i, j in pairs) / len(pairs)
        assert report.value == pytest.approx(tie_fraction)


class TestTieLocationHistogram:
    def test_counts_only_newly_tied(self):
        h = ScoreMatrix([("s1", "a", 0.0), ("s2", "a", 1.0),
                         ("s1", "b", 0.0), ("s2", "b", 1.0)])
        m = ScoreMatrix([("s1", "a", 0.05), ("s2", "a", 0.15),
                         ("s1", "b", 0.88), ("s2", "b", 0.92)])
        hist = tie_location_histogram(h, m, EpsilonPolicy(0.05), bins=2,
                                      mode=GroupingMode.GROUP_BY_ITEM)
        # pair averages 0.1 and 0.9; only the 0.9 pair (gap 0.04) newly ties
        assert hist.all_pairs.tolist() == [1, 1]
        assert hist.newly_tied.tolist() == [0, 1]

    def test_zero_threshold_has_no_new_ties(self):
        rng = np.random.default_rng(20)
        h, m = single_group(rng.integers(0, 3, 10), rng.normal(size=10))
        hist = tie_location_histogram(h, m, 0.0, bins=5)
        assert hist.newly_tied.sum() == 0
        assert hist.all_pairs.sum() == 45

    def test_skewed_ties_concentrate_high(self):
        # many human ties at the top of the scale; noisy metric copies them
        rng = np.random.default_rng(21)
        h_scores = np.concatenate([np.full(12, 10.0), np.arange(6, dtype=float)])
        m_scores = h_scores + rng.normal(scale=0.01, size=h_scores.size)
        h, m = single_group(h_scores, m_scores)
        result = calibrate(h, m, CalibrationConfig(kind=StatKind.ACC_EQ,
                                                   mode=GroupingMode.NO_GROUPING))
        hist = tie_location_histogram(h, m, EpsilonPolicy(result.epsilon_star), bins=4)
        assert hist.newly_tied[-1] > hist.newly_tied[:2].sum()

    def test_invalid_bins(self):
        h, m = single_group([1, 2], [1, 2])
        with pytest.raises(ValueError):
            tie_location_histogram(h, m, 0.0, bins=0)


class TestF1Curve:
    def test_tie_free_metric_at_zero(self):
        h, m = single_group([0, 0, 1, 2], [0.1, 0.2, 0.5, 0.9])
        (point,) = f1_curve(h, m, GroupingMode.NO_GROUPING, [0.0])
        assert point.ties_f1 is None  # no tie predictions at all
        assert point.rank_f1 is not None

    def test_all_tied_limit(self):
        h, m = single_group([0, 0, 1, 2], [0.1, 0.2, 0.5, 0.9])
        (point,) = f1_curve(h, m, GroupingMode.NO_GROUPING, [10.0])
        assert point.rank_f1 is None  # no rank predictions remain
        report = grouped_stat(h, m, GroupingMode.NO_GROUPING, StatKind.TIES_R, 10.0)
        assert report.value == 1.0

    def test_rows_match_grouped_stat(self):
        h, m = single_group([0, 0, 1], [0.0, 0.05, 1.0])
        cases = [(h, m, GroupingMode.NO_GROUPING, [0.5, 0.0, 0.05], EpsilonMode.ABSOLUTE)]
        rng = np.random.default_rng(41)
        for eps_mode in (EpsilonMode.ABSOLUTE, EpsilonMode.RELATIVE) * 4:
            h, m = random_instance(rng)
            cases.append((h, m, GroupingMode.GROUP_BY_ITEM, [0.0, 0.25, 0.3, 0.5, 1.0, 3.0],
                          eps_mode))
        for h, m, mode, grid, eps_mode in cases:
            points = f1_curve(h, m, mode, grid, eps_mode)
            assert [p.epsilon for p in points] == sorted(grid)
            for point in points:
                pol = EpsilonPolicy(point.epsilon, eps_mode)
                for kind, got in ((StatKind.TIES_F1, point.ties_f1),
                                  (StatKind.RANK_F1, point.rank_f1),
                                  (StatKind.ACC_EQ, point.acc_eq)):
                    assert grouped_stat(h, m, mode, kind, pol).value == got

    def test_no_aligned_pairs_gives_undefined_points(self):
        h = ScoreMatrix([("s1", "g1", 1.0)])
        m = ScoreMatrix([("s1", "g1", 2.0)])
        (point,) = f1_curve(h, m, GroupingMode.GROUP_BY_ITEM, [0.1])
        assert (point.ties_f1, point.rank_f1, point.acc_eq) == (None, None, None)

    def test_negative_threshold_rejected(self):
        h, m = single_group([1, 2], [1, 2])
        with pytest.raises(ValueError, match="epsilon"):
            f1_curve(h, m, GroupingMode.NO_GROUPING, [0.1, -0.5])

    def test_empty_grid_rejected(self):
        h, m = single_group([1, 2], [1, 2])
        with pytest.raises(ValueError):
            f1_curve(h, m, GroupingMode.NO_GROUPING, [])
