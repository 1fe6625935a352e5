"""Tests for score matrices, alignment, grouped statistics, and bucketing."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_groups, oracle_tau_c_context

from tiecal import (
    EpsilonPolicy,
    GroupingMode,
    ScoreMatrix,
    StatKind,
    align,
    bucketize,
    grouped_stats,
    mean_defined,
)
from tiecal.stats import _tau_c_contexts


def matrix_from(rows):
    return ScoreMatrix(rows)


def full_matrix(scores_by_system, segments):
    rows = []
    for system, scores in scores_by_system.items():
        for segment, score in zip(segments, scores):
            rows.append((system, segment, score))
    return ScoreMatrix(rows)


def random_matrices(rng, n_systems, n_segments, missing=0.0):
    h, m = [], []
    for i in range(n_systems):
        for j in range(n_segments):
            h.append((f"s{i}", f"g{j}", float(rng.integers(0, 4))))
            if rng.random() >= missing:
                m.append((f"s{i}", f"g{j}", float(rng.normal())))
    return ScoreMatrix(h), ScoreMatrix(m)


class TestScoreMatrix:
    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScoreMatrix([("s1", "g1", 1.0), ("s1", "g1", 2.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreMatrix([("s1", "g1", float("nan"))])

    def test_ordered_id_sets(self):
        matrix = ScoreMatrix([("b", "y", 1.0), ("a", "x", 2.0), ("b", "x", 3.0)])
        assert list(matrix.keys()) == [("b", "y"), ("a", "x"), ("b", "x")]  # first-seen order
        assert len(matrix) == 3
        assert repr(matrix) == "ScoreMatrix(3 entries, 2 systems, 2 segments)"

    def test_with_scores_shares_the_key_list_and_checks_its_scores(self):
        matrix = ScoreMatrix([("b", "y", 1.0), ("a", "x", 2.0)])
        other = matrix.with_scores(array("d", [5.0, -0.0]))
        assert other._keys is matrix._keys
        assert list(other.items()) == [("b", "y", 5.0), ("a", "x", -0.0)]
        assert list(matrix.items()) == [("b", "y", 1.0), ("a", "x", 2.0)]
        with pytest.raises(ValueError, match="expected 2 finite scores"):
            matrix.with_scores(array("d", [1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="expected 2 finite scores"):
            matrix.with_scores(array("d", [1.0, float("inf")]))


class TestAlign:
    def test_complete_two_by_two(self):
        h = full_matrix({"s1": [1, 2], "s2": [3, 4]}, ["g1", "g2"])
        m = full_matrix({"s1": [5, 6], "s2": [7, 8]}, ["g1", "g2"])
        aligned = align(h, m, GroupingMode.GROUP_BY_ITEM)
        assert aligned.sizes.tolist() == [2, 2]
        # group g1 (s1, s2), then group g2 (s1, s2)
        assert aligned.human.tolist() == [1, 3, 2, 4]
        assert aligned.metric.tolist() == [5, 7, 6, 8]

    def test_intersection_rule_with_missing_entry(self):
        h = full_matrix({"s1": [1, 2], "s2": [3, 4]}, ["g1", "g2"])
        m = matrix_from([("s1", "g1", 1.0), ("s2", "g1", 3.0), ("s1", "g2", 2.0)])
        aligned = align(h, m, GroupingMode.GROUP_BY_ITEM)
        assert aligned.sizes.tolist() == [2, 1]
        assert aligned.human.tolist() == [1, 3, 2]

    def test_no_grouping_pools_everything(self):
        h = full_matrix({"s1": [1, 2], "s2": [3, 4], "s3": [5, 6]}, ["g1", "g2"])
        m = full_matrix({"s1": [1, 2], "s2": [3, 4], "s3": [5, 6]}, ["g1", "g2"])
        aligned = align(h, m, GroupingMode.NO_GROUPING)
        assert aligned.sizes.tolist() == [6]
        assert aligned.human.size == aligned.metric.size == 6

    def test_empty_intersection(self):
        h = matrix_from([("s1", "g1", 1.0)])
        m = matrix_from([("s2", "g2", 1.0)])
        for mode in GroupingMode:
            aligned = align(h, m, mode)
            assert aligned.sizes.size == aligned.human.size == aligned.metric.size == 0

    def test_group_by_system(self):
        h = full_matrix({"s1": [1, 2, 3], "s2": [4, 5, 6]}, ["g1", "g2", "g3"])
        m = full_matrix({"s1": [1, 2, 3], "s2": [4, 5, 6]}, ["g1", "g2", "g3"])
        aligned = align(h, m, GroupingMode.GROUP_BY_SYSTEM)
        assert aligned.sizes.tolist() == [3, 3]
        assert aligned.human.tolist() == [1, 2, 3, 4, 5, 6]

    def test_matches_oracle_groups(self):
        # sparse on both sides, shuffled insertion, and ids such as g10 < g2
        rng = np.random.default_rng(8)
        for _ in range(10):
            h, m = random_matrices(rng, int(rng.integers(1, 7)), int(rng.integers(1, 13)),
                                   missing=0.3)
            rows_h = [row for row in h.items() if rng.random() >= 0.2]
            rows_m = list(m.items())
            h = ScoreMatrix([rows_h[i] for i in rng.permutation(len(rows_h))])
            m = ScoreMatrix([rows_m[i] for i in rng.permutation(len(rows_m))])
            for mode in GroupingMode:
                aligned = align(h, m, mode)
                groups = oracle_groups(h, m, mode)
                assert aligned.sizes.tolist() == [hg.size for hg, _ in groups]
                assert aligned.human.tolist() == [v for hg, _ in groups for v in hg.tolist()]
                assert aligned.metric.tolist() == [v for _, mg in groups for v in mg.tolist()]

    # ids such as s10 < s2 and g10 < g2, so sorted and insertion order differ
    KEYS = [(f"s{i}", f"g{j}") for i in (2, 10, 1) for j in (3, 10, 2, 0)]
    SCORES = st.floats(-4, 4, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])
    SPARSE = st.dictionaries(st.sampled_from(KEYS), SCORES)
    ORDERS = st.lists(st.booleans(), max_size=12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(human=SPARSE, a=SPARSE, b=SPARSE, orders=ORDERS, draw=st.data())
    def test_memoised_human_side_matches_oracle(self, human, a, b, orders, draw):
        # A third metric is on the human's own key list.  Each step aligns
        # every metric in every mode, in order (True) or reversed (False).
        human = ScoreMatrix(human)
        shared = human.with_scores(array("d", draw.draw(
            st.lists(self.SCORES, min_size=len(human), max_size=len(human)))))
        assert shared._keys is human._keys
        metrics = [ScoreMatrix(a), ScoreMatrix(b), shared]
        for step in [True, *orders, False]:
            for metric in metrics if step else metrics[::-1]:
                for mode in GroupingMode:
                    aligned = align(human, metric, mode)
                    groups = oracle_groups(human, metric, mode)
                    assert aligned.sizes.dtype == np.int64
                    assert aligned.sizes.tolist() == [hg.size for hg, _ in groups]
                    for got, side in ((aligned.human, 0), (aligned.metric, 1)):
                        want = [v for group in groups for v in group[side].tolist()]
                        assert got.tolist() == want
                        assert np.signbit(got).tolist() == np.signbit(want).tolist()


class TestGroupedStat:
    def test_mean_over_groups(self):
        # group g1 has accuracy 1.0, group g2 accuracy 0.5
        h = matrix_from([("s1", "g1", 1.0), ("s2", "g1", 2.0),
                         ("s1", "g2", 1.0), ("s2", "g2", 2.0),
                         ("s3", "g2", 3.0), ("s4", "g2", 4.0)])
        m = matrix_from([("s1", "g1", 1.0), ("s2", "g1", 2.0),
                         ("s1", "g2", 2.0), ("s2", "g2", 4.0),
                         ("s3", "g2", 1.0), ("s4", "g2", 3.0)])
        report = grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [StatKind.ACC_EQ])[0]
        assert report.value == pytest.approx(0.75)
        assert report.groups_used == 2
        assert report.groups_total == 2

    def test_constant_metric_tau_b_all_undefined(self):
        rng = np.random.default_rng(1)
        h, m = [], []
        for j in range(4):
            for i in range(5):
                # one group has constant human scores, three do not
                score = 2.0 if j == 0 else float(rng.integers(0, 4))
                h.append((f"s{i}", f"g{j}", score))
                m.append((f"s{i}", f"g{j}", 1.0))
        h, m = ScoreMatrix(h), ScoreMatrix(m)
        report = grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [StatKind.TAU_B])[0]
        assert report.value is None
        assert report.groups_used == 0
        assert report.groups_total == 4

    def test_perfect_metric_every_mode(self):
        rng = np.random.default_rng(2)
        h, _ = random_matrices(rng, 4, 6)
        for mode in GroupingMode:
            report = grouped_stats(h, h, mode, [StatKind.ACC_EQ])[0]
            assert report.value == 1.0

    def test_pairs_accounting(self):
        rng = np.random.default_rng(3)
        h, m = random_matrices(rng, 5, 8, missing=0.2)
        for mode in GroupingMode:
            report = grouped_stats(h, m, mode, [StatKind.ACC_EQ])[0]
            groups = oracle_groups(h, m, mode)
            expected = sum(hg.size * (hg.size - 1) // 2 for hg, _ in groups)
            assert report.pairs_total == expected
            # accuracy is defined for every group with at least one pair
            assert report.pairs_by_class.total == expected

    def test_single_entry_groups_counted_but_unused(self):
        h = matrix_from([("s1", "g1", 1.0), ("s2", "g1", 2.0), ("s1", "g2", 3.0)])
        m = matrix_from([("s1", "g1", 1.0), ("s2", "g1", 2.0), ("s1", "g2", 3.0)])
        report = grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [StatKind.ACC_EQ])[0]
        assert report.groups_total == 2
        assert report.groups_used == 1
        assert report.value == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        rows_h = [(f"s{i}", f"g{j}", float(rng.integers(0, 3)))
                  for i in range(4) for j in range(5)]
        rows_m = [(f"s{i}", f"g{j}", float(rng.normal()))
                  for i in range(4) for j in range(5)]
        base_h, base_m = ScoreMatrix(rows_h), ScoreMatrix(rows_m)
        for seed in range(3):
            shuffle = np.random.default_rng(seed).permutation(len(rows_h))
            h = ScoreMatrix([rows_h[i] for i in shuffle])
            m = ScoreMatrix([rows_m[i] for i in shuffle])
            for mode in GroupingMode:
                for kind in (StatKind.ACC_EQ, StatKind.TAU_B, StatKind.TAU_C):
                    a = grouped_stats(base_h, base_m, mode, [kind], EpsilonPolicy(0.3))[0]
                    b = grouped_stats(h, m, mode, [kind], EpsilonPolicy(0.3))[0]
                    assert a == b

    def test_unweighted_mean_ignores_group_size(self):
        # 2-entry group and 40-entry group weigh equally
        h, m = [], []
        h.append(("s1", "small", 1.0))
        h.append(("s2", "small", 2.0))
        m.append(("s1", "small", 2.0))
        m.append(("s2", "small", 1.0))  # accuracy 0 in the small group
        for i in range(40):
            h.append((f"x{i}", "big", float(i)))
            m.append((f"x{i}", "big", float(i)))  # accuracy 1 in the big group
        h, m = ScoreMatrix(h), ScoreMatrix(m)
        report = grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [StatKind.ACC_EQ])[0]
        assert report.value == pytest.approx(0.5)

    def test_acc_eq_never_undefined_with_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, m = random_matrices(rng, int(rng.integers(2, 6)), int(rng.integers(2, 8)))
            report = grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [StatKind.ACC_EQ])[0]
            assert report.groups_used == report.groups_total


class TestTauCContexts:
    def test_matches_the_oracle_per_group(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            sizes = rng.choice([0, 1, 2, 3, 6], size=rng.integers(0, 7))
            n = int(sizes.sum())
            h = rng.choice([-0.0, 0.0, -5.0, -10.0], n)
            m = rng.choice([-0.0, 0.0, 0.5, -0.5, 1.0, 2.5], n)
            contexts = _tau_c_contexts(h, m, np.asarray(sizes, dtype=np.int64))
            starts = np.concatenate(([0], np.cumsum(sizes)))
            bounds = list(zip(starts[:-1], starts[1:]))
            oracle = [oracle_tau_c_context(h[a:b].tolist(), m[a:b].tolist()) for a, b in bounds]
            assert contexts.shape == (2, sizes.size)
            assert list(zip(*contexts.tolist())) == oracle


class TestMeanDefined:
    def test_empty_is_undefined(self):
        assert mean_defined(np.array([])) is None

    def test_all_nan_is_undefined(self):
        assert mean_defined(np.array([np.nan, np.nan])) is None

    def test_drops_nan_groups(self):
        assert mean_defined(np.array([1.0, np.nan, 0.0])) == pytest.approx(0.5)


class TestBucketize:
    def test_formula_application(self):
        m = matrix_from([("s1", "g1", 0.0), ("s2", "g1", 0.5), ("s3", "g1", 1.0)])
        out = bucketize(m, 2)
        assert [score for _, _, score in out.items()] == [0.0, 1.0, 1.0]

    def test_single_bucket_is_constant(self):
        m = matrix_from([("s1", "g1", -3.0), ("s2", "g1", 0.5), ("s3", "g1", 7.0)])
        out = bucketize(m, 1)
        assert all(score == 0.0 for _, _, score in out.items())

    def test_hand_evaluated_boundaries(self):
        m = matrix_from([("s1", "g1", 0.0), ("s2", "g1", 0.24),
                         ("s3", "g1", 0.26), ("s4", "g1", 1.0)])
        out = bucketize(m, 4)
        assert [score for _, _, score in out.items()] == [0.0, 0.0, 1.0, 3.0]

    def test_constant_matrix_maps_to_zero(self):
        m = matrix_from([("s1", "g1", 4.2), ("s2", "g1", 4.2)])
        out = bucketize(m, 8)
        assert all(score == 0.0 for _, _, score in out.items())

    def test_empty_matrix_maps_to_an_empty_matrix(self):
        assert len(bucketize(ScoreMatrix(), 4)) == 0

    def test_bucket_count_below_one_rejected(self):
        m = matrix_from([("s1", "g1", 0.0), ("s2", "g1", 1.0)])
        with pytest.raises(ValueError, match="bucket count must be >= 1, got 0"):
            bucketize(m, 0)

    def test_equals_the_formula_one_score_at_a_time(self):
        # bit for bit: a score of -0.0 gets bucket 0.0 as math.floor gives it
        rng = np.random.default_rng(8)
        for values in (rng.normal(size=120) * 1e3, rng.integers(-3, 4, 120) / 4,
                       rng.choice([-0.0, 0.0, 1.0, 5e-324], 120),
                       np.array([-0.0, 0.0, 1.0])):  # np.min gives 0.0 here
            values = values.tolist()
            m = matrix_from((f"s{i % 5}", f"g{i}", v) for i, v in enumerate(values))
            lo, hi = min(values), max(values)
            for k in (1, 2, 3, 7, 64):
                expected = [float(min(k - 1, math.floor((v - lo) / (hi - lo) * k)))
                            for v in values]
                got = [score for _, _, score in bucketize(m, k).items()]
                assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_range_beyond_the_float_range_rejected(self):
        m = matrix_from([("s1", "g1", -1e308), ("s2", "g1", 0.0), ("s3", "g1", 1e308)])
        with pytest.raises(ValueError, match="overflows"):
            bucketize(m, 4)

    def test_bucket_nesting(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=200)
        m = ScoreMatrix([("s", f"g{i}", float(s)) for i, s in enumerate(scores)])
        for k in (1, 2, 4, 8, 16, 32):
            coarse = bucketize(m, k)
            fine = bucketize(m, 2 * k)
            fine_scores = {(system, segment): v for system, segment, v in fine.items()}
            coarse_scores = {(system, segment): v for system, segment, v in coarse.items()}
            keys = list(fine_scores)
            for a in range(len(keys)):
                for b in range(a + 1, len(keys)):
                    if fine_scores[keys[a]] == fine_scores[keys[b]]:
                        assert coarse_scores[keys[a]] == coarse_scores[keys[b]]

    def test_groups_used_monotone_in_k(self):
        rng = np.random.default_rng(7)
        h, m = [], []
        for i in range(8):
            for j in range(30):
                h.append((f"s{i}", f"g{j}", float(rng.integers(0, 5))))
                m.append((f"s{i}", f"g{j}", float(rng.normal(scale=2.0))))
        h, m = ScoreMatrix(h), ScoreMatrix(m)
        used = []
        for k in (2, 4, 8, 16, 32, 64):
            report = grouped_stats(h, bucketize(m, k),
                                   GroupingMode.GROUP_BY_ITEM, [StatKind.TAU_B])[0]
            used.append(report.groups_used)
        assert used == sorted(used)
