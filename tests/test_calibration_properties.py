"""Property tests for pair counting, the calibration sweep, the F1 curve
and the tie histogram: hypothesis searches small grouped campaigns (heavy
human ties, negative scores, signed zeros, groups of 0, 1 and 2 rows) and
checks the counts and every statistic against the oracles, and each
read-out against batch evaluation or brute force, with the kernel and
sweep block sizes patched down so that blocks split groups and runs of
equal gaps."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_calibration,
    naive_suff_stats,
    oracle_gap,
    oracle_groups,
    oracle_stat,
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
    f1_curve,
    grouped_stat,
    grouped_stats,
    mean_defined,
    tie_location_histogram,
)
from tiecal.stats import _BLOCK_PAIRS, _pair_blocks, _pair_counts, _sort_counts

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Metric score pools: a decimal lattice (0.1 + 0.3 reaches 0.4, but 0.4 - 0.1
# exceeds 0.3), signed zeros below negatives only (a top midpoint of either
# zero), and any float in a range, subnormals included.
POOLS = (
    st.sampled_from([-2.0, -0.4, -0.1, 0.0, 0.1, 0.3, 0.4, 0.7, 1.0, 2.5]),
    st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
MODES = st.sampled_from(list(GroupingMode))
KERNEL_BLOCKS = st.sampled_from([1, 2, 3, 7, _BLOCK_PAIRS])


@st.composite
def campaigns(draw):
    """Up to 5 systems x 4 segments; each key is scored by both sides, by
    one side only or by neither, and a campaign may have a constant metric."""
    pool = POOLS[draw(st.integers(0, len(POOLS) - 1))]
    constant = draw(pool) if draw(st.integers(0, 3)) == 0 else None
    human, metric = ScoreMatrix(), ScoreMatrix()
    for i in range(draw(st.integers(1, 5))):
        for j in range(draw(st.integers(1, 4))):
            sides = draw(st.sampled_from(["both", "both", "both", "human", "metric", "none"]))
            if sides in ("both", "human"):
                human.add(f"s{i}", f"g{j}", float(draw(st.integers(0, 2))))
            if sides in ("both", "metric"):
                metric.add(f"s{i}", f"g{j}", draw(pool) if constant is None else constant)
    return human, metric


def observed_gaps(human, metric, mode, relative):
    """Zero, every within-group gap and their float neighbours, ascending."""
    gaps = {0.0}
    for _, m in oracle_groups(human, metric, mode):
        gaps.update(oracle_gap(a, b, relative) for i, a in enumerate(m.tolist())
                    for b in m.tolist()[i + 1:])
    near = {math.nextafter(g, step) for g in gaps for step in (-math.inf, math.inf)}
    return sorted(g for g in gaps | near if 0.0 <= g < math.inf)


def eps_mode_of(relative):
    return EpsilonMode.RELATIVE if relative else EpsilonMode.ABSOLUTE


@PROFILE
@given(campaign=campaigns(), mode=MODES, relative=st.booleans(), block=KERNEL_BLOCKS,
       sort_level=st.sampled_from([0, math.inf]), data=st.data())
def test_pair_counts_and_every_statistic_equal_the_oracles(campaign, mode, relative, block,
                                                           sort_level, data):
    human, metric = campaign
    eps = data.draw(st.sampled_from(observed_gaps(human, metric, mode, relative)))
    pol = EpsilonPolicy(eps, eps_mode_of(relative))
    groups = oracle_groups(human, metric, mode)
    expected = [list(naive_suff_stats(h.tolist(), m.tolist(), eps, relative).as_tuple())
                for h, m in groups]
    h, m, sizes = align(human, metric, mode)
    with mock.patch("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", math.inf), \
            mock.patch("tiecal.stats._BLOCK_PAIRS", block):
        assert _pair_counts(h, m, sizes, pol).tolist() == expected  # the kernel
    if not relative or eps == 0.0:  # where the tie test is monotone along sorted scores
        assert _sort_counts(h, m, sizes, eps).tolist() == expected

    # every statistic, through whichever counting path sort_level selects
    with mock.patch("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", sort_level):
        reports = grouped_stats(human, metric, mode, list(StatKind), pol)
    for kind, report in zip(StatKind, reports):
        values = [oracle_stat(kind, *counts, min(len(set(hg.tolist())), len(set(mg.tolist()))),
                              hg.size) for counts, (hg, mg) in zip(expected, groups)]
        used = [counts for counts, value in zip(expected, values) if value is not None]
        assert report.kind is kind
        assert report.value == mean_defined(np.array(values, dtype=float))
        assert (report.groups_total, report.groups_used) == (len(groups), len(used))
        assert report.pairs_total == sum(map(sum, expected))
        assert list(report.pairs_by_class.as_tuple()) == [sum(c) for c in zip(*used, [0] * 5)]


@PROFILE
@given(campaign=campaigns(), mode=MODES, relative=st.booleans(), block=KERNEL_BLOCKS,
       data=st.data())
def test_f1_curve_equals_grouped_stat(campaign, mode, relative, block, data):
    human, metric = campaign
    eps_mode = eps_mode_of(relative)
    grid = data.draw(st.lists(st.sampled_from(observed_gaps(human, metric, mode, relative)),
                              min_size=1, max_size=6))  # unsorted, with duplicates
    with mock.patch("tiecal.stats._BLOCK_PAIRS", block):
        points = f1_curve(human, metric, mode, grid, eps_mode)
    assert [point.epsilon for point in points] == sorted(grid)
    for point in points:
        pol = EpsilonPolicy(point.epsilon, eps_mode)
        assert (point.ties_f1, point.rank_f1, point.acc_eq) == tuple(
            grouped_stat(human, metric, mode, kind, pol).value
            for kind in (StatKind.TIES_F1, StatKind.RANK_F1, StatKind.ACC_EQ))


def assert_histogram_matches_concatenated_midpoints(human, metric, pol, bins, mode, block):
    with mock.patch("tiecal.stats._BLOCK_PAIRS", block):
        hist = tie_location_histogram(human, metric, pol, bins, mode)
    blocks = list(_pair_blocks(*align(human, metric, mode), pol, midpoints=True))
    if blocks:
        gap, _, _, mid = (np.concatenate(column) for column in zip(*blocks))
        all_pairs, edges = np.histogram(mid, bins)
        newly_tied, _ = np.histogram(mid[(gap > 0.0) & (gap <= pol.epsilon)], edges)
    else:
        edges, all_pairs, newly_tied = np.linspace(0.0, 1.0, bins + 1), [0] * bins, [0] * bins
    assert hist.bin_edges.tobytes() == edges.tobytes()  # bit for bit, signed zeros too
    assert hist.all_pairs.dtype == hist.newly_tied.dtype == np.int64
    assert hist.all_pairs.tolist() == list(all_pairs)
    assert hist.newly_tied.tolist() == list(newly_tied)


@PROFILE
@given(campaign=campaigns(), mode=MODES, relative=st.booleans(), bins=st.integers(1, 7),
       block=KERNEL_BLOCKS, data=st.data())
def test_tie_histogram_equals_np_histogram_of_all_midpoints(campaign, mode, relative, bins,
                                                            block, data):
    human, metric = campaign
    eps = data.draw(st.sampled_from(observed_gaps(human, metric, mode, relative)))
    assert_histogram_matches_concatenated_midpoints(
        human, metric, EpsilonPolicy(eps, eps_mode_of(relative)), bins, mode, block)


def test_tie_histogram_top_edge_of_mixed_signed_zeros():
    # every midpoint is at most zero and the top ones are 0.0 and -0.0:
    # np.max over all of them decides the sign of the last edge
    rng = np.random.default_rng(3)
    for n_zeros in (2, 3, 9, 40):
        for _ in range(5):
            values = np.concatenate(([-1.0, -0.5], np.where(rng.random(n_zeros) < 0.5,
                                                            -0.0, 0.0)))
            rng.shuffle(values)
            human = ScoreMatrix((f"s{i}", "g", float(i % 3)) for i in range(values.size))
            metric = ScoreMatrix((f"s{i}", "g", v) for i, v in enumerate(values.tolist()))
            for block in (3, _BLOCK_PAIRS):
                assert_histogram_matches_concatenated_midpoints(
                    human, metric, EpsilonPolicy(0.5), 4, GroupingMode.NO_GROUPING, block)


@PROFILE
@given(campaign=campaigns(), mode=MODES, relative=st.booleans(),
       kind=st.sampled_from(list(StatKind)), moves=st.integers(1, 7), block=KERNEL_BLOCKS,
       sample=st.none() | st.tuples(st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 3)))
def test_calibrate_equals_brute_force(campaign, mode, relative, kind, moves, block, sample):
    human, metric = campaign
    fraction, seed = sample or (1.0, 0)
    config = CalibrationConfig(kind=kind, mode=mode, eps_mode=eps_mode_of(relative),
                               sample_fraction=fraction, seed=seed)
    if all(h.size < 2 for h, _ in oracle_groups(human, metric, mode)):
        with pytest.raises(ValueError, match="nothing to calibrate"):
            calibrate(human, metric, config)
        return
    with mock.patch("tiecal.calibration._SWEEP_MOVES", moves), \
            mock.patch("tiecal.stats._BLOCK_PAIRS", block):
        result = calibrate(human, metric, config)
    expect_eps, expect_val = brute_force_calibration(human, metric, mode, kind, relative, sample)
    assert (result.epsilon_star, result.stat_star) == (expect_eps, expect_val)
    assert result.exact == (sample is None)
