"""Property tests for pair counting, the calibration sweep, the F1 curve
and the tie histogram: hypothesis searches small grouped campaigns (heavy
human ties, negative scores, signed zeros, groups of 0, 1 and 2 rows) and
checks the counts and every statistic against the oracles, and each
read-out against batch evaluation or brute force, with the kernel and
sweep block sizes patched down so that blocks split groups and runs of
equal gaps."""

import math
from array import array
from dataclasses import astuple
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_calibration,
    mean_defined,
    naive_suff_stats,
    oracle_gap,
    oracle_groups,
    oracle_stat,
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
    f1_curve,
    grouped_stats,
    tie_location_histogram,
)
from tiecal.calibration import _BIN_SHIFT
from tiecal.stats import _BLOCK_PAIRS, _kernel_sized, _pair_blocks, _pair_counts, _sort_counts

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Metric score pools: a decimal lattice (0.1 + 0.3 reaches 0.4, but 0.4 - 0.1
# exceeds 0.3), signed zeros below negatives only (a top midpoint of either
# zero), and any float in a range, subnormals included.
POOLS = (
    st.sampled_from([-2.0, -0.4, -0.1, 0.0, 0.1, 0.3, 0.4, 0.7, 1.0, 2.5]),
    st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
# Scores near ±max float, whose differences overflow to the halved gaps, with
# small and zero scores among them.
NEAR_MAX = st.sampled_from([-1.7976931348623157e308, -1.7e308, -1e308, -5e307, -1.0, -0.0,
                            0.0, 1.0, 5e307, 1e308, 1.7e308, 1.7976931348623157e308])
# Scores whose gaps fall in many gap bins, binades apart, so that equal maxima
# can sit in different bins and a window can leave bins out.
SPREAD = st.sampled_from([-1.0, -0.01, 0.0, 0.001, 0.002, 0.01, 0.5, 1.0, 1.005, 2.0, 100.0])
MODES = st.sampled_from(list(GroupingMode))
KERNEL_BLOCKS = st.sampled_from([1, 2, 3, 7, _BLOCK_PAIRS])


@st.composite
def campaigns(draw, pools=POOLS):
    """Up to 5 systems x 4 segments; each key is scored by both sides, by
    one side only or by neither, and a campaign may have a constant metric."""
    pool = pools[draw(st.integers(0, len(pools) - 1))]
    constant = draw(pool) if draw(st.integers(0, 3)) == 0 else None
    human, metric = [], []
    for i in range(draw(st.integers(1, 5))):
        for j in range(draw(st.integers(1, 4))):
            sides = draw(st.sampled_from(["both", "both", "both", "human", "metric", "none"]))
            if sides in ("both", "human"):
                human.append((f"s{i}", f"g{j}", float(draw(st.integers(0, 2)))))
            if sides in ("both", "metric"):
                metric.append((f"s{i}", f"g{j}", draw(pool) if constant is None else constant))
    return ScoreMatrix(human), ScoreMatrix(metric)


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
@given(campaign=campaigns(POOLS + (NEAR_MAX,)), mode=MODES, relative=st.booleans(),
       block=KERNEL_BLOCKS, sort_level=st.sampled_from([0, math.inf]), data=st.data())
def test_pair_counts_and_every_statistic_equal_the_oracles(campaign, mode, relative, block,
                                                           sort_level, data):
    human, metric = campaign
    eps = data.draw(st.sampled_from(observed_gaps(human, metric, mode, relative)))
    pol = EpsilonPolicy(eps, eps_mode_of(relative))
    groups = oracle_groups(human, metric, mode)
    expected = [list(naive_suff_stats(h.tolist(), m.tolist(), eps, relative)) for h, m in groups]
    h, m, sizes, _ = align(human, metric, mode)
    with mock.patch("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", math.inf), \
            mock.patch("tiecal.stats._BLOCK_PAIRS", block):
        assert _pair_counts(h, m, sizes, pol).tolist() == expected  # the kernel
    assert _sort_counts(h, m, sizes, pol).tolist() == expected

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
        assert list(astuple(report.pairs_by_class)) == [sum(c) for c in zip(*used, [0] * 5)]


def kernel_columns(blocks):
    """The gap, group, class and midpoint columns of kernel blocks, as bytes."""
    blocks = list(blocks)
    return [b"".join(block[column].tobytes() for block in blocks) for column in range(4)]


@PROFILE
@given(campaign=campaigns(), mode=MODES, relative=st.booleans(), block=KERNEL_BLOCKS,
       eps=st.sampled_from([0.0, 0.3, 1.0, 2.5]), data=st.data())
def test_pair_layout_passes_equal_the_kernel(campaign, mode, relative, block, eps, data):
    # The pass that fills a layout and every pass that reads it give the
    # kernel's gaps, groups, classes and midpoints, bit for bit; counts read
    # through the human side's shared layout, or without one for a metric
    # on some of the human's keys, equal the oracle's.
    human, metric = campaign
    pool = POOLS[data.draw(st.integers(0, len(POOLS) - 1))]
    shared = human.with_scores(array("d", data.draw(
        st.lists(pool, min_size=len(human), max_size=len(human)))))
    pol = EpsilonPolicy(eps, eps_mode_of(relative))
    with mock.patch("tiecal.stats._BLOCK_PAIRS", block):
        for m in (shared, metric):
            aligned = align(human, m, mode)
            expected = kernel_columns(_pair_blocks(*aligned[:3], pol, midpoints=True))
            for layout in ([], aligned.pairs):
                for _ in range(2):  # the pass that fills the layout, then one that reads it
                    assert kernel_columns(_pair_blocks(*aligned[:3], pol, midpoints=True,
                                                       layout=layout)) == expected
            assert (aligned.pairs is not None) == (m is shared and _kernel_sized(aligned.sizes))
            counts = [list(naive_suff_stats(hg.tolist(), mg.tolist(), eps, relative))
                      for hg, mg in oracle_groups(human, m, mode)]
            assert _pair_counts(*aligned[:3], pol, aligned.pairs).tolist() == counts


@PROFILE
@given(campaign=campaigns(), mode=MODES, relative=st.booleans(), block=KERNEL_BLOCKS,
       data=st.data())
def test_f1_curve_equals_grouped_stats(campaign, mode, relative, block, data):
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
            grouped_stats(human, metric, mode, [kind], pol)[0].value
            for kind in (StatKind.TIES_F1, StatKind.RANK_F1, StatKind.ACC_EQ))


def assert_histogram_matches_concatenated_midpoints(human, metric, pol, bins, mode, block):
    with mock.patch("tiecal.stats._BLOCK_PAIRS", block):
        hist = tie_location_histogram(human, metric, pol, bins, mode)
    blocks = list(_pair_blocks(*align(human, metric, mode)[:3], pol, midpoints=True))
    if blocks:
        gap, _, _, mid = (np.concatenate(column) for column in zip(*blocks))
        all_pairs, edges = np.histogram(mid, bins)
        edges[-1] += 0.0  # a top edge of 0.0 is +0.0, whichever sign np.max picks
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


def test_tie_histogram_of_midpoints_on_its_edges():
    # scores 0..4 in 6 bins: every pair midpoint is an edge (0.5, 1.0, ..., 3.5)
    scores = [0.0, 1.0, 2.0, 3.0, 4.0]
    human = ScoreMatrix((f"s{i}", "g", float(i % 2)) for i in range(len(scores)))
    metric = ScoreMatrix((f"s{i}", "g", score) for i, score in enumerate(scores))
    pairs = [(a, b) for i, a in enumerate(scores) for b in scores[i + 1:]]
    midpoints = [(a + b) / 2 for a, b in pairs]
    newly_tied = [(a + b) / 2 for a, b in pairs if 0.0 < oracle_gap(a, b) <= 2.0]
    for block in (3, _BLOCK_PAIRS):
        with mock.patch("tiecal.stats._BLOCK_PAIRS", block):
            hist = tie_location_histogram(human, metric, EpsilonPolicy(2.0), 6)
        edges = hist.bin_edges
        assert edges.tolist() == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        assert hist.all_pairs.tolist() == np.histogram(midpoints, edges)[0].tolist() == [
            1, 1, 2, 2, 2, 2]
        assert hist.newly_tied.tolist() == np.histogram(newly_tied, edges)[0].tolist() == [
            1, 1, 1, 1, 1, 2]


def test_tie_histogram_top_edge_of_mixed_signed_zeros():
    # every midpoint is at most zero and the top ones are 0.0 and -0.0:
    # the last edge is +0.0, wherever each sign sits
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
            hist = tie_location_histogram(human, metric, EpsilonPolicy(0.5), 4)
            assert hist.bin_edges[-1] == 0.0 and not np.signbit(hist.bin_edges[-1])


@PROFILE
@given(campaign=campaigns(), mode=MODES, relative=st.booleans(),
       kind=st.sampled_from(list(StatKind)), moves=st.integers(1, 7), block=KERNEL_BLOCKS,
       step=st.sampled_from([512, -math.inf]))
def test_calibrate_equals_brute_force(campaign, mode, relative, kind, moves, block, step):
    # step -inf replays every candidate without the walk
    human, metric = campaign
    config = CalibrationConfig(kind=kind, mode=mode, eps_mode=eps_mode_of(relative))
    with mock.patch("tiecal.calibration._SWEEP_MOVES", moves), \
            mock.patch("tiecal.stats._BLOCK_PAIRS", block), \
            mock.patch("tiecal.calibration._REPLAY_STEP_MOVES", step):
        result = calibrate(human, metric, config)
    expect_eps, expect_val = brute_force_calibration(human, metric, mode, kind, relative)
    assert (result.epsilon_star, result.stat_star) == (expect_eps, expect_val)


@PROFILE
@given(campaign=campaigns(POOLS + (SPREAD,)), mode=MODES, relative=st.booleans(),
       kind=st.sampled_from([StatKind.ACC_EQ, StatKind.TAU_EQ, StatKind.TAU_B]),
       shift=st.sampled_from([_BIN_SHIFT, 63]), moves=st.integers(1, 7),
       step=st.sampled_from([512, -math.inf]))
def test_calibrate_over_gap_bins_equals_brute_force(campaign, mode, relative, kind, shift,
                                                    moves, step):
    # acc_eq and tau_eq walk only a window of gap bins, tau_b every move; a
    # shift of 63 puts every gap in one bin, so no window leaves one out
    human, metric = campaign
    config = CalibrationConfig(kind=kind, mode=mode, eps_mode=eps_mode_of(relative))
    with mock.patch("tiecal.calibration._BIN_SHIFT", shift), \
            mock.patch("tiecal.calibration._SWEEP_MOVES", moves), \
            mock.patch("tiecal.calibration._REPLAY_STEP_MOVES", step):
        result = calibrate(human, metric, config)
    expect_eps, expect_val = brute_force_calibration(human, metric, mode, kind, relative)
    assert (result.epsilon_star, result.stat_star) == (expect_eps, expect_val)
    # the candidates are zero and every distinct gap a threshold can tie, in
    # the window or not
    views = pair_views(oracle_groups(human, metric, mode), relative)
    gaps = {g for view in views if view is not None for g in view[0].tolist() if 0 < g < math.inf}
    assert result.candidates_evaluated == 1 + len(gaps)


@PROFILE
@given(campaign=campaigns(), mode=MODES, kind=st.sampled_from(list(StatKind)), data=st.data())
def test_relative_mode_is_scale_free(campaign, mode, kind, data):
    # Scaling every metric score by 2**k, with no score or result subnormal,
    # scales each relative gap's difference and magnitude exactly, even where
    # a - b overflows: counts on both paths and the calibrated threshold stay.
    human, metric = campaign
    exponents = [math.frexp(v)[1] for v in metric.scores().tolist() if v != 0.0]
    assume(min(exponents, default=0) >= -1021)  # 2**-1022, the least normal, is 0.5 * 2**-1021
    lowest, highest = -1021 - min(exponents, default=0), 1024 - max(exponents, default=0)
    k = data.draw(st.sampled_from([lowest, highest]) | st.integers(lowest, highest))
    scaled = metric.with_scores(array("d", np.ldexp(metric.scores(), k).tobytes()))
    eps = data.draw(st.sampled_from(observed_gaps(human, metric, mode, True)))
    pol = EpsilonPolicy(eps, EpsilonMode.RELATIVE)
    h, m, sizes, _ = align(human, metric, mode)
    with mock.patch("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", math.inf):  # the kernel
        assert (_pair_counts(h, np.ldexp(m, k), sizes, pol).tolist()
                == _pair_counts(h, m, sizes, pol).tolist())
    assert (_sort_counts(h, np.ldexp(m, k), sizes, pol).tolist()
            == _sort_counts(h, m, sizes, pol).tolist())
    config = CalibrationConfig(kind=kind, mode=mode, eps_mode=EpsilonMode.RELATIVE)
    results = [calibrate(human, matrix, config) for matrix in (metric, scaled)]
    assert len({(r.epsilon_star, r.stat_star, r.candidates_evaluated) for r in results}) == 1


@PROFILE
@given(campaign=campaigns(), mode=MODES, kind=st.sampled_from(list(StatKind)), data=st.data())
def test_absolute_mode_scales_with_epsilon(campaign, mode, kind, data):
    # Scaling every metric score and epsilon by 2**k, with every nonzero score,
    # gap and threshold normal before and after, scales each absolute gap
    # exactly: counts on both paths stay, and the calibrated threshold scales.
    human, metric = campaign
    gaps = [oracle_gap(a, b, False) for _, m in oracle_groups(human, metric, mode)
            for i, a in enumerate(m.tolist()) for b in m.tolist()[i + 1:]]
    eps = data.draw(st.sampled_from([g for g in observed_gaps(human, metric, mode, False)
                                     if g == 0.0 or g >= 2.0**-1022]))
    exponents = [math.frexp(v)[1] for v in [*metric.scores().tolist(), *gaps, eps] if v != 0.0]
    assume(min(exponents, default=0) >= -1021)  # no subnormal score or gap
    lowest, highest = -1021 - min(exponents, default=0), 1024 - max(exponents, default=0)
    k = data.draw(st.sampled_from([lowest, highest]) | st.integers(lowest, highest))
    scaled = metric.with_scores(array("d", np.ldexp(metric.scores(), k).tobytes()))
    pol, scaled_pol = (EpsilonPolicy(e, EpsilonMode.ABSOLUTE) for e in (eps, math.ldexp(eps, k)))
    h, m, sizes, _ = align(human, metric, mode)
    with mock.patch("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", math.inf):  # the kernel
        assert (_pair_counts(h, np.ldexp(m, k), sizes, scaled_pol).tolist()
                == _pair_counts(h, m, sizes, pol).tolist())
    assert (_sort_counts(h, np.ldexp(m, k), sizes, scaled_pol).tolist()
            == _sort_counts(h, m, sizes, pol).tolist())
    config = CalibrationConfig(kind=kind, mode=mode)
    result, scaled_result = (calibrate(human, matrix, config) for matrix in (metric, scaled))
    assert scaled_result.epsilon_star == math.ldexp(result.epsilon_star, k)
    assert (scaled_result.stat_star, scaled_result.candidates_evaluated) == (
        result.stat_star, result.candidates_evaluated)
