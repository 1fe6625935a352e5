"""Tests for the tie-calibration sweep and its companions."""

import itertools
import math
import resource
import tracemalloc
import warnings
from array import array
from unittest import mock

import numpy as np
import pytest
from oracles import brute_force_calibration, naive_suff_stats, oracle_groups, pair_views

import tiecal
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
from tiecal.calibration import (
    _MOVE_BYTES,
    _SWEEP_MOVES,
    _approx_means,
    _moves,
    _replay,
)
from tiecal.stats import _pair_blocks, _stat_from_arrays, _tau_c_contexts


def single_group(h_scores, m_scores):
    h = ScoreMatrix((f"s{i}", "seg", float(v)) for i, v in enumerate(h_scores))
    m = ScoreMatrix((f"s{i}", "seg", float(v)) for i, v in enumerate(m_scores))
    return h, m


def sorted_moves(aligned, eps_mode):
    """The kernel pass's counts and every move, sorted by gap."""
    total = int((aligned.sizes * (aligned.sizes - 1) // 2).sum())
    counts, gaps, packed = _moves(aligned, eps_mode, total)
    order = np.argsort(gaps)
    return counts, gaps[order], packed[order]


def random_instance(rng):
    """Small grouped campaign with scores on a coarse lattice (duplicate gaps)."""
    n_groups = int(rng.integers(1, 6))
    h, m = [], []
    for j in range(n_groups):
        size = int(rng.integers(2, 16)) if j == 0 else int(rng.integers(1, 16))
        for i in range(size):
            h.append((f"s{i}", f"g{j}", float(rng.integers(0, 10)) / 4.0))
            m.append((f"s{i}", f"g{j}", float(rng.integers(0, 10)) / 4.0))
    return ScoreMatrix(h), ScoreMatrix(m)


def assert_replay_and_walk_match_fresh_counts(h, m, mode, eps_mode, kind):
    """At the oracle's candidates, zero and every distinct within-group gap,
    the exact replay's counts and the walk's grouped means."""
    relative = eps_mode is EpsilonMode.RELATIVE
    groups = oracle_groups(h, m, mode)
    candidates = sorted({0.0, *(float(gap) for view in pair_views(groups, relative)
                                if view is not None for gap in view[0])})
    result = calibrate(h, m, CalibrationConfig(kind=kind, mode=mode, eps_mode=eps_mode))
    assert result.candidates_evaluated == len(candidates)

    aligned = align(h, m, mode)
    counts, gaps, packed = sorted_moves(aligned, eps_mode)
    contexts = _tau_c_contexts(*aligned[:3]) if kind is StatKind.TAU_C else None
    k, n = (None, None) if contexts is None else contexts
    ends = np.searchsorted(gaps, candidates, "right")
    _, sums, defined = zip(*_approx_means(
        kind, counts, _stat_from_arrays(kind, *counts.T, k, n), contexts, packed, ends))
    sums, defined = np.concatenate(sums), np.concatenate(defined)
    for eps, end, total_value, n_defined, _ in zip(candidates, ends, sums, defined,
                                                   _replay(counts, packed, ends)):
        assert end == 0 or gaps[end - 1] == eps
        for gi, (hg, mg) in enumerate(groups):
            expected = naive_suff_stats(hg.tolist(), mg.tolist(), eps, relative)
            assert tuple(counts[gi].tolist()) == expected
        batch = grouped_stats(h, m, mode, [kind], EpsilonPolicy(eps, eps_mode))[0].value
        if batch is None:
            assert n_defined == 0
        else:
            assert total_value / n_defined == pytest.approx(batch, rel=0, abs=1e-12)


class TestCalibrate:
    def test_small_example_finds_gap(self):
        h, m = single_group([0, 0, 1], [0.0, 0.05, 1.0])
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.NO_GROUPING)
        result = calibrate(h, m, config)
        assert result.epsilon_star == 0.05
        assert result.stat_star == 1.0
        # threshold zero only ties nothing: accuracy 2/3
        assert grouped_stats(h, m, GroupingMode.NO_GROUPING,
                             [StatKind.ACC_EQ], EpsilonPolicy())[0].value == pytest.approx(2 / 3)

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

    @pytest.mark.parametrize("metric", [
        [("s1", "g1", 1.0), ("s1", "g2", 2.0)],  # one system by item: groups of one
        [("s2", "g1", 1.0)],  # no common key: no group
        [],
    ], ids=["one system", "no common key", "empty"])
    def test_zero_pairs_give_zero_and_undefined(self, metric):
        h = ScoreMatrix([("s1", "g1", 1.0), ("s1", "g2", 2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = calibrate(h, ScoreMatrix(metric),
                               CalibrationConfig(mode=GroupingMode.GROUP_BY_ITEM))
        assert (result.epsilon_star, result.stat_star, result.candidates_evaluated) == (
            0.0, None, 1)
        assert result.report.pairs_total == 0

    def test_never_worse_than_zero_threshold(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            h, m = random_instance(rng)
            config = CalibrationConfig(kind=StatKind.ACC_EQ,
                                       mode=GroupingMode.GROUP_BY_ITEM)
            result = calibrate(h, m, config)
            at_zero = grouped_stats(h, m, config.mode, [config.kind], EpsilonPolicy())[0].value
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

    def test_incremental_counts_match_fresh_counts(self):
        # grouped and pooled, in both epsilon modes
        rng = np.random.default_rng(55)
        for mode, eps_mode, kind in itertools.product(
                (GroupingMode.GROUP_BY_ITEM, GroupingMode.NO_GROUPING), EpsilonMode,
                (StatKind.ACC_EQ, StatKind.TIES_F1, StatKind.TAU_B, StatKind.TAU_C)):
            h, m = random_instance(rng)
            assert_replay_and_walk_match_fresh_counts(h, m, mode, eps_mode, kind)

    @pytest.mark.parametrize("kind", [StatKind.ACC_EQ, StatKind.TIES_F1, StatKind.TAU_C])
    def test_walk_restarts_at_blocks_and_groups(self, kind):
        # item a's three moves are tied-human; item b's six are of all three
        # classes and span the three blocks of four moves
        h = ScoreMatrix([("s0", "a", 0.0), ("s1", "a", 0.0), ("s2", "a", 0.0),
                         ("s0", "b", 0.0), ("s1", "b", 0.0), ("s2", "b", 1.0), ("s3", "b", 2.0)])
        m = ScoreMatrix([("s0", "a", 0.0), ("s1", "a", 2.05), ("s2", "a", 4.3),
                         ("s0", "b", 0.0), ("s1", "b", 1.1), ("s2", "b", 6.5), ("s3", "b", 3.2)])
        mode = GroupingMode.GROUP_BY_ITEM
        _, _, packed = sorted_moves(align(h, m, mode), EpsilonMode.ABSOLUTE)
        blocks = [packed[b0:b0 + 4] for b0 in range(0, packed.size, 4)]
        assert [set((block >> 2).tolist()) for block in blocks] == [{0, 1}, {0, 1}, {1}]
        # the classes of each block's first group, in the walk's (group, gap) order
        assert [np.unique(block[block >> 2 == block.min() >> 2] & 3).tolist()
                for block in blocks] == [[2], [2], [0]]
        with mock.patch("tiecal.calibration._SWEEP_MOVES", 4):
            assert_replay_and_walk_match_fresh_counts(h, m, mode, EpsilonMode.ABSOLUTE, kind)

    def test_deterministic(self):
        rng = np.random.default_rng(77)
        h, m = random_instance(rng)
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.GROUP_BY_ITEM)
        a = calibrate(h, m, config)
        b = calibrate(h, m, config)
        assert a == b

    def test_relative_mode_sweep(self):
        # relative gaps: |10-9|/10 = 0.1, |100-90|/100 = 0.1, |10-100|/100 = 0.9
        h, m = single_group([0, 0, 1], [9.0, 10.0, 100.0])
        h2, m2 = single_group([0, 0, 1], [9.0, 10.0, 100.0])
        config = CalibrationConfig(kind=StatKind.ACC_EQ, mode=GroupingMode.NO_GROUPING,
                                   eps_mode=EpsilonMode.RELATIVE)
        result = calibrate(h, m, config)
        assert result.epsilon_star == pytest.approx(0.1)
        assert result.stat_star == 1.0
        check = grouped_stats(h2, m2, GroupingMode.NO_GROUPING, [StatKind.ACC_EQ],
                              EpsilonPolicy(result.epsilon_star, EpsilonMode.RELATIVE))[0]
        assert check.value == 1.0

    def test_pair_kernel_matches_per_group_triu_order(self):
        # a tie histogram's top edge of 0.0 takes its sign from the midpoints in
        # this order, so it is part of the contract: groups in order,
        # np.triu_indices order inside each
        rng = np.random.default_rng(31)
        for eps_mode in EpsilonMode:
            h, m = random_instance(rng)
            mode = GroupingMode.GROUP_BY_ITEM
            pol = EpsilonPolicy(0.0, eps_mode)
            gap, group, _, mid = (np.concatenate(column) for column in zip(
                *_pair_blocks(*align(h, m, mode)[:3], pol, midpoints=True)))
            gaps, owners, mids = [], [], []
            for gi, (_, mg) in enumerate(oracle_groups(h, m, mode)):
                iu, ju = np.triu_indices(mg.size, k=1)
                gaps.append(pol.gaps(mg[iu], mg[ju]))
                owners.append(np.full(iu.size, gi))
                mids.append((mg[iu] + mg[ju]) / 2.0)
            assert gap.tolist() == np.concatenate(gaps).tolist()
            assert group.tolist() == np.concatenate(owners).tolist()
            assert mid.tolist() == np.concatenate(mids).tolist()

    def test_refuses_more_pairs_than_physical_memory(self, monkeypatch):
        h, m = single_group(np.arange(300) % 4, np.arange(300) / 7)  # 44,850 pairs
        config = CalibrationConfig(mode=GroupingMode.NO_GROUPING)

        def machine(memory):
            monkeypatch.setattr("tiecal.calibration.os.sysconf", lambda name: {
                "SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}[name])

        need = 32 * 44_850 + _SWEEP_MOVES * _MOVE_BYTES  # the pairs and the walk's block
        machine(need - 1)
        with pytest.raises(MemoryError) as info:
            calibrate(h, m, config)
        message = str(info.value)
        assert "\n" not in message
        assert "44,850 within-group pairs" in message
        assert f"about {need / 2**30:.3g} GiB" in message
        assert f"machine's {(need - 1) / 2**30:.3g} GiB of memory" in message
        machine(need)
        assert calibrate(h, m, config).report.pairs_total == 44_850

    @pytest.mark.parametrize("limit", ["rlimit_as", "cgroup", "cgroup_v1"])
    def test_refuses_more_pairs_than_the_smallest_memory_limit(self, monkeypatch, tmp_path,
                                                               limit):
        h, m = single_group(np.arange(300) % 4, np.arange(300) / 7)  # 44,850 pairs
        config = CalibrationConfig(mode=GroupingMode.NO_GROUPING)
        need = 32 * 44_850 + _SWEEP_MOVES * _MOVE_BYTES
        monkeypatch.setattr("tiecal.calibration.os.sysconf", lambda name: {
            "SC_PHYS_PAGES": 2 * need, "SC_PAGE_SIZE": 1}[name])
        monkeypatch.setattr("tiecal.calibration.resource.getrlimit",
                            lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
        proc_cgroup, root = tmp_path / "cgroup", tmp_path / "fs"
        monkeypatch.setattr("tiecal.calibration._PROC_CGROUP", proc_cgroup)
        monkeypatch.setattr("tiecal.calibration._CGROUP_ROOT", root)
        proc_cgroup.write_text("12:memory:/v1\n0::/jobs/a\n")
        (root / "jobs" / "a").mkdir(parents=True)
        (root / "memory" / "v1").mkdir(parents=True)
        limit_file = {"cgroup": root / "jobs" / "a" / "memory.max",
                      "cgroup_v1": root / "memory" / "v1" / "memory.limit_in_bytes"}.get(limit)

        def set_limit(value):
            if limit == "rlimit_as":
                monkeypatch.setattr("tiecal.calibration.resource.getrlimit",
                                    lambda which: (value, resource.RLIM_INFINITY))
            else:
                limit_file.write_text(f"{value}\n")

        assert calibrate(h, m, config).report.pairs_total == 44_850  # physical memory only
        set_limit(need - 1)
        with pytest.raises(MemoryError) as info:
            calibrate(h, m, config)
        message = str(info.value)
        assert "\n" not in message and "44,850 within-group pairs" in message
        assert f"the {(need - 1) / 2**30:.3g} GiB " in message
        assert ("RLIMIT_AS" if limit == "rlimit_as" else
                f"{limit_file.name} of cgroup {limit_file.parent}") in message
        set_limit(need)
        assert calibrate(h, m, config).report.pairs_total == 44_850
        if limit != "rlimit_as":  # a cgroup without a limit
            set_limit("max" if limit == "cgroup" else 9223372036854771712)
            assert calibrate(h, m, config).report.pairs_total == 44_850


class TestManySmallGroups:
    """The sweep's sorts: gaps unstably, group ids stably as uint16 up to
    2**16 groups and as int32 beyond, over long runs of equal gaps."""

    @pytest.fixture(scope="class", params=[2**16, 2**16 + 1], ids=["uint16", "int32"])
    def campaign(self, request):
        n_groups = request.param
        rng = np.random.default_rng(n_groups)
        sizes = rng.integers(2, 4, n_groups)
        sizes[[0, -1]] = 3
        h = rng.integers(0, 3, sizes.sum()).astype(float)
        m = 3 * h + rng.integers(-1, 2, sizes.sum())  # integer gaps 0..8
        # the first and last groups' moves interleave in gap order (1, 2, 2,
        # 3, 4, 4), so ids that wrapped around would mix their counts
        h[:3], m[:3], h[-3:], m[-3:] = [0, 0, 1], [0, 1, 4], [0, 1, 1], [0, 2, 4]
        keys = [(f"s{i}", f"g{j:06d}") for j, size in enumerate(sizes.tolist())
                for i in range(size)]
        return (ScoreMatrix(dict(zip(keys, h.tolist()))),
                ScoreMatrix(dict(zip(keys, m.tolist()))), n_groups)

    @pytest.mark.parametrize("kind", [StatKind.ACC_EQ, StatKind.TIES_F1])
    def test_matches_every_candidate(self, campaign, kind):
        h, m, n_groups = campaign
        mode = GroupingMode.GROUP_BY_ITEM
        batch = [grouped_stats(h, m, mode, [kind], EpsilonPolicy(eps))[0].value for eps in range(9)]
        result = calibrate(h, m, CalibrationConfig(kind=kind, mode=mode))
        assert result.candidates_evaluated == 9
        assert result.stat_star == max(batch)
        assert result.epsilon_star == batch.index(max(batch)) > 0
        assert result.report.groups_total == n_groups

        # the blocked sweep's approximate means track the batch values at every candidate
        counts, gaps, packed = sorted_moves(align(h, m, mode), EpsilonMode.ABSOLUTE)
        start = _stat_from_arrays(kind, *counts.T)
        at = np.searchsorted(gaps, np.arange(9.0), "right")
        _, sums, defined = zip(*_approx_means(kind, counts, start, None, packed, at))
        means = np.concatenate(sums) / np.concatenate(defined)
        assert means.tolist() == pytest.approx(batch, rel=0, abs=1e-12)


class TestPairMemory:
    """Peak traced memory on the system-calibrate-curves shape: 15 systems
    of 400 segments, a BLEU-like metric with about 1.2 million distinct relative
    gaps among its 1,197,000 within-system pairs."""

    PAIRS = 15 * 400 * 399 // 2
    MODE = GroupingMode.GROUP_BY_SYSTEM

    @pytest.fixture(scope="class")
    def campaign(self):
        rng = np.random.default_rng(4)
        keys = [(f"sys{i:02d}", f"seg{j:05d}") for i in range(15) for j in range(400)]
        human = -rng.integers(0, 5, len(keys)) * (rng.random(len(keys)) < 0.5)
        metric = np.round(40 + 10 * rng.normal(size=len(keys)), 4)
        return (ScoreMatrix(dict(zip(keys, human.astype(float).tolist()))),
                ScoreMatrix(dict(zip(keys, metric.tolist()))))

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_f1_curve_holds_no_pairs(self, campaign):
        h, m = campaign
        grid = [0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2]
        assert self.peak(lambda: f1_curve(h, m, self.MODE, grid, EpsilonMode.RELATIVE)) < 8e6

    def test_tie_histogram_holds_no_pairs(self, campaign):
        h, m = campaign
        pol = EpsilonPolicy(0.02, EpsilonMode.RELATIVE)
        assert self.peak(lambda: tie_location_histogram(h, m, pol, 20, self.MODE)) < 8e6

    def test_tie_histogram_of_mixed_signed_zeros_holds_no_pairs(self):
        # 1,999,000 pooled pairs whose top midpoints are 0.0 and -0.0
        rng = np.random.default_rng(5)
        keys = [(f"sys{i % 15:02d}", f"seg{i:05d}") for i in range(2000)]
        zeros = np.where(rng.random(2000) < 0.5, -0.0, 0.0)
        metric = np.where(rng.random(2000) < 0.2, zeros, -rng.random(2000))
        human = rng.integers(0, 5, 2000).astype(float)
        h = ScoreMatrix(dict(zip(keys, human.tolist())))
        m = ScoreMatrix(dict(zip(keys, metric.tolist())))
        pol = EpsilonPolicy(0.01)
        hist = tie_location_histogram(h, m, pol, 10)
        assert hist.bin_edges[-1] == 0.0 and hist.all_pairs.sum() == 2000 * 1999 // 2
        assert self.peak(lambda: tie_location_histogram(h, m, pol, 10)) < 8 * 2**20

    def test_calibration_holds_under_40_bytes_a_pair(self, campaign):
        h, m = campaign
        config = CalibrationConfig(mode=self.MODE, eps_mode=EpsilonMode.RELATIVE)
        assert self.peak(lambda: calibrate(h, m, config)) < 40 * self.PAIRS

    def test_calibration_stays_within_its_memory_guard(self, campaign):
        """The traced peak is at most what the guard reserves: 32 B a pair."""
        h, m = campaign
        config = CalibrationConfig(mode=self.MODE, eps_mode=EpsilonMode.RELATIVE)
        assert self.peak(lambda: calibrate(h, m, config)) <= 32 * self.PAIRS

    def test_calibration_of_a_wide_window_stays_within_its_memory_guard(self, campaign,
                                                                          monkeypatch):
        """A discrete metric, the human score plus the halved metric rounded:
        its acc_eq window leaves the largest gaps out but holds most moves,
        which the sweep copies and sorts apart from the gaps.  The traced
        peak is still at most 32 B a pair."""
        h, m = campaign
        m = ScoreMatrix((system, segment, human + round(metric / 2)) for
                        (system, segment, human), (_, _, metric) in zip(h.items(), m.items()))
        seen = []
        window = tiecal.calibration._window
        monkeypatch.setattr("tiecal.calibration._window",
                            lambda *args: seen.append((window(*args), args[3])) or seen[-1][0])
        config = CalibrationConfig(mode=self.MODE)
        assert self.peak(lambda: calibrate(h, m, config)) <= 32 * self.PAIRS
        ((lo, hi), gaps), = seen  # gaps: every move's, sorted in place by calibrate
        assert lo == 0.0 and hi < math.inf
        assert np.count_nonzero(gaps < hi) >= 0.8 * gaps.size >= 0.8 * 0.9 * self.PAIRS

    def test_replay_step_holds_no_per_move_arrays(self, campaign):
        aligned = align(*campaign, self.MODE)
        counts, _, packed = _moves(aligned, EpsilonMode.RELATIVE, self.PAIRS)  # in kernel order
        expected = counts.copy()  # past the largest gap, every pair is metric-tied
        expected[:, 3] += expected[:, 0] + expected[:, 1]
        expected[:, 4] += expected[:, 2]
        expected[:, :3] = 0
        step = _replay(counts, packed, [packed.size])
        assert self.peak(lambda: next(step)) < 2**20
        assert counts.tolist() == expected.tolist()


class TestPairLayout:
    """The human side's pair layout, on the item shape of WMT'22 en-de: 15
    systems and 1315 items, a continuous and a discrete metric on the
    human's key list."""

    MODE = GroupingMode.GROUP_BY_ITEM
    PAIRS = 1315 * 15 * 14 // 2

    @pytest.fixture(scope="class")
    def columns(self):
        rng = np.random.default_rng(21)
        keys = [(f"sys{i:02d}", f"seg{j:05d}") for j in range(1315) for i in range(15)]
        human = -rng.integers(0, 5, len(keys)) * (rng.random(len(keys)) < 0.5)
        return (keys, human.astype(float), np.round(rng.random(len(keys)), 6),
                rng.integers(0, 5, len(keys)).astype(float))

    @staticmethod
    def campaign(keys, human, *metrics, rows=None):
        """A new human matrix, so that its layout is built afresh, and each
        metric on its key list."""
        rows = slice(rows)
        h = ScoreMatrix(zip(*zip(*keys[rows]), human[rows].tolist()))
        return h, *(h.with_scores(array("d", metric[rows])) for metric in metrics)

    @pytest.mark.parametrize("eps_mode", list(EpsilonMode))
    def test_walk_takes_under_a_tenth_of_the_moves(self, columns, eps_mode):
        # acc_eq's gap bins bound where its maximum can lie: only their window
        # is sorted and walked
        h, m = self.campaign(*columns[:3])
        walked = []
        walk = tiecal.calibration._approx_means
        with mock.patch("tiecal.calibration._approx_means",
                        lambda *args: walked.append(args[4].size) or walk(*args)):
            result = calibrate(h, m, CalibrationConfig(eps_mode=eps_mode))
        moves = _moves(align(h, m, self.MODE), eps_mode, self.PAIRS)[1].size
        assert result.candidates_evaluated > 10**5 and moves > 10**5
        assert len(walked) == 1 and 0 < walked[0] < moves / 10

    @pytest.mark.parametrize("column", [2, 3], ids=["continuous", "discrete"])
    def test_calibration_stays_within_its_memory_guard(self, columns, column):
        # the guard reserves 32 B a pair for the sweep, 13 B a pair for the
        # layout and 256 B a move for a block of the walk
        h, m = self.campaign(*columns[:2], columns[column])
        walk = tiecal.calibration._approx_means
        with mock.patch("tiecal.calibration._approx_means", wraps=walk) as walked:
            tracemalloc.start()
            try:
                calibrate(h, m, CalibrationConfig(mode=self.MODE))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(align(h, m, self.MODE).pairs) > 0  # the sweep read a layout
        assert peak <= self.PAIRS * (32 + 13) + _SWEEP_MOVES * 256
        # 5 levels give 5 candidates, too few for the walk to pay
        assert walked.called == (column == 2)

    def test_one_layout_per_human_side_and_mode(self, columns, monkeypatch):
        keys, human, continuous, discrete = columns
        h, *metrics = self.campaign(keys, human, continuous, discrete, continuous[::-1],
                                    rows=15 * 40)
        builds = []
        build = tiecal.stats._pair_index_blocks
        monkeypatch.setattr("tiecal.stats._pair_index_blocks",
                            lambda h, sizes: builds.append(sizes.size) or build(h, sizes))
        for mode in (self.MODE, GroupingMode.GROUP_BY_SYSTEM, GroupingMode.NO_GROUPING):
            for m in metrics:
                calibrate(h, m, CalibrationConfig(mode=mode))
                f1_curve(h, m, mode, [0.0, 0.5, 2.0], EpsilonMode.RELATIVE)
                tie_location_histogram(h, m, EpsilonPolicy(0.1), 5, mode)
        # 40 items and 15 systems get one each.  The 600 rows pooled get none:
        # they are counted by sorting at every grid point, relative epsilon 2
        # too, and their sweep and histogram list the pairs each time.
        assert builds == [40, 15] + [1] * (2 * len(metrics))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "subset"])
    @pytest.mark.parametrize("step", [math.inf, 512, -math.inf], ids=["walk", "rule", "replay"])
    @pytest.mark.parametrize("eps_mode", list(EpsilonMode))
    def test_discrete_calibration_equals_brute_force(self, columns, monkeypatch, shared,
                                                     step, eps_mode):
        # the rule window candidates x (groups + step) <= window moves, patched
        # each way: with 5 levels, 40 items have far fewer candidates than moves
        keys, human, _, discrete = columns
        h, m = self.campaign(keys, human, discrete, rows=15 * 40)
        if not shared:  # a metric on a subset of the keys lists its own pairs
            m = ScoreMatrix(list(m.items())[1:])
        calibrate(h, h.with_scores(array("d", discrete[:15 * 40])),
                  CalibrationConfig(eps_mode=eps_mode))  # the human side's layout
        walks, windows = [], []
        walk, window = tiecal.calibration._approx_means, tiecal.calibration._window
        monkeypatch.setattr("tiecal.calibration._REPLAY_STEP_MOVES", step)
        monkeypatch.setattr("tiecal.calibration._approx_means",
                            lambda *args: walks.append(len(windows)) or walk(*args))
        monkeypatch.setattr("tiecal.calibration._window",
                            lambda *args: windows.append(window(*args)) or windows[-1])
        for kind in (StatKind.ACC_EQ, StatKind.TIES_F1, StatKind.TAU_C, StatKind.RANK_F1):
            result = calibrate(h, m, CalibrationConfig(kind=kind, eps_mode=eps_mode))
            assert (align(h, m, self.MODE).pairs is not None) == shared
            assert (result.epsilon_star, result.stat_star) == brute_force_calibration(
                h, m, self.MODE, kind, eps_mode is EpsilonMode.RELATIVE)
        aligned = align(h, m, self.MODE)
        _, gaps, _ = _moves(aligned, eps_mode, 40 * 15 * 14 // 2)
        expected = []
        for call, (lo, hi) in enumerate(windows, start=1):
            inside = gaps[(gaps >= lo) & (gaps < hi)]
            candidates = 1 + np.unique(inside).size  # the window's start, then its gaps
            if candidates * (aligned.sizes.size + step) > inside.size > 0:
                expected.append(call)
        assert walks == expected

    @pytest.mark.parametrize("eps_mode, scores, expected", [
        (EpsilonMode.ABSOLUTE, [1e308, -1e308], (0.0, 0.0, 1)),
        # a - b overflows, yet the relative gap is 2, as on [1.7, -1.7]
        (EpsilonMode.RELATIVE, [1.7e308, -1.7e308], (2.0, 1.0, 2)),
    ])
    def test_overflowing_gap_is_no_candidate(self, eps_mode, scores, expected):
        h, m = single_group([0, 0], scores)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            result = calibrate(h, m, CalibrationConfig(eps_mode=eps_mode))
        assert (result.epsilon_star, result.stat_star, result.candidates_evaluated) == expected


class TestGapBins:
    """acc_eq and tau_eq sort and walk only the window of gap bins whose
    bound reaches the best bin end; other statistics take every move."""

    # Items whose acc_eq rises at 0.001 (item a), again at 0.01 (b), falls at
    # 0.5 (c) and rises at 1.0 (d): the maximum, 3 of 4, is reached at 0.01
    # and 1.0, and the bin of 0.001 cannot reach it.
    HUMAN = {"a": (0, 0), "b": (0, 0), "c": (0, 1), "d": (0, 0)}
    METRIC = {"a": (0, 0.001), "b": (0, 0.01), "c": (0, 0.5), "d": (0, 1.0)}

    @staticmethod
    def campaign(*sides):
        """Score matrices of two systems from {item: (score, score)}."""
        return (ScoreMatrix((f"s{i}", item, float(v)) for item, pair in scores.items()
                            for i, v in enumerate(pair)) for scores in sides)

    @pytest.mark.parametrize("shift", [45, 63], ids=["default", "one bin"])
    @pytest.mark.parametrize("kind", [StatKind.ACC_EQ, StatKind.TAU_EQ, StatKind.TAU_B])
    def test_equal_maxima_in_different_bins_give_the_smaller_gap(self, monkeypatch, shift,
                                                                 kind):
        h, m = self.campaign(self.HUMAN, self.METRIC)
        windows = []
        window = tiecal.calibration._window
        monkeypatch.setattr("tiecal.calibration._BIN_SHIFT", shift)
        monkeypatch.setattr("tiecal.calibration._window",
                            lambda *args: windows.append(window(*args)) or windows[-1])
        result = calibrate(h, m, CalibrationConfig(kind=kind))
        assert (result.epsilon_star, result.stat_star) == brute_force_calibration(
            h, m, GroupingMode.GROUP_BY_ITEM, kind)
        assert result.candidates_evaluated == 5
        (lo, hi), = windows
        assert hi == math.inf  # the bin of 1.0 is the last
        if kind is StatKind.TAU_B or shift == 63:
            assert lo == 0.0  # every move
        else:
            assert result.epsilon_star == 0.01
            assert 0.001 < lo <= 0.01  # the bin of 0.001 is left out

    def test_maximum_inside_a_bin_whose_ends_are_lower(self):
        # acc_eq of 7 items sums to 3 at 0, 2 from 0.01, 4 from 1.0, 2 from 1.005
        # (in the bin of 1.0) and 4 from 100.  Only the bin's positive moves
        # bound its inside, where the first maximum lies.
        items = {"a": ((0, 1), (0, 0.01)), "b": ((0, 0), (0, 1.0)), "c": ((0, 0), (0, 1.0)),
                 "d": ((0, 1), (0, 1.005)), "e": ((0, 1), (0, 1.005)),
                 "f": ((0, 0), (0, 100.0)), "g": ((0, 0), (0, 100.0))}
        h, m = self.campaign(*({item: pairs[side] for item, pairs in items.items()}
                               for side in (0, 1)))
        for kind in (StatKind.ACC_EQ, StatKind.TAU_EQ):
            result = calibrate(h, m, CalibrationConfig(kind=kind))
            assert (result.epsilon_star, result.stat_star) == brute_force_calibration(
                h, m, GroupingMode.GROUP_BY_ITEM, kind)
            assert result.epsilon_star == 1.0


class TestApplyEpsilon:
    """A calibrated threshold applied unchanged, as on held-out data."""

    def test_self_application_consistency(self):
        h, m = single_group([0, 0, 1], [0.0, 0.05, 1.0])
        result = calibrate(h, m, CalibrationConfig(kind=StatKind.ACC_EQ,
                                                   mode=GroupingMode.NO_GROUPING))
        report = grouped_stats(h, m, GroupingMode.NO_GROUPING, [StatKind.ACC_EQ],
                               EpsilonPolicy(result.epsilon_star))[0]
        assert report.value == result.stat_star

    def test_zero_threshold_equals_plain_stat(self):
        rng = np.random.default_rng(15)
        h, m = [], []
        for i in range(5):
            for j in range(6):
                h.append((f"s{i}", f"g{j}", float(rng.integers(0, 3))))
                m.append((f"s{i}", f"g{j}", float(rng.normal())))
        h, m = ScoreMatrix(h), ScoreMatrix(m)
        for kind in (StatKind.ACC_EQ, StatKind.TAU_B):
            plain = grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [kind])[0]
            assert grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [kind],
                                 EpsilonPolicy(0.0))[0] == plain
            relative = grouped_stats(h, m, GroupingMode.GROUP_BY_ITEM, [kind],
                                     EpsilonPolicy(0.0, EpsilonMode.RELATIVE))[0]
            assert (relative.value, relative.pairs_by_class) == (plain.value, plain.pairs_by_class)

    def test_threshold_beyond_max_gap_gives_tie_fraction(self):
        rng = np.random.default_rng(16)
        h_scores = rng.integers(0, 3, 12).astype(float)
        m_scores = rng.normal(size=12)
        h, m = single_group(h_scores, m_scores)
        report = grouped_stats(h, m, GroupingMode.NO_GROUPING, [StatKind.ACC_EQ],
                               EpsilonPolicy(1e9))[0]
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
        hist = tie_location_histogram(h, m, EpsilonPolicy(), bins=5)
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

    def test_midpoints_too_close_for_numpy_edges(self):
        # midpoints 1e15, 1e15 + 0.125 and 1e15 + 0.25 are an ulp apart, too
        # close for 11 distinct edges, so the range is widened
        h, m = single_group([0, 1, 2, 3], [1e15, 1e15, 1e15 + 0.25, 1e15 + 0.25])
        hist = tie_location_histogram(h, m, EpsilonPolicy(0.25), bins=10)
        assert (np.diff(hist.bin_edges) > 0).all()
        mid = np.array([1e15, 1e15 + 0.25] + [1e15 + 0.125] * 4)
        assert hist.all_pairs.tolist() == np.histogram(mid, hist.bin_edges)[0].tolist()
        assert hist.newly_tied.tolist() == np.histogram(mid[2:], hist.bin_edges)[0].tolist()
        assert np.count_nonzero(hist.all_pairs) > 1  # distinct midpoints, not one bin

    def test_invalid_bins(self):
        h, m = single_group([1, 2], [1, 2])
        with pytest.raises(ValueError):
            tie_location_histogram(h, m, EpsilonPolicy(), bins=0)


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
        report = grouped_stats(h, m, GroupingMode.NO_GROUPING, [StatKind.TIES_R],
                               EpsilonPolicy(10.0))[0]
        assert report.value == 1.0

    def test_rows_match_grouped_stats(self):
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
                    assert grouped_stats(h, m, mode, [kind], pol)[0].value == got

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
