"""End-to-end tests of the command-line interface."""

import builtins
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import suppress
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_calibration,
    mean_defined,
    naive_suff_stats,
    oracle_gap,
    oracle_groups,
    loop_break_ties_randomly,
    oracle_load_scores,
    oracle_stat,
    oracle_tau_c_context,
)

import tiecal
from tiecal import (
    OVERALL_STAT_KINDS,
    EpsilonPolicy,
    GroupingMode,
    StatKind,
    bucketize,
    calibrate,
    f1_curve,
    grouped_stats,
    load_scores,
    tie_location_histogram,
)
from tiecal.cli import _bins, main


def write_scores(path, rows):
    lines = [f"{system}\t{segment}\t{score!r}" for system, segment, score in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def vector_rows(scores, segment="seg"):
    return [(f"s{i:02d}", segment, float(v)) for i, v in enumerate(scores)]


def parse_tsv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


@pytest.fixture
def figure_files(tmp_path):
    h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 0, 0, 1, 2]))
    m1 = write_scores(tmp_path / "m1.tsv", vector_rows([0, 0, 0, 0, 2, 1]))
    m2 = write_scores(tmp_path / "m2.tsv", vector_rows([0, 1, 2, 3, 4, 5]))
    return h, m1, m2


EXPECTED_FIG = {
    "m1": {"tau_a": .47, "tau_b": .78, "tau_c": .29, "tau_10": .78,
           "tau_13": .78, "tau_14": .78, "tau_eq": .87, "acc_eq": .93},
    "m2": {"tau_a": .60, "tau_b": .77, "tau_c": .38, "tau_10": 1.0,
           "tau_13": 1.0, "tau_14": 1.0, "tau_eq": .20, "acc_eq": .60},
}


class TestCorrelate:
    def test_worked_example_table(self, figure_files, capsys):
        h, m1, m2 = figure_files
        code = main(["correlate", "--human", str(h),
                     "--metric", f"m1={m1}", "--metric", f"m2={m2}",
                     "--mode", "no-grouping", "--stat", "all"])
        assert code == 0
        rows = parse_tsv(capsys.readouterr().out)
        assert len(rows) == 16
        for row in rows:
            expected = EXPECTED_FIG[row["metric"]][row["stat"]]
            assert float(row["value"]) == pytest.approx(expected, abs=0.005 + 1e-9)

    def test_constant_metric_nan_is_success(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2, 3]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([5, 5, 5, 5]))
        code = main(["correlate", "--human", str(h), "--metric", f"c={m}",
                     "--mode", "no-grouping", "--stat", "tau_b"])
        assert code == 0
        (row,) = parse_tsv(capsys.readouterr().out)
        assert row["value"] == "NaN"
        assert row["groups_used"] == "0"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["correlate", "--human", str(tmp_path / "absent.tsv"),
                     "--metric", f"m={tmp_path / 'also-absent.tsv'}"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_stat_exits_2(self, figure_files, capsys):
        h, m1, _ = figure_files
        code = main(["correlate", "--human", str(h), "--metric", f"m1={m1}",
                     "--stat", "tau_z"])
        assert code == 2

    def test_json_format(self, figure_files, capsys):
        h, m1, _ = figure_files
        code = main(["correlate", "--human", str(h), "--metric", f"m1={m1}",
                     "--mode", "no-grouping", "--stat", "acc_eq", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "correlate"
        assert payload["results"][0]["value"] == pytest.approx(14 / 15, abs=1e-6)
        assert payload["ranking"] == ["m1"]

    def test_output_file(self, figure_files, tmp_path, capsys):
        h, m1, _ = figure_files
        out = tmp_path / "report.tsv"
        code = main(["correlate", "--human", str(h), "--metric", f"m1={m1}",
                     "--stat", "acc_eq", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("# version=")


    @pytest.mark.parametrize("eps_mode", ["absolute", "relative"])
    @pytest.mark.parametrize("mode", ["no-grouping", "group-by-item"])
    def test_stat_all_rows_match_single_stat_runs(self, tmp_path, capsys, mode, eps_mode):
        rng = np.random.default_rng(61)
        keys = [(f"s{i}", f"g{j}") for i in range(6) for j in range(12)]
        h = write_scores(tmp_path / "h.tsv",
                         [(*key, float(rng.integers(0, 4))) for key in keys])
        a = write_scores(tmp_path / "a.tsv",
                         [(*key, float(rng.integers(-8, 9)) / 4.0) for key in keys])
        b = write_scores(tmp_path / "b.tsv",
                         [(*key, float(rng.normal())) for key in keys])
        common = ["--human", str(h), "--metric", f"a={a}", "--metric", f"b={b}",
                  "--mode", mode, "--eps-mode", eps_mode, "--epsilon", "0.2"]

        def data_lines(argv):
            assert main(["correlate", *common, *argv]) == 0
            text = capsys.readouterr().out
            return [line for line in text.splitlines() if not line.startswith("#")]

        combined = data_lines(["--stat", "all"])
        kinds = [row["stat"] for row in parse_tsv("\n".join(combined))][:8]
        single = {}
        for kind in kinds:
            header, *rows = data_lines(["--stat", kind])
            assert header == combined[0]
            for row in rows:
                single[(row.split("\t")[0], kind)] = row
        assert combined[1:] == [single[(name, kind)] for name in ("a", "b") for kind in kinds]

    @pytest.mark.parametrize("flag", ["correlate --epsilon", "rank --epsilon",
                                      "f1-curve --eps-grid"])
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_negative_zero_threshold_reports_as_zero(self, figure_files, capsys, flag, fmt):
        command, option = flag.split()
        h, m1, _ = figure_files
        reports = []
        for zero in ("-0", "0"):
            assert main([command, "--human", str(h), "--metric", f"m1={m1}",
                         f"{option}={zero}", "--format", fmt]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_epsilon_near_the_float_range_on_the_sort_path(self, tmp_path, capsys,
                                                           monkeypatch):
        # gaps of up to 2e308 overflow; the sort count's report equals the
        # blocked kernel's, and neither warns
        rng = np.random.default_rng(62)
        h = write_scores(tmp_path / "h.tsv", vector_rows(rng.integers(0, 4, 300)))
        m = write_scores(tmp_path / "m.tsv", vector_rows(
            np.resize([1e308, -1e308, 5e307, -5e307], 300)))
        argv = ["correlate", "--human", str(h), "--metric", f"m={m}", "--epsilon", "1e308",
                "--stat", "all", "--mode", "no-grouping"]
        reports = []
        for level in (0, math.inf):  # the sort count forced, then the kernel
            monkeypatch.setattr("tiecal.stats._SORT_PAIRS_PER_ROW_LEVEL", level)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's overflow warning would raise
                assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        assert reports[0] == reports[1]


class TestCalibrateCommand:
    def test_summary_line(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.05, 1.0]))
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", "acc_eq"])
        assert code == 0
        out = capsys.readouterr().out
        assert "epsilon=0.05" in out
        assert "acc_eq=1.000000" in out

    @pytest.mark.parametrize("stat", ["acc_eq", "tau_b"])  # with gap bins, and without
    def test_json_report(self, tmp_path, capsys, stat):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.05, 1.0, 1.5]))
        out = tmp_path / "calibrate.json"
        assert main(["calibrate", "--human", str(h), "--metric", f"m={m}", "--mode",
                     "no-grouping", "--stat", stat, "--format", "json", "--out", str(out)]) == 0
        (row,) = json.loads(out.read_text())["results"]
        assert (row["stat"], row["candidates"]) == (stat, 7)  # 0 and six distinct gaps

    @pytest.mark.parametrize("eps_mode, scores, eps, acc_eq", [
        ("absolute", [1e308, -1e308], "0", "0.000000"),
        ("relative", [1.7e308, -1.7e308], "2", "1.000000"),  # a - b overflows; the gap is 2
    ])
    @pytest.mark.parametrize("command", [["calibrate"], ["rank", "--calibrate"]])
    def test_overflowing_gap_is_no_candidate(self, tmp_path, capsys, command, eps_mode,
                                             scores, eps, acc_eq):
        # the absolute gap overflows to inf, which no finite threshold reaches
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0]))
        m = write_scores(tmp_path / "m.tsv", vector_rows(scores))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise
            code = main([*command, "--human", str(h), "--metric", f"m={m}",
                         "--eps-mode", eps_mode])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == ["calibrate"]:
            assert captured.out == f"metric=m epsilon={eps} acc_eq={acc_eq}\n"
        else:
            assert parse_tsv(captured.out)[0]["epsilon"] == eps

    @pytest.mark.parametrize("kind", list(StatKind), ids=lambda kind: kind.value)
    def test_tie_averse_stat_warns(self, tmp_path, capsys, kind):
        # every statistic warns but the four that credit a correctly predicted tie
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2, 3]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.1, 0.9, 0.4, 2.0]))
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", kind.value])
        assert code == 0
        warned = "may lead to unexpected results" in capsys.readouterr().err
        assert warned == (kind not in {StatKind.ACC_EQ, StatKind.TAU_EQ, StatKind.TIES_F1,
                                       StatKind.RANK_F1})

    def test_emit_epsilon_file(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.05, 1.0]))
        eps_file = tmp_path / "eps.tsv"
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--emit-epsilon", str(eps_file)])
        assert code == 0
        name, value = eps_file.read_text().strip().split("\t")
        assert name == "m"
        assert float(value) == 0.05


class TestRank:
    def test_dominant_metric_ranks_first(self, figure_files, capsys):
        h, m1, m2 = figure_files
        code = main(["rank", "--human", str(h),
                     "--metric", f"m1={m1}", "--metric", f"m2={m2}",
                     "--mode", "no-grouping", "--stat", "acc_eq"])
        assert code == 0
        rows = parse_tsv(capsys.readouterr().out)
        assert [row["metric"] for row in rows] == ["m1", "m2"]
        assert rows[0]["rank"] == "1"

    def test_equal_metrics_rank_lexicographically(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        mb = write_scores(tmp_path / "mb.tsv", vector_rows([0, 1, 2]))
        ma = write_scores(tmp_path / "ma.tsv", vector_rows([3, 4, 5]))
        code = main(["rank", "--human", str(h),
                     "--metric", f"zeta={mb}", "--metric", f"alpha={ma}",
                     "--mode", "no-grouping", "--stat", "acc_eq"])
        assert code == 0
        rows = parse_tsv(capsys.readouterr().out)
        assert [row["metric"] for row in rows] == ["alpha", "zeta"]

    def test_baseline_equals_human_tie_fraction(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        scores = rng.integers(0, 2, 40).astype(float)
        h = write_scores(tmp_path / "h.tsv", vector_rows(scores))
        m = write_scores(tmp_path / "m.tsv", vector_rows(rng.normal(size=40)))
        code = main(["rank", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", "acc_eq", "--baseline"])
        assert code == 0
        rows = parse_tsv(capsys.readouterr().out)
        baseline = next(r for r in rows if r["metric"] == "Constant-Metric")
        pairs = [(i, j) for i in range(40) for j in range(i + 1, 40)]
        fraction = sum(scores[i] == scores[j] for i, j in pairs) / len(pairs)
        assert float(baseline["value"]) == pytest.approx(fraction, abs=1e-6)

    def test_calibrated_ranking_reports_epsilon(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.05, 1.0]))
        code = main(["rank", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", "acc_eq", "--calibrate"])
        assert code == 0
        (row,) = parse_tsv(capsys.readouterr().out)
        assert float(row["epsilon"]) == 0.05
        assert float(row["value"]) == 1.0

    def test_calibrated_ranking_aligns_once_per_metric(self, tmp_path, capsys, monkeypatch):
        # 17 metrics and the baseline: each is aligned once, for its sweep and
        # its re-verification alike, against one shared human side
        import tiecal.calibration
        import tiecal.grouping
        rng = np.random.default_rng(6)
        rows = [(f"s{i}", f"g{j}") for i in range(5) for j in range(8)]
        h = write_scores(tmp_path / "h.tsv", [(*key, float(rng.integers(0, 3))) for key in rows])
        argv = ["rank", "--human", str(h), "--mode", "group-by-item", "--calibrate", "--baseline"]
        for k in range(17):
            m = write_scores(tmp_path / f"m{k}.tsv", [(*key, float(rng.normal())) for key in rows])
            argv += ["--metric", f"m{k}={m}"]
        aligns, sides, layouts = [], set(), []

        def counting_align(*args):
            aligns.append(args[2])
            return align(*args)

        def recording_side(*args):
            side = human_side(*args)
            sides.add(id(side))
            return side

        def counting_layout(h, sizes):
            layouts.append(h.size)
            return pair_index_blocks(h, sizes)

        def no_batch(*args, **kwargs):
            raise AssertionError("grouped_stats called")

        align, human_side = tiecal.calibration.align, tiecal.grouping._human_side
        pair_index_blocks = tiecal.stats._pair_index_blocks
        monkeypatch.setattr("tiecal.stats._pair_index_blocks", counting_layout)
        monkeypatch.setattr("tiecal.calibration.align", counting_align)
        monkeypatch.setattr("tiecal.grouping.align", counting_align)
        monkeypatch.setattr("tiecal.grouping._human_side", recording_side)
        for name in ("grouping.grouped_stats", "cli.grouped_stats"):
            monkeypatch.setattr(f"tiecal.{name}", no_batch)
        assert main(argv) == 0
        assert len(parse_tsv(capsys.readouterr().out)) == 18
        assert aligns == [tiecal.GroupingMode.GROUP_BY_ITEM] * 18
        assert len(sides) == 1
        # every sweep and re-verification reads one pair layout, built once
        assert layouts == [40]

    def test_calibrated_ranking_warns_for_tie_averse_stat(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2, 3]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.1, 0.9, 0.4, 2.0]))
        code = main(["rank", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", "tau_13", "--calibrate"])
        assert code == 0
        assert "may lead to unexpected results" in capsys.readouterr().err


class TestBuckets:
    @pytest.fixture
    def campaign(self, tmp_path):
        rng = np.random.default_rng(33)
        h_rows, m_rows = [], []
        for i in range(6):
            for j in range(40):
                h_rows.append((f"s{i}", f"g{j}", float(rng.integers(0, 5))))
                m_rows.append((f"s{i}", f"g{j}", float(rng.normal(scale=2.0))))
        h = write_scores(tmp_path / "h.tsv", h_rows)
        m = write_scores(tmp_path / "m.tsv", m_rows)
        return h, m

    def test_single_bucket_row_is_nan(self, campaign, capsys):
        h, m = campaign
        code = main(["buckets", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "group-by-item", "--stat", "tau_b", "--k-list", "1"])
        assert code == 0
        (row,) = parse_tsv(capsys.readouterr().out)
        assert row["value"] == "NaN"
        assert row["groups_used"] == "0"

    def test_groups_used_non_decreasing_in_k(self, campaign, capsys):
        h, m = campaign
        code = main(["buckets", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "group-by-item", "--stat", "tau_b",
                     "--k-list", "1,2,4,8,16,32,64"])
        assert code == 0
        rows = parse_tsv(capsys.readouterr().out)
        used = [int(row["groups_used"]) for row in rows]
        assert used == sorted(used)

    def test_fine_buckets_preserve_statistic_on_lattice(self, tmp_path, capsys):
        # scores sit on a 0..7 integer lattice; 8 buckets separate them all
        rng = np.random.default_rng(4)
        h_rows, m_rows = [], []
        for i in range(6):
            for j in range(10):
                h_rows.append((f"s{i}", f"g{j}", float(rng.integers(0, 4))))
                m_rows.append((f"s{i}", f"g{j}", float(rng.integers(0, 8))))
        h = write_scores(tmp_path / "h.tsv", h_rows)
        m = write_scores(tmp_path / "m.tsv", m_rows)
        code = main(["buckets", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "group-by-item", "--stat", "tau_b", "--k-list", "8"])
        assert code == 0
        (row,) = parse_tsv(capsys.readouterr().out)
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "group-by-item", "--stat", "tau_b"])
        assert code == 0
        (plain,) = parse_tsv(capsys.readouterr().out)
        assert row["value"] == plain["value"]


class TestAuxCommands:
    def test_perturb_preserves_order_without_ties(self, tmp_path, capsys):
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.3, 0.1, 0.9, 0.5]))
        out = tmp_path / "perturbed.tsv"
        code = main(["perturb", "--metric", f"m={m}", "--epsilon", "0",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        original = {(system, segment): v for system, segment, v in load_scores(m).items()}
        perturbed = {(system, segment): v for system, segment, v in load_scores(out).items()}
        keys = sorted(original)
        for a in keys:
            for b in keys:
                if original[a] < original[b]:
                    assert perturbed[a] < perturbed[b]

    def test_perturb_deterministic(self, tmp_path, capsys):
        m = write_scores(tmp_path / "m.tsv", vector_rows([1, 1, 1, 2, 2]))
        argv = ["perturb", "--metric", f"m={m}", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("epsilon", ["0", "0.25"])
    def test_f1_curve_single_point_matches_correlate(self, tmp_path, capsys, epsilon):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.2, 0.5, 0.9]))
        code = main(["f1-curve", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--eps-grid", epsilon])
        assert code == 0
        (row,) = parse_tsv(capsys.readouterr().out)
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", "acc_eq",
                     "--epsilon", epsilon])
        assert code == 0
        (correlate_row,) = parse_tsv(capsys.readouterr().out)
        assert row["acc_eq"] == correlate_row["value"]

    def test_tie_hist_zero_epsilon(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.2, 0.5, 0.9]))
        code = main(["tie-hist", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--epsilon", "0", "--bins", "4"])
        assert code == 0
        rows = parse_tsv(capsys.readouterr().out)
        assert len(rows) == 4
        assert all(row["newly_tied"] == "0" for row in rows)
        assert sum(int(row["all_pairs"]) for row in rows) == 6

    @pytest.mark.parametrize("scores, code, err", [
        ([1.7e308, 1.7e308, -1e308], 0, ""),  # a + b overflows; the midpoint does not
        ([1.7e308, 1.7e308, -1.7e308, -1.7e308], 2,
         "error: pair midpoints from -1.7e+308 to 1.7e+308 span more than the float range\n"),
    ], ids=["finite", "overflowing"])
    def test_tie_hist_midpoints_near_the_float_range(self, tmp_path, capsys, scores, code, err):
        h = write_scores(tmp_path / "h.tsv", vector_rows(range(len(scores))))
        m = write_scores(tmp_path / "m.tsv", vector_rows(scores))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tie-hist", "--human", str(h), "--metric", f"m={m}"]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if code == 0:
            rows = parse_tsv(captured.out)
            assert (rows[0]["bin_start"], rows[-1]["bin_end"]) == ("3.5e+307", "1.7e+308")
            assert sum(int(row["all_pairs"]) for row in rows) == 3

    @pytest.mark.parametrize("value, edges", [
        (1.0, ("0.5", "1.5")),  # numpy's own ±0.5 around the one midpoint
        (1e15, None),  # ulp 0.125: ±0.5 holds no 11 edges 0.1 apart
        (1e16, None),
        (1e300, None),
        (-1.7976931348623157e308, None),
    ])
    def test_tie_hist_of_one_midpoint(self, tmp_path, capsys, value, edges):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([value] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tie-hist", "--human", str(h), "--metric", f"m={m}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = parse_tsv(captured.out)
        assert len(rows) == 10
        if edges:
            assert (rows[0]["bin_start"], rows[-1]["bin_end"]) == edges
        assert [int(row["all_pairs"]) for row in rows if row["all_pairs"] != "0"] == [3]

    def test_duplicate_metric_name_rejected(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h),
                     "--metric", f"m={m}", "--metric", f"m={m}"])
        assert code == 2


class TestFailuresExitTwo:
    """Every failure exits 2 with a single 'error:' line on stderr."""

    @staticmethod
    def one_error_line(err):
        lines = err.splitlines()
        return len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("exc", [
        RuntimeError("calibration sweep disagrees with batch re-evaluation"),
        MemoryError("Unable to allocate 8.00 GiB for an array"),
        MemoryError(),
    ])
    def test_calibration_failure(self, tmp_path, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr("tiecal.cli.calibrate", fail)
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping"])
        assert code == 2
        assert self.one_error_line(capsys.readouterr().err)

    def test_sweep_disagreeing_with_its_batch_check(self, tmp_path, capsys, monkeypatch):
        # the batch re-evaluation reads one ulp above the sweep's maximum, 1 at 0.4 - 0.1
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.1, 0.4, 1.0]))
        reports = tiecal.calibration._reports
        monkeypatch.setattr("tiecal.calibration._reports", lambda *args: [
            replace(report, value=float(np.nextafter(report.value, 2.0)))
            for report in reports(*args)])
        with pytest.raises(RuntimeError,
                           match=r"at epsilon=0\.30000000000000004: 1\.0 vs 1\.0+2$"):
            calibrate(load_scores(h), load_scores(m))
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "calibrate.tsv"
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert captured.err.startswith("error: calibration sweep disagrees with batch "
                                       "re-evaluation at epsilon=0.30000000000000004: ")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv, flag, entry", [
        (["f1-curve", "--eps-grid", "0,x"], "--eps-grid", "'x'"),
        (["f1-curve", "--eps-grid", "0.1, 1e-3 ,nan?"], "--eps-grid", "'nan?'"),
        (["buckets", "--k-list", "2,y"], "--k-list", "'y'"),
        (["buckets", "--k-list", "4,2.5"], "--k-list", "'2.5'"),
        (["buckets", "--k-list", "0"], "--k-list", "'0'"),
    ])
    def test_bad_list_entry_names_flag_and_entry(self, tmp_path, capsys, argv, flag, entry):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main([*argv, "--human", str(h), "--metric", f"m={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert flag in captured.err and entry in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["tie-hist", "--bins", "abc"], "argument --bins: invalid int value: 'abc'"),
        (["correlate", "--mode", "pooled"], "argument --mode: invalid choice: 'pooled'"),
        (["correlate", "--eps-mode", "squared"], "argument --eps-mode: invalid choice: 'squared'"),
        (["calibrate", "--sample-fraction", "0.1"],
         "unrecognized arguments: --sample-fraction 0.1"),
        (["rank", "--calibrate", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["perturb", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
        (["perturb", "--seed", "x"], "argument --seed: expected a non-negative integer"),
        (["correlate", "--metric", "m"], "--metric expects NAME=FILE, got 'm'"),
        # an output that is an input, named relatively here and absolutely there
        (["correlate", "--out", "h.tsv"], "--out h.tsv: the same file as --human"),
        (["calibrate", "--emit-epsilon", "m.tsv"],
         "--emit-epsilon m.tsv: the same file as --metric"),
        (["perturb", "--out", "m.tsv"], "--out m.tsv: the same file as --metric"),
        (["rank", "--out", "hard-link.tsv"], "--out hard-link.tsv: the same file as --human"),
    ])
    def test_usage_error_is_one_line(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        os.link(h, tmp_path / "hard-link.tsv")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        human = [] if argv[0] == "perturb" else ["--human", str(h)]
        code = main([*argv, *human, "--metric", f"m={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert captured.err.startswith(f"error: {message}")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_baseline_name_is_reserved(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["rank", "--baseline", "--human", str(h), "--metric", f"Constant-Metric={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: metric name 'Constant-Metric' is reserved for "
                                "--baseline\n")

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["correlate", "--metric", "m=m.tsv"], "the following arguments are required: --human"),
    ])
    def test_missing_or_unknown_command_or_option(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["rank", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(("usage: tiecal", "tiecal ")) and captured.err == ""

    def test_calibration_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tiecal.calibration.os.sysconf",
                            lambda name: {"SC_PHYS_PAGES": 64, "SC_PAGE_SIZE": 1}[name])
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert "calibrating 3 within-group pairs" in captured.err

    def test_tie_hist_bins_above_the_cap_refused_before_opening_a_file(self, tmp_path, capsys,
                                                                       monkeypatch):
        # the cap is a constant: the command line alone decides, on every host
        monkeypatch.chdir(tmp_path)
        code = main(["tie-hist", "--human", "missing.tsv", "--metric", "m=missing.tsv",
                     "--bins", "4194305"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: argument --bins: bins must be <= 4194304, got 4194305\n"
        assert _bins("4194304") == 2**22

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_tie_hist_bins_below_one_refused_before_opening_a_file(self, tmp_path, capsys,
                                                                    monkeypatch, bins):
        monkeypatch.chdir(tmp_path)
        code = main(["tie-hist", "--human", "nope.tsv", "--metric", "m=nope.tsv",
                     "--bins", bins])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument --bins: bins must be >= 1, got {bins}\n"

    @pytest.mark.parametrize("grid, message", [
        ("", "--eps-grid names no threshold: ''"),
        ("-1", "--eps-grid: epsilon must be finite and >= 0, got -1.0"),
        ("0.1,nan", "--eps-grid: epsilon must be finite and >= 0, got nan"),
        ("inf,0.1", "--eps-grid: epsilon must be finite and >= 0, got inf"),
    ], ids=["empty", "negative", "nan", "inf"])
    def test_f1_curve_bad_grid_refused_before_opening_a_file(self, tmp_path, capsys,
                                                             monkeypatch, grid, message):
        monkeypatch.chdir(tmp_path)
        code = main(["f1-curve", "--human", "nope.tsv", "--metric", "m=nope.tsv",
                     "--eps-grid", grid, "--eps-mode", "relative"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_tie_hist_reads_no_host_memory_limit(self, tmp_path, capsys, monkeypatch):
        def unread():
            raise AssertionError("tie-hist read the host's memory limit")
        monkeypatch.setattr("tiecal.calibration._memory_limit", unread)
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        assert main(["tie-hist", "--human", str(h), "--metric", f"m={m}", "--bins", "2"]) == 0
        assert len(parse_tsv(capsys.readouterr().out)) == 2

    @pytest.mark.parametrize("argv", [["--version"], ["perturb", "--out", "p.tsv"],
                                      ["correlate", "--human", "h.tsv"]])
    def test_format_variable_unread_without_format_flag(self, tmp_path, capsys, monkeypatch,
                                                         argv):
        monkeypatch.setenv("TIECAL_FORMAT", "xml")
        monkeypatch.chdir(tmp_path)
        write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        if argv[0] == "--version":
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
        else:
            assert main([*argv, "--metric", f"m={m}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv[0] == "correlate":  # the report is TSV, as without the variable
            assert [row["metric"] for row in parse_tsv(captured.out)] == ["m"]

    def test_existing_directory_as_output_fails_before_reading(self, tmp_path, capsys,
                                                                monkeypatch):
        loads = []
        monkeypatch.setattr("tiecal.data.load_scores", lambda *args, **kw: loads.append(args))
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        before = sorted(tmp_path.iterdir())
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}",
                     "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and loads == []
        assert self.one_error_line(captured.err)
        assert f"--out {tmp_path}: is a directory" in captured.err
        assert sorted(tmp_path.iterdir()) == before

    def test_output_that_cannot_be_written_fails_before_reading(self, tmp_path, capsys,
                                                                 monkeypatch):
        # tests may run as root, whom no file mode stops: the temporary file's open is refused
        loads = []
        monkeypatch.setattr("tiecal.data.load_scores", lambda *args, **kw: loads.append(args))
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        path_open = Path.open

        def refuse_new_files(path, mode="r", *args, **kwargs):
            if mode == "xb":
                raise PermissionError(13, "Permission denied")
            return path_open(path, mode, *args, **kwargs)
        monkeypatch.setattr(Path, "open", refuse_new_files)
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "out.tsv"
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --out {out}: cannot write: Permission denied\n")
        assert loads == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_run_leaves_no_new_or_altered_output(self, tmp_path, capsys, monkeypatch,
                                                        existing):
        # serializing the report fails when it is asked for, or once its first
        # chunk is written; the epsilon file would be written after it
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        out, eps = tmp_path / "out.tsv", tmp_path / "eps.tsv"
        if existing:
            out.write_bytes(b"old report\n")
            eps.write_bytes(b"old epsilons\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}

        def fail(*args):
            raise ValueError("report row 0 has no column 'value'")

        def fail_after_a_chunk(*args):
            yield b"# version=0.1.0\n"
            fail()
        for writer in (fail, fail_after_a_chunk):
            monkeypatch.setattr("tiecal.cli.write_report", writer)
            code = main(["calibrate", "--human", str(h), "--metric", f"a={m}", "--metric",
                         f"b={m}", "--mode", "no-grouping", "--out", str(out),
                         "--emit-epsilon", str(eps)])
            assert code == 2
            assert self.one_error_line(capsys.readouterr().err)
            assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_interrupt_prints_one_line_and_exits_130(self, tmp_path, capsys, monkeypatch):
        # Ctrl-C during a sweep: no traceback, and the staged outputs are removed
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr("tiecal.cli.calibrate", interrupt)
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--out", str(tmp_path / "out.tsv"),
                     "--emit-epsilon", str(tmp_path / "eps.tsv")])
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_failing_second_metric_keeps_the_first_line_and_writes_no_file(self, tmp_path,
                                                                            capsys, monkeypatch):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.05, 1.0]))
        other = write_scores(tmp_path / "other.tsv", vector_rows([0.0, 0.5], segment="x"))
        out, eps = tmp_path / "out.tsv", tmp_path / "eps.tsv"
        calls, real = [], tiecal.cli.calibrate

        def second_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("calibration sweep disagrees with batch re-evaluation")
            return real(*args, **kwargs)
        monkeypatch.setattr("tiecal.cli.calibrate", second_fails)
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--metric", f"n={other}", "--mode", "no-grouping",
                     "--out", str(out), "--emit-epsilon", str(eps)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "metric=m epsilon=0.05 acc_eq=1.000000\n"
        assert self.one_error_line(captured.err)
        assert "calibration sweep disagrees" in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["h.tsv", "m.tsv", "other.tsv"]

    def test_outputs_replace_their_targets_and_leave_no_temporary_file(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        out, eps = tmp_path / "out.tsv", tmp_path / "eps.tsv"
        out.write_bytes(b"old report\n")
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--out", str(out), "--emit-epsilon", str(eps)])
        assert code == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "eps.tsv", "h.tsv", "m.tsv", "out.tsv"]
        assert out.read_text().startswith("# version=")
        assert eps.read_text().startswith("m\t")

    @pytest.mark.parametrize("emit, message", [
        ("-", "the epsilon file cannot go to stdout"),
        ("{tmp_path}/out.tsv", "the same file as --out"),  # --out names it relatively
    ], ids=["stdout", "the report"])
    def test_epsilon_file_to_stdout_or_onto_the_report_fails_before_reading(
            self, tmp_path, capsys, monkeypatch, emit, message):
        loads = []
        monkeypatch.setattr("tiecal.data.load_scores", lambda *args, **kw: loads.append(args))
        monkeypatch.chdir(tmp_path)
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        emit = emit.format(tmp_path=tmp_path)
        before = sorted(tmp_path.iterdir())
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--out", "out.tsv", "--emit-epsilon", emit])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and loads == []
        assert self.one_error_line(captured.err)
        assert f"--emit-epsilon {emit}: {message}" in captured.err
        assert sorted(tmp_path.iterdir()) == before

    def test_links_and_pipes_are_written_in_place(self, tmp_path, capsys):
        # a rename would replace the link or the pipe itself
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        target, link, pipe = tmp_path / "target.tsv", tmp_path / "link.tsv", tmp_path / "pipe"
        link.symlink_to(target)
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                         "--mode", "no-grouping", "--out", str(link), "--emit-epsilon", str(pipe)])
            assert code == 0, capsys.readouterr().err
            assert os.read(reader, 1 << 16).startswith(b"m\t")
        finally:
            os.close(reader)
        assert link.is_symlink() and pipe.is_fifo()
        assert target.read_text().startswith("# version=")
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "h.tsv", "link.tsv", "m.tsv", "pipe", "target.tsv"]

    @pytest.mark.parametrize("flag", ["--out", "--emit-epsilon"])
    def test_missing_output_directory_fails_before_reading(self, tmp_path, capsys, monkeypatch,
                                                           flag):
        loads = []
        monkeypatch.setattr("tiecal.data.load_scores", lambda path: loads.append(path))
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        eps_file = tmp_path / "eps.tsv"
        paths = {"--out": str(tmp_path / "out.tsv"), "--emit-epsilon": str(eps_file)}
        paths[flag] = str(tmp_path / "missing" / "x.tsv")
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", *(a for item in paths.items() for a in item)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and loads == []
        assert self.one_error_line(captured.err)
        assert f"{flag} {paths[flag]}: no such directory" in captured.err
        assert not eps_file.exists()

    def test_tab_only_row_names_its_line(self, tmp_path, capsys):
        h = tmp_path / "h.tsv"
        h.write_text("s0\tg\t0\n\n\t\t\ns1\tg\t1\n", encoding="utf-8")
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert f"{h}:3: column 3: unparseable score ''" in captured.err

    @pytest.mark.parametrize("head, newline, bad_line", [
        (b"", b"\n", 3), (b"\xef\xbb\xbf", b"\r\n", 3), (b"", b"\r", 3), (b"", b"\n", 2001),
    ], ids=["lf", "bom-crlf", "cr", "past-first-chunk"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys, head, newline,
                                               bad_line):
        rows = [f"s{i}\tg\t{i}".encode() for i in range(bad_line - 1)]
        h = tmp_path / "h.tsv"
        h.write_bytes(head + newline.join([*rows, b"s\xff\tg\t9", b"t\tg\t1"]) + newline)
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert captured.err == f"error: {h}:{bad_line}: not valid UTF-8\n"

    @pytest.mark.parametrize("spec", [",", "", " , "])
    def test_empty_stat_list(self, tmp_path, capsys, spec):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}", "--stat", spec])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert "--stat names no statistic" in captured.err

    @pytest.mark.parametrize("name", ["x\ty", "x\ry", "x\ny", "a,b", ","])
    def test_metric_name_that_would_corrupt_output(self, tmp_path, capsys, name):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h), "--metric", f"{name}={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert "metric name" in captured.err

    @pytest.mark.parametrize("argv", [
        ["buckets"], ["tie-hist"], ["f1-curve", "--eps-grid", "0,0.1"],
    ])
    def test_single_metric_command_rejects_two(self, tmp_path, capsys, argv):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        code = main([*argv, "--human", str(h), "--metric", f"a={m}", "--metric", f"b={m}"])
        assert code == 2
        err = capsys.readouterr().err
        assert self.one_error_line(err)
        assert f"{argv[0]} takes exactly one --metric, got 2" in err



class TestInputDigests:
    def test_fifo_digest_is_the_sha256_of_the_bytes_written(self, tmp_path):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        payload = "".join(f"{system}\t{segment}\t{score!r}\n"
                          for system, segment, score in vector_rows([0.5, 0.1, 0.9]))
        payload = payload.encode("utf-8")
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)

        def write():
            with suppress(BrokenPipeError), open(fifo, "wb") as pipe:
                pipe.write(payload)

        writer = threading.Thread(target=write)
        writer.start()
        env = dict(os.environ, PYTHONPATH=str(Path(tiecal.__file__).resolve().parents[1]))
        try:  # in a child: a second open of the pipe would wait for a writer forever
            run = subprocess.run([sys.executable, "-m", "tiecal.cli", "correlate",
                                  "--human", str(h), "--metric", f"m={fifo}"],
                                 env=env, capture_output=True, text=True, timeout=60)
        finally:  # a run that never opened the pipe leaves the writer waiting
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()
        assert (run.returncode, run.stderr) == (0, "")
        assert f"# input:metric:m={hashlib.sha256(payload).hexdigest()}\n" in run.stdout
        assert f"# input:human={hashlib.sha256(h.read_bytes()).hexdigest()}\n" in run.stdout

    @pytest.mark.parametrize("argv", [
        ["correlate"], ["rank", "--calibrate", "--baseline"], ["calibrate", "--out", "r.tsv"],
    ], ids=lambda argv: argv[0])
    def test_each_input_is_opened_once(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        inputs = [write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2, 2])),
                  write_scores(tmp_path / "m1.tsv", vector_rows([0.5, 0.1, 0.9, 0.9])),
                  write_scores(tmp_path / "m2.tsv", vector_rows([3, 1, 2, 0]))]
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)  # what pathlib opens with
        monkeypatch.setattr(builtins, "open", counting_open)
        code = main([argv[0], "--human", "h.tsv", "--metric", "a=m1.tsv", "--metric", "b=m2.tsv",
                     "--mode", "no-grouping", *argv[1:]])
        assert code == 0, capsys.readouterr().err
        assert [opened.count(path.name) for path in inputs] == [1, 1, 1]


class TestKeyOrder:
    """Metric files in the human file's key order share its key list and
    align by position; every other order, and missing or extra keys, take
    the lookup path.  Reports are the same either way."""

    @pytest.fixture
    def campaign(self, tmp_path):
        rng = np.random.default_rng(12)
        keys = [(f"s{i}", f"g{j}") for i in range(6) for j in range(40)]
        human = write_scores(tmp_path / "h.tsv", [
            (*key, float(rng.integers(0, 4))) for key in keys])
        rows = {name: [(*key, float(np.round(rng.normal(), 1))) for key in keys]
                for name in ("a", "b")}
        extra = [("s0", "g99", 0.5), ("s9", "g1", -1.0), ("s9", "g99", 2.0)]
        variants = {
            "ordered": lambda r: r,
            "missing-tail": lambda r: r[:-25],
            "missing-middle": lambda r: r[:50] + r[80:],
            "added": lambda r: r[:100] + extra + r[100:],
            "added-tail": lambda r: r + extra,
        }
        files = {}
        for variant, change in variants.items():
            for order in ("human-order", "shuffled"):
                for name, metric_rows in rows.items():
                    changed = change(metric_rows)
                    if order == "shuffled":
                        changed = [changed[i] for i in rng.permutation(len(changed))]
                    path = tmp_path / f"{name}-{variant}-{order}.tsv"
                    files[variant, order, name] = write_scores(path, changed)
        return human, files

    COMMANDS = [
        ["rank", "--calibrate", "--baseline", "--mode", "group-by-item", "--stat", "acc_eq"],
        ["correlate", "--stat", "all", "--mode", "group-by-system", "--epsilon", "0.1"],
        ["buckets", "--mode", "group-by-item", "--stat", "tau_b", "--k-list", "8,2"],
        ["f1-curve", "--mode", "no-grouping", "--eps-grid", "0,0.1,0.5"],
    ]

    @staticmethod
    def report(argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "report.tsv")]) == 0
        capsys.readouterr()
        return (tmp_path / "report.tsv").read_bytes()

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("variant", ["ordered", "missing-tail", "missing-middle", "added",
                                         "added-tail"])
    def test_reports_do_not_depend_on_key_order(self, campaign, tmp_path, capsys, monkeypatch,
                                                command, variant):
        human, files = campaign
        names = ("a", "b") if command[0] in ("rank", "correlate") else ("a",)
        reports = {}
        for order in ("human-order", "shuffled"):
            argv = [*command, "--human", str(human)]
            for name in names:
                argv += ["--metric", f"{name}={files[variant, order, name]}"]
            reports[order] = self.report(argv, tmp_path, capsys)
            with monkeypatch.context() as patched:  # the reference: no metric shares keys
                load = tiecal.data.load_scores
                patched.setattr("tiecal.data.load_scores",
                                lambda path, like=None, **kwargs: load(path, **kwargs))
                assert self.report(argv, tmp_path, capsys) == reports[order]

        def body(report):  # the input digests name each file's bytes
            return [line for line in report.splitlines() if not line.startswith(b"# input:")]
        assert body(reports["human-order"]) == body(reports["shuffled"])
        assert reports["human-order"].count(b"\n") > 5

    def test_ordered_metrics_share_the_human_key_list(self, campaign, monkeypatch):
        human, files = campaign
        loaded = []
        load = tiecal.data.load_scores
        monkeypatch.setattr("tiecal.data.load_scores",
                            lambda path, like=None, **kwargs:
                            loaded.append(load(path, like, **kwargs)) or loaded[-1])
        tiecal.cli._load_inputs(str(human), [(variant, files[variant, order, "a"])
                                             for variant in ("ordered", "missing-tail", "added")
                                             for order in ("human-order", "shuffled")])
        first, *metrics = loaded
        assert [metric._keys is first._keys for metric in metrics] == [
            True, False, False, False, False, False]


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
@pytest.mark.parametrize("command", ["correlate", "perturb"])
def test_stdout_carries_the_bytes_of_the_output_file(tmp_path, command, encoding):
    # a non-ASCII metric name or id, under a locale that cannot write it as UTF-8
    h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1, 2]))
    m = write_scores(tmp_path / "m.tsv", [("sé", "g", 0.5), *vector_rows([0.1, 0.2, 0.1])])
    argv = ([command, "--metric", f"m={m}"] if command == "perturb" else
            [command, "--human", str(h), "--metric", f"mé={m}"])
    env = dict(os.environ, PYTHONPATH=str(Path(tiecal.__file__).resolve().parents[1]),
               PYTHONIOENCODING=encoding)
    out = tmp_path / "out.tsv"
    runs = [subprocess.run([sys.executable, "-m", "tiecal.cli", *argv, *extra], env=env,
                           capture_output=True) for extra in ([], ["--out", str(out)])]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 2
    assert runs[0].stdout == out.read_bytes()
    assert "é".encode() in runs[0].stdout


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("argv", [
    ["correlate", "--stat", "all"], ["rank", "--calibrate", "--baseline"],
    ["buckets", "--k-list", "4,2,1"], ["tie-hist", "--bins", "7"],
    ["tie-hist", "--bins", "3000"], ["f1-curve", "--eps-grid", "0,0.1,0.5"],
], ids=["correlate", "rank", "buckets", "tie-hist", "tie-hist-3000", "f1-curve"])
def test_report_on_stdout_equals_its_out_file(tmp_path, capsysbinary, argv, fmt):
    # the report is written a chunk at a time: 3,000 bins span several chunks
    h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1, 2, 2, 3]))
    m = write_scores(tmp_path / "m.tsv", vector_rows([0.5, 0.1, 0.9, 0.2, 0.7, 0.7]))
    argv = [*argv, "--human", str(h), "--metric", f"m={m}", "--format", fmt]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert capsysbinary.readouterr() == (b"", b"")
    assert stdout == ((tmp_path / "out").read_bytes(), b"")
    assert stdout.out.count(b"\n") > (3000 if "3000" in argv else 5)


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_calibrate_writes_utf8_whatever_the_locale(tmp_path, encoding):
    # the summary line, the report and the epsilon file of a non-ASCII metric name
    h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1]))
    m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.05, 1.0]))
    src = str(Path(tiecal.__file__).resolve().parents[1])
    runs = {}
    for name in ("utf-8", encoding):
        (tmp_path / name).mkdir()
        run = subprocess.run(
            [sys.executable, "-m", "tiecal.cli", "calibrate", "--human", str(h),
             "--metric", f"mé={m}", "--out", "out.tsv", "--emit-epsilon", "eps.tsv"],
            env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING=name),
            cwd=tmp_path / name, capture_output=True)
        assert (run.returncode, run.stderr) == (0, b"")
        runs[name] = (run.stdout, *((tmp_path / name / file).read_bytes()
                                    for file in ("out.tsv", "eps.tsv")))
    assert runs[encoding] == runs["utf-8"]
    assert runs[encoding][0] == "metric=mé epsilon=0.05 acc_eq=1.000000\n".encode()
    assert runs[encoding][2] == "mé\t0.05\n".encode()


# Metric files that share no within-group pair with the human scores by item.
NO_PAIR_METRICS = {
    "empty": None,
    "no common key": [("x", "y", 0.5)],
    "one system": [("s1", "g1", 0.5), ("s1", "g2", 0.1)],
}
NO_PAIR_OPTIONS = {
    "rank --calibrate": ["--baseline"],
    "calibrate": ["--out", "calibrate.tsv"],
    "f1-curve": ["--eps-grid", "0,0.5"],
}


@pytest.mark.parametrize("metric", list(NO_PAIR_METRICS))
@pytest.mark.parametrize("command", ["correlate", "rank", "rank --calibrate", "calibrate",
                                     "buckets", "f1-curve", "tie-hist"])
def test_a_metric_without_pairs_is_undefined_not_an_error(tmp_path, capsys, monkeypatch,
                                                          command, metric):
    monkeypatch.chdir(tmp_path)
    h = write_scores(tmp_path / "h.tsv", [("s1", "g1", 0.0), ("s2", "g1", 1.0),
                                          ("s3", "g1", 2.0), ("s1", "g2", 1.0), ("s2", "g2", 0.0)])
    m = tmp_path / "m.tsv"
    if NO_PAIR_METRICS[metric] is None:
        m.write_bytes(b"")
    else:
        write_scores(m, NO_PAIR_METRICS[metric])
    argv = [*command.split(), "--human", str(h), "--metric", f"m={m}", "--mode", "group-by-item",
            *NO_PAIR_OPTIONS.get(command, [])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "calibrate":
        assert captured.out == "metric=m epsilon=0 acc_eq=NaN\n"
        (row,) = parse_tsv((tmp_path / "calibrate.tsv").read_text())
        assert (row["epsilon_star"], row["candidates"], row["pairs_total"]) == ("0", "1", "0")
    rows = parse_tsv(captured.out) if command != "calibrate" else [row]
    if command == "tie-hist":
        assert {(row["all_pairs"], row["newly_tied"]) for row in rows} == {("0", "0")}
    elif command == "f1-curve":
        assert {row[c] for row in rows for c in ("ties_f1", "rank_f1", "acc_eq")} == {"NaN"}
    else:  # the metric is ranked last, behind the baseline
        assert rows[-1]["metric"] == "m"
        assert {row["value"] for row in rows if row["metric"] == "m"} == {"NaN"}


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_tie_hist_rows_stay_within_the_bins_estimate(tmp_path, fmt):
    # rows come from slices of the histogram arrays and the report is written
    # a chunk at a time, so traced memory is the arrays and numpy's temporaries
    # (about 60 B a bin); a list of every row or every line would not be
    h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
    m = write_scores(tmp_path / "m.tsv", vector_rows([0.5, 0.1, 0.9]))
    bins = 40_000
    tracemalloc.start()
    try:
        assert main(["tie-hist", "--human", str(h), "--metric", f"m={m}", "--bins", str(bins),
                     "--format", fmt, "--out", str(tmp_path / "hist")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bins * 80


@pytest.mark.parametrize("mode", ["group-by-item", "no-grouping"])
def test_relative_mode_reports_are_scale_free(tmp_path, mode):
    # Scaling every metric score by 2**k, with every score normal before and
    # after, keeps each relative gap's bits: the report lines after the input
    # digests are the same bytes.
    rng = np.random.default_rng(17)
    keys = [(f"s{i}", f"g{j}") for i in range(6) for j in range(5)]
    h = write_scores(tmp_path / "h.tsv", [(*key, float(rng.integers(0, 3))) for key in keys])
    scores = np.round(rng.normal(size=len(keys)), 2)  # both signs, ties and zeros
    commands = (["correlate", "--stat", "all", "--epsilon", "0.1"], ["calibrate"],
                ["calibrate", "--stat", "tau_b"], ["f1-curve", "--eps-grid", "0,0.05,0.5,1,1.5"])
    bodies = {}
    for k in (0, -1000, -1, 7, 1020):
        m = write_scores(tmp_path / f"m{k}.tsv", [(*key, float(np.ldexp(v, k)))
                                                 for key, v in zip(keys, scores)])
        for command in commands:
            out = tmp_path / "report.tsv"
            assert main([*command, "--human", str(h), "--metric", f"m={m}", "--mode", mode,
                         "--eps-mode", "relative", "--out", str(out)]) == 0
            lines = out.read_bytes().splitlines(keepends=True)
            last_input = max(i for i, line in enumerate(lines) if line.startswith(b"# input:"))
            bodies.setdefault(" ".join(command), set()).add(b"".join(lines[last_input + 1:]))
    assert {command: len(body) for command, body in bodies.items()} == dict.fromkeys(bodies, 1)


def json_results(argv, out):
    """The "results" rows of the JSON report that ``main`` writes to ``out`` for ``argv``."""
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_bytes())["results"]


def calibrate_then_correlate(tmp_path, human, metric, options):
    """The JSON row of ``calibrate``, and of ``correlate`` at its ``epsilon_star``
    passed as repr."""
    h, m = write_scores(tmp_path / "h.tsv", human), write_scores(tmp_path / "m.tsv", metric)
    inputs = ["--human", str(h), "--metric", f"m={m}", *options]
    (calibrated,) = json_results(["calibrate", *inputs], tmp_path / "c.json")
    epsilon = repr(calibrated["epsilon_star"])
    (correlated,) = json_results(["correlate", *inputs, "--epsilon", epsilon], tmp_path / "r.json")
    return calibrated, correlated


# Decimal scores whose float differences carry noise: 0.3 - 0.1 is
# 0.19999999999999998 and 28.1 - 28.06 is 0.0400000000000027.
NOISY_SCORES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 2.3, 28.06, 28.1, 28.12])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(scores=st.lists(st.tuples(st.integers(0, 2), NOISY_SCORES), min_size=2, max_size=12),
       mode=st.sampled_from([mode.value for mode in GroupingMode]),
       eps_mode=st.sampled_from(["absolute", "relative"]),
       stat=st.sampled_from(["acc_eq", "tau_eq", "ties_f1", "rank_f1"]))
def test_calibrated_epsilon_reproduces_its_value(tmp_path_factory, scores, mode, eps_mode, stat):
    # systems s0..s3 score segments g0, g1, ... in turn
    keys = [(f"s{i % 4}", f"g{i // 4}") for i in range(len(scores))]
    calibrated, correlated = calibrate_then_correlate(
        tmp_path_factory.mktemp("round-trip"),
        [(*key, float(h)) for key, (h, _) in zip(keys, scores)],
        [(*key, m) for key, (_, m) in zip(keys, scores)],
        ["--mode", mode, "--eps-mode", eps_mode, "--stat", stat])
    assert repr(correlated["epsilon"]) == repr(calibrated["epsilon_star"])
    assert repr(correlated["value"]) == repr(calibrated["value"])


def test_json_epsilon_star_is_exact_and_the_summary_line_rounded(tmp_path, capsys):
    # by item, acc_eq is 1 only at the gap 0.3 - 0.1, one ulp below 0.2: at
    # 0.2 itself item b's pair ties as well
    human = [("s1", "a", 0.0), ("s2", "a", 0.0), ("s1", "b", 0.0), ("s2", "b", 1.0)]
    metric = [("s1", "a", 0.1), ("s2", "a", 0.3), ("s1", "b", 0.0), ("s2", "b", 0.2)]
    calibrated, correlated = calibrate_then_correlate(tmp_path, human, metric,
                                                      ["--mode", "group-by-item"])
    assert (calibrated["epsilon_star"], calibrated["value"]) == (0.19999999999999998, 1.0)
    assert correlated["value"] == 1.0
    assert capsys.readouterr().out == "metric=m epsilon=0.2 acc_eq=1.000000\n"
    (rounded,) = json_results(["correlate", "--human", str(tmp_path / "h.tsv"), "--metric",
                               f"m={tmp_path / 'm.tsv'}", "--mode", "group-by-item",
                               "--epsilon", "0.2"], tmp_path / "r.json")
    assert rounded["value"] == 0.5


def as_floats(values):
    """``values`` as Python floats (None stays), whose repr is their exact value."""
    return [None if value is None else float(value) for value in values]


@pytest.mark.parametrize("command", ["correlate", "rank", "buckets", "f1-curve", "tie-hist"])
def test_json_floats_are_the_in_process_floats(tmp_path, command):
    # noisy decimals by item: values and thresholds that six digits would round
    rng = np.random.default_rng(5)
    keys = [(f"s{i}", f"g{j}") for i in range(5) for j in range(4)]
    human_rows = [(*key, float(rng.integers(0, 3))) for key in keys]
    metric_rows = [(*key, float(rng.choice([0.1, 0.2, 0.3, 0.7, 28.06, 28.1]))) for key in keys]
    h = write_scores(tmp_path / "h.tsv", human_rows)
    m = write_scores(tmp_path / "m.tsv", metric_rows)
    human, metric = load_scores(h), load_scores(m)
    mode, pol = GroupingMode.GROUP_BY_ITEM, EpsilonPolicy(0.19999999999999998)
    inputs = ["--human", str(h), "--metric", f"m={m}", "--mode", mode.value]
    if command in ("correlate", "rank"):
        argv = ["--stat", "all"] if command == "correlate" else ["--stat", "tau_b"]
        reports = grouped_stats(human, metric, mode, OVERALL_STAT_KINDS if command == "correlate"
                                else [StatKind.TAU_B], pol)
        expected = {"value": as_floats(report.value for report in reports),
                    "epsilon": as_floats(report.epsilon.epsilon for report in reports)}
        argv += ["--epsilon", repr(pol.epsilon)]
    elif command == "buckets":
        argv = ["--k-list", "7,3,1"]
        expected = {"value": as_floats(grouped_stats(human, bucketize(metric, k), mode,
                                                     [StatKind.TAU_B])[0].value
                                       for k in (7, 3, 1))}
    elif command == "f1-curve":
        grid = [0.0, 0.09999999999999998, 0.19999999999999998, 0.3]
        argv = ["--eps-grid", ",".join(map(repr, grid))]
        points = f1_curve(human, metric, mode, grid)
        expected = {column: as_floats(getattr(point, column) for point in points)
                    for column in ("epsilon", "ties_f1", "rank_f1", "acc_eq")}
    else:
        argv = ["--bins", "7", "--epsilon", repr(pol.epsilon)]
        edges = tie_location_histogram(human, metric, pol, 7, mode).bin_edges
        expected = {"bin_start": as_floats(edges[:-1]), "bin_end": as_floats(edges[1:])}
    rows = json_results([command, *inputs, *argv], tmp_path / "report.json")
    got = {column: [row[column] for row in rows] for column in expected}
    assert repr(got) == repr(expected)
    assert any(value is not None and float(f"{value:.6g}") != value
               for values in expected.values() for value in values)


@pytest.mark.parametrize("scores", [[1000.0, 1000.005, 1000.01], [1e15] * 3])
def test_tie_hist_json_edges_are_distinct_where_numpys_are(tmp_path, scores):
    # six digits would print these 11 edges as 2 and as 1 distinct numbers
    h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 1]))
    m = write_scores(tmp_path / "m.tsv", vector_rows(scores))
    rows = json_results(["tie-hist", "--human", str(h), "--metric", f"m={m}"],
                        tmp_path / "hist.json")
    edges = tie_location_histogram(load_scores(h), load_scores(m), EpsilonPolicy(), 10).bin_edges
    assert [rows[0]["bin_start"], *(row["bin_end"] for row in rows)] == edges.tolist()
    assert len(set(edges.tolist())) == 11


def oracle_matrix(path):
    """A score file, read by the oracle's loader, as ``oracle_groups`` takes it."""
    rows = [(system, segment, score) for (system, segment), score in oracle_load_scores(path)]
    return SimpleNamespace(items=lambda: rows)


CLASS_COLUMNS = ("concordant", "discordant", "tied_human_only", "tied_metric_only", "tied_both")


def oracle_fields(groups, kind, eps, relative):
    """A report row's statistic, group and pair fields at ``eps``, from the oracles."""
    counts, values = [], []
    for hg, mg in groups:
        h, m = hg.tolist(), mg.tolist()
        counts.append(naive_suff_stats(h, m, eps, relative))
        value = oracle_stat(kind, *counts[-1], *oracle_tau_c_context(h, m))
        values.append(math.nan if value is None else value)
    used = [group for group, value in zip(counts, values) if not math.isnan(value)]
    return {"value": mean_defined(np.array(values)), "groups_total": len(groups),
            "groups_used": len(used), "pairs_total": sum(map(sum, counts)),
            **{column: sum(group[i] for group in used) for i, column in enumerate(CLASS_COLUMNS)}}


# Metric scores: negative, repeated, and both zeros; None leaves the key out.
CAMPAIGN_SCORES = st.sampled_from([None, -2.5, -1.0, -0.5, -0.0, 0.0, 0.1, 0.3, 0.4, 2.0])


def write_campaign(data, tmp, systems, segments, metrics):
    """Draws and writes a campaign's score files to ``tmp``: h.tsv, in which
    people score every key, and NAME.tsv for each name in ``metrics``, which
    misses some keys and lists its rows shuffled.  Every file carries a
    comment and a header.  Returns the oracle matrices by name, "h" for the
    human file."""
    keys = [(f"s{i}", f"g{j}") for i in range(systems) for j in range(segments)]
    human = data.draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys)))
    rows = {"h": [(*key, float(score)) for key, score in zip(keys, human)]}
    for name in metrics:
        metric = data.draw(st.lists(CAMPAIGN_SCORES, min_size=len(keys), max_size=len(keys)))
        rows[name] = data.draw(st.permutations([(*key, score) for key, score in zip(keys, metric)
                                                if score is not None]))
    for name, file_rows in rows.items():
        (tmp / f"{name}.tsv").write_text("# a comment\nsystem\tsegment\tscore\n" + "".join(
            f"{system}\t{segment}\t{score!r}\n" for system, segment, score in file_rows))
    return {name: oracle_matrix(tmp / f"{name}.tsv") for name in rows}


def campaign_gaps(groups, relative):
    """Zero and every within-group gap, ascending."""
    return sorted({0.0, *(oracle_gap(a, b, relative) for _, mg in groups
                          for a, b in itertools.combinations(mg.tolist(), 2))})


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(systems=st.integers(2, 6), segments=st.integers(2, 8), data=st.data(),
       mode=st.sampled_from(list(GroupingMode)), relative=st.booleans(),
       kind=st.sampled_from(list(StatKind)), bins=st.integers(1, 40))
def test_json_reports_equal_the_oracles(tmp_path_factory, systems, segments, data, mode,
                                        relative, kind, bins):
    tmp = tmp_path_factory.mktemp("oracles")
    h, m = write_campaign(data, tmp, systems, segments, ["m"]).values()
    groups = oracle_groups(h, m, mode)
    pairs = [(a, b) for _, mg in groups for a, b in itertools.combinations(mg.tolist(), 2)]
    gaps = campaign_gaps(groups, relative)
    eps = data.draw(st.sampled_from(gaps))
    eps_mode = "relative" if relative else "absolute"
    same = {"metric": "m", "mode": mode.value, "eps_mode": eps_mode}
    inputs = ["--human", str(tmp / "h.tsv"), "--metric", f"m={tmp / 'm.tsv'}",
              "--mode", mode.value, "--eps-mode", eps_mode]
    out = tmp / "report.json"

    epsilon_star, value = brute_force_calibration(h, m, mode, kind, relative)
    at_star = oracle_fields(groups, kind, epsilon_star, relative)
    assert json_results(["calibrate", *inputs, "--stat", kind.value], out) == [{
        **same, "stat": kind.value, "sample_fraction": 1.0, "seed": 0, "exact": True,
        "candidates": len(gaps), "epsilon_star": epsilon_star, "value": value,
        **{column: at_star[column] for column in ("groups_total", "groups_used", "pairs_total")}}]

    assert json_results(["correlate", *inputs, "--stat", "all", "--epsilon", repr(eps)], out) == [
        {**same, "stat": overall.value, "epsilon": eps,
         **oracle_fields(groups, overall, eps, relative)} for overall in OVERALL_STAT_KINDS]

    grid = data.draw(st.lists(st.sampled_from(gaps), min_size=1, max_size=4, unique=True))
    assert json_results(["f1-curve", *inputs, "--eps-grid", ",".join(map(repr, grid))], out) == [
        {"epsilon": point, **{curve.value: oracle_fields(groups, curve, point, relative)["value"]
                              for curve in (StatKind.TIES_F1, StatKind.RANK_F1, StatKind.ACC_EQ)}}
        for point in sorted(grid)]

    hist = json_results(["tie-hist", *inputs, "--epsilon", repr(eps), "--bins", str(bins)], out)
    edges = [*(row["bin_start"] for row in hist), hist[-1]["bin_end"]]
    midpoints = [(a + b) / 2 for a, b in pairs]
    newly_tied = [(a + b) / 2 for a, b in pairs if 0.0 < oracle_gap(a, b, relative) <= eps]
    assert edges == np.histogram_bin_edges(midpoints, bins).tolist()
    assert [row["bin_end"] for row in hist] == edges[1:]
    assert [row["all_pairs"] for row in hist] == np.histogram(midpoints, edges)[0].tolist()
    assert [row["newly_tied"] for row in hist] == np.histogram(newly_tied, edges)[0].tolist()


def oracle_bucket_rows(h, tmp, name, kind, mode, k_list):
    """``buckets``' rows for NAME.tsv in ``tmp``: k buckets over the metric's
    range, min(k - 1, floor((s - lo) / (hi - lo) * k))."""
    scored = oracle_load_scores(tmp / f"{name}.tsv")
    lo, hi = min((s for _, s in scored), default=0.0), max((s for _, s in scored), default=0.0)
    rows = []
    for k in k_list:
        bucketed = [(*key, float(min(k - 1, math.floor((s - lo) / (hi - lo) * k))) if hi > lo
                     else 0.0) for key, s in scored]
        fields = oracle_fields(oracle_groups(h, SimpleNamespace(items=lambda: bucketed), mode),
                               kind, 0.0, False)
        rows.append({"metric": name, "stat": kind.value, "mode": mode.value, "k": k,
                     **{column: fields[column]
                        for column in ("value", "groups_total", "groups_used", "pairs_total")}})
    return rows


def oracle_ranking(values):
    """Names by value descending, undefined last, ties by name."""
    defined = sorted((name for name in values if values[name] is not None),
                     key=lambda name: (-values[name], name))
    return defined + sorted(name for name in values if values[name] is None)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(systems=st.integers(2, 6), segments=st.integers(2, 8), data=st.data(),
       mode=st.sampled_from(list(GroupingMode)), relative=st.booleans(),
       kind=st.sampled_from(list(StatKind)), seed=st.integers(0, 2**32))
def test_rank_buckets_and_perturb_equal_the_oracles(tmp_path_factory, systems, segments, data,
                                                    mode, relative, kind, seed):
    tmp = tmp_path_factory.mktemp("oracles")
    names = ["zeta", "alpha", "mid"]  # given out of name order
    h, *metrics = write_campaign(data, tmp, systems, segments, names).values()
    metrics = dict(zip(names, metrics))
    eps_mode = "relative" if relative else "absolute"
    common = ["--human", str(tmp / "h.tsv"), "--mode", mode.value, "--stat", kind.value]
    inputs = [*common, *(f"--metric={name}={tmp / name}.tsv" for name in names),
              "--eps-mode", eps_mode]
    eps = data.draw(st.sampled_from(campaign_gaps(
        [group for m in metrics.values() for group in oracle_groups(h, m, mode)], relative)))
    out = tmp / "report.json"

    def assert_ranked(argv, fields):
        """``rank``'s rows and ranking: values descending, undefined last, ties by name."""
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_bytes())
        order = oracle_ranking({name: field["value"] for name, field in fields.items()})
        assert report["ranking"] == order
        assert report["results"] == [
            {"rank": rank, "metric": name, "stat": kind.value, "mode": mode.value, **fields[name]}
            for rank, name in enumerate(order, start=1)]

    def row_fields(m, eps):
        fields = oracle_fields(oracle_groups(h, m, mode), kind, eps, relative)
        return {"epsilon": eps, **{column: fields[column]
                                   for column in ("value", "groups_total", "groups_used")}}

    assert_ranked(["rank", *inputs, "--epsilon", repr(eps)],
                  {name: row_fields(m, eps) for name, m in metrics.items()})
    constant = SimpleNamespace(items=lambda: [(system, segment, 0.0)
                                              for system, segment, _ in h.items()])
    calibrated = {}
    for name, m in {**metrics, "Constant-Metric": constant}.items():
        epsilon_star, value = brute_force_calibration(h, m, mode, kind, relative)
        calibrated[name] = {**row_fields(m, epsilon_star), "value": value}
    assert_ranked(["rank", *inputs, "--calibrate", "--baseline"], calibrated)

    k_list = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    rows = oracle_bucket_rows(h, tmp, "zeta", kind, mode, k_list)
    assert json_results(["buckets", *common, f"--metric=zeta={tmp / 'zeta.tsv'}",
                         "--k-list", ",".join(map(str, k_list))], out) == rows

    # perturb: the key-sorted scores' ranks after the loop's tie breaking, sorted by key
    by_key = sorted(oracle_load_scores(tmp / "zeta.tsv"))
    ranks = loop_break_ties_randomly([s for _, s in by_key], eps, relative, seed).tolist()
    assert main(["perturb", f"--metric=zeta={tmp / 'zeta.tsv'}", "--epsilon", repr(eps),
                 "--eps-mode", eps_mode, "--seed", str(seed), "--out", str(out)]) == 0
    assert oracle_load_scores(out) == [(key, rank) for (key, _), rank in zip(by_key, ranks)]


# Each report command's columns, in order.
REPORT_COLUMNS = {
    "correlate": ("metric", "stat", "mode", "eps_mode", "epsilon", "value", "groups_total",
                  "groups_used", "pairs_total", *CLASS_COLUMNS),
    "calibrate": ("metric", "stat", "mode", "eps_mode", "sample_fraction", "seed", "exact",
                  "candidates", "epsilon_star", "value", "groups_total", "groups_used",
                  "pairs_total"),
    "rank": ("rank", "metric", "stat", "mode", "value", "epsilon", "groups_total",
             "groups_used"),
    "buckets": ("metric", "stat", "mode", "k", "value", "groups_total", "groups_used",
                "pairs_total"),
    "tie-hist": ("bin_start", "bin_end", "all_pairs", "newly_tied"),
    "f1-curve": ("epsilon", "ties_f1", "rank_f1", "acc_eq"),
}


def tsv_cell(value):
    """A TSV report cell: a float at six significant digits, undefined as
    NaN, a boolean as true or false."""
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(systems=st.integers(2, 5), segments=st.integers(2, 6), data=st.data(),
       mode=st.sampled_from(list(GroupingMode)), relative=st.booleans(),
       kind=st.sampled_from(list(StatKind)), bins=st.integers(1, 20))
def test_report_headers_and_tsv_cells_equal_the_oracles(tmp_path_factory, systems, segments,
                                                        data, mode, relative, kind, bins):
    tmp = tmp_path_factory.mktemp("oracles")
    names = ["b", "a"]  # given out of name order
    h, *metrics = write_campaign(data, tmp, systems, segments, names).values()
    metrics = dict(zip(names, metrics))
    groups = {name: oracle_groups(h, m, mode) for name, m in metrics.items()}
    eps_mode = "relative" if relative else "absolute"
    eps = data.draw(st.sampled_from(campaign_gaps(
        [group for named in groups.values() for group in named], relative)))
    same = {"mode": mode.value, "eps_mode": eps_mode}
    digest = {name: hashlib.sha256((tmp / f"{name}.tsv").read_bytes()).hexdigest()
              for name in ["h", *names]}

    correlated = [{"metric": name, "stat": overall.value, **same, "epsilon": eps,
                   **oracle_fields(groups[name], overall, eps, relative)}
                  for name in names for overall in OVERALL_STAT_KINDS]
    calibrated = []
    for name in names:
        epsilon_star, value = brute_force_calibration(h, metrics[name], mode, kind, relative)
        calibrated.append({
            "metric": name, "stat": kind.value, **same, "sample_fraction": 1.0, "seed": 0,
            "exact": True, "candidates": len(campaign_gaps(groups[name], relative)),
            "epsilon_star": epsilon_star,
            **oracle_fields(groups[name], kind, epsilon_star, relative), "value": value})
    at_eps = {name: oracle_fields(groups[name], kind, eps, relative) for name in names}
    ranking = oracle_ranking({name: fields["value"] for name, fields in at_eps.items()})
    ranked = [{"rank": rank, "metric": name, "stat": kind.value, "mode": mode.value,
               "epsilon": eps, **at_eps[name]} for rank, name in enumerate(ranking, start=1)]
    k_list = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    pairs = [(a, b) for _, mg in groups["a"] for a, b in itertools.combinations(mg.tolist(), 2)]
    midpoints = [(a + b) / 2 for a, b in pairs]
    edges = np.histogram_bin_edges(midpoints, bins).tolist()
    counts = np.histogram(midpoints, edges)[0].tolist()
    newly_tied = np.histogram([(a + b) / 2 for a, b in pairs
                               if 0.0 < oracle_gap(a, b, relative) <= eps], edges)[0].tolist()
    grid = sorted(data.draw(st.lists(st.sampled_from(campaign_gaps(groups["a"], relative)),
                                     min_size=1, max_size=4, unique=True)))
    curve = [{"epsilon": point, **{stat.value: oracle_fields(groups["a"], stat, point,
                                                             relative)["value"]
                                   for stat in (StatKind.TIES_F1, StatKind.RANK_F1,
                                                StatKind.ACC_EQ)}} for point in grid]

    # command: (its metrics, its options, the oracle rows, the ranking)
    reports = {
        "correlate": (names, ["--stat", "all", "--epsilon", repr(eps)], correlated, None),
        "calibrate": (names, ["--stat", kind.value], calibrated, None),
        "rank": (names, ["--stat", kind.value, "--epsilon", repr(eps)], ranked, ranking),
        "buckets": (["a"], ["--stat", kind.value, "--k-list", ",".join(map(str, k_list))],
                    oracle_bucket_rows(h, tmp, "a", kind, mode, k_list), None),
        "tie-hist": (["a"], ["--epsilon", repr(eps), "--bins", str(bins)],
                     [dict(zip(REPORT_COLUMNS["tie-hist"], row))
                      for row in zip(edges, edges[1:], counts, newly_tied)], None),
        "f1-curve": (["a"], ["--eps-grid", ",".join(map(repr, grid))], curve, None),
    }
    out = tmp / "report"
    for command, (used, options, rows, order) in reports.items():
        argv = [command, "--human", str(tmp / "h.tsv"), "--mode", mode.value,
                *(f"--metric={name}={tmp / name}.tsv" for name in used), *options,
                *(["--eps-mode", eps_mode] if command != "buckets" else []), "--out", str(out)]
        inputs = [("human", digest["h"]), *((f"metric:{name}", digest[name]) for name in used)]
        columns = REPORT_COLUMNS[command]

        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        head = [f"# version={tiecal.__version__}", f"# command={command}",
                *(f"# input:{label}={value}" for label, value in inputs),
                *([] if order is None else ["# ranking=" + ",".join(order)]),
                "\t".join(columns)]
        assert lines[:len(head)] == head, command
        assert [line.split("\t") for line in lines[len(head):]] == [
            [tsv_cell(row[column]) for column in columns] for row in rows], command

        assert main([*argv, "--format", "json"]) == 0
        report = json.loads(out.read_bytes())
        assert (report["version"], report["command"], list(report["inputs"].items()),
                report["columns"], report["ranking"]) == (
            tiecal.__version__, command, inputs, list(columns), order)
        assert report["results"] == [{column: row[column] for column in columns}
                                     for row in rows], command


def test_cli_import_leaves_scipy_unloaded():
    # the runtime needs numpy alone; every CLI call would otherwise pay scipy's import
    src = Path(tiecal.__file__).resolve().parents[1]
    code = "import sys, tiecal.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_every_public_name_resolves():
    # a deleted definition must not leave its export behind
    assert [name for name in tiecal.__all__ if not hasattr(tiecal, name)] == []
    assert len(set(tiecal.__all__)) == len(tiecal.__all__)
    namespace = {}
    exec("from tiecal import *", namespace)
    assert set(tiecal.__all__) <= namespace.keys()
