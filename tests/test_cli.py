"""End-to-end tests of the command-line interface."""

import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import tiecal
from tiecal import load_scores
from tiecal.cli import main


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

    def test_sampled_run_is_deterministic(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        h = write_scores(tmp_path / "h.tsv",
                         vector_rows(rng.integers(0, 4, 30).astype(float)))
        m = write_scores(tmp_path / "m.tsv", vector_rows(rng.normal(size=30)))
        argv = ["calibrate", "--human", str(h), "--metric", f"m={m}",
                "--mode", "no-grouping", "--stat", "acc_eq",
                "--sample-fraction", "0.1", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_tie_averse_stat_warns(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2, 3]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.1, 0.9, 0.4, 2.0]))
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", "tau_13"])
        assert code == 0
        assert "may lead to unexpected results" in capsys.readouterr().err

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
        aligns, sides = [], set()

        def counting_align(*args):
            aligns.append(args[2])
            return align(*args)

        def recording_side(*args):
            side = human_side(*args)
            sides.add(id(side))
            return side

        def no_batch(*args, **kwargs):
            raise AssertionError("grouped_stat called")

        align, human_side = tiecal.calibration.align, tiecal.grouping._human_side
        monkeypatch.setattr("tiecal.calibration.align", counting_align)
        monkeypatch.setattr("tiecal.grouping.align", counting_align)
        monkeypatch.setattr("tiecal.grouping._human_side", recording_side)
        for name in ("grouping.grouped_stat", "grouping.grouped_stats", "cli.grouped_stat",
                     "cli.grouped_stats"):
            monkeypatch.setattr(f"tiecal.{name}", no_batch)
        assert main(argv) == 0
        assert len(parse_tsv(capsys.readouterr().out)) == 18
        assert aligns == [tiecal.GroupingMode.GROUP_BY_ITEM] * 18
        assert len(sides) == 1

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
        original = load_scores(m)
        perturbed = load_scores(out)
        keys = sorted(original.keys())
        for a in keys:
            for b in keys:
                if original.get(*a) < original.get(*b):
                    assert perturbed.get(*a) < perturbed.get(*b)

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

    def test_duplicate_metric_name_rejected(self, tmp_path, capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h),
                     "--metric", f"m={m}", "--metric", f"m={m}"])
        assert code == 2

    def test_env_var_sets_default_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TIECAL_FORMAT", "json")
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}",
                     "--mode", "no-grouping", "--stat", "acc_eq"])
        assert code == 0
        json.loads(capsys.readouterr().out)


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

    @pytest.mark.parametrize("argv, flag, entry", [
        (["f1-curve", "--eps-grid", "0,x"], "--eps-grid", "'x'"),
        (["f1-curve", "--eps-grid", "0.1, 1e-3 ,nan?"], "--eps-grid", "'nan?'"),
        (["buckets", "--k-list", "2,y"], "--k-list", "'y'"),
        (["buckets", "--k-list", "4,2.5"], "--k-list", "'2.5'"),
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
        (["calibrate", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
        (["rank", "--seed", "-3"], "argument --seed: expected a non-negative integer"),
        (["perturb", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
        (["rank", "--seed", "x"], "argument --seed: expected a non-negative integer"),
    ])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv, message):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        human = [] if argv[0] == "perturb" else ["--human", str(h)]
        code = main([*argv, *human, "--metric", f"m={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert captured.err.startswith(f"error: {message}")

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

    @pytest.mark.parametrize("fmt, bins", [("tsv", 3), ("json", 2)])
    def test_tie_hist_bins_beyond_memory_refused_before_reading(self, tmp_path, capsys,
                                                                monkeypatch, fmt, bins):
        monkeypatch.setattr("tiecal.calibration._memory_limit", lambda: (1024, "the test limit"))
        missing = tmp_path / "missing.tsv"  # read first, it would fail otherwise
        code = main(["tie-hist", "--human", str(missing), "--metric", f"m={missing}",
                     "--bins", str(bins), "--format", fmt])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert f"--bins {bins} needs about" in captured.err
        assert captured.err.endswith("more than the test limit\n")

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

    def test_tie_hist_bins_within_memory_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tiecal.calibration._memory_limit", lambda: (1024, "the test limit"))
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        assert main(["tie-hist", "--human", str(h), "--metric", f"m={m}", "--bins", "2"]) == 0
        assert len(parse_tsv(capsys.readouterr().out)) == 2

    def test_invalid_format_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TIECAL_FORMAT", "xml")
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        code = main(["correlate", "--human", str(h), "--metric", f"m={m}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert self.one_error_line(captured.err)
        assert "TIECAL_FORMAT" in captured.err and "'xml'" in captured.err

    @pytest.mark.parametrize("argv", [["--version"], ["perturb", "--out", "p.tsv"]])
    def test_format_variable_unread_without_format_flag(self, tmp_path, capsys, monkeypatch,
                                                         argv):
        monkeypatch.setenv("TIECAL_FORMAT", "xml")
        monkeypatch.chdir(tmp_path)
        m = write_scores(tmp_path / "m.tsv", vector_rows([0, 1]))
        if argv[0] == "--version":
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
        else:
            assert main([*argv, "--metric", f"m={m}"]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_run_leaves_no_new_or_altered_output(self, tmp_path, capsys, monkeypatch,
                                                        existing):
        # calibrate has written its epsilon file when serializing the report fails
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 1, 2]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.5, 1.0]))
        out, eps = tmp_path / "out.tsv", tmp_path / "eps.tsv"
        if existing:
            out.write_bytes(b"old report\n")
            eps.write_bytes(b"old epsilons\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}

        def fail(*args):
            raise ValueError("report row 0 has no column 'value'")
        monkeypatch.setattr("tiecal.cli.write_report", fail)
        code = main(["calibrate", "--human", str(h), "--metric", f"a={m}", "--metric", f"b={m}",
                     "--mode", "no-grouping", "--out", str(out), "--emit-epsilon", str(eps)])
        assert code == 2
        assert self.one_error_line(capsys.readouterr().err)
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_failing_second_metric_keeps_the_first_line_and_writes_no_file(self, tmp_path,
                                                                            capsys):
        h = write_scores(tmp_path / "h.tsv", vector_rows([0, 0, 1]))
        m = write_scores(tmp_path / "m.tsv", vector_rows([0.0, 0.05, 1.0]))
        other = write_scores(tmp_path / "other.tsv", vector_rows([0.0, 0.5], segment="x"))
        out, eps = tmp_path / "out.tsv", tmp_path / "eps.tsv"
        code = main(["calibrate", "--human", str(h), "--metric", f"m={m}",
                     "--metric", f"n={other}", "--mode", "no-grouping",
                     "--out", str(out), "--emit-epsilon", str(eps)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "metric=m epsilon=0.05 acc_eq=1.000000\n"
        assert self.one_error_line(captured.err)
        assert "nothing to calibrate" in captured.err
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


def test_cli_import_leaves_scipy_unloaded():
    # only spearman needs scipy; every CLI call would otherwise pay its import
    src = Path(tiecal.__file__).resolve().parents[1]
    code = "import sys, tiecal.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
