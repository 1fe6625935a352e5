"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

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
