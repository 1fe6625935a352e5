"""Tests for score-file parsing and report serialization."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from tiecal import (
    ReportDocument,
    ScoreFileError,
    ScoreMatrix,
    dump_scores,
    format_value,
    load_scores,
    rank_metrics,
    write_report,
)
from tiecal.data import sha256_digest


def write(tmp_path, text, name="scores.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScores:
    def test_single_row(self, tmp_path):
        matrix = load_scores(write(tmp_path, "sysA\tseg1\t-5\n"))
        assert len(matrix) == 1
        assert matrix.get("sysA", "seg1") == -5.0

    def test_nan_score_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "sysA\tseg1\t1\nsysA\tseg2\tNaN\n")
        with pytest.raises(ScoreFileError, match="2") as info:
            load_scores(path)
        assert info.value.line == 2

    def test_infinite_score_rejected(self, tmp_path):
        with pytest.raises(ScoreFileError, match="non-finite"):
            load_scores(write(tmp_path, "sysA\tseg1\tinf\n"))

    def test_unparseable_score_names_column(self, tmp_path):
        with pytest.raises(ScoreFileError, match="column 3"):
            load_scores(write(tmp_path, "sysA\tseg1\tabc\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "sysA\tseg1\t1\nsysA\tseg1\t2\n")
        with pytest.raises(ScoreFileError, match="duplicate"):
            load_scores(path)

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(ScoreFileError, match="3 tab-separated"):
            load_scores(write(tmp_path, "sysA\tseg1\n"))

    def test_header_and_comments_skipped(self, tmp_path):
        text = "# produced by hand\nsystem\tsegment\tscore\nsysA\tseg1\t1.5\n\n"
        matrix = load_scores(write(tmp_path, text))
        assert len(matrix) == 1

    @pytest.mark.parametrize("row, message", [
        ("\t\t", "column 3: unparseable score ''"),
        ("\t", "expected 3 tab-separated columns, got 2"),
        (" \t \t", "column 3: unparseable score ''"),
    ])
    def test_tab_only_row_is_a_row_not_a_blank_line(self, tmp_path, row, message):
        path = write(tmp_path, f"sysA\tseg1\t1\n\n  \n{row}\nsysA\tseg2\t2\n")
        with pytest.raises(ScoreFileError, match=message) as info:
            load_scores(path)
        assert info.value.line == 4

    def test_header_only_recognized_on_first_data_line(self, tmp_path):
        text = "sysA\tseg1\t1\n"
        matrix = load_scores(write(tmp_path, text))
        assert len(matrix) == 1

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scores(tmp_path / "nope.tsv")

    def test_round_trip_is_identity(self, tmp_path):
        matrix = ScoreMatrix([
            ("sysB", "seg2", 0.1 + 0.2),
            ("sysA", "seg1", -5.0),
            ("sysA", "seg2", 1e-17),
        ])
        path = tmp_path / "dump.tsv"
        path.write_bytes(dump_scores(matrix))
        assert load_scores(path) == matrix

    def test_dump_is_byte_stable(self):
        matrix = ScoreMatrix([("b", "y", 2.0), ("a", "x", 1.0)])
        assert dump_scores(matrix) == dump_scores(matrix)
        assert dump_scores(matrix).startswith(b"system\tsegment\tscore\n")

    def test_load_and_sha256_digest(self, tmp_path):
        path = write(tmp_path, "sysA\tseg1\t2.5\n")
        assert load_scores(path).get("sysA", "seg1") == 2.5
        assert sha256_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert sha256_digest(str(path)) == sha256_digest(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes("\ufeffsystem\tsegment\tscore\nsysA\tseg1\t2.5\n".encode("utf-8"))
        matrix = load_scores(path)
        assert list(matrix.items()) == [("sysA", "seg1", 2.5)]

    def test_first_error_in_line_order_precedes_a_later_bad_byte(self, tmp_path):
        # the bad byte sits about 3 KB in, past what a text decoder reads ahead
        rows = [f"sys\tseg{i:03d}\t{i}\n".encode() for i in range(2, 300)]
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"sys\tseg001\t1\nsys\tseg002\tabc\n" + b"".join(rows)
                         + b"sys\tseg\xff\t1\n")
        with pytest.raises(ScoreFileError) as info:
            load_scores(path)
        assert str(info.value) == f"{path}:2: column 3: unparseable score 'abc'"

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_bad_byte_names_its_line(self, tmp_path, ending):
        path = tmp_path / "bad.tsv"
        path.write_bytes(ending.join([b"\xef\xbb\xbfa\tx\t1", b"# \xc3", b"b\ty\t2", b""]))
        with pytest.raises(ScoreFileError) as info:
            load_scores(path)
        assert str(info.value) == f"{path}:2: not valid UTF-8"

    @pytest.mark.parametrize("key", [("#a", "b"), ("a", "b\tc"), ("a\rb", "c"), ("a", "\n")])
    def test_dump_rejects_ids_the_format_cannot_hold(self, key):
        matrix = ScoreMatrix([("x", "y", 2.0), (*key, 1.0)])
        with pytest.raises(ValueError) as info:
            dump_scores(matrix)
        assert f"system={key[0]!r} segment={key[1]!r}" in str(info.value)

    @pytest.mark.parametrize("text", [
        "1_000", " 1.5", "1.5 ", "\u0661", "\uff11.5", "1.5\u00a0", "0x10", "1e", ".", "+",
        "", "1,5", "--1",
    ])
    def test_non_decimal_score_is_unparseable(self, tmp_path, text):
        path = write(tmp_path, f"sysA\tseg1\t1\nsysA\tseg2\t{text}\n")
        with pytest.raises(ScoreFileError, match="unparseable score") as info:
            load_scores(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("text", ["nan", "-NaN", "inf", "+Infinity", "-inf", "1e999"])
    def test_non_finite_spellings_keep_their_message(self, tmp_path, text):
        with pytest.raises(ScoreFileError, match="non-finite score"):
            load_scores(write(tmp_path, f"sysA\tseg1\t{text}\n"))

    @pytest.mark.parametrize("value", [1e-05, 1.5e+20, -0.0, 0.1 + 0.2, 5.0, -3e-300, 1e16])
    def test_every_dumped_score_loads(self, tmp_path, value):
        path = tmp_path / "dump.tsv"
        path.write_bytes(dump_scores(ScoreMatrix([("sysA", "seg1", value)])))
        loaded = load_scores(path).get("sysA", "seg1")
        assert repr(loaded) == repr(value)

    @pytest.mark.parametrize("text, value", [
        ("+2", 2.0), ("-.5", -0.5), ("3.", 3.0), ("1E3", 1000.0), ("-1.25e-2", -0.0125),
    ])
    def test_decimal_forms_accepted(self, tmp_path, text, value):
        assert load_scores(write(tmp_path, f"sysA\tseg1\t{text}\n")).get("sysA", "seg1") == value


class TestSharedKeyStrings:
    """Matrices loaded from files of one key set share their id strings."""

    def test_ten_files_retain_under_150_bytes_a_row(self, tmp_path):
        keys = [(f"sys{i:02d}", f"seg{j:05d}") for i in range(15) for j in range(400)]
        rng = np.random.default_rng(0)
        paths = [tmp_path / f"m{f}.tsv" for f in range(10)]
        for path in paths:
            scores = rng.random(len(keys)).tolist()
            path.write_text("".join(f"{system}\t{segment}\t{score!r}\n"
                                    for (system, segment), score in zip(keys, scores)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrices = [load_scores(path) for path in paths]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 150 * len(keys) * len(paths)
        first, second = (list(matrix.keys()) for matrix in matrices[:2])
        assert first == keys
        assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(first, second))


class TestFormatting:
    def test_six_significant_digits(self):
        assert format_value(14 / 15) == "0.933333"
        assert format_value(1.0) == "1"
        assert format_value(None) == "NaN"

    def test_rank_metrics_orders_and_breaks_ties(self):
        values = {"b": 0.5, "a": 0.5, "c": 0.9, "d": None}
        assert rank_metrics(values) == ["c", "a", "b", "d"]


def sample_document():
    return ReportDocument(
        version="0.1.0",
        command="correlate",
        inputs={"human": "abc123"},
        columns=("metric", "value", "count"),
        rows=[
            {"metric": "m1", "value": 14 / 15, "count": 15},
            {"metric": "m2", "value": None, "count": 0},
        ],
        ranking=["m1", "m2"],
    )


class TestWriteReport:
    def test_tsv_layout(self):
        text = write_report(sample_document(), "tsv").decode()
        lines = text.splitlines()
        assert "# version=0.1.0" in lines
        assert "# ranking=m1,m2" in lines
        assert "metric\tvalue\tcount" in lines
        assert "m1\t0.933333\t15" in lines
        assert "m2\tNaN\t0" in lines

    def test_json_layout(self):
        payload = json.loads(write_report(sample_document(), "json"))
        assert payload["version"] == "0.1.0"
        assert payload["results"][0]["value"] == 0.933333
        assert payload["results"][1]["value"] is None
        assert payload["ranking"] == ["m1", "m2"]

    def test_deterministic_bytes(self):
        doc = sample_document()
        assert write_report(doc, "tsv") == write_report(sample_document(), "tsv")
        assert write_report(doc, "json") == write_report(sample_document(), "json")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_report(sample_document(), "xml")

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_row_without_a_column_rejected(self, fmt):
        # a misspelt key must not pass for an undefined value (NaN / null)
        doc = sample_document()
        doc.rows[1] = {"metric": "m2", "valeu": None, "count": 0}
        with pytest.raises(ValueError, match=r"^report row 1 has no column 'value'$"):
            write_report(doc, fmt)

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_keys_beyond_the_columns_are_not_written(self, fmt):
        doc = sample_document()
        for row in doc.rows:
            row["pairs_total"] = 7
        assert write_report(doc, fmt) == write_report(sample_document(), fmt)
