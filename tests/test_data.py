"""Tests for score-file parsing and report serialization."""

import builtins
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from tiecal import (
    ReportDocument,
    ScoreFileError,
    ScoreMatrix,
    dump_scores,
    load_scores,
    rank_metrics,
    write_report,
)
from tiecal import data

ROWS = [f"s{i % 7}\tg{i}\t{i / 3!r}".encode() for i in range(100)]


def write(tmp_path, text, name="scores.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScores:
    def test_single_row(self, tmp_path):
        matrix = load_scores(write(tmp_path, "sysA\tseg1\t-5\n"))
        assert len(matrix) == 1
        assert list(matrix.items()) == [("sysA", "seg1", -5.0)]

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

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_comment_shaped_like_a_row_is_skipped_after_the_first_line(self, tmp_path, ending):
        lines = ["sysA\tseg1\t1", "#sysB\tseg1\t2", "sysC\tseg1\t3"]
        matrix = load_scores(write(tmp_path, ending.join(lines) + ending))
        assert list(matrix.items()) == [("sysA", "seg1", 1.0), ("sysC", "seg1", 3.0)]

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
        assert sorted(load_scores(path).items()) == sorted(matrix.items())

    def test_dump_is_byte_stable(self):
        matrix = ScoreMatrix([("b", "y", 2.0), ("a", "x", 1.0)])
        assert dump_scores(matrix) == dump_scores(matrix)
        assert dump_scores(matrix).startswith(b"system\tsegment\tscore\n")

    @pytest.mark.parametrize("chunk", [1, 7, data._CHUNK_CHARS])
    def test_load_and_sha256_digest(self, tmp_path, monkeypatch, chunk):
        path = tmp_path / "digest.tsv"
        path.write_bytes(b"\xef\xbb\xbfsystem\tsegment\tscore\r\nsysA\tseg1\t2.5\rsysA\tseg2\t1")
        monkeypatch.setattr(data, "_CHUNK_CHARS", chunk)
        hasher = hashlib.sha256()
        assert list(load_scores(path, hasher=hasher).items()) == [
            ("sysA", "seg1", 2.5), ("sysA", "seg2", 1.0)]
        assert hasher.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

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

    @pytest.mark.parametrize("key", [("#a", "b"), ("a", "b\tc"), ("a\rb", "c"), ("a", "\n"),
                                     ("\udcff", "a"), ("a", "b\ud800")])
    def test_dump_rejects_ids_the_format_cannot_hold(self, key):
        matrix = ScoreMatrix([("x", "y", 2.0), (*key, 1.0)])
        with pytest.raises(ValueError) as info:
            dump_scores(matrix)
        assert f"system={key[0]!r} segment={key[1]!r}" in str(info.value)

    @pytest.mark.parametrize("chunk", [1, 40, data._CHUNK_CHARS])
    @pytest.mark.parametrize("lines, error", [
        ([b"# by \xff hand", *ROWS], "1: not valid UTF-8"),
        ([*ROWS[:3], b"a\tb\tx", b"c\td\xc3\t1", *ROWS[3:]], "4: column 3: unparseable score 'x'"),
        ([*ROWS[:3], b"a\tb\tx", *ROWS[3:], b"c\td\xc3\t1"], "4: column 3: unparseable score 'x'"),
        ([*ROWS[:3], b"c\td\xc3\t1", b"a\tb\tx"], "4: not valid UTF-8"),
        ([*ROWS[:60], ROWS[5], *ROWS[60:]],
         "61: duplicate entry for system='s5' segment='g5'"),
        ([*ROWS[:40], b"a\tb\tnan", *ROWS[40:], b"a\tc\tx"], "41: column 3: non-finite score 'nan'"),
        ([b"system\tsegment\tscore", *ROWS[:9], b"system\tsegment\tscore", *ROWS[9:]],
         "11: column 3: unparseable score 'score'"),
    ])
    def test_first_fault_is_named_at_any_chunk_size(self, tmp_path, monkeypatch, chunk,
                                                    lines, error):
        monkeypatch.setattr(data, "_CHUNK_CHARS", chunk)
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ScoreFileError) as info:
            load_scores(path)
        assert str(info.value) == f"{path}:{error}"

    @pytest.mark.parametrize("short_first", [True, False])
    def test_lines_of_one_and_three_tabs_are_refused(self, tmp_path, short_first):
        # two tabs a line in all, and every field a number
        pair = [b"3\t4", b"5\t6\t7\t8"] if short_first else [b"5\t6\t7\t8", b"3\t4"]
        path = tmp_path / "tabs.tsv"
        path.write_bytes(b"\n".join([b"1\t2\t0", *pair, b"9\t10\t0"]) + b"\n")
        got = 2 if short_first else 4
        with pytest.raises(ScoreFileError, match=f"expected 3 tab-separated columns, got {got}$"):
            load_scores(path)

    def test_a_file_with_a_fault_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"\n".join([*ROWS, b"a\tb\tx", b"c\td\xc3\t1"]) + b"\n")
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)  # what pathlib opens with
        monkeypatch.setattr(builtins, "open", counting_open)
        with pytest.raises(ScoreFileError, match="unparseable score 'x'"):
            load_scores(path)
        assert len(opened) == 1

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
        (*_, loaded), = load_scores(path).items()
        assert repr(loaded) == repr(value)

    @pytest.mark.parametrize("text, value", [
        ("+2", 2.0), ("-.5", -0.5), ("3.", 3.0), ("1E3", 1000.0), ("-1.25e-2", -0.0125),
    ])
    def test_decimal_forms_accepted(self, tmp_path, text, value):
        loaded = load_scores(write(tmp_path, f"sysA\tseg1\t{text}\n"))
        assert list(loaded.items()) == [("sysA", "seg1", value)]


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

    def test_ten_files_loaded_like_the_first_retain_under_16_bytes_a_row(self, tmp_path):
        keys = [(f"sys{i:02d}", f"seg{j:05d}") for i in range(15) for j in range(400)]
        rng = np.random.default_rng(0)
        paths = [tmp_path / f"m{f}.tsv" for f in range(11)]
        for path in paths:
            path.write_text("".join(f"{system}\t{segment}\t{score!r}\n" for (system, segment),
                                    score in zip(keys, rng.random(len(keys)).tolist())))
        first = load_scores(paths[0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrices = [load_scores(path, like=first) for path in paths[1:]]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16 * len(keys) * len(matrices)
        assert all(matrix._keys is first._keys for matrix in matrices)
        assert list(matrices[-1].keys()) == keys


class TestFormatting:
    def test_six_significant_digits(self):
        assert data._cell(14 / 15) == "0.933333"
        assert data._cell(1.0) == "1"
        assert data._cell(None) == "NaN"

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
        text = b"".join(write_report(sample_document(), "tsv")).decode()
        lines = text.splitlines()
        assert "# version=0.1.0" in lines
        assert "# ranking=m1,m2" in lines
        assert "metric\tvalue\tcount" in lines
        assert "m1\t0.933333\t15" in lines
        assert "m2\tNaN\t0" in lines

    def test_json_layout(self):
        payload = json.loads(b"".join(write_report(sample_document(), "json")))
        assert payload["version"] == "0.1.0"
        assert payload["results"][0]["value"] == 14 / 15
        assert payload["results"][1]["value"] is None
        assert payload["ranking"] == ["m1", "m2"]

    def test_deterministic_bytes(self):
        for fmt in ("tsv", "json"):
            first, second = (b"".join(write_report(sample_document(), fmt)) for _ in range(2))
            assert first == second

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_report(sample_document(), "xml")  # at the call, not the first chunk

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_row_without_a_column_rejected(self, fmt):
        # a misspelt key must not pass for an undefined value (NaN / null)
        doc = sample_document()
        doc.rows[1] = {"metric": "m2", "valeu": None, "count": 0}
        with pytest.raises(ValueError, match=r"^report row 1 has no column 'value'$"):
            b"".join(write_report(doc, fmt))

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_keys_beyond_the_columns_are_not_written(self, fmt):
        doc = sample_document()
        for row in doc.rows:
            row["pairs_total"] = 7
        assert b"".join(write_report(doc, fmt)) == b"".join(write_report(sample_document(), fmt))

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_chunks_hold_the_header_then_at_most_report_rows_rows(self, monkeypatch, fmt):
        doc = sample_document()
        doc.rows = [{"metric": f"m{i}", "value": i / 7, "count": i} for i in range(5)]
        whole = b"".join(write_report(doc, fmt))
        monkeypatch.setattr(data, "_REPORT_ROWS", 2)
        chunks = list(write_report(doc, fmt))
        assert b"".join(chunks) == whole
        # the "#" lines and header row, or the JSON up to "results", then the rows
        assert chunks[0].endswith(b'"results": ' if fmt == "json" else b"metric\tvalue\tcount\n")
        rows = [chunk.count(b'"metric": ' if fmt == "json" else b"\n") for chunk in chunks[1:]]
        assert rows == ([2, 2, 1, 0, 0] if fmt == "json" else [2, 2, 1])

    @pytest.mark.parametrize("rows_per_call", [1, 2, data._REPORT_ROWS])
    @pytest.mark.parametrize("columns, rows, ranking", [
        (("metric", "value", "exact", "count"),
         [{"metric": "mé", "value": 14 / 15, "exact": True, "count": 15},
          {"metric": "日本", "value": None, "exact": False, "count": 0},
          {"metric": 'a"},\n      {"b', "value": -1e-300, "exact": True, "count": -2},
          {"metric": "c d", "value": float("nan"), "exact": None, "count": 2**70}],
         ["mé", "日本"]),
        (("value",), [{"value": 1e300}], None),
        (("value",), [], []),
        ((), [{}, {}], None),
    ], ids=["mixed", "one-row", "no-rows", "no-columns"])
    def test_json_bytes_equal_indented_json_dumps(self, monkeypatch, rows_per_call, columns,
                                                  rows, ranking):
        monkeypatch.setattr(data, "_REPORT_ROWS", rows_per_call)
        doc = ReportDocument(version="0.1.0", command="rank",
                             inputs={"human": "abc", "metric:mé": "def"},
                             columns=columns, rows=rows, ranking=ranking)
        payload = {
            "version": "0.1.0", "command": "rank", "inputs": doc.inputs,
            "columns": list(columns),
            "results": [{column: row[column] for column in columns} for row in rows],
            "ranking": ranking,
        }
        expected = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        assert b"".join(write_report(doc, "json")) == expected.encode("utf-8")
