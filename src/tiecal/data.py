"""Score-file loading and deterministic report serialization.

Score files are UTF-8 TSV with three columns (system, segment, score), an
optional literal header line, and '#' comment lines.  Reports serialize to
TSV (floats at six significant digits, undefined as "NaN") or JSON (exact
floats, undefined as null) with stable ordering, in chunks made as written.
"""

from __future__ import annotations

import codecs
import json
import re
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping

import numpy as np

from .grouping import ScoreMatrix

HEADER_FIELDS = ("system", "segment", "score")
_HEADER_LINE = "\t".join(HEADER_FIELDS).encode() + b"\n"
# Bytes load_scores reads at a time; it checks them as chunks of whole lines.
_CHUNK_CHARS = 1 << 20
_NEWLINE_TO_TAB = bytes.maketrans(b"\n", b"\t")
# The only bytes a score may hold to pass the byte test; float() decides the rest.
_DECIMAL_BYTES = b"0123456789.eE+-"
# Any lone surrogate, which UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")
# A score beyond the decimal bytes is non-finite in these spellings, else unparseable.
_NON_FINITE = re.compile(r"[+-]?(inf|infinity|nan)", re.ASCII | re.IGNORECASE)


class ScoreFileError(ValueError):
    """A score file could not be read or parsed; carries file and line."""

    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def load_scores(path: str | Path, like: ScoreMatrix | None = None,
                hasher: Any = None) -> ScoreMatrix:
    """Parse a three-column score TSV into a ScoreMatrix.

    Skips a leading byte-order mark, '#' comment lines, blank lines and a
    header before the first row.  Rejects bytes that are not UTF-8,
    malformed rows, non-finite (ASCII ``nan``/``inf``/``infinity``, or
    beyond the float range) or unparseable scores and duplicate (system,
    segment) keys, naming the first faulty line.  The file is opened once
    and read as bytes, whole lines about ``_CHUNK_CHARS`` bytes at a time;
    ``hasher`` (a hashlib object), if given, is updated with every byte
    read.  Each chunk is checked by the one rule set, ``_row_fields``, and
    converted at once; a chunk that fails a check is run again from the
    state before it, one line at a time, up to its first faulty line.  Ids
    are interned: matrices share their strings.  A file whose rows list
    ``like``'s keys in order shares ``like``'s key list, which ``align``
    pairs by position; from the first row that leaves that order, the file
    gets its own key list, checked as without ``like``.
    """
    keys: tuple[list[str], list[str]] = ([], [])  # system and segment ids
    scores = array("d")
    seen = None if like is not None else set()  # None while the rows follow like's keys
    may_be_header = True

    def add(raw: bytes) -> None:
        """Check and add the rows of ``raw``, whole lines that each end in
        \\n; a fault raises ValueError, whose message is exact when ``raw``
        is one line."""
        nonlocal keys, seen, may_be_header
        fields, may_be_header = _row_fields(raw, may_be_header)
        if not fields:
            return
        texts = fields[2::3]
        start = len(scores)
        try:
            scores.extend(map(float, texts))
        except ValueError:
            raise ValueError(f"column 3: unparseable score {texts[0]!r}") from None
        if not np.isfinite(np.frombuffer(scores)[start:]).all():
            raise ValueError(f"column 3: non-finite score {texts[0]!r}")
        del texts
        end = len(scores)
        if seen is None:
            if fields[0::3] == like._keys[0][start:end] and \
                    fields[1::3] == like._keys[1][start:end]:
                return  # like's next keys: nothing to store or check
            keys = like._keys[0][:start], like._keys[1][:start]
            seen = set(zip(*keys))
        chunk = [list(map(sys.intern, islice(fields, column, None, 3))) for column in (0, 1)]
        seen.update(zip(*chunk))
        keys[0].extend(chunk[0])
        keys[1].extend(chunk[1])
        if len(seen) != end:
            raise ValueError(f"duplicate entry for system={fields[0]!r} segment={fields[1]!r}")

    read = 0  # lines before the chunk
    with open(path, "rb") as handle:
        for raw in _line_chunks(handle, hasher):
            if not read:
                raw = raw.removeprefix(codecs.BOM_UTF8)
            if b"\r" in raw:  # text mode's line ends: \r\n and a lone \r end a line too
                raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if not raw.endswith(b"\n"):  # the last line
                raw += b"\n"
            start, following, header = len(scores), seen is None, may_be_header
            try:
                add(raw)
            except ValueError:  # back to the chunk's start, then line by line
                del scores[start:], keys[0][start:], keys[1][start:]
                seen, may_be_header = None if following else set(zip(*keys)), header
                _add_lines(path, add, raw, read + 1)
            read += raw.count(b"\n")
    if seen is None:  # like's keys, or its first rows
        if len(scores) == len(like):
            return like.with_scores(scores)
        keys = like._keys[0][:len(scores)], like._keys[1][:len(scores)]
    return ScoreMatrix._from_columns(keys, scores)


def _line_chunks(handle: BinaryIO, hasher: Any) -> Iterator[bytes]:
    """The bytes of ``handle``, read ``_CHUNK_CHARS`` at a time and handed
    on as chunks of whole lines: each ends after a \\n or a \\r, never
    between the two of a \\r\\n, so a file with only \\r line ends still
    streams.  ``hasher`` is updated with every block read."""
    parts: list[bytes] = []
    while block := handle.read(_CHUNK_CHARS):
        if hasher is not None:
            hasher.update(block)
        if parts and parts[-1].endswith(b"\r") and not block.startswith(b"\n"):
            yield b"".join(parts)  # the last read ended with a lone \r
            parts.clear()
        # after the block's last line end; a \r at its end may start a \r\n
        end = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if end:
            parts.append(block[:end])
            yield b"".join(parts)
            parts.clear()
        parts.append(block[end:])
    if tail := b"".join(parts):
        yield tail


def _row_fields(raw: bytes, may_be_header: bool) -> tuple[list[str], bool]:
    """The fields of the rows of ``raw``, whole lines that each end in \\n,
    three a row, and whether the header may still come.  The rules run in
    a line's order: the bytes must be UTF-8; lines that start with '#' and
    blank lines are dropped, and while ``may_be_header``, a first remaining
    line equal to the header; every other line holds exactly two tabs, and
    its score only the bytes of a decimal.  A fault raises ValueError,
    whose message is exact when ``raw`` is one line."""
    try:
        text = raw.translate(_NEWLINE_TO_TAB).decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("not valid UTF-8") from None
    codes = np.frombuffer(raw, dtype=np.uint8)
    tabs, ends = np.flatnonzero(codes == ord("\t")), np.flatnonzero(codes == ord("\n"))
    # two tabs a line in all, and the i-th pair after line i - 1 ends and before line i ends
    if tabs.size != 2 * ends.size or (tabs[1::2] > ends).any() or \
            (tabs[2::2] < ends[:-1]).any() or raw.startswith(b"#") or \
            (codes[ends[:-1] + 1] == ord("#")).any():
        starts = np.concatenate(([0], ends + 1))  # each line's, and the chunk's end
        columns = np.diff(np.searchsorted(tabs, ends), prepend=0) + 1
        # drop comments and empty lines, then the tab-less lines of whitespace
        keep = (codes[starts[:-1]] != ord("#")) & (ends > starts[:-1])
        if (tabless := np.flatnonzero(keep & (columns == 1))).size:  # a row of tabs is not blank
            lines = map(slice, starts[tabless].tolist(), ends[tabless].tolist())
            texts = b"\n".join(map(raw.__getitem__, lines)).decode().split("\n")
            keep[tabless] = list(map(bool, map(str.strip, texts)))
        if (wrong := columns[keep & (columns != 3)]).size:
            raise ValueError(f"expected 3 tab-separated columns, got {wrong[0]}")
        raw = codes[np.repeat(keep, np.diff(starts))].tobytes()  # the kept lines
        text = raw.translate(_NEWLINE_TO_TAB).decode("utf-8")
    if may_be_header and raw:
        may_be_header = False
        if raw.startswith(_HEADER_LINE):
            text = text[len(_HEADER_LINE):]
    fields = text.split("\t")
    del fields[-1]  # after the last line's end
    if "".join(fields[2::3]).encode().translate(None, _DECIMAL_BYTES):
        kind = "non-finite" if _NON_FINITE.fullmatch(fields[2]) else "unparseable"
        raise ValueError(f"column 3: {kind} score {fields[2]!r}")
    return fields, may_be_header


def _add_lines(path: str | Path, add: Callable[[bytes], None], raw: bytes, first: int) -> None:
    """Run ``add`` on each line of ``raw``, line ``first`` on: the first refused
    raises ScoreFileError."""
    for number, line in enumerate(raw.splitlines(keepends=True), first):
        try:
            add(line)
        except ValueError as exc:
            raise ScoreFileError(path, number, str(exc)) from None


def dump_scores(matrix: ScoreMatrix) -> bytes:
    """Serialize a matrix to the same TSV schema, sorted, with exact floats.
    An id the schema cannot hold ('#' leading a system id, a tab or line
    break anywhere, a lone surrogate, which UTF-8 cannot encode) raises
    ValueError naming its key."""
    lines = ["\t".join(HEADER_FIELDS)]
    for system, segment, score in sorted(matrix.items()):  # keys are unique: sorted by key
        ids = system + segment
        if system.startswith("#") or any(c in ids for c in "\t\r\n") or _SURROGATE.search(ids):
            raise ValueError(f"cannot write system={system!r} segment={segment!r} to a score file")
        lines.append(f"{system}\t{segment}\t{score!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def format_value(value: float | None) -> str:
    """Six significant digits; undefined renders as "NaN"."""
    return "NaN" if value is None else f"{float(value):.6g}"


def _cell(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_value(value)
    return str(value)


# Rows a report chunk holds at most.
_REPORT_ROWS = 1024
# The JSON writers below give what json.dumps(payload, indent=2) would, one
# header value or chunk of rows at a time, each laid out by json.dumps one level in.
_JSON_PAD = "\n  "


def _json_block(value: Any) -> str:
    """A value of the report's top-level object, its lines indented one level."""
    return json.dumps(value, ensure_ascii=False, indent=2).replace("\n", _JSON_PAD)


def _json_rows(columns: tuple[str, ...], chunks: Iterator[list[list[Any]]]) -> Iterator[str]:
    """``chunks`` of rows of scalars as the report's "results", objects keyed
    by ``columns``: each chunk's list without its brackets, joined by commas."""
    opening = "["
    for chunk in chunks:
        text = _json_block([dict(zip(columns, values)) for values in chunk])
        yield opening + text.removeprefix("[").removesuffix(_JSON_PAD + "]")
        opening = ","
    yield _JSON_PAD + "]" if opening == "," else "[]"


@dataclass
class ReportDocument:
    """One subcommand's output: metadata, a row table, and optional ranking.

    ``ranking`` is a permutation of metric names sorted by the requested
    statistic descending (undefined last, ties lexicographic); it is None
    when no single statistic was requested.  ``rows`` may be an iterator,
    which writing the report consumes.
    """

    version: str
    command: str
    inputs: dict[str, str]
    columns: tuple[str, ...]
    rows: Iterable[dict[str, Any]] = field(default_factory=list)
    ranking: list[str] | None = None


def rank_metrics(values: Mapping[str, float | None]) -> list[str]:
    """Names sorted by value descending; undefined last; ties lexicographic."""
    def key(name: str) -> tuple[int, float, str]:
        value = values[name]
        if value is None:
            return (1, 0.0, name)
        return (0, -value, name)
    return sorted(values, key=key)


def _table(doc: ReportDocument) -> Iterator[list[Any]]:
    """Each row's values in column order.  A row may hold other keys too;
    one without a column raises ValueError naming the column and the row,
    so a misspelt key cannot pass for an undefined value."""
    for index, row in enumerate(doc.rows):
        try:
            yield [row[col] for col in doc.columns]
        except KeyError as exc:
            raise ValueError(f"report row {index} has no column {exc.args[0]!r}") from None


def write_report(doc: ReportDocument, fmt: str = "tsv") -> Iterator[bytes]:
    """Serialize a report deterministically as TSV or JSON: its UTF-8 bytes
    in chunks, the header lines first, then at most ``_REPORT_ROWS`` rows a
    chunk.  An unknown format raises ValueError at the call."""
    if fmt not in ("tsv", "json"):
        raise ValueError(f"unknown report format {fmt!r} (known: tsv, json)")
    return (text.encode("utf-8") for text in _texts(doc, fmt))


def _texts(doc: ReportDocument, fmt: str) -> Iterator[str]:
    table = _table(doc)
    chunks = iter(lambda: list(islice(table, _REPORT_ROWS)), [])
    if fmt == "tsv":
        ranking = [] if doc.ranking is None else ["# ranking=" + ",".join(doc.ranking)]
        yield "\n".join([f"# version={doc.version}", f"# command={doc.command}",
                         *(f"# input:{label}={digest}" for label, digest in doc.inputs.items()),
                         *ranking, "\t".join(doc.columns), ""])
        for chunk in chunks:
            yield "".join("\t".join(map(_cell, values)) + "\n" for values in chunk)
        return
    # json.dumps(payload, ensure_ascii=False, indent=2), a value at a time
    head = {"version": doc.version, "command": doc.command, "inputs": doc.inputs,
            "columns": list(doc.columns)}
    yield "{" + "".join(f'{_JSON_PAD}"{key}": {_json_block(value)},'
                        for key, value in head.items()) + f'{_JSON_PAD}"results": '
    yield from _json_rows(doc.columns, chunks)
    yield f',{_JSON_PAD}"ranking": {_json_block(doc.ranking)}\n}}\n'
