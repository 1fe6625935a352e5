"""Score-file loading and deterministic report serialization.

Score files are UTF-8 TSV with three columns (system, segment, score), an
optional literal header line, and '#' comment lines.  Reports serialize to
TSV or JSON with stable ordering, floats at six significant digits, and
undefined values rendered as "NaN" (TSV) or null (JSON).
"""

from __future__ import annotations

import codecs
import json
import re
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping

import numpy as np

from .grouping import ScoreMatrix

HEADER_FIELDS = ("system", "segment", "score")
_HEADER_LINE = "\t".join(HEADER_FIELDS).encode() + b"\n"
# Bytes load_scores reads at a time; it checks them as chunks of whole lines.
_CHUNK_CHARS = 1 << 20
_NEWLINE_TO_TAB = bytes.maketrans(b"\n", b"\t")
# The only bytes a score may hold to pass the byte test; float() decides the rest.
_DECIMAL_BYTES = b"0123456789.eE+-"
# Any lone surrogate: what surrogateescape makes of a byte that is not UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


class ScoreFileError(ValueError):
    """A score file could not be read or parsed; carries file and line."""

    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def load_scores(path: str | Path, like: ScoreMatrix | None = None,
                hasher: Any = None) -> ScoreMatrix:
    """Parse a three-column score TSV into a ScoreMatrix.

    Rejects malformed rows, non-finite or unparseable scores, duplicate
    (system, segment) keys and bytes that are not UTF-8, naming the first
    faulty line.  The file is opened once and read as bytes, whole lines
    about ``_CHUNK_CHARS`` bytes at a time; ``hasher`` (a hashlib object),
    if given, is updated with every byte read.  Each chunk of lines is
    checked and converted at once; a chunk that fails a check is run again
    from the state before it, one line at a time, up to its first faulty
    line.  Ids are interned: matrices share their strings.  A file whose
    rows list ``like``'s keys in order shares ``like``'s key list, which
    ``align`` pairs by position; from the first row that leaves that order,
    the file gets its own key list, checked as without ``like``.
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
        if may_be_header and raw.startswith(_HEADER_LINE):
            raw, may_be_header = raw[len(_HEADER_LINE):], False
        fields = _row_fields(raw)
        if fields is None:  # the byte tests cannot tell: the text rules decide
            text = raw.decode("utf-8", "surrogateescape")
            if not text.isascii() and _SURROGATE.search(text):  # a byte that is not UTF-8
                raise ValueError("not valid UTF-8")
            # drop comments and blank lines; a row of tabs is not blank
            lines = [line for line in text.removesuffix("\n").split("\n")
                     if not line.startswith("#") and ("\t" in line or line.strip())]
            if not set(map(str.count, lines, repeat("\t"))) <= {2}:
                columns = len(lines[0].split("\t"))
                raise ValueError(f"expected 3 tab-separated columns, got {columns}")
            if may_be_header and lines:
                may_be_header = False
                if lines[0] == "\t".join(HEADER_FIELDS):
                    del lines[0]
            if not lines:
                return
            fields = "\t".join(lines).split("\t")
            del lines  # fewer young lists for each garbage collection to scan
            # float() alone also takes padding, "_" separators and non-ASCII
            # digits; split() drops empty scores and splits at whitespace
            joined = "\t".join(fields[2::3])
            if not joined.isascii() or "_" in joined or joined.split() != fields[2::3]:
                raise ValueError(f"column 3: unparseable score {fields[2]!r}")
        elif not fields:
            return
        may_be_header = False
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


def _row_fields(raw: bytes) -> list[str] | None:
    """The fields of the lines of ``raw``, which each end in \\n, three a
    line, when byte tests show every line to be a row: none starts with '#',
    each holds exactly two tabs, the bytes are UTF-8, and the scores hold
    only the bytes of a decimal.  None when a test fails."""
    codes = np.frombuffer(raw, dtype=np.uint8)
    tabs, ends = np.flatnonzero(codes == ord("\t")), np.flatnonzero(codes == ord("\n"))
    # two tabs a line in all, and the i-th pair after line i - 1 ends and before line i ends
    if tabs.size != 2 * ends.size or (tabs[1::2] > ends).any() or \
            (tabs[2::2] < ends[:-1]).any() or raw.startswith(b"#") or \
            (codes[ends[:-1] + 1] == ord("#")).any():
        return None
    try:
        fields = raw.translate(_NEWLINE_TO_TAB).decode("utf-8").split("\t")
    except UnicodeDecodeError:
        return None
    del fields[-1]  # after the last line's end
    if "".join(fields[2::3]).encode().translate(None, _DECIMAL_BYTES):
        return None
    return fields


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


def _json_value(value: Any) -> Any:
    return float(format_value(value)) if isinstance(value, float) else value


# The JSON writers below lay out what json.dumps(indent=2) would, one level
# in, but encode through the C encoder, which json.dumps uses only without
# indent: the pure-Python one holds every token of the report in a list.
_JSON_PAD = "\n  "
_JSON_ROWS = 1024


def _json_block(value: Any) -> str:
    """A scalar, or a dict or list of scalars, as a value of the report's
    top-level object."""
    text = json.dumps(value, ensure_ascii=False, separators=("," + _JSON_PAD + "  ", ": "))
    if not isinstance(value, (dict, list)) or not value:
        return text
    return text[0] + _JSON_PAD + "  " + text[1:-1] + _JSON_PAD + text[-1]


def _json_rows(columns: tuple[str, ...], table: list[list[Any]]) -> Iterator[str]:
    """The rows of ``table``, whose values are scalars, as the report's
    "results": a list of objects keyed by ``columns``, ``_JSON_ROWS`` rows
    an encoder call.  No JSON
    string holds a raw line break, so between rows is the only place
    "},<line break>{" occurs."""
    if not columns or not table:
        yield _json_block([{}] * len(table))
        return
    inner = _JSON_PAD + "    "
    between = f"{_JSON_PAD}  }},{_JSON_PAD}  {{{inner}"
    yield f"[{_JSON_PAD}  {{{inner}"
    for start in range(0, len(table), _JSON_ROWS):
        rows = [dict(zip(columns, map(_json_value, values)))
                for values in table[start:start + _JSON_ROWS]]
        text = json.dumps(rows, ensure_ascii=False, separators=("," + inner, ": "))
        if start:
            yield between
        yield text[2:-2].replace("}," + inner + "{", between)
    yield f"{_JSON_PAD}  }}{_JSON_PAD}]"


@dataclass
class ReportDocument:
    """One subcommand's output: metadata, a row table, and optional ranking.

    ``ranking`` is a permutation of metric names sorted by the requested
    statistic descending (undefined last, ties lexicographic); it is None
    when no single statistic was requested.
    """

    version: str
    command: str
    inputs: dict[str, str]
    columns: tuple[str, ...]
    rows: list[dict[str, Any]] = field(default_factory=list)
    ranking: list[str] | None = None


def rank_metrics(values: Mapping[str, float | None]) -> list[str]:
    """Names sorted by value descending; undefined last; ties lexicographic."""
    def key(name: str) -> tuple[int, float, str]:
        value = values[name]
        if value is None:
            return (1, 0.0, name)
        return (0, -value, name)
    return sorted(values, key=key)


def _table(doc: ReportDocument) -> list[list[Any]]:
    """Each row's values in column order.  A row may hold other keys too;
    one without a column raises ValueError naming the column and the row,
    so a misspelt key cannot pass for an undefined value."""
    table = []
    for index, row in enumerate(doc.rows):
        try:
            table.append([row[col] for col in doc.columns])
        except KeyError as exc:
            raise ValueError(f"report row {index} has no column {exc.args[0]!r}") from None
    return table


def write_report(doc: ReportDocument, fmt: str = "tsv") -> bytes:
    """Serialize a report deterministically as TSV or JSON."""
    if fmt == "tsv":
        lines = [f"# version={doc.version}", f"# command={doc.command}"]
        for label, digest in doc.inputs.items():
            lines.append(f"# input:{label}={digest}")
        if doc.ranking is not None:
            lines.append("# ranking=" + ",".join(doc.ranking))
        lines.append("\t".join(doc.columns))
        for values in _table(doc):
            lines.append("\t".join(map(_cell, values)))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":  # json.dumps(payload, ensure_ascii=False, indent=2), laid out by hand
        head = {"version": doc.version, "command": doc.command, "inputs": doc.inputs,
                "columns": list(doc.columns)}
        parts = ["{"]
        for key, value in head.items():
            parts.append(f'{_JSON_PAD}"{key}": {_json_block(value)},')
        parts += [f'{_JSON_PAD}"results": ', *_json_rows(doc.columns, _table(doc)),
                  f',{_JSON_PAD}"ranking": {_json_block(doc.ranking)}\n}}\n']
        return "".join(parts).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r} (known: tsv, json)")
