"""Score-file loading and deterministic report serialization.

Score files are UTF-8 TSV with three columns (system, segment, score), an
optional literal header line, and '#' comment lines.  Reports serialize to
TSV or JSON with stable ordering, floats at six significant digits, and
undefined values rendered as "NaN" (TSV) or null (JSON).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .grouping import ScoreMatrix

HEADER_FIELDS = ("system", "segment", "score")
# Characters of whole lines load_scores reads at a time.
_CHUNK_CHARS = 1 << 20
# Any lone surrogate: what surrogateescape makes of a byte that is not UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


class ScoreFileError(ValueError):
    """A score file could not be read or parsed; carries file and line."""

    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def sha256_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_scores(path: str | Path, like: ScoreMatrix | None = None) -> ScoreMatrix:
    """Parse a three-column score TSV into a ScoreMatrix.

    Rejects malformed rows, non-finite or unparseable scores, duplicate
    (system, segment) keys and bytes that are not UTF-8, naming the first
    faulty line.  The file is read once, whole lines at a time, and each
    chunk of lines is checked and converted at once; a chunk that fails a
    check is run again from the state before it, one line at a time, up to
    its first faulty line.  Ids are interned: matrices share their strings.
    A file whose rows list ``like``'s keys in order shares ``like``'s key
    list, which ``align`` pairs by position; from the first row that leaves
    that order, the file gets its own key list, checked as without ``like``.
    """
    keys: tuple[list[str], list[str]] = ([], [])  # system and segment ids
    scores = array("d")
    seen = None if like is not None else set()  # None while the rows follow like's keys
    may_be_header = True

    def add(text: str) -> None:
        """Check and add the rows of ``text``, whole lines; a fault raises
        ValueError, whose message is exact when ``text`` is one line."""
        nonlocal keys, seen, may_be_header
        if not text.isascii() and _SURROGATE.search(text):  # a byte that is not UTF-8
            raise ValueError("not valid UTF-8")
        lines = text.removesuffix("\n").split("\n")  # text mode ends lines with \n only
        if text.startswith("#") or "\n#" in text or text.count("\t") != 2 * len(lines):
            # drop comments and blank lines; a row of tabs is not blank
            lines = [line for line in lines
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
        texts = fields[2::3]
        start = len(scores)
        try:
            # float() alone also takes padding, "_" separators and non-ASCII
            # digits; split() drops empty scores and splits at whitespace
            joined = "\t".join(texts)
            if not joined.isascii() or "_" in joined or joined.split() != texts:
                raise ValueError
            scores.extend(map(float, texts))
        except ValueError:
            raise ValueError(f"column 3: unparseable score {texts[0]!r}") from None
        if not np.isfinite(np.frombuffer(scores)[start:]).all():
            raise ValueError(f"column 3: non-finite score {texts[0]!r}")
        del lines, texts  # fewer young lists for each garbage collection to scan
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
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        while text := "".join(handle.readlines(_CHUNK_CHARS)):
            start, following, header = len(scores), seen is None, may_be_header
            try:
                add(text)
            except ValueError:  # back to the chunk's start, then line by line
                del scores[start:], keys[0][start:], keys[1][start:]
                seen, may_be_header = None if following else set(zip(*keys)), header
                _add_lines(path, add, text, read + 1)
            read += text.count("\n")
    if seen is None:  # like's keys, or its first rows
        if len(scores) == len(like):
            return like.with_scores(scores)
        keys = like._keys[0][:len(scores)], like._keys[1][:len(scores)]
    return ScoreMatrix._from_columns(keys, scores)


def _add_lines(path: str | Path, add: Callable[[str], None], text: str, first: int) -> None:
    """Run ``add`` on each line of ``text``, line ``first`` on: the first refused
    raises ScoreFileError."""
    for number, line in enumerate(text.removesuffix("\n").split("\n"), first):
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
    if fmt == "json":
        payload = {
            "version": doc.version,
            "command": doc.command,
            "inputs": doc.inputs,
            "columns": list(doc.columns),
            "results": [dict(zip(doc.columns, map(_json_value, values)))
                        for values in _table(doc)],
            "ranking": doc.ranking,
        }
        return (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r} (known: tsv, json)")
