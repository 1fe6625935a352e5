"""Score-file loading and deterministic report serialization.

Score files are UTF-8 TSV with three columns (system, segment, score), an
optional literal header line, and '#' comment lines.  Reports serialize to
TSV or JSON with stable ordering, floats at six significant digits, and
undefined values rendered as "NaN" (TSV) or null (JSON).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Mapping

from .grouping import ScoreMatrix

HEADER_FIELDS = ("system", "segment", "score")
# Characters of whole lines load_scores reads at a time.
_CHUNK_CHARS = 1 << 20


class ScoreFileError(ValueError):
    """A score file could not be read or parsed; carries file and line."""

    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def sha256_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_scores(path: str | Path) -> ScoreMatrix:
    """Parse a three-column score TSV into a ScoreMatrix.

    Rejects malformed rows, non-finite or unparseable scores, and duplicate
    (system, segment) keys, naming the offending line.  Chunks of lines are
    checked and converted at once; a failing chunk hands the file to the
    line-by-line parser.  Ids are interned: matrices share their strings.
    """
    entries: dict[tuple[str, str], float] = {}
    may_be_header = True
    try:
        with open(path, encoding="utf-8-sig") as handle:
            while text := "".join(handle.readlines(_CHUNK_CHARS)):
                lines = text.removesuffix("\n").split("\n")  # text mode ends lines with \n only
                if text.startswith("#") or "\n#" in text or text.count("\t") != 2 * len(lines):
                    # drop comments and blank lines; a row of tabs is not blank
                    lines = [line for line in lines
                             if not line.startswith("#") and ("\t" in line or line.strip())]
                if not set(map(str.count, lines, repeat("\t"))) <= {2}:
                    raise ValueError
                if may_be_header and lines:
                    may_be_header = False
                    if lines[0] == "\t".join(HEADER_FIELDS):
                        del lines[0]
                fields = "\t".join(lines).split("\t")
                texts = fields[2::3]
                # float() alone also takes padding, "_" separators and non-ASCII
                # digits; split() drops empty scores and splits at whitespace
                joined = "\t".join(texts)
                if not joined.isascii() or "_" in joined or joined.split() != texts:
                    raise ValueError
                scores = list(map(float, texts))
                del lines, texts  # fewer young lists for each garbage collection to scan
                rows = len(entries) + len(scores)
                entries.update(zip(zip(map(sys.intern, islice(fields, 0, None, 3)),
                                       map(sys.intern, islice(fields, 1, None, 3))), scores))
                if len(entries) != rows or not all(map(math.isfinite, scores)):
                    raise ValueError  # a duplicate key or a non-finite score
    except ValueError:  # UnicodeDecodeError included
        return _load_lines(path)
    return ScoreMatrix._from_checked(entries)


def _load_lines(path: str | Path) -> ScoreMatrix:
    """:func:`load_scores` one line at a time, raising the first error.  Lines
    split where text mode splits them and decode one by one: a bad byte is
    an error in its line's place."""
    entries: dict[tuple[str, str], float] = {}
    seen_data = False
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
        except UnicodeDecodeError:
            raise ScoreFileError(path, lineno, "not valid UTF-8") from None
        # a row of tabs is a row of empty columns, not a blank line
        if (not line.strip() and "\t" not in line) or line.startswith("#"):
            continue
        fields = line.split("\t")
        if not seen_data and tuple(fields) == HEADER_FIELDS:
            seen_data = True
            continue
        seen_data = True
        if len(fields) != 3:
            raise ScoreFileError(path, lineno,
                                 f"expected 3 tab-separated columns, got {len(fields)}")
        system, segment, text = fields
        try:
            # float() alone also takes padding, "_" separators and non-ASCII digits
            if not text.isascii() or "_" in text or text != text.strip():
                raise ValueError
            score = float(text)
        except ValueError:
            raise ScoreFileError(path, lineno,
                                 f"column 3: unparseable score {text!r}") from None
        if not math.isfinite(score):
            raise ScoreFileError(path, lineno, f"column 3: non-finite score {text!r}")
        if (system, segment) in entries:
            raise ScoreFileError(
                path, lineno, f"duplicate entry for system={system!r} segment={segment!r}")
        entries[system, segment] = score
    return ScoreMatrix._from_checked(entries)


def dump_scores(matrix: ScoreMatrix) -> bytes:
    """Serialize a matrix to the same TSV schema, sorted, with exact floats.
    An id the schema cannot hold ('#' leading a system id, a tab or line
    break anywhere) raises ValueError naming its key."""
    lines = ["\t".join(HEADER_FIELDS)]
    for system, segment in sorted(matrix.keys()):
        if system.startswith("#") or any(c in system + segment for c in "\t\r\n"):
            raise ValueError(f"cannot write system={system!r} segment={segment!r} to a score file")
        lines.append(f"{system}\t{segment}\t{matrix.get(system, segment)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def format_value(value: float | None) -> str:
    """Six significant digits; undefined renders as "NaN"."""
    return "NaN" if value is None else f"{float(value):.6g}"


def _round6(value: float) -> float:
    return float(f"{float(value):.6g}")


def _cell(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_value(value)
    return str(value)


def _json_value(value: Any) -> Any:
    if isinstance(value, float):
        return _round6(value)
    return value


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


def write_report(doc: ReportDocument, fmt: str = "tsv") -> bytes:
    """Serialize a report deterministically as TSV or JSON."""
    if fmt == "tsv":
        lines = [f"# version={doc.version}", f"# command={doc.command}"]
        for label, digest in doc.inputs.items():
            lines.append(f"# input:{label}={digest}")
        if doc.ranking is not None:
            lines.append("# ranking=" + ",".join(doc.ranking))
        lines.append("\t".join(doc.columns))
        for row in doc.rows:
            lines.append("\t".join(_cell(row.get(col)) for col in doc.columns))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        payload = {
            "version": doc.version,
            "command": doc.command,
            "inputs": doc.inputs,
            "columns": list(doc.columns),
            "results": [{col: _json_value(row.get(col)) for col in doc.columns}
                        for row in doc.rows],
            "ranking": doc.ranking,
        }
        return (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r} (known: tsv, json)")
