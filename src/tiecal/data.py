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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .grouping import ScoreMatrix

HEADER_FIELDS = ("system", "segment", "score")


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
    (system, segment) keys, naming the offending line.
    """
    matrix = ScoreMatrix()
    seen_data = False
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
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
            if (system, segment) in matrix:
                raise ScoreFileError(path, lineno,
                                     f"duplicate entry for system={system!r} segment={segment!r}")
            matrix.add(system, segment, score)
    return matrix


def dump_scores(matrix: ScoreMatrix) -> bytes:
    """Serialize a matrix to the same TSV schema, sorted, with exact floats."""
    lines = ["\t".join(HEADER_FIELDS)]
    for system, segment in sorted(matrix.keys()):
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
