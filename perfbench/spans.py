"""Per-layer tracing of the ``tiecal`` CLI from outside the program.

The traced run replays a CLI argv in-process through ``tiecal.cli.main``
after replacing each layer's public functions, at the module where they
are looked up, with wrappers that record a span (name, start, end,
parent) plus a few counts taken from the call's result.  Spans stay in
memory and are written as one JSON document when the call ends.  Nothing
inside the program changes, so the reports must be byte-identical to an
untraced call with the same argv.

Run one traced call (PYTHONPATH must reach the ``tiecal`` package)::

    python3 perfbench/spans.py --spans trace.json -- rank --human h.tsv ...

``layer_metrics`` turns the documents of a workload's calls into the
per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict[str, float] = field(default_factory=dict)


class SpanStore:
    """Spans of one single-threaded run, nested by call order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent=parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# What each traced call records from its result.  A result that lacks an
# attribute (the program changed shape) records nothing rather than failing.
Describe = Callable[[Any], dict[str, float]]

TARGETS: tuple[tuple[str, str, str, Describe | None], ...] = (
    ("tiecal.data", "load_scores", "data.load_scores", lambda r: {"rows": len(r)}),
    ("tiecal.cli", "write_report", "data.write_report", lambda r: {"bytes": len(r)}),
    ("tiecal.cli", "calibrate", "calibration.calibrate",
     lambda r: {"pairs": r.report.pairs_total, "candidates": r.candidates_evaluated}),
    ("tiecal.cli", "f1_curve", "calibration.f1_curve", None),
    ("tiecal.cli", "tie_location_histogram", "calibration.tie_hist", None),
    ("tiecal.cli", "grouped_stat", "grouping.grouped_stat",
     lambda r: {"groups_total": r.groups_total, "groups_used": r.groups_used}),
    ("tiecal.calibration", "grouped_stat", "grouping.grouped_stat",
     lambda r: {"groups_total": r.groups_total, "groups_used": r.groups_used}),
    ("tiecal.calibration", "align", "grouping.align", None),
    ("tiecal.grouping", "align", "grouping.align", None),
    ("tiecal.grouping", "suff_stats", "stats.suff_stats", lambda r: {"pairs": r.total}),
)
RSS_SPANS = frozenset({"calibration.calibrate"})


def _wrap(store: SpanStore, original: Callable, name: str,
          describe: Describe | None) -> Callable:
    track_rss = name in RSS_SPANS

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rss_before = _max_rss_kb() if track_rss else 0
        span = store.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            store.close(span)
        if track_rss:
            span.attrs["rss_growth_kb"] = _max_rss_kb() - rss_before
        if describe is not None:
            try:
                span.attrs.update(describe(result))
            except (AttributeError, TypeError):
                pass
        return result

    return wrapper


def install(store: SpanStore) -> list[str]:
    """Wrap every target that exists; returns the ones that do not."""
    missing = []
    for module_name, attr, name, describe in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(store, original, name, describe))
    return missing


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


LAYER_METRICS = (
    LayerMetric("calibration.sweep_self_s", "s", "lower",
                "wall_s, cpu_s on item-rank-calibrated and system-calibrate-curves; "
                "no change on pooled-correlate-all"),
    LayerMetric("calibration.calibrate_s", "s", "lower",
                "wall_s on item-rank-calibrated and system-calibrate-curves"),
    LayerMetric("calibration.verify_s", "s", "lower",
                "wall_s on item-rank-calibrated and system-calibrate-curves"),
    LayerMetric("calibration.pairs_swept", "count", "lower",
                "wall_s on item-rank-calibrated and system-calibrate-curves"),
    LayerMetric("calibration.candidates", "count", "lower",
                "wall_s on item-rank-calibrated and system-calibrate-curves"),
    LayerMetric("calibration.candidates_per_pair", "ratio", "lower",
                "wall_s on item-rank-calibrated and system-calibrate-curves"),
    LayerMetric("calibration.peak_rss_growth_mb", "MB", "lower",
                "peak_rss_mb on system-calibrate-curves; barely on item-rank-calibrated"),
    LayerMetric("stats.suff_stats_s", "s", "lower",
                "wall_s on pooled-correlate-all; about 4% of it on item-rank-calibrated"),
    LayerMetric("stats.suff_stats_calls", "count", "lower",
                "wall_s on pooled-correlate-all"),
    LayerMetric("stats.pairs_classified", "count", "lower",
                "wall_s on pooled-correlate-all"),
    LayerMetric("stats.pairs_per_s", "1/s", "higher",
                "wall_s on pooled-correlate-all"),
    LayerMetric("grouping.align_s", "s", "lower",
                "wall_s on item-rank-calibrated"),
    LayerMetric("grouping.align_calls", "count", "lower",
                "wall_s on item-rank-calibrated"),
    LayerMetric("grouping.grouped_stat_self_s", "s", "lower",
                "wall_s on item-rank-calibrated and pooled-correlate-all"),
    LayerMetric("grouping.grouped_stat_calls", "count", "lower",
                "wall_s on pooled-correlate-all, when one counts pass feeds all statistics"),
    LayerMetric("grouping.groups_total", "count", "lower",
                "input shape; should not change"),
    LayerMetric("grouping.groups_used_ratio", "ratio", "higher",
                "input shape; should not change"),
    LayerMetric("data.load_scores_s", "s", "lower",
                "setup_s on every workload; wall_s on item-rank-calibrated"),
    LayerMetric("data.rows_parsed", "count", "lower",
                "setup_s on every workload"),
    LayerMetric("data.write_report_s", "s", "lower",
                "wall_s on every workload"),
    LayerMetric("data.report_bytes", "bytes", "lower",
                "report size; should not change"),
    LayerMetric("calibration.f1_curve_self_s", "s", "lower",
                "wall_s on system-calibrate-curves only"),
    LayerMetric("calibration.tie_hist_s", "s", "lower",
                "wall_s on system-calibrate-curves only"),
    LayerMetric("cli.import_s", "s", "lower", "setup_s on every workload"),
    LayerMetric("cli.self_s", "s", "lower", "setup_s on every workload"),
    LayerMetric("trace.overhead_s", "s", "lower",
                "none: traced minus untraced wall time of the same argv"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(documents: Sequence[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics summed over the traced calls of one workload.

    Each document is what ``main`` writes for one call.  A layer that a
    workload never calls reads 0.
    """
    total: dict[str, float] = defaultdict(float)
    for doc in documents:
        spans = [Span(**s) for s in doc["spans"]]
        by_id = {s.id: s for s in spans}
        own = self_times(spans)
        total["cli.import_s"] += doc["import_s"]
        for span in spans:
            duration = span.end - span.start
            attrs = defaultdict(float, span.attrs)
            parent = by_id[span.parent].name if span.parent is not None else None
            if span.name == "cli.main":
                total["cli.self_s"] += own[span.id]
            elif span.name == "data.load_scores":
                total["data.load_scores_s"] += duration
                total["data.rows_parsed"] += attrs["rows"]
            elif span.name == "data.write_report":
                total["data.write_report_s"] += duration
                total["data.report_bytes"] += attrs["bytes"]
            elif span.name == "calibration.calibrate":
                total["calibration.calibrate_s"] += duration
                total["calibration.sweep_self_s"] += own[span.id]
                total["calibration.pairs_swept"] += attrs["pairs"]
                total["calibration.candidates"] += attrs["candidates"]
                total["calibration.peak_rss_growth_mb"] += attrs["rss_growth_kb"] / 1024.0
            elif span.name == "calibration.f1_curve":
                total["calibration.f1_curve_self_s"] += own[span.id]
            elif span.name == "calibration.tie_hist":
                total["calibration.tie_hist_s"] += duration
            elif span.name == "grouping.grouped_stat":
                if parent == "calibration.calibrate":
                    total["calibration.verify_s"] += duration
                total["grouping.grouped_stat_self_s"] += own[span.id]
                total["grouping.grouped_stat_calls"] += 1
                total["grouping.groups_total"] += attrs["groups_total"]
                total["grouping.groups_used"] += attrs["groups_used"]
            elif span.name == "grouping.align":
                total["grouping.align_s"] += duration
                total["grouping.align_calls"] += 1
            elif span.name == "stats.suff_stats":
                total["stats.suff_stats_s"] += duration
                total["stats.suff_stats_calls"] += 1
                total["stats.pairs_classified"] += attrs["pairs"]
    total["calibration.candidates_per_pair"] = _ratio(
        total["calibration.candidates"], total["calibration.pairs_swept"])
    total["stats.pairs_per_s"] = _ratio(total["stats.pairs_classified"],
                                        total["stats.suff_stats_s"])
    total["grouping.groups_used_ratio"] = _ratio(total["grouping.groups_used"],
                                                 total["grouping.groups_total"])
    total["trace.overhead_s"] = overhead_s
    return {m.name: float(total[m.name]) for m in LAYER_METRICS}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the span document")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER,
                        help="-- followed by the tiecal CLI arguments")
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    store = SpanStore()
    start = time.perf_counter()
    cli = importlib.import_module("tiecal.cli")
    import_s = time.perf_counter() - start
    for target in install(store):
        print(f"spans: {target} not found, not traced", file=sys.stderr)
    root = store.open("cli.main")
    try:
        code = cli.main(cli_argv)
    finally:
        store.close(root)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": [asdict(s) for s in store.spans]},
                      handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
