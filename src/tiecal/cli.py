"""Command-line front end.

Subcommands: correlate, calibrate, rank, buckets, tie-hist, f1-curve,
perturb.  All outputs are plot-ready data tables (TSV or JSON); exit code
is 0 on success (undefined statistic values are results, not failures) and
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Sequence

from . import __version__, data
from .calibration import (
    CalibrationConfig,
    calibrate,
    f1_curve,
    tie_location_histogram,
)
from .data import (
    ReportDocument,
    ScoreFileError,
    dump_scores,
    rank_metrics,
    sha256_digest,
    write_report,
)
from .grouping import GroupingMode, ScoreMatrix, bucketize, grouped_stat, grouped_stats
from .stats import (
    OVERALL_STAT_KINDS,
    EpsilonMode,
    EpsilonPolicy,
    StatKind,
    break_ties_randomly,
)

# Statistics that do not symmetrically reward correct tie predictions;
# calibrating them can pay off by discarding or converting pairs.
TIE_AVERSE_KINDS = frozenset({
    StatKind.TAU_A, StatKind.TAU_B, StatKind.TAU_C, StatKind.TAU_10,
    StatKind.TAU_13, StatKind.TAU_14, StatKind.TIES_P, StatKind.TIES_R,
    StatKind.RANK_P, StatKind.RANK_R,
})

BASELINE_NAME = "Constant-Metric"

_REPORT_COLUMNS = (
    "metric", "stat", "mode", "eps_mode", "epsilon", "value",
    "groups_total", "groups_used", "pairs_total",
    "concordant", "discordant", "tied_human_only", "tied_metric_only", "tied_both",
)


def _default_format() -> str:
    fmt = os.environ.get("TIECAL_FORMAT", "tsv")
    if fmt not in ("tsv", "json"):
        raise ValueError(f"TIECAL_FORMAT must be tsv or json, got {fmt!r}")
    return fmt


def _add_io_options(parser: argparse.ArgumentParser, multi_metric: bool) -> None:
    parser.add_argument("--human", required=True, metavar="FILE",
                        help="TSV file with the human scores")
    parser.add_argument("--metric", required=True, action="append", metavar="NAME=FILE",
                        help="metric name and its TSV score file"
                             + ("; repeatable" if multi_metric else ""))
    parser.add_argument("--out", default="-", metavar="FILE",
                        help="output path, '-' for stdout (default)")
    parser.add_argument("--format", choices=("tsv", "json"), default=_default_format(),
                        help="report format (default from TIECAL_FORMAT, else tsv)")


def _add_mode_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", default="no-grouping",
                        choices=[m.value for m in GroupingMode],
                        help="grouping for the segment-level statistic")


def _add_epsilon_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="metric tie threshold (default 0)")
    parser.add_argument("--eps-mode", default="absolute", choices=("absolute", "relative"),
                        help="compare gaps absolutely or relative to score magnitude")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiecal",
        description="Meta-evaluate metric scores against human scores with "
                    "tie-aware ranking statistics.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="compute statistics at a fixed threshold")
    _add_io_options(p, multi_metric=True)
    _add_mode_option(p)
    _add_epsilon_options(p)
    p.add_argument("--stat", default="acc_eq",
                   help="statistic name, comma list, or 'all' for the eight "
                        "overall statistics")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("calibrate", help="find the threshold maximizing a statistic")
    _add_io_options(p, multi_metric=True)
    _add_mode_option(p)
    p.add_argument("--stat", default="acc_eq", help="statistic to maximize")
    p.add_argument("--eps-mode", default="absolute", choices=("absolute", "relative"))
    p.add_argument("--sample-fraction", type=float, default=1.0,
                   help="fraction of pairs drawn as threshold candidates (1 = exact)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--emit-epsilon", metavar="FILE",
                   help="also write 'metric<TAB>epsilon' rows to FILE for later reuse")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("rank", help="rank metrics by a statistic")
    _add_io_options(p, multi_metric=True)
    _add_mode_option(p)
    _add_epsilon_options(p)
    p.add_argument("--stat", default="acc_eq", help="statistic to rank by")
    p.add_argument("--calibrate", action="store_true",
                   help="calibrate the threshold per metric before ranking")
    p.add_argument("--sample-fraction", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true",
                   help=f"include a synthetic {BASELINE_NAME} row")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("buckets", help="statistic vs. equal-width score bucketing")
    _add_io_options(p, multi_metric=False)
    _add_mode_option(p)
    p.add_argument("--stat", default="tau_b", help="statistic to evaluate per bucketing")
    p.add_argument("--k-list", default="64,32,16,8,4,2,1",
                   help="comma-separated bucket counts")
    p.set_defaults(func=_cmd_buckets)

    p = sub.add_parser("tie-hist", help="where a threshold introduces ties")
    _add_io_options(p, multi_metric=False)
    _add_mode_option(p)
    _add_epsilon_options(p)
    p.add_argument("--bins", type=int, default=10, help="histogram bins")
    p.set_defaults(func=_cmd_tie_hist)

    p = sub.add_parser("f1-curve", help="tie/rank F1 and accuracy along a threshold grid")
    _add_io_options(p, multi_metric=False)
    _add_mode_option(p)
    p.add_argument("--eps-grid", required=True,
                   help="comma-separated thresholds to evaluate")
    p.add_argument("--eps-mode", default="absolute", choices=("absolute", "relative"))
    p.set_defaults(func=_cmd_f1_curve)

    p = sub.add_parser("perturb", help="randomly break metric ties, writing rank scores")
    p.add_argument("--metric", required=True, action="append", metavar="NAME=FILE",
                   help="metric name and its TSV score file")
    p.add_argument("--out", default="-", metavar="FILE",
                   help="output path, '-' for stdout (default)")
    _add_epsilon_options(p)
    p.add_argument("--seed", type=int, default=0, help="tie-breaking seed")
    p.set_defaults(func=_cmd_perturb)

    return parser


def _parse_metrics(specs: Sequence[str]) -> list[tuple[str, Path]]:
    metrics = []
    seen = set()
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--metric expects NAME=FILE, got {spec!r}")
        if name in seen:
            raise ValueError(f"duplicate metric name {name!r}")
        seen.add(name)
        metrics.append((name, Path(path)))
    return metrics


def _parse_stats(spec: str) -> list[StatKind]:
    if spec == "all":
        return list(OVERALL_STAT_KINDS)
    return [StatKind.parse(part.strip()) for part in spec.split(",") if part.strip()]


def _require_one_metric(args: argparse.Namespace) -> None:
    if len(args.metric) != 1:
        raise ValueError(f"{args.command} takes exactly one --metric, got {len(args.metric)}")


def _load_inputs(args: argparse.Namespace) -> tuple[ScoreMatrix, list[tuple[str, ScoreMatrix]], dict[str, str]]:
    # data.load_scores is looked up at call time, so a wrapper installed on
    # the data module (perfbench/spans.py) sees every file load.
    human = data.load_scores(args.human)
    digests = {"human": sha256_digest(args.human)}
    loaded = []
    for name, path in _parse_metrics(args.metric):
        loaded.append((name, data.load_scores(path)))
        digests[f"metric:{name}"] = sha256_digest(path)
    return human, loaded, digests


def _emit(args: argparse.Namespace, payload: bytes) -> None:
    if args.out == "-":
        sys.stdout.write(payload.decode("utf-8"))
    else:
        Path(args.out).write_bytes(payload)


def _document(command: str, digests: dict[str, str], columns: tuple[str, ...],
              rows: list[dict[str, Any]], ranking: list[str] | None = None) -> ReportDocument:
    return ReportDocument(version=__version__, command=command, inputs=digests,
                          columns=columns, rows=rows, ranking=ranking)


def _report_row(name: str, report: Any) -> dict[str, Any]:
    pc = report.pairs_by_class
    return {
        "metric": name,
        "stat": report.kind.value,
        "mode": report.mode.value,
        "eps_mode": report.epsilon.mode.value,
        "epsilon": report.epsilon.epsilon,
        "value": report.value,
        "groups_total": report.groups_total,
        "groups_used": report.groups_used,
        "pairs_total": report.pairs_total,
        "concordant": pc.concordant,
        "discordant": pc.discordant,
        "tied_human_only": pc.tied_human,
        "tied_metric_only": pc.tied_metric,
        "tied_both": pc.tied_both,
    }


def _cmd_correlate(args: argparse.Namespace) -> int:
    kinds = _parse_stats(args.stat)
    mode = GroupingMode.parse(args.mode)
    pol = EpsilonPolicy(args.epsilon, EpsilonMode.parse(args.eps_mode))
    human, metrics, digests = _load_inputs(args)
    rows = []
    values: dict[str, float | None] = {}
    for name, matrix in metrics:
        for report in grouped_stats(human, matrix, mode, kinds, pol):
            rows.append(_report_row(name, report))
            values[name] = report.value
    ranking = rank_metrics(values) if len(kinds) == 1 else None
    doc = _document("correlate", digests, _REPORT_COLUMNS, rows, ranking)
    _emit(args, write_report(doc, args.format))
    return 0


_CALIBRATE_COLUMNS = (
    "metric", "stat", "mode", "eps_mode", "sample_fraction", "seed", "exact",
    "candidates", "epsilon_star", "value", "groups_total", "groups_used", "pairs_total",
)


def _warn_if_tie_averse(kind: StatKind) -> None:
    if kind in TIE_AVERSE_KINDS:
        print(f"warning: tie calibration with {kind.value} may lead to unexpected "
              "results; the statistic does not reward correctly predicted ties",
              file=sys.stderr)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    kind = StatKind.parse(args.stat)
    mode = GroupingMode.parse(args.mode)
    config = CalibrationConfig(
        kind=kind,
        mode=mode,
        eps_mode=EpsilonMode.parse(args.eps_mode),
        sample_fraction=args.sample_fraction,
        seed=args.seed,
    )
    _warn_if_tie_averse(kind)
    human, metrics, digests = _load_inputs(args)
    rows = []
    epsilon_lines = []
    for name, matrix in metrics:
        result = calibrate(human, matrix, config)
        value_text = "NaN" if result.stat_star is None else f"{result.stat_star:.6f}"
        print(f"metric={name} epsilon={result.epsilon_star:.6g} {kind.value}={value_text}")
        rows.append({
            "metric": name,
            "stat": kind.value,
            "mode": mode.value,
            "eps_mode": config.eps_mode.value,
            "sample_fraction": config.sample_fraction,
            "seed": config.seed,
            "exact": result.exact,
            "candidates": result.candidates_evaluated,
            "epsilon_star": result.epsilon_star,
            "value": result.stat_star,
            "groups_total": result.report.groups_total,
            "groups_used": result.report.groups_used,
            "pairs_total": result.report.pairs_total,
        })
        epsilon_lines.append(f"{name}\t{result.epsilon_star!r}\n")
    if args.emit_epsilon:
        Path(args.emit_epsilon).write_text("".join(epsilon_lines), encoding="utf-8")
    if args.out != "-":
        doc = _document("calibrate", digests, _CALIBRATE_COLUMNS, rows)
        _emit(args, write_report(doc, args.format))
    return 0


_RANK_COLUMNS = ("rank", "metric", "stat", "mode", "value", "epsilon",
                 "groups_total", "groups_used")


def _cmd_rank(args: argparse.Namespace) -> int:
    kind = StatKind.parse(args.stat)
    mode = GroupingMode.parse(args.mode)
    eps_mode = EpsilonMode.parse(args.eps_mode)
    if args.calibrate:
        _warn_if_tie_averse(kind)
    human, metrics, digests = _load_inputs(args)
    if args.baseline:
        if any(name == BASELINE_NAME for name, _ in metrics):
            raise ValueError(f"metric name {BASELINE_NAME!r} is reserved for --baseline")
        constant = ScoreMatrix((system, segment, 0.0) for system, segment in human.keys())
        metrics = list(metrics) + [(BASELINE_NAME, constant)]
    values: dict[str, float | None] = {}
    details: dict[str, dict[str, Any]] = {}
    for name, matrix in metrics:
        if args.calibrate:
            config = CalibrationConfig(kind=kind, mode=mode, eps_mode=eps_mode,
                                       sample_fraction=args.sample_fraction, seed=args.seed)
            result = calibrate(human, matrix, config)
            report = result.report
            epsilon = result.epsilon_star
        else:
            report = grouped_stat(human, matrix, mode, kind, EpsilonPolicy(args.epsilon, eps_mode))
            epsilon = args.epsilon
        values[name] = report.value
        details[name] = {
            "metric": name,
            "stat": kind.value,
            "mode": mode.value,
            "value": report.value,
            "epsilon": epsilon,
            "groups_total": report.groups_total,
            "groups_used": report.groups_used,
        }
    ranking = rank_metrics(values)
    rows = []
    for position, name in enumerate(ranking, start=1):
        row = {"rank": position}
        row.update(details[name])
        rows.append(row)
    doc = _document("rank", digests, _RANK_COLUMNS, rows, ranking)
    _emit(args, write_report(doc, args.format))
    return 0


_BUCKET_COLUMNS = ("metric", "stat", "mode", "k", "value",
                   "groups_total", "groups_used", "pairs_total")


def _cmd_buckets(args: argparse.Namespace) -> int:
    _require_one_metric(args)
    kind = StatKind.parse(args.stat)
    mode = GroupingMode.parse(args.mode)
    k_list = [int(part) for part in args.k_list.split(",") if part.strip()]
    if not k_list or any(k < 1 for k in k_list):
        raise ValueError(f"--k-list must contain positive integers, got {args.k_list!r}")
    human, metrics, digests = _load_inputs(args)
    (name, matrix), = metrics
    rows = []
    for k in k_list:
        report = grouped_stat(human, bucketize(matrix, k), mode, kind, 0.0)
        rows.append({
            "metric": name,
            "stat": kind.value,
            "mode": mode.value,
            "k": k,
            "value": report.value,
            "groups_total": report.groups_total,
            "groups_used": report.groups_used,
            "pairs_total": report.pairs_total,
        })
    doc = _document("buckets", digests, _BUCKET_COLUMNS, rows)
    _emit(args, write_report(doc, args.format))
    return 0


_HIST_COLUMNS = ("bin_start", "bin_end", "all_pairs", "newly_tied")


def _cmd_tie_hist(args: argparse.Namespace) -> int:
    _require_one_metric(args)
    mode = GroupingMode.parse(args.mode)
    pol = EpsilonPolicy(args.epsilon, EpsilonMode.parse(args.eps_mode))
    human, metrics, digests = _load_inputs(args)
    (_, matrix), = metrics
    hist = tie_location_histogram(human, matrix, pol, args.bins, mode)
    rows = []
    for i in range(len(hist.all_pairs)):
        rows.append({
            "bin_start": float(hist.bin_edges[i]),
            "bin_end": float(hist.bin_edges[i + 1]),
            "all_pairs": int(hist.all_pairs[i]),
            "newly_tied": int(hist.newly_tied[i]),
        })
    doc = _document("tie-hist", digests, _HIST_COLUMNS, rows)
    _emit(args, write_report(doc, args.format))
    return 0


_F1_COLUMNS = ("epsilon", "ties_f1", "rank_f1", "acc_eq")


def _cmd_f1_curve(args: argparse.Namespace) -> int:
    _require_one_metric(args)
    mode = GroupingMode.parse(args.mode)
    eps_mode = EpsilonMode.parse(args.eps_mode)
    grid = [float(part) for part in args.eps_grid.split(",") if part.strip()]
    human, metrics, digests = _load_inputs(args)
    (_, matrix), = metrics
    rows = [{
        "epsilon": point.epsilon,
        "ties_f1": point.ties_f1,
        "rank_f1": point.rank_f1,
        "acc_eq": point.acc_eq,
    } for point in f1_curve(human, matrix, mode, grid, eps_mode)]
    doc = _document("f1-curve", digests, _F1_COLUMNS, rows)
    _emit(args, write_report(doc, args.format))
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    _require_one_metric(args)
    pol = EpsilonPolicy(args.epsilon, EpsilonMode.parse(args.eps_mode))
    ((_, path),) = _parse_metrics(args.metric)
    matrix = data.load_scores(path)
    keys = sorted(matrix.keys())
    scores = [matrix.get(*key) for key in keys]
    ranks = break_ties_randomly(scores, pol, seed=args.seed)
    perturbed = ScoreMatrix((system, segment, float(rank))
                            for (system, segment), rank in zip(keys, ranks))
    _emit(args, dump_scores(perturbed))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ScoreFileError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
