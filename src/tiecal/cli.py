"""Command-line front end.

Subcommands: correlate, calibrate, rank, buckets, tie-hist, f1-curve,
perturb.  All outputs are plot-ready data tables (TSV or JSON); exit code
is 0 on success (undefined statistic values are results), 2 on usage or
input errors, 130 on an interrupt.  Each subcommand yields its outputs as
(destination, chunks) pairs, ``-`` or a path and an iterable of bytes;
``main`` writes each chunk as it is made.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from array import array
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

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
    write_report,
)
from .grouping import (
    CorrelationReport,
    GroupingMode,
    ScoreMatrix,
    bucketize,
    grouped_stats,
)
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
# The most --bins tie-hist takes: at about 60 B a bin, 166 MB peak RSS at the cap.
_MAX_BINS = 2**22

Outputs = Iterator[tuple[str, Iterable[bytes]]]  # what a subcommand yields

_REPORT_COLUMNS = (
    "metric", "stat", "mode", "eps_mode", "epsilon", "value",
    "groups_total", "groups_used", "pairs_total",
    "concordant", "discordant", "tied_human_only", "tied_metric_only", "tied_both",
)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so main reports them as one ``error:`` line."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _seed(text: str) -> int:
    """A perturb --seed value: the tie-breaking generator takes none below 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _bins(text: str) -> int:
    """A --bins value: a histogram has at least one bin and at most
    ``_MAX_BINS``, so another count is refused before any input is read."""
    try:
        bins = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= bins <= _MAX_BINS:
        bound = ">= 1" if bins < 1 else f"<= {_MAX_BINS}"
        raise argparse.ArgumentTypeError(f"bins must be {bound}, got {bins}")
    return bins


def _add_io_options(parser: argparse.ArgumentParser, multi_metric: bool,
                    out_help: str = "output path, '-' for stdout (default)") -> None:
    parser.add_argument("--human", required=True, metavar="FILE",
                        help="TSV file with the human scores")
    parser.add_argument("--metric", required=True, action="append", metavar="NAME=FILE",
                        help="metric name and its TSV score file"
                             + ("; repeatable" if multi_metric else ""))
    parser.add_argument("--out", default="-", metavar="FILE", help=out_help)
    parser.add_argument("--format", default="tsv", choices=("tsv", "json"),
                        help="report format (default tsv)")


# Options several subcommands take, each declared once.
_SHARED_OPTIONS: dict[str, dict[str, Any]] = {
    "--mode": dict(default="no-grouping", choices=[m.value for m in GroupingMode],
                   help="grouping for the segment-level statistic"),
    "--epsilon": dict(type=float, default=0.0, help="metric tie threshold (default 0)"),
    "--eps-mode": dict(default="absolute", choices=[m.value for m in EpsilonMode],
                       help="compare gaps absolutely or relative to score magnitude"),
}


def _add_shared_options(parser: argparse.ArgumentParser, *flags: str, note: str = "") -> None:
    for flag in flags:
        options = _SHARED_OPTIONS[flag]
        parser.add_argument(flag, **{**options, "help": options["help"] + note})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tiecal",
        description="Meta-evaluate metric scores against human scores with "
                    "tie-aware ranking statistics.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="compute statistics at a fixed threshold")
    _add_io_options(p, multi_metric=True)
    _add_shared_options(p, "--mode", "--epsilon", "--eps-mode")
    p.add_argument("--stat", default="acc_eq",
                   help="statistic name, comma list, or 'all' for the eight "
                        "overall statistics")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("calibrate", help="find the threshold maximizing a statistic")
    _add_io_options(p, multi_metric=True,
                    out_help="report path; the default '-' writes no report (each metric's "
                             "'metric=NAME epsilon=E STAT=VALUE' line is printed either way)")
    _add_shared_options(p, "--mode", "--eps-mode")
    p.add_argument("--stat", default="acc_eq", help="statistic to maximize")
    p.add_argument("--emit-epsilon", metavar="FILE",
                   help="also write 'metric<TAB>epsilon' rows to FILE for later reuse")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("rank", help="rank metrics by a statistic")
    _add_io_options(p, multi_metric=True)
    _add_shared_options(p, "--mode")
    _add_shared_options(p, "--epsilon", note="; not used with --calibrate")
    _add_shared_options(p, "--eps-mode")
    p.add_argument("--stat", default="acc_eq", help="statistic to rank by")
    p.add_argument("--calibrate", action="store_true",
                   help="calibrate the threshold per metric before ranking")
    p.add_argument("--baseline", action="store_true",
                   help=f"include a synthetic {BASELINE_NAME} row")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("buckets", help="statistic vs. equal-width score bucketing")
    _add_io_options(p, multi_metric=False)
    _add_shared_options(p, "--mode")
    p.add_argument("--stat", default="tau_b", help="statistic to evaluate per bucketing")
    p.add_argument("--k-list", default="64,32,16,8,4,2,1",
                   help="comma-separated bucket counts")
    p.set_defaults(func=_cmd_buckets)

    p = sub.add_parser("tie-hist", help="where a threshold introduces ties")
    _add_io_options(p, multi_metric=False)
    _add_shared_options(p, "--mode", "--epsilon", "--eps-mode")
    p.add_argument("--bins", type=_bins, default=10, help="histogram bins")
    p.set_defaults(func=_cmd_tie_hist)

    p = sub.add_parser("f1-curve", help="tie/rank F1 and accuracy along a threshold grid")
    _add_io_options(p, multi_metric=False)
    _add_shared_options(p, "--mode", "--eps-mode")
    p.add_argument("--eps-grid", required=True,
                   help="comma-separated thresholds to evaluate")
    p.set_defaults(func=_cmd_f1_curve)

    p = sub.add_parser("perturb", help="randomly break metric ties, writing rank scores")
    p.add_argument("--metric", required=True, action="append", metavar="NAME=FILE",
                   help="metric name and its TSV score file")
    p.add_argument("--out", default="-", metavar="FILE",
                   help="output path, '-' for stdout (default)")
    _add_shared_options(p, "--epsilon", "--eps-mode")
    p.add_argument("--seed", type=_seed, default=0, help="tie-breaking seed")
    p.set_defaults(func=_cmd_perturb)

    return parser


def _parse_metrics(specs: Sequence[str]) -> list[tuple[str, Path]]:
    metrics = []
    seen = set()
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--metric expects NAME=FILE, got {spec!r}")
        if any(c in name for c in "\t\r\n,"):
            raise ValueError(f"metric name {name!r} must not contain a tab, line break or comma")
        if name in seen:
            raise ValueError(f"duplicate metric name {name!r}")
        seen.add(name)
        metrics.append((name, Path(path)))
    return metrics


def _parse_stats(spec: str) -> list[StatKind]:
    if spec == "all":
        return list(OVERALL_STAT_KINDS)
    kinds = [StatKind.parse(part.strip()) for part in spec.split(",") if part.strip()]
    if not kinds:
        raise ValueError(f"--stat names no statistic: {spec!r}")
    return kinds


def _parse_list(spec: str, flag: str, convert: Callable[[str], Any]) -> list[Any]:
    try:
        return [convert(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:  # float and int name the bad entry
        raise ValueError(f"{flag}: {exc}") from None


def _one_metric(args: argparse.Namespace) -> tuple[str, Path]:
    """The --metric of a subcommand that takes exactly one."""
    if len(args.metric) != 1:
        raise ValueError(f"{args.command} takes exactly one --metric, got {len(args.metric)}")
    return _parse_metrics(args.metric)[0]


def _policy(args: argparse.Namespace) -> EpsilonPolicy:
    return EpsilonPolicy(args.epsilon, EpsilonMode(args.eps_mode))


def _load_inputs(human_path: str, metrics: Sequence[tuple[str, Path]]
                 ) -> tuple[ScoreMatrix, list[tuple[str, ScoreMatrix]], dict[str, str]]:
    # data.load_scores is looked up at call time, so a wrapper installed on
    # the data module (perfbench/spans.py) sees every file load.  Each
    # digest hashes the bytes its load read, so a pipe's digest is true too.
    hashers = {"human": hashlib.sha256()}
    human = data.load_scores(human_path, hasher=hashers["human"])
    loaded = []
    for name, path in metrics:
        hasher = hashers[f"metric:{name}"] = hashlib.sha256()
        loaded.append((name, data.load_scores(path, like=human, hasher=hasher)))
    return human, loaded, {label: hasher.hexdigest() for label, hasher in hashers.items()}


def _document(args: argparse.Namespace, digests: dict[str, str], columns: tuple[str, ...],
              rows: Iterable[dict[str, Any]], ranking: list[str] | None = None
              ) -> Iterator[bytes]:
    return write_report(ReportDocument(version=__version__, command=args.command, inputs=digests,
                                       columns=columns, rows=rows, ranking=ranking), args.format)


def _row(name: str, report: CorrelationReport, **extra: Any) -> dict[str, Any]:
    """Every report column that ``report`` fills, plus ``extra``; a command's
    column tuple picks the ones it writes."""
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
        **extra,
    }


def _cmd_correlate(args: argparse.Namespace) -> Outputs:
    kinds = _parse_stats(args.stat)
    mode = GroupingMode(args.mode)
    pol = _policy(args)
    human, metrics, digests = _load_inputs(args.human, _parse_metrics(args.metric))
    rows = [_row(name, report) for name, matrix in metrics
            for report in grouped_stats(human, matrix, mode, kinds, pol)]
    values = {row["metric"]: row["value"] for row in rows}
    ranking = rank_metrics(values) if len(kinds) == 1 else None
    yield args.out, _document(args, digests, _REPORT_COLUMNS, rows, ranking)


# Every calibration searches every candidate, so these columns read the same in
# every row; they stay in the report so that its layout is stable for readers.
_EXACT_SEARCH = {"sample_fraction": 1.0, "seed": 0, "exact": True}
_CALIBRATE_COLUMNS = (
    "metric", "stat", "mode", "eps_mode", *_EXACT_SEARCH,
    "candidates", "epsilon_star", "value", "groups_total", "groups_used", "pairs_total",
)


def _calibration_config(args: argparse.Namespace) -> CalibrationConfig:
    """The config that calibrate and rank --calibrate build from their flags;
    warns on stderr when its statistic does not reward correct ties."""
    config = CalibrationConfig(kind=StatKind.parse(args.stat), mode=GroupingMode(args.mode),
                               eps_mode=EpsilonMode(args.eps_mode))
    if config.kind in TIE_AVERSE_KINDS:
        print(f"warning: tie calibration with {config.kind.value} may lead to unexpected "
              "results; the statistic does not reward correctly predicted ties",
              file=sys.stderr)
    return config


def _cmd_calibrate(args: argparse.Namespace) -> Outputs:
    config = _calibration_config(args)
    human, metrics, digests = _load_inputs(args.human, _parse_metrics(args.metric))
    rows = []
    for name, matrix in metrics:
        result = calibrate(human, matrix, config)
        value_text = "NaN" if result.stat_star is None else f"{result.stat_star:.6f}"
        yield "-", [f"metric={name} epsilon={result.epsilon_star:.6g} "
                    f"{config.kind.value}={value_text}\n".encode("utf-8")]
        rows.append(_row(name, result.report, **_EXACT_SEARCH,
                         candidates=result.candidates_evaluated,
                         epsilon_star=result.epsilon_star))
    if args.out != "-":
        yield args.out, _document(args, digests, _CALIBRATE_COLUMNS, rows)
    if args.emit_epsilon:
        yield args.emit_epsilon, (f"{row['metric']}\t{row['epsilon_star']!r}\n".encode("utf-8")
                                  for row in rows)


_RANK_COLUMNS = ("rank", "metric", "stat", "mode", "value", "epsilon",
                 "groups_total", "groups_used")


def _cmd_rank(args: argparse.Namespace) -> Outputs:
    if args.calibrate:
        config = _calibration_config(args)
    else:
        kind, mode, pol = StatKind.parse(args.stat), GroupingMode(args.mode), _policy(args)
    human, metrics, digests = _load_inputs(args.human, _parse_metrics(args.metric))
    if args.baseline:
        if any(name == BASELINE_NAME for name, _ in metrics):
            raise ValueError(f"metric name {BASELINE_NAME!r} is reserved for --baseline")
        constant = human.with_scores(array("d", [0.0]) * len(human))
        metrics.append((BASELINE_NAME, constant))
    reports = {name: calibrate(human, matrix, config).report if args.calibrate
               else grouped_stats(human, matrix, mode, [kind], pol)[0]
               for name, matrix in metrics}
    ranking = rank_metrics({name: report.value for name, report in reports.items()})
    rows = [_row(name, reports[name], rank=position)
            for position, name in enumerate(ranking, start=1)]
    yield args.out, _document(args, digests, _RANK_COLUMNS, rows, ranking)


_BUCKET_COLUMNS = ("metric", "stat", "mode", "k", "value",
                   "groups_total", "groups_used", "pairs_total")


def _cmd_buckets(args: argparse.Namespace) -> Outputs:
    metric = _one_metric(args)
    kind = StatKind.parse(args.stat)
    mode = GroupingMode(args.mode)
    k_list = _parse_list(args.k_list, "--k-list", int)
    if not k_list or any(k < 1 for k in k_list):
        raise ValueError(f"--k-list must contain positive integers, got {args.k_list!r}")
    human, ((name, matrix),), digests = _load_inputs(args.human, [metric])
    rows = [_row(name, grouped_stats(human, bucketize(matrix, k), mode, [kind])[0], k=k)
            for k in k_list]
    yield args.out, _document(args, digests, _BUCKET_COLUMNS, rows)


_HIST_COLUMNS = ("bin_start", "bin_end", "all_pairs", "newly_tied")
_HIST_SLICE = 1024  # bins a tolist() converts at a time


def _cmd_tie_hist(args: argparse.Namespace) -> Outputs:
    metric = _one_metric(args)
    mode = GroupingMode(args.mode)
    pol = _policy(args)
    human, ((_, matrix),), digests = _load_inputs(args.human, [metric])
    hist = tie_location_histogram(human, matrix, pol, args.bins, mode)
    columns = (hist.bin_edges[:-1], hist.bin_edges[1:], hist.all_pairs, hist.newly_tied)
    rows = (dict(zip(_HIST_COLUMNS, row)) for start in range(0, args.bins, _HIST_SLICE)
            for row in zip(*(column[start:start + _HIST_SLICE].tolist() for column in columns)))
    yield args.out, _document(args, digests, _HIST_COLUMNS, rows)


_F1_COLUMNS = ("epsilon", "ties_f1", "rank_f1", "acc_eq")


def _cmd_f1_curve(args: argparse.Namespace) -> Outputs:
    metric = _one_metric(args)
    mode = GroupingMode(args.mode)
    eps_mode = EpsilonMode(args.eps_mode)
    grid = _parse_list(args.eps_grid, "--eps-grid", lambda text: EpsilonPolicy(float(text)).epsilon)
    if not grid:
        raise ValueError(f"--eps-grid names no threshold: {args.eps_grid!r}")
    human, ((_, matrix),), digests = _load_inputs(args.human, [metric])
    rows = [asdict(point) for point in f1_curve(human, matrix, mode, grid, eps_mode)]
    yield args.out, _document(args, digests, _F1_COLUMNS, rows)


def _cmd_perturb(args: argparse.Namespace) -> Outputs:
    _, path = _one_metric(args)
    pol = _policy(args)
    items = sorted(data.load_scores(path).items())  # keys are unique: sorted by key
    ranks = break_ties_randomly([score for *_, score in items], pol, seed=args.seed)
    yield args.out, [dump_scores(ScoreMatrix((system, segment, float(rank))
                                             for (system, segment, _), rank in zip(items, ranks)))]


def _stage(flag: str, path: Path) -> Path | None:
    """An empty temporary file beside the output ``path``, so that an output
    that cannot be written fails before any input is read; None for a link,
    a device or a pipe, which is written in place, since a rename would
    replace it."""
    if path.is_dir():
        raise ValueError(f"{flag} {path}: is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"{flag} {path}: no such directory {str(path.parent)!r}")
    if path.is_symlink() or (path.exists() and not path.is_file()):
        return None
    temp = path.with_name(f".{path.name}.{flag.lstrip('-')}-{os.getpid()}.tmp")
    try:
        temp.open("xb").close()
    except OSError as exc:
        raise ValueError(f"{flag} {path}: cannot write: {exc.strerror}") from None
    return temp


def main(argv: Sequence[str] | None = None) -> int:
    staged: dict[str, Path] = {}  # output path -> its temporary file
    try:
        args = build_parser().parse_args(argv)
        emit = getattr(args, "emit_epsilon", None)
        if emit == "-":
            raise ValueError("--emit-epsilon -: the epsilon file cannot go to stdout")
        if emit and args.out != "-" and Path(emit).resolve() == Path(args.out).resolve():
            raise ValueError(f"--emit-epsilon {emit}: the same file as --out")
        inputs = [("--human", getattr(args, "human", None)),
                  *(("--metric", spec.partition("=")[2]) for spec in args.metric)]
        for flag, path in (("--out", args.out), ("--emit-epsilon", emit)):
            for source, given in inputs if path not in (None, "-") and Path(path).is_file() else ():
                if given and Path(given).exists() and os.path.samefile(path, given):
                    raise ValueError(f"{flag} {path}: the same file as {source} {given}")
        # Each output path gets a temporary file, moved into place once every
        # output is ready: a failed run leaves no new or altered output.
        for flag, path in (("--out", args.out), ("--emit-epsilon", emit)):
            if path not in (None, "-") and (temp := _stage(flag, Path(path))) is not None:
                staged[path] = temp
        for dest, chunks in args.func(args):
            if dest == "-":
                sys.stdout.buffer.writelines(chunks)  # UTF-8 bytes, whatever the locale
                sys.stdout.buffer.flush()  # calibrate's lines show as each sweep ends
            else:  # a link, a device or a pipe has no temporary file
                with staged.get(dest, Path(dest)).open("wb") as handle:
                    handle.writelines(chunks)
        for path, temp in staged.items():
            os.replace(temp, path)
        return 0
    except (ScoreFileError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        for temp in staged.values():
            temp.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
