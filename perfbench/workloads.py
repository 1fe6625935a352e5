"""The benchmark's workloads: a campaign shape, the CLI calls and a check.

Every workload is a fixed sequence of ``tiecal`` CLI calls over one
generated campaign.  Each call writes its report to a relative ``--out``
path, so the same argv can run in different working directories and the
reports compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from gen import CampaignSpec, MetricSpec


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``report`` is the relative path it writes."""

    label: str
    argv: tuple[str, ...]
    report: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    campaign: CampaignSpec
    calls: Callable[[dict[str, Path]], list[Call]]
    check: Callable[[dict[str, Path], dict[str, bytes], int], list[str]]
    size: Callable[[CampaignSpec], dict[str, int]]


def _metric_args(inputs: dict[str, Path]) -> list[str]:
    args = []
    for name, path in inputs.items():
        if name != "human.tsv":
            args += ["--metric", f"{name[:-len('.tsv')]}={path}"]
    return args


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# --- item-rank-calibrated -------------------------------------------------

_ITEM_METRICS = (
    tuple(MetricSpec(f"cont{i:02d}", "continuous", 0.5 + 0.15 * i) for i in range(9))
    + tuple(MetricSpec(f"disc{i:02d}", "discrete", 0.7 + 0.1 * i, levels)
            for i, levels in enumerate((3, 5, 7, 10, 25)))
    + tuple(MetricSpec(f"bleu{i:02d}", "bleu", 0.9 + 0.3 * i) for i in range(3))
)


def _item_calls(inputs: dict[str, Path]) -> list[Call]:
    argv = ("rank", "--human", str(inputs["human.tsv"]), *_metric_args(inputs),
            "--mode", "group-by-item", "--stat", "acc_eq", "--calibrate", "--baseline",
            "--out", "rank.tsv")
    return [Call("rank", argv, "rank.tsv")]


def _item_size(spec: CampaignSpec) -> dict[str, int]:
    sweeps = len(spec.metrics) + 1  # plus the Constant-Metric baseline
    return {"rows": spec.systems * spec.segments * (1 + len(spec.metrics)),
            "groups": spec.segments, "pairs": spec.segments * _pairs(spec.systems),
            "pair_passes": 2 * sweeps}  # a sweep and a verification each


ITEM_RANK = Workload(
    name="item-rank-calibrated",
    why="WMT'22 en-de shape: 18 exact sweeps over 1315 tiny item groups, "
        "so the per-pair sweep loop and 18x parse/align dominate",
    campaign=CampaignSpec(systems=15, segments=1315, metrics=_ITEM_METRICS),
    calls=_item_calls,
    check=lambda inputs, reports, seed: checks.check_item_rank(
        inputs, reports["rank"], seed),
    size=_item_size,
)


# --- pooled-correlate-all -------------------------------------------------

def _pooled_calls(inputs: dict[str, Path]) -> list[Call]:
    argv = ("correlate", "--human", str(inputs["human.tsv"]), *_metric_args(inputs),
            "--mode", "no-grouping", "--stat", "all", "--epsilon", "0.01",
            "--out", "correlate.tsv")
    return [Call("correlate", argv, "correlate.tsv")]


def _pooled_size(spec: CampaignSpec) -> dict[str, int]:
    n = spec.systems * spec.segments
    return {"rows": n * (1 + len(spec.metrics)), "groups": 1, "pairs": _pairs(n),
            "pair_passes": 8 * len(spec.metrics)}


POOLED_CORRELATE = Workload(
    name="pooled-correlate-all",
    why="one pooled group of 10,500 rows and no sweep: 16 statistic "
        "evaluations of 55M pairs each, so pair counting is nearly all the work",
    campaign=CampaignSpec(systems=15, segments=700, metrics=(
        MetricSpec("cont", "continuous", 0.8),
        MetricSpec("disc", "discrete", 0.9, levels=5),
    )),
    calls=_pooled_calls,
    check=lambda inputs, reports, seed: checks.check_pooled_correlate(
        inputs, reports["correlate"]),
    size=_pooled_size,
)


# --- system-calibrate-curves ----------------------------------------------

F1_GRID = "0,0.005,0.01,0.02,0.03,0.05,0.075,0.1,0.15,0.2"
HIST_EPSILON = "0.02"
HIST_BINS = "20"


def _system_calls(inputs: dict[str, Path]) -> list[Call]:
    common = ("--human", str(inputs["human.tsv"]), *_metric_args(inputs),
              "--mode", "group-by-system", "--eps-mode", "relative")
    return [
        Call("calibrate", ("calibrate", *common, "--stat", "acc_eq",
                           "--out", "calibrate.json", "--format", "json"), "calibrate.json"),
        Call("f1-curve", ("f1-curve", *common, "--eps-grid", F1_GRID,
                          "--out", "f1-curve.tsv"), "f1-curve.tsv"),
        Call("tie-hist", ("tie-hist", *common, "--epsilon", HIST_EPSILON,
                          "--bins", HIST_BINS, "--out", "tie-hist.tsv"), "tie-hist.tsv"),
    ]


def _system_size(spec: CampaignSpec) -> dict[str, int]:
    grid = len(F1_GRID.split(","))
    return {"rows": spec.systems * spec.segments * 2, "groups": spec.systems,
            "pairs": spec.systems * _pairs(spec.segments),
            "pair_passes": 2 + 3 * grid + 1}


SYSTEM_CURVES = Workload(
    name="system-calibrate-curves",
    why="15 large per-system groups of a BLEU-like metric in relative mode: "
        "a memory-heavy sweep with ~1e6 distinct gaps plus fixed-grid read-outs",
    campaign=CampaignSpec(systems=15, segments=400, metrics=(
        MetricSpec("bleu", "bleu", 1.0),
    )),
    calls=_system_calls,
    check=lambda inputs, reports, seed: checks.check_system_curves(
        inputs, reports, [float(e) for e in F1_GRID.split(",")],
        float(HIST_EPSILON), int(HIST_BINS)),
    size=_system_size,
)


WORKLOADS = {w.name: w for w in (ITEM_RANK, POOLED_CORRELATE, SYSTEM_CURVES)}
