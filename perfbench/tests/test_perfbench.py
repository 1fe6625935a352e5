"""Self-tests of the benchmark: generator, output checks, span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

import gen
import run
import spans
from workloads import WORKLOADS

from tiecal.cli import main as cli_main

SMALL = {
    "item-rank-calibrated": gen.CampaignSpec(5, 40, (
        gen.MetricSpec("cont00", "continuous", 0.6),
        gen.MetricSpec("disc00", "discrete", 0.8, levels=4),
        gen.MetricSpec("bleu00", "bleu", 1.0),
    )),
    "pooled-correlate-all": gen.CampaignSpec(5, 40, (
        gen.MetricSpec("cont", "continuous", 0.8),
        gen.MetricSpec("disc", "discrete", 0.9, levels=5),
    )),
    "system-calibrate-curves": gen.CampaignSpec(4, 30, (
        gen.MetricSpec("bleu", "bleu", 1.0),
    )),
}


def run_small(name, tmp_path, seed=3):
    """Generate a small campaign, run the workload's calls in-process."""
    workload = dataclasses.replace(WORKLOADS[name], campaign=SMALL[name])
    inputs = gen.write_campaign(workload.campaign, seed, tmp_path / "inputs")
    reports = {}
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for call in workload.calls(inputs):
            assert cli_main(list(call.argv)) == 0
            reports[call.label] = (tmp_path / call.report).read_bytes()
    finally:
        os.chdir(cwd)
    return workload, inputs, reports


def test_generator_is_deterministic_for_a_seed():
    spec = SMALL["item-rank-calibrated"]
    assert gen.generate(spec, 7) == gen.generate(spec, 7)
    assert gen.generate(spec, 7) != gen.generate(spec, 8)


def test_generator_is_wmt_shaped():
    files = gen.generate(SMALL["pooled-correlate-all"], 1)
    human = [float(line.split(b"\t")[2]) for line in files["human.tsv"].splitlines()[1:]]
    disc = {line.split(b"\t")[2] for line in files["disc.tsv"].splitlines()[1:]}
    assert all(v <= 0 for v in human)
    assert sum(v == 0 for v in human) > len(human) / 3
    assert disc <= {b"0", b"1", b"2", b"3", b"4"}


def _tamper_tsv(payload, column, **match):
    """Shift one cell of the first row matching ``match`` by 0.01."""
    lines = payload.decode().splitlines()
    header = next(line.split("\t") for line in lines if not line.startswith("#"))
    col = header.index(column)
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if not line.startswith("#") and all(
                cells[header.index(k)] == v for k, v in match.items()):
            cells[col] = f"{float(cells[col]) - 0.01:.6g}"
            lines[i] = "\t".join(cells)
            return ("\n".join(lines) + "\n").encode()
    raise AssertionError("row not found")


def _tamper_json(payload):
    doc = json.loads(payload)
    doc["results"][0]["value"] -= 0.01
    return json.dumps(doc).encode()


@pytest.mark.parametrize("name, label, tamper", [
    ("item-rank-calibrated", "rank", lambda p: _tamper_tsv(p, "value", metric="cont00")),
    ("pooled-correlate-all", "correlate",
     lambda p: _tamper_tsv(p, "value", metric="disc", stat="tau_b")),
    ("system-calibrate-curves", "calibrate", _tamper_json),
    ("system-calibrate-curves", "f1-curve", lambda p: _tamper_tsv(p, "acc_eq", epsilon="0.02")),
])
def test_check_accepts_real_reports_and_rejects_a_tampered_one(tmp_path, name, label, tamper):
    workload, inputs, reports = run_small(name, tmp_path)
    assert workload.check(inputs, reports, 3) == []
    tampered = dict(reports, **{label: tamper(reports[label])})
    assert tampered[label] != reports[label]
    assert workload.check(inputs, tampered, 3) != []


def _span(id, name, start, end, parent=None, **attrs):
    return spans.Span(id, name, start, end, parent, attrs)


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "a.leaf", 2.0, 3.0, 1),
        _span(3, "b", 5.0, 9.0, 0),
        _span(4, "c", 8.0, 11.0, 0),  # overlaps b and outlives the root
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)


def test_span_store_nests_by_call_order():
    ticks = iter(range(100))
    store = spans.SpanStore(clock=lambda: float(next(ticks)))
    outer = store.open("outer")
    inner = store.open("inner")
    store.close(inner)
    store.close(outer)
    assert (inner.parent, outer.parent) == (outer.id, None)
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
    store.open("left-open")
    with pytest.raises(RuntimeError):
        store.close(outer)


def test_layer_metrics_split_calibrate_into_sweep_align_and_verify():
    doc = {"import_s": 0.5, "spans": [dataclasses.asdict(s) for s in [
        _span(0, "cli.main", 0.0, 12.0),
        _span(1, "data.load_scores", 0.0, 1.0, 0, rows=30),
        _span(2, "calibration.calibrate", 1.0, 11.0, 0, pairs=100, candidates=40,
              rss_growth_kb=2048),
        _span(3, "grouping.align", 1.0, 2.0, 2),
        _span(4, "grouping.grouped_stat", 9.0, 11.0, 2, groups_total=4, groups_used=3),
        _span(5, "grouping.align", 9.0, 9.5, 4),
        _span(6, "stats.suff_stats", 9.5, 10.5, 4, pairs=100),
    ]]}
    m = spans.layer_metrics([doc], overhead_s=0.25)
    assert set(m) == {lm.name for lm in spans.LAYER_METRICS}
    assert m["calibration.calibrate_s"] == pytest.approx(10.0)
    assert m["calibration.sweep_self_s"] == pytest.approx(7.0)
    assert m["calibration.verify_s"] == pytest.approx(2.0)
    assert m["calibration.candidates_per_pair"] == pytest.approx(0.4)
    assert m["calibration.peak_rss_growth_mb"] == pytest.approx(2.0)
    assert m["grouping.grouped_stat_self_s"] == pytest.approx(0.5)
    assert m["grouping.align_s"] == pytest.approx(1.5)
    assert m["grouping.groups_used_ratio"] == pytest.approx(0.75)
    assert m["stats.pairs_per_s"] == pytest.approx(100.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cli.import_s"] == 0.5
    assert m["trace.overhead_s"] == 0.25
    assert m["calibration.tie_hist_s"] == 0.0


def test_traced_and_untraced_reports_are_identical(tmp_path):
    workload = dataclasses.replace(WORKLOADS["system-calibrate-curves"],
                                   campaign=SMALL["system-calibrate-curves"])
    inputs = gen.write_campaign(workload.campaign, 5, tmp_path / "inputs")
    call = workload.calls(inputs)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for sub, prefix in (("plain", ["-m", "tiecal.cli"]),
                        ("traced", [str(BENCH / "spans.py"), "--spans", "t.json", "--"])):
        (tmp_path / sub).mkdir()
        subprocess.run([sys.executable, *prefix, *call.argv], cwd=tmp_path / sub, env=env,
                       check=True, stdout=subprocess.DEVNULL)
    assert (tmp_path / "plain" / call.report).read_bytes() == \
        (tmp_path / "traced" / call.report).read_bytes()
    doc = json.loads((tmp_path / "traced" / "t.json").read_text())
    names = {s["name"] for s in doc["spans"]}
    assert {"cli.main", "calibration.calibrate", "grouping.align",
            "grouping.grouped_stat", "stats.suff_stats", "data.load_scores"} <= names


def test_report_ledger_flags_a_changed_report_for_the_same_seed(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    source = tmp_path / "src" / "pkg" / "mod.py"
    source.write_text("x = 1\n")
    tally = run.Tally()
    ledger = run.ReportLedger(tmp_path)
    ledger.compare(tally, "w-1-call", b"report")   # first run: recorded, not compared
    ledger.compare(tally, "w-1-call", b"report")
    ledger.compare(tally, "w-1-call", b"changed")
    assert (tally.attempted, len(tally.failures)) == (2, 1)

    source.write_text("x = 2\n")  # another program version keeps its own digests
    fresh = run.ReportLedger(tmp_path)
    assert fresh.directory != ledger.directory
    fresh.compare(tally, "w-1-call", b"changed")
    assert tally.attempted == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in spans.LAYER_METRICS]
