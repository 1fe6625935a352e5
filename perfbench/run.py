"""Benchmark of the ``tiecal`` CLI on seeded, WMT-shaped synthetic campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload item-rank-calibrated --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, tracing off

One parent process generates the workload's campaign from ``--seed``
(untimed), then runs the real CLI (``python -m tiecal.cli`` with
``PYTHONPATH=src``) in fresh child processes, one at a time, with
BLAS/OpenMP thread counts set to 1.  Wall time, CPU time and peak RSS of
each child come from ``os.wait4``.

``--trace 0`` repeats the workload's calls until ``--seconds`` have passed
(at least once) and reports the end-to-end metrics as medians over those
iterations; ``setup_s`` is the median over fresh processes that only
import ``tiecal`` and load every input.  ``--trace 1`` runs each call once
untraced and once through ``spans.py`` and reports the per-layer metrics.

Outputs are checked untimed: every child exits 0; reports are
byte-identical across iterations, between traced and untraced runs, and
with earlier runs of the same program source and seed in this checkout;
and ``checks.py`` recomputes each workload's results independently.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from gen import write_campaign
from spans import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, Call, Workload

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # children still running then are killed and count as failed
WORK_DIR = ".perfbench_work"
SPANS_SCRIPT = Path(__file__).resolve().with_name("spans.py")
SETUP_CODE = ("import sys, tiecal\n"
              "for path in sys.argv[1:]:\n"
              "    tiecal.load_scores(path)\n")


@dataclass(frozen=True)
class Usage:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int


@dataclass
class Tally:
    """Attempted and failed calls and checks, with the failure messages."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


class Runner:
    """Runs child processes one at a time and measures them with wait4."""

    def __init__(self, root: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.deadline = deadline

    def run(self, argv: list[str], cwd: Path) -> Usage:
        cwd.mkdir(parents=True, exist_ok=True)
        with open(cwd / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode)

    def cli(self, call: Call, cwd: Path) -> Usage:
        return self.run([sys.executable, "-m", "tiecal.cli", *call.argv], cwd)

    def traced(self, call: Call, cwd: Path, spans_path: Path) -> Usage:
        return self.run([sys.executable, str(SPANS_SCRIPT), "--spans", str(spans_path),
                         "--", *call.argv], cwd)


def _stderr_tail(cwd: Path) -> str:
    path = cwd / "stderr.txt"
    text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
    return " | ".join(text.strip().splitlines()[-3:])


def _ran(tally: Tally, usage: Usage, what: str, cwd: Path) -> bool:
    return tally.record(usage.status == 0,
                        f"{what} exited {usage.status}: {_stderr_tail(cwd)}")


def _read_reports(calls: list[Call], cwd: Path) -> dict[str, bytes]:
    return {c.label: (cwd / c.report).read_bytes() if (cwd / c.report).exists() else b""
            for c in calls}


def _check_outputs(tally: Tally, workload: Workload, inputs: dict[str, Path],
                   reports: dict[str, bytes], seed: int) -> None:
    try:
        failures = workload.check(inputs, reports, seed)
    except Exception as exc:  # a malformed report is a failed check, not a crash
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(not failures, "; ".join(failures))


def _identical(tally: Tally, label: str, payloads: list[bytes], what: str) -> None:
    tally.record(all(p == payloads[0] for p in payloads[1:]),
                 f"{label}: reports differ {what}")


class ReportLedger:
    """Report digests kept across runs in one checkout.

    Entries are keyed by a hash of the program and benchmark sources, the
    workload, the seed and the call, so a later run with the same seed must
    reproduce the same report bytes, and an edited program or generator
    starts a fresh ledger.
    """

    def __init__(self, root: Path):
        source = hashlib.sha256()
        bench = Path(__file__).resolve().parent
        for path in sorted([*(root / "src").rglob("*.py"), *bench.glob("*.py")]):
            source.update(path.name.encode() + b"\0")
            source.update(path.read_bytes())
        self.directory = root / WORK_DIR / "digests" / source.hexdigest()[:16]

    def compare(self, tally: Tally, key: str, payload: bytes) -> None:
        if not payload:  # the call failed; already counted
            return
        path = self.directory / f"{key}.sha256"
        digest = hashlib.sha256(payload).hexdigest()
        if path.exists():
            tally.record(path.read_text(encoding="ascii") == digest,
                         f"{key}: report differs from an earlier run with the same seed")
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(f"{path.name}.{os.getpid()}")
        partial.write_text(digest, encoding="ascii")
        os.replace(partial, path)


def measure_end_to_end(runner: Runner, ledger: ReportLedger, workload: Workload,
                       inputs: dict[str, Path], work: Path, seed: int, seconds: float,
                       tally: Tally) -> dict[str, float]:
    calls = workload.calls(inputs)
    setup = []
    for k in range(SETUP_REPEATS):
        cwd = work / f"setup{k}"
        usage = runner.run([sys.executable, "-c", SETUP_CODE, *map(str, inputs.values())], cwd)
        _ran(tally, usage, "setup", cwd)
        setup.append(usage.wall_s)

    walls, cpus, rss = [], [], []
    reports: list[dict[str, bytes]] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        cwd = work / f"iter{len(walls)}"
        usages = [runner.cli(call, cwd) for call in calls]
        ok = all([_ran(tally, u, c.label, cwd) for c, u in zip(calls, usages)])
        walls.append(sum(u.wall_s for u in usages))
        cpus.append(sum(u.cpu_s for u in usages))
        rss.append(max(u.rss_mb for u in usages))
        reports.append(_read_reports(calls, cwd))
        if not ok:
            break

    for call in calls:
        if len(reports) > 1:
            _identical(tally, call.label, [r[call.label] for r in reports], "across iterations")
        ledger.compare(tally, f"{workload.name}-{seed}-{call.label}", reports[0][call.label])
    _check_outputs(tally, workload, inputs, reports[0], seed)
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss), "setup_s": statistics.median(setup)}


def measure_layers(runner: Runner, ledger: ReportLedger, workload: Workload,
                   inputs: dict[str, Path], work: Path, seed: int,
                   tally: Tally) -> dict[str, float]:
    calls = workload.calls(inputs)
    plain, traced = work / "untraced", work / "traced"
    documents = []
    overhead = 0.0
    for call in calls:
        spans_path = work / f"{call.label}.spans.json"
        base = runner.cli(call, plain)
        ok = _ran(tally, base, call.label, plain)
        usage = runner.traced(call, traced, spans_path)
        ok = _ran(tally, usage, f"traced {call.label}", traced) and ok
        overhead += usage.wall_s - base.wall_s
        if spans_path.exists():
            documents.append(json.loads(spans_path.read_text(encoding="utf-8")))
        if not ok:
            break
    reports = _read_reports(calls, plain)
    traced_reports = _read_reports(calls, traced)
    for call in calls:
        _identical(tally, call.label, [reports[call.label], traced_reports[call.label]],
                   "between traced and untraced runs")
        ledger.compare(tally, f"{workload.name}-{seed}-{call.label}", reports[call.label])
    _check_outputs(tally, workload, inputs, reports, seed)
    return layer_metrics(documents, overhead)


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    runner = Runner(root, time.monotonic() + RUN_DEADLINE_S)
    ledger = ReportLedger(root)
    work = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    tally = Tally()
    try:
        inputs = write_campaign(workload.campaign, seed, work / "inputs")
        if trace:
            metrics = measure_layers(runner, ledger, workload, inputs, work, seed, tally)
        else:
            metrics = measure_end_to_end(runner, ledger, workload, inputs, work, seed,
                                         seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = ({m.name: m.unit for m in LAYER_METRICS} if trace else END_TO_END_UNITS)
    size = " ".join(f"{k}={v}" for k, v in workload.size(workload.campaign).items())
    print(f"{workload.name} seed={seed} trace={int(trace)}: {size}")
    moves = {m.name: m.moves for m in LAYER_METRICS}
    for name, value in metrics.items():
        note = f"  -> {moves[name]}" if trace else ""
        print(f"  {name:34s} {value:14.6f} {units[name]}{note}")
    failed = len(tally.failures)
    print(f"  {'error_rate':34s} {failed / tally.attempted:14.6f} "
          f"({failed} failed of {tally.attempted} calls and checks)")
    for message in tally.failures:
        print(f"  FAILED: {message}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the tiecal CLI.")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="minimum measuring time per --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tiecal" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/tiecal is missing", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
