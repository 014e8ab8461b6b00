#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

- runs every workload with tracing off and on, and checks that each result
  carries exactly the metrics BENCHMARK.json names, with their units, and
  that the correctness gate passes;
- checks that a trace target a refactor removed is reported as absent;
- injects wrong answers into copies of real outputs (a perturbed lambda, a
  perturbed RMSE) and checks that the oracle checks and the byte comparison
  catch each;
- runs the benchmark in a directory holding only BENCHMARK.json and the
  benchmark's files, where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import gate
import run
from tracer import Tracer

TINY = dict(n=40, n_v=10, noise_columns=60, psi_mc_columns=1000, p_ladder=(20, 60))


def tiny(w: run.Workload) -> run.Workload:
    return replace(w, **TINY, **({"proxy_columns": 60} if w.proxy_columns else {}))


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def perturb(path: Path, start: int, column: str, factor: float) -> None:
    """Multiply one cell of a per-block CSV, keeping 17 significant digits."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    for row in rows[1:]:
        if int(row[0]) == start:
            row[col] = format(float(row[col]) * factor, ".17g")
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def injected_failures(failures: list[str]) -> None:
    oracles = gate.load_oracles(run.ROOT)
    for name, column in (("crossval_ref", "lambda"), ("figure2_psi", "block_rmse")):
        w = tiny(run.WORKLOADS[name])
        work = run.WORK / "smoke" / name
        inputs = run.make_inputs(w, 1, work / "inject")
        good = work / "out000"
        bad = work / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        start = 3
        csv_name = ("blocks_proxies.csv" if w.command == "crossval"
                    else next(good.glob("blocks_kriging_*.csv")).name)
        perturb(bad / csv_name, start, column, 1.01)
        if w.command == "crossval":
            checks = gate.proxy_blocks(oracles, bad, inputs.X, inputs.y, w.n_v, [start])
        else:
            checks = gate.kriging_blocks(oracles, bad, inputs.y, run.PHI, w.n_v, [start])
        expect(not all(c.ok for c in checks),
               f"{name}: gate catches a perturbed {column} in block {start}", failures)
        changed = gate.identical_outputs(gate.digests(good), bad, "copy")
        expect(not all(c.ok for c in changed),
               f"{name}: byte comparison catches the edited copy", failures)


def refuses_bare_directory(failures: list[str]) -> None:
    bare = run.WORK / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crossval_ref",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}", failures)


def absent_targets_are_reported(failures: list[str]) -> None:
    run.import_package()
    tracer = Tracer()
    tracer.wrap("paleoxval.core", "no_such_function", "core.gone")
    tracer.wrap("paleoxval.limit", "NoSuchClass.estimate", "limit.gone")
    tracer.restore()
    expect(tracer.absent == ["paleoxval.core.no_such_function",
                             "paleoxval.limit.NoSuchClass.estimate"],
           f"removed trace targets reported as absent: {tracer.absent}", failures)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures: list[str] = []
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json lists exactly the workloads run.py defines", failures)
    for name, workload in run.WORKLOADS.items():
        for trace in (0, 1):
            result = run.measure(tiny(workload), 1, 0.0, bool(trace),
                                 run.WORK / "smoke" / name, setup_reps=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace] and all(
                       isinstance(v["value"], float) for v in result["metrics"].values()),
                   f"{name} trace={trace}: every metric emitted with its unit", failures)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: gate passes "
                   f"({result['failed']}/{result['attempted']} failed)", failures)
    absent_targets_are_reported(failures)
    injected_failures(failures)
    refuses_bare_directory(failures)
    print(f"{len(failures)} smoke failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
