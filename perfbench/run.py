#!/usr/bin/env python3
"""Benchmark of the ``paleo-xval`` command line, run in-process.

    python3 perfbench/run.py --workload crossval_ref --seed 1 --seconds 32 --trace 0

Each workload is one real command (``crossval``, ``figure2`` or ``limit``)
called through ``paleoxval.cli.main`` with a config and input CSVs that are
generated here from ``--seed``. The command is invoked repeatedly (a closed
loop: the next invocation starts when the previous one returns) until the
next would overrun ``--seconds``; timings are medians over invocations.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced invocations with traced ones, in which the
package's functions are wrapped from outside (see ``tracer.py``), and
reports per-layer self times and counts. After the timed region the
correctness gate (``gate.py``) checks the outputs. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os


# One BLAS thread, set before numpy loads. The per-block problems are small:
# on 2 vCPUs a second OpenBLAS thread doubled the CPU time by spin-waiting and
# in one test let invocation walls drift from 3.4 s to 5.4 s within a minute,
# where one thread held 4.0-4.3 s.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io as _io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REQUIRED = (SRC / "paleoxval" / "cli.py", ROOT / "tests" / "oracles.py",
            ROOT / "BENCHMARK.json")

# The first invocation in a process pays one-time costs (allocator growth,
# lazy imports) and ran 5-15% slower than the rest; it is checked by the gate
# but left out of the timings. Two timed invocations follow at least.
WARMUP = 1
MIN_INVOCATIONS = WARMUP + 2
SETUP_REPS = 3
ORACLE_BLOCKS = 3
PROXY_PHI = 0.9          # AR(1) persistence of the generated proxy CSV
PHI = 0.99               # the AR(1) phi of the limit, kriging and noise runs


@dataclass(frozen=True)
class Workload:
    """One ``paleo-xval`` command and the inputs generated for it."""

    command: str
    n: int = 149
    n_v: int = 30
    proxy_columns: int = 0          # > 0: an AR(1) proxy CSV this wide is written
    noise_experiments: tuple = ()
    noise_columns: int = 1138
    psi_mc_columns: int = 1000
    p_ladder: tuple = (100,)        # limit: one member per rung

    @property
    def n_blocks(self) -> int:
        return self.n - self.n_v + 1

    @property
    def blocks(self) -> int:
        """Holdout-block reconstructions one invocation attempts."""
        if self.command == "crossval":
            return (1 + len(self.noise_experiments)) * self.n_blocks
        if self.command == "figure2":   # one white and one AR(1) member, limit, kriging
            return 4 * self.n_blocks
        return (1 + len(self.p_ladder)) * self.n_blocks

    @property
    def psi_pool_bytes(self) -> int:
        return 0 if self.command == "crossval" else self.n * self.psi_mc_columns * 8


# Why each workload exists is in BENCHMARK.json, its measured layer shares in
# README.md. Sizes are chosen so that every workload fits several invocations
# into one 32 s run.
WORKLOADS = {
    "crossval_ref": Workload(
        command="crossval",
        proxy_columns=1138,
        noise_experiments=({"kind": "white"}, {"kind": "ar1", "phi": PHI},
                           {"kind": "brownian"}),
    ),
    "figure2_psi": Workload(
        command="figure2",
        psi_mc_columns=8000,
    ),
    "limit_widep": Workload(
        command="limit",
        psi_mc_columns=2000,
        p_ladder=(100, 1000, 10_000),
    ),
}

# --- inputs -----------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    config: Path
    y: np.ndarray
    X: np.ndarray | None


def import_package():
    """Import paleoxval from this checkout's ``src/``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paleoxval
    if not Path(paleoxval.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"paleoxval imported from {paleoxval.__file__}, not {SRC}")
    return paleoxval


def make_inputs(w: Workload, seed: int, work_dir: Path) -> Inputs:
    """Write the target, the proxy CSV (if any) and the config from ``seed``."""
    px = import_package()
    from paleoxval import io as pio

    target_seed, proxy_seed, run_seed = (int(s) for s in
                                         np.random.SeedSequence(seed).generate_state(3))
    work_dir.mkdir(parents=True, exist_ok=True)
    y = px.smooth_target(w.n, seed=target_seed)
    pio.save_target(y, work_dir / "target.csv")
    X = None
    source = {"noise": {"kind": "white"}}
    if w.proxy_columns:
        proxies = px.generate(px.NoiseSpec(kind="ar1", n=w.n, p=w.proxy_columns,
                                           seed=proxy_seed, phi=PROXY_PHI))
        pio.save_proxies(proxies, y.years, work_dir / "proxies.csv")
        X = np.array(proxies.data)
        source = {"file": "proxies.csv"}
    config = {
        "target": "target.csv",
        "proxy_source": source,
        "noise_experiments": list(w.noise_experiments),
        "n_v": w.n_v,
        "ensemble_size": 1,
        "seed": run_seed,
        "phi_list": [PHI],
        "psi_mc_columns": w.psi_mc_columns,
        "noise_columns": w.noise_columns,
        "p_ladder": list(w.p_ladder),
        "limit_repeats": 1,
        "mode": "permissive",
        "output_dir": "out",
    }
    path = work_dir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return Inputs(config=path, y=np.array(y.values), X=X)


def timed_setup(w: Workload, seed: int, work_dir: Path, reps: int) -> tuple[float, Inputs]:
    """Median over ``reps`` of a fresh-process package import plus input generation."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import paleoxval.cli"
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=120)
        inputs = make_inputs(w, seed, work_dir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), inputs


# --- tracing ----------------------------------------------------------------

def _columns(args, result):
    return {"columns": args[0].p}


def _cells(args, result):
    return {"cells": args[0].data.size}


def _gram_gflop(args, result):
    n, p = args[0].data.shape
    return {"gflop": n * n * p / 1e9}


def _gcv(args, result):
    return {"evals": result.n_evals, "flat": int(result.flat),
            "at_boundary": int(result.at_boundary)}


def _psi_gflop(args, result):
    estimator = args[0]
    return {"gflop": estimator.n ** 2 * estimator.P / 1e9}


def _read_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, result):
    paths = result if isinstance(result, list) else [result]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def trace_targets(command: str) -> list[tuple]:
    """(module, attribute path, span name, counter) for every wrapped call."""
    cli, crossval, limit, io = ("paleoxval.cli", "paleoxval.crossval",
                                "paleoxval.limit", "paleoxval.io")
    return [
        (cli, f"COMMANDS.{command}", "cli.command", None),
        (cli, "generate", "noise.generate", _columns),
        (crossval, "generate", "noise.generate", _columns),
        (limit, "generate", "noise.generate", _columns),
        (crossval, "standardize", "core.standardize", _cells),
        (crossval, "gram_matrix", "core.gram_matrix", _gram_gflop),
        (crossval, "reconstruct", "core.reconstruct", None),
        (crossval, "minimize_gcv", "gcv.minimize_gcv", _gcv),
        (limit, "minimize_gcv", "gcv.minimize_gcv", _gcv),
        (crossval, "run_block", "crossval.run_block", None),
        (cli, "run_experiment", "crossval.run_experiment", None),
        (crossval, "run_experiment", "crossval.run_experiment", None),
        (crossval, "reconstruct_with_gcv", "crossval.reconstruct_with_gcv", None),
        (limit, "reconstruct_with_gcv", "crossval.reconstruct_with_gcv", None),
        (limit, "PsiEstimator.__init__", "limit.PsiEstimator.init", None),
        (limit, "PsiEstimator.estimate", "limit.PsiEstimator.estimate", _psi_gflop),
        (limit, "simple_kriging", "limit.simple_kriging", None),
        (io, "load_proxies", "io.load_proxies", _read_bytes),
        (io, "write_report", "io.write_report", _written_bytes),
        (io, "write_manifest", "io.write_manifest", _written_bytes),
        (cli, "write_svg", "svgplot.write_svg", _written_bytes),
    ]


def layer_metrics(tracer: Tracer, invocation: int, wall: float, dropped: int) -> dict:
    """Per-layer metrics of one traced invocation."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    n_spans = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.invocation != invocation:
            continue
        n_spans += 1
        self_s[span.name] += own
        calls[span.name] += 1
        durations[span.name].append(span.duration)
        for key, value in span.attrs.items():
            counts[f"{span.name}.{key}"] += value
    members = durations["crossval.run_experiment"]
    gen_s = self_s["noise.generate"]
    return {
        "gcv.minimize_gcv.self_s": self_s["gcv.minimize_gcv"],
        "gcv.minimize_gcv.calls": calls["gcv.minimize_gcv"],
        "gcv.evals": counts["gcv.minimize_gcv.evals"],
        "gcv.flat": counts["gcv.minimize_gcv.flat"],
        "gcv.at_boundary": counts["gcv.minimize_gcv.at_boundary"],
        "core.standardize.self_s": self_s["core.standardize"],
        "core.standardize.cells": counts["core.standardize.cells"],
        "core.gram_matrix.self_s": self_s["core.gram_matrix"],
        "core.gram_matrix.gflop": counts["core.gram_matrix.gflop"],
        "core.reconstruct.self_s": self_s["core.reconstruct"],
        "limit.PsiEstimator.init_s": sum(durations["limit.PsiEstimator.init"]),
        "limit.PsiEstimator.estimate.self_s": self_s["limit.PsiEstimator.estimate"],
        "limit.psi.gflop": counts["limit.PsiEstimator.estimate.gflop"],
        "limit.simple_kriging.self_s": self_s["limit.simple_kriging"],
        "noise.generate.self_s": gen_s,
        "noise.columns": counts["noise.generate.columns"],
        "noise.columns_per_s": counts["noise.generate.columns"] / gen_s if gen_s else 0.0,
        "crossval.run_block.self_s": self_s["crossval.run_block"],
        "crossval.reconstruct_with_gcv.self_s": self_s["crossval.reconstruct_with_gcv"],
        "crossval.run_experiment.calls": calls["crossval.run_experiment"],
        "crossval.member_s.median": statistics.median(members) if members else 0.0,
        "crossval.member_s.max": max(members, default=0.0),
        "crossval.failed_blocks": dropped,
        "io.load_proxies.self_s": self_s["io.load_proxies"],
        "io.load_proxies.bytes": counts["io.load_proxies.bytes"],
        "io.write.self_s": self_s["io.write_report"] + self_s["io.write_manifest"],
        "io.write.bytes": counts["io.write_report.bytes"] + counts["io.write_manifest.bytes"],
        "svgplot.write_svg.self_s": self_s["svgplot.write_svg"],
        "svgplot.bytes": counts["svgplot.write_svg.bytes"],
        "cli.command.self_s": self_s["cli.command"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(v for k, v in self_s.items() if k != "cli.command"),
        "trace.spans": n_spans,
    }


# --- invocations --------------------------------------------------------------

class DropCounter(logging.Handler):
    """Counts the blocks a permissive run records as failed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.dropped = 0

    def emit(self, record):
        if record.getMessage().startswith("dropping block"):
            self.dropped += 1


@dataclass
class Invocation:
    wall: float
    traced: bool
    out_dir: Path
    exit_code: int
    dropped: int


def invoke(w: Workload, inputs: Inputs, out_dir: Path, drops: DropCounter,
           tracer: Tracer | None, index: int) -> Invocation:
    from paleoxval import cli

    if tracer is not None:
        tracer.invocation = index
        for module, attr, name, count in trace_targets(w.command):
            tracer.wrap(module, attr, name, count)
    before = drops.dropped
    argv = [w.command, "--config", str(inputs.config), "--out", str(out_dir)]
    try:
        with contextlib.redirect_stdout(_io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return Invocation(wall, tracer is not None, out_dir, code, drops.dropped - before)


def run_gate(w: Workload, inputs: Inputs, runs: list[Invocation],
             seed: int) -> list[gate.Check]:
    first = runs[0].out_dir
    reference = gate.digests(first)
    checks = [gate.Check("outputs-written", bool(reference))]
    for k, run in enumerate(runs[1:], start=1):
        checks += gate.identical_outputs(reference, run.out_dir, f"rerun{k}")
    checks += gate.no_nan(first)
    starts = np.random.default_rng([seed, 7]).choice(
        w.n_blocks, size=min(ORACLE_BLOCKS, w.n_blocks), replace=False)
    oracles = gate.load_oracles(ROOT)
    if w.command == "crossval":
        checks += gate.proxy_blocks(oracles, first, inputs.X, inputs.y, w.n_v, starts)
    elif w.command == "figure2":
        checks += gate.kriging_blocks(oracles, first, inputs.y, PHI, w.n_v, starts)
    return checks


def environment(w: Workload) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "llc_bytes": _llc_bytes(),
        "psi_pool_bytes": w.psi_pool_bytes,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs; None where unavailable."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        if best is None or level >= best[0]:
            best = (level, int(size.rstrip("KM")) * scale)
    return best[1] if best else None


def measure(w: Workload, seed: int, seconds: float, trace: bool, work_dir: Path, *,
            setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    shutil.rmtree(work_dir, ignore_errors=True)
    setup_s, inputs = timed_setup(w, seed, work_dir, setup_reps)
    drops = DropCounter()
    logging.getLogger("paleoxval").addHandler(drops)
    tracer = Tracer() if trace else None
    runs: list[Invocation] = []
    try:
        begin = time.perf_counter()
        while True:
            wrap = trace and len(runs) >= WARMUP and (len(runs) - WARMUP) % 2 == 1
            runs.append(invoke(w, inputs, work_dir / f"out{len(runs):03d}", drops,
                               tracer if wrap else None, len(runs)))
            elapsed = time.perf_counter() - begin
            if (len(runs) >= MIN_INVOCATIONS
                    and elapsed + statistics.median(r.wall for r in runs[WARMUP:]) > seconds):
                break
    finally:
        logging.getLogger("paleoxval").removeHandler(drops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = run_gate(w, inputs, runs, seed)
    crashed = sum(w.blocks for r in runs if r.exit_code != 0)
    dropped = sum(r.dropped for r in runs)
    attempted = w.blocks * len(runs) + len(checks)
    failed = crashed + dropped + sum(not c.ok for c in checks)

    timed = runs[WARMUP:]
    plain = [r for r in timed if not r.traced]
    wall_s = statistics.median(r.wall for r in plain)
    print("env " + json.dumps(environment(w)))
    print(f"workload {w.command}: {len(runs)} invocations ({WARMUP} warm-up), "
          f"{w.blocks} blocks each; walls "
          + " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in runs))
    for check in checks:
        if not check.ok:
            print(f"GATE FAIL {check.name}: {check.detail}")
    print(f"gate: {sum(c.ok for c in checks)}/{len(checks)} checks pass")
    print(f"  error_rate {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")

    if not trace:
        values = {
            "wall_s": wall_s,
            "blocks_per_s": statistics.median(
                (w.blocks - r.dropped) / r.wall if r.exit_code == 0 else 0.0 for r in plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  wall_s {wall_s:.4f} s (median of {len(plain)})")
    else:
        traced = [r for r in timed if r.traced]
        per_run = [layer_metrics(tracer, runs.index(r), r.wall, r.dropped) for r in traced]
        values = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        values["error_rate"] = failed / attempted
        (work_dir / "spans.json").write_text(json.dumps(tracer.records()))
        for name in sorted(set(tracer.absent)):
            print(f"absent: {name}")
        base = values["trace.wall_s"]
        print(f"  traced wall {base:.4f} s (median of {len(traced)}), "
              f"untraced {wall_s:.4f} s (median of {len(plain)})")
    units = metric_units(trace)
    for name, unit in units.items():
        share = (f"  {100 * values[name] / base:5.1f}%"
                 if trace and unit == "s" and name != "trace.wall_s" else "")
        print(f"  {name:40s} {values[name]:14.6g} {unit}{share}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a paleoxval checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     WORK / args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
