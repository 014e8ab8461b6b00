"""Batch command-line driver.

Three subcommands, all config-file driven with flag overrides:

  crossval   sliding-block RMSE for the proxy source plus each configured
             noise experiment (one realization each); summary table sorted
             by mean RMSE.
  figure2    white-noise and AR(1) ensembles, the large-p limit curve, and
             the simple-kriging curve as one combined CSV and SVG chart.
  limit      convergence table: noise-column count vs. median RMS distance
             to the limit curve and member scatter.

Every command writes a manifest.json; --config on it reproduces the run byte for
byte with the same BLAS kernel, and CSV values to 1e-6 relative under another.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import io
from ._version import __version__
from .core import HoldoutSplit, TimeSeries, rmse
from .crossval import (ensemble_entries, ensemble_stats, experiment_entry, make_blocks,
                       run_curves)
from .errors import PaleoXvalError
from .limit import kriging_entry, limit_entry
from .noise import NoiseSpec, ar1_covariance
from .svgplot import Series, write_svg

# Experiments within one command draw from seeds this far apart; members
# within an ensemble use consecutive seeds, so ensembles never overlap.
SEED_STRIDE = 1_000_000

log = logging.getLogger("paleoxval")


# Each command takes the config, the loaded target, its holdout splits and the
# existing output directory, and returns the paths it wrote; main does the rest.

def cmd_crossval(config: io.ExperimentConfig, y: TimeSeries, splits: list[HoldoutSplit],
                 out_dir: Path) -> list[Path]:
    curves = []
    for k, src in enumerate((config.proxy_source, *config.noise_experiments)):
        if isinstance(src, str):
            label, source = "proxies", io.load_proxies(src, expected_years=y.years)
        else:
            source = src.spec(y.n, config.seed + SEED_STRIDE * k, config.noise_columns)
            label = source.label
        if label in (c[0] for c in curves):
            label = f"{label}_{k}"
        curves.append(experiment_entry(label, source))
    reports = run_curves(curves, y, splits, mode=config.mode)
    outputs = [io.write_report(report, out_dir, y.years) for report in reports]

    # a curve whose every block failed has a NaN mean and ranks last
    ranked = sorted(reports, key=lambda r: (math.inf if math.isnan(r.mean_rmse) else r.mean_rmse,
                                            r.label))
    outputs.append(io.write_csv(out_dir / "summary.csv", ["label", "mean_rmse"],
                                [[r.label, io.format_float(r.mean_rmse)] for r in ranked]))

    print(f"{'experiment':24s}  mean RMSE (degC)")
    for r in ranked:
        print(f"{r.label:24s}  {r.mean_rmse:.6f}")
    return outputs


def cmd_figure2(config: io.ExperimentConfig, y: TimeSeries, splits: list[HoldoutSplit],
                out_dir: Path) -> list[Path]:
    mean, std = float(y.values.mean()), float(y.values.std())
    if std > 0 and abs(mean) > 0.1 * std:
        log.warning("target mean %.4g is large next to its std %.4g; the kriging "
                    "curve assumes a zero-mean target", mean, std)
    m = config.ensemble_size
    starts = np.array([s.block_start for s in splits])
    x_years = y.years[starts].astype(float)

    specs = [NoiseSpec(kind="white", n=y.n, p=config.noise_columns,
                       seed=config.seed + SEED_STRIDE)]
    specs += [NoiseSpec(kind="ar1", n=y.n, p=config.noise_columns, phi=phi,
                        seed=config.seed + SEED_STRIDE * (2 + i))
              for i, phi in enumerate(config.phi_list)]
    curves = []
    if with_proxies := isinstance(config.proxy_source, str):
        X = io.load_proxies(config.proxy_source, expected_years=y.years)
        curves.append(experiment_entry("proxies", X))
    for spec in specs:
        curves += ensemble_entries(spec, m)
        if spec.kind == "ar1":      # only AR(1) has a covariance yet, for limit and kriging
            Phi = ar1_covariance(y.n, spec.phi)
            curves += [limit_entry(f"limit_{spec.label}", Phi),
                       kriging_entry(f"kriging_{spec.label}", Phi)]
    done = iter(run_curves(curves, y, splits, mode=config.mode))

    outputs, cols, members, lines = [], [], [], []
    if with_proxies:
        proxy_report = next(done)
        outputs.append(io.write_report(proxy_report, out_dir, y.years))
        cols.append(("proxies", proxy_report.block_rmse))
        lines.append(Series("proxies", x_years, proxy_report.block_rmse, color="red"))
    for spec in specs:
        ens = [next(done) for _ in range(m)]
        mean, scatter = ensemble_stats(ens)
        outputs.append(io.write_ensemble(spec.label, ens, mean, scatter, out_dir, y.years))
        white = spec.kind == "white"
        name, tag = "white" if white else f"ar1({spec.phi:g})", spec.label.replace(".", "_")
        cols += [(f"{tag}_mean", mean), (f"{tag}_scatter", scatter)]
        members += [Series(f"{name} members", x_years, rep.block_rmse,
                           color="magenta" if white else "gold", kind="dots", opacity=0.5)
                    for rep in ens]
        lines.append(Series(f"{name} mean", x_years, mean, color="blue" if white else "black"))
        if spec.kind != "ar1":
            continue
        lim_rep, krig_rep = next(done), next(done)
        outputs += [io.write_report(rep, out_dir, y.years) for rep in (lim_rep, krig_rep)]
        cols += [(f"limit_{tag}", lim_rep.block_rmse), (f"kriging_{tag}", krig_rep.block_rmse)]
        lines += [Series(f"limit {name}", x_years, lim_rep.block_rmse,
                         color="magenta", kind="dashes"),
                  Series(f"kriging {name}", x_years, krig_rep.block_rmse, color="green")]
        print(f"phi={spec.phi:g}: RMS difference, ensemble-mean RMSE vs limit RMSE: "
              f"{rmse(mean, lim_rep.block_rmse):.6g} degC")
        print(f"phi={spec.phi:g}: RMS difference, limit vs kriging (RMSE curves):  "
              f"{rmse(lim_rep.block_rmse, krig_rep.block_rmse):.6g} degC")
        print(f"phi={spec.phi:g}: RMS difference, limit vs kriging (predictions):  "
              f"{rmse(lim_rep.predictions.ravel(), krig_rep.predictions.ravel()):.6g} degC")

    outputs.append(io.write_block_table(out_dir / "figure2.csv", starts, y.years, cols))
    outputs.append(write_svg(members + lines, out_dir / "figure2.svg",
                             title="Holdout RMSE by block start",
                             x_label="block start year", y_label="RMSE (degC)"))
    return outputs


def cmd_limit(config: io.ExperimentConfig, y: TimeSeries, splits: list[HoldoutSplit],
              out_dir: Path) -> list[Path]:
    starts = [s.block_start for s in splits]
    outputs: list[Path] = []

    m = config.limit_repeats
    curves = []
    for i, phi in enumerate(config.phi_list):
        curves.append(limit_entry(f"limit_ar1_{phi:g}", ar1_covariance(y.n, phi)))
        for k, p in enumerate(config.p_ladder):
            spec = NoiseSpec(kind="ar1", n=y.n, p=p, phi=phi,
                             seed=config.seed + SEED_STRIDE * (1 + i * len(config.p_ladder) + k))
            curves += ensemble_entries(spec, m)
    done = iter(run_curves(curves, y, splits, mode=config.mode))

    fmt = io.format_float
    table_rows, member_rows, scatter = [], [], []
    print(f"{'phi':>6s} {'p':>8s} {'median RMS diff to limit':>26s} {'mean member scatter':>20s}")
    for phi in config.phi_list:
        lim_rep = next(done)
        outputs.append(io.write_report(lim_rep, out_dir, y.years))
        for p in config.p_ladder:
            ens = [next(done) for _ in range(m)]
            member_scatter = ensemble_stats(ens)[1]
            diffs = [rmse(rep.block_rmse, lim_rep.block_rmse) for rep in ens]
            median_diff = float(np.median(diffs))
            mean_scatter = float(member_scatter.mean())
            table_rows.append([fmt(phi), p, fmt(median_diff), fmt(mean_scatter)])
            member_rows += [[fmt(phi), p, j, fmt(d)] for j, d in enumerate(diffs)]
            scatter.append((f"scatter_phi{phi:g}_p{p}".replace(".", "_"), member_scatter))
            print(f"{phi:6g} {p:8d} {median_diff:26.6g} {mean_scatter:20.6g}")

    outputs.append(io.write_csv(out_dir / "limit_table.csv",
                                ["phi", "p", "median_rms_diff_to_limit", "mean_member_scatter"],
                                table_rows))
    outputs.append(io.write_csv(out_dir / "limit_members.csv",
                                ["phi", "p", "member", "rms_diff_to_limit"], member_rows))
    outputs.append(io.write_block_table(out_dir / "limit_scatter.csv", starts, y.years, scatter))
    return outputs


COMMANDS = {"crossval": cmd_crossval, "figure2": cmd_figure2, "limit": cmd_limit}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paleo-xval",
        description="Sliding-block cross-validation of ridge reconstructions, "
                    "noise nulls, and their large-p kriging limit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("crossval", "RMSE summary for the proxy source and configured noise runs"),
        ("figure2", "ensembles, limit, and kriging curves as CSV + SVG"),
        ("limit", "convergence table of noise runs toward the limit curve"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON config (or manifest) path")
        # each override's dest is the config field it replaces
        cmd.add_argument("--seed", type=int, help="override base seed")
        cmd.add_argument("--nv", dest="n_v", type=int, help="override holdout block length")
        cmd.add_argument("--ensemble", dest="ensemble_size", type=int,
                         help="override ensemble size")
        cmd.add_argument("--phi", dest="phi_list", type=float, nargs=1, metavar="PHI",
                         help="override phi_list with one value")
        cmd.add_argument("--out", dest="output_dir", type=lambda path: str(Path(path).resolve()),
                         help="override the output directory")
    return parser


def _apply_overrides(config: io.ExperimentConfig, args) -> io.ExperimentConfig:
    return replace(config, **{f.name: getattr(args, f.name) for f in fields(config)
                              if getattr(args, f.name, None) is not None})


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(io.load_config(args.config), args)
        if config.psi_mc_columns is not None:
            log.warning("psi_mc_columns is deprecated and ignored: Psi is computed exactly")
        y = io.load_target(config.target)
        splits = make_blocks(y.n, config.n_v)
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = COMMANDS[args.command](config, y, splits, out_dir)
        io.write_manifest(out_dir, args.command, config, outputs)
        return 0
    except (PaleoXvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
