#!/usr/bin/env python3
"""End-to-end demo: synthetic target, then all three CLI commands, then one
permissive crossval run on a proxy CSV whose first column is flat over the
calibration rows of some blocks, so that those blocks are dropped and logged.

Runs at a reduced scale by default (minutes of compute instead of the full
100-member / 1138-column design); pass --full for the reference-scale run.
"""

import argparse
import json
from pathlib import Path

from paleoxval import NoiseSpec, ProxyMatrix, generate, smooth_target
from paleoxval.cli import main as cli_main
from paleoxval.io import save_proxies, save_target


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="demo_out")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--full", action="store_true",
                    help="reference-scale design: n=149, 100 members, 1138 noise columns, "
                         "p ladder to 1e4")
    args = ap.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    n = 149 if args.full else 80
    series = smooth_target(n, seed=77)
    target = save_target(series, work / "target.csv")

    config = {
        "target": str(target),
        "proxy_source": {"noise": {"kind": "ar1", "phi": 0.9}},
        "noise_experiments": [
            {"kind": "white"},
            {"kind": "brownian"},
            {"kind": "ar1", "phi": 0.99},
        ],
        "n_v": 30 if args.full else 16,
        "ensemble_size": 100 if args.full else 8,
        "seed": args.seed,
        "phi_list": [0.99],
        "noise_columns": 1138 if args.full else 120,
        "p_ladder": [100, 1000, 10_000] if args.full else [30, 300],
        "limit_repeats": 10 if args.full else 5,
        "output_dir": str(work / "out"),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    print(f"config: {config_path}")

    # column 0 is constant outside rows 40-45: every block holding all six
    # rows sees it flat over its calibration rows and fails with
    # DegenerateColumn, which permissive mode logs and drops
    X = generate(NoiseSpec(kind="ar1", n=n, p=config["noise_columns"], seed=8, phi=0.9))
    data = X.data.copy()
    data[:40, 0] = data[46:, 0] = 0.0
    proxies = save_proxies(ProxyMatrix(data, X.column_ids), series.years, work / "proxies.csv")
    permissive_path = work / "config_permissive.json"
    permissive_path.write_text(json.dumps(
        {**config, "proxy_source": {"file": str(proxies)}, "noise_experiments": [],
         "mode": "permissive"}, indent=2))

    for command, path, out in (("crossval", config_path, "out_crossval"),
                               ("figure2", config_path, "out_figure2"),
                               ("limit", config_path, "out_limit"),
                               ("crossval", permissive_path, "out_permissive")):
        print(f"\n=== paleo-xval {command} ===")
        code = cli_main([command, "--config", str(path),
                         "--out", str(work / out)])
        if code != 0:
            return code
        print(f"outputs under {work / out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
