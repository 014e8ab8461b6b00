#!/usr/bin/env python3
"""End-to-end demo: synthetic target, then all three CLI commands.

Runs at a reduced scale by default (minutes of compute instead of the full
100-member / 1138-column design); pass --full for the reference-scale run.
"""

import argparse
import json
from pathlib import Path

from paleoxval import smooth_target
from paleoxval.cli import main as cli_main
from paleoxval.io import save_target


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
    target = save_target(smooth_target(n, seed=77), work / "target.csv")

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

    for command, out in (("crossval", "out_crossval"),
                         ("figure2", "out_figure2"),
                         ("limit", "out_limit")):
        print(f"\n=== paleo-xval {command} ===")
        code = cli_main([command, "--config", str(config_path),
                         "--out", str(work / out)])
        if code != 0:
            return code
        print(f"outputs under {work / out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
