#!/usr/bin/env python3
"""Compare the CSV files of two output trees cell by cell, within a relative
tolerance.

Both trees must hold the same CSV files, with the same number of rows and of
cells per row. A cell that reads as a finite float in both files matches when
|a - b| <= rtol * max(|a|, |b|); any other cell (a header, a label, nan, inf)
must be equal as text. Prints one line per file beyond the tolerance and a
summary line with the largest relative difference; exits 1 if any file is
beyond it or the file sets differ, 0 otherwise.

    python scripts/compare_outputs.py demo demo_haswell --rtol 1e-6
"""

import argparse
import csv
import math
import sys
from pathlib import Path


def rel_diff(a: str, b: str) -> float:
    """0 for equal cells, the relative difference of two finite numbers, inf otherwise."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--rtol", type=float, required=True)
    args = ap.parse_args()

    names = sorted(p.relative_to(args.a) for p in args.a.rglob("*.csv"))
    if not names or names != sorted(p.relative_to(args.b) for p in args.b.rglob("*.csv")):
        print(f"{args.a} and {args.b} hold different CSV files (or none)")
        return 1
    beyond, differ, worst = 0, 0, 0.0
    for name in names:
        rows_a, rows_b = read_rows(args.a / name), read_rows(args.b / name)
        if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
            print(f"{name}: the files have different shapes")
            beyond += 1
            continue
        d = max((rel_diff(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb)),
                default=0.0)
        differ += d > 0
        worst = max(worst, d)
        if d > args.rtol:
            print(f"{name}: largest relative difference {d:.2e} exceeds {args.rtol:g}")
            beyond += 1
    print(f"{len(names)} CSV files, {differ} differing, {beyond} beyond rtol {args.rtol:g}; "
          f"largest relative difference {worst:.2e}")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
