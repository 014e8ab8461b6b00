"""Correctness gate, run after the timed region.

Three kinds of check, each counted as one attempt:

- every CSV and SVG an invocation writes is byte-identical to the first
  invocation's (``manifest.json`` records ``output_dir`` and is skipped);
- no output cell is NaN (permissive mode writes a failed block as NaN);
- for seed-chosen blocks, the reported RMSE is recomputed with the dense
  reference implementations in ``tests/oracles.py`` at the reported lambda
  and must agree to 1e-9 relative, and the oracle GCV score at that lambda
  must be no worse than at the 25 coarse-grid points.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RMSE_RTOL = 1e-9
# At lambda near 1e-8 the trace tr(I - H) is ~1e-6 and the oracle forms it
# by cancellation from n_c ~ 119, so its GCV value carries relative error up
# to ~1e-7; two grid points closer than this are a tie, not a misselection.
GCV_RTOL = 1e-6
COARSE_GRID = np.geomspace(1e-8, 1e8, 25)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.suffix in (".csv", ".svg")}


def identical_outputs(reference: dict[str, str], out_dir: Path, label: str) -> list[Check]:
    got = digests(out_dir)
    return [Check(f"{label}/{name}", got.get(name) == digest,
                  "" if got.get(name) == digest else "bytes differ from the first run")
            for name, digest in reference.items()] + [
        Check(f"{label}/{name}", False, "file missing from the first run")
        for name in sorted(set(got) - set(reference))]


def no_nan(out_dir: Path) -> list[Check]:
    checks = []
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, newline="") as fh:
            bad = sum(cell.strip().lower() == "nan" for row in csv.reader(fh) for cell in row)
        checks.append(Check(f"no-nan/{path.name}", bad == 0, f"{bad} NaN cells" if bad else ""))
    return checks


def _blocks(path: Path) -> dict[int, dict]:
    with open(path, newline="") as fh:
        return {int(row["block_start"]): row for row in csv.DictReader(fh)}


def _block_checks(label, oracles, S, w, y, start, n_v, row, predict) -> list[Check]:
    if row is None:
        return [Check(f"{label}/block{start}", False, "block missing from the output")]
    n = len(y)
    valid = np.arange(start, start + n_v)
    calib = np.setdiff1d(np.arange(n), valid)
    lam, reported = float(row["lambda"]), float(row["block_rmse"])
    y_c = y[calib]
    got = oracles.rmse_by_loop(predict(lam, calib, valid), y[valid])
    rel = abs(got - reported) / abs(reported)
    S_cc = S[np.ix_(calib, calib)]
    v_lam = oracles.gcv_value(S_cc, lam, w, y_c)
    v_grid = min(oracles.gcv_value(S_cc, g, w, y_c) for g in COARSE_GRID)
    return [
        Check(f"{label}/block{start}/rmse", rel <= RMSE_RTOL,
              f"oracle {got!r} vs reported {reported!r} (rel {rel:.2e})"),
        Check(f"{label}/block{start}/gcv", v_lam <= v_grid * (1 + GCV_RTOL),
              f"V(lambda={lam:.6g}) = {v_lam:.10g}, coarse-grid min {v_grid:.10g}"),
    ]


def proxy_blocks(oracles, out_dir: Path, X: np.ndarray, y: np.ndarray, n_v: int,
                 starts) -> list[Check]:
    """Oracle recomputation of proxy-experiment blocks (uniform intercept weights).

    Calibration-period standardization makes ``S_cc 1 = 0`` exactly, so at
    lambda = 1e-8 the explicit inverse in the oracle sees a condition number
    near 1e9. Adding ``alpha 11^T / n_c`` to ``S_cc`` lifts that null
    eigenvalue to ``alpha`` and changes neither the reconstruction operator
    nor the hat matrix when w is uniform (both only see ``(I - 1 w^T) y``,
    which is orthogonal to 1); the oracle then runs at condition ~1e3.
    """
    rows = _blocks(out_dir / "blocks_proxies.csv")
    checks = []
    for start in starts:
        n = len(y)
        calib = np.setdiff1d(np.arange(n), np.arange(start, start + n_v))
        cc = np.ix_(calib, calib)
        S = oracles.gram_by_accumulation(oracles.standardize_by_loop(X, calib))
        S[cc] += np.trace(S[cc]) / len(calib) ** 2
        w = np.full(len(calib), 1.0 / len(calib))

        def predict(lam, calib, valid, S=S, w=w):
            return oracles.reconstruction_matrix(S, lam, w, calib, valid) @ y[calib]

        checks += _block_checks("proxies", oracles, S, w, y, start, n_v, rows.get(start), predict)
    return checks


def kriging_blocks(oracles, out_dir: Path, y: np.ndarray, phi: float, n_v: int,
                   starts) -> list[Check]:
    """Oracle recomputation of simple-kriging blocks (no intercept, w = 0)."""
    (path,) = out_dir.glob("blocks_kriging_*.csv")
    rows = _blocks(path)
    idx = np.arange(len(y))
    Phi = phi ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    checks = []
    for start in starts:
        w = np.zeros(len(y) - n_v)

        def predict(lam, calib, valid):
            return oracles.kriging_by_inverse(Phi, lam, y[calib], calib, valid)

        checks += _block_checks("kriging", oracles, Phi, w, y, start, n_v, rows.get(start),
                                predict)
    return checks
