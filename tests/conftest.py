import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import paleoxval as px
from paleoxval import io as pio

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def y60() -> px.TimeSeries:
    return px.smooth_target(60, seed=21)


@pytest.fixture(scope="session")
def splits60(y60) -> list[px.HoldoutSplit]:
    return px.make_blocks(y60.n, 12)


@pytest.fixture(scope="session")
def y149() -> px.TimeSeries:
    return px.smooth_target(149, seed=77)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None,
               jitter: float = 0.0) -> np.ndarray:
    A = rng.standard_normal((n, rank or n))
    S = A @ A.T / (rank or n)
    return S + jitter * np.eye(n)


def read_report(path) -> dict[str, np.ndarray]:
    """A report CSV read back as a column-name -> float-array dict."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {h: np.array([float(row[j]) for row in rows]) for j, h in enumerate(header)}


def write_config(path: Path, target: Path, **overrides) -> Path:
    config = {
        "target": str(target),
        "proxy_source": {"noise": {"kind": "white"}},
        "n_v": 12,
        "ensemble_size": 2,
        "seed": 7,
        "phi_list": [0.99],
        "noise_columns": 40,
        "p_ladder": [20, 100],
        "limit_repeats": 3,
        "output_dir": str(path.parent / "out"),
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def small_config(tmp_path, y60):
    """A runnable tiny config plus its target CSV, in a temp dir."""
    target = pio.save_target(y60, tmp_path / "target.csv")
    return write_config(tmp_path / "config.json", target)
