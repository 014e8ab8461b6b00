"""Cross-validated ridge reconstruction of an annual target series from
proxy matrices, pseudoproxy noise nulls, and the large-p kriging limit.
"""

from ._version import __version__
from .core import (HoldoutSplit, ProxyMatrix, ShiftedSystem, TimeSeries,
                   gram_matrix, reconstruct, rmse, standardize)
from .crossval import (Columns, ExperimentReport, ensemble_entries, ensemble_stats,
                       experiment_entry, make_blocks, proxy_columns, reconstruct_with_gcv,
                       run_curves)
from .gcv import GcvResult, gcv_scores, minimize_gcv
from .limit import kriging_columns, kriging_entry, limit_entry, psi_columns
from .noise import NoiseSpec, ar1_covariance, generate, smooth_target

__all__ = [
    "__version__",
    "TimeSeries", "ProxyMatrix", "HoldoutSplit", "ShiftedSystem",
    "standardize", "gram_matrix", "reconstruct", "rmse",
    "GcvResult", "gcv_scores", "minimize_gcv",
    "NoiseSpec", "generate", "ar1_covariance", "smooth_target",
    "ExperimentReport", "make_blocks", "Columns", "proxy_columns",
    "reconstruct_with_gcv", "run_curves", "experiment_entry", "ensemble_entries",
    "ensemble_stats", "psi_columns", "kriging_columns", "limit_entry", "kriging_entry",
]
