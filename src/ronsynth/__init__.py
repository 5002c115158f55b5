"""Differentially private synthetic data via random orthonormal projection.

The release pipeline normalizes and DP-centers the data, projects it
onto a random orthonormal low-dimensional basis, fits a
Laplace-perturbed Gaussian model, and samples synthetic records from
it. A per-class Gaussian mixture skips the centering, projects every
class onto one basis and takes each class's DP mean there. All privacy
spends flow through a single ledger with serial and parallel
composition. ``normality_diagnostic`` measures how Gaussian the
projected coordinates are. A release never scores itself: the scorers
of the paper's downstream tasks are test code, in ``tests/scorers.py``.
"""

from .dataset import DataError, Dataset, load_csv, write_release
from .mechanism import (
    BudgetLedger,
    LedgerEntry,
    aug_cov_sensitivity,
    cov_sensitivity,
    mean_sensitivity,
    split_budget,
)
from .projection import (
    NormalityReport,
    RonProjection,
    dimension_guidance,
    generate_ron,
    normality_diagnostic,
)
from .synthesis import (
    GaussianModel,
    GmmMode,
    GmmModel,
    SynthesisResult,
    mode_transform,
    synth_gmm,
    synth_supervised,
    synth_unsupervised,
    transform_features,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetLedger",
    "DataError",
    "Dataset",
    "NormalityReport",
    "GaussianModel",
    "GmmMode",
    "GmmModel",
    "LedgerEntry",
    "RonProjection",
    "SynthesisResult",
    "aug_cov_sensitivity",
    "cov_sensitivity",
    "dimension_guidance",
    "generate_ron",
    "load_csv",
    "mean_sensitivity",
    "mode_transform",
    "normality_diagnostic",
    "split_budget",
    "synth_gmm",
    "synth_supervised",
    "synth_unsupervised",
    "transform_features",
    "write_release",
]
