"""Differentially private synthetic data via random orthonormal projection.

The release pipeline normalizes and DP-centers the data, projects it
onto a random orthonormal low-dimensional basis, fits a
Laplace-perturbed Gaussian (or per-class Gaussian mixture) model, and
samples synthetic records from it. All privacy spends flow through a
single ledger with serial and parallel composition.
"""

from .dataset import DataError, Dataset, clip_labels, load_csv, write_release
from .evaluation import NormalityReport, EvalReport, normality_diagnostic, kmeans, rmse, silhouette
from .mechanism import (
    BudgetLedger,
    LedgerEntry,
    aug_cov_sensitivity,
    cov_sensitivity,
    laplace_perturb,
    mean_sensitivity,
    mle_cov_sensitivity,
    split_budget,
)
from .preprocessing import PreprocessedDataset, center_with_mean, dp_mean, preprocess, sample_normalize
from .projection import RonProjection, dimension_guidance, generate_ron, project, reconstruct
from .synthesis import (
    GaussianModel,
    GmmMode,
    GmmModel,
    SynthesisResult,
    dp_perturb_cov,
    estimate_aug_cov,
    estimate_cov,
    mode_transform,
    psd_repair,
    sample_gaussian,
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
    "EvalReport",
    "GaussianModel",
    "GmmMode",
    "GmmModel",
    "LedgerEntry",
    "PreprocessedDataset",
    "RonProjection",
    "SynthesisResult",
    "aug_cov_sensitivity",
    "center_with_mean",
    "clip_labels",
    "cov_sensitivity",
    "normality_diagnostic",
    "dimension_guidance",
    "dp_mean",
    "dp_perturb_cov",
    "estimate_aug_cov",
    "estimate_cov",
    "generate_ron",
    "kmeans",
    "laplace_perturb",
    "load_csv",
    "mean_sensitivity",
    "mle_cov_sensitivity",
    "mode_transform",
    "preprocess",
    "project",
    "psd_repair",
    "reconstruct",
    "rmse",
    "sample_gaussian",
    "sample_normalize",
    "silhouette",
    "split_budget",
    "synth_gmm",
    "synth_supervised",
    "synth_unsupervised",
    "transform_features",
    "write_release",
]
