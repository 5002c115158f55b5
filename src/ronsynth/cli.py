"""Command-line interface: synth, eval, and budget subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
No output file is written unless the whole pipeline succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .dataset import (
    DataError,
    Dataset,
    load_csv,
    write_dataset_csv,
    write_matrix_csv,
    write_release,
)
from .evaluation import (
    nearest_mean_accuracy,
    normality_diagnostic,
    ols_rmse,
    rmse,
    silhouette_sweep,
)
from .mechanism import BudgetLedger, record_spends, split_budget
from .projection import SMALL_M, dimension_guidance, reconstruct
from .synthesis import (
    SynthesisResult,
    synth_gmm,
    synth_supervised,
    synth_unsupervised,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# silhouette is quadratic in the point count; larger inputs are subsampled to this
SILHOUETTE_MAX_POINTS = 2000


class _Parser(argparse.ArgumentParser):
    # a flag prefix such as --samp is an error, not an alias of the flag
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad flags; remap to the usage code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def _positive_finite(text: str) -> float:
    """argparse type of --label-bound: a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of the count flags: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy seeds are."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ronsynth",
                     description="Differentially private synthetic data release")
    sub = parser.add_subparsers(dest="command", required=True)

    # the release flags synth and budget share, declared once
    release = _Parser(add_help=False)
    release.add_argument("--mode", choices=("unsupervised", "supervised", "gmm"),
                         default="unsupervised")
    release.add_argument("--epsilon", type=float, default=1.0,
                         help="total privacy budget (default 1.0)")
    release.add_argument("--mu-ratio", type=float, default=0.3,
                         help="fraction of the budget spent on the mean (default 0.3)")
    release.add_argument("--dim", type=int, default=None,
                         help="projected dimension p (default: dimension guidance)")
    release.add_argument("--label-bound", type=_positive_finite, default=None,
                         help="supervised: bound a; labels are clipped to [-a, a]")

    synth = sub.add_parser("synth", parents=[release], help="generate a synthetic release",
                           description="Run the release pipeline on a CSV dataset.")
    synth.add_argument("input", help="input CSV (rows are samples, first row header)")
    synth.add_argument("--dim-sweep", default=None, metavar="P1,P2,...",
                       help="report utility for each listed p instead of releasing; "
                            "sweeps consume no modeled budget and are for research use")
    synth.add_argument("--label-col", default=None,
                       help="name of the label column; real-valued in supervised "
                            "mode, categorical otherwise")
    synth.add_argument("--samples", type=_positive_int, default=None,
                       help="synthetic sample count (gmm: per class); default: source count")
    synth.add_argument("--seed", type=_seed, default=None,
                       help="rng seed; seeded noise is reproducible and therefore "
                            "NOT private -- leave unset for a real release")
    synth.add_argument("--save-projection", action="store_true",
                       help="also dump the projection matrix (data-independent, DP-safe)")
    synth.add_argument("--reconstruct", action="store_true",
                       help="also write the release embedded back in the original "
                            "feature space")
    synth.add_argument("--out", default="release", help="output directory")

    ev = sub.add_parser("eval", help="score a dataset or release",
                        description="Compute a utility metric; prints a JSON report.")
    ev.add_argument("metric", choices=("silhouette", "rmse", "normality"))
    ev.add_argument("--data", default=None, help="dataset CSV (silhouette, normality)")
    ev.add_argument("--pred", default=None, help="predictions CSV (rmse)")
    ev.add_argument("--truth", default=None, help="ground-truth CSV (rmse)")
    ev.add_argument("--column", default=None, help="column to read for rmse inputs")
    ev.add_argument("--label-col", default=None,
                    help="column to exclude from the features (e.g. 'class')")
    ev.add_argument("--k-sweep", default=None, metavar="LO:HI",
                    help="silhouette: try every k in [LO, HI] (one k: K:K) and "
                         "report the best")
    ev.add_argument("--orig-dim", type=int, default=None,
                    help="original dimension m (adds the expected marginal scale)")
    ev.add_argument("--seed", type=_seed, default=0)

    budget = sub.add_parser("budget", parents=[release],
                            help="print the spend plan without touching data",
                            description="Show sensitivities and noise scales for a "
                                        "hypothetical run.")
    budget.add_argument("--m", type=_positive_int, required=True, help="feature dimension")
    budget.add_argument("--n", type=_positive_int, default=None,
                        help="unsupervised, supervised: sample count")
    budget.add_argument("--class-sizes", default=None, metavar="N1,N2,...",
                        help="gmm: per-class sample counts")
    return parser


def default_dim(m: int) -> int:
    """Default projected dimension: the guidance value, in [1, m - 1]."""
    return max(1, min(dimension_guidance(m), m - 1))


def _budget_split(args) -> tuple[float, float]:
    """split_budget of the --epsilon and --mu-ratio flags; an error names the flag."""
    try:
        return split_budget(args.epsilon, args.mu_ratio)
    except ValueError as err:
        message = str(err).replace("epsilon_total", "--epsilon")
        raise _UsageError(message.replace("mu_ratio", "--mu-ratio")) from None


def _check_label_bound(args) -> None:
    """--label-bound bounds real labels, which only supervised mode has."""
    if args.label_bound is not None and args.mode != "supervised":
        raise _UsageError(f"--label-bound applies only to supervised mode, not {args.mode}")


def _projected_dim(dim: int | None, m: int) -> int:
    """The --dim flag, or default_dim(m) when unset; must satisfy 1 <= p < m."""
    p = dim if dim is not None else default_dim(m)
    if not 1 <= p < m:
        raise _UsageError(f"--dim must satisfy 1 <= p < m={m}, got {p}")
    return p


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise _UsageError(f"{flag} got an empty list")
    return values


def cmd_synth(args) -> int:
    epsilon_mu, epsilon_sigma = _budget_split(args)
    _check_label_bound(args)
    if args.mode == "supervised" and (args.label_col is None or args.label_bound is None):
        raise _UsageError("supervised mode needs --label-col and --label-bound")
    if args.mode == "gmm" and args.label_col is None:
        raise _UsageError("gmm mode needs --label-col")
    if args.dim_sweep is not None and (args.save_projection or args.reconstruct):
        flag = "--save-projection" if args.save_projection else "--reconstruct"
        raise _UsageError(f"{flag} does not apply to --dim-sweep, which writes no release")
    # the mode fixes the label kind; as in eval, an unsupervised label
    # column is categorical and stays out of the features and the release
    label_kind = ("real" if args.mode == "supervised"
                  else "categorical" if args.label_col else None)

    data = load_csv(args.input, label_column=args.label_col, label_kind=label_kind)
    m, n = data.features.shape

    truth = None
    if args.mode == "supervised":
        # the release clips the labels itself; this clip counts them for
        # the operator and is the truth a sweep scores against
        truth = np.clip(data.labels, -args.label_bound, args.label_bound)
        clip_count = int(np.count_nonzero(truth != data.labels))
        # an exact count of the data: operator output, never metadata.json
        if clip_count:
            print(f"clipped {clip_count} label(s) to [-{args.label_bound}, "
                  f"{args.label_bound}]", file=sys.stderr)

    if args.dim_sweep is not None:
        dims = _parse_int_list(args.dim_sweep, "--dim-sweep")
        bad = [d for d in dims if not 1 <= d < m]
        if bad:
            raise _UsageError(f"--dim-sweep values must satisfy 1 <= p < m={m}: {bad}")
        report = _dim_sweep(args, data, truth, dims, epsilon_mu, epsilon_sigma)
        print(json.dumps(report, indent=2))
        return EXIT_OK

    p = _projected_dim(args.dim, m)
    if args.dim is None and m <= SMALL_M:
        print(f"m={m} is too small for dimension guidance; using p={p}", file=sys.stderr)

    rng = np.random.default_rng(args.seed)
    result = _run_pipeline(args, data, p, epsilon_mu, epsilon_sigma, rng)

    metadata = {
        "mode": args.mode,
        "m": m,
        "p": p,
        "n": n,
        "n_synth": result.dataset.n_samples,
        "epsilon_total": result.ledger.total(),
        "epsilon_mu": epsilon_mu,
        "epsilon_sigma": epsilon_sigma,
        "split_ratio": args.mu_ratio,
        "label_bound": args.label_bound,
        "seeded": args.seed is not None,
        "psd_repair_applied": result.psd_repair_applied,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    data_path, meta_path = write_release(result.dataset, metadata, args.out)
    written = [data_path, meta_path]
    if args.save_projection:
        written.append(write_matrix_csv(result.projection.W,
                                        os.path.join(args.out, "projection.csv")))
    if args.reconstruct:
        written.append(_write_reconstruction(result, data, args.out))

    print(result.ledger)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _run_pipeline(args, data: Dataset, p: int, epsilon_mu: float,
                  epsilon_sigma: float, rng) -> SynthesisResult:
    if args.mode == "gmm":
        return synth_gmm(data, p, epsilon_mu, epsilon_sigma,
                         per_class_n_synth=args.samples, rng=rng)
    if args.mode == "supervised":
        return synth_supervised(data, p, epsilon_mu, epsilon_sigma, args.label_bound,
                                n_synth=args.samples, rng=rng)
    return synth_unsupervised(data, p, epsilon_mu, epsilon_sigma, n_synth=args.samples, rng=rng)


def _write_reconstruction(result: SynthesisResult, source: Dataset, out_dir: str) -> str:
    release = result.dataset
    rec = Dataset(features=reconstruct(result.projection, release.features),
                  labels=release.labels, class_labels=release.class_labels,
                  feature_names=source.feature_names)
    return write_dataset_csv(rec, os.path.join(out_dir, "reconstructed.csv"))


def _dim_sweep(args, data: Dataset, truth: np.ndarray | None, dims: list[int],
               epsilon_mu: float, epsilon_sigma: float) -> dict:
    """Utility-vs-dimension report. Research diagnostic: the repeated
    runs share the input data, so the sweep itself is not budgeted.
    A supervised sweep scores against ``truth``, the clipped labels."""
    rows = []
    for p in dims:
        rng = np.random.default_rng(args.seed)
        result = _run_pipeline(args, data, p, epsilon_mu, epsilon_sigma, rng)
        rows.append({"p": p, **_sweep_metric(args, data, truth, result)})
    metric = rows[0]["metric"]
    higher_is_better = metric == "accuracy" or metric == "silhouette"
    chooser = max if higher_is_better else min
    best = chooser(rows, key=lambda r: r["value"])
    return {"mode": args.mode, "metric": metric, "sweep": rows, "best_p": best["p"]}


def _sweep_metric(args, data: Dataset, truth: np.ndarray | None,
                  result: SynthesisResult) -> dict:
    if args.mode == "supervised":
        return {"metric": "rmse",
                "value": ols_rmse(result, data.features, truth, data.sq_norms)}
    if args.mode == "gmm":
        acc = nearest_mean_accuracy(result, data.features, data.class_labels, data.sq_norms)
        return {"metric": "accuracy", "value": acc}
    # unsupervised: cluster the release and score the clustering
    best_k, sweep, _ = silhouette_sweep(result.dataset.features, range(2, 7),
                                        SILHOUETTE_MAX_POINTS, args.seed)
    return {"metric": "silhouette", "value": sweep[best_k], "k": best_k}


def _load_vector(path: str, column: str | None) -> np.ndarray:
    data = load_csv(path)
    names = list(data.feature_names)
    if column is not None:
        if column not in names:
            raise DataError(f"{path}: column {column!r} not found (have {names})")
        return data.features[names.index(column), :]
    if data.n_features != 1:
        raise _UsageError(
            f"{path} has {data.n_features} columns; pick one with --column"
        )
    return data.features[0, :]


def _print_report(metric: str, value: float, n_points: int, params: dict) -> int:
    report = {"metric": metric, "value": value, "n_points": n_points, "params": params}
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.metric == "rmse":
        if not args.pred or not args.truth:
            raise _UsageError("rmse needs --pred and --truth")
        pred = _load_vector(args.pred, args.column)
        truth = _load_vector(args.truth, args.column)
        return _print_report("rmse", rmse(pred, truth), len(pred),
                             {"pred": args.pred, "truth": args.truth})

    if not args.data:
        raise _UsageError(f"{args.metric} needs --data")
    data = load_csv(args.data, label_column=args.label_col,
                    label_kind="categorical" if args.label_col else None)

    if args.metric == "normality":
        rep = normality_diagnostic(data.features, orig_dim=args.orig_dim)
        return _print_report("normality_mean_ks", rep.mean_ks, rep.n_samples, asdict(rep))

    # silhouette
    if args.k_sweep is None:
        raise _UsageError("silhouette needs --k-sweep LO:HI")
    match = re.fullmatch(r"(\d+):(\d+)", args.k_sweep)
    if not match:
        raise _UsageError(f"--k-sweep expects LO:HI, got {args.k_sweep!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo < 2 or hi < lo:
        raise _UsageError(f"--k-sweep needs 2 <= LO <= HI, got {args.k_sweep!r}")
    best_k, sweep, n_points = silhouette_sweep(data.features, range(lo, hi + 1),
                                               SILHOUETTE_MAX_POINTS, args.seed)
    return _print_report("silhouette", sweep[best_k], n_points,
                         {"k": best_k, "sweep": {str(k): v for k, v in sweep.items()}})


def cmd_budget(args) -> int:
    epsilon_mu, epsilon_sigma = _budget_split(args)
    _check_label_bound(args)
    p = _projected_dim(args.dim, args.m)

    per_class = args.mode == "gmm"
    if per_class:
        if args.n is not None:
            raise _UsageError("--n does not apply to a gmm budget plan; use --class-sizes")
        if not args.class_sizes:
            raise _UsageError("gmm budget plan needs --class-sizes N1,N2,...")
        sizes = _parse_int_list(args.class_sizes, "--class-sizes")
        for c, n in enumerate(sizes):
            if n < 1:
                raise _UsageError(f"--class-sizes: class {c} has size {n}")
        note = "per-class spends act on disjoint data and compose in parallel"
    else:
        if args.class_sizes is not None:
            raise _UsageError(f"--class-sizes applies only to a gmm budget plan, "
                              f"not {args.mode}")
        if args.n is None:
            raise _UsageError(f"{args.mode} budget plan needs --n")
        if args.mode == "supervised" and args.label_bound is None:
            raise _UsageError("supervised budget plan needs --label-bound")
        sizes = [args.n]
        note = "spends compose serially"

    ledger = BudgetLedger()
    spends = []
    for c, n in enumerate(sizes):
        entries = record_spends(ledger, args.m, p, n, epsilon_mu, epsilon_sigma,
                                args.label_bound, per_class)
        tag = {"class": c} if per_class else {}
        spends += [{**tag, **entry.as_dict()} for entry in entries]

    plan = {
        "mode": args.mode,
        "m": args.m,
        "p": p,
        "epsilon_mu": epsilon_mu,
        "epsilon_sigma": epsilon_sigma,
        "total_epsilon": ledger.total(),
        "spends": spends,
        "note": note,
    }
    print(json.dumps(plan, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_budget(args)
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
