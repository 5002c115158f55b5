"""Command-line interface: synth, eval, and budget subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
No output file is written unless the whole pipeline succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import learners
from .dataset import (
    DataError,
    Dataset,
    clip_labels,
    load_csv,
    write_dataset_csv,
    write_matrix_csv,
    write_release,
)
from .evaluation import EvalReport, normality_diagnostic, kmeans, rmse, silhouette
from .mechanism import BudgetLedger, mean_sensitivity, split_budget
from .projection import dimension_guidance, reconstruct
from .synthesis import (
    GMM_COV_GROUP,
    GMM_MEAN_GROUP,
    GmmModel,
    SynthesisResult,
    covariance_spend,
    mode_transform,
    synth_gmm,
    synth_supervised,
    synth_unsupervised,
    transform_features,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the usage code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ronsynth",
                     description="Differentially private synthetic data release")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic release",
                           description="Run the release pipeline on a CSV dataset.")
    synth.add_argument("input", help="input CSV (rows are samples, first row header)")
    synth.add_argument("--mode", choices=("unsupervised", "supervised", "gmm"),
                       default="unsupervised")
    synth.add_argument("--epsilon", type=float, default=1.0,
                       help="total privacy budget (default 1.0)")
    synth.add_argument("--mu-ratio", type=float, default=0.3,
                       help="fraction of the budget spent on the mean (default 0.3)")
    synth.add_argument("--dim", type=int, default=None,
                       help="projected dimension p (default: dimension guidance)")
    synth.add_argument("--dim-sweep", default=None, metavar="P1,P2,...",
                       help="report utility for each listed p instead of releasing; "
                            "sweeps consume no modeled budget and are for research use")
    synth.add_argument("--label-col", default=None, help="name of the label column")
    synth.add_argument("--label-kind", choices=("real", "categorical"), default=None)
    synth.add_argument("--label-bound", type=float, default=None,
                       help="bound a; real labels are clipped to [-a, a]")
    synth.add_argument("--samples", type=int, default=None,
                       help="synthetic sample count (gmm: per class); default: source count")
    synth.add_argument("--seed", type=int, default=None,
                       help="rng seed; seeded noise is reproducible and therefore "
                            "NOT private -- leave unset for a real release")
    synth.add_argument("--save-projection", action="store_true",
                       help="also dump the projection matrix (data-independent, DP-safe)")
    synth.add_argument("--shared-projection", action="store_true",
                       help="gmm: one shared projection for all classes instead of "
                            "one per class")
    synth.add_argument("--reconstruct", action="store_true",
                       help="also write the release embedded back in the original "
                            "feature space")
    synth.add_argument("--psd-floor", type=float, default=0.0,
                       help="eigenvalue floor for covariance repair (default 0)")
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
    ev.add_argument("--k", type=int, default=None, help="cluster count for silhouette")
    ev.add_argument("--k-sweep", default=None, metavar="LO:HI",
                    help="try every k in [LO, HI] and report the best")
    ev.add_argument("--orig-dim", type=int, default=None,
                    help="original dimension m (adds the expected marginal scale)")
    ev.add_argument("--max-points", type=int, default=2000,
                    help="subsample size for pairwise-distance metrics (default 2000)")
    ev.add_argument("--seed", type=int, default=0)

    budget = sub.add_parser("budget", help="print the spend plan without touching data",
                            description="Show sensitivities and noise scales for a "
                                        "hypothetical run.")
    budget.add_argument("--mode", choices=("unsupervised", "supervised", "gmm"),
                        default="unsupervised")
    budget.add_argument("--epsilon", type=float, default=1.0)
    budget.add_argument("--mu-ratio", type=float, default=0.3)
    budget.add_argument("--m", type=int, required=True, help="feature dimension")
    budget.add_argument("--n", type=int, default=None, help="sample count")
    budget.add_argument("--class-sizes", default=None, metavar="N1,N2,...",
                        help="gmm: per-class sample counts")
    budget.add_argument("--dim", type=int, default=None)
    budget.add_argument("--label-bound", type=float, default=None)
    return parser


def default_dim(m: int) -> int:
    """Default projected dimension: the guidance value, capped below m."""
    if m < 3:
        return max(1, m - 1)
    return min(dimension_guidance(m), m - 1)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise _UsageError(f"{flag} got an empty list")
    return values


def _sanitize(label) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", str(label)) or "class"


def cmd_synth(args) -> int:
    if args.epsilon <= 0:
        raise _UsageError(f"--epsilon must be positive, got {args.epsilon}")
    if not 0.0 < args.mu_ratio < 1.0:
        raise _UsageError(f"--mu-ratio must lie in (0, 1), got {args.mu_ratio}")
    if args.mode == "supervised":
        if args.label_col is None or args.label_bound is None:
            raise _UsageError("supervised mode needs --label-col and --label-bound")
        label_kind = args.label_kind or "real"
        if label_kind != "real":
            raise _UsageError("supervised mode needs real-valued labels")
    elif args.mode == "gmm":
        if args.label_col is None:
            raise _UsageError("gmm mode needs --label-col")
        label_kind = args.label_kind or "categorical"
        if label_kind != "categorical":
            raise _UsageError("gmm mode needs categorical labels")
    else:
        label_kind = args.label_kind

    data = load_csv(args.input, label_column=args.label_col, label_kind=label_kind)
    m, n = data.features.shape

    clip_count = 0
    if data.labels is not None and args.label_bound is not None:
        clipped, clip_count = clip_labels(data.labels, args.label_bound)
        if clip_count:
            print(f"clipped {clip_count} label(s) to [-{args.label_bound}, "
                  f"{args.label_bound}]", file=sys.stderr)
        data = Dataset(features=data.features, labels=clipped,
                       label_bound=args.label_bound, feature_names=data.feature_names)

    epsilon_mu, epsilon_sigma = split_budget(args.epsilon, args.mu_ratio)

    if args.dim_sweep is not None:
        dims = _parse_int_list(args.dim_sweep, "--dim-sweep")
        bad = [d for d in dims if not 1 <= d < m]
        if bad:
            raise _UsageError(f"--dim-sweep values must satisfy 1 <= p < m={m}: {bad}")
        report = _dim_sweep(args, data, dims, epsilon_mu, epsilon_sigma)
        print(json.dumps(report, indent=2))
        return EXIT_OK

    p = args.dim if args.dim is not None else default_dim(m)
    if not 1 <= p < m:
        raise _UsageError(f"--dim must satisfy 1 <= p < m={m}, got {p}")

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
        "seed": args.seed,
        "psd_repair_applied": result.psd_repair_applied,
        "clip_count": clip_count,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    data_path, meta_path = write_release(result.dataset, metadata, args.out)
    written = [data_path, meta_path]

    if args.save_projection:
        written += _write_projections(result, args.out)
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
                         per_class_n_synth=args.samples, rng=rng,
                         psd_floor=args.psd_floor,
                         shared_projection=args.shared_projection)
    synth = synth_supervised if args.mode == "supervised" else synth_unsupervised
    return synth(data, p, epsilon_mu, epsilon_sigma, n_synth=args.samples, rng=rng,
                 psd_floor=args.psd_floor)


def _write_projections(result: SynthesisResult, out_dir: str) -> list[str]:
    paths = []
    if isinstance(result.model, GmmModel) and result.projection is None:
        for mode in result.model.modes:
            path = os.path.join(out_dir, f"projection_{_sanitize(mode.label)}.csv")
            paths.append(write_matrix_csv(mode.projection.W, path))
    else:
        path = os.path.join(out_dir, "projection.csv")
        paths.append(write_matrix_csv(result.projection.W, path))
    return paths


def _write_reconstruction(result: SynthesisResult, source: Dataset, out_dir: str) -> str:
    release = result.dataset
    if isinstance(result.model, GmmModel):
        blocks = np.empty((source.n_features, release.n_samples))
        for mode in result.model.modes:
            mask = release.class_labels == mode.label
            blocks[:, mask] = reconstruct(mode.projection, release.features[:, mask])
        rec = Dataset(features=blocks, class_labels=release.class_labels,
                      feature_names=source.feature_names)
    else:
        embedded = reconstruct(result.projection, release.features)
        rec = Dataset(features=embedded, labels=release.labels,
                      feature_names=source.feature_names)
    return write_dataset_csv(rec, os.path.join(out_dir, "reconstructed.csv"))


def _dim_sweep(args, data: Dataset, dims: list[int], epsilon_mu: float,
               epsilon_sigma: float) -> dict:
    """Utility-vs-dimension report. Research diagnostic: the repeated
    runs share the input data, so the sweep itself is not budgeted."""
    rows = []
    for p in dims:
        rng = np.random.default_rng(args.seed)
        result = _run_pipeline(args, data, p, epsilon_mu, epsilon_sigma, rng)
        rows.append({"p": p, **_sweep_metric(args, data, result)})
    metric = rows[0]["metric"]
    higher_is_better = metric == "accuracy" or metric == "silhouette"
    chooser = max if higher_is_better else min
    best = chooser(rows, key=lambda r: r["value"])
    return {"mode": args.mode, "metric": metric, "sweep": rows, "best_p": best["p"]}


def _sweep_metric(args, data: Dataset, result: SynthesisResult) -> dict:
    rng = np.random.default_rng(args.seed)
    release = result.dataset
    if args.mode == "supervised":
        coef = learners.ols_fit(release.features, release.labels)
        feats, kept = transform_features(result.mu_dp, result.projection, data.features)
        pred = learners.ols_predict(coef, feats)
        return {"metric": "rmse", "value": rmse(pred, data.labels[kept])}
    if args.mode == "gmm":
        means = learners.class_means(release.features, release.class_labels)
        scores = np.stack([
            np.linalg.norm(mode_transform(mode, data.features)
                           - np.asarray(means[mode.label])[:, None], axis=0)
            for mode in result.model.modes
        ])
        labels = [mode.label for mode in result.model.modes]
        pred = np.array([labels[i] for i in scores.argmin(axis=0)])
        acc = float(np.mean(pred == data.class_labels))
        return {"metric": "accuracy", "value": acc}
    # unsupervised: cluster the release and score the clustering
    feats = release.features
    if feats.shape[1] > args.max_points:
        idx = rng.choice(feats.shape[1], size=args.max_points, replace=False)
        feats = feats[:, idx]
    best = None
    for k in range(2, 7):
        if k > feats.shape[1]:
            break
        sc = silhouette(feats, kmeans(feats, k, rng=np.random.default_rng(args.seed)))
        if best is None or sc > best[1]:
            best = (k, sc)
    return {"metric": "silhouette", "value": best[1], "k": best[0]}


def _load_eval_matrix(path: str, label_col: str | None):
    data = load_csv(path, label_column=label_col,
                    label_kind="categorical" if label_col else None)
    return data


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


def cmd_eval(args) -> int:
    if args.metric == "rmse":
        if not args.pred or not args.truth:
            raise _UsageError("rmse needs --pred and --truth")
        pred = _load_vector(args.pred, args.column)
        truth = _load_vector(args.truth, args.column)
        report = EvalReport("rmse", rmse(pred, truth), len(pred),
                            {"pred": args.pred, "truth": args.truth})
        print(json.dumps(report.as_dict(), indent=2))
        return EXIT_OK

    if not args.data:
        raise _UsageError(f"{args.metric} needs --data")
    data = _load_eval_matrix(args.data, args.label_col)

    if args.metric == "normality":
        rep = normality_diagnostic(data.features, orig_dim=args.orig_dim)
        report = EvalReport("normality_mean_ks", rep.mean_ks, rep.n_samples, rep.as_dict())
        print(json.dumps(report.as_dict(), indent=2))
        return EXIT_OK

    # silhouette
    feats = data.features
    rng = np.random.default_rng(args.seed)
    if feats.shape[1] > args.max_points:
        idx = rng.choice(feats.shape[1], size=args.max_points, replace=False)
        feats = feats[:, idx]
    if args.k is None and args.k_sweep is None:
        raise _UsageError("silhouette needs --k or --k-sweep LO:HI")
    if args.k_sweep is not None:
        match = re.fullmatch(r"(\d+):(\d+)", args.k_sweep)
        if not match:
            raise _UsageError(f"--k-sweep expects LO:HI, got {args.k_sweep!r}")
        lo, hi = int(match.group(1)), int(match.group(2))
        if lo < 2 or hi < lo:
            raise _UsageError(f"--k-sweep needs 2 <= LO <= HI, got {args.k_sweep!r}")
        ks = range(lo, hi + 1)
    else:
        if args.k < 2:
            raise _UsageError(f"--k must be at least 2, got {args.k}")
        ks = [args.k]
    sweep = {}
    for k in ks:
        if k > feats.shape[1]:
            break
        assignments = kmeans(feats, k, rng=np.random.default_rng(args.seed))
        sweep[k] = silhouette(feats, assignments)
    if not sweep:
        raise _UsageError("no feasible k: fewer samples than clusters")
    best_k = max(sweep, key=sweep.get)
    report = EvalReport("silhouette", sweep[best_k], feats.shape[1],
                        {"k": best_k, "sweep": {str(k): v for k, v in sweep.items()}})
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


def cmd_budget(args) -> int:
    if args.epsilon <= 0:
        raise _UsageError(f"--epsilon must be positive, got {args.epsilon}")
    if args.m < 1:
        raise _UsageError(f"--m must be positive, got {args.m}")
    epsilon_mu, epsilon_sigma = split_budget(args.epsilon, args.mu_ratio)
    p = args.dim if args.dim is not None else default_dim(args.m)
    if not 1 <= p < args.m:
        raise _UsageError(f"--dim must satisfy 1 <= p < m={args.m}, got {p}")

    label_bound = args.label_bound if args.mode == "supervised" else None
    if args.mode == "gmm":
        if not args.class_sizes:
            raise _UsageError("gmm budget plan needs --class-sizes N1,N2,...")
        sizes = _parse_int_list(args.class_sizes, "--class-sizes")
        groups = (GMM_MEAN_GROUP, GMM_COV_GROUP)
        note = "per-class spends act on disjoint data and compose in parallel"
    else:
        if args.n is None:
            raise _UsageError(f"{args.mode} budget plan needs --n")
        if args.mode == "supervised" and label_bound is None:
            raise _UsageError("supervised budget plan needs --label-bound")
        sizes = [args.n]
        groups = (None, None)
        note = "spends compose serially"

    ledger = BudgetLedger()
    for n in sizes:
        ledger.record("mean", mean_sensitivity(args.m, n), epsilon_mu, group=groups[0])
        ledger.record(*covariance_spend(p, n, label_bound), epsilon_sigma, group=groups[1])
    spends = []
    for idx, entry in enumerate(ledger.entries):
        row = {"class": idx // 2} if args.mode == "gmm" else {}  # two spends per class
        row.update(query=entry.query, sensitivity=entry.sensitivity, epsilon=entry.epsilon,
                   noise_scale=entry.sensitivity / entry.epsilon)
        if entry.group is not None:
            row["group"] = entry.group
        spends.append(row)

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
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
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
