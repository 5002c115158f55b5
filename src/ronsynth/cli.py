"""Command-line interface: synth and budget subcommands.

``synth`` writes a release; ``budget`` prints a release's spend plan
without reading data. ``synth`` frees its input once
``synthesis.measure`` has read it, before the release is drawn.

Every flag whose value can be checked without the data has an argparse
type built by one rule, ``_flag_type``, so a bad value is a usage error
before any input is read. Only p < m for --dim and a --label-col that
must be in the header are checked after the read. A release projects
m >= 2 features to p < m dimensions: an input with fewer than two
feature columns is a data error, and --m below 2 a usage error.

Exit codes: 0 success, 1 usage error, a release that cannot be written
or held in memory, or a closed stdout, 2 data error (a ``DataError``,
found while the input is read or later, such as a non-finite cell or a
sample of zero norm), 3 numeric failure. --out must be a new path
under a directory or an empty directory, checked before the read; a run
that fails leaves it as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .dataset import (
    DataError,
    existing_ancestor,
    load_csv,
    plain_number_syntax,
    write_release,
)
from .mechanism import BudgetLedger, record_spends, split_budget
from .projection import SMALL_M, dimension_guidance
from .synthesis import (
    measure,
    # unused, but perfbench/tracer.py wraps them in each importing module
    synth_gmm,  # noqa: F401
    synth_supervised,  # noqa: F401
    synth_unsupervised,  # noqa: F401
    synthesize,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


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


def _flag_type(parse, ok, rule: str):
    """An argparse type: parse the flag's text and test the value.

    Text that does not parse, is not in the plain ASCII syntax of a CSV
    cell (``dataset.plain_number_syntax``), or gives a value that fails
    ``ok`` is the usage error ``argument --flag: must be <rule>, got
    '<text>'``, raised before any input is read.
    """
    def check(text: str):
        try:
            if plain_number_syntax(text):
                value = parse(text)
                if ok(value):
                    return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return check


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


_positive_finite = _flag_type(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_open_unit = _flag_type(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_positive_int = _flag_type(int, lambda v: v >= 1, "a positive integer")
# a release projects m features to 1 <= p < m dimensions
_feature_count = _flag_type(int, lambda v: v >= 2, "an integer of at least 2")
# numpy seeds are non-negative
_seed = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
_positive_ints = _flag_type(_int_list, lambda vs: min(vs) >= 1,
                            "comma-separated positive integers")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ronsynth",
                     description="Differentially private synthetic data release")
    sub = parser.add_subparsers(dest="command", required=True)

    # the release flags synth and budget share, declared once
    release = _Parser(add_help=False)
    release.add_argument("--mode", choices=("unsupervised", "supervised", "gmm"),
                         default="unsupervised")
    release.add_argument("--epsilon", type=_positive_finite, default=1.0,
                         help="total privacy budget (default 1.0)")
    release.add_argument("--mu-ratio", type=_open_unit, default=0.3,
                         help="fraction of the budget spent on the mean (default 0.3)")
    release.add_argument("--dim", type=_positive_int, default=None,
                         help="projected dimension p (default: dimension guidance)")
    release.add_argument("--label-bound", type=_positive_finite, default=None,
                         help="supervised: bound a; labels are clipped to [-a, a]")

    synth = sub.add_parser("synth", parents=[release], help="generate a synthetic release",
                           description="Run the release pipeline on a CSV dataset.")
    synth.add_argument("input", help="input CSV (rows are samples, first row header)")
    synth.add_argument("--label-col", default=None,
                       help="name of the label column; real-valued in supervised "
                            "mode, categorical otherwise")
    synth.add_argument("--samples", type=_positive_int, default=None,
                       help="synthetic sample count (gmm: per class); default: source count")
    synth.add_argument("--seed", type=_seed, default=None,
                       help="rng seed; seeded noise is reproducible and therefore "
                            "NOT private -- leave unset for a real release")
    synth.add_argument("--save-projection", action="store_true",
                       help="also write the basis W as projection.csv; it reads no "
                            "data but shares a generator with the noise (see README)")
    synth.add_argument("--out", default="release", help="output directory, new or empty")

    budget = sub.add_parser("budget", parents=[release],
                            help="print the spend plan without touching data",
                            description="Show sensitivities and noise scales for a "
                                        "hypothetical run.")
    budget.add_argument("--m", type=_feature_count, required=True,
                        help="feature dimension, at least 2")
    budget.add_argument("--n", type=_positive_int, default=None,
                        help="unsupervised, supervised: sample count")
    budget.add_argument("--class-sizes", type=_positive_ints, default=None, metavar="N1,N2,...",
                        help="gmm: per-class sample counts")
    return parser


def default_dim(m: int) -> int:
    """Default projected dimension: the guidance value, in [1, m - 1]."""
    return max(1, min(dimension_guidance(m), m - 1))


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


def cmd_synth(args) -> int:
    epsilon_mu, epsilon_sigma = split_budget(args.epsilon, args.mu_ratio)
    _check_label_bound(args)
    if args.mode == "supervised" and (args.label_col is None or args.label_bound is None):
        raise _UsageError("supervised mode needs --label-col and --label-bound")
    if args.mode == "gmm" and args.label_col is None:
        raise _UsageError("gmm mode needs --label-col")
    # a release never mixes two runs, and is renamed into place from a stage in
    # the nearest existing directory above --out: refuse any other --out before the read
    empty = os.path.isdir(args.out) and not os.path.islink(args.out) and not os.listdir(args.out)
    if os.path.lexists(args.out) and not empty:
        raise _UsageError(f"--out {args.out!r} exists and is not an empty directory")
    if not args.out or not os.path.isdir(existing_ancestor(args.out)):
        raise _UsageError(f"--out {args.out!r} is not a path under a directory")
    # the mode fixes the label kind; an unsupervised label column is
    # categorical and stays out of the features and the release
    label_kind = ("real" if args.mode == "supervised"
                  else "categorical" if args.label_col else None)

    data = load_csv(args.input, label_column=args.label_col, label_kind=label_kind)
    m = data.features.shape[0]
    if m < 2:
        raise DataError(f"a release needs at least 2 feature columns, got {m}")

    if args.mode == "supervised":
        # the labels the release clips (a Dataset's labels are finite)
        clip_count = int(np.count_nonzero(np.abs(data.labels) > args.label_bound))
        # an exact count of the data: operator output, never metadata.json
        if clip_count:
            print(f"clipped {clip_count} label(s) to [-{args.label_bound}, "
                  f"{args.label_bound}]", file=sys.stderr)

    p = _projected_dim(args.dim, m)
    if args.dim is None and m <= SMALL_M:
        print(f"m={m} is too small for dimension guidance; using p={p}", file=sys.stderr)

    measured = measure(data, p, epsilon_mu, epsilon_sigma, np.random.default_rng(args.seed),
                       args.label_bound, by_class=args.mode == "gmm")
    # the rest reads only the measurements: free the input before the
    # draw and the write, the run's largest allocations
    del data
    result = synthesize(measured, args.samples)

    metadata = {
        "mode": args.mode,
        "m": measured.public["m"],
        "p": p,
        "n": measured.public["n"],
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
    projection = result.projection.W if args.save_projection else None
    written = write_release(result.dataset, metadata, args.out, projection)

    print(result.ledger)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_budget(args) -> int:
    epsilon_mu, epsilon_sigma = split_budget(args.epsilon, args.mu_ratio)
    _check_label_bound(args)
    p = _projected_dim(args.dim, args.m)

    per_class = args.mode == "gmm"
    if per_class:
        if args.n is not None:
            raise _UsageError("--n does not apply to a gmm budget plan; use --class-sizes")
        if args.class_sizes is None:
            raise _UsageError("gmm budget plan needs --class-sizes N1,N2,...")
        sizes = args.class_sizes
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
        code = cmd_synth(args) if args.command == "synth" else cmd_budget(args)
        # a closed stdout shows at this flush, not at the interpreter's exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone (| head): exit without a message, and with
        # stdout on devnull so that no later flush fails (Python docs, signal)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except DataError as err:
        # only an input's samples are named, and load_csv reads sample j from row j + 2
        row = "" if err.sample is None else f" (row {err.sample + 2} of the input)"
        print(f"data error: {err}{row}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:
        # OSError: the release cannot be written (a full disk, a read-only parent)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as err:
        # numpy names the array it could not allocate; a bare MemoryError names nothing
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
