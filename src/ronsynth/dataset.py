"""Dataset loading, validation, and release writing.

Files are conventional tabular CSVs: one row per sample, first row a
header. Numbers use the plain float syntax, in ASCII and without
digit-group underscores. Every line is data: a line starting with "#" is
not a comment, and a blank line is an error unless only blank lines
follow it. Internally, all math in this package runs on the transposed
layout where samples are *columns* of an m x n matrix, so the covariance
and sensitivity formulas read exactly as derived. This module owns that
transpose; nothing outside it should ever flip orientation.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .preprocessing import column_sq_norms


class DataError(ValueError):
    """Problem with input data content (missing file, bad cell, ...)."""


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with optional labels.

    features has shape (m, n): m feature dimensions, n samples stored
    column-wise. labels (real-valued) and class_labels (categorical)
    are mutually exclusive, each of length n when present. Real labels
    are kept as they were read: the supervised release clips them to its
    own bound (``synthesis.synth_supervised``).

    Construction takes every column's squared norm once, with
    ``preprocessing.column_sq_norms``, and keeps it as sq_norms: the
    release normalizes every sample by these norms and reads no norm of
    X itself. The same pass checks that every feature is finite, since
    a non-finite entry makes its column's norm non-finite; only then is
    X scanned again, to name the first bad (feature, sample), and a
    finite column whose square overflows is accepted. features is a
    read-only view, so the norms cannot go stale through the Dataset.
    The caller's own array stays writable, but writing to it after
    construction is unsupported: the view and the norms would disagree.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    class_labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise DataError(f"features must be a 2-D matrix, got ndim={feats.ndim}")
        m, n = feats.shape
        if m < 1 or n < 1:
            raise DataError(f"need at least one feature and one sample, got shape {feats.shape}")
        # a non-finite entry makes its column's norm non-finite, so only a
        # non-finite norm (or a finite column whose square overflows) rescans X
        sq_norms = column_sq_norms(feats)
        if not np.all(np.isfinite(sq_norms)):
            bad = np.argwhere(~np.isfinite(feats))
            if len(bad):
                raise DataError(f"non-finite feature value at feature {bad[0, 0]}, "
                                f"sample {bad[0, 1]}")
        feats = feats.view()
        feats.flags.writeable = False
        sq_norms.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "sq_norms", sq_norms)
        if self.labels is not None and self.class_labels is not None:
            raise DataError("a dataset cannot carry both real and categorical labels")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=float)
            if labels.shape != (n,):
                raise DataError(f"labels must have length {n}, got shape {labels.shape}")
            if not np.all(np.isfinite(labels)):
                raise DataError("labels contain non-finite values")
            object.__setattr__(self, "labels", labels)
        if self.class_labels is not None:
            cls = np.asarray(self.class_labels)
            if cls.shape != (n,):
                raise DataError(f"class labels must have length {n}, got shape {cls.shape}")
            object.__setattr__(self, "class_labels", cls)
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != m:
                raise DataError(f"expected {m} feature names, got {len(names)}")
            object.__setattr__(self, "feature_names", names)

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


def load_csv(path: str, label_column: str | None = None,
             label_kind: str | None = None) -> Dataset:
    """Load a rows-as-samples CSV into a Dataset.

    If label_column is given, that column is split off as labels;
    label_kind selects "real" (parsed as floats) or "categorical"
    (kept as strings). Any non-numeric feature cell is an error that
    names the offending row and column. No row is ever silently
    dropped.
    """
    if label_column is not None and label_kind not in ("real", "categorical"):
        raise ValueError(f"label_kind must be 'real' or 'categorical', got {label_kind!r}")
    if label_kind is not None and label_column is None:
        raise ValueError("label_kind given without label_column")
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")

    with open(path, newline="", encoding="utf-8") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
        first = next(fh, "")
        has_label = label_column is not None
        if ((has_label and label_column not in header) or len(header) == has_label
                or first in _BLANK_LINES):
            _raise_first_error(path, label_column, label_kind,
                               "a header fault, or no data row before the first blank line")
        label_idx = header.index(label_column) if has_label else None

        codes: dict[str, int] = {}
        converters = None
        if label_kind == "categorical":
            converters = {label_idx: lambda cell: codes.setdefault(cell.strip(), len(codes))}
        counted = _CountedLines(itertools.chain([first], fh))
        try:
            # loadtxt skips blank lines, so its row count is checked
            # against the number of lines up to the last non-blank one.
            # An explicit encoding hands converters str: numpy 1.x
            # defaults to "bytes" and would pass them latin-1 bytes.
            table = np.loadtxt(counted, delimiter=",", ndmin=2, comments=None,
                               quotechar='"', converters=converters, encoding="utf-8")
        except ValueError as err:
            _raise_first_error(path, label_column, label_kind, str(err))
        if table.shape != (counted.rows, len(header)):
            _raise_first_error(path, label_column, label_kind,
                               "a quoted cell spans more than one line")

    labels = None
    class_labels = None
    feature_idx = [j for j in range(len(header)) if j != label_idx]
    if label_idx is not None:
        if label_kind == "real":
            labels = table[:, label_idx].copy()
        else:
            class_labels = np.array(list(codes))[table[:, label_idx].astype(np.intp)]
        table = table[:, feature_idx]

    return Dataset(
        # rows-as-samples on disk -> columns-as-samples in memory. Keep
        # it the transpose of a C-ordered table: a layout change alone
        # moves seeded releases through BLAS rounding.
        features=np.ascontiguousarray(table).T,
        labels=labels,
        class_labels=class_labels,
        feature_names=tuple(header[j] for j in feature_idx),
    )


_BLANK_LINES = ("", "\n", "\r\n", "\r")


class _CountedLines:
    """Iterate over lines, counting those up to the last non-blank one."""

    def __init__(self, lines):
        self._lines = lines
        self.rows = 0

    def __iter__(self):
        total = trailing_blank = 0
        for line in self._lines:
            total += 1
            trailing_blank = trailing_blank + 1 if line in _BLANK_LINES else 0
            yield line
        self.rows = total - trailing_blank


def _raise_first_error(path: str, label_column: str | None, label_kind: str | None,
                       cause: str) -> NoReturn:
    """Re-read path with csv.reader and raise a DataError for its first fault.

    load_csv calls this once its vectorized parse has failed, so the
    messages name the row (counted in records, the header being row 1)
    and the column. It never returns data.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        header = [h.strip() for h in header]
        rows = list(reader)

    # trailing blank lines are tolerated; an interior one hides a record
    # and is an error, never a silent drop
    while rows and not rows[-1]:
        rows.pop()
    for i, row in enumerate(rows):
        if not row:
            raise DataError(f"{path}: blank line at row {i + 2}")
    if not rows:
        raise DataError(f"{path}: no data rows")

    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise DataError(
                f"{path}: label column {label_column!r} not found in header {header}"
            )
        label_idx = header.index(label_column)
    if len(header) == (label_idx is not None):
        raise DataError(f"{path}: no feature columns left after removing the label")

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}"
            )
        for j, cell in enumerate(row):
            if j != label_idx and not _is_float(cell.strip()):
                raise DataError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {i + 2}, "
                    f"column {header[j]!r}"
                )
    if label_kind == "real":
        for row in rows:
            if not _is_float(row[label_idx].strip()):
                raise DataError(
                    f"{path}: non-numeric label value {row[label_idx].strip()!r} "
                    f"in column {label_column!r}"
                )
    raise DataError(f"{path}: cannot read as a numeric table: {cause}")


def _is_float(text: str) -> bool:
    # loadtxt's syntax: float()'s, without underscores or non-ASCII digits
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
        return True
    except ValueError:
        return False


# rows that _write_table formats at a time
WRITE_BLOCK = 256

REQUIRED_METADATA_KEYS = (
    "mode", "m", "p", "n", "n_synth", "epsilon_total", "epsilon_mu",
    "epsilon_sigma", "split_ratio", "label_bound", "seeded",
    "psd_repair_applied", "timestamp",
)


def write_dataset_csv(dataset: Dataset, path: str) -> str:
    """Write a Dataset back to rows-as-samples CSV.

    Floats are serialized with 17 significant digits, enough to
    round-trip IEEE doubles exactly. Real labels go in a trailing
    "label" column, categorical ones in a "class" column.
    """
    m = dataset.n_features
    names = list(dataset.feature_names) if dataset.feature_names else [
        f"z{j + 1}" for j in range(m)
    ]
    header = list(names)
    if dataset.labels is not None:
        header.append("label")
    elif dataset.class_labels is not None:
        header.append("class")

    last = dataset.labels
    if dataset.class_labels is not None:
        # each distinct class name is quoted once
        names, inverse = np.unique(dataset.class_labels, return_inverse=True)
        last = np.array([_csv_field(str(name)) for name in names], dtype=object)[inverse]
    return _write_table(path, header, dataset.features.T, last)


def write_release(synthetic: Dataset, metadata: dict, out_dir: str) -> tuple[str, str]:
    """Write a synthetic dataset plus its metadata sidecar.

    Produces out_dir/data.csv and out_dir/metadata.json; returns both
    paths. The metadata must carry the full accounting key set so every
    release is auditable on its own.
    """
    missing = [k for k in REQUIRED_METADATA_KEYS if k not in metadata]
    if missing:
        raise ValueError(f"metadata is missing required keys: {missing}")

    os.makedirs(out_dir, exist_ok=True)
    data_path = write_dataset_csv(synthetic, os.path.join(out_dir, "data.csv"))
    meta_path = os.path.join(out_dir, "metadata.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return data_path, meta_path


def write_matrix_csv(matrix: np.ndarray, path: str) -> str:
    """Write a bare numeric matrix as CSV with the header c1, c2, ..."""
    matrix = np.asarray(matrix, dtype=float)
    return _write_table(path, [f"c{j + 1}" for j in range(matrix.shape[1])], matrix)


def _write_table(path: str, header: list[str], table: np.ndarray,
                 last: np.ndarray | None = None) -> str:
    """Write header and rows; ``last`` is an optional trailing column of
    real labels or of already quoted class cells (an object array)."""
    # 17 significant digits round-trip any IEEE double exactly; rows end
    # in CRLF like csv.writer's, which writes the (quoted) header
    cells = ["%.17g"] * table.shape[1]
    if last is not None:
        cells.append("%s" if last.dtype == object else "%.17g")
    row = ",".join(cells) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        # one % per block of rows; tolist hands it Python floats, which
        # format faster than numpy scalars
        for start in range(0, table.shape[0], WRITE_BLOCK):
            rows = table[start:start + WRITE_BLOCK].tolist()
            if last is not None:
                for values, cell in zip(rows, last[start:start + WRITE_BLOCK].tolist()):
                    values.append(cell)
            fh.write(row * len(rows) % tuple(itertools.chain.from_iterable(rows)))
    return path


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as a cell of a row, quoted if it must be."""
    buf = io.StringIO()
    # written after a first cell, as in a release row: csv.writer quotes
    # an empty name only when it is the row's sole cell
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]
