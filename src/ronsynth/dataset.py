"""Dataset loading, validation, and release writing.

Files are conventional tabular CSVs: one row per sample, first row a
header. Numbers use the plain float syntax, in ASCII and without
digit-group underscores. Every line is data: a line starting with "#" is
not a comment, and a blank line is an error unless only blank lines
follow it. A UTF-8 byte-order mark before the header is dropped.
Internally, all math in this package runs on the transposed layout where
samples are *columns* of an m x n matrix, so the covariance and
sensitivity formulas read exactly as derived. This module owns that
transpose; nothing outside it should ever flip orientation.

Parsing and formatting CSV text is most of a release's time, so large
files use two processes. A file of more than SPLIT_BYTES bytes is
parsed in two byte ranges, split at a line end, the second in a forked
child that hands its table back through a pipe; a table of more than
SPLIT_CELLS cells is written in two halves, the second formatted by a
child into a temporary file beside the output and appended to it. The
loaded Dataset, every DataError message and the written bytes are those
of one process: a two-process parse whose counts do not add up, or whose
child fails, is redone whole in one process, and a failed child's half
is formatted by the parent. Where there is no os.fork, or no "\n" ends a
line in the second half of the file (lines that end in "\r" alone), one
process does all of it.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn

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

    with open(path, "rb") as raw:
        bom = raw.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8
    with open(path, newline="", encoding="utf-8-sig") as fh:
        head: list[str] = []
        lines = (head.append(line) or line for line in fh)
        header = [h.strip() for h in next(csv.reader(lines), [])]
        first = next(fh, "")
    # the data start past the header's bytes, which its lines re-encode to
    # exactly (tell() is no byte offset after a line that ends in "\r")
    start = len(codecs.BOM_UTF8) * bom + len("".join(head).encode("utf-8"))
    has_label = label_column is not None
    if ((has_label and label_column not in header) or len(header) == has_label
            or first in _BLANK_LINES):
        _raise_first_error(path, label_column, label_kind,
                           "a header fault, or no data row before the first blank line")
    label_idx = header.index(label_column) if has_label else None
    codes_col = label_idx if label_kind == "categorical" else None

    table = None
    split = _split_point(path, start)
    if split is not None:
        try:
            table, names = _parse(path, [start, split], len(header), codes_col)
        except (ValueError, OSError):
            pass  # the one-process parse below gives this file's one answer
    if table is None:
        try:
            table, names = _parse(path, [start], len(header), codes_col)
        except ValueError as err:
            _raise_first_error(path, label_column, label_kind, str(err))

    labels = None
    class_labels = None
    feature_idx = [j for j in range(len(header)) if j != label_idx]
    if label_idx is not None:
        if label_kind == "real":
            labels = table[:, label_idx].copy()
        else:
            class_labels = np.array(names)[table[:, label_idx].astype(np.intp)]
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


# Files of more bytes are parsed, and tables of more cells formatted, in
# two processes. Below them the fork and the hand-over cost more than the
# second core saves: on a 2-core x86-64 VM, one and two processes broke
# even near 0.8 MB of CSV and 16k cells.
SPLIT_BYTES = 1 << 20
SPLIT_CELLS = 1 << 15

_BLANK_LINES = ("", "\n", "\r\n", "\r")


def _split_point(path: str, start: int) -> int | None:
    """Where the data lines from byte start on split between two processes.

    That is just past the first "\n" from their middle byte on. None,
    for one process, when there is no os.fork, the file has at most
    SPLIT_BYTES bytes or no "\n" ends a line before its last byte.
    """
    size = os.path.getsize(path)
    if not hasattr(os, "fork") or size <= SPLIT_BYTES:
        return None
    with open(path, "rb") as fh:
        fh.seek((start + size) // 2)
        while chunk := fh.read(1 << 16):
            end = chunk.find(b"\n")
            if end >= 0:
                split = fh.tell() - len(chunk) + end + 1
                return split if split < size else None
    return None


class _Range(NamedTuple):
    """The table np.loadtxt parsed from a byte range, and the range's lines."""

    table: np.ndarray
    lines: int
    trailing_blank: int
    last: str  # the last non-blank line
    names: list[str]  # class names in the order of their codes


def _parse(path: str, starts: list[int], ncols: int,
           codes_col: int | None) -> tuple[np.ndarray, list[str]]:
    """Parse the data lines from starts[0] on into one C-ordered table.

    Range i runs from starts[i] to starts[i + 1], the last one to the
    end of the file; with two, ``forked.parse_two`` parses them. Column
    codes_col, if set, holds categorical names, which the table codes in
    the order they first appear. Returns the table and those names.
    Raises ValueError with np.loadtxt's message, when the ranges' counts
    do not add up to one table of ncols columns, or when the child fails.
    """
    if len(starts) == 1:
        ranges = [_parse_range(_open_at(path, starts[0]), codes_col)]
    else:
        from .forked import parse_two  # loaded for files above SPLIT_BYTES only
        ranges = parse_two(path, *starts, codes_col)

    # loadtxt skips blank lines, so its rows must number the lines up to
    # the last non-blank one
    trailing = 0
    for part in reversed(ranges):
        trailing += part.trailing_blank
        if part.trailing_blank < part.lines:
            break
    rows = sum(part.lines for part in ranges) - trailing
    if (sum(len(part.table) for part in ranges) != rows
            or any(part.table.shape[1] != ncols for part in ranges if len(part.table))):
        raise ValueError("a quoted cell spans more than one line")

    tables = [part.table for part in ranges if len(part.table)]
    names = list(ranges[0].names)
    if len(tables) > 1 and codes_col is not None:
        # re-key the child's codes to the order of first appearance in the file
        index = {name: code for code, name in enumerate(names)}
        recode = np.array([index.setdefault(name, len(index)) for name in ranges[1].names])
        tables[1][:, codes_col] = recode[tables[1][:, codes_col].astype(np.intp)]
        names = list(index)
    return (tables[0] if len(tables) == 1 else np.concatenate(tables)), names


def _parse_range(raw, codes_col: int | None) -> _Range:
    """np.loadtxt of the lines of a binary stream, from where it stands to its end."""
    codes: dict[str, int] = {}
    converters = None
    if codes_col is not None:
        converters = {codes_col: lambda cell: codes.setdefault(cell.strip(), len(codes))}
    # newline="" splits lines as the header's reader did, keeping their ends
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as text:
        lines = _CountedLines(text)
        # An explicit encoding hands converters str: numpy 1.x defaults
        # to "bytes" and would pass them latin-1 bytes.
        table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None,
                           quotechar='"', converters=converters, encoding="utf-8")
    return _Range(table, lines.lines, lines.trailing_blank, lines.last, list(codes))


def _open_at(path: str, start: int):
    """path opened for binary reading at byte start."""
    raw = open(path, "rb")
    raw.seek(start)
    return raw


class _CountedLines:
    """Iterate over lines, counting them and the blank ones at the end, and
    keeping the last non-blank one."""

    def __init__(self, lines):
        self._lines = lines
        self.lines = self.trailing_blank = 0
        self.last = ""

    def __iter__(self):
        total = trailing_blank = 0
        last = ""
        for line in self._lines:
            total += 1
            if line in _BLANK_LINES:
                trailing_blank += 1
            else:
                trailing_blank = 0
                last = line
            yield line
        self.lines, self.trailing_blank, self.last = total, trailing_blank, last


def _raise_first_error(path: str, label_column: str | None, label_kind: str | None,
                       cause: str) -> NoReturn:
    """Re-read path with csv.reader and raise a DataError for its first fault.

    load_csv calls this once its vectorized parse has failed, so the
    messages name the row (counted in records, the header being row 1)
    and the column. The records are streamed, never held: one pass finds
    the blank ones and the row count, and after the header checks a
    second pass checks the cells. It never returns data.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        # trailing blank lines are tolerated; an interior one hides a record
        # and is an error, never a silent drop
        rows = 0  # records up to the last non-blank one
        blank = None  # the first blank record that a non-blank one follows
        for i, row in enumerate(reader):
            if row:
                if blank is None and i > rows:
                    blank = rows
                rows = i + 1
    if blank is not None:
        raise DataError(f"{path}: blank line at row {blank + 2}")
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

    # every feature cell is checked before any label
    bad_label = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(itertools.islice(reader, rows)):
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
            if (label_kind == "real" and bad_label is None
                    and not _is_float(row[label_idx].strip())):
                bad_label = row[label_idx].strip()
    if bad_label is not None:
        raise DataError(
            f"{path}: non-numeric label value {bad_label!r} in column {label_column!r}"
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
    real labels or of already quoted class cells (an object array).

    A table of more than SPLIT_CELLS cells is formatted in two halves,
    the second by a forked child (``forked.write_halves``). If writing
    fails, no file is left at path.
    """
    # 17 significant digits round-trip any IEEE double exactly; rows end
    # in CRLF like csv.writer's, which writes the (quoted) header
    cells = ["%.17g"] * table.shape[1]
    if last is not None:
        cells.append("%s" if last.dtype == object else "%.17g")
    row = ",".join(cells) + "\r\n"
    fh = open(path, "w", newline="", encoding="utf-8")
    try:
        with fh:
            csv.writer(fh).writerow(header)
            if hasattr(os, "fork") and table.size > SPLIT_CELLS:
                from .forked import write_halves  # loaded for large tables only
                write_halves(fh, path, row, table, last)
            else:
                _format_rows(fh, row, table, last)
    except BaseException:
        os.remove(path)
        raise
    return path


def _format_rows(fh, row: str, table: np.ndarray, last: np.ndarray | None) -> None:
    """Write one ``row`` per row of table, with last's cell appended when given."""
    # one % per block of rows; tolist hands it Python floats, which
    # format faster than numpy scalars
    for start in range(0, table.shape[0], WRITE_BLOCK):
        rows = table[start:start + WRITE_BLOCK].tolist()
        if last is not None:
            for values, cell in zip(rows, last[start:start + WRITE_BLOCK].tolist()):
                values.append(cell)
        fh.write(row * len(rows) % tuple(itertools.chain.from_iterable(rows)))


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as a cell of a row, quoted if it must be."""
    buf = io.StringIO()
    # written after a first cell, as in a release row: csv.writer quotes
    # an empty name only when it is the row's sole cell
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]
