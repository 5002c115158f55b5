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

A release's data.csv is written with RELEASE_DIGITS significant digits:
its values are noisy draws, and rounding them is post-processing. A bare
matrix (projection.csv) is written with 17, which round-trip every
double exactly.

Parsing and formatting CSV text is most of a release's time. Every read
and write goes through the forked module: a large file is parsed in two
byte ranges, and every table is written in two halves of rows, the
second half by a forked child where that module's one rule says so. The
loaded Dataset, every DataError message and the written bytes are those
of one process. A file is parsed once; if it is rejected, the fault
finder checks cells from the line np.loadtxt stopped at.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn

import numpy as np


class DataError(ValueError):
    """Problem with input data content (missing file, bad cell, ...).

    ``sample``, when set, is the 0-based sample at fault: column j of
    the m x n matrix, which a loaded CSV holds at row j + 2.
    """

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


def column_sq_norms(X: np.ndarray) -> np.ndarray:
    """||x_j||² for every column of X, in one pass and without an m x n temporary.

    A non-finite entry makes its column's value non-finite; a finite
    column can also read inf, when its square overflows.
    """
    return np.einsum("ij,ij->j", X, X)


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with optional labels.

    features has shape (m, n): m feature dimensions, n samples stored
    column-wise. labels (real-valued) and class_labels (categorical)
    are mutually exclusive, each of length n when present. Real labels are
    kept as read; ``synthesis.measure`` clips them to the release's bound.

    Construction takes every column's squared norm once, with
    ``column_sq_norms``, and keeps it as sq_norms: the
    release normalizes every sample by these norms and reads no norm of
    X itself. The same pass checks that every feature is finite, since
    a non-finite entry makes its column's norm non-finite; only the
    columns whose norm is not finite are scanned again, to name the
    first bad cell in sample order (a CSV's order), and a finite column
    whose square overflows is accepted. A non-finite
    feature or real label is a DataError whose ``sample`` is set; the
    feature's message names its column when feature_names are given,
    as a loaded CSV's are. features is a
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
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != m:
                raise DataError(f"expected {m} feature names, got {len(names)}")
            object.__setattr__(self, "feature_names", names)
        # a non-finite entry makes its column's norm non-finite, so only the
        # columns of a non-finite norm (or of a square that overflows) are rescanned
        sq_norms = column_sq_norms(feats)
        suspects = np.flatnonzero(~np.isfinite(sq_norms))
        if len(suspects):
            bad = np.argwhere(~np.isfinite(feats[:, suspects].T))
            if len(bad):
                first, feature = bad[0].tolist()
                sample = int(suspects[first])
                where = (f"at feature {feature}, sample {sample}" if self.feature_names is None
                         else f"in column {self.feature_names[feature]!r}")
                raise DataError(f"non-finite feature value {where}", sample=sample)
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
            bad = np.flatnonzero(~np.isfinite(labels))
            if len(bad):
                raise DataError("labels contain non-finite values", sample=int(bad[0]))
            object.__setattr__(self, "labels", labels)
        if self.class_labels is not None:
            cls = np.asarray(self.class_labels)
            if cls.shape != (n,):
                raise DataError(f"class labels must have length {n}, got shape {cls.shape}")
            object.__setattr__(self, "class_labels", cls)

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
    try:
        with open(path, "rb") as raw:
            bom = raw.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8
        with open(path, newline="", encoding="utf-8-sig") as fh:
            head: list[str] = []
            lines = (head.append(line) or line for line in fh)
            header = [h.strip() for h in next(csv.reader(lines), [])]
            first = next(fh, "")
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        # the reader decodes 8 KiB at a time, so this byte may lie in any early row
        _raise_first_error(path, label_column, label_kind, str(err))
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

    try:
        table, class_labels = _parse(path, start, len(header), codes_col)
    except ValueError as err:
        _raise_first_error(path, label_column, label_kind, str(err),
                           len(head) + getattr(err, "lines", 0))

    labels = table[:, label_idx].copy() if label_kind == "real" else None
    feature_idx = [j for j in range(len(header)) if j != label_idx]
    if label_idx is not None:
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


class _Range(NamedTuple):
    """The table np.loadtxt parsed from a byte range, and the range's lines."""

    table: np.ndarray
    lines: int
    filled: int  # lines through the last non-blank one
    last: str  # the last non-blank line
    names: list[str]  # class names in the order of their codes in this range


def _parse(path: str, start: int, ncols: int,
           codes_col: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse the data lines from byte start on into one C-ordered table,
    in the one or two ranges of ``forked.parse_two``.

    Column codes_col, if set, holds categorical names, which each range
    codes in its own order of first appearance. Returns the table and,
    with codes_col, every row's name decoded by its range (else None).
    Raises _parse_range's ValueError, its ``lines`` counted from
    start; or one without ``lines`` when the ranges' counts do not add up
    to one table of ncols columns.
    """
    from .forked import parse_two  # on the first read: importing ronsynth never loads it
    ranges = parse_two(path, start, codes_col)

    # loadtxt skips blank lines, so its rows must number the lines up to
    # the last non-blank one
    rows = before = 0
    for part in ranges:
        if part.filled:
            rows = before + part.filled
        before += part.lines
    filled = [part for part in ranges if len(part.table)]
    if (sum(len(part.table) for part in filled) != rows
            or any(part.table.shape[1] != ncols for part in filled)):
        raise ValueError("a quoted cell spans more than one line")

    tables = [part.table for part in filled]
    # only ranges with rows are decoded: an empty np.array([]) is float64
    names = None if codes_col is None else np.concatenate(
        [np.array(part.names)[part.table[:, codes_col].astype(np.intp)] for part in filled])
    return (tables[0] if len(tables) == 1 else np.concatenate(tables)), names


def _parse_range(path: str, start: int, codes_col: int | None,
                 stop: int | None = None) -> _Range:
    """np.loadtxt of the lines of path in bytes [start, stop), or to its end.

    A ValueError it raises (a cell np.loadtxt rejects, or a byte that is
    not UTF-8) carries in ``lines`` the count of lines pulled so far: the
    fault is in the last of them or past it. It is 0 if the range ended
    inside the record np.loadtxt rejected.
    """
    codes: dict[str, int] = {}
    converters = None
    if codes_col is not None:
        converters = {codes_col: lambda cell: codes.setdefault(cell.strip(), len(codes))}
    raw = open(path, "rb")
    raw.seek(start)
    if stop is not None:
        raw = io.BufferedReader(_Span(raw, stop - start), 1 << 16)
    # newline="" splits lines as the header's reader did, keeping their ends
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as text:
        lines = _CountedLines(text)
        try:
            # a range of blank lines only is no fault: _parse counts its lines
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                # An explicit encoding hands converters str: numpy 1.x defaults
                # to "bytes" and would pass them latin-1 bytes.
                table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None,
                                   quotechar='"', converters=converters, encoding="utf-8")
        except ValueError as err:
            if lines.ended:  # inside a quoted cell, which in a whole file may run on
                err = ValueError("a quoted cell spans more than one line")
            err.lines = 0 if lines.ended else lines.lines
            raise err
    return _Range(table, lines.lines, lines.filled, lines.last, list(codes))


class _Span(io.RawIOBase):
    """The next size bytes of a binary file, as a raw stream that owns it."""

    def __init__(self, file, size: int):
        self._file = file
        self._left = size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        count = self._file.readinto(memoryview(buf)[:self._left])
        self._left -= count
        return count

    def close(self) -> None:
        self._file.close()
        super().close()


class _CountedLines:
    """Iterate over lines, counting them as they are yielded, noting the
    last non-blank one and how many lines run through it, and whether
    the lines ran out."""

    def __init__(self, lines):
        self._lines = lines
        self.lines = self.filled = 0
        self.last = ""
        self.ended = False

    def __iter__(self):
        for line in self._lines:
            self.lines += 1
            if line not in _BLANK_LINES:
                self.filled, self.last = self.lines, line
            yield line
        self.ended = True


def _raise_first_error(path: str, label_column: str | None, label_kind: str | None,
                       cause: str, from_line: int = 0) -> NoReturn:
    """Re-read path with csv.reader and raise a DataError for its first fault.

    load_csv calls this once its vectorized parse has failed, so the
    messages name the row (counted in records, the header being row 1)
    and the column. One pass streams the records, never holding them,
    and notes the first fault of each kind. They are raised after it in
    this order: an interior blank line, no data rows, a header fault, a
    row's width, feature cell or class name, a real label. Every row's
    width is checked, but its cells only if the row ends on line
    from_line of the file or past it: np.loadtxt accepted every line
    before the one it rejected. A byte that is not UTF-8 reads as a lone
    surrogate, which no number contains; one in a header cell or class
    name is named by its row and column. If no fault is found, the
    message gives cause. It never returns data.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        label_idx = None
        fault = None  # the first header or row fault; every one outranks a real label
        for j, name in enumerate(header):
            byte = _non_utf8_byte(name)
            if byte is not None:
                fault = f"{byte} in header cell {name!r} at row 1, column {j + 1}"
                break
        if label_column is not None:
            if label_column in header:
                label_idx = header.index(label_column)
            elif fault is None:
                fault = f"label column {label_column!r} not found in header {header}"
        if fault is None and len(header) == (label_idx is not None):
            fault = "no feature columns left after removing the label"
        bad_label = None
        rows = 0  # records up to the last non-blank one
        for i, row in enumerate(reader):
            if not row:
                continue
            if i > rows:
                # a blank record that a non-blank one follows hides a record;
                # trailing blank lines are tolerated
                raise DataError(f"{path}: blank line at row {rows + 2}")
            rows = i + 1
            if fault is not None:
                continue
            if len(row) != len(header):
                fault = f"row {i + 2} has {len(row)} cells, header has {len(header)}"
                continue
            if reader.line_num < from_line:
                continue
            for j, cell in enumerate(row):
                if j != label_idx and not _is_float(cell.strip()):
                    fault = (f"non-numeric value {cell.strip()!r} at row {i + 2}, "
                             f"column {header[j]!r}")
                    break
                if j == label_idx and label_kind == "categorical":
                    byte = _non_utf8_byte(cell)
                    if byte is not None:
                        fault = (f"{byte} in class name {cell.strip()!r} at row {i + 2}, "
                                 f"column {header[j]!r}")
                        break
            else:
                if (label_kind == "real" and bad_label is None
                        and not _is_float(row[label_idx].strip())):
                    bad_label = (f"non-numeric label value {row[label_idx].strip()!r} "
                                 f"at row {i + 2}, column {label_column!r}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    raise DataError(f"{path}: {fault or bad_label or 'cannot read as a numeric table: ' + cause}")


def _non_utf8_byte(text: str) -> str | None:
    """Name the first byte that is not UTF-8 in text, read with
    surrogateescape (as a lone surrogate), or None if there is none."""
    if not text.isascii():
        for char in text:
            if "\udc80" <= char <= "\udcff":
                return f"byte 0x{ord(char) - 0xdc00:02x} that is not UTF-8"
    return None


def plain_number_syntax(text: str) -> bool:
    """Whether text keeps to loadtxt's number syntax, which float() and
    int() widen with digit-group underscores and non-ASCII digits."""
    return text.isascii() and "_" not in text


def _is_float(text: str) -> bool:
    if not plain_number_syntax(text):
        return False
    try:
        float(text)
        return True
    except ValueError:
        return False


# rows that _write_table formats at a time
WRITE_BLOCK = 256

# Significant digits of every value in data.csv.
# The values are draws from a noisy Gaussian, so rounding them is
# post-processing and spends no privacy; digits past the ninth sit some
# 10^7 times below the sampling spread. A 9-digit decimal survives a
# trip through a double, so re-writing a reloaded release gives its
# bytes again (outside the subnormal range). %.9g formats about twice
# as fast as the exact %.17g.
RELEASE_DIGITS = 9

REQUIRED_METADATA_KEYS = (
    "mode", "m", "p", "n", "n_synth", "epsilon_total", "epsilon_mu",
    "epsilon_sigma", "split_ratio", "label_bound", "seeded",
    "psd_repair_applied", "timestamp",
)


def write_dataset_csv(dataset: Dataset, path: str) -> str:
    """Write a Dataset back to rows-as-samples CSV.

    Floats are written with RELEASE_DIGITS significant digits. Real
    labels go in a trailing "label" column, categorical ones in a
    "class" column.
    """
    header = list(dataset.feature_names or (f"z{j + 1}" for j in range(dataset.n_features)))
    if dataset.labels is not None:
        header.append("label")
    elif dataset.class_labels is not None:
        header.append("class")

    last = dataset.labels
    if dataset.class_labels is not None:
        # each distinct class name is quoted once
        names, inverse = np.unique(dataset.class_labels, return_inverse=True)
        last = np.array([_csv_field(str(name)) for name in names], dtype=object)[inverse]
    return _write_table(path, header, dataset.features.T, RELEASE_DIGITS, last)


def write_release(synthetic: Dataset, metadata: dict, out_dir: str,
                  projection: np.ndarray | None = None) -> tuple[str, ...]:
    """Write a synthetic dataset plus its metadata sidecar.

    Produces out_dir/data.csv, out_dir/metadata.json and, given the m x p
    basis, out_dir/projection.csv; returns their paths. The metadata must
    carry the full accounting key set so every release is auditable on its
    own. out_dir, new or an empty directory, is built in a ".ronsynth-*"
    stage beside it and renamed into place whole; a failed write removes
    the stage, and a killed one may leave it, never a partial out_dir.
    An OSError of the stage, or of a path in it, names that path in out_dir.
    """
    missing = [k for k in REQUIRED_METADATA_KEYS if k not in metadata]
    if missing:
        raise ValueError(f"metadata is missing required keys: {missing}")

    home = existing_ancestor(out_dir)
    rel = os.path.relpath(out_dir, home)  # out_dir, under the parents it lacks
    try:
        with tempfile.TemporaryDirectory(prefix=".ronsynth-", dir=home) as stage:
            built = os.path.join(stage, rel)
            os.makedirs(built)
            written = [write_dataset_csv(synthetic, os.path.join(built, "data.csv")),
                       os.path.join(built, "metadata.json")]
            with open(written[-1], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
            if projection is not None:
                written.append(write_matrix_csv(projection, os.path.join(built, "projection.csv")))
            # replaces an empty out_dir; a non-empty one, or a file, is an OSError
            top = rel.split(os.sep)[0]  # out_dir or its first missing parent
            os.rename(os.path.join(stage, top), os.path.join(home, top))
    except OSError as err:
        # the stage is gone, or was never made: name it, or a path in it, as in out_dir
        first, _, inside = os.path.relpath(err.filename or home, home).partition(os.sep)
        if first.startswith(".ronsynth-"):
            err.filename = os.path.normpath(
                os.path.join(out_dir, os.path.relpath(inside or rel, rel)))
        raise
    return tuple(os.path.join(out_dir, os.path.basename(path)) for path in written)


def existing_ancestor(path: str) -> str:
    """The nearest existing ancestor of path, where write_release stages it."""
    home = os.path.dirname(os.path.abspath(path))
    while not os.path.lexists(home):
        home = os.path.dirname(home)
    return home


def write_matrix_csv(matrix: np.ndarray, path: str) -> str:
    """Write a bare numeric matrix as CSV with the header c1, c2, ...

    Floats are written with 17 significant digits, which round-trip any
    IEEE double exactly: a reader of projection.csv can check that W is
    orthonormal to the last bit.
    """
    matrix = np.asarray(matrix, dtype=float)
    return _write_table(path, [f"c{j + 1}" for j in range(matrix.shape[1])], matrix, 17)


def _write_table(path: str, header: list[str], table: np.ndarray, digits: int,
                 last: np.ndarray | None = None) -> str:
    """Write header and rows, each number with digits significant digits;
    ``last`` is an optional trailing column of real labels or of already
    quoted class cells (an object array).

    ``forked.write_halves`` formats the rows in two halves. A failed
    write leaves a partial file at path.
    """
    # rows end in CRLF like csv.writer's, which writes the (quoted) header
    number = f"%.{digits}g"
    cells = [number] * table.shape[1]
    if last is not None:
        cells.append("%s" if last.dtype == object else number)
    row = ",".join(cells) + "\r\n"
    from .forked import write_halves  # on the first write: importing ronsynth never loads it
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        write_halves(fh, path, row, table, last)
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
