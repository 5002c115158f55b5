"""The forked halves of the dataset module's two-process CSV I/O.

A forked child parses the second byte range of a large file, or formats
the second half of a large table's rows, into a temporary file that its
parent made before the fork and reads once it has reaped a child that
exited 0. The file has no name, so a killed release leaves none behind.
The dataset module imports this one only for a file above SPLIT_BYTES
or a table above SPLIT_CELLS, so a release of small inputs never loads
it. What the halves must add up to, and the one-process path that every
failure falls back to, stay in the dataset module.
"""

from __future__ import annotations

import io
import os
import pickle
import shutil
import signal
import tempfile
import warnings

import numpy as np

from . import dataset


class Child:
    """work(*args) run in a forked child, as a context manager.

    The work parses or formats text: it makes no BLAS call and writes
    only to the temporary file whose descriptor the parent hands it. The
    child leaves through os._exit, 0 if work returned and 1 if it
    raised, so it runs none of its parent's atexit hooks (nor a test
    runner's), flushes no stdio buffer it inherited and prints no
    warning or traceback. A fork that fails counts as a failed child;
    the caller then does the work itself. Leaving the block reaps the
    child, which is killed first if wait() has not reaped it.
    """

    def __init__(self, work, *args):
        try:
            self.pid = os.fork()
        except OSError:
            self.pid = None
        if self.pid == 0:
            code = 1
            try:
                warnings.simplefilter("ignore")
                work(*args)
                code = 0
            finally:
                os._exit(code)
        self._status = None

    def wait(self) -> bool:
        """Reap the child; True if it exited with status 0."""
        if self.pid is None:
            return False
        if self._status is None:
            self._status = os.waitpid(self.pid, 0)[1]
        return os.waitstatus_to_exitcode(self._status) == 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pid is not None and self._status is None:
            os.kill(self.pid, signal.SIGKILL)
            self.wait()


def parse_two(path: str, start: int, split: int, codes_col: int | None) -> list[dataset._Range]:
    """dataset._parse_range of bytes [start, split) of path here, and of
    [split, end) in a forked child.

    Raises ValueError when the child fails, or when the first range ends
    inside a quoted cell: in the whole file that record runs on past the
    split, though each range alone may parse. Raises OSError when the
    temporary file cannot be made.
    """
    # the default temporary directory: the input's own may be read-only
    with tempfile.TemporaryFile() as out:
        with Child(_send_range, out.fileno(), path, split, codes_col) as child:
            span = _Span(dataset._open_at(path, start), split - start)
            first = dataset._parse_range(io.BufferedReader(span, 1 << 16), codes_col)
            if not child.wait():
                raise ValueError("the second range's parse failed")
        out.seek(0)
        # protocol 5 reads the table into one buffer that the array then wraps
        ranges = [first, pickle.load(out)]
    if _ends_in_quote(first.last):
        raise ValueError("a quoted cell spans the split")
    return ranges


def _send_range(fd: int, path: str, start: int, codes_col: int | None) -> None:
    """Pickle the _parse_range of path from byte start on into the file fd."""
    part = dataset._parse_range(dataset._open_at(path, start), codes_col)
    with open(fd, "wb", closefd=False) as out:
        pickle.dump(part, out, protocol=5)


def _ends_in_quote(line: str) -> bool:
    """Whether np.loadtxt, starting a record at line, is inside a quoted cell at its end.

    Such a line runs on into a copy of itself, so the two make one record.
    """
    if '"' not in line:
        return False
    try:
        twice = np.loadtxt([line, line], delimiter=",", ndmin=2, comments=None,
                           quotechar='"', converters=lambda cell: 0.0, encoding="utf-8")
    except ValueError:
        return True
    return len(twice) != 2


def write_halves(fh, path: str, row: str, table: np.ndarray,
                 last: np.ndarray | None) -> None:
    """dataset._format_rows of the first half of the rows into fh, while a forked
    child formats the second half into an unnamed temporary file on path's
    filesystem; then append that file to fh. If the child fails, this
    process formats the second half itself."""
    split = len(table) // 2
    head = table[:split], None if last is None else last[:split]
    tail = table[split:], None if last is None else last[split:]
    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as part:
        with Child(_format_file, part.fileno(), row, *tail) as child:
            dataset._format_rows(fh, row, *head)
            formatted = child.wait()
        if formatted:
            fh.flush()
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer, 1 << 20)
        else:
            dataset._format_rows(fh, row, *tail)


def _format_file(fd: int, row: str, table: np.ndarray, last: np.ndarray | None) -> None:
    with open(fd, "w", newline="", encoding="utf-8", closefd=False) as fh:
        dataset._format_rows(fh, row, table, last)


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
