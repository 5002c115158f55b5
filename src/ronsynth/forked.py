"""The second half of every CSV read and write in the dataset module, and
``forks``, the one rule for whether a forked child takes it: with
os.fork, and a file above SPLIT_BYTES or a table above SPLIT_CELLS. A
file of at most SPLIT_BYTES bytes is parsed as one range. A child hands
its half back through an unnamed temporary file made before the fork, so
a killed release leaves none behind; with no child, or a failed one, the
parent does the second half itself. The dataset module imports this one
on its first CSV read or write.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import signal
import tempfile
import warnings

import numpy as np

from . import dataset

# Files of more bytes are parsed, and tables of more cells formatted, in
# two processes. Below them the fork and the hand-over cost more than the
# second core saves: on a 2-core x86-64 VM, one and two processes broke
# even near 0.8 MB of CSV, and near 25k cells of a release written at
# RELEASE_DIGITS (two/one 1.05-1.07 at 20k cells, 0.87-0.90 at 32k;
# 9-column tables, median of 31 alternating writes).
SPLIT_BYTES = 1 << 20
SPLIT_CELLS = 1 << 15


def forks(size: int, limit: int) -> bool:
    """Whether a forked child takes the second half of size bytes or cells."""
    return hasattr(os, "fork") and size > limit


class Child(contextlib.AbstractContextManager):
    """work(fd, *args) run in a forked child if forks(size, limit), as a
    context manager; fd is an unnamed temporary file made in dir before
    the fork, which the parent reads as ``out``.

    The work parses or formats text: it makes no BLAS call and writes
    only to that file. The child leaves through os._exit, 0 if work
    returned and 1 if it raised, so it runs none of its parent's atexit
    hooks (nor a test runner's), flushes no stdio buffer it inherited
    and prints no warning or traceback. With no child (forks says no, or
    the fork or the file fails) wait() is False and the caller does the
    work itself. Leaving the block reaps the child, which is killed first
    if wait() has not reaped it, and closes out.
    """

    def __init__(self, work, *args, size: int, limit: int, dir=None):
        self.pid = self.out = self._status = None
        try:
            if forks(size, limit):
                self.out = tempfile.TemporaryFile(dir=dir)
                self.pid = os.fork()
        except OSError:
            return
        if self.pid == 0:
            code = 1
            try:
                warnings.simplefilter("ignore")
                work(self.out.fileno(), *args)
                code = 0
            finally:
                os._exit(code)

    def wait(self) -> bool:
        """Reap the child; True if it exited with status 0, with out rewound."""
        if self.pid is None:
            return False
        if self._status is None:
            self._status = os.waitpid(self.pid, 0)[1]
            self.out.seek(0)  # the child's writes moved the offset the two share
        return os.waitstatus_to_exitcode(self._status) == 0

    def __exit__(self, *exc):
        if self.pid is not None and self._status is None:
            os.kill(self.pid, signal.SIGKILL)
            self.wait()
        if self.out is not None:
            self.out.close()


def parse_two(path: str, start: int, codes_col: int | None) -> list[dataset._Range]:
    """dataset._parse_range of the data lines of path from byte start on:
    of bytes [start, split) here and of [split, end) in a child, or here
    with none; of [start, end) if _split_point gives no split.

    Raises the ValueError of either range, the second's ``lines``
    counted from start. Raises ValueError without ``lines`` when the
    first range ends inside a quoted cell: in the whole file that record
    runs on past the split, though each range alone may parse.
    """
    split = _split_point(path, start)
    if split is None:
        return [dataset._parse_range(path, start, codes_col)]
    # the default temporary directory: the input's own may be read-only
    with Child(_send_range, path, split, codes_col,
               size=os.path.getsize(path), limit=SPLIT_BYTES) as child:
        first = dataset._parse_range(path, start, codes_col, split)
        # protocol 5 reads the table into one buffer that the array then wraps
        second = pickle.load(child.out) if child.wait() else _range(path, split, codes_col)
    if _ends_in_quote(first.last):
        raise ValueError("a quoted cell spans more than one line")
    if isinstance(second, ValueError):
        second.lines += first.lines
        raise second
    return [first, second]


def _split_point(path: str, start: int) -> int | None:
    """Where the data lines from byte start on split into two ranges: just
    past the first "\n" from their middle byte on. None, for one range,
    when the file has at most SPLIT_BYTES bytes or no "\n" ends a line
    before its last byte."""
    size = os.path.getsize(path)
    if size <= SPLIT_BYTES:
        return None
    with open(path, "rb") as fh:
        split = fh.seek((start + size) // 2) + len(fh.readline())
    return split if split < size else None


def _range(path: str, start: int, codes_col: int | None) -> dataset._Range | ValueError:
    """The _parse_range of path from byte start on, or the ValueError it raised."""
    try:
        return dataset._parse_range(path, start, codes_col)
    except ValueError as err:
        return err


def _send_range(fd: int, path: str, start: int, codes_col: int | None) -> None:
    """Pickle _range(path, start, codes_col) into the file fd."""
    with open(fd, "wb", closefd=False) as out:
        pickle.dump(_range(path, start, codes_col), out, protocol=5)


def _ends_in_quote(line: str) -> bool:
    """Whether np.loadtxt, starting a record at line, is inside a quoted cell at its end.

    Such a line runs on into a copy of itself, so the two make one record.
    The line holds no line break, so np.loadtxt takes the pair; its
    ValueError, if any, reaches load_csv's fault finder as True does.
    """
    if '"' not in line:
        return False
    twice = np.loadtxt([line, line], delimiter=",", ndmin=2, comments=None,
                       quotechar='"', converters=lambda cell: 0.0, encoding="utf-8")
    return len(twice) != 2


def write_halves(fh, path: str, row: str, table: np.ndarray,
                 last: np.ndarray | None) -> None:
    """dataset._format_rows of the first half of the rows into fh, while a child
    formats the second half into an unnamed temporary file on path's
    filesystem; then append that file to fh. With no child, or a failed
    one, this process formats the second half itself."""
    split = len(table) // 2
    head = table[:split], None if last is None else last[:split]
    tail = table[split:], None if last is None else last[split:]
    with Child(_format_file, row, *tail, size=table.size, limit=SPLIT_CELLS,
               dir=os.path.dirname(os.path.abspath(path))) as child:
        dataset._format_rows(fh, row, *head)
        if child.wait():
            fh.flush()
            shutil.copyfileobj(child.out, fh.buffer, 1 << 20)
        else:
            dataset._format_rows(fh, row, *tail)


def _format_file(fd: int, row: str, table: np.ndarray, last: np.ndarray | None) -> None:
    with open(fd, "w", newline="", encoding="utf-8", closefd=False) as fh:
        dataset._format_rows(fh, row, table, last)
