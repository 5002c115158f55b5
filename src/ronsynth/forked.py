"""``forks``, the one rule for whether a forked child takes the second
half of a CSV read or write, and ``Child``, which runs it: with os.fork,
and a file above SPLIT_BYTES or a table above SPLIT_CELLS. A child hands
its half back through an unnamed temporary file made before the fork, so
a killed release leaves none behind; with no child, or a failed one, the
caller does the second half itself. The dataset module, which owns the
halves and the CSV they hold, imports this one at module level.
"""

from __future__ import annotations

import contextlib
import os
import signal
import tempfile
import warnings

# Files of more bytes are parsed, and tables of more cells formatted, in
# two processes. Below them the fork and the hand-over cost more than the
# second core saves: on a 2-core x86-64 VM, one and two processes broke
# even near 0.8 MB of CSV, and near 25k cells of a release written at
# dataset.RELEASE_DIGITS (two/one 1.05-1.07 at 20k cells, 0.87-0.90 at 32k;
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

