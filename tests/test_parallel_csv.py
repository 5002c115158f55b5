"""Two-process CSV parsing and formatting give one process's results.

SPLIT_BYTES and SPLIT_CELLS are monkeypatched to 0 to force two
processes on small inputs, and to a size no file reaches for one.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from ronsynth import dataset, forked
from ronsynth.cli import main
from ronsynth.dataset import DataError, Dataset, load_csv, write_dataset_csv, write_matrix_csv

NEVER = 1 << 62
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # every forked child has been reaped: this process has none left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def parses(monkeypatch):
    """(ranges, returned) of every parse load_csv tries, in order."""
    calls = []
    parse = dataset._parse

    def spy(path, starts, *args):
        calls.append((len(starts), False))
        result = parse(path, starts, *args)
        calls[-1] = (len(starts), True)
        return result

    monkeypatch.setattr(dataset, "_parse", spy)
    return calls


@pytest.fixture
def waits(monkeypatch):
    """Whether each forked child, as its parent reaped it, succeeded."""
    calls = []
    wait = forked.Child.wait

    def spy(child):
        calls.append(wait(child))
        return calls[-1]

    monkeypatch.setattr(forked.Child, "wait", spy)
    return calls


# a file parsed at once in one process and then in two; two processes
# whose parse does not add up, and one process, then reach the same error
SPLIT_AND_ACCEPTED = [(1, True), (2, True)]
SPLIT_AND_REJECTED = [(1, False), (2, False), (1, False)]


def _write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _load(monkeypatch, split_bytes, path, column=None, kind=None):
    """load_csv's Dataset, or its DataError's text."""
    monkeypatch.setattr(dataset, "SPLIT_BYTES", split_bytes)
    try:
        return load_csv(path, label_column=column, label_kind=kind)
    except DataError as err:
        return str(err)


def _assert_same(one, two):
    if isinstance(one, str) or isinstance(two, str):
        assert one == two
        return
    assert one.features.tobytes() == two.features.tobytes()
    assert one.features.strides == two.features.strides
    assert one.feature_names == two.feature_names
    for a, b in ((one.labels, two.labels), (one.class_labels, two.class_labels)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _data_lines(monkeypatch, path):
    """The data lines of path and the index of the one its split starts."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = data.index(b"\n") + 1  # past a one-line header
    with monkeypatch.context() as patch:
        patch.setattr(dataset, "SPLIT_BYTES", 0)
        split = dataset._split_point(path, start)
    lines = data[start:].splitlines(keepends=True)
    if split is None:
        return lines, None
    ends = np.cumsum([len(line) for line in lines]) + start
    return lines, int(np.searchsorted(ends, split)) + 1


def _check_parity(monkeypatch, path, column=None, kind=None):
    one = _load(monkeypatch, NEVER, path, column, kind)
    two = _load(monkeypatch, 0, path, column, kind)
    _assert_same(one, two)
    return two


ROWS = [f"{i}.5,{-i}e-3\n" for i in range(1, 9)]


class TestLoadParity:
    @pytest.mark.parametrize("text", [
        pytest.param("f1,f2\r\n" + "".join(r.replace("\n", "\r\n") for r in ROWS), id="crlf"),
        pytest.param("f1,f2\n" + "".join(ROWS)[:-1], id="no final newline"),
        pytest.param("f1,f2\n" + "".join(ROWS) + "\n\r\n\n", id="trailing blank lines"),
        pytest.param("\ufefff1,f2\n" + "".join(ROWS), id="byte-order mark"),
        pytest.param("f1,f2\n1,2\n" + "\n" * 20, id="second range all blank"),
        pytest.param(",".join(["f" * 300, "g" * 300]) + "\n1,2\n3,4\n5,6\n",
                     id="middle byte in the header"),
        # the data's middle byte too: one range
        pytest.param("f1,f2\n1,2\n3,4\n" + "7." + "0" * 300 + "1,8\n",
                     id="middle byte in the last line"),
    ])
    def test_accepted_files_match(self, tmp_path, monkeypatch, parses, text):
        path = _write(tmp_path, text)
        data = _check_parity(monkeypatch, path)
        assert isinstance(data, Dataset)
        split = _data_lines(monkeypatch, path)[1] is not None
        assert parses == (SPLIT_AND_ACCEPTED if split else [(1, True), (1, True)])

    def test_cr_only_file_is_parsed_in_one_process(self, tmp_path, monkeypatch, parses):
        path = _write(tmp_path, "f1,f2\r" + "".join(r.replace("\n", "\r") for r in ROWS))
        data = _check_parity(monkeypatch, path)
        assert data.n_samples == len(ROWS)
        assert parses == [(1, True), (1, True)]

    @pytest.mark.parametrize("blank", ["\n", "\r\n"])
    @pytest.mark.parametrize("at", range(1, len(ROWS)))
    def test_interior_blank_line_anywhere(self, tmp_path, monkeypatch, parses, blank, at):
        rows = ROWS[:at] + [blank] + ROWS[at:]
        path = _write(tmp_path, "f1,f2\n" + "".join(rows))
        assert _check_parity(monkeypatch, path) == f"{path}: blank line at row {at + 2}"
        assert parses == SPLIT_AND_REJECTED

    def test_interior_blank_lines_meet_both_range_ends(self, tmp_path, monkeypatch):
        # the sweep above puts the blank line first and last in each range
        where = set()
        for at in range(1, len(ROWS)):
            path = _write(tmp_path, "f1,f2\n" + "".join(ROWS[:at] + ["\n"] + ROWS[at:]))
            lines, second = _data_lines(monkeypatch, path)
            where.add({second - 1: "last of first", second: "first of second"}.get(at, ""))
        assert {"last of first", "first of second"} <= where

    @pytest.mark.parametrize("bad,message", [
        ("3", "row {row} has 1 cells, header has 2"),
        ("3,abc", "non-numeric value 'abc' at row {row}, column 'f2'"),
        ("3,nan", "non-finite feature value at feature 1, sample {sample}"),
    ])
    def test_faults_in_the_second_range(self, tmp_path, monkeypatch, parses, bad, message):
        rows = ROWS[:-1] + [bad + "\n"]
        path = _write(tmp_path, "f1,f2\n" + "".join(rows))
        text = message.format(row=len(rows) + 1, sample=len(rows) - 1)
        # a NaN parses, and the Dataset then names its (global) sample
        nan = "sample" in message
        assert _check_parity(monkeypatch, path) == (text if nan else f"{path}: {text}")
        assert parses == (SPLIT_AND_ACCEPTED if nan else SPLIT_AND_REJECTED)

    @pytest.mark.parametrize("quoted", [['1,0,"2\n', '"\n'], ['1,0,"2\n']],
                             ids=["closed on the next line", "never closed"])
    def test_quote_open_at_the_split(self, tmp_path, monkeypatch, quoted):
        # each range alone can parse, but in the whole file the quote joins lines
        spanned = False
        for at in range(1, len(ROWS)):
            rows = [r[:-1] + ",0\n" for r in ROWS]
            path = _write(tmp_path, "f1,f2,f3\n" + "".join(rows[:at] + quoted + rows[at:]))
            message = _check_parity(monkeypatch, path)
            assert message.startswith(f"{path}: ")
            spanned |= _data_lines(monkeypatch, path)[1] == at + 1
        assert spanned

    def test_real_labels(self, tmp_path, monkeypatch, parses):
        path = _write(tmp_path, "f1,y,f2\n" + "".join(f"{i},{i / 4},{-i}\n" for i in range(12)))
        data = _check_parity(monkeypatch, path, "y", "real")
        assert data.labels.tolist() == [i / 4 for i in range(12)]
        assert parses == SPLIT_AND_ACCEPTED

    def test_quoted_and_empty_class_names(self, tmp_path, monkeypatch, parses):
        names = ["a", "a", "b", "a", "猫", "b", "ü", '"x,y"', "a", "", '" a "']
        rows = "".join(f"{i},{name},{i / 4}\n" for i, name in enumerate(names))
        path = _write(tmp_path, "f1,cls,y\n" + rows)
        data = _check_parity(monkeypatch, path, "cls", "categorical")
        assert data.class_labels.tolist() == [n.strip('" ') for n in names]
        assert parses == SPLIT_AND_ACCEPTED

    def test_class_names_first_seen_in_the_second_range(self, tmp_path, monkeypatch,
                                                        parses):
        names = ["a"] * 6 + ["猫", "b", "a", "ü", "猫"]
        path = _write(tmp_path, "f1,cls\n" + "".join(f"{i},{n}\n" for i, n in enumerate(names)))
        _, second = _data_lines(monkeypatch, path)
        assert set(names[second:]) - set(names[:second])
        data = _check_parity(monkeypatch, path, "cls", "categorical")
        assert data.class_labels.tolist() == names
        assert parses == SPLIT_AND_ACCEPTED

    def test_a_failed_child_leaves_the_one_process_parse(self, tmp_path, monkeypatch,
                                                        parses):
        def fail(*args):
            raise OSError("the child cannot parse")

        monkeypatch.setattr(forked, "_send_range", fail)
        path = _write(tmp_path, "f1,cls\n" + "".join(f"{i},c{i % 3}\n" for i in range(40)))
        _check_parity(monkeypatch, path, "cls", "categorical")
        assert parses == [(1, True), (2, False), (1, True)]

    def test_a_child_failing_after_it_sent_leaves_the_one_process_parse(
            self, tmp_path, monkeypatch, parses):
        send_range = forked._send_range

        def send_and_fail(*args):
            send_range(*args)
            raise OSError("the child fails on its way out")

        monkeypatch.setattr(forked, "_send_range", send_and_fail)
        path = _write(tmp_path, "f1,f2\n" + "".join(ROWS))
        _check_parity(monkeypatch, path)
        assert parses == [(1, True), (2, False), (1, True)]

    def test_a_failed_fork_leaves_the_one_process_parse(self, tmp_path, monkeypatch, parses):
        def no_fork():
            raise BlockingIOError("no process can be started")

        monkeypatch.setattr(os, "fork", no_fork)
        path = _write(tmp_path, "f1,f2\n" + "".join(ROWS))
        _check_parity(monkeypatch, path)
        assert parses == [(1, True), (2, False), (1, True)]


def _write_both(monkeypatch, tmp_path, write, *args):
    """The bytes write(*args, path) gives with one and with two processes."""
    out = []
    for split_cells, name in ((NEVER, "one.csv"), (0, "two.csv")):
        monkeypatch.setattr(dataset, "SPLIT_CELLS", split_cells)
        path = str(tmp_path / name)
        assert write(*args, path) == path
        with open(path, "rb") as fh:
            out.append(fh.read())
    assert sorted(os.listdir(tmp_path)) == ["one.csv", "two.csv"]
    return out


class TestWriteParity:
    RNG = np.random.default_rng(8)
    FEATURES = RNG.normal(size=(3, 11)) * 10.0 ** RNG.integers(-300, 300, size=(3, 11))

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_real_labels(self, tmp_path, monkeypatch, waits, n):
        ds = Dataset(features=self.FEATURES[:, :n], labels=self.RNG.normal(size=n))
        one, two = _write_both(monkeypatch, tmp_path, write_dataset_csv, ds)
        assert one == two and one.count(b"\r\n") == n + 1
        assert waits == [True]

    def test_class_names_that_need_quoting(self, tmp_path, monkeypatch, waits):
        classes = np.array(["", "a,b", 'q"t', "c", "", "a,b", "猫", 'q"t', "c", "", "d"])
        ds = Dataset(features=self.FEATURES, class_labels=classes,
                     feature_names=("x,1", "y", "z"))
        one, two = _write_both(monkeypatch, tmp_path, write_dataset_csv, ds)
        assert one == two
        assert b',"a,b"\r\n' in one and b',"q""t"\r\n' in one and b",\r\n" in one
        assert waits == [True]

    def test_matrix(self, tmp_path, monkeypatch, waits):
        one, two = _write_both(monkeypatch, tmp_path, write_matrix_csv, self.FEATURES)
        assert one == two
        assert waits == [True]

    def test_a_failed_child_half_is_formatted_here(self, tmp_path, monkeypatch, waits):
        parent = os.getpid()
        format_rows = dataset._format_rows

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise OSError("the child cannot format")
            return format_rows(*args)

        ds = Dataset(features=self.FEATURES, labels=self.RNG.normal(size=11))
        monkeypatch.setattr(dataset, "_format_rows", fail_in_child)
        one, two = _write_both(monkeypatch, tmp_path, write_dataset_csv, ds)
        assert one == two
        assert waits == [False]


class TestWriteFailure:
    def _csv(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "in.csv"
        np.savetxt(path, rng.normal(size=(60, 5)), fmt="%.17g", delimiter=",",
                   header="a,b,c,d,e", comments="")
        return str(path)

    def test_failed_formatter_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(dataset, "SPLIT_CELLS", 0)
        monkeypatch.setattr(dataset, "_format_rows", fail)
        out = tmp_path / "rel"
        with pytest.raises(OSError, match="No space left"):
            main(["synth", self._csv(tmp_path), "--dim", "2", "--seed", "1", "--out", str(out)])
        assert os.listdir(out) == []

    def test_synth_exits_non_zero_and_leaves_no_file(self, tmp_path):
        out = tmp_path / "rel"
        code = (
            "import sys\n"
            "from ronsynth import cli, dataset\n"
            "dataset.SPLIT_CELLS = 0\n"
            "def fail(*args):\n"
            "    raise OSError(28, 'No space left on device')\n"
            "dataset._format_rows = fail\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-c", code, "synth", self._csv(tmp_path),
                               "--dim", "2", "--seed", "1", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "No space left on device" in proc.stderr
        assert os.listdir(out) == []
