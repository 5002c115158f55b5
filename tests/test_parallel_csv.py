"""Two-range CSV parsing and two-half formatting give one range's, and
one whole table's, results, with a forked child and without one.

forked.SPLIT_BYTES and SPLIT_CELLS are monkeypatched to 0 to give small
inputs two ranges and a child, and SPLIT_BYTES to a size no file reaches
for one range; ``TestRealThresholds`` releases an input above both as
they are. The reference write is ``reference.reference_csv``, the
standard library's csv writer, row by row.
"""

import csv
import errno
import io
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

from ronsynth import dataset, forked
from ronsynth.cli import main
from ronsynth.dataset import DataError, Dataset, load_csv, write_dataset_csv, write_matrix_csv
from ronsynth.mechanism import split_budget
from ronsynth.synthesis import synth_gmm, synth_supervised, synth_unsupervised
from reference import reference_csv, significant_digits, write_input

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

    def spy(path, start, *args):
        ranges = 1 if dataset._split_point(path, start) is None else 2
        calls.append((ranges, False))
        result = parse(path, start, *args)
        calls[-1] = (ranges, True)
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


# a file parsed at once in one process and then in two; a rejected file
# goes from either parse straight to the fault finder
SPLIT_AND_ACCEPTED = [(1, True), (2, True)]
SPLIT_AND_REJECTED = [(1, False), (2, False)]


def _load(monkeypatch, split_bytes, path, column=None, kind=None):
    """load_csv's Dataset, or its DataError's text and the sample it names."""
    monkeypatch.setattr(forked, "SPLIT_BYTES", split_bytes)
    try:
        return load_csv(path, label_column=column, label_kind=kind)
    except DataError as err:
        return str(err) if err.sample is None else f"{err} (sample {err.sample})"


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
        patch.setattr(forked, "SPLIT_BYTES", 0)
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
        path = write_input(tmp_path, text)
        data = _check_parity(monkeypatch, path)
        assert isinstance(data, Dataset)
        split = _data_lines(monkeypatch, path)[1] is not None
        assert parses == (SPLIT_AND_ACCEPTED if split else [(1, True), (1, True)])

    def test_cr_only_file_is_parsed_in_one_process(self, tmp_path, monkeypatch, parses):
        path = write_input(tmp_path, "f1,f2\r" + "".join(r.replace("\n", "\r") for r in ROWS))
        data = _check_parity(monkeypatch, path)
        assert data.n_samples == len(ROWS)
        assert parses == [(1, True), (1, True)]

    @pytest.mark.parametrize("blank", ["\n", "\r\n"])
    @pytest.mark.parametrize("at", range(1, len(ROWS)))
    def test_interior_blank_line_anywhere(self, tmp_path, monkeypatch, parses, blank, at):
        rows = ROWS[:at] + [blank] + ROWS[at:]
        path = write_input(tmp_path, "f1,f2\n" + "".join(rows))
        assert _check_parity(monkeypatch, path) == f"{path}: blank line at row {at + 2}"
        assert parses == SPLIT_AND_REJECTED

    def test_interior_blank_lines_meet_both_range_ends(self, tmp_path, monkeypatch):
        # the sweep above puts the blank line first and last in each range
        where = set()
        for at in range(1, len(ROWS)):
            path = write_input(tmp_path, "f1,f2\n" + "".join(ROWS[:at] + ["\n"] + ROWS[at:]))
            lines, second = _data_lines(monkeypatch, path)
            where.add({second - 1: "last of first", second: "first of second"}.get(at, ""))
        assert {"last of first", "first of second"} <= where

    @pytest.mark.parametrize("bad,message", [
        ("3", "row {row} has 1 cells, header has 2"),
        ("3,abc", "non-numeric value 'abc' at row {row}, column 'f2'"),
        ("3,nan", "non-finite feature value in column 'f2' (sample {sample})"),
    ])
    def test_faults_in_the_second_range(self, tmp_path, monkeypatch, parses, bad, message):
        rows = ROWS[:-1] + [bad + "\n"]
        path = write_input(tmp_path, "f1,f2\n" + "".join(rows))
        text = message.format(row=len(rows) + 1, sample=len(rows) - 1)
        # a NaN parses, and the Dataset then names its (global) sample
        nan = "sample" in message
        assert _check_parity(monkeypatch, path) == (text if nan else f"{path}: {text}")
        assert parses == (SPLIT_AND_ACCEPTED if nan else SPLIT_AND_REJECTED)

    @pytest.mark.parametrize("at", [1, len(ROWS) - 1], ids=["first range", "second range"])
    def test_a_bad_cell_is_parsed_once_and_checked_from_its_row(self, tmp_path, monkeypatch,
                                                                parses, at):
        rows = list(ROWS)
        rows[at] = rows[at].split(",")[0] + ",oops\n"
        path = write_input(tmp_path, "f1,f2\n" + "".join(rows))
        assert (at >= _data_lines(monkeypatch, path)[1]) == (at == len(ROWS) - 1)
        seen = []
        is_float = dataset._is_float

        def spy(text):
            seen.append(text)
            return is_float(text)

        monkeypatch.setattr(dataset, "_is_float", spy)
        message = f"{path}: non-numeric value 'oops' at row {at + 2}, column 'f2'"
        assert _load(monkeypatch, 0, path) == message
        assert parses == [(2, False)]
        # np.loadtxt accepted every row before the bad one
        assert seen == [rows[at].split(",")[0], "oops"]

    @pytest.mark.parametrize("quoted", [['1,0,"2\n', '"\n'], ['1,0,"2\n'], ['1,"2\n', '",0\n']],
                             ids=["closed on the next line", "never closed", "cut short"])
    def test_quote_open_at_the_split(self, tmp_path, monkeypatch, quoted):
        # each range alone can parse, or the first one ends inside a record
        # with too few cells, but in the whole file the quote joins lines
        spanned = False
        for at in range(1, len(ROWS)):
            rows = [r[:-1] + ",0\n" for r in ROWS]
            path = write_input(tmp_path, "f1,f2,f3\n" + "".join(rows[:at] + quoted + rows[at:]))
            message = _check_parity(monkeypatch, path)
            assert message.startswith(f"{path}: ")
            spanned |= _data_lines(monkeypatch, path)[1] == at + 1
        assert spanned

    def test_real_labels(self, tmp_path, monkeypatch, parses):
        path = write_input(tmp_path, "f1,y,f2\n" + "".join(f"{i},{i / 4},{-i}\n" for i in range(12)))
        data = _check_parity(monkeypatch, path, "y", "real")
        assert data.labels.tolist() == [i / 4 for i in range(12)]
        assert parses == SPLIT_AND_ACCEPTED

    def test_quoted_and_empty_class_names(self, tmp_path, monkeypatch, parses):
        names = ["a", "a", "b", "a", "猫", "b", "ü", '"x,y"', "a", "", '" a "']
        rows = "".join(f"{i},{name},{i / 4}\n" for i, name in enumerate(names))
        path = write_input(tmp_path, "f1,cls,y\n" + rows)
        data = _check_parity(monkeypatch, path, "cls", "categorical")
        assert data.class_labels.tolist() == [n.strip('" ') for n in names]
        assert parses == SPLIT_AND_ACCEPTED

    def test_class_names_first_seen_in_the_second_range(self, tmp_path, monkeypatch,
                                                        parses):
        names = ["a"] * 6 + ["猫", "b", "a", "ü", "猫"]
        path = write_input(tmp_path, "f1,cls\n" + "".join(f"{i},{n}\n" for i, n in enumerate(names)))
        _, second = _data_lines(monkeypatch, path)
        assert set(names[second:]) - set(names[:second])
        data = _check_parity(monkeypatch, path, "cls", "categorical")
        assert data.class_labels.tolist() == names
        assert parses == SPLIT_AND_ACCEPTED

    def test_a_failed_child_leaves_the_one_process_parse(self, tmp_path, monkeypatch,
                                                        parses, waits):
        def fail(*args):
            raise OSError("the child cannot parse")

        monkeypatch.setattr(dataset, "_send_range", fail)
        path = write_input(tmp_path, "f1,cls\n" + "".join(f"{i},c{i % 3}\n" for i in range(40)))
        _check_parity(monkeypatch, path, "cls", "categorical")
        assert parses == SPLIT_AND_ACCEPTED
        assert waits == [False]

    def test_a_child_failing_after_it_sent_leaves_the_one_process_parse(
            self, tmp_path, monkeypatch, parses, waits):
        send_range = dataset._send_range

        def send_and_fail(*args):
            send_range(*args)
            raise OSError("the child fails on its way out")

        monkeypatch.setattr(dataset, "_send_range", send_and_fail)
        path = write_input(tmp_path, "f1,f2\n" + "".join(ROWS))
        _check_parity(monkeypatch, path)
        assert parses == SPLIT_AND_ACCEPTED
        assert waits == [False]

    def test_a_failed_fork_leaves_the_one_process_parse(self, tmp_path, monkeypatch, parses,
                                                        waits):
        def no_fork():
            raise BlockingIOError("no process can be started")

        monkeypatch.setattr(os, "fork", no_fork)
        path = write_input(tmp_path, "f1,f2\n" + "".join(ROWS))
        _check_parity(monkeypatch, path)
        assert parses == SPLIT_AND_ACCEPTED
        assert waits == [False]

    def test_no_temporary_file_leaves_the_one_process_parse(self, tmp_path, monkeypatch,
                                                            parses, waits):
        def no_file(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        path = write_input(tmp_path, "f1,f2\n" + "".join(ROWS))
        assert isinstance(_check_parity(monkeypatch, path), Dataset)
        assert parses == SPLIT_AND_ACCEPTED
        assert waits == [False]


class TestNonUtf8:
    """A byte that is not UTF-8 is a data error, in the header, in a row of
    the first 8 KiB that load_csv's header read decodes, or in either range."""

    LINES = [b"a,b,cls\n"] + [f"{i},{i % 7},c{i % 3}\n".encode() for i in range(3000)]

    def _path(self, tmp_path, at, col):
        """The file of LINES whose line at has 0xe9 before its cell col."""
        lines = list(self.LINES)
        cells = lines[at].split(b",")
        cells[col] = b"\xe9" + cells[col]
        lines[at] = b",".join(cells)
        path = tmp_path / "in.csv"
        path.write_bytes(b"".join(lines))
        return str(path), len(b"".join(lines[:at]))

    @pytest.mark.parametrize("at,col,where", [
        (0, 1, "header"), (3, 1, "early row"), (1100, 1, "first range"),
        (2900, 1, "second range"), (2900, 2, "class name"),
    ])
    def test_bad_byte(self, tmp_path, monkeypatch, parses, at, col, where):
        path, offset = self._path(tmp_path, at, col)
        assert (offset < 8192) == (where in ("header", "early row"))
        # line at is data line at - 1
        second = _data_lines(monkeypatch, path)[1]
        assert (at - 1 >= second) == (where in ("second range", "class name"))
        message = _check_parity(monkeypatch, path, "cls", "categorical")
        if col == 1 and at:
            cell = "\udce9" + self.LINES[at].split(b",")[1].decode()
            assert message == f"{path}: non-numeric value {cell!r} at row {at + 1}, column 'b'"
        else:
            cell = "\udce9" + self.LINES[at].split(b",")[col].decode().strip()
            what = "header cell" if at == 0 else "class name"
            column = col + 1 if at == 0 else "'cls'"
            assert message == (f"{path}: byte 0xe9 that is not UTF-8 in {what} {cell!r} "
                               f"at row {at + 1}, column {column}")
        assert parses == ([] if offset < 8192 else SPLIT_AND_REJECTED)


def _write_both(monkeypatch, tmp_path, write, data):
    """The bytes write(data, path) gives from two halves, the second by a
    child, checked against the reference: data is a Dataset written by
    write_dataset_csv, or a matrix written by write_matrix_csv."""
    if isinstance(data, Dataset):
        last, name = ((data.labels, "label") if data.labels is not None
                      else (data.class_labels, "class"))
        names = data.feature_names or [f"z{j + 1}" for j in range(data.n_features)]
        expected = reference_csv([*names, name],
                                 [[*col, c] for col, c in zip(data.features.T, last)])
    else:
        expected = reference_csv([f"c{j + 1}" for j in range(data.shape[1])], data, ".17g")
    with monkeypatch.context() as patch:
        patch.setattr(forked, "SPLIT_CELLS", 0)
        path = str(tmp_path / "two.csv")
        assert write(data, path) == path
    assert os.listdir(tmp_path) == ["two.csv"]
    with open(path, "rb") as fh:
        written = fh.read()
    assert written == expected
    return written


class TestWriteParity:
    RNG = np.random.default_rng(8)
    FEATURES = RNG.normal(size=(3, 11)) * 10.0 ** RNG.integers(-300, 300, size=(3, 11))

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_real_labels(self, tmp_path, monkeypatch, waits, n):
        ds = Dataset(features=self.FEATURES[:, :n], labels=self.RNG.normal(size=n))
        two = _write_both(monkeypatch, tmp_path, write_dataset_csv, ds)
        assert two.count(b"\r\n") == n + 1
        assert waits == [True]

    def test_class_names_that_need_quoting(self, tmp_path, monkeypatch, waits):
        # a "%" in a class name is an argument of the row's %, never part of its format
        classes = np.array(["", "a,b", 'q"t', "c", "", "50%", "猫", 'q"t', "%s", "", "a,b"])
        ds = Dataset(features=self.FEATURES, class_labels=classes,
                     feature_names=("x,1", "y", "z"))
        two = _write_both(monkeypatch, tmp_path, write_dataset_csv, ds)
        assert b',"a,b"\r\n' in two and b',"q""t"\r\n' in two and b",\r\n" in two
        rows = list(csv.reader(io.StringIO(two.decode("utf-8"), newline="")))
        assert [row[-1] for row in rows[1:]] == classes.tolist()
        assert waits == [True]

    def test_matrix(self, tmp_path, monkeypatch, waits):
        _write_both(monkeypatch, tmp_path, write_matrix_csv, self.FEATURES)
        assert waits == [True]

    def test_the_child_half_has_no_name(self, tmp_path, monkeypatch, waits):
        # a release killed while it writes leaves no file beside data.csv
        parent = os.getpid()
        format_rows = dataset._format_rows

        def list_in_child(*args):
            if os.getpid() != parent and os.listdir(tmp_path) != ["out.csv"]:
                raise OSError(f"the output's directory holds {os.listdir(tmp_path)}")
            return format_rows(*args)

        monkeypatch.setattr(forked, "SPLIT_CELLS", 0)
        monkeypatch.setattr(dataset, "_format_rows", list_in_child)
        path = str(tmp_path / "out.csv")
        assert write_matrix_csv(self.FEATURES, path) == path
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
        _write_both(monkeypatch, tmp_path, write_dataset_csv, ds)
        assert waits == [False]

    def test_no_temporary_file_leaves_the_half_to_the_parent(self, tmp_path, monkeypatch,
                                                             waits):
        def no_file(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        _write_both(monkeypatch, tmp_path, write_matrix_csv, self.FEATURES)
        assert waits == [False]


class TestForks:
    @pytest.mark.parametrize("fork,size,runs", [(True, 11, True), (True, 10, False),
                                                (False, 11, False)])
    def test_the_rule(self, monkeypatch, fork, size, runs):
        if not fork:
            monkeypatch.delattr(os, "fork", raising=False)
        assert forked.forks(size, 10) is runs

    def test_without_fork_this_process_parses_and_writes_both_halves(
            self, tmp_path, monkeypatch, parses, waits):
        path = write_input(tmp_path, "f1,f2\n" + "".join(ROWS))
        one = _load(monkeypatch, NEVER, path)
        X = TestWriteParity.FEATURES
        (tmp_path / "out").mkdir()
        whole = _write_both(monkeypatch, tmp_path / "out", write_matrix_csv, X)
        made = []
        temporary_file = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda **kw: made.append("file") or temporary_file(**kw))
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(forked, "SPLIT_CELLS", 0)
        waits.clear()
        _assert_same(one, _load(monkeypatch, 0, path))
        out = str(tmp_path / "halves.csv")
        write_matrix_csv(X, out)
        with open(out, "rb") as fh:
            assert fh.read() == whole
        assert made == []
        # both went through Child, which made no child: this process did both halves
        assert waits == [False, False]
        assert parses == [(1, True), (2, True)]

    def test_a_blank_second_range_parsed_here_warns_nothing(self, tmp_path, monkeypatch,
                                                            parses, waits):
        # np.loadtxt warns of a range of blank lines only; that is no fault here
        path = write_input(tmp_path, "f1,f2\n1,2\n" + "\n" * 20)
        monkeypatch.delattr(os, "fork")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = _load(monkeypatch, 0, path)
        assert isinstance(data, Dataset) and data.features.tolist() == [[1.0], [2.0]]
        assert parses == [(2, True)]
        assert waits == [False]

    def test_a_fork_after_a_blas_call_warns_nothing(self, tmp_path, monkeypatch, waits):
        # OpenBLAS stops its threads at fork(), so Python 3.12 finds one
        # thread and does not warn that a multi-threaded process forked
        X = np.random.default_rng(6).normal(size=(200, 200))
        assert np.isfinite(X @ X).all()
        monkeypatch.setattr(forked, "SPLIT_BYTES", 0)
        monkeypatch.setattr(forked, "SPLIT_CELLS", 0)
        path = write_input(tmp_path, "f1,f2\n" + "".join(ROWS))
        # recorded, not raised: os.fork may not let an "error" filter raise
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_csv(path)
            write_matrix_csv(X, str(tmp_path / "out.csv"))
        assert [str(w.message) for w in caught] == []
        assert waits == [True, True]


class TestWriteFailure:
    def _csv(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "in.csv"
        np.savetxt(path, rng.normal(size=(60, 5)), fmt="%.17g", delimiter=",",
                   header="a,b,c,d,e", comments="")
        return str(path)

    @pytest.fixture
    def full_disk(self, monkeypatch):
        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(dataset, "_format_rows", fail)

    def test_failed_formatter_leaves_no_file(self, tmp_path, monkeypatch, full_disk, capsys):
        monkeypatch.setattr(forked, "SPLIT_CELLS", 0)
        out = tmp_path / "rel"
        assert main(["synth", self._csv(tmp_path), "--dim", "2", "--seed", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        # neither --out nor the .ronsynth-* stage it was built in is left
        assert os.listdir(tmp_path) == ["in.csv"]

    def test_failed_write_removes_every_directory_it_made(self, tmp_path, full_disk):
        out = tmp_path / "new" / "rel"
        assert main(["synth", self._csv(tmp_path), "--dim", "2", "--seed", "1",
                     "--out", str(out)]) == 1
        assert os.listdir(tmp_path) == ["in.csv"]

    def test_write_error_names_the_out_path_not_the_stage(self, tmp_path, monkeypatch,
                                                          capsys):
        def no_metadata(path, *args, **kwargs):
            if os.path.basename(path) == "metadata.json":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        # a module global of dataset shadows the builtin open
        monkeypatch.setattr(dataset, "open", no_metadata, raising=False)
        out = tmp_path / "new" / "rel"
        assert main(["synth", self._csv(tmp_path), "--dim", "2", "--seed", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # the stage the release was built in is removed before the error is read
        assert err == (f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: "
                       f"'{out / 'metadata.json'}'\n")
        assert ".ronsynth-" not in err
        assert os.listdir(tmp_path) == ["in.csv"]

    def test_failed_write_keeps_an_existing_out_and_its_files(self, tmp_path, full_disk):
        # a non-empty --out is refused before the read, so only an empty one gets here
        out = tmp_path / "rel"
        out.mkdir()
        assert main(["synth", self._csv(tmp_path), "--dim", "2", "--seed", "1",
                     "--out", str(out)]) == 1
        assert os.listdir(out) == []
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "rel"]

    def test_synth_exits_non_zero_and_leaves_no_file(self, tmp_path):
        out = tmp_path / "rel"
        code = (
            "import sys\n"
            "from ronsynth import cli, dataset, forked\n"
            "forked.SPLIT_CELLS = 0\n"
            "def fail(*args):\n"
            "    raise OSError(28, 'No space left on device')\n"
            "dataset._format_rows = fail\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-c", code, "synth", self._csv(tmp_path),
                               "--dim", "2", "--seed", "1", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "No space left on device" in proc.stderr
        assert os.listdir(tmp_path) == ["in.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("name", ["data.csv", "metadata.json", "projection.csv"])
    def test_a_later_file_that_fails_leaves_no_release(self, name, tmp_path, monkeypatch,
                                                       capsys):
        # the file is made, then every write to it fails as on a full disk;
        # the stage goes with the files written before it, so no release is left partial
        real_open = open

        def full_disk(path, *args, **kwargs):
            if os.path.basename(path) != name:
                return real_open(path, *args, **kwargs)
            real_open(path, "w").close()
            return real_open("/dev/full", *args, **kwargs)

        monkeypatch.setattr(dataset, "open", full_disk, raising=False)
        out = tmp_path / "rel"
        assert main(["synth", self._csv(tmp_path), "--dim", "2", "--seed", "1",
                     "--save-projection", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert os.listdir(tmp_path) == ["in.csv"]


class TestRealThresholds:
    """A seeded 4000 x 20 input, above forked.SPLIT_BYTES as it is, released
    by the CLI in each mode with a table above SPLIT_CELLS: the input is
    parsed, and data.csv written, in two processes, and the release is the
    library's, byte for byte."""

    FLAGS = {"unsupervised": [], "supervised": ["--label-col", "y", "--label-bound", "1"],
             "gmm": ["--label-col", "c"]}
    P, SAMPLES = 4, 10000

    @pytest.fixture(scope="class")
    def big_csv(self, tmp_path_factory):
        x = np.random.default_rng(0).normal(size=(4000, 20))
        x[:, 19] = x[:, 19] > 0
        path = tmp_path_factory.mktemp("big") / "big.csv"
        np.savetxt(path, x, fmt="%.17g", delimiter=",", comments="",
                   header=",".join([*(f"x{j}" for j in range(18)), "y", "c"]))
        # about 1.5 MB; the smallest release table is unsupervised, P columns
        assert os.path.getsize(path) > forked.SPLIT_BYTES
        assert self.SAMPLES * self.P > forked.SPLIT_CELLS
        return str(path)

    @pytest.mark.parametrize("mode", FLAGS)
    def test_a_release_is_the_library_s_in_two_processes(self, big_csv, tmp_path, waits, mode):
        outs = [tmp_path / "one", tmp_path / "two"]
        # a raw Python warning, numpy's or a fork's, fails the release
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for out in outs:
                assert main(["synth", big_csv, "--mode", mode, *self.FLAGS[mode],
                             "--dim", str(self.P), "--samples", str(self.SAMPLES),
                             "--seed", "1", "--save-projection", "--out", str(out)]) == 0
        # a child parsed the input's second half, and wrote data.csv's; this
        # process wrote all of projection.csv, a table of m x P cells
        assert waits == [True, True, False] * len(outs)
        # the child's half came back through a file without a name
        for out in outs:
            assert sorted(os.listdir(out)) == ["data.csv", "metadata.json", "projection.csv"]
        one, two = ({name: (out / name).read_bytes() for name in ("data.csv", "projection.csv")}
                    for out in outs)
        assert one == two

        # synth measures, frees its input, then synthesizes: synth_* gives the same bytes
        budget, rng = split_budget(1.0, 0.3), np.random.default_rng(1)
        if mode == "unsupervised":
            release = synth_unsupervised(load_csv(big_csv), self.P, *budget,
                                         n_synth=self.SAMPLES, rng=rng)
        elif mode == "supervised":
            release = synth_supervised(load_csv(big_csv, "y", "real"), self.P, *budget, 1.0,
                                       n_synth=self.SAMPLES, rng=rng)
        else:
            release = synth_gmm(load_csv(big_csv, "c", "categorical"), self.P, *budget,
                                per_class_n_synth=self.SAMPLES, rng=rng)
        with open(write_dataset_csv(release.dataset, str(tmp_path / "lib.csv")), "rb") as fh:
            assert fh.read() == one["data.csv"]

        # every released number has at most 9 significant digits
        header, *rows = csv.reader(io.StringIO(one["data.csv"].decode("utf-8"), newline=""))
        width = len(header) - (header[-1] == "class")
        assert [c for row in rows for c in row[:width] if significant_digits(c) > 9] == []
        # projection.csv keeps W orthonormal
        W = np.loadtxt(io.BytesIO(one["projection.csv"]), delimiter=",", skiprows=1, ndmin=2)
        assert np.abs(W.T @ W - np.eye(self.P)).max() < 1e-12
