import io
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ronsynth import dataset, preprocessing, synthesis
from ronsynth.dataset import (
    DataError,
    Dataset,
    load_csv,
    write_dataset_csv,
    write_matrix_csv,
    write_release,
)
from reference import reference_csv, write_input

META = {
    "mode": "unsupervised", "m": 2, "p": 2, "n": 3, "n_synth": 3,
    "epsilon_total": 1.0, "epsilon_mu": 0.3, "epsilon_sigma": 0.7,
    "split_ratio": 0.3, "label_bound": None, "seeded": True,
    "psd_repair_applied": False, "timestamp": "t",
}


class TestLoadCsv:
    def test_plain_numeric_file(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\n1,2\n3,4\n5,6\n")
        data = load_csv(path)
        assert data.n_samples == 3 and data.n_features == 2
        assert data.labels is None and data.class_labels is None
        # columns-as-samples internally
        assert np.array_equal(data.features[:, 0], [1.0, 2.0])
        assert data.feature_names == ("f1", "f2")

    def test_real_label_column_split(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\n1,2\n3,4\n5,6\n")
        data = load_csv(path, label_column="f2", label_kind="real")
        assert data.n_samples == 3 and data.n_features == 1
        assert np.array_equal(data.labels, [2.0, 4.0, 6.0])

    def test_categorical_labels(self, tmp_path):
        path = write_input(tmp_path, "f1,cls\n1,a\n2,b\n3,a\n")
        data = load_csv(path, label_column="cls", label_kind="categorical")
        assert list(data.class_labels) == ["a", "b", "a"]

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\n1,2\n3,abc\n")
        with pytest.raises(DataError, match=r"row 3.*'f2'"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_missing_label_column(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, label_column="y", label_kind="real")

    def test_no_rows_dropped(self, tmp_path):
        rows = "\n".join(f"{i},{i + 1}" for i in range(57))
        path = write_input(tmp_path, "a,b\n" + rows + "\n")
        assert load_csv(path).n_samples == 57

    def test_ragged_row_rejected(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_interior_blank_line_rejected_trailing_tolerated(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\n1,2\n\n3,4\n")
        with pytest.raises(DataError, match="blank line at row 3"):
            load_csv(path)
        ok = write_input(tmp_path, "f1,f2\n1,2\n3,4\n\n\n", name="ok.csv")
        assert load_csv(ok).n_samples == 2

    def test_bad_label_kind(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(ValueError):
            load_csv(path, label_column="f2", label_kind="ordinal")
        with pytest.raises(ValueError, match="label_kind given without label_column"):
            load_csv(path, label_kind="real")


# (file text, label column, label kind, exact message after "<path>: ")
MALFORMED = [
    ("f1,f2\n1,2\n3,4,5\n", None, None, "row 3 has 3 cells, header has 2"),
    ("f1,f2\n1,2\n3\n", None, None, "row 3 has 1 cells, header has 2"),
    ("f1,f2\r\n1,2\r\n\r\n3,4\r\n", None, None, "blank line at row 3"),
    ("f1,f2\n\n1,2\n", None, None, "blank line at row 2"),
    ("f1\n1\n\n\n2\n\n3\n\n", None, None, "blank line at row 3"),
    ("f1,f2\n1,2\n   \n3,4\n", None, None, "row 3 has 1 cells, header has 2"),
    ("f1\n1\n \t \n2\n", None, None, "non-numeric value '' at row 3, column 'f1'"),
    ("f1,f2\n1,2\n#3,4\n", None, None, "non-numeric value '#3' at row 3, column 'f1'"),
    ("f1,f2\n#1,2\n", None, None, "non-numeric value '#1' at row 2, column 'f1'"),
    ("f1,f2\n1,2\n3,\n", None, None, "non-numeric value '' at row 3, column 'f2'"),
    ("f1,y\n1,2\n3,x\n", "y", "real", "non-numeric label value 'x' at row 3, column 'y'"),
    ("f1,y\n1,x\n2,w\n", "y", "real", "non-numeric label value 'x' at row 2, column 'y'"),
    # every feature cell is checked before any label
    ("f1,y\n1,x\nz,2\n", "y", "real", "non-numeric value 'z' at row 3, column 'f1'"),
    ("f1,cls\n1,a\n2\n", "cls", "categorical", "row 3 has 1 cells, header has 2"),
    ("f1,f2\n", None, None, "no data rows"),
    ("f1,f2\n\n\r\n", None, None, "no data rows"),
    ("", None, None, "file is empty, expected a header row"),
    ("y\n1\n", "y", "real", "no feature columns left after removing the label"),
    ("f1,f2\n1,2\n", "y", "real", "label column 'y' not found in header ['f1', 'f2']"),
    ("a,y,y\n1,2,0.5\n3,4,1.5\n", "y", "real",
     "label column 'y' appears 2 times in header ['a', 'y', 'y']"),
]


class TestLoadCsvEdgeCases:
    @pytest.mark.parametrize("text,column,kind,message", MALFORMED)
    def test_malformed_input_message(self, tmp_path, text, column, kind, message):
        path = write_input(tmp_path, text)
        with pytest.raises(DataError) as err:
            load_csv(path, label_column=column, label_kind=kind)
        assert str(err.value) == f"{path}: {message}"

    def test_header_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffa,b\n1,2\n3,4\n".encode("utf-8"))
        assert load_csv(str(path)).feature_names == ("a", "b")
        data = load_csv(str(path), label_column="a", label_kind="real")
        assert data.feature_names == ("b",) and data.labels.tolist() == [1.0, 3.0]
        path.write_bytes("\ufeffa,b\n1,2\nx,4\n".encode("utf-8"))
        with pytest.raises(DataError) as err:
            load_csv(str(path))
        assert str(err.value) == f"{path}: non-numeric value 'x' at row 3, column 'a'"

    def test_fault_finder_streams_the_file(self, tmp_path):
        # a fault in the last cell is named without holding the file's rows
        buf = io.StringIO()
        np.savetxt(buf, np.random.default_rng(3).normal(size=(10_000, 10)), fmt="%.17g",
                   delimiter=",", header=",".join(f"x{j}" for j in range(10)), comments="")
        text = buf.getvalue()
        path = tmp_path / "bad.csv"
        path.write_text(text[:text.rindex(",") + 1] + "oops\n")
        size = path.stat().st_size
        assert size > 2_000_000
        tracemalloc.start()
        try:
            with pytest.raises(DataError) as err:
                dataset._raise_first_error(str(path), None, None, "a bad cell")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{path}: non-numeric value 'oops' at row 10001, column 'x9'"
        assert peak < size / 10

    def test_trailing_blank_crlf_lines_tolerated(self, tmp_path):
        path = write_input(tmp_path, "f1,f2\r\n1,2\r\n3,4\r\n\r\n\r\n")
        assert np.array_equal(load_csv(path).features, [[1.0, 3.0], [2.0, 4.0]])

    def test_quoted_header_name_and_cell(self, tmp_path):
        path = write_input(tmp_path, '"a,b",c\n"1.5",2\n3,"-4e-1"\n')
        data = load_csv(path)
        assert data.feature_names == ("a,b", "c")
        assert np.array_equal(data.features, [[1.5, 3.0], [2.0, -0.4]])

    def test_whitespace_padded_cells(self, tmp_path):
        path = write_input(tmp_path, " f1 ,f2\t\n 1 ,\t2.5\n3  ,  -4\n")
        data = load_csv(path)
        assert data.feature_names == ("f1", "f2")
        assert np.array_equal(data.features, [[1.0, 3.0], [2.5, -4.0]])

    def test_padded_categorical_label(self, tmp_path):
        path = write_input(tmp_path, 'f1, cls ,f2\n1, a ,2\n3,b,4\n5,"a ",6\n7,"x,y",8\n')
        data = load_csv(path, label_column="cls", label_kind="categorical")
        assert list(data.class_labels) == ["a", "b", "a", "x,y"]
        assert np.array_equal(data.features, [[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])

    def test_categorical_labels_independent_of_numpy_default_encoding(self, tmp_path,
                                                                      monkeypatch):
        # numpy 1.x defaults loadtxt to encoding="bytes", which hands
        # converters latin-1 bytes; emulate that default here
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, encoding="bytes", **kw:
                            loadtxt(*a, encoding=encoding, **kw))
        path = write_input(tmp_path, "f1,cls\n1,a\n2,猫\n3,a\n")
        data = load_csv(path, label_column="cls", label_kind="categorical")
        assert data.class_labels.tolist() == ["a", "猫", "a"]
        assert data.class_labels.dtype.kind == "U"
        write_dataset_csv(data, str(tmp_path / "out.csv"))
        assert (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[2] == "2,猫"

    def test_one_row_file(self, tmp_path):
        data = load_csv(write_input(tmp_path, "f1,f2,y\n1,2,0.5\n"),
                        label_column="y", label_kind="real")
        assert data.features.shape == (2, 1)
        assert np.array_equal(data.labels, [0.5])

    def test_one_feature_file(self, tmp_path):
        data = load_csv(write_input(tmp_path, "f1,cls\n1,a\n2,b\n3,a\n"),
                        label_column="cls", label_kind="categorical")
        assert np.array_equal(data.features, [[1.0, 2.0, 3.0]])
        assert data.feature_names == ("f1",)
        data = load_csv(write_input(tmp_path, "f1\n1\n2\n", name="bare.csv"))
        assert np.array_equal(data.features, [[1.0, 2.0]])

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"])
    def test_numbers_use_plain_ascii_float_syntax(self, tmp_path, cell):
        # float() accepts digit-group underscores and non-ASCII digits;
        # the loader does not
        path = write_input(tmp_path, f"f1,f2\n1,2\n3,{cell}\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: non-numeric value {cell!r} at row 3, column 'f2'"

    def test_quoted_cell_spanning_lines_rejected(self, tmp_path):
        path = write_input(tmp_path, 'f1,f2\n1,"2\n"\n3,4\n')
        with pytest.raises(DataError, match="quoted cell spans more than one line"):
            load_csv(path)

    @pytest.mark.parametrize("column,kind", [(None, None), ("y", "real"), ("y", "categorical")])
    def test_features_are_transposed_row_major_table(self, tmp_path, column, kind):
        # a layout change alone moves seeded releases through BLAS rounding
        path = write_input(tmp_path, "f1,y,f2\n1,2,3\n4,5,6\n")
        data = load_csv(path, label_column=column, label_kind=kind)
        assert data.features.T.flags.c_contiguous


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(features=np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(features=np.empty((0, 3)))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(features=np.eye(2), labels=np.array([1.0]))

    def test_keeps_labels_as_read(self):
        # a Dataset declares no bound: the supervised release clips its labels
        data = Dataset(features=np.eye(2), labels=np.array([0.5, 2.0]))
        assert np.array_equal(data.labels, [0.5, 2.0])

    def test_rejects_both_label_kinds(self):
        with pytest.raises(DataError):
            Dataset(features=np.eye(2), labels=np.array([0.0, 1.0]),
                    class_labels=np.array(["a", "b"]))

    @pytest.mark.parametrize("parts,message", [
        ({"features": np.zeros(3)}, "features must be a 2-D matrix, got ndim=1"),
        ({"labels": np.array([0.0, np.inf])}, "labels contain non-finite values"),
        ({"class_labels": np.array(["a"])}, "class labels must have length 2, got shape (1,)"),
        ({"feature_names": ("a", "b", "c")}, "expected 2 feature names, got 3"),
    ], ids=["ndim", "non-finite-label", "class-label-length", "feature-name-count"])
    def test_rejects_a_malformed_part(self, parts, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Dataset(**{"features": np.eye(2), **parts})


def _features(m=5, n=7, order="C"):
    X = np.random.default_rng(3).normal(size=(m, n))
    return np.asfortranarray(X) if order == "F" else X


class TestOnePassValidation:
    """Construction takes the column norms and checks finiteness in one pass."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cells,first", [
        ([(2, 3)], (2, 3)),
        ([(0, 0)], (0, 0)),
        ([(4, 6)], (4, 6)),
        # an earlier sample (a CSV's row) comes first, whatever its feature
        ([(3, 1), (0, 5)], (3, 1)),
        ([(4, 6), (4, 0), (1, 2)], (4, 0)),
    ])
    def test_first_non_finite_cell_is_named(self, order, value, cells, first):
        X = _features(order=order)
        for cell in cells:
            X[cell] = value
        message = f"non-finite feature value at feature {first[0]}, sample {first[1]}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Dataset(features=X)

    def test_an_overflowing_column_does_not_hide_a_later_bad_cell(self):
        X = _features()
        X[:, 0] = 1e200
        X[1, 3] = np.nan
        with pytest.raises(DataError, match=r"^non-finite feature value at feature 1, "
                                            r"sample 3$"):
            Dataset(features=X)

    @pytest.mark.parametrize("synth", [synthesis.synth_unsupervised, synthesis.synth_gmm])
    def test_finite_column_whose_square_overflows_is_accepted(self, synth):
        X = _features(9, 40)
        X[:, 6] = 1e200
        data = Dataset(features=X, class_labels=np.repeat(["a", "b"], 20))
        assert np.isinf(data.sq_norms[6]) and np.all(np.isfinite(np.delete(data.sq_norms, 6)))
        # the release, not the Dataset, refuses to normalize it
        with pytest.raises(ValueError, match="^sample 6 is too large to normalize$"):
            synth(data, 2, 1.0, 1.0, rng=np.random.default_rng(0))

    def test_zero_column_is_refused_by_the_release(self):
        X = _features(9, 40)
        X[:, 11] = 0.0
        with pytest.raises(ValueError,
                           match="^sample 11 has zero norm and cannot be normalized$"):
            synthesis.synth_unsupervised(Dataset(features=X), 2, 1.0, 1.0,
                                         rng=np.random.default_rng(0))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_norms_are_the_einsum_of_the_features(self, order):
        X = _features(37, 101, order)
        data = Dataset(features=X)
        assert np.array_equal(data.sq_norms, np.einsum("ij,ij->j", X, X))
        assert data.features.flags.f_contiguous == (order == "F")

    def test_features_are_a_read_only_view_of_a_writable_array(self):
        X = _features()
        data = Dataset(features=X)
        assert np.shares_memory(data.features, X)
        assert not data.features.flags.writeable and not data.sq_norms.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            data.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            data.sq_norms[0] = 1.0
        # the caller's own array is not frozen along with it
        assert X.flags.writeable
        X[0, 0] = 2.0
        assert data.features[0, 0] == 2.0

    @pytest.mark.parametrize("mode", ["unsupervised", "supervised", "gmm"])
    def test_a_release_reads_no_column_norm_of_its_input(self, mode, monkeypatch):
        shapes = []

        def spy(X):
            shapes.append(np.shape(X))
            return np.einsum("ij,ij->j", X, X)

        for module in (dataset, preprocessing, synthesis):
            monkeypatch.setattr(module, "column_sq_norms", spy)
        rng = np.random.default_rng(5)
        m, n, p = 9, 60, 3
        X = rng.normal(size=(m, n))
        if mode == "gmm":
            data = Dataset(features=X, class_labels=np.repeat(["a", "b"], 30))
            res = synthesis.synth_gmm(data, p, 1.0, 1.0, rng=rng)
        elif mode == "supervised":
            data = Dataset(features=X, labels=rng.uniform(-2, 2, n))
            res = synthesis.synth_supervised(data, p, 1.0, 1.0, 1.0, rng=rng)
        else:
            data = Dataset(features=X)
            res = synthesis.synth_unsupervised(data, p, 1.0, 1.0, rng=rng)
        # one call builds the input Dataset, one clips its p x n chart and
        # one builds the released Dataset
        assert shapes == [(m, n), (p, n), res.dataset.features.shape]


class TestWriteRelease:
    def test_unlabeled_release_shape(self, tmp_path):
        release = Dataset(features=np.random.default_rng(0).normal(size=(2, 3)))
        data_path, meta_path = write_release(release, dict(META), str(tmp_path / "out"))
        header = Path(data_path).read_text().splitlines()[0].strip().split(",")
        assert header == ["z1", "z2"]
        meta = json.loads(Path(meta_path).read_text())
        assert meta["epsilon_total"] == 1.0

    def test_supervised_release_has_label_column(self, tmp_path):
        release = Dataset(features=np.zeros((2, 3)), labels=np.array([1.0, 2.0, 3.0]))
        data_path, _ = write_release(release, dict(META), str(tmp_path / "out"))
        header = Path(data_path).read_text().splitlines()[0].strip().split(",")
        assert header == ["z1", "z2", "label"]

    def test_gmm_release_has_class_column_with_names(self, tmp_path):
        release = Dataset(features=np.zeros((2, 3)),
                          class_labels=np.array(["cat", "dog", "cat"]))
        data_path, _ = write_release(release, dict(META), str(tmp_path / "out"))
        lines = Path(data_path).read_text().splitlines()
        assert lines[0].split(",")[-1] == "class"
        assert [ln.split(",")[-1] for ln in lines[1:]] == ["cat", "dog", "cat"]

    def test_missing_parents_are_made_with_the_release(self, tmp_path):
        release = Dataset(features=np.zeros((2, 3)))
        out = str(tmp_path / "new" / "rel")
        assert write_release(release, dict(META), out) == (
            os.path.join(out, "data.csv"), os.path.join(out, "metadata.json"))
        assert os.listdir(tmp_path) == ["new"]

    def test_a_used_out_is_left_as_it_was(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "data.csv").write_text("kept\n")
        with pytest.raises(OSError):
            write_release(Dataset(features=np.zeros((2, 3))), dict(META), str(out))
        assert os.listdir(out) == ["data.csv"] and (out / "data.csv").read_text() == "kept\n"
        # the stage the release was built in is gone
        assert os.listdir(tmp_path) == ["out"]

    def test_an_out_under_a_file_is_named_not_the_stage(self, tmp_path):
        (tmp_path / "in.csv").write_text("kept\n")
        out = str(tmp_path / "in.csv" / "rel")
        with pytest.raises(NotADirectoryError) as err:
            write_release(Dataset(features=np.zeros((2, 3))), dict(META), out)
        assert err.value.filename == out and ".ronsynth-" not in str(err.value)

    def test_missing_metadata_key_rejected(self, tmp_path):
        release = Dataset(features=np.zeros((1, 1)))
        bad = dict(META)
        del bad["epsilon_total"]
        with pytest.raises(ValueError, match="epsilon_total"):
            write_release(release, bad, str(tmp_path / "out"))

    def test_round_trip_keeps_release_digits(self, tmp_path):
        rng = np.random.default_rng(99)
        release = Dataset(features=rng.normal(size=(4, 25)) * 10.0 ** rng.integers(-8, 8),
                          labels=rng.normal(size=25))
        data_path, _ = write_release(release, dict(META), str(tmp_path / "out"))
        reloaded = load_csv(data_path, label_column="label", label_kind="real")
        # 9 significant digits: a relative error of at most half a unit in the ninth
        np.testing.assert_allclose(reloaded.features, release.features, rtol=5e-9, atol=0)
        np.testing.assert_allclose(reloaded.labels, release.labels, rtol=5e-9, atol=0)
        # a 9-digit decimal survives a trip through a double, so writing
        # the reloaded release gives the same bytes again
        again = write_dataset_csv(reloaded, str(tmp_path / "again.csv"))
        assert Path(again).read_bytes() == Path(data_path).read_bytes()

    def test_write_dataset_csv_keeps_feature_names(self, tmp_path):
        ds = Dataset(features=np.ones((2, 2)), feature_names=("height", "width"))
        path = write_dataset_csv(ds, str(tmp_path / "d.csv"))
        assert Path(path).read_text().splitlines()[0].strip() == "height,width"


class TestWriterBytes:
    RNG = np.random.default_rng(5)
    FEATURES = RNG.normal(size=(3, 6)) * 10.0 ** RNG.integers(-300, 300, size=(3, 6))
    FEATURES[:, 0] = [-0.0, 5e-324, 1e16]
    LABELS = RNG.normal(size=6)

    def test_unlabeled_release(self, tmp_path):
        release = Dataset(features=self.FEATURES, feature_names=("a,b", 'q"t', "c"))
        data_path, _ = write_release(release, dict(META), str(tmp_path / "out"))
        expected = reference_csv(["a,b", 'q"t', "c"], self.FEATURES.T)
        assert Path(data_path).read_bytes() == expected

    def test_real_labels(self, tmp_path):
        release = Dataset(features=self.FEATURES, labels=self.LABELS)
        data_path, _ = write_release(release, dict(META), str(tmp_path / "out"))
        rows = [[*col, y] for col, y in zip(self.FEATURES.T, self.LABELS)]
        assert Path(data_path).read_bytes() == reference_csv(["z1", "z2", "z3", "label"], rows)

    def test_categorical_labels_with_comma(self, tmp_path):
        classes = np.array(["a,b", "c", 'd"e', "a,b", "f g", "c"])
        ds = Dataset(features=self.FEATURES, class_labels=classes,
                     feature_names=("x,1", "x2", "x3"))
        path = write_dataset_csv(ds, str(tmp_path / "d.csv"))
        rows = [[*col, c] for col, c in zip(self.FEATURES.T, classes)]
        assert Path(path).read_bytes() == reference_csv(["x,1", "x2", "x3", "class"], rows)

    def test_empty_and_quoted_class_names(self, tmp_path):
        classes = np.array(["", 'q"t', "", "b,c", "x\ny", 'q"t'])
        ds = Dataset(features=self.FEATURES, class_labels=classes)
        path = write_dataset_csv(ds, str(tmp_path / "d.csv"))
        rows = [[*col, c] for col, c in zip(self.FEATURES.T, classes)]
        assert Path(path).read_bytes() == reference_csv(["z1", "z2", "z3", "class"], rows)

    def test_matrix(self, tmp_path):
        # a bare matrix (projection.csv) keeps the 17 digits that round-trip a double
        path = write_matrix_csv(self.FEATURES, str(tmp_path / "w.csv"))
        expected = reference_csv([f"c{j + 1}" for j in range(6)], self.FEATURES, ".17g")
        assert Path(path).read_bytes() == expected
