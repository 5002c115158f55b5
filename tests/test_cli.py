import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import ronsynth
from ronsynth import cli, dataset, preprocessing, synthesis
from ronsynth.cli import default_dim, main
from ronsynth.dataset import Dataset, load_csv
from ronsynth.mechanism import BudgetLedger, record_spends, split_budget
from ronsynth.synthesis import synth_gmm, synth_supervised, synth_unsupervised
from reference import significant_digits

REQUIRED_META_KEYS = {
    "mode", "m", "p", "n", "n_synth", "epsilon_total", "epsilon_mu",
    "epsilon_sigma", "split_ratio", "label_bound", "seeded",
    "psd_repair_applied", "timestamp",
}


@pytest.fixture
def numeric_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["f1,f2,f3,f4,f5,f6"]
    for _ in range(120):
        rows.append(",".join(f"{v:.6f}" for v in rng.normal(size=6)))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def labeled_csv(tmp_path):
    rng = np.random.default_rng(1)
    rows = ["f1,f2,f3,f4,y"]
    for _ in range(150):
        x = rng.normal(size=4)
        y = np.clip(x[0] * 0.5 + rng.normal(scale=0.1), -2, 2)
        rows.append(",".join(f"{v:.6f}" for v in x) + f",{y:.6f}")
    path = tmp_path / "labeled.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def classed_csv(tmp_path):
    rng = np.random.default_rng(2)
    rows = ["f1,f2,f3,f4,cls"]
    for i in range(160):
        loc = 2.0 if i % 2 else -2.0
        x = rng.normal(loc=loc, size=4)
        rows.append(",".join(f"{v:.6f}" for v in x) + f",{'pos' if i % 2 else 'neg'}")
    path = tmp_path / "classed.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestSynthCommand:
    def test_unsupervised_release_and_metadata(self, numeric_csv, tmp_path, capsys):
        out = str(tmp_path / "rel")
        code = main(["synth", numeric_csv, "--epsilon", "1.0", "--dim", "3",
                     "--seed", "11", "--out", out])
        assert code == 0
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert set(meta) == REQUIRED_META_KEYS
        assert meta["epsilon_mu"] == pytest.approx(0.3)
        assert meta["epsilon_sigma"] == pytest.approx(0.7)
        assert meta["epsilon_total"] == 1.0
        assert meta["mode"] == "unsupervised"
        assert meta["p"] == 3 and meta["m"] == 6 and meta["n"] == 120
        # the seed itself would let anyone replay the noise; only its use is recorded
        assert meta["seeded"] is True
        header = Path(out, "data.csv").read_text().splitlines()[0].strip()
        assert header == "z1,z2,z3"
        assert "total epsilon: 1" in capsys.readouterr().out

    def test_seeded_runs_are_byte_identical(self, numeric_csv, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["synth", numeric_csv, "--dim", "3", "--seed", "42",
                         "--out", out]) == 0
        data1 = Path(out1, "data.csv").read_bytes()
        data2 = Path(out2, "data.csv").read_bytes()
        assert data1 == data2

    def test_dim_too_large_fails_before_output(self, numeric_csv, tmp_path):
        out = str(tmp_path / "rel")
        code = main(["synth", numeric_csv, "--dim", "6", "--out", out])
        assert code == 1
        assert not os.path.exists(out)

    def test_supervised_release(self, labeled_csv, tmp_path, capsys):
        out = str(tmp_path / "rel")
        code = main(["synth", labeled_csv, "--mode", "supervised",
                     "--label-col", "y", "--label-bound", "1.0", "--dim", "2",
                     "--seed", "3", "--out", out])
        assert code == 0
        header = Path(out, "data.csv").read_text().splitlines()[0].strip()
        assert header.endswith(",label")
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["label_bound"] == 1.0
        # fixture labels extend past 1.0: the exact count goes to the
        # operator on stderr and stays out of the published metadata
        assert "clip_count" not in meta
        assert re.search(r"clipped [1-9]\d* label\(s\) to \[-1.0, 1.0\]",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["synth", "budget"])
    @pytest.mark.parametrize("mode", ["unsupervised", "gmm"])
    def test_label_bound_outside_supervised_is_a_usage_error(self, tmp_path, mode, command,
                                                             capsys):
        # no label is clipped or modelled outside supervised mode, so the
        # bound is a flag the mode does not use, as budget --n is for gmm
        out = str(tmp_path / "rel")
        args = ([str(tmp_path / "ghost.csv"), "--label-col", "cls", "--out", out]
                if command == "synth" else
                ["--m", "20", "--dim", "3"] + (["--class-sizes", "100,200"] if mode == "gmm"
                                               else ["--n", "100"]))
        # had the input been read first, a missing file would exit 2
        assert main([command, *args, "--mode", mode, "--label-bound", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --label-bound applies only to supervised mode, not {mode}" in \
            captured.err
        assert not os.path.exists(out)

    def test_supervised_needs_bound(self, labeled_csv):
        assert main(["synth", labeled_csv, "--mode", "supervised",
                     "--label-col", "y"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["synth", "ghost.csv", "--mode", "gmm"], "gmm mode needs --label-col"),
        (["budget", "--m", "20"], "unsupervised budget plan needs --n"),
        (["budget", "--m", "20", "--mode", "supervised", "--label-bound", "1"],
         "supervised budget plan needs --n"),
        (["budget", "--m", "20", "--mode", "supervised", "--n", "100"],
         "supervised budget plan needs --label-bound"),
    ], ids=["synth-gmm-label-col", "budget-n", "budget-supervised-n",
            "budget-supervised-label-bound"])
    def test_mode_without_a_needed_flag_is_a_usage_error(self, tmp_path, argv, message,
                                                         capsys):
        # synth reads no input first: a missing file would exit 2
        argv = [str(tmp_path / arg) if arg == "ghost.csv" else arg for arg in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_numeric_failure_exits_3_without_output(self, numeric_csv, tmp_path,
                                                    monkeypatch, capsys):
        def rank_deficient(m, p, rng):
            raise np.linalg.LinAlgError("random basis is rank-deficient")

        monkeypatch.setattr(synthesis, "generate_ron", rank_deficient)
        out = tmp_path / "rel"
        assert main(["synth", numeric_csv, "--dim", "2", "--seed", "1",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: random basis is rank-deficient\n"
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
    def test_a_release_too_large_for_memory_is_one_error_line(
            self, numeric_csv, tmp_path, monkeypatch, capsys, message):
        def too_large(*args):  # the draw of a --samples too large to hold
            raise MemoryError(message)

        monkeypatch.setattr(synthesis, "sample_gaussian", too_large)
        out = tmp_path / "rel"
        assert main(["synth", numeric_csv, "--dim", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message or 'out of memory'}\n")
        assert not out.exists()

    def test_gmm_release_with_artifacts(self, classed_csv, tmp_path):
        out = str(tmp_path / "rel")
        code = main(["synth", classed_csv, "--mode", "gmm", "--label-col", "cls",
                     "--dim", "2", "--seed", "5", "--out", out, "--save-projection"])
        assert code == 0
        lines = Path(out, "data.csv").read_text().splitlines()
        assert lines[0].split(",")[-1] == "class"
        assert {ln.split(",")[-1] for ln in lines[1:]} == {"pos", "neg"}
        # every class shares one basis, saved once
        assert sorted(os.listdir(out)) == ["data.csv", "metadata.json", "projection.csv"]

    def test_gmm_shared_projection_writes_one_matrix(self, classed_csv, tmp_path):
        # the classes' one shared basis is saved once, not once per class
        out = str(tmp_path / "rel")
        code = main(["synth", classed_csv, "--mode", "gmm", "--label-col", "cls",
                     "--dim", "2", "--seed", "5", "--out", out, "--save-projection"])
        assert code == 0
        assert sorted(os.listdir(out)) == ["data.csv", "metadata.json", "projection.csv"]
        W = np.loadtxt(os.path.join(out, "projection.csv"), delimiter=",", skiprows=1,
                       ndmin=2)
        assert W.shape == (4, 2)

    def test_release_has_nine_digits_and_projection_is_exact(self, labeled_csv, tmp_path):
        out = str(tmp_path / "rel")
        assert main(["synth", labeled_csv, "--mode", "supervised", "--label-col", "y",
                     "--label-bound", "1.0", "--dim", "2", "--seed", "3", "--out", out,
                     "--save-projection"]) == 0
        data = load_csv(labeled_csv, label_column="y", label_kind="real")
        result = synth_supervised(data, 2, *split_budget(1.0, 0.3), 1.0,
                                  rng=np.random.default_rng(3))
        release = result.dataset
        rows = Path(out, "data.csv").read_text().splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")]
        assert cells == [format(v, ".9g")
                         for v in np.column_stack([release.features.T, release.labels]).flat]
        assert [cell for cell in cells if significant_digits(cell) > 9] == []
        # projection.csv keeps 17 digits, so W reloads bit for bit
        W = np.loadtxt(os.path.join(out, "projection.csv"), delimiter=",", skiprows=1,
                       ndmin=2)
        assert W.tobytes() == result.projection.W.tobytes()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "ghost.csv")]) == 2

    def test_unreadable_input_is_data_error(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"data error: cannot read {tmp_path}: Is a directory\n"

    def test_out_naming_a_file_is_one_error_line(self, numeric_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["synth", numeric_csv, "--dim", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out '{out}' exists and is not an empty directory\n"
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("again", [
        # had the input been read first, the missing file would exit 2
        ["ghost.csv", "--dim", "2"],
        # the stale basis: a release without projection.csv into one with it
        ["data.csv", "--dim", "3"],
    ])
    def test_a_used_out_is_refused_before_the_read(self, numeric_csv, tmp_path, again,
                                                   capsys):
        out = tmp_path / "rel"
        assert main(["synth", numeric_csv, "--dim", "2", "--seed", "1",
                     "--save-projection", "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert sorted(before) == ["data.csv", "metadata.json", "projection.csv"]
        capsys.readouterr()
        assert main(["synth", str(tmp_path / again[0]), *again[1:], "--seed", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --out '{out}' exists and is not an empty directory\n")
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    @pytest.mark.parametrize("out,fault", [
        ("", "is not a path under a directory"),
        ("link", "exists and is not an empty directory"),
        (os.path.join("in.csv", "rel"), "is not a path under a directory"),
    ], ids=["empty", "link to an empty directory", "under a file"])
    def test_an_out_that_cannot_take_a_release_is_refused_before_the_read(
            self, tmp_path, monkeypatch, out, fault, capsys):
        # had the (missing) input been read first, this would exit 2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "empty")
        (tmp_path / "in.csv").write_text("a,b\n1,2\n")
        assert main(["synth", "ghost.csv", "--dim", "1", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out {out!r} {fault}\n"
        assert sorted(os.listdir(tmp_path)) == ["empty", "in.csv", "link"]

    def test_an_empty_out_is_accepted(self, numeric_csv, tmp_path):
        out = tmp_path / "rel"
        out.mkdir()
        assert main(["synth", numeric_csv, "--dim", "2", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["data.csv", "metadata.json"]
        # the stage the release was built in is gone
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "rel"]

    def test_non_utf8_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xe94\n")
        assert main(["synth", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: non-numeric value '\\udce94' at row 3, column 'b'\n")

    def test_unseeded_release_says_so(self, numeric_csv, tmp_path):
        out = str(tmp_path / "rel")
        assert main(["synth", numeric_csv, "--dim", "2", "--out", out]) == 0
        meta = json.loads(Path(out, "metadata.json").read_text())
        assert meta["seeded"] is False and "seed" not in meta

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_bad_sample_count_is_rejected_before_reading(self, count, tmp_path, capsys):
        # the flag is checked before the (here missing) input is opened
        out = tmp_path / "rel"
        assert main(["synth", str(tmp_path / "ghost.csv"), "--samples", count,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == f"error: argument --samples: must be a positive integer, got '{count}'"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth"])
    def test_negative_seed_is_rejected_before_reading(self, command, tmp_path, capsys):
        # the flag is checked before the (here missing) input is opened
        out = tmp_path / "rel"
        assert main([command, str(tmp_path / "ghost.csv"), "--out", str(out),
                     "--seed", "-1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == "error: argument --seed: must be a non-negative integer, got '-1'"
        assert not out.exists()

    def test_bad_cell_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,oops\n")
        assert main(["synth", str(path)]) == 2

    def test_unknown_flag_is_usage_error(self, numeric_csv):
        assert main(["synth", numeric_csv, "--frobnicate"]) == 1

    @pytest.mark.parametrize("flag", [["--psd-floor", "0"], ["--label-kind", "categorical"],
                                      ["--shared-projection"], ["--reconstruct"],
                                      ["--dim-sweep", "2,4"]])
    def test_removed_flags_are_usage_errors(self, classed_csv, tmp_path, flag, capsys):
        out = str(tmp_path / "rel")
        assert main(["synth", classed_csv, "--label-col", "cls", "--dim", "2", *flag,
                     "--out", out]) == 1
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"unrecognized arguments: {' '.join(flag)}" in last
        assert not os.path.exists(out)

    def test_supervised_label_kind_is_real(self, classed_csv, tmp_path):
        # supervised mode reads its label column as reals, so a column of
        # class names is a data error, not a usage error
        out = str(tmp_path / "rel")
        assert main(["synth", classed_csv, "--mode", "supervised", "--label-col", "cls",
                     "--label-bound", "1", "--out", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_bad_epsilon_fails_before_reading_input(self, numeric_csv, tmp_path, eps):
        out = str(tmp_path / "rel")
        assert main(["synth", numeric_csv, "--epsilon", eps, "--out", out]) == 1
        assert not os.path.exists(out)
        # had the input been read first, a missing file would exit 2
        assert main(["synth", str(tmp_path / "ghost.csv"), "--epsilon", eps]) == 1

    @pytest.mark.parametrize("command", ["synth", "budget"])
    @pytest.mark.parametrize("flag,value", [("--epsilon", "nan"), ("--mu-ratio", "1.5")])
    def test_bad_budget_error_names_the_flag(self, numeric_csv, command, flag, value, capsys):
        args = [numeric_csv] if command == "synth" else ["--m", "6", "--n", "200"]
        assert main([command, *args, flag, value]) == 1
        assert f"error: argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "budget"])
    # 1e200 is finite, but its square, in the augmented covariance's sensitivity, is not
    @pytest.mark.parametrize("bound", ["nan", "inf", "0", "-1", "1e200"])
    def test_bad_label_bound_fails_before_reading_input(self, tmp_path, command, bound,
                                                        capsys):
        out = str(tmp_path / "rel")
        args = ([str(tmp_path / "ghost.csv"), "--label-col", "y", "--out", out]
                if command == "synth" else ["--m", "30", "--n", "100", "--dim", "4"])
        # had the input been read first, a missing file would exit 2
        assert main([command, *args, "--mode", "supervised", "--label-bound", bound]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--label-bound: must be positive and finite" in captured.err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command,flag,value",
                             [("synth", "--samp", "5"), ("budget", "--eps", "2")])
    def test_flag_abbreviations_are_usage_errors(self, numeric_csv, tmp_path, command,
                                                 flag, value, capsys):
        out = str(tmp_path / "rel")
        args = ([numeric_csv, "--out", out] if command == "synth"
                else ["--m", "6", "--n", "200"])
        assert main([command, *args, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not os.path.exists(out)

    def test_small_m_default_dim_is_reported_without_warning(self, numeric_csv,
                                                             tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", numeric_csv, "--seed", "1",
                         "--out", str(tmp_path / "rel")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["m=6 is too small for dimension guidance; using p=1"]

    def test_samples_flag(self, numeric_csv, tmp_path):
        out = str(tmp_path / "rel")
        main(["synth", numeric_csv, "--dim", "2", "--samples", "17", "--seed", "1",
              "--out", out])
        rows = Path(out, "data.csv").read_text().splitlines()
        assert len(rows) == 18  # header + 17 samples

    @pytest.mark.parametrize("labels,count", [([-2.0, 0.5, 3.0], 2), ([0.2, -0.9, 0.0], 0),
                                              ([1.0, -1.0, 0.5], 0)],
                             ids=["outside", "inside", "boundary"])
    def test_stderr_counts_clipped_labels(self, tmp_path, labels, count, capsys):
        rng = np.random.default_rng(6)
        table = np.column_stack([rng.normal(size=(30, 4)), np.resize(labels, 30)])
        path = tmp_path / "in.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header="f1,f2,f3,f4,y",
                   comments="")
        assert main(["synth", str(path), "--mode", "supervised", "--label-col", "y",
                     "--label-bound", "1", "--dim", "2", "--seed", "1",
                     "--out", str(tmp_path / "rel")]) == 0
        err = capsys.readouterr().err.splitlines()
        # each label repeats 10 times; a label on the bound is not clipped
        assert [ln for ln in err if ln.startswith("clipped")] == \
            ([f"clipped {10 * count} label(s) to [-1.0, 1.0]"] if count else [])

    def test_supervised_run_takes_the_input_norms_once(self, labeled_csv, tmp_path,
                                                       monkeypatch):
        shapes = []

        def spy(X):
            shapes.append(np.shape(X))
            return np.einsum("ij,ij->j", X, X)

        for module in (dataset, preprocessing, synthesis):
            monkeypatch.setattr(module, "column_sq_norms", spy)
        assert main(["synth", labeled_csv, "--mode", "supervised", "--label-col", "y",
                     "--label-bound", "1.0", "--dim", "2", "--seed", "3",
                     "--out", str(tmp_path / "rel")]) == 0
        # one Dataset of the input, the clip of its 2 x n chart and one of the release
        assert shapes == [(4, 150), (2, 150), (2, 150)]

    def test_gmm_run_takes_the_input_norms_once(self, classed_csv, tmp_path, monkeypatch):
        shapes = []

        def spy(X):
            shapes.append(np.shape(X))
            return np.einsum("ij,ij->j", X, X)

        for module in (dataset, preprocessing, synthesis):
            monkeypatch.setattr(module, "column_sq_norms", spy)
        assert main(["synth", classed_csv, "--mode", "gmm", "--label-col", "cls",
                     "--dim", "2", "--seed", "1", "--out", str(tmp_path / "rel")]) == 0
        # the input Dataset's, not one per class; the clip of its 2 x n
        # chart; the release is one Dataset
        assert shapes == [(4, 160), (2, 160), (2, 160)]

    def test_label_col_on_a_first_column_after_a_byte_order_mark(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = "".join(",".join(f"{v:.17g}" for v in x) + "\n"
                       for x in rng.normal(size=(40, 4)))
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeffy,f1,f2,f3\n" + rows).encode("utf-8"))
        out = str(tmp_path / "rel")
        assert main(["synth", str(path), "--mode", "supervised", "--label-col", "y",
                     "--label-bound", "1", "--dim", "2", "--seed", "1", "--out", out]) == 0
        with open(os.path.join(out, "metadata.json")) as fh:
            assert json.load(fh)["m"] == 3  # f1..f3; y is the label

    def test_unsupervised_label_column_is_left_out(self, classed_csv, tmp_path):
        out = str(tmp_path / "rel")
        code = main(["synth", classed_csv, "--label-col", "cls", "--dim", "2",
                     "--seed", "3", "--out", out])
        assert code == 0
        with open(os.path.join(out, "metadata.json")) as fh:
            assert json.load(fh)["m"] == 4  # f1..f4; the label is not a feature
        with open(os.path.join(out, "data.csv")) as fh:
            assert "cls" not in fh.readline()

    @pytest.mark.parametrize("mode,source,flags", [
        ("unsupervised", "numeric_csv", []),
        ("supervised", "labeled_csv", ["--label-col", "y", "--label-bound", "1"]),
        ("gmm", "classed_csv", ["--label-col", "cls"]),
    ])
    def test_input_is_freed_before_the_release_is_drawn(self, mode, source, flags, request,
                                                        tmp_path, monkeypatch):
        # once measured, the input's arrays are dropped: the draw and the
        # write, a release's largest allocations, run without them
        inputs, freed = [], []
        load, sample = cli.load_csv, synthesis.sample_gaussian

        def spy_load(*args, **kwargs):
            data = load(*args, **kwargs)
            buffer = data.features
            while buffer.base is not None:
                buffer = buffer.base
            inputs.extend(weakref.ref(a) for a in (data.features, buffer, data.labels)
                          if a is not None)
            return data

        def spy_sample(*args):
            gc.collect()
            freed.append([ref() is None for ref in inputs])
            return sample(*args)

        monkeypatch.setattr(cli, "load_csv", spy_load)
        monkeypatch.setattr(synthesis, "sample_gaussian", spy_sample)
        assert main(["synth", request.getfixturevalue(source), "--mode", mode, *flags,
                     "--dim", "2", "--seed", "1", "--out", str(tmp_path / "rel")]) == 0
        assert len(inputs) == (3 if mode == "supervised" else 2)
        assert freed == [[True] * len(inputs)] * (2 if mode == "gmm" else 1)


@pytest.mark.parametrize("argv", [
    ["silhouette", "--data", "ghost.csv", "--k-sweep", "2:4"],
    ["rmse", "--pred", "ghost.csv", "--truth", "ghost.csv"],
    ["normality", "--data", "ghost.csv"],
], ids=lambda argv: argv[0])
def test_removed_eval_command_is_a_usage_error(argv, tmp_path, capsys):
    # the input is missing, so a read would exit 2
    argv = [str(tmp_path / arg) if arg == "ghost.csv" else arg for arg in argv]
    assert main(["eval", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # later Pythons spell the choices without quotes
    assert captured.err.strip().splitlines()[-1].startswith(
        "error: argument command: invalid choice: 'eval' (choose from ")


class TestBudgetCommand:
    def test_supervised_plan_scales(self, capsys):
        code = main(["budget", "--mode", "supervised", "--epsilon", "1.0",
                     "--m", "30", "--n", "100", "--dim", "4",
                     "--label-bound", "1.0"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        aug = [s for s in plan["spends"] if s["query"] == "augmented_covariance"][0]
        assert aug["noise_scale"] == pytest.approx(0.10 / 0.7, rel=1e-12)
        assert plan["total_epsilon"] == 1.0

    def test_gmm_plan_has_per_class_rows_and_parallel_total(self, capsys):
        code = main(["budget", "--mode", "gmm", "--epsilon", "1.0", "--m", "20",
                     "--dim", "3", "--class-sizes", "100,200,300"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert len(plan["spends"]) == 6  # 3 classes x 2 queries
        assert plan["total_epsilon"] == 1.0
        assert "parallel" in plan["note"]

    def test_gmm_plan_means_are_p_dimensional(self, capsys):
        # each class mean is taken in its p-dimensional chart, not in R^m
        assert main(["budget", "--mode", "gmm", "--m", "20", "--dim", "3",
                     "--class-sizes", "100,200,300"]) == 0
        plan = json.loads(capsys.readouterr().out)
        means = [s["sensitivity"] for s in plan["spends"] if s["query"] == "mean"]
        assert means == pytest.approx([2 * math.sqrt(3) / n for n in (100, 200, 300)],
                                      rel=1e-15)

    def test_supervised_noise_exceeds_unsupervised(self, capsys):
        main(["budget", "--mode", "unsupervised", "--epsilon", "1.0", "--m", "30",
              "--n", "100", "--dim", "4"])
        unsup = json.loads(capsys.readouterr().out)
        main(["budget", "--mode", "supervised", "--epsilon", "1.0", "--m", "30",
              "--n", "100", "--dim", "4", "--label-bound", "1.0"])
        sup = json.loads(capsys.readouterr().out)
        scale_unsup = unsup["spends"][1]["noise_scale"]
        scale_sup = sup["spends"][1]["noise_scale"]
        assert scale_sup > scale_unsup

    @pytest.mark.parametrize("mode", ["unsupervised", "supervised", "gmm"])
    def test_plan_matches_release_ledger(self, mode, capsys):
        # the printed plan and a seeded release of data with the same
        # m, n, p and class sizes must account identically
        m, p, sizes = 9, 3, (40, 70, 55)
        n = sum(sizes)
        rng = np.random.default_rng(21)
        X = rng.normal(size=(m, n))
        eps_mu, eps_sigma = split_budget(1.3, 0.4)
        argv = ["budget", "--mode", mode, "--epsilon", "1.3", "--mu-ratio", "0.4",
                "--m", str(m), "--dim", str(p)]
        if mode == "gmm":
            names = np.repeat(["a", "b", "c"], sizes)
            result = synth_gmm(Dataset(features=X, class_labels=names), p, eps_mu,
                               eps_sigma, rng=rng)
            argv += ["--class-sizes", ",".join(map(str, sizes))]
        elif mode == "supervised":
            data = Dataset(features=X, labels=rng.uniform(-2, 2, n))
            result = synth_supervised(data, p, eps_mu, eps_sigma, 2.0, rng=rng)
            argv += ["--n", str(n), "--label-bound", "2"]
        else:
            result = synth_unsupervised(Dataset(features=X), p, eps_mu, eps_sigma, rng=rng)
            argv += ["--n", str(n)]
        assert main(argv) == 0
        plan = json.loads(capsys.readouterr().out)
        printed = [(s["query"], s["sensitivity"], s["epsilon"], s.get("group"))
                   for s in plan["spends"]]
        spent = [(e.query, e.sensitivity, e.epsilon, e.group)
                 for e in result.ledger.entries]
        assert printed == spent
        assert plan["total_epsilon"] == result.ledger.total()

    def test_gmm_needs_class_sizes(self):
        assert main(["budget", "--mode", "gmm", "--m", "10", "--dim", "2"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--m", "6", "--n", "0"], "argument --n: must be a positive integer, got '0'"),
        (["--m", "6", "--n", "-3"], "argument --n: must be a positive integer, got '-3'"),
        (["--mode", "gmm", "--m", "20", "--class-sizes", "5,0"],
         "argument --class-sizes: must be comma-separated positive integers, got '5,0'"),
        # int() reads digit-group underscores; a flag, like a CSV cell, does not
        (["--m", "6", "--n", "1_000"], "argument --n: must be a positive integer, got '1_000'"),
        (["--mode", "gmm", "--m", "20", "--class-sizes", "1,x"],
         "argument --class-sizes: must be comma-separated positive integers, got '1,x'"),
        (["--mode", "gmm", "--m", "20", "--class-sizes", ","],
         "argument --class-sizes: must be comma-separated positive integers, got ','"),
        (["--mode", "gmm", "--m", "20", "--class-sizes", "2,1_0"],
         "argument --class-sizes: must be comma-separated positive integers, got '2,1_0'"),
        # p < m needs m >= 2, whatever --dim says
        (["--m", "1", "--n", "5"], "argument --m: must be an integer of at least 2, got '1'"),
    ])
    def test_empty_size_error_names_the_flag(self, argv, message, capsys):
        assert main(["budget", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse prints its usage line first
        assert captured.err.strip().splitlines()[-1] == f"error: {message}"

    @pytest.mark.parametrize("argv,flag", [
        (["--mode", "gmm", "--class-sizes", "100,200", "--n", "5"], "--n"),
        (["--n", "100", "--class-sizes", "1,2"], "--class-sizes"),
    ])
    def test_flag_the_mode_ignores_is_a_usage_error(self, argv, flag, capsys):
        assert main(["budget", "--m", "20", "--dim", "3", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_bad_epsilon_prints_no_plan(self, eps, capsys):
        assert main(["budget", "--epsilon", eps, "--m", "6", "--n", "200"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags,query,scale", [
        # a^2 = 1e308 is finite, but the covariance spend's epsilon is 7e-301
        (["--mode", "supervised", "--label-bound", "1e154", "--epsilon", "1e-300"],
         "augmented_covariance", "that is not finite"),
        (["--epsilon", "1e-320"], "mean", "that is not finite"),
        # finite scales, but the squared mean or a covariance row sum overflows
        (["--epsilon", "1e-300"], "mean", r"\S+ too large for float64"),
        (["--mode", "supervised", "--label-bound", "1e100", "--epsilon", "1e-108"],
         "augmented_covariance", r"\S+ too large for float64"),
    ], ids=["label-bound", "epsilon", "mean-overflow", "augmented-covariance-overflow"])
    def test_a_plan_whose_noise_cannot_be_drawn_is_not_printed(self, flags, query, scale,
                                                               capsys):
        # a noise scale of sensitivity / epsilon = inf, which JSON cannot hold
        # either, or one whose draws overflow float64 arithmetic
        assert main(["budget", *flags, "--m", "5", "--n", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {query} spend: sensitivity .* gives a noise scale "
                            f"{scale}\n", captured.err)


def test_default_dim_uses_guidance_capped_by_m():
    assert default_dim(100) == 13
    assert default_dim(2) == 1
    # the guidance is vacuous for m <= 10; the default is 1, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_dim(8) == 1
        assert default_dim(10) == 1
    # guidance can exceed m-1 for small m; the cap wins
    assert default_dim(12) <= 11


# text that does not parse, for each argparse type, a value that is out
# of range whatever the data, and numbers that int() and float() read but
# a CSV cell may not hold
@pytest.mark.parametrize("argv,flag", [
    (["--dim", "0"], "--dim"),
    (["--dim", "x"], "--dim"),
    (["--dim", "1_0"], "--dim"),
    (["--epsilon", "x"], "--epsilon"),
    (["--epsilon", "1_0"], "--epsilon"),
    (["--mu-ratio", "x"], "--mu-ratio"),
    (["--mu-ratio", "1.5"], "--mu-ratio"),
    (["--seed", "x"], "--seed"),
    (["--seed", "\u0661"], "--seed"),
], ids=lambda value: " ".join(["synth", *value]) if isinstance(value, list) else None)
def test_data_free_flag_is_checked_before_reading(argv, flag, tmp_path, capsys):
    # the input is missing: had it been read first, the exit would be 2
    assert main(["synth", str(tmp_path / "ghost.csv"), *argv,
                 "--out", str(tmp_path / "rel")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "data error" not in captured.err
    assert flag in captured.err.strip().splitlines()[-1]
    assert not (tmp_path / "rel").exists()


@pytest.mark.parametrize("command", ["synth", "budget"])
@pytest.mark.parametrize("epsilon,ratio,shares", [
    ("1", "1e-17", "epsilon_mu=0.0, epsilon_sigma=1.0"),
    ("5e-324", "0.3", "epsilon_mu=0.0, epsilon_sigma=5e-324"),
    ("5e-324", "0.9", "epsilon_mu=5e-324, epsilon_sigma=0.0"),
], ids=["mu share of 1", "mu share of 5e-324", "sigma share of 5e-324"])
def test_a_budget_split_with_a_zero_share_fails_before_reading(command, epsilon, ratio,
                                                               shares, tmp_path, capsys):
    # each flag is in range, but one share of the split rounds to zero
    args = ([str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "rel")]
            if command == "synth" else ["--m", "6", "--n", "200"])
    # had the (missing) input been read first, the exit would be 2
    assert main([command, *args, "--epsilon", epsilon, "--mu-ratio", ratio]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --epsilon {float(epsilon)!r} split by --mu-ratio "
                            f"{float(ratio)!r} gives a share that rounds to zero: {shares}\n")
    assert not (tmp_path / "rel").exists()


@pytest.mark.parametrize("text,flags,message", [
    ("a,b,c\n1,2,3\n0,0,0\n4,5,7\n", [],
     "sample 1 has zero norm and cannot be normalized (row 3 of the input)"),
    ("a,b,c\n1,2,3\n1e200,1e200,1e200\n4,5,7\n", [],
     "sample 1 is too large to normalize (row 3 of the input)"),
    ("a,b,c\n1,2,3\n4,5,nan\n6,7,8\n", [],
     "non-finite feature value in column 'c' (row 3 of the input)"),
    # the first bad cell in file order, not in column order
    ("a,b,c\n1,2,3\n4,5,nan\n6,7,8\nnan,1,2\n", [],
     "non-finite feature value in column 'c' (row 3 of the input)"),
    ("a,b,c,y\n1,2,3,0\n4,5,7,0\n6,7,8,inf\n",
     ["--mode", "supervised", "--label-col", "y", "--label-bound", "1"],
     "labels contain non-finite values (row 4 of the input)"),
    # p < m needs m >= 2: one feature column is the data's fault, not --dim's
    ("a\n1\n2\n3\n", [], "a release needs at least 2 feature columns, got 1"),
    ("a,y\n1,0.5\n2,0.1\n3,0.2\n",
     ["--mode", "supervised", "--label-col", "y", "--label-bound", "1"],
     "a release needs at least 2 feature columns, got 1"),
], ids=["zero-row", "huge-row", "nan-feature", "nan-feature-file-order", "inf-label",
        "one-feature", "one-feature-supervised"])
def test_data_fault_found_after_the_parse_is_a_data_error(text, flags, message, tmp_path,
                                                          capsys):
    path = tmp_path / "in.csv"
    path.write_text(text)
    out = tmp_path / "rel"
    assert main(["synth", str(path), *flags, "--dim", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {message}\n"
    assert not out.exists()


def smallest_accepted_epsilon(m, p, sizes, label_bound=None, per_class=False):
    """The smallest --epsilon whose spends ``record_spends`` accepts, to 1 part in 1e12."""
    def accepted(epsilon):
        ledger = BudgetLedger()
        try:
            for n in sizes:
                record_spends(ledger, m, p, n, *split_budget(epsilon), label_bound, per_class)
        except ValueError:
            return False
        return True

    lo, hi = 5e-324, 1.0  # refused, accepted
    while hi > lo * (1.0 + 1e-12):
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("source,flags,query", [
    ("numeric_csv", [], "mean"),
    ("labeled_csv", ["--mode", "supervised", "--label-col", "y", "--label-bound", "2"], "mean"),
    ("labeled_csv", ["--mode", "supervised", "--label-col", "y", "--label-bound", "1e100"],
     "augmented_covariance"),
    ("classed_csv", ["--mode", "gmm", "--label-col", "cls"], "mean"),
], ids=["unsupervised", "supervised", "supervised-wide-bound", "gmm"])
def test_the_smallest_accepted_epsilon_releases_and_a_smaller_one_is_refused(
        source, flags, query, request, tmp_path, capsys):
    path = request.getfixturevalue(source)
    label_bound = float(flags[5]) if "supervised" in flags else None
    gmm = "gmm" in flags
    data = load_csv(path, label_column=flags[3] if flags else None,
                    label_kind="real" if label_bound else "categorical" if gmm else None)
    m, p = data.n_features, 2
    sizes = (np.unique(data.class_labels, return_counts=True)[1].tolist() if gmm
             else [data.n_samples])
    threshold = smallest_accepted_epsilon(m, p, sizes, label_bound, gmm)
    argv = ["synth", path, *flags, "--dim", str(p), "--seed", "3"]

    above = tmp_path / "above"
    assert main([*argv, "--epsilon", repr(threshold * (1 + 1e-9)), "--out", str(above)]) == 0
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    cells = np.loadtxt(above / "data.csv", delimiter=",", skiprows=1,
                       usecols=range(p + (label_bound is not None)))
    assert cells.shape[0] == data.n_samples and np.all(np.isfinite(cells))

    below = tmp_path / "below"
    assert main([*argv, "--epsilon", repr(threshold * (1 - 1e-9)), "--out", str(below)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {query} spend: sensitivity .* too large for float64\n",
                        captured.err)
    assert not below.exists()


@pytest.mark.parametrize("bound", ["1e6", "1e8", "1e100"])
def test_a_large_label_bound_releases(bound, tmp_path):
    # psd_repair's rounding grows with the largest eigenvalue, near a^2:
    # the sampler clips it instead of refusing the release
    rng = np.random.default_rng(0)
    path = tmp_path / "in.csv"
    np.savetxt(path, rng.normal(size=(200, 6)), fmt="%.6f", delimiter=",",
               header="a,b,c,d,e,f", comments="")
    out = tmp_path / "rel"
    assert main(["synth", str(path), "--mode", "supervised", "--label-col", "e", "--seed", "1",
                 "--dim", "2", "--label-bound", bound, "--out", str(out)]) == 0
    cells = np.loadtxt(out / "data.csv", delimiter=",", skiprows=1)
    assert cells.shape == (200, 3) and np.all(np.isfinite(cells))


def test_closed_stdout_ends_the_run_without_a_message(tmp_path):
    # the reader of the pipe has gone before the plan is printed
    src = os.path.dirname(os.path.dirname(ronsynth.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ronsynth.cli", "budget", "--m", "6", "--n", "1000"],
            stdout=write_end, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
