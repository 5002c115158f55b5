import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from ronsynth import dataset, preprocessing, synthesis
from ronsynth.cli import default_dim, main
from ronsynth.dataset import Dataset, load_csv
from ronsynth.evaluation import nearest_mean_accuracy, ols_rmse
from ronsynth.mechanism import split_budget
from ronsynth.synthesis import synth_gmm, synth_supervised, synth_unsupervised

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
        meta = json.load(open(os.path.join(out, "metadata.json")))
        assert set(meta) == REQUIRED_META_KEYS
        assert meta["epsilon_mu"] == pytest.approx(0.3)
        assert meta["epsilon_sigma"] == pytest.approx(0.7)
        assert meta["epsilon_total"] == 1.0
        assert meta["mode"] == "unsupervised"
        assert meta["p"] == 3 and meta["m"] == 6 and meta["n"] == 120
        # the seed itself would let anyone replay the noise; only its use is recorded
        assert meta["seeded"] is True
        header = open(os.path.join(out, "data.csv")).readline().strip()
        assert header == "z1,z2,z3"
        assert "total epsilon: 1" in capsys.readouterr().out

    def test_seeded_runs_are_byte_identical(self, numeric_csv, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["synth", numeric_csv, "--dim", "3", "--seed", "42",
                         "--out", out]) == 0
        data1 = open(os.path.join(out1, "data.csv"), "rb").read()
        data2 = open(os.path.join(out2, "data.csv"), "rb").read()
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
        header = open(os.path.join(out, "data.csv")).readline().strip()
        assert header.endswith(",label")
        meta = json.load(open(os.path.join(out, "metadata.json")))
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

    def test_gmm_release_with_artifacts(self, classed_csv, tmp_path):
        out = str(tmp_path / "rel")
        code = main(["synth", classed_csv, "--mode", "gmm", "--label-col", "cls",
                     "--dim", "2", "--seed", "5", "--out", out,
                     "--save-projection", "--reconstruct"])
        assert code == 0
        lines = open(os.path.join(out, "data.csv")).read().splitlines()
        assert lines[0].split(",")[-1] == "class"
        assert {ln.split(",")[-1] for ln in lines[1:]} == {"pos", "neg"}
        # every class shares one basis, saved once
        assert sorted(os.listdir(out)) == ["data.csv", "metadata.json", "projection.csv",
                                           "reconstructed.csv"]
        rec = open(os.path.join(out, "reconstructed.csv")).readline().strip()
        assert rec == "f1,f2,f3,f4,class"

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

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "ghost.csv")]) == 2

    def test_unseeded_release_says_so(self, numeric_csv, tmp_path):
        out = str(tmp_path / "rel")
        assert main(["synth", numeric_csv, "--dim", "2", "--out", out]) == 0
        meta = json.load(open(os.path.join(out, "metadata.json")))
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

    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_negative_seed_is_rejected_before_reading(self, command, tmp_path, capsys):
        # the flag is checked before the (here missing) input is opened
        out = tmp_path / "rel"
        args = ([str(tmp_path / "ghost.csv"), "--out", str(out)] if command == "synth"
                else ["normality", "--data", str(tmp_path / "ghost.csv")])
        assert main([command, *args, "--seed", "-1"]) == 1
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
                                      ["--shared-projection"]])
    def test_removed_flags_are_usage_errors(self, classed_csv, tmp_path, flag):
        out = str(tmp_path / "rel")
        assert main(["synth", classed_csv, "--label-col", "cls", "--dim", "2", *flag,
                     "--out", out]) == 1
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
        assert f"error: {flag} must" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "budget"])
    @pytest.mark.parametrize("bound", ["nan", "inf", "0", "-1"])
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
        rows = open(os.path.join(out, "data.csv")).read().splitlines()
        assert len(rows) == 18  # header + 17 samples

    def test_dim_sweep_reports_instead_of_writing(self, labeled_csv, tmp_path, capsys):
        out = str(tmp_path / "rel")
        code = main(["synth", labeled_csv, "--mode", "supervised",
                     "--label-col", "y", "--label-bound", "1.0",
                     "--dim-sweep", "1,2,3", "--seed", "1", "--out", out])
        assert code == 0
        assert not os.path.exists(out)
        report = json.loads(capsys.readouterr().out)
        assert report["metric"] == "rmse"
        assert [row["p"] for row in report["sweep"]] == [1, 2, 3]
        assert report["best_p"] in (1, 2, 3)

    def test_supervised_dim_sweep_scores_against_clipped_labels(self, labeled_csv, capsys):
        assert main(["synth", labeled_csv, "--mode", "supervised", "--label-col", "y",
                     "--label-bound", "1.0", "--dim-sweep", "2", "--seed", "1"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["sweep"]
        data = load_csv(labeled_csv, label_column="y", label_kind="real")
        result = synth_supervised(data, 2, *split_budget(1.0, 0.3), 1.0,
                                  rng=np.random.default_rng(1))
        truth = np.clip(data.labels, -1.0, 1.0)
        assert not np.array_equal(truth, data.labels)
        assert row["value"] == ols_rmse(result, data.features, truth)

    @pytest.mark.parametrize("flag", ["--save-projection", "--reconstruct"])
    def test_dim_sweep_rejects_release_artifact_flags(self, tmp_path, flag, capsys):
        # a sweep writes no release, so an artifact flag is one the mode ignores
        out = tmp_path / "rel"
        # had the input been read first, a missing file would exit 2
        assert main(["synth", str(tmp_path / "ghost.csv"), "--dim-sweep", "1,2", flag,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} does not apply to --dim-sweep" in captured.err
        assert not out.exists()

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
        # one Dataset of the input and one of the release
        assert shapes == [(4, 150), (2, 150)]

    def test_gmm_dim_sweep_takes_the_input_norms_once(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(7)
        rows = "".join(",".join(f"{v:.17g}" for v in x) + f",c{i % 3}\n"
                       for i, x in enumerate(rng.normal(size=(400, 12))))
        path = tmp_path / "in.csv"
        path.write_text(",".join(f"f{j}" for j in range(12)) + ",cls\n" + rows)
        shapes = []

        def spy(X):
            shapes.append(np.shape(X))
            return np.einsum("ij,ij->j", X, X)

        for module in (dataset, preprocessing, synthesis):
            monkeypatch.setattr(module, "column_sq_norms", spy)
        assert main(["synth", str(path), "--mode", "gmm", "--label-col", "cls",
                     "--dim-sweep", "1,2,4", "--seed", "1"]) == 0
        # the Dataset's; each swept release's own Dataset takes (p, 400)
        assert shapes == [(12, 400), (1, 400), (2, 400), (4, 400)]
        monkeypatch.undo()
        report = json.loads(capsys.readouterr().out)
        data = load_csv(str(path), label_column="cls", label_kind="categorical")
        for row in report["sweep"]:
            result = synth_gmm(data, row["p"], *split_budget(1.0, 0.3),
                               rng=np.random.default_rng(1))
            # the scorer that takes the norms itself gives the same value
            assert row["value"] == nearest_mean_accuracy(result, data.features,
                                                         data.class_labels)

    def test_label_col_on_a_first_column_after_a_byte_order_mark(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = "".join(",".join(f"{v:.17g}" for v in x) + "\n"
                       for x in rng.normal(size=(40, 4)))
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeffy,f1,f2,f3\n" + rows).encode("utf-8"))
        out = str(tmp_path / "rel")
        assert main(["synth", str(path), "--mode", "supervised", "--label-col", "y",
                     "--label-bound", "1", "--dim", "2", "--seed", "1", "--reconstruct",
                     "--out", out]) == 0
        with open(os.path.join(out, "reconstructed.csv"), "rb") as fh:
            assert fh.readline() == b"f1,f2,f3,label\r\n"

    def test_unsupervised_label_column_is_left_out(self, classed_csv, tmp_path):
        out = str(tmp_path / "rel")
        code = main(["synth", classed_csv, "--label-col", "cls", "--dim", "2",
                     "--seed", "3", "--out", out])
        assert code == 0
        with open(os.path.join(out, "metadata.json")) as fh:
            assert json.load(fh)["m"] == 4  # f1..f4; the label is not a feature
        with open(os.path.join(out, "data.csv")) as fh:
            assert "cls" not in fh.readline()

    def test_unsupervised_dim_sweep_scores_silhouette(self, numeric_csv, capsys):
        code = main(["synth", numeric_csv, "--dim-sweep", "2,3", "--seed", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metric"] == "silhouette"
        assert report["best_p"] in (2, 3)


class TestEvalCommand:
    def test_rmse_of_identical_files_is_zero(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        path.write_text("v\n1.5\n2.5\n-0.5\n")
        code = main(["eval", "rmse", "--pred", str(path), "--truth", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metric"] == "rmse" and report["value"] == 0.0

    def test_silhouette_k_sweep_reports_argmax(self, classed_csv, capsys):
        code = main(["eval", "silhouette", "--data", classed_csv,
                     "--label-col", "cls", "--k-sweep", "2:5", "--seed", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metric"] == "silhouette"
        assert set(report["params"]["sweep"]) == {"2", "3", "4", "5"}
        assert report["params"]["k"] == 2  # two well-separated blobs

    def test_normality_reports_per_coordinate_table(self, numeric_csv, capsys):
        code = main(["eval", "normality", "--data", numeric_csv, "--orig-dim", "100"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["params"]["ks_distances"]) == 6
        assert report["params"]["expected_sigma"] == 0.1

    def test_missing_inputs_are_usage_errors(self, numeric_csv, capsys):
        assert main(["eval", "rmse", "--pred", numeric_csv]) == 1
        assert main(["eval", "normality"]) == 1
        capsys.readouterr()
        assert main(["eval", "silhouette", "--data", numeric_csv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--k-sweep" in captured.err

    @pytest.mark.parametrize("flag", [["--k", "2"], ["--k-sweep", "2:3", "--max-points", "5"]])
    def test_removed_silhouette_flags_are_usage_errors(self, numeric_csv, capsys, flag):
        assert main(["eval", "silhouette", "--data", numeric_csv, *flag]) == 1
        assert capsys.readouterr().out == ""

    def test_single_k_sweep_report(self, classed_csv, capsys):
        # the report --k 3 printed before --k-sweep K:K replaced it
        assert main(["eval", "silhouette", "--data", classed_csv, "--label-col", "cls",
                     "--k-sweep", "3:3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_points"] == 160
        assert report["params"]["k"] == 3 and list(report["params"]["sweep"]) == ["3"]
        assert report["value"] == report["params"]["sweep"]["3"] == 0.40693713022515493


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
         "--class-sizes: class 1 has size 0"),
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
