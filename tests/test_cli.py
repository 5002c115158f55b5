import json
import os

import numpy as np
import pytest

from ronsynth.cli import default_dim, main
from ronsynth.dataset import Dataset
from ronsynth.mechanism import split_budget
from ronsynth.synthesis import synth_gmm, synth_supervised, synth_unsupervised

REQUIRED_META_KEYS = {
    "mode", "m", "p", "n", "n_synth", "epsilon_total", "epsilon_mu",
    "epsilon_sigma", "split_ratio", "label_bound", "seed",
    "psd_repair_applied", "clip_count", "timestamp",
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

    def test_supervised_release(self, labeled_csv, tmp_path):
        out = str(tmp_path / "rel")
        code = main(["synth", labeled_csv, "--mode", "supervised",
                     "--label-col", "y", "--label-bound", "1.0", "--dim", "2",
                     "--seed", "3", "--out", out])
        assert code == 0
        header = open(os.path.join(out, "data.csv")).readline().strip()
        assert header.endswith(",label")
        meta = json.load(open(os.path.join(out, "metadata.json")))
        assert meta["label_bound"] == 1.0
        assert meta["clip_count"] > 0  # fixture labels extend past 1.0

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
        # per-class projections by default
        assert os.path.exists(os.path.join(out, "projection_pos.csv"))
        assert os.path.exists(os.path.join(out, "projection_neg.csv"))
        rec = open(os.path.join(out, "reconstructed.csv")).readline().strip()
        assert rec == "f1,f2,f3,f4,class"

    def test_gmm_shared_projection_writes_one_matrix(self, classed_csv, tmp_path):
        out = str(tmp_path / "rel")
        code = main(["synth", classed_csv, "--mode", "gmm", "--label-col", "cls",
                     "--dim", "2", "--seed", "5", "--out", out,
                     "--shared-projection", "--save-projection"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "projection.csv"))

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "ghost.csv")]) == 2

    def test_bad_cell_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,oops\n")
        assert main(["synth", str(path)]) == 2

    def test_unknown_flag_is_usage_error(self, numeric_csv):
        assert main(["synth", numeric_csv, "--frobnicate"]) == 1

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

    def test_missing_inputs_are_usage_errors(self, numeric_csv):
        assert main(["eval", "rmse", "--pred", numeric_csv]) == 1
        assert main(["eval", "silhouette", "--data", numeric_csv]) == 1
        assert main(["eval", "normality"]) == 1


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
            data = Dataset(features=X, labels=rng.uniform(-2, 2, n), label_bound=2.0)
            result = synth_supervised(data, p, eps_mu, eps_sigma, rng=rng)
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


def test_default_dim_uses_guidance_capped_by_m():
    assert default_dim(100) == 13
    assert default_dim(2) == 1
    with pytest.warns(UserWarning):
        assert default_dim(8) == 1
    # guidance can exceed m-1 for small m; the cap wins
    assert default_dim(12) <= 11
