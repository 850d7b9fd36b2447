"""Command-line interface: exit codes, output files, config handling."""

import json
import os

import pytest

from mpgworkbench import cli, experiments
from mpgworkbench.cli import (EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                              _load_config_file, _markdown, _regression_csvs,
                              main)
from mpgworkbench.ingest import DATA_SHA256, reference_data_path
from mpgworkbench.kernelmod import SmoError


def run_cli(argv):
    return main(argv)


# --- validate-data

def test_validate_data_reports_reference_file(capsys):
    assert run_cli(["validate-data"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rows: 398" in out
    assert "missing horsepower rows: 6" in out
    assert DATA_SHA256 in out
    assert "matches" in out


def test_validate_data_env_var(tmp_path, capsys, monkeypatch):
    copy = tmp_path / "cars.data"
    with open(reference_data_path(), "r", encoding="utf-8") as fh:
        copy.write_text(fh.read(), encoding="utf-8")
    monkeypatch.setenv("MPGW_DATA", str(copy))
    assert run_cli(["validate-data"]) == EXIT_OK
    assert str(copy) in capsys.readouterr().out


# --- exit codes

def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == EXIT_USAGE


def test_no_subcommand_exits_one(capsys):
    assert run_cli([]) == EXIT_USAGE


def test_missing_data_file_exits_two(tmp_path, capsys):
    code = run_cli(["eda", "--data", str(tmp_path / "absent.data"),
                    "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_malformed_data_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.data"
    bad.write_text("18.0   8   307.0\n", encoding="utf-8")
    code = run_cli(["eda", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_failure_leaves_no_partial_files(tmp_path, capsys):
    bad = tmp_path / "bad.data"
    bad.write_text("not a data file\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["eda", "--data", str(bad), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


def test_invalid_split_exits_one(tmp_path, capsys):
    code = run_cli(["classify", "--split", "1.5",
                    "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--split", "1.5"], ["--split", "0"],
                                   ["--folds", "1"]])
def test_invalid_config_exits_one_before_output(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert run_cli(["eda", *flags, "--out", str(out)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, folds", [([], 10), (["--folds", "25"], 25)])
def test_too_few_rows_for_cv_folds_exits_two(tmp_path, capsys, flags, folds):
    # 30 spread-out rows: a 21-row training split, so 10 folds hold 2
    # rows each and 25 folds exceed the rows
    with open(reference_data_path(), "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[::13][:30]
    small = tmp_path / "small.data"
    small.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli(["regress", "--data", str(small), *flags, "--out", str(out)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {folds}-fold cross-validation" in err
    assert "21 rows" in err
    assert not out.exists()


def test_constant_training_feature_exits_two(tmp_path, capsys):
    # the first 29 packaged rows are all model year 70
    with open(reference_data_path(), "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[:29]
    small = tmp_path / "small.data"
    small.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli(["regress", "--data", str(small), "--folds", "5",
                    "--out", str(out)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: 'model_year' is constant in the training split" in err
    assert not out.exists()


def test_invalid_config_file_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cv_folds = 0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["eda", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert "cv_folds" in capsys.readouterr().err
    assert not out.exists()


def test_solver_failure_shows_kkt_violation(tmp_path, capsys, monkeypatch):
    def failing_solver(*args, **kwargs):
        raise SmoError("SVR solver hit the iteration cap of 1",
                       dual=None, max_violation=0.5)

    monkeypatch.setattr(experiments, "solve_svr_dual", failing_solver)
    out = tmp_path / "out"
    assert run_cli(["regress", "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: SVR solver hit the iteration cap of 1" in err
    assert "max KKT violation 0.5" in err
    assert not out.exists()


# --- recorded data path (the suite itself is stubbed: only the config
# written next to it is under test)

@pytest.mark.parametrize("given", [False, True])
def test_regress_records_data_path_as_given(tmp_path, monkeypatch, given):
    monkeypatch.delenv("MPGW_DATA", raising=False)
    monkeypatch.setattr(cli, "run_regression_suite", lambda config: {})
    out = tmp_path / "out"
    argv = ["regress", "--out", str(out), "--format", "json"]
    path = os.path.join("some", "dir", "cars.data")
    if given:
        argv += ["--data", path]
    assert run_cli(argv) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["data_path"] == (path if given else None)


def test_markdown_names_packaged_file():
    prov = {"config": {"data_path": None, "seed": 1}, "data_sha256": "ab",
            "n_train": 278, "n_test": 120}
    assert "- data: packaged reference file\n" in _markdown({"provenance": prov})
    prov["config"]["data_path"] = "cars.data"
    assert "- data: `cars.data`\n" in _markdown({"provenance": prov})


# --- eda outputs

def test_eda_writes_expected_files(tmp_path):
    out = tmp_path / "eda"
    assert run_cli(["eda", "--out", str(out)]) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"report.json", "report.md", "correlation.csv",
            "distributions.csv", "pairwise.csv"} <= names
    report = json.loads((out / "report.json").read_text())
    assert len(report["eda"]["correlation"]["labels"]) == 8
    corr_lines = (out / "correlation.csv").read_text().strip().split("\n")
    assert len(corr_lines) == 9  # header + 8 rows


def test_eda_json_only_format(tmp_path):
    out = tmp_path / "eda"
    assert run_cli(["eda", "--out", str(out), "--format", "json"]) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {"report.json"}


def test_eda_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["eda", "--out", str(out1), "--format", "json"])
    run_cli(["eda", "--out", str(out2), "--format", "json"])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# --- classify outputs

@pytest.fixture(scope="module")
def classify_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("clf")
    assert run_cli(["classify", "--out", str(out)]) == EXIT_OK
    return out


def test_classify_writes_tables_and_roc(classify_out):
    names = {p.name for p in classify_out.iterdir()}
    assert {"report.json", "report.md", "table4.csv", "table5.csv",
            "table6.csv"} <= names
    assert {n for n in names if n.startswith("roc_")} == {
        "roc_svm_linear_initial.csv", "roc_svm_linear_optimized.csv",
        "roc_svm_rbf.csv", "roc_logistic.csv"}
    table4 = (classify_out / "table4.csv").read_text().strip().split("\n")
    assert len(table4) == 11  # header + 10 model rows


def test_classify_markdown_mentions_auc(classify_out):
    md = (classify_out / "report.md").read_text()
    assert "AUC" in md
    assert "Classification grid" in md


def test_classify_json_carries_config(classify_out):
    report = json.loads((classify_out / "report.json").read_text())
    assert report["config"]["seed"] == 1
    assert report["config"]["threshold_mpg"] == 25.0


# --- regression CSV writers (driven from the session fixture, not a
# second expensive CLI run)

def test_regression_csvs_written(tmp_path, regression_suite):
    out = tmp_path / "reg"
    os.makedirs(out)
    _regression_csvs(regression_suite, str(out))
    names = {p.name for p in out.iterdir()}
    assert names == {"table3.csv", "true_vs_pred.csv", "residuals.csv",
                     "residual_hist.csv", "model_comparison.csv"}
    table3 = (out / "table3.csv").read_text().strip().split("\n")
    assert len(table3) == 8  # header + 7 model rows
    assert table3[0].startswith("model,mae,mse,rmse,r2,adj_r2")


# --- config files

def test_config_file_parsed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7   # master seed\nthreshold_mpg = 30.0\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["eda", "--config", str(cfg), "--out", str(out),
                    "--format", "json"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 7
    assert report["config"]["threshold_mpg"] == 30.0


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["eda", "--config", str(cfg), "--seed", "3",
                    "--out", str(out), "--format", "json"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 3


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        _load_config_file(str(cfg))


def test_config_file_rejects_bare_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        _load_config_file(str(cfg))
