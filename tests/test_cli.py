"""Command-line interface: exit codes, output files, config handling."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgworkbench import cli, experiments, kernelmod
from mpgworkbench.cli import (EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                              _load_config_file, _markdown, _write_files, main)
from mpgworkbench.ingest import (DATA_SHA256, FEATURE_NAMES, RawTable,
                                 parse_auto_mpg, reference_data_path,
                                 serialize_raw_table)
from mpgworkbench.kernelmod import SmoError, kernel_matrix, solve_svr_dual
from mpgworkbench.linmod import ConvergenceError
from mpgworkbench.metrics import dataset_correlations


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


@pytest.mark.parametrize("flags", [
    ["--seed", "1"], ["--split", "0.7"], ["--threshold", "25"],
    ["--folds", "10"], ["--format", "json"], ["--out", "results"],
    ["--folds", "1", "--split", "7", "--config", "/nonexistent"],
])
def test_validate_data_takes_only_data(capsys, flags):
    # it runs no experiment, so a run setting is a usage error
    assert run_cli(["validate-data", *flags]) == EXIT_USAGE


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
                                   ["--folds", "1"], ["--threshold", "-1"],
                                   ["--threshold", "0"], ["--threshold", "nan"],
                                   ["--threshold", "inf"]])
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
    assert "data error: 'model_year' is constant in the data file" in err
    assert not out.exists()


# every fit that the experiments run, regression and classification
FITS = ("solve_svr_dual", "fit_svr", "fit_random_forest", "fit_ridge", "fit_ols",
        "fit_elastic_net", "fit_lasso", "fit_svc_smo", "fit_logistic", "fit_cart")


def spy_on_fits(monkeypatch):
    """The names of the fits that experiments calls, filled as they run."""
    calls = []
    for name in FITS:
        monkeypatch.setattr(experiments, name,
                            lambda *args, name=name, fit=getattr(experiments, name), **kw:
                            calls.append(name) or fit(*args, **kw))
    return calls


@pytest.mark.parametrize("command", ["regress", "report"])
def test_constant_held_out_target_exits_two(tmp_path, capsys, monkeypatch, command):
    # mpg 20.0 on every packaged row but every 40th: at seed 1, CV folds
    # 2, 3, 4 and 9 hold out only 20.0, which has no R^2
    with open(reference_data_path(), "r", encoding="utf-8") as fh:
        rows = [row if i % 40 == 0 else "20.0 " + row.split(None, 1)[1]
                for i, row in enumerate(fh.read().splitlines())]
    data = tmp_path / "constant.data"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out, fits = tmp_path / "out", spy_on_fits(monkeypatch)
    assert run_cli([command, "--data", str(data), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: 'mpg' is constant in the held-out rows of CV fold 2: "
        "R^2 is undefined there\n")
    assert fits == []
    assert not out.exists()


def test_class_missing_from_split_exits_two(tmp_path, capsys):
    # at seed 1 no training car reaches 45 mpg, so class 1 is empty there
    out = tmp_path / "out"
    assert run_cli(["classify", "--threshold", "45", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert ("data error: the training split has only class-0 rows at "
            "threshold 45.0 mpg") in err
    assert not out.exists()


def test_report_with_a_missing_class_exits_two_without_output(tmp_path, capsys,
                                                              monkeypatch):
    # the class check comes before every fit, the regression suite's too
    fits = spy_on_fits(monkeypatch)
    for threshold in (45, 100):  # no training car reaches either
        out = tmp_path / str(threshold)
        code = run_cli(["report", "--threshold", str(threshold), "--out", str(out)])
        assert code == EXIT_DATA
        assert (f"only class-0 rows at threshold {threshold:.1f} mpg"
                in capsys.readouterr().err)
        assert not out.exists()
    assert fits == []


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
                       dual=None, max_violation=0.5, iterations=1)

    monkeypatch.setattr(experiments, "solve_svr_dual", failing_solver)
    out = tmp_path / "out"
    assert run_cli(["regress", "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: SVR solver hit the iteration cap of 1" in err
    assert "max KKT violation 0.5; SMO steps 1" in err
    assert not out.exists()


def test_cd_failure_shows_last_iterate(tmp_path, capsys, monkeypatch):
    def failing_cd(*args, **kwargs):
        raise ConvergenceError("active-set solve did not converge in 1 "
                               "iterations at alpha=0.0001 on the training split",
                               last_iterate=(np.array([0.5, -2.25, 1.0]), 0.125))

    for name in ("fit_lasso", "fit_elastic_net"):
        monkeypatch.setattr(experiments, name, failing_cd)
    out = tmp_path / "out"
    assert run_cli(["regress", "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: active-set solve did not converge in 1 iterations "
        "at alpha=0.0001 on the training split; last iterate intercept "
        "0.125, max |coefficient| 2.25\n")
    assert not out.exists()


def test_failed_model_scoring_exits_without_outputs(tmp_path, capsys, monkeypatch):
    """A model that fails after its fit stops the run with the failure's
    own exit code; no report carries it as a table row."""
    def failing_predict(*args):
        raise FloatingPointError("overflow in the forest's predictions")

    monkeypatch.setattr(experiments, "forest_predict", failing_predict)
    out = tmp_path / "out"
    assert run_cli(["regress", "--out", str(out)]) == EXIT_NUMERICAL
    assert "overflow in the forest's predictions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name, bad", [
    ("classify", "logistic_scores", np.inf),
    ("regress", "forest_predict", np.nan),
])
def test_non_finite_model_output_exits_three(tmp_path, capsys, monkeypatch,
                                             command, name, bad):
    """A diverged model is a numerical failure, not a JSON encoding
    (usage) error."""
    real = getattr(experiments, name)

    def diverged(*args):
        values = np.array(real(*args), dtype=float)
        values[0] = bad
        return values

    monkeypatch.setattr(experiments, name, diverged)
    out = tmp_path / "out"
    assert run_cli([command, "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


# --- phases: flags and --config exit 1, the data 2, numerics 3

@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_one(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"seed = 7  # \xff\n")
    out = tmp_path / "out"
    assert run_cli(["eda", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_linalg_error_exits_three(tmp_path, capsys, monkeypatch):
    """LinAlgError is a ValueError, but a numerical failure."""
    def singular(config):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_regression_suite", singular)
    out = tmp_path / "out"
    assert run_cli(["regress", "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"
    assert not out.exists()


def test_active_set_start_outside_the_box_exits_three(tmp_path, capsys,
                                                      monkeypatch):
    """The box-and-sum guard on the engine's start is a numerical check."""
    monkeypatch.setattr(kernelmod, "_svr_active_set",
                        lambda K, y, C, epsilon, beta0, carry: (np.full(y.size, 2.0 * C),
                                                                None, None))
    X = np.arange(6.0)[:, None]
    K = kernel_matrix(kernelmod.KernelSpec("linear"), X, X)
    with pytest.raises(SmoError, match="left the box"):
        solve_svr_dual(K, X[:, 0], (1.0, 10.0), 0.1)
    out = tmp_path / "out"
    assert run_cli(["regress", "--out", str(out)]) == EXIT_NUMERICAL
    assert "numerical failure: the active-set start left the box" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_non_finite_report_value_exits_three_before_writing(tmp_path, capsys,
                                                          monkeypatch):
    """report.json cannot hold a non-finite number: the run fails in the
    compute phase, names the first such value in the JSON's key order,
    and writes nothing."""
    real = experiments.run_eda

    def holed(config):
        report = real(config)
        report["pairwise"]["weight"][3] = np.inf  # "pairwise" sorts later
        report["correlation"]["values"][0][2] = np.nan
        return report

    monkeypatch.setattr(cli, "run_eda", holed)
    out = tmp_path / "out"
    assert run_cli(["eda", "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: non-finite value at report.eda.correlation.values.0.2\n")
    assert not out.exists()


# --- adversarial data files: each cause has one exit code, whatever the
# command; a run that fails exits 2 (3 if numerical) and leaves no --out

COMMANDS = ("eda", "regress", "classify", "report")


def _set(rows, **values):
    return [dataclasses.replace(r, **values) for r in rows]


def _with_tokens(rows, changes):
    """``rows``, serialized, with field ``field`` of line ``i`` (from 0)
    replaced by ``token`` for each (i, field, token) of ``changes``."""
    lines = serialize_raw_table(RawTable(rows=tuple(rows))).split("\n")
    for i, field, token in changes:
        numbers, name = lines[i].split("\t")
        fields = numbers.split("   ")
        fields[(("mpg",) + FEATURE_NAMES).index(field)] = token
        lines[i] = "   ".join(fields) + "\t" + name
    return "\n".join(lines)


def _token(field, token):
    """The packaged rows, serialized, with ``field`` of the first line
    replaced by a token that no RawRecord holds."""
    return lambda rows: _with_tokens(rows, [(0, field, token)])


def _scaled(field, factor):
    """The packaged rows, serialized, with ``field`` multiplied by
    ``factor`` on every line (a missing horsepower stays "?") and written
    with repr, so that it round-trips; an integral value of an integer
    field is written as an integer."""
    def make(rows):
        j = (("mpg",) + FEATURE_NAMES).index(field)
        lines = serialize_raw_table(RawTable(rows=tuple(rows))).splitlines()
        for i, r in enumerate(rows):
            numbers, name = lines[i].split("\t")
            fields = numbers.split("   ")
            if getattr(r, field) is not None:
                value = getattr(r, field) * factor
                # an integer field holds integer tokens only
                integral = isinstance(getattr(r, field), int) and value.is_integer()
                fields[j] = str(int(value)) if integral else repr(value)
            lines[i] = "   ".join(fields) + "\t" + name
        return "\n".join(lines) + "\n"
    return make


# name: (the packaged rows -> the file's rows or text, exit code per
# command of COMMANDS, the constant column that every command names, or
# None)
ADVERSARIAL = {
    "cylinders-all-4": (lambda rows: _set(rows, cylinders=4), (2, 2, 2, 2), "cylinders"),
    # constant, yet its std is ~1e-15, not 0: the mean rounds
    "acceleration-all-12.3": (lambda rows: _set(rows, acceleration=12.3),
                              (2, 2, 2, 2), "acceleration"),
    "mpg-all-20.0": (lambda rows: _set(rows, mpg=20.0), (2, 2, 2, 2), "mpg"),
    "mpg-all-17.3": (lambda rows: _set(rows, mpg=17.3), (2, 2, 2, 2), "mpg"),
    "first-1-row": (lambda rows: rows[:1], (2, 2, 2, 2), "cylinders"),
    "first-2-rows": (lambda rows: rows[:2], (2, 2, 2, 2), "cylinders"),
    "first-3-rows": (lambda rows: rows[:3], (2, 2, 2, 2), "cylinders"),
    # 79 rows: 24 test rows for the polynomial model's 35 features, so
    # its adjusted R^2 is undefined
    "every-5th-row": (lambda rows: rows[4::5], (0, 2, 0, 2), None),
    # 49 rows: 34 training rows for the polynomial model's 36 coefficients
    "every-8th-row": (lambda rows: rows[7::8], (0, 2, 0, 2), None),
    # a held-out fold of only 20.0 mpg: R^2 is undefined there
    "two-mpg-values": (lambda rows: [dataclasses.replace(r, mpg=30.0 if i % 7 == 0 else 20.0)
                                     for i, r in enumerate(rows[:60])], (0, 2, 0, 2), None),
    # 398 rows, 40 distinct: the polynomial model's 36 columns fail the
    # least-squares rank test, a numerical failure; eda and classify fit
    # no polynomial model
    "first-40-rows-repeated": (lambda rows: (rows[:40] * 10)[:398], (0, 3, 0, 3), None),
    "one-class": (lambda rows: [dataclasses.replace(r, mpg=24.0) if r.mpg >= 25 else r
                                for r in rows], (0, 0, 2, 2), None),
    # float() parses these; int("inf") overflows, and NaN passes min == max
    "inf-cylinders": (_token("cylinders", "inf"), (2, 2, 2, 2), None),
    "nan-weight": (_token("weight", "nan"), (2, 2, 2, 2), None),
    "minus-inf-mpg": (_token("mpg", "-inf"), (2, 2, 2, 2), None),
    # an ASCII integer that parses: eda and classify run on it (its row is
    # in the training split), but CV fold 7 holds it out, standardized to
    # 1.26e300, which has no finite square
    "origin-1e300-as-integer": (_token("origin", "1" + "0" * 300), (0, 2, 0, 2), None),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_file_exit_codes(tmp_path, capsys, reference_text, name):
    make, codes, constant = ADVERSARIAL[name]
    data = tmp_path / "cars.data"
    made = make(parse_auto_mpg(reference_text).rows)
    if not isinstance(made, str):
        made = serialize_raw_table(RawTable(rows=tuple(made)))
    data.write_text(made, encoding="utf-8")
    errors = []
    for command, code in zip(COMMANDS, codes):
        out = tmp_path / command
        assert run_cli([command, "--data", str(data), "--out", str(out)]) == code, command
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert (out / "report.json").exists()
        else:
            assert err.startswith("data error: " if code == EXIT_DATA
                                  else "numerical failure: X is rank deficient")
            assert not out.exists()
            errors.append(err)
    if constant:
        assert errors == [f"data error: {constant!r} is constant in the data file\n"] * 4


# float() reads every one of these tokens as a number
@pytest.mark.parametrize("field, token, problem", [
    ("model_year", "１８", "is not numeric"),  # full-width digits
    ("model_year", "١٨", "is not numeric"),  # Arabic-Indic digits
    ("model_year", "1_8", "is not numeric"),
    ("weight", "3_504.0", "is not numeric"),
    ("origin", "1e300", "is not an integer"),
    ("cylinders", "8.0", "is not an integer"),
    ("mpg", "-18.0", "is not positive"),
    ("cylinders", "-1", "is not positive"),
    ("displacement", "0.0", "is not positive"),
    ("weight", "-0.0", "is not positive"),
])
def test_token_outside_the_ascii_grammar_exits_two(tmp_path, capsys, reference_text,
                                                   field, token, problem):
    """Numeric tokens are ASCII, with no "_", and positive, and an
    integer field holds an integer token; every command names the line
    and the field."""
    data = tmp_path / "cars.data"
    data.write_text(_token(field, token)(parse_auto_mpg(reference_text).rows),
                    encoding="utf-8")
    for command in COMMANDS:
        out = tmp_path / command
        assert run_cli([command, "--data", str(data), "--out", str(out)]) == EXIT_DATA
        assert (f"line 1: field {field!r} {problem}: {token!r}"
                in capsys.readouterr().err), command
        assert not out.exists()


# --- huge and tiny columns: their squares overflow or underflow, but
# standardization and Pearson correlation are computed scale-safely

@pytest.mark.parametrize("k", [500, -560])
def test_column_times_power_of_two_gives_the_packaged_report(
        tmp_path, reference_text, dataset, regression_suite,
        classification_grid, k):
    """weight * 2^k is exact, so the report's regression and
    classification sections and its correlation block are the packaged
    file's, bit for bit."""
    data, out = tmp_path / "cars.data", tmp_path / "out"
    data.write_text(_scaled("weight", 2.0 ** k)(parse_auto_mpg(reference_text).rows),
                    encoding="utf-8")
    assert run_cli(["report", "--data", str(data), "--out", str(out),
                    "--format", "json"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["regression"] == json.loads(experiments.report_to_json(regression_suite))
    assert report["classification"] == json.loads(
        experiments.report_to_json(classification_grid))
    assert report["eda"]["correlation"] == dataset_correlations(dataset)


@pytest.mark.parametrize("field, factor", [
    ("weight", 1e200), ("weight", 2.0 ** -560), ("displacement", 1e155), ("mpg", 1e200),
], ids=["weight-1e200", "weight-2^-560", "displacement-1e155", "mpg-1e200"])
def test_huge_or_tiny_column_keeps_its_correlations(tmp_path, reference_text,
                                                    dataset, field, factor):
    """Overflowing squares once read every correlation of such a column
    as 0.0, and underflowing ones ended eda in a traceback."""
    data, out = tmp_path / "cars.data", tmp_path / "out"
    data.write_text(_scaled(field, factor)(parse_auto_mpg(reference_text).rows),
                    encoding="utf-8")
    assert run_cli(["eda", "--data", str(data), "--out", str(out),
                    "--format", "json"]) == EXIT_OK
    values = json.loads((out / "report.json").read_text())["eda"]["correlation"]["values"]
    np.testing.assert_allclose(values, dataset_correlations(dataset)["values"],
                               rtol=1e-12)


def test_huge_column_is_not_dropped_by_the_classifiers(tmp_path, reference_text,
                                                       classification_grid):
    """weight * 1e200 once standardized to zeros (its std overflowed), so
    every classifier trained without it; now it scores as the packaged
    file does."""
    data, out = tmp_path / "cars.data", tmp_path / "out"
    data.write_text(_scaled("weight", 1e200)(parse_auto_mpg(reference_text).rows),
                    encoding="utf-8")
    assert run_cli(["classify", "--data", str(data), "--out", str(out),
                    "--format", "json"]) == EXIT_OK
    table = json.loads((out / "report.json").read_text())["classification"]["table"]
    assert ([row["accuracy"] for row in table]
            == [row["accuracy"] for row in classification_grid["table"]])


@dataclasses.dataclass
class PackagedOutputs:
    """Each command's outputs on the packaged text, written to ``data``;
    the scaled files overwrite that file, so every report records the
    same data path."""
    data: Path
    outputs: dict = dataclasses.field(repr=False)


@pytest.fixture(scope="module")
def packaged_outputs(tmp_path_factory, reference_text):
    data = tmp_path_factory.mktemp("scaled") / "cars.data"
    data.write_text(reference_text, encoding="utf-8")
    outputs = {}
    for command in COMMANDS:
        out = data.parent / command
        assert run_cli([command, "--data", str(data), "--out", str(out)]) == EXIT_OK
        outputs[command] = _outputs(out)
    return PackagedOutputs(data, outputs)


def _outputs(out):
    """Each output file of ``out``: report.json parsed, the others as
    rows of comma-separated cells."""
    return {p.name: json.loads(p.read_text(encoding="utf-8")) if p.suffix == ".json"
            else [line.split(",") for line in p.read_text(encoding="utf-8").splitlines()]
            for p in out.iterdir()}


def _times_power_of_two(outputs, field, k, sha):
    """The packaged file's outputs as they must read on a file with
    ``field`` times 2^k, whose sha256 is ``sha``: the column's histogram
    edges and pairwise values are exactly 2^k times the packaged ones,
    written by the CSV writer's own format, and nothing else moves but
    the data checksum."""
    expected = json.loads(json.dumps(outputs))  # a deep copy
    report = expected["report.json"]
    if "provenance" in report:
        report["provenance"]["data_sha256"] = sha
        expected["report.md"] = [[cell.replace(DATA_SHA256, sha) for cell in row]
                                 for row in expected["report.md"]]
    if "eda" in report:
        edges = [math.ldexp(e, k) for e in report["eda"]["distributions"][field]["edges"]]
        values = [math.ldexp(v, k) for v in report["eda"]["pairwise"][field]]
        report["eda"]["distributions"][field]["edges"] = edges
        report["eda"]["pairwise"][field] = values
        bins = [row for row in expected["distributions.csv"] if row[0] == field]
        for row, left, right in zip(bins, edges[:-1], edges[1:], strict=True):
            row[1:3] = cli._fmt(left), cli._fmt(right)
        header, *rows = expected["pairwise.csv"]
        for row, value in zip(rows, values, strict=True):
            row[header.index(field)] = cli._fmt(value)
    return expected


@pytest.mark.slow
@settings(max_examples=4, deadline=None)
@given(st.sampled_from(FEATURE_NAMES), st.integers(min_value=-1000, max_value=1000))
def test_every_command_scales_with_a_column_times_a_power_of_two(
        packaged_outputs, reference_text, field, k):
    """A feature column times 2^k, written with repr: every command gives
    the packaged file's outputs, but for that column's histogram edges
    and pairwise values, exactly 2^k times the packaged ones.  The
    histograms, the pairwise block and the writers lie beyond the
    statistics' property test.  An integer field holds odd values, so
    at k < 0 the file is a data error that every command names."""
    data, outputs = packaged_outputs.data, packaged_outputs.outputs
    text = _scaled(field, 2.0 ** k)(parse_auto_mpg(reference_text).rows)
    data.write_text(text, encoding="utf-8")
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    integer = field in ("cylinders", "model_year", "origin")
    with tempfile.TemporaryDirectory() as work:
        for command in COMMANDS:
            out, err = Path(work) / command, io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli([command, "--data", str(data), "--out", str(out)])
            if integer and k < 0:
                assert code == EXIT_DATA, command
                assert f"field {field!r} is not an integer" in err.getvalue()
                assert not out.exists()
            else:
                assert code == EXIT_OK, (command, err.getvalue())
                assert _outputs(out) == _times_power_of_two(
                    outputs[command], field, k, sha), command


# numeric tokens that the grammar accepts: huge, tiny and subnormal
# numbers, and integers that are long, signed or zero-padded (an integer
# field takes only these; a number there is test_token_outside_...'s case)
HOSTILE_NUMBERS = ("1e308", "1e-308", "4.9e-324", "1e200", "1e-200")
HOSTILE_INTEGERS = ("123456789012345678901234567890", "99999999999999999999", "+3", "007")


def _hostile_token(field):
    """(line, field, token) draws for ``field``."""
    integer = field in ("cylinders", "model_year", "origin")
    return st.tuples(st.integers(min_value=0, max_value=397), st.just(field),
                     st.sampled_from(HOSTILE_INTEGERS if integer
                                     else HOSTILE_NUMBERS + HOSTILE_INTEGERS))


@pytest.mark.slow
@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(("mpg",) + FEATURE_NAMES).flatmap(_hostile_token),
                min_size=1, max_size=3))
def test_hostile_tokens_exit_cleanly(reference_text, changes):
    """Hostile tokens in 1-3 fields of the packaged file: every command
    exits 0, 2 or 3 and warns nothing, and a failed run names its cause
    and leaves no --out."""
    rows = parse_auto_mpg(reference_text).rows
    with tempfile.TemporaryDirectory() as work:
        data = Path(work) / "cars.data"
        data.write_text(_with_tokens(rows, changes), encoding="utf-8")
        for command in COMMANDS:
            out, err = Path(work) / command, io.StringIO()
            with (contextlib.redirect_stderr(err),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                code = run_cli([command, "--data", str(data), "--out", str(out)])
            assert [str(w.message) for w in caught] == [], command
            assert "Warning" not in err.getvalue(), command
            if code == EXIT_OK:
                assert (out / "report.json").exists(), command
            else:
                assert code in (EXIT_DATA, EXIT_NUMERICAL), (command, err.getvalue())
                assert err.getvalue().startswith(
                    "data error: " if code == EXIT_DATA else "numerical failure: "), command
                assert not out.exists(), command


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



@pytest.mark.parametrize("under_file", [False, True],
                         ids=["out-is-a-file", "out-under-a-file"])
def test_unusable_out_exits_one_and_leaves_the_file(tmp_path, capsys, under_file):
    blocker = tmp_path / "results"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / "sub" if under_file else blocker
    assert run_cli(["eda", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write outputs to {out}: ")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_failed_write_leaves_out_as_it_was(tmp_path, capsys):
    """report.md, the last file written, cannot replace a directory: no
    other output lands in --out, and no temporary directory is left."""
    out = tmp_path / "results"
    (out / "report.md").mkdir(parents=True)
    (out / "report.json").write_text("old\n", encoding="utf-8")

    def tree():
        return sorted((str(p.relative_to(tmp_path)), p.is_dir())
                      for p in tmp_path.rglob("*"))

    before = tree()
    assert run_cli(["eda", "--out", str(out)]) == EXIT_USAGE
    assert "Is a directory" in capsys.readouterr().err
    assert tree() == before
    assert (out / "report.json").read_text(encoding="utf-8") == "old\n"


def test_failed_staging_leaves_no_out(tmp_path, capsys, monkeypatch):
    """A write that fails while staging creates no --out directory."""
    def fail(report, out, fmt):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_files", fail)
    out = tmp_path / "out"
    assert run_cli(["eda", "--out", str(out)]) == EXIT_USAGE
    assert "disk full" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_staging_creates_no_parents(tmp_path, capsys, monkeypatch):
    """Staging happens in the nearest existing directory above --out;
    the missing parents are made only once every file is staged."""
    def fail(report, out, fmt):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_files", fail)
    out = tmp_path / "nest" / "a" / "out"
    assert run_cli(["eda", "--out", str(out)]) == EXIT_USAGE
    assert "disk full" in capsys.readouterr().err
    assert not (tmp_path / "nest").exists()
    assert list(tmp_path.iterdir()) == []


def test_out_with_missing_parents_is_created(tmp_path):
    out = tmp_path / "nest" / "a" / "out"
    assert run_cli(["eda", "--out", str(out), "--format", "json"]) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {"report.json"}
    assert list(tmp_path.iterdir()) == [tmp_path / "nest"]


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


# --- renderers (driven from the session fixtures, not a second
# expensive CLI run)

@pytest.fixture(scope="module")
def eda(protocol):
    return experiments.run_eda(experiments.ExperimentConfig(), protocol.dataset)


def test_regression_csvs_written(tmp_path, regression_suite):
    out = tmp_path / "reg"
    os.makedirs(out)
    _write_files({"regression": regression_suite}, str(out), "csv")
    names = {p.name for p in out.iterdir()}
    assert names == {"table3.csv", "true_vs_pred.csv", "residuals.csv",
                     "residual_hist.csv", "model_comparison.csv"}
    table3 = (out / "table3.csv").read_text().strip().split("\n")
    assert len(table3) == 8  # header + 7 model rows
    assert table3[0].startswith("model,mae,mse,rmse,r2,adj_r2")


def test_rendered_csv_and_markdown_bits_are_pinned(tmp_path, eda, regression_suite,
                                                  classification_grid):
    """sha256 over the sorted (name, bytes) of every CSV and report.md of
    the seed-1 suites, recorded from the per-suite CSV writers and the
    hand-built Markdown rows."""
    report = {"eda": eda, "regression": regression_suite,
              "classification": classification_grid}
    _write_files(report, str(tmp_path), "all")
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        if path.name != "report.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == (
        "d271c3a87668ba0c5645d4492de178df4ef0fb153570e7d48a07cb1e1e6ef67b")


@pytest.mark.parametrize("command", ["eda", "regress", "classify", "report"])
def test_formats_split_the_files_of_all(tmp_path, monkeypatch, eda, regression_suite,
                                        classification_grid, command):
    """--format json, csv and md together write exactly the files of
    --format all, with the same bytes (the suites are stubbed)."""
    monkeypatch.setattr(cli, "run_eda", lambda config: eda)
    monkeypatch.setattr(cli, "run_regression_suite", lambda config: regression_suite)
    monkeypatch.setattr(cli, "run_classification_grid",
                        lambda config: classification_grid)
    monkeypatch.setattr(cli, "run_full_report", lambda config: {
        "eda": eda, "regression": regression_suite,
        "classification": classification_grid})

    def files(fmt):
        out = tmp_path / fmt
        assert run_cli([command, "--out", str(out), "--format", fmt]) == EXIT_OK
        return {p.name: p.read_bytes() for p in out.iterdir()}

    parts, whole = [files(fmt) for fmt in ("json", "csv", "md")], files("all")
    assert sum(len(p) for p in parts) == len(whole)
    assert {k: v for p in parts for k, v in p.items()} == whole


# --- config files

def test_config_keys_are_the_config_fields():
    # every setting of a run can come from a config file; nothing else is one
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    assert set(cli._CONFIG_KEYS) == fields


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
