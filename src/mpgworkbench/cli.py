"""Command-line front end.

Subcommands map to the workbench's artifacts:

* ``eda``            correlation matrix + feature distributions
* ``regress``        regression comparison table + diagnostic figure data
* ``classify``       classification grid, ROC data, class-wise summaries
* ``report``         everything above in one run
* ``validate-data``  structural checks + checksum of a data file

Outputs are written under ``--out``: a canonical JSON report, one CSV per
table, and a Markdown rendering.  Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import shutil
import sys
import tempfile

import numpy as np

from .experiments import ExperimentConfig, report_to_json, run_classification_grid, run_eda, run_full_report, run_regression_suite
from .ingest import (DATA_SHA256, DataError, ParseError, parse_auto_mpg,
                     read_data_file, reference_data_path)
from .kernelmod import SmoError
from .linmod import ConvergenceError
from .numcore import NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# every run setting, with the type that parses it from a config file
# (str for data_path, whose default is None)
_CONFIG_KEYS = {f.name: str if f.default is None else type(f.default)
                for f in dataclasses.fields(ExperimentConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _eda_csvs(eda: dict, out: str) -> None:
    labels = eda["correlation"]["labels"]
    _write_csv(os.path.join(out, "correlation.csv"),
               ["feature"] + labels,
               [[lab] + list(row)
                for lab, row in zip(labels, eda["correlation"]["values"])])
    dist_rows = []
    for name, h in sorted(eda["distributions"].items()):
        for i, count in enumerate(h["counts"]):
            dist_rows.append([name, h["edges"][i], h["edges"][i + 1], count])
    _write_csv(os.path.join(out, "distributions.csv"),
               ["feature", "bin_left", "bin_right", "count"], dist_rows)
    names = sorted(eda["pairwise"])
    columns = [eda["pairwise"][n] for n in names]
    _write_csv(os.path.join(out, "pairwise.csv"), names,
               [list(row) for row in zip(*columns)])


def _regression_csvs(reg: dict, out: str) -> None:
    _write_csv(os.path.join(out, "table3.csv"),
               ["model", "mae", "mse", "rmse", "r2", "adj_r2", "cv_mean_r2"],
               [[r["model"], r["mae"], r["mse"], r["rmse"], r["r2"],
                 r["adj_r2"], r["cv_mean_r2"]] for r in reg["table"]])
    fig = reg["figure_data"]
    _write_csv(os.path.join(out, "true_vs_pred.csv"), ["y_true", "y_pred"],
               fig["true_vs_pred"])
    _write_csv(os.path.join(out, "residuals.csv"), ["y_pred", "residual"],
               fig["pred_vs_residual"])
    h = fig["residual_histogram"]
    _write_csv(os.path.join(out, "residual_hist.csv"),
               ["bin_left", "bin_right", "count"],
               [[h["edges"][i], h["edges"][i + 1], c]
                for i, c in enumerate(h["counts"])])
    _write_csv(os.path.join(out, "model_comparison.csv"), ["model", "r2"],
               [[r["model"], r["r2"]] for r in fig["model_comparison"]])


def _classification_csvs(clf: dict, out: str) -> None:
    _write_csv(os.path.join(out, "table4.csv"),
               ["model", "C", "accuracy",
                "class0_precision", "class0_recall", "class0_f1",
                "class1_precision", "class1_recall", "class1_f1"],
               [[r["model"], r["C"], r["accuracy"],
                 r["class0"]["precision"], r["class0"]["recall"], r["class0"]["f1"],
                 r["class1"]["precision"], r["class1"]["recall"], r["class1"]["f1"]]
                for r in clf["table"]])
    for table_name, cls in (("table5.csv", "class0"), ("table6.csv", "class1")):
        _write_csv(os.path.join(out, table_name),
                   ["model", "precision", "recall", "f1"],
                   [[r["model"], r["precision"], r["recall"], r["f1"]]
                    for r in clf["class_summaries"][cls]])
    for key, curve in sorted(clf["roc"].items()):
        _write_csv(os.path.join(out, f"roc_{key}.csv"),
                   ["fpr", "tpr", "threshold"],
                   [[p[0], p[1], t] for p, t in
                    zip(curve["points"], curve["thresholds"])])


def _markdown(report: dict) -> str:
    lines = ["# Auto MPG workbench report", ""]
    prov = report.get("provenance")
    if prov:
        path = prov["config"]["data_path"]
        data = "packaged reference file" if path is None else f"`{path}`"
        lines += [f"- data: {data}",
                  f"- data sha256: `{prov['data_sha256']}`",
                  f"- seed: {prov['config']['seed']}",
                  f"- train/test: {prov['n_train']}/{prov['n_test']}", ""]
    reg = report.get("regression")
    if reg:
        lines += ["## Regression comparison", "",
                  "| Model | MAE | MSE | RMSE | R2 | Adj R2 | CV |",
                  "|---|---|---|---|---|---|---|"]
        for r in reg["table"]:
            cv = "" if r["cv_mean_r2"] is None else f"{r['cv_mean_r2']:.3f}"
            lines.append(
                f"| {r['model']} | {r['mae']:.3f} | {r['mse']:.3f} "
                f"| {r['rmse']:.3f} | {r['r2']:.3f} | {r['adj_r2']:.3f} | {cv} |")
        lines.append("")
    clf = report.get("classification")
    if clf:
        lines += ["## Classification grid", "",
                  "| Model | Accuracy | C0 P | C0 R | C0 F1 | C1 P | C1 R | C1 F1 |",
                  "|---|---|---|---|---|---|---|---|"]
        for r in clf["table"]:
            c0, c1 = r["class0"], r["class1"]
            lines.append(
                f"| {r['model']} | {r['accuracy']:.3f} "
                f"| {c0['precision']:.3f} | {c0['recall']:.3f} | {c0['f1']:.3f} "
                f"| {c1['precision']:.3f} | {c1['recall']:.3f} | {c1['f1']:.3f} |")
        lines += ["", "### ROC AUC", ""]
        for key, curve in sorted(clf["roc"].items()):
            lines.append(f"- {key}: AUC = {curve['auc']:.3f}")
        lines.append("")
    return "\n".join(lines) + "\n"


def _load_config_file(path: str) -> dict:
    """Flat key=value format; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"config line {line_no}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](value.strip())
    return values


def _build_config(args) -> ExperimentConfig:
    """Config file values, overridden by --data (or MPGW_DATA) and the
    other flags; each flag's dest is its config field."""
    values = _load_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return ExperimentConfig(**values)


def _validate_data(path: str) -> int:
    text, checksum = read_data_file(path)
    table = parse_auto_mpg(text)
    missing_rows = [i for i, r in enumerate(table.rows) if r.horsepower is None]
    print(f"file: {path}")
    print(f"rows: {len(table)}")
    print("fields per row: 9 (8 numeric + car name)")
    print(f"missing horsepower rows: {len(missing_rows)} at {missing_rows}")
    match = "matches" if checksum == DATA_SHA256 else "differs from"
    print(f"sha256: {checksum} ({match} the packaged reference file)")
    return EXIT_OK


def _run(args) -> int:
    if args.command == "validate-data":
        return _validate_data(args.data_path or reference_data_path())
    config = _build_config(args)
    # compute fully in memory before writing anything, so a failure
    # leaves no partial files behind
    if args.command == "report":
        report = run_full_report(config)
    elif args.command == "eda":
        report = {"eda": run_eda(config)}
    elif args.command == "regress":
        report = {"regression": run_regression_suite(config)}
    else:  # classify
        report = {"classification": run_classification_grid(config)}
    report.setdefault("config", config.to_dict())
    try:
        _write_outputs(report, args.out, args.format)
    except OSError as exc:  # an unusable --out; unreadable --data exits 2
        print(f"error: cannot write outputs to {args.out}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _write_outputs(report: dict, out: str, fmt: str) -> None:
    """Write every output into a temporary directory next to ``out``,
    then create ``out`` and move them into it; a failure leaves ``out``
    as it was, or absent."""
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".mpgw-", dir=parent)
    try:
        _write_files(report, staging, fmt)
        names = sorted(os.listdir(staging))
        for name in names:  # os.replace would fail on these midway
            if os.path.isdir(os.path.join(out, name)):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        os.path.join(out, name))
        os.makedirs(out, exist_ok=True)
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(out, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_files(report: dict, out: str, fmt: str) -> None:
    if fmt in ("json", "all"):
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(report_to_json(report) + "\n")
    if fmt in ("csv", "all"):
        if "eda" in report:
            _eda_csvs(report["eda"], out)
        if "regression" in report:
            _regression_csvs(report["regression"], out)
        if "classification" in report:
            _classification_csvs(report["classification"], out)
    if fmt in ("md", "all"):
        with open(os.path.join(out, "report.md"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(_markdown(report))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mpgw", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # an empty --data or MPGW_DATA counts as not given
    env_data = os.environ.get("MPGW_DATA") or None
    for name in ("eda", "regress", "classify", "report", "validate-data"):
        p = sub.add_parser(name)
        p.add_argument("--data", dest="data_path", default=env_data,
                       type=lambda path: path or env_data,
                       help="data file path (default: MPGW_DATA env var, "
                            "then the packaged file)")
        if name == "validate-data":
            continue
        p.add_argument("--out", default="results",
                       help="output directory (default: results)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--split", dest="split_ratio", type=float, default=None,
                       help="training fraction, e.g. 0.7")
        p.add_argument("--threshold", dest="threshold_mpg", type=float,
                       default=None, help="high-efficiency mpg threshold")
        p.add_argument("--folds", dest="cv_folds", type=int, default=None,
                       help="cross-validation folds")
        p.add_argument("--format", choices=("json", "csv", "md", "all"),
                       default="all")
        p.add_argument("--config", help="flat key=value config file; "
                                        "flags override file values")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError,
            UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParseError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, ConvergenceError, SmoError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        viol = getattr(exc, "max_violation", None)
        steps = getattr(exc, "iterations", None)
        detail = "" if viol is None else f"; max KKT violation {viol}"
        detail += "" if steps is None else f"; SMO steps {steps}"
        print(f"numerical failure: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
