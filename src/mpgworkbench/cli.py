"""Command-line front end.

Subcommands map to the workbench's artifacts:

* ``eda``            correlation matrix + feature distributions
* ``regress``        regression comparison table + diagnostic figure data
* ``classify``       classification grid, ROC data, class-wise summaries
* ``report``         everything above in one run
* ``validate-data``  structural checks + checksum of a data file

Outputs are written under ``--out``: a canonical JSON report, one CSV per
table, and a Markdown rendering.  The phase a failure comes from picks
its exit code:

  0  success
  1  usage: parsing the flags, reading --config, checking the run
     settings; and writing --out
  2  data: any other ValueError or OSError while reading the data file
     or computing on it (a missing or malformed file, a constant column,
     too few rows for the split, the folds or a model); and MemoryError
     while computing (a file too large for this machine)
  3  numerical: NumericalError (SmoError, ConvergenceError, a singular
     system), LinAlgError or FloatingPointError (non-finite output)
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

from .experiments import (ExperimentConfig, report_to_json,
                          run_classification_grid, run_eda, run_full_report,
                          run_regression_suite)
from .ingest import (DATA_SHA256, parse_auto_mpg, read_data_file,
                     reference_data_path)
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


def _fmt(value, places: int = 6) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{places}f}"
    return str(value)


def _bins(h: dict) -> list:
    return [[h["edges"][i], h["edges"][i + 1], c] for i, c in enumerate(h["counts"])]


_PRF = ["precision", "recall", "f1"]


def _csv_tables(report: dict):
    """(file name, header, rows) of every CSV table the report holds."""
    eda = report.get("eda")
    if eda:
        labels = eda["correlation"]["labels"]
        yield ("correlation.csv", ["feature", *labels],
               [[lab, *row] for lab, row in zip(labels, eda["correlation"]["values"])])
        yield ("distributions.csv", ["feature", "bin_left", "bin_right", "count"],
               [[name, *b] for name, h in sorted(eda["distributions"].items())
                for b in _bins(h)])
        names = sorted(eda["pairwise"])
        yield "pairwise.csv", names, list(zip(*(eda["pairwise"][n] for n in names)))
    reg = report.get("regression")
    if reg:
        cols = ["model", "mae", "mse", "rmse", "r2", "adj_r2", "cv_mean_r2"]
        yield "table3.csv", cols, [[r[k] for k in cols] for r in reg["table"]]
        fig = reg["figure_data"]
        yield "true_vs_pred.csv", ["y_true", "y_pred"], fig["true_vs_pred"]
        yield "residuals.csv", ["y_pred", "residual"], fig["pred_vs_residual"]
        yield ("residual_hist.csv", ["bin_left", "bin_right", "count"],
               _bins(fig["residual_histogram"]))
        yield ("model_comparison.csv", ["model", "r2"],
               [[r["model"], r["r2"]] for r in fig["model_comparison"]])
    clf = report.get("classification")
    if clf:
        yield ("table4.csv",
               ["model", "C", "accuracy", *(f"class{c}_{m}" for c in (0, 1) for m in _PRF)],
               [[r["model"], r["C"], r["accuracy"],
                 *(r[f"class{c}"][m] for c in (0, 1) for m in _PRF)] for r in clf["table"]])
        for name, cls in (("table5.csv", "class0"), ("table6.csv", "class1")):
            yield (name, ["model", *_PRF],
                   [[r["model"], *(r[m] for m in _PRF)] for r in clf["class_summaries"][cls]])
        for key, curve in sorted(clf["roc"].items()):
            yield (f"roc_{key}.csv", ["fpr", "tpr", "threshold"],
                   [[*p, t] for p, t in zip(curve["points"], curve["thresholds"])])


def _md_table(header: list, rows) -> list:
    return ["| " + " | ".join(header) + " |", "|" + "---|" * len(header),
            *("| " + " | ".join(_fmt(v, 3) for v in row) + " |" for row in rows)]


def _markdown(report: dict) -> str:
    tables = {name: rows for name, _, rows in _csv_tables(report)}
    lines = ["# Auto MPG workbench report", ""]
    prov = report.get("provenance")
    if prov:
        path = prov["config"]["data_path"]
        data = "packaged reference file" if path is None else f"`{path}`"
        lines += [f"- data: {data}",
                  f"- data sha256: `{prov['data_sha256']}`",
                  f"- seed: {prov['config']['seed']}",
                  f"- train/test: {prov['n_train']}/{prov['n_test']}", ""]
    if "table3.csv" in tables:
        lines += ["## Regression comparison", "",
                  *_md_table(["Model", "MAE", "MSE", "RMSE", "R2", "Adj R2", "CV"],
                             tables["table3.csv"]), ""]
    if "table4.csv" in tables:
        lines += ["## Classification grid", "",
                  *_md_table(["Model", "Accuracy", "C0 P", "C0 R", "C0 F1",
                              "C1 P", "C1 R", "C1 F1"],
                             ([model, *scores] for model, _, *scores in tables["table4.csv"])),
                  "", "### ROC AUC", "",
                  *(f"- {key}: AUC = {curve['auc']:.3f}"
                    for key, curve in sorted(report["classification"]["roc"].items())), ""]
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
            try:
                values[key] = _CONFIG_KEYS[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"config line {line_no}: key {key!r}: {exc}") from None
    if values.get("data_path") == "":  # not given, like an empty --data
        del values["data_path"]
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


# each command's report (looked up when it runs)
_REPORTS = {"report": lambda config: run_full_report(config),
            "eda": lambda config: {"eda": run_eda(config)},
            "regress": lambda config: {"regression": run_regression_suite(config)},
            "classify": lambda config: {"classification": run_classification_grid(config)}}


def _non_finite(v, path="report"):
    """Path of the first non-finite float in a report, in sorted key order."""
    if isinstance(v, (dict, list, tuple)):
        items = sorted(v.items()) if isinstance(v, dict) else enumerate(v)
        return next(filter(None, (_non_finite(x, f"{path}.{k}") for k, x in items)), None)
    return path if isinstance(v, float) and not np.isfinite(v) else None


def _write_outputs(report: dict, out: str, fmt: str) -> None:
    """Write every output into a temporary directory in the nearest
    existing directory above ``out``, then create ``out`` with its
    missing parents and move them into it; a failure leaves ``out`` as
    it was, or absent, and creates no parent."""
    parent = os.path.dirname(os.path.abspath(out))
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
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
    files = {}
    if fmt in ("json", "all"):
        files["report.json"] = report_to_json(report) + "\n"
    if fmt in ("csv", "all"):
        for name, header, rows in _csv_tables(report):
            files[name] = "".join(",".join(_fmt(v) for v in row) + "\n"
                                  for row in [header, *rows])
    if fmt in ("md", "all"):
        files["report.md"] = _markdown(report)
    for name, text in files.items():
        with open(os.path.join(out, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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
    """Run one command; the phase a failure comes from picks its exit
    code (see the module docstring)."""
    try:
        args = build_parser().parse_args(argv)
        config = None if args.command == "validate-data" else _build_config(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # compute fully in memory before writing anything, so a failure
    # leaves no partial files behind
    try:
        if config is None:
            return _validate_data(args.data_path or reference_data_path())
        report = _REPORTS[args.command](config)
        report.setdefault("config", config.to_dict())
        if bad := _non_finite(report):  # report.json cannot hold it
            raise FloatingPointError(f"non-finite value at {bad}")
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # before ValueError, which LinAlgError subclasses
        viol = getattr(exc, "max_violation", None)
        steps = getattr(exc, "iterations", None)
        last = getattr(exc, "last_iterate", None)  # (coefficients, intercept)
        detail = "" if viol is None else f"; max KKT violation {viol}"
        detail += "" if steps is None else f"; SMO steps {steps}"
        detail += "" if last is None else (
            f"; last iterate intercept {float(last[1])}, max |coefficient| "
            f"{float(np.abs(last[0]).max(initial=0.0))}")
        print(f"numerical failure: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a data file too large for this machine
        print(f"data error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_DATA
    try:
        _write_outputs(report, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
