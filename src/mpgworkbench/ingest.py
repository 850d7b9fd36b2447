"""Auto MPG data ingestion: parsing, median imputation, dataset assembly.

The reference file is the public 398-row auto-mpg table (StatLib / UCI
layout): eight whitespace-separated numeric fields per line, where only
horsepower may carry the missing marker "?", followed by a double-quoted
car name.  A copy ships with the package; its SHA-256 is pinned below.
"""

from __future__ import annotations

import hashlib
import importlib.resources
from dataclasses import dataclass, replace

import numpy as np

#: Modeling feature columns, in fixed order (mpg and car_name excluded).
FEATURE_NAMES = (
    "cylinders",
    "displacement",
    "horsepower",
    "weight",
    "acceleration",
    "model_year",
    "origin",
)

#: SHA-256 of the packaged reference data file.
DATA_SHA256 = "f228bbee9ef0fdca49ce08ff1b9ce2bf979251b66a23e4f702bc0a09634686f9"

#: Default threshold (mpg) separating high- from low-efficiency vehicles.
DEFAULT_THRESHOLD_MPG = 25.0


class ParseError(ValueError):
    """Raised when the data file does not match the expected layout."""


class DataError(ValueError):
    """Raised for semantically invalid data (e.g. residual missing values)."""


@dataclass(frozen=True)
class RawRecord:
    """One parsed data row.  horsepower is None when the source had '?'."""

    mpg: float
    cylinders: int
    displacement: float
    horsepower: float | None
    weight: float
    acceleration: float
    model_year: int
    origin: int
    car_name: str


@dataclass(frozen=True)
class RawTable:
    rows: tuple[RawRecord, ...]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Dataset:
    """Fully numeric feature table with continuous target and binary label."""

    X: np.ndarray  # (n, 7) float
    y: np.ndarray  # (n,) float, mpg
    label: np.ndarray  # (n,) int, 1 iff y >= threshold
    column_names: tuple[str, ...]
    threshold_mpg: float


def reference_data_path() -> str:
    """Filesystem path of the packaged reference data file."""
    return str(importlib.resources.files("mpgworkbench").joinpath("data/auto-mpg.data"))


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parse_number(token: str, line_no: int, field: str, want_int: bool):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"line {line_no}: field '{field}' is not numeric: {token!r}"
        ) from None
    if want_int:
        if value != int(value):
            raise ParseError(f"line {line_no}: field '{field}' is not an integer: {token!r}")
        return int(value)
    return value


def parse_auto_mpg(text: str) -> RawTable:
    """Parse full file contents into a RawTable, preserving row order.

    Only the horsepower field may be the missing marker "?"; any other
    malformed field raises ParseError naming the line and field.
    """
    field_names = ("mpg",) + FEATURE_NAMES
    int_fields = {"cylinders", "model_year", "origin"}
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if '"' in line:
            numeric_part, _, name_part = line.partition('"')
            car_name = name_part.rstrip().rstrip('"')
        else:
            raise ParseError(f"line {line_no}: missing quoted car-name field")
        tokens = numeric_part.split()
        if len(tokens) != 8:
            raise ParseError(
                f"line {line_no}: expected 8 numeric fields, found {len(tokens)}"
            )
        values = {}
        for field, token in zip(field_names, tokens):
            if token == "?":
                if field != "horsepower":
                    raise ParseError(
                        f"line {line_no}: missing marker '?' not allowed in field '{field}'"
                    )
                values[field] = None
            else:
                values[field] = _parse_number(token, line_no, field, field in int_fields)
        rows.append(RawRecord(car_name=car_name, **values))
    if not rows:
        raise ParseError("empty input: no data rows found")
    return RawTable(rows=tuple(rows))


def serialize_raw_table(table: RawTable) -> str:
    """Re-emit a RawTable in the parseable file layout (round-trips)."""
    lines = []
    for r in table.rows:
        hp = "?" if r.horsepower is None else f"{r.horsepower:.1f}"
        fields = [
            f"{r.mpg:.1f}", str(r.cylinders), f"{r.displacement:.1f}", hp,
            f"{r.weight:.1f}", f"{r.acceleration:.1f}", str(r.model_year),
            str(r.origin),
        ]
        lines.append("   ".join(fields) + '\t"' + r.car_name + '"')
    return "\n".join(lines) + "\n"


def horsepower_median(table: RawTable) -> float:
    """Median of the non-missing horsepower values (even count: mean of
    the two central order statistics)."""
    values = sorted(r.horsepower for r in table.rows if r.horsepower is not None)
    if not values:
        raise DataError("all horsepower values are missing; cannot impute")
    n = len(values)
    if n % 2 == 1:
        return float(values[n // 2])
    return (values[n // 2 - 1] + values[n // 2]) / 2.0


def impute_horsepower_median(table: RawTable) -> RawTable:
    """Replace missing horsepower values with the column median.

    Non-missing values are untouched; idempotent; row order preserved.
    """
    median = horsepower_median(table)
    rows = tuple(
        replace(r, horsepower=median) if r.horsepower is None else r
        for r in table.rows
    )
    return RawTable(rows=rows)


def build_dataset(table: RawTable, threshold_mpg: float = DEFAULT_THRESHOLD_MPG) -> Dataset:
    """Assemble the numeric dataset and attach the binary efficiency label.

    label[i] = 1 iff mpg >= threshold (boundary inclusive).
    """
    if threshold_mpg <= 0:
        raise DataError(f"threshold_mpg must be positive, got {threshold_mpg}")
    for i, r in enumerate(table.rows):
        if r.horsepower is None:
            raise DataError(f"row {i}: residual missing horsepower; impute first")
    X = np.array(
        [
            [r.cylinders, r.displacement, r.horsepower, r.weight,
             r.acceleration, r.model_year, r.origin]
            for r in table.rows
        ],
        dtype=float,
    )
    y = np.array([r.mpg for r in table.rows], dtype=float)
    label = (y >= threshold_mpg).astype(int)
    return Dataset(X=X, y=y, label=label, column_names=FEATURE_NAMES,
                   threshold_mpg=threshold_mpg)


def load_dataset(path: str, threshold_mpg: float = DEFAULT_THRESHOLD_MPG) -> Dataset:
    """Parse, impute and assemble in one step from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return build_dataset(impute_horsepower_median(parse_auto_mpg(text)), threshold_mpg)
