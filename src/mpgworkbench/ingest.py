"""Auto MPG data ingestion: parsing, median imputation, dataset assembly.

The reference file is the public 398-row auto-mpg table (StatLib / UCI
layout): eight whitespace-separated numeric fields per line, where only
horsepower may carry the missing marker "?", followed by a double-quoted
car name.  A copy ships with the package; its SHA-256 is pinned below.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import math
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
    """Fully numeric feature table with continuous target."""

    X: np.ndarray  # (n, 7) float
    y: np.ndarray  # (n,) float, mpg
    column_names: tuple[str, ...]
    sha256: str | None = None  # of the file's bytes, when loaded from one


def reference_data_path() -> str:
    """Filesystem path of the packaged reference data file."""
    return str(importlib.resources.files("mpgworkbench").joinpath("data/auto-mpg.data"))


def read_data_file(path: str) -> tuple[str, str]:
    """The file's text and the SHA-256 of the bytes it was decoded from."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw.decode("utf-8"), hashlib.sha256(raw).hexdigest()


def _parse_number(token: str, line_no: int, field: str, want_int: bool):
    """An ASCII decimal token; an integer field takes an optional sign and
    ASCII digits only.  float() alone would also read non-ASCII digits
    and "_" separators, and int(float(token)) any integral float."""
    try:
        if not token.isascii() or "_" in token:
            raise ValueError
        value = float(token)
    except ValueError:
        raise ParseError(
            f"line {line_no}: field '{field}' is not numeric: {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"line {line_no}: field '{field}' is not finite: {token!r}")
    if want_int:
        if not token.lstrip("+-").isdigit():
            raise ParseError(f"line {line_no}: field '{field}' is not an integer: {token!r}")
        return int(token)
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


def build_dataset(table: RawTable) -> Dataset:
    """Assemble the numeric dataset: features X and target mpg y."""
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
    return Dataset(X=X, y=y, column_names=FEATURE_NAMES)


def require_varying(X: np.ndarray, y: np.ndarray, where: str) -> None:
    """Raise DataError naming the first feature column of X, then mpg (y),
    whose values are all equal; ``where`` names the rows."""
    for M, names in ((X, FEATURE_NAMES), (y[:, None], ("mpg",))):
        constant = np.flatnonzero(M.min(axis=0) == M.max(axis=0))
        if constant.size:
            raise DataError(f"{names[constant[0]]!r} is constant in {where}")


def load_dataset(path: str) -> Dataset:
    """Parse, impute and assemble in one step from one read of a file;
    the Dataset carries the SHA-256 of the bytes it was parsed from.  A
    feature or mpg constant in the whole file is a DataError."""
    text, sha256 = read_data_file(path)
    dataset = build_dataset(impute_horsepower_median(parse_auto_mpg(text)))
    require_varying(dataset.X, dataset.y, "the data file")
    return replace(dataset, sha256=sha256)
