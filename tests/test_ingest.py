"""Parsing, imputation and dataset assembly against hand-computed oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpgworkbench.ingest import (DataError, ParseError, RawRecord, RawTable,
                                 build_dataset, horsepower_median,
                                 impute_horsepower_median, load_dataset,
                                 parse_auto_mpg,
                                 reference_data_path, serialize_raw_table,
                                 DATA_SHA256, FEATURE_NAMES)

GOOD_LINE = '18.0   8   307.0   130.0   3504.0   12.0   70   1\t"chevrolet chevelle malibu"'
MISSING_HP_LINE = '25.0 4 98.0 ? 2046. 19.0 71 1 "ford pinto"'


def make_record(mpg=20.0, horsepower=100.0, name="car"):
    return RawRecord(mpg=mpg, cylinders=4, displacement=100.0,
                     horsepower=horsepower, weight=2000.0, acceleration=15.0,
                     model_year=75, origin=1, car_name=name)


# --- parse_auto_mpg

def test_reference_file_has_398_rows(raw_table):
    assert len(raw_table) == 398


def test_packaged_file_checksum_matches():
    assert load_dataset(reference_data_path()).sha256 == DATA_SHA256


def test_missing_horsepower_marker_maps_to_none():
    table = parse_auto_mpg(MISSING_HP_LINE)
    row = table.rows[0]
    assert row.horsepower is None
    assert row.mpg == 25.0
    assert row.car_name == "ford pinto"


def test_good_line_fields():
    row = parse_auto_mpg(GOOD_LINE).rows[0]
    assert (row.mpg, row.cylinders, row.displacement) == (18.0, 8, 307.0)
    assert (row.weight, row.acceleration, row.model_year, row.origin) == (
        3504.0, 12.0, 70, 1)
    assert row.car_name == "chevrolet chevelle malibu"


def test_wrong_field_count_names_line_number():
    text = GOOD_LINE + "\n" + '18.0 8 307.0 130.0 3504.0 12.0 70 "short"'
    with pytest.raises(ParseError, match="line 2"):
        parse_auto_mpg(text)


def test_missing_marker_outside_horsepower_rejected():
    bad = GOOD_LINE.replace("3504.0", "?")
    with pytest.raises(ParseError, match="weight"):
        parse_auto_mpg(bad)


def test_non_numeric_field_names_line_and_field():
    bad = GOOD_LINE.replace("307.0", "abc")
    with pytest.raises(ParseError, match="displacement"):
        parse_auto_mpg(bad)


@pytest.mark.parametrize("old, token, field", [
    (" 8 ", " inf ", "cylinders"), ("3504.0", "nan", "weight"),
    ("18.0", "-inf", "mpg"), (" 70 ", " NaN ", "model_year"),
    ("12.0", "Infinity", "acceleration")])
def test_non_finite_field_names_line_and_field(old, token, field):
    """float() parses these tokens; an integer field would then overflow in
    int(), and a NaN would pass every later min == max check."""
    bad = GOOD_LINE.replace(old, token, 1)
    with pytest.raises(ParseError,
                       match=f"line 1: field '{field}' is not finite"):
        parse_auto_mpg(bad)


def test_empty_input_rejected():
    with pytest.raises(ParseError, match="empty"):
        parse_auto_mpg("\n\n")


def test_missing_car_name_rejected():
    with pytest.raises(ParseError, match="car-name"):
        parse_auto_mpg("18.0 8 307.0 130.0 3504.0 12.0 70 1")


def test_parse_serialize_round_trip(raw_table):
    assert parse_auto_mpg(serialize_raw_table(raw_table)) == raw_table


# --- impute_horsepower_median

def test_median_imputation_even_count():
    table = RawTable(rows=(make_record(horsepower=2.0),
                           make_record(horsepower=None),
                           make_record(horsepower=4.0)))
    imputed = impute_horsepower_median(table)
    assert [r.horsepower for r in imputed.rows] == [2.0, 3.0, 4.0]


def test_imputation_without_missing_is_identity():
    table = RawTable(rows=(make_record(horsepower=88.0),
                           make_record(horsepower=99.0)))
    assert impute_horsepower_median(table) == table


def test_imputation_idempotent(raw_table):
    once = impute_horsepower_median(raw_table)
    assert impute_horsepower_median(once) == once


def test_reference_median_matches_sort_oracle(raw_table):
    values = np.sort([r.horsepower for r in raw_table.rows
                      if r.horsepower is not None])
    n = values.size
    oracle = (values[(n - 1) // 2] + values[n // 2]) / 2.0
    assert horsepower_median(raw_table) == oracle
    imputed = impute_horsepower_median(raw_table)
    touched = [r.horsepower for orig, r in zip(raw_table.rows, imputed.rows)
               if orig.horsepower is None]
    assert touched and all(v == oracle for v in touched)


def test_imputation_changes_only_missing_horsepower(raw_table):
    imputed = impute_horsepower_median(raw_table)
    for orig, new in zip(raw_table.rows, imputed.rows):
        if orig.horsepower is None:
            assert new.horsepower is not None
            assert (orig.mpg, orig.weight, orig.car_name) == (
                new.mpg, new.weight, new.car_name)
        else:
            assert orig == new


def test_all_missing_rejected():
    table = RawTable(rows=(make_record(horsepower=None),))
    with pytest.raises(DataError):
        horsepower_median(table)


# --- build_dataset

def test_threshold_boundary_inclusive():
    table = RawTable(rows=(make_record(mpg=25.0), make_record(mpg=24.9)))
    ds = build_dataset(table, 25.0)
    assert ds.label.tolist() == [1, 0]


def test_class_counts_match_counting_oracle(raw_table, dataset):
    oracle = sum(1 for r in raw_table.rows if r.mpg >= 25.0)
    assert int(dataset.label.sum()) == oracle
    assert dataset.label.size == len(raw_table)


def test_residual_missing_rejected():
    table = RawTable(rows=(make_record(horsepower=None),))
    with pytest.raises(DataError, match="impute"):
        build_dataset(table)


def test_nonpositive_threshold_rejected():
    table = RawTable(rows=(make_record(),))
    with pytest.raises(DataError):
        build_dataset(table, 0.0)


@pytest.mark.parametrize("field, value", [("cylinders", 4), ("acceleration", 12.3),
                                          ("mpg", 17.3)])
def test_load_rejects_a_constant_column(tmp_path, raw_table, field, value):
    """min == max, not std == 0: a column of 12.3 has a std of ~1e-15."""
    path = tmp_path / "cars.data"
    path.write_text(serialize_raw_table(RawTable(rows=tuple(
        replace(r, **{field: value}) for r in raw_table.rows))), encoding="utf-8")
    with pytest.raises(DataError, match=f"^'{field}' is constant in the data file$"):
        load_dataset(str(path))


def test_dataset_invariants(dataset):
    assert dataset.X.shape == (398, 7)
    assert np.isfinite(dataset.X).all()
    assert dataset.column_names == FEATURE_NAMES
    cyl = dataset.X[:, 0]
    assert set(np.unique(cyl)) <= {3.0, 4.0, 5.0, 6.0, 8.0}
    origin = dataset.X[:, 6]
    assert set(np.unique(origin)) <= {1.0, 2.0, 3.0}
    year = dataset.X[:, 5]
    assert year.min() >= 70 and year.max() <= 82
    np.testing.assert_array_equal(dataset.label, dataset.y >= 25.0)


@given(st.lists(st.floats(min_value=0.1, max_value=60.0), min_size=2, max_size=20),
       st.floats(min_value=5.0, max_value=50.0))
def test_label_is_pure_function_of_mpg(mpgs, threshold):
    table = RawTable(rows=tuple(make_record(mpg=m) for m in mpgs))
    forward = build_dataset(table, threshold).label
    reversed_ = build_dataset(RawTable(rows=table.rows[::-1]), threshold).label
    np.testing.assert_array_equal(forward[::-1], reversed_)
