"""Tests for the core series model: parsing, conversion, gaps, day views."""

import math
from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meterfill import (
    EnergySeries,
    ImputationError,
    MeterKind,
    ParseConfig,
    ParseError,
    PowerSeries,
    ValidationError,
    energy_to_power,
    parse_series,
    power_to_energy,
)
from meterfill import cpi, gapgen
from meterfill import series as series_module
from meterfill.baselines import BASELINES
from meterfill.series import day_partition, detect_gaps, fill_energy_from_power, format_series

import csv_oracle
import paste_oracle
import plan_oracle
from conftest import HOUR, MONDAY, QUARTER_HOUR, day_profile_series, energy, power, with_missing


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_energy_series_requires_a_present_value():
    with pytest.raises(ValidationError, match="at least one present"):
        energy([np.nan, np.nan])


def test_consumption_must_be_monotone():
    with pytest.raises(ValidationError, match="decrease"):
        energy([0.0, 2.0, 1.0])


def test_monotone_tolerance_allows_small_dips():
    es = energy([0.0, 2.0, 1.999], tol=0.01)
    assert es.n == 3


def test_generation_meters_skip_the_monotone_check():
    es = energy([5.0, 3.0, 4.0], kind=MeterKind.GENERATION)
    assert es.meter_kind is MeterKind.GENERATION


def test_values_are_immutable():
    es = energy([0.0, 1.0])
    with pytest.raises(ValueError):
        es.values[0] = 9.0


def test_infinite_values_rejected():
    with pytest.raises(ValidationError, match="finite"):
        energy([0.0, np.inf])


@pytest.mark.parametrize("tol", [-1, -1e-12, float("nan")])
def test_monotone_tolerance_must_be_non_negative(tol):
    message = f"monotone_tol must be non-negative, got {float(tol)}"
    with pytest.raises(ValidationError, match=message):
        energy([0.0, 1.0, 2.0], tol=tol)


def test_an_infinite_monotone_tolerance_turns_the_check_off():
    assert energy([0.0, 2.0, 1.0], tol=float("inf")).n == 3


# ---------------------------------------------------------------------------
# The copy rule: a series copies what its caller could still write
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [energy, power])
def test_a_writeable_array_is_copied(make):
    values = np.array([0.0, 1.0, 2.0])
    series = make(values)
    values[1] = 1.5
    assert series.values.tolist() == [0.0, 1.0, 2.0]
    assert values.flags.writeable  # the caller's array is left as it was


@pytest.mark.parametrize("make", [energy, power])
def test_a_read_only_view_of_a_writeable_base_is_copied(make):
    base = np.array([0.0, 1.0, 2.0, 3.0])
    view = base[1:]
    view.setflags(write=False)
    series = make(view)
    base[2] = 2.5
    assert series.values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("make", [energy, power])
def test_a_read_only_array_that_owns_its_memory_is_adopted(make):
    values = np.array([0.0, 1.0, 2.0])
    values.setflags(write=False)
    assert make(values).values is values


@pytest.mark.parametrize("make", [energy, power])
@pytest.mark.parametrize(
    "values",
    [[0, 1, 2], (0.0, 1.0, 2.0), np.array([0, 1, 2]), np.array([0, 1, 2], dtype=np.float32),
     np.array([0, 1, 2]).view(np.ndarray)],
    ids=["list", "tuple", "int-array", "float32-array", "int-view"],
)
def test_lists_and_other_dtypes_are_converted(make, values):
    if isinstance(values, np.ndarray):
        values.setflags(write=False)  # read-only, yet not float64: still converted
    series = make(values)
    assert series.values.dtype == np.float64 and series.values.tolist() == [0.0, 1.0, 2.0]
    assert not series.values.flags.writeable and series.values is not values


def test_every_producer_returns_read_only_values_of_its_own(monkeypatch):
    complete = day_profile_series([1.0 + 0.1 * (d % 7) + 0.01 * d for d in range(28)])
    degraded = with_missing(complete, [30, 200, *range(100, 111)])
    text = format_series(degraded)
    # Each producer freezes the array it builds, so the series adopts it.
    copied, hold = [], series_module._as_values

    def watched(values):
        held = hold(values)
        if held is not values:
            copied.append(values)
        return held

    monkeypatch.setattr(series_module, "_as_values", watched)
    complete_power, degraded_power = energy_to_power(complete), energy_to_power(degraded)
    plan = cpi.plan_cpi(degraded)
    result = cpi.run_plan(plan, cpi.DEFAULT_WEIGHTS)
    outputs = [
        ("energy_to_power", degraded, degraded_power),
        ("power_to_energy", complete_power, power_to_energy(complete_power, 0.0)),
        ("fill_energy_from_power", degraded,
         fill_energy_from_power(degraded, result.imputed_power.values)),
        ("fill_energy_from_power", result.imputed_power, result.completed_energy),
        ("copy_paste_and_scale", plan.power, result.imputed_power),
        ("interpolate_singles", degraded, cpi.interpolate_singles(degraded)),
        ("insert_missing", complete,
         gapgen.insert_missing(complete, gapgen.MissingnessSpec(0.05, seed=1))[0]),
        *((name, degraded_power, fill(degraded_power)) for name, fill in BASELINES.items()),
    ]
    parsed = [parse_series(text), parse_series(text.replace("\n", "\r\n"))]
    assert copied == []
    for name, source, out in outputs:
        assert not out.values.flags.writeable, name
        assert not np.shares_memory(out.values, source.values), name
    for series in parsed:
        assert not series.values.flags.writeable and series.values.base is None


# ---------------------------------------------------------------------------
# parse_series
# ---------------------------------------------------------------------------


def _csv(rows):
    return "timestamp,value\n" + "\n".join(rows) + "\n"


def test_parse_four_rows_with_one_missing():
    text = _csv(
        [
            "2018-01-01 00:00:00,0",
            "2018-01-01 00:15:00,1",
            "2018-01-01 00:30:00,",
            "2018-01-01 00:45:00,3",
        ]
    )
    es = parse_series(text)
    assert isinstance(es, EnergySeries)
    assert es.n == 4
    assert es.resolution == QUARTER_HOUR
    assert np.isnan(es.values[2])
    assert es.values[3] == 3.0


def test_parse_accepts_nan_literal():
    text = _csv(["2018-01-01 00:00:00,0", "2018-01-01 01:00:00,NaN", "2018-01-01 02:00:00,2"])
    es = parse_series(text)
    assert np.isnan(es.values[1])


def test_parse_irregular_spacing_names_the_row():
    text = _csv(
        [
            "2018-01-01 00:00:00,0",
            "2018-01-01 00:15:00,1",
            "2018-01-01 00:30:00,2",
            "2018-01-01 01:00:00,3",
        ]
    )
    with pytest.raises(ParseError, match="irregular spacing at row 4"):
        parse_series(text)


def test_parse_spacing_past_year_9999_names_the_row():
    text = _csv(["0001-01-01,0", "6000-01-01,1", "9999-01-01,2"])
    with pytest.raises(ParseError, match="irregular spacing at row 3: expected a timestamp "
                       "after year 9999, got 9999-01-01 00:00:00"):
        parse_series(text)


def test_parse_rejects_non_numeric_values():
    text = _csv(["2018-01-01 00:00:00,0", "2018-01-01 00:15:00,abc"])
    with pytest.raises(ParseError, match="non-numeric value at row 2"):
        parse_series(text)


def test_parse_rejects_empty_file():
    with pytest.raises(ParseError, match="empty"):
        parse_series("")
    with pytest.raises(ParseError, match="empty"):
        parse_series("timestamp,value\n")


def test_parse_rejects_wrong_header():
    with pytest.raises(ParseError, match="header"):
        parse_series("time,reading\n2018-01-01,0\n")


def test_parse_rejects_bad_timestamp():
    text = _csv(["2018-01-01 00:00:00,0", "not-a-date,1"])
    with pytest.raises(ParseError, match="invalid timestamp at row 2"):
        parse_series(text)


def test_parse_one_year_quarter_hourly_file():
    stamps = [MONDAY + i * QUARTER_HOUR for i in range(35040)]
    text = _csv([f"{ts.isoformat(sep=' ')},{i}" for i, ts in enumerate(stamps)])
    es = parse_series(text)
    assert es.n == 35040


def test_parse_power_kind_allows_decreasing_values():
    text = _csv(["2018-01-01 00:00:00,5", "2018-01-01 00:15:00,2"])
    ps = parse_series(text, ParseConfig(kind="power"))
    assert isinstance(ps, PowerSeries)
    assert ps.values.tolist() == [5.0, 2.0]


def test_format_series_round_trips():
    es = energy([0.0, 0.1, np.nan, 0.30000000000000004])
    again = parse_series(format_series(es))
    assert again.start == es.start
    assert again.resolution == es.resolution
    assert np.array_equal(again.values, es.values, equal_nan=True)


def test_parse_rejects_mixed_naive_and_aware_timestamps():
    text = _csv(["2018-01-01 00:00:00+01:00,0", "2018-01-01 00:15:00,1"])
    with pytest.raises(ParseError, match="row 2"):
        parse_series(text)


# ---------------------------------------------------------------------------
# The written CSV form: column-wise format and parse, row-wise parity
# ---------------------------------------------------------------------------

_RESOLUTIONS = {
    "5min": timedelta(minutes=5),
    "15min": QUARTER_HOUR,
    "1h": timedelta(hours=1),
    "7min": timedelta(minutes=7),
    "1.5s": timedelta(seconds=1.5),
}
_STARTS = {
    "midnight": MONDAY,
    "mid-day": datetime(2018, 1, 1, 6, 15),
    "leap-day": datetime(2020, 2, 29),
    "year-end": datetime(2018, 12, 31, 23, 0),
    "tz-offset": datetime(2018, 1, 1, tzinfo=timezone(timedelta(hours=1))),
    "microsecond": datetime(2018, 1, 1, 0, 0, 0, 1),
    "on-grid-fraction": datetime(2018, 1, 1, 0, 0, 1, 500000),
}


def _awkward_power(start, resolution):
    """A day and a bit of values from 1e-8 to 1e16, signed zeros and NaN ends."""
    n = timedelta(days=1) // resolution + 37
    rng = np.random.default_rng(n)
    values = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** np.linspace(-8, 16, n)
    values[rng.random(n) < 0.1] = np.nan
    values[[0, -1]] = np.nan
    values[[1, n // 2]] = [-0.0, 0.0]
    return power(values, start=start, resolution=resolution)


@pytest.mark.parametrize("start", _STARTS.values(), ids=_STARTS.keys())
@pytest.mark.parametrize("resolution", _RESOLUTIONS.values(), ids=_RESOLUTIONS.keys())
def test_format_matches_the_per_row_oracle_and_round_trips(start, resolution):
    for ps in (_awkward_power(start, resolution), power([1.5, np.nan, 2.0], start, resolution)):
        oracle = "timestamp,value\n" + "".join(
            f"{ps.timestamp(i).isoformat(sep=' ')},{'' if math.isnan(v) else repr(float(v))}\n"
            for i, v in enumerate(ps.values)
        )
        text = format_series(ps)
        assert text == oracle
        again = parse_series(text, ParseConfig(kind="power"))
        assert (again.start, again.resolution) == (ps.start, ps.resolution)
        assert again.values.tobytes() == ps.values.tobytes()


def test_written_files_are_read_without_the_row_wise_reader(monkeypatch):
    es = energy(np.arange(35040.0) / 7, resolution=QUARTER_HOUR)
    text = format_series(with_missing(es, [0, 5, 6, 35039]))

    def no_row_wise(*args, **kwargs):
        raise AssertionError("the row-wise reader ran on a written file")

    monkeypatch.setattr(series_module.csv, "reader", no_row_wise)
    again = parse_series(text)
    assert np.isnan(again.values[[0, 5, 6, 35039]]).all()
    assert again.values[7] == 1.0


def test_one_shifted_timestamp_in_a_written_year_is_irregular():
    es = energy(np.arange(35040.0), resolution=QUARTER_HOUR)
    lines = format_series(es).split("\n")
    row = 20_000
    lines[row] = lines[row + 1].split(",")[0] + "," + lines[row].split(",")[1]
    with pytest.raises(ParseError) as exc:
        parse_series("\n".join(lines))
    assert str(exc.value) == (
        f"irregular spacing at row {row}: expected {es.timestamp(row - 1)}, "
        f"got {es.timestamp(row)}"
    )


def test_other_forms_of_a_year_are_turned_away_before_the_timestamp_column(monkeypatch):
    es = energy(np.arange(35040.0), resolution=QUARTER_HOUR)
    text = format_series(es)
    lines = text.split("\n")
    lines[-2] = lines[-3].split(",")[0] + ",1.0"

    def no_column(*args, **kwargs):
        raise AssertionError("the timestamp column was built for text outside the form")

    monkeypatch.setattr(series_module, "_timestamps", no_column)
    for other in (text.replace(" ", "T"), text.replace("\n", "\r\n")):
        again = parse_series(other)
        assert (again.start, again.resolution) == (es.start, es.resolution)
        assert again.values.tobytes() == es.values.tobytes()
    with pytest.raises(ParseError, match="irregular spacing at row 35040"):
        parse_series("\n".join(lines))


_ROW = ["2018-01-01 00:00:00,0", "2018-01-01 00:15:00,1", "2018-01-01 00:30:00,2"]
_ACCEPTED = (MONDAY, QUARTER_HOUR, [0.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "text, expected",
    [
        (_csv([r.replace(" ", "T") for r in _ROW]), _ACCEPTED),
        (_csv([" " + r.replace(",", " , ") + " " for r in _ROW]), _ACCEPTED),
        ("timestamp,value\n" + _ROW[0] + "\n\n" + "\n".join(_ROW[1:]) + "\n", _ACCEPTED),
        ("\ufeff" + _csv(_ROW), _ACCEPTED),
        (_csv(_ROW).replace("\n", "\r\n"), _ACCEPTED),
        (_csv(_ROW[:2] + ['2018-01-01 00:30:00,"2"']), _ACCEPTED),
        (_csv(_ROW)[:-1], _ACCEPTED),
        (_csv(_ROW[:2] + ["2018-01-01 00:30:00,2_0"]), (MONDAY, QUARTER_HOUR, [0.0, 1.0, 20.0])),
        (_csv(_ROW[:2] + ["2018-01-01 00:30:00, NaN "]), (MONDAY, QUARTER_HOUR, [0.0, 1.0, None])),
        (
            _csv(_ROW[:2] + ["2018-01-01 00:30:00,inf"]),
            ParseError("non-finite value at row 3: 'inf'"),
        ),
        (
            _csv(_ROW[:2] + ["2018-01-01 00:30:00,+nan"]),
            ParseError("non-finite value at row 3: '+nan'"),
        ),
        (
            _csv(_ROW[:2] + ["2018-01-01 00:30:00,2,3"]),
            ParseError("expected 2 columns at row 3, got 3"),
        ),
        (
            _csv(["2018-01-01 00:00:00,0,2018-01-01 00:15:00", "1", _ROW[2]]),
            ParseError("expected 2 columns at row 1, got 3"),
        ),
        (_csv([_ROW[0], _ROW[0], _ROW[1]]), ParseError("non-increasing timestamps at row 2")),
        (_csv([_ROW[1], _ROW[0], _ROW[2]]), ParseError("non-increasing timestamps at row 2")),
        (
            _csv([r.split(",")[0] + "," for r in _ROW]),
            ValidationError("an energy series needs at least one present reading"),
        ),
    ],
    ids=[
        "T-separator", "padded-cells", "blank-line", "BOM-header", "CRLF", "quoted-value",
        "no-final-newline", "underscore-digits", "padded-nan", "inf", "plus-nan", "third-column",
        "misplaced-comma", "duplicate-timestamp", "decreasing-timestamps", "all-missing",
    ],
)
def test_text_outside_the_written_form_keeps_its_row_wise_outcome(text, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            parse_series(text)
        assert str(exc.value) == str(expected)
        return
    start, resolution, values = expected
    es = parse_series(text)
    assert (es.start, es.resolution) == (start, resolution)
    assert np.array_equal(es.values, np.array(values, dtype=float), equal_nan=True)


def _same_reading(text):
    got, want = series_module._parse_written(text), csv_oracle.parse_written(text)
    if want is None:
        assert got is None
        return want
    assert got is not None
    assert got[:2] == want[:2]
    assert got[2].tobytes() == want[2].tobytes()
    return want


_S = ["2018-01-01 00:00:00", "2018-01-01 00:15:00", "2018-01-01 00:30:00"]


@pytest.mark.parametrize(
    "rows",
    [
        [f"{_S[0]},1.0", _S[1], f"2.0,{_S[2]},3.0"],    # no comma, then two: cells align
        [f"{_S[0]},1.0,{_S[1]}", f"2.0,{_S[2]}", "3.0"],  # two commas, then none
        [f"{_S[0]},1.0", f"{_S[1]}", f"{_S[2]},2.0,"],
        [f"{_S[0]},1.0", f"{_S[1]},,", f"{_S[2]}"],
    ],
    ids=["none-then-two", "two-then-none", "none-then-trailing", "two-then-bare"],
)
def test_written_form_needs_one_comma_on_every_row(rows):
    assert _same_reading(_csv(rows)) is None


_EDITS = (
    "drop-comma", "add-comma", "crlf", "quote", "empty", "nan", "bad-float",
    "shift-stamp", "blank-line", "pad",
)


@st.composite
def _edited_written_text(draw):
    """A short written CSV, with up to three rows edited."""
    resolution = draw(st.sampled_from([timedelta(minutes=5), QUARTER_HOUR, HOUR]))
    start = draw(st.sampled_from([MONDAY, datetime(2018, 1, 1, 7), datetime(2020, 2, 28, 13)]))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n) * 10.0 ** rng.integers(-3, 4))
    lines = format_series(power(values, start=start, resolution=resolution)).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, n))
        stamp, value = lines[i].split(",", 1) if "," in lines[i] else (lines[i], "")
        edit = draw(st.sampled_from(_EDITS))
        if edit == "drop-comma":
            lines[i] = lines[i].replace(",", "", 1)
        elif edit == "add-comma":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + "," + lines[i][at:]
        elif edit == "crlf":
            lines[i] += "\r"
        elif edit == "quote":
            lines[i] = f'{stamp},"{value}"'
        elif edit in ("empty", "nan", "bad-float", "pad"):
            new = {
                "empty": [""],
                "nan": ["nan", "NaN", "NAN", "-nan"],
                "bad-float": ["1.0x", "inf", "-inf", "1e999", "--1", "1_0", "0x10", ".", "e5"],
                "pad": [f" {value}", f"{value} ", "\t1.5"],
            }[edit]
            lines[i] = f"{stamp},{draw(st.sampled_from(new))}"
        elif edit == "shift-stamp":
            when = start + (i - 1 + draw(st.sampled_from([-1, 1]))) * resolution
            lines[i] = f"{when.isoformat(sep=' ')},{value}"
        else:
            lines.insert(i, "")
    return "\n".join(lines)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_edited_written_text())
def test_written_form_reads_as_the_row_splitting_oracle(text):
    _same_reading(text)


# ---------------------------------------------------------------------------
# energy <-> power
# ---------------------------------------------------------------------------


def test_energy_to_power_hand_example():
    es = energy([0.0, 1.0, 3.0, 6.0])
    assert energy_to_power(es).values.tolist() == [1.0, 2.0, 3.0]


def test_constant_energy_gives_zero_power():
    assert energy_to_power(energy([5.0, 5.0, 5.0])).values.tolist() == [0.0, 0.0]


def test_power_missing_iff_either_reading_missing():
    es = energy([0.0, np.nan, 3.0])
    assert np.isnan(energy_to_power(es).values).all()


def test_power_to_energy_hand_example():
    ps = power([1.0, 2.0, 3.0])
    assert power_to_energy(ps, 0.0).values.tolist() == [0.0, 1.0, 3.0, 6.0]


def test_power_to_energy_zero_power_constant_energy():
    assert power_to_energy(power([0.0, 0.0]), 5.0).values.tolist() == [5.0, 5.0, 5.0]


def test_power_to_energy_rejects_missing_values():
    with pytest.raises(ImputationError, match="missing"):
        power_to_energy(power([1.0, np.nan]), 0.0)


def test_round_trip_is_identity_on_random_series():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 500))
        values = np.cumsum(rng.uniform(0.0, 5.0, size=n)) + rng.uniform(0, 100)
        es = energy(values, resolution=QUARTER_HOUR)
        back = power_to_energy(energy_to_power(es), es.values[0])
        assert np.abs(back.values - es.values).max() < 1e-9
        ps = energy_to_power(es)
        ps_back = energy_to_power(power_to_energy(ps, es.values[0]))
        assert np.abs(ps_back.values - ps.values).max() < 1e-9


# ---------------------------------------------------------------------------
# detect_gaps
# ---------------------------------------------------------------------------


def test_interior_gap_indices_anchors_and_energy():
    base = energy(np.arange(10.0))
    es = with_missing(base, [5, 6])
    (gap,) = detect_gaps(es)
    # Two missing readings kill three power values: the spans needing e5 or e6.
    assert (gap.first_missing, gap.last_missing) == (4, 6)
    assert gap.length == 3
    assert (gap.anchor_before, gap.anchor_after) == (4.0, 7.0)
    assert gap.actual_energy == 3.0
    assert (gap.energy_first, gap.energy_last) == (5, 6)


def test_complete_series_has_no_gaps():
    assert detect_gaps(energy(np.arange(5.0))) == []


def test_leading_gap_is_unanchored():
    es = with_missing(energy(np.arange(10.0)), [0, 1, 2])
    (gap,) = detect_gaps(es)
    assert gap.anchor_before is None
    assert gap.actual_energy is None
    assert not gap.anchored
    assert (gap.first_missing, gap.last_missing) == (0, 2)
    assert (gap.energy_first, gap.energy_last) == (0, 2)


def test_trailing_gap_is_unanchored():
    es = with_missing(energy(np.arange(10.0)), [8, 9])
    (gap,) = detect_gaps(es)
    assert gap.anchor_after is None
    assert (gap.first_missing, gap.last_missing) == (7, 8)
    assert (gap.energy_first, gap.energy_last) == (8, 9)


def test_gap_union_covers_exactly_the_missing_power_indices():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(5, 120))
        values = np.cumsum(rng.uniform(0, 2, n))
        drop = rng.random(n) < 0.25
        if drop.all():
            drop[int(rng.integers(n))] = False
        es = energy(np.where(drop, np.nan, values), kind=MeterKind.GENERATION)
        missing_power = set(np.flatnonzero(np.isnan(energy_to_power(es).values)).tolist())
        covered = set()
        gaps = detect_gaps(es)
        for gap in gaps:
            covered.update(range(gap.first_missing, gap.last_missing + 1))
        assert covered == missing_power
        # maximality: two adjacent runs of missing readings would be one gap
        for a, b in zip(gaps, gaps[1:]):
            assert b.energy_first > a.energy_last + 1
            assert b.first_missing > a.last_missing


# ---------------------------------------------------------------------------
# Energy rebuild from imputed power
# ---------------------------------------------------------------------------


def _rebuilt(readings, power_values, kind=MeterKind.CONSUMPTION):
    es = energy(readings, kind=kind)
    got = fill_energy_from_power(es, power_values)
    want = paste_oracle.fill_energy_from_power(es, power_values)
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.meter_kind, got.monotone_tol) == (kind, float("inf"))
    present = ~np.isnan(es.values)
    assert got.values[present].tobytes() == es.values[present].tobytes()
    return got.values.tolist()


def test_rebuild_walks_a_leading_run_back_from_its_right_anchor():
    assert _rebuilt([np.nan, np.nan, 3.0, 6.0, 10.0], [1.0, 2.0, 3.0, 4.0]) == [
        0.0, 1.0, 3.0, 6.0, 10.0,
    ]


def test_rebuild_cumulates_a_trailing_run_from_its_left_anchor():
    assert _rebuilt([0.0, 1.0, np.nan, np.nan], [1.0, 2.0, 4.0]) == [0.0, 1.0, 3.0, 7.0]


def test_rebuild_of_one_missing_reading_keeps_the_right_anchor():
    # The second power value is not used: reading 2 stays as metered.
    assert _rebuilt([0.0, np.nan, 5.0], [2.0, 7.0]) == [0.0, 2.0, 5.0]


def test_rebuild_fills_runs_at_both_ends():
    assert _rebuilt([np.nan, 2.0, 4.0, np.nan], [1.0, 1.0, 1.0]) == [1.0, 2.0, 4.0, 5.0]
    assert _rebuilt(
        [np.nan, np.nan, 2.0, np.nan, 3.0, np.nan], [1.0, -1.0, 0.5, 2.0, -0.5],
        kind=MeterKind.GENERATION,
    ) == [2.0, 3.0, 2.0, 2.5, 3.0, 2.5]


def test_rebuild_errors_keep_their_texts():
    es = energy([0.0, np.nan, 5.0, 6.0])
    with pytest.raises(ValidationError) as exc:
        fill_energy_from_power(es, [1.0, 2.0])
    assert str(exc.value) == "expected 3 power values, got (2,)"
    with pytest.raises(ImputationError) as exc:
        fill_energy_from_power(es, [1.0, np.nan, 2.0])
    assert str(exc.value) == "power values must be complete to rebuild energy"


# ---------------------------------------------------------------------------
# day_partition
# ---------------------------------------------------------------------------


def test_day_aligned_quarter_hourly_partition():
    values = np.arange(3 * 96, dtype=float) * 0.25  # 3 days of 1 kW
    es = energy(values, resolution=QUARTER_HOUR)
    days = day_partition(es)
    assert days.slots.tolist() == [96, 96, 95]
    assert days.full_day.all()
    assert days.missing[0] == 0
    assert days.known_energy[0] == pytest.approx(24.0)  # 96 slots of 1 kW for 15 min


def test_day_fully_inside_a_gap():
    values = np.arange(3 * 96, dtype=float) * 0.25
    es = with_missing(energy(values, resolution=QUARTER_HOUR), range(95, 193))
    days = day_partition(es)
    assert days.missing[1] == 96
    assert days.known_energy[1] == 0.0


def test_partial_first_day_is_not_full():
    start = MONDAY + timedelta(hours=12)
    values = np.arange(48 + 96, dtype=float)
    es = energy(values, start=start, resolution=QUARTER_HOUR)
    days = day_partition(es)
    assert not days.full_day[0]
    assert days.first_slot[0] == 48
    assert days.full_day[1]


def test_misaligned_start_is_rejected():
    start = MONDAY + timedelta(minutes=7)
    es = energy([0.0, 1.0, 2.0], start=start, resolution=QUARTER_HOUR)
    with pytest.raises(ImputationError, match="aligned"):
        day_partition(es)


def test_non_divisor_resolution_is_rejected():
    es = energy([0.0, 1.0], resolution=timedelta(minutes=7))
    with pytest.raises(ImputationError, match="does not divide"):
        day_partition(es)


def test_day_partition_energy_conservation():
    rng = np.random.default_rng(13)
    values = np.concatenate(([0.0], np.cumsum(rng.uniform(0, 1, size=4 * 96 - 1))))
    es = energy(values, resolution=QUARTER_HOUR)
    es = with_missing(es, [30, 31, 32, 200, 290, 291])
    days = day_partition(es)
    gaps = detect_gaps(es)
    assert all(g.anchored for g in gaps)
    total = days.known_energy.sum() + sum(g.actual_energy for g in gaps)
    assert total == pytest.approx(es.values[-1] - es.values[0], abs=1e-9)


def _day_partition_oracle(series):
    """The per-day loop that ``day_partition`` replaced, kept as its reference."""
    ps = energy_to_power(series) if isinstance(series, EnergySeries) else series
    spd = series_module.slots_per_day(ps.resolution)
    off0 = series_module.grid_offset(ps.start, ps.resolution)
    m = ps.n
    if m == 0:
        return []
    dt = series_module.resolution_hours(ps.resolution)
    miss = np.isnan(ps.values)
    date0 = ps.start.date()
    n_energy = m + 1 if isinstance(series, EnergySeries) else m
    views = []
    day_count = (off0 + m - 1) // spd + 1
    for d in range(day_count):
        start_i = max(d * spd - off0, 0)
        stop_i = min((d + 1) * spd - off0, m)
        seg = ps.values[start_i:stop_i]
        n_missing = int(miss[start_i:stop_i].sum())
        known = float(np.nansum(seg) * dt) if stop_i > start_i else 0.0
        e_lo = max(d * spd - off0, 0)
        e_hi = min((d + 1) * spd - off0, n_energy)
        views.append(
            plan_oracle.DayView(
                date=date0 + timedelta(days=d),
                start=int(start_i),
                stop=int(stop_i),
                first_slot=int(off0 + start_i - d * spd),
                missing=n_missing,
                known_energy=known,
                covers_full_day=(e_hi - e_lo) == spd,
            )
        )
    return views


_PARTITION_RESOLUTIONS = [timedelta(minutes=5), QUARTER_HOUR, HOUR, timedelta(days=1)]


@st.composite
def _partition_inputs(draw):
    """An energy or power series with NaN runs: anywhere, at either end, whole days."""
    resolution = draw(st.sampled_from(_PARTITION_RESOLUTIONS))
    spd = timedelta(days=1) // resolution
    leap = st.just(date(2020, 2, 28))
    day = draw(st.one_of(leap, st.dates(date(2015, 1, 1), date(2021, 12, 31))))
    slot = draw(st.one_of(st.just(0), st.integers(0, spd - 1)))
    start = datetime.combine(day, time()) + slot * resolution
    n = draw(st.integers(1, 731 * spd))
    miss = np.zeros(n, dtype=bool)
    for where, pos, length in draw(st.lists(st.tuples(
        st.sampled_from(["inside", "head", "tail", "day"]),
        st.integers(0, n - 1),
        st.integers(1, 3 * spd),
    ), max_size=6)):
        if where == "inside":
            miss[pos : pos + length] = True
        elif where == "head":
            miss[:length] = True
        elif where == "tail":
            miss[-length:] = True
        else:
            d = (slot + pos) // spd
            miss[max(d * spd - slot, 0) : (d + 1) * spd - slot] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    if draw(st.booleans()):
        miss[n // 2] = False  # an energy series needs a present reading
        values = np.where(miss, np.nan, 1e3 * rng.random() + np.cumsum(rng.random(n) * scale))
        return EnergySeries(start=start, resolution=resolution, values=values)
    values = np.where(miss, np.nan, rng.normal(size=n) * scale)
    return PowerSeries(start=start, resolution=resolution, values=values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_partition_inputs())
def test_day_partition_matches_the_per_day_loop(series):
    table, want = day_partition(series), _day_partition_oracle(series)
    got = plan_oracle.views(table)
    assert got == want
    assert repr(got) == repr(want)  # bit-identical floats
    assert table.total is None
    dates = [view.date for view in want]
    assert [date.fromordinal(o) for o in table.ordinal.tolist()] == dates
    assert table.weekday.tolist() == [d.isoweekday() for d in dates]
    assert table.day_of_year.tolist() == [d.timetuple().tm_yday for d in dates]
