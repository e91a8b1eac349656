"""Tests for the copy-paste imputation pipeline."""

import calendar
import re
import zlib
from dataclasses import astuple, fields, replace
from datetime import date, datetime, time, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meterfill import (
    DissimilarityWeights,
    EnergySeries,
    GapFill,
    ImputationError,
    MeterfillError,
    MeterKind,
    ParseConfig,
    ParseError,
    PowerSeries,
    ValidationError,
    energy_to_power,
    impute_cpi,
    mape_p,
    parse_series,
)
from meterfill import cpi, metrics
from meterfill.cpi import (
    DEFAULT_WEIGHTS,
    CpiPlan,
    MatchTable,
    PasteLayout,
    _match_block,
    compile_complete_days,
    complete_from_power,
    copy_paste_and_scale,
    estimate_daily_energy,
    fit_weekly_pattern,
    interpolate_singles,
    match_table,
    match_weights,
    paste_layout,
    plan_cpi,
    run_plan,
    season_distance,
    weekday_distance,
)
from meterfill.series import (
    DayTable,
    day_partition,
    day_slot,
    detect_gaps,
    format_series,
    resolution_hours,
)

import paste_oracle
import plan_oracle
from conftest import (
    HOUR,
    MONDAY,
    QUARTER_HOUR,
    assert_untouched,
    day_profile_series,
    energy,
    matched_days,
    plan_donors,
    with_missing,
)
from dissimilarity_oracle import combine_distances, dissimilarity, lexsort_donors
from plan_oracle import best_donors


def record(day, total=None, complete=False, estimated=False, full=True):
    return plan_oracle.DayRecord(
        date=day,
        total_energy=total,
        weekday=day.isoweekday(),
        day_of_year=day.timetuple().tm_yday,
        is_complete=complete,
        estimated=estimated,
        full_day=full,
    )


# ---------------------------------------------------------------------------
# Single-value interpolation
# ---------------------------------------------------------------------------


def test_single_missing_reading_becomes_the_neighbour_mean():
    es = energy([0.0, np.nan, 4.0])
    assert interpolate_singles(es).values.tolist() == [0.0, 2.0, 4.0]


def test_runs_of_two_or_more_stay_missing():
    es = energy([0.0, np.nan, np.nan, 6.0])
    out = interpolate_singles(es)
    assert np.array_equal(out.values, es.values, equal_nan=True)


def test_boundary_missing_readings_are_not_singles():
    es = energy([np.nan, 1.0, 2.0, np.nan])
    out = interpolate_singles(es)
    assert np.isnan(out.values[0]) and np.isnan(out.values[3])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.booleans(), min_size=1, max_size=24).filter(lambda m: not all(m)))
def test_exactly_the_interior_isolated_readings_are_filled(missing):
    # Random masks hold runs at both ends, runs of one and two readings, and
    # runs one present reading apart; a per-index loop picks the singles.
    n = len(missing)
    values = np.where(missing, np.nan, np.cumsum(np.linspace(0.3, 1.7, n)))
    out = interpolate_singles(energy(values)).values
    singles = [i for i in range(1, n - 1)
               if missing[i] and not missing[i - 1] and not missing[i + 1]]
    assert np.flatnonzero(np.isnan(values) != np.isnan(out)).tolist() == singles
    for i in singles:
        assert out[i] == 0.5 * (values[i - 1] + values[i + 1])
    others = np.setdiff1d(np.arange(n), singles)
    assert out[others].tobytes() == values[others].tobytes()


def test_interpolated_single_splits_the_energy_between_both_power_values():
    es = energy([0.0, np.nan, 4.0])
    p = energy_to_power(interpolate_singles(es)).values
    assert p.tolist() == [2.0, 2.0]
    assert p.sum() * 1.0 == 4.0  # bracketing energy difference, 1 h resolution


# ---------------------------------------------------------------------------
# Weekly pattern fit
# ---------------------------------------------------------------------------


def table(first, known, slots=24):
    """A day table of whole days from ``first``, each of ``slots`` slots."""
    n = len(known)
    bounds = np.arange(n + 1) * slots
    zero = np.zeros(n, dtype=np.int64)
    return DayTable(first, bounds[:-1], bounds[1:], zero, np.array(known, dtype=np.float64),
                    zero == 0)


def _days(totals, start=MONDAY.date()):
    """The table of consecutive days with these totals, and its every row."""
    return table(start, totals), np.arange(len(totals))


def test_weekend_offsets_recover_the_closed_form():
    totals = [110.0 if d % 7 in (5, 6) else 100.0 for d in range(28)]
    offsets = fit_weekly_pattern(*_days(totals))
    for w in range(1, 6):
        assert offsets[w - 1] == pytest.approx(-20 / 7, abs=1e-6)
    for w in (6, 7):
        assert offsets[w - 1] == pytest.approx(50 / 7, abs=1e-6)
    assert (offsets.dtype, offsets.shape) == (np.float64, (7,))
    assert abs(offsets.sum()) < 1e-9
    assert not offsets.flags.writeable


def test_constant_totals_give_zero_offsets_and_slope():
    offsets = fit_weekly_pattern(*_days([42.0] * 21))
    assert np.abs(offsets).max() < 1e-9


def test_pure_trend_recovers_the_slope_exactly():
    # The fit's trend column takes the slope, so none of it leaks into the offsets.
    offsets = fit_weekly_pattern(*_days([2.0 * i for i in range(28)]))
    assert np.abs(offsets).max() < 1e-9


def test_fewer_than_fourteen_days_is_an_error():
    with pytest.raises(ImputationError, match="14"):
        fit_weekly_pattern(*_days([1.0] * 13))


def test_missing_weekday_class_is_named():
    days, rows = _days([10.0] * 20)
    with pytest.raises(ImputationError, match="Sunday"):
        fit_weekly_pattern(days, rows[days.weekday != 7])


# ---------------------------------------------------------------------------
# Daily energy estimation
# ---------------------------------------------------------------------------


def _row(day):
    """The day-table row of ``day`` in a series that starts on MONDAY."""
    return (day - MONDAY.date()).days


def _flat_pattern(**overrides):
    """Weekday offsets, Monday first, zero except the named days."""
    offsets = np.zeros(7)
    for weekday, value in overrides.items():
        offsets[["mon", "tue", "wed", "thu", "fri", "sat", "sun"].index(weekday)] = value
    return offsets


def _estimate(es, gaps, offsets):
    """``estimate_daily_energy`` of ``es``'s day table and the rows ``gaps`` of its gap table."""
    gap_days = day_slot(es, np.stack([gaps.first_missing, gaps.last_missing]))[0]
    return estimate_daily_energy(day_partition(es), gaps, gap_days, offsets)


def test_two_full_days_receive_their_weekly_offsets():
    # Friday and Saturday fully missing in the power domain: readings from
    # Friday 01:00 through Saturday 23:00 removed, 48 kWh metered over the gap.
    base = energy(np.arange(14 * 24 + 1, dtype=float))  # 1 kW constant, hourly
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    gaps = detect_gaps(es)
    assert gaps.actual_energy.tolist() == pytest.approx([48.0])
    totals = _estimate(es, gaps, _flat_pattern(fri=4.0, sat=-4.0))
    assert totals[_row(date(2018, 1, 5))] == pytest.approx(28.0)
    assert totals[_row(date(2018, 1, 6))] == pytest.approx(20.0)


def test_zero_offsets_allocate_proportionally():
    # 23 readings missing -> 24 missing power values split 6 / 18 across the
    # Thursday/Friday boundary; constant 40/24 kW makes the gap worth 40 kWh.
    values = np.arange(14 * 24 + 1, dtype=float) * (40.0 / 24.0)
    es = with_missing(energy(values), range(3 * 24 + 19, 4 * 24 + 18))
    gaps = detect_gaps(es)
    assert gaps.actual_energy.tolist() == pytest.approx([40.0])
    totals = _estimate(es, gaps, _flat_pattern())
    thursday_known = 18 * 40.0 / 24.0
    friday_known = 6 * 40.0 / 24.0
    assert totals[_row(date(2018, 1, 4))] - thursday_known == pytest.approx(10.0)
    assert totals[_row(date(2018, 1, 5))] - friday_known == pytest.approx(30.0)


def test_single_day_gap_ignores_the_pattern():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(2 * 24 + 3, 2 * 24 + 9))
    gaps = detect_gaps(es)
    known = 24.0 - 7.0  # 24 slots of 1 kW minus the 7 missing power values
    for offsets in (_flat_pattern(), _flat_pattern(wed=5.0, sun=-5.0)):
        totals = _estimate(es, gaps, offsets)
        assert totals[_row(date(2018, 1, 3))] == pytest.approx(known + gaps.actual_energy[0])


def test_unanchored_gap_is_rejected():
    es = with_missing(energy(np.arange(48.0 * 3)), [0, 1, 2])
    gaps = detect_gaps(es)
    assert gaps.anchored.tolist() == [False]
    with pytest.raises(ImputationError, match="unanchored"):
        _estimate(es, gaps, _flat_pattern())


def test_estimation_conserves_every_gap_exactly():
    rng = np.random.default_rng(5)
    values = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 3.0, size=21 * 24))))
    es = energy(values)
    es = with_missing(es, list(range(30, 80)) + list(range(200, 230)) + [400])
    es = interpolate_singles(es)
    gaps = detect_gaps(es)
    totals = _estimate(es, gaps, _flat_pattern(mon=3.0, tue=-1.0, wed=-2.0))
    allocated = (totals - day_partition(es).known_energy).sum()
    assert allocated == pytest.approx(gaps.actual_energy.sum(), rel=1e-12)


def test_clamped_negative_allocations_still_conserve():
    # Large negative offset forces a clamp on the second day of the gap.
    base = energy(np.arange(14 * 24 + 1, dtype=float) * 0.05)  # 0.05 kW constant
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    gaps = detect_gaps(es)
    totals = _estimate(es, gaps, _flat_pattern(fri=40.0, sat=-40.0))
    friday, saturday = totals[_row(date(2018, 1, 5))], totals[_row(date(2018, 1, 6))]
    assert friday >= 0.0 and saturday >= 0.0
    assert friday + saturday == pytest.approx(gaps.actual_energy[0], rel=1e-12)


# ---------------------------------------------------------------------------
# Day compilation
# ---------------------------------------------------------------------------


def _no_estimates(days):
    return np.full(len(days), np.nan)


def test_fourteen_day_series_with_two_gap_days_has_twelve_candidates():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    days = day_partition(es)
    total = compile_complete_days(days, _no_estimates(days))
    assert len(days) == len(total) == 14
    plan = plan_cpi(es, min_complete_days=12)
    donors = np.unique(_match_block(plan.table).donor)
    assert donors.tolist() == [0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13]
    assert plan.layout.days.tolist() == [4, 5]
    assert np.flatnonzero(np.isnan(total)).tolist() == [4, 5]


def test_complete_year_gives_365_complete_records():
    from meterfill import synthetic_series

    days = day_partition(synthetic_series(3, days=365))
    total = compile_complete_days(days, _no_estimates(days))
    assert len(days) == 365
    assert (days.missing == 0).all()
    assert np.array_equal(total, days.known_energy)


def test_day_of_year_bounds():
    base = energy(np.arange(2 * 24 + 1, dtype=float), start=datetime(2018, 12, 31))
    assert day_partition(base).day_of_year.tolist() == [365, 1]
    assert day_partition(energy(np.arange(25.0))).day_of_year.tolist() == [1]
    leap = energy(np.arange(3 * 24 + 1, dtype=float), start=datetime(2020, 2, 28))
    assert day_partition(leap).day_of_year.tolist() == [59, 60, 61]
    assert day_partition(leap).weekday.tolist() == [5, 6, 7]  # Friday 2020-02-28


def test_estimated_days_carry_the_estimate():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    days = day_partition(es)
    estimates = _no_estimates(days)
    estimates[[_row(date(2018, 1, 5)), 0]] = 28.0
    total = compile_complete_days(days, estimates)
    assert total[_row(date(2018, 1, 5))] == 28.0
    assert np.isnan(total[_row(date(2018, 1, 6))])
    assert total[0] == days.known_energy[0] == 24.0  # complete: its own total


def _columns(days):
    return [getattr(days, name).tolist()
            for name in ("start", "stop", "missing", "known_energy", "full_day")]


def test_plan_partitions_the_series_once():
    # Boundary and interior gaps: the partition feeds the weekly fit, the
    # estimates, the day totals and the match, and reads the power the
    # plan derived for its paste layout.
    base = energy(np.arange(21 * 24 + 1, dtype=float))
    es = with_missing(base, [0, 1, *range(4 * 24 + 1, 6 * 24), 20 * 24])
    calls = []

    def counted(series):
        calls.append(series)
        return energy_to_power(series)

    with (
        mock.patch("meterfill.cpi.energy_to_power", counted),
        mock.patch("meterfill.series.energy_to_power", counted),
        mock.patch("meterfill.cpi.day_partition", wraps=day_partition) as spy,
    ):
        plan = plan_cpi(es)
    assert (spy.call_count, len(calls)) == (1, 1)
    assert _columns(plan.table.days) == _columns(day_partition(plan.series))


def test_the_plan_holds_one_day_table_and_maps_the_missing_slots_once():
    # The day table keeps only what the partition knows, the match table
    # holds it beside the day totals, and no other plan field holds it.  The
    # layout holds each gap's days once, as positions in its day rows, and
    # each gap's missing slots as positions in its missing indices.
    assert [f.name for f in fields(DayTable)] == [
        "first", "start", "stop", "missing", "known_energy", "full_day"]
    assert not {"weekday", "day_of_year", "slots"} & {f.name for f in fields(MatchTable)}
    assert "days" not in {f.name for f in fields(CpiPlan)}
    assert "gap_days" not in {f.name for f in fields(PasteLayout)}

    base = energy(np.arange(21 * 24 + 1, dtype=float))
    es = with_missing(base, [0, 1, *range(4 * 24 + 1, 6 * 24), *range(16 * 24 + 5, 16 * 24 + 9)])
    tables = []

    def partition(*args):
        tables.append(day_partition(*args))
        return tables[-1]

    with (
        mock.patch("meterfill.cpi.day_partition", partition),
        mock.patch("meterfill.cpi.day_slot", wraps=cpi.day_slot) as mapped,
    ):
        plan = plan_cpi(es)
    days = plan.table.days
    assert len(tables) == 1 and days is tables[0]
    assert days.weekday is days.weekday and days.slots is days.slots  # computed once
    assert plan.table.total.shape == (len(days),)
    missing = [call for call in mapped.call_args_list
               if np.array_equal(np.asarray(call.args[1]), plan.layout.missing)]
    assert len(missing) == 1 and mapped.call_count == 1
    assert plan.layout.days.tolist() == [0, 4, 5, 16]
    gap_rows = plan.layout.gap_rows
    assert (gap_rows.dtype, gap_rows.shape) == (np.int64, (3, 2))
    assert gap_rows.tolist() == [[0, 1], [1, 3], [3, 4]]
    gap_slots = plan.layout.gap_slots  # power 0-1, 96-143 and 388-392
    assert (gap_slots.dtype, gap_slots.shape) == (np.int64, (3, 2))
    assert gap_slots.tolist() == [[0, 2], [2, 50], [50, 55]]
    assert plan.layout.last_slot.tolist() == [1, 23, 23, 8]  # each day's last missing hour


# ---------------------------------------------------------------------------
# Dissimilarity
# ---------------------------------------------------------------------------

WEEKDAY_CASES = [
    (1, 1, 0.0),   # Monday vs Monday
    (1, 5, 0.5),   # Monday vs Friday: both workdays
    (6, 7, 0.5),   # Saturday vs Sunday: both weekend
    (5, 6, 1.0),   # Friday vs Saturday: across the class border
    (7, 3, 1.0),
    (2, 2, 0.0),
]


@pytest.mark.parametrize("wi,wj,expected", WEEKDAY_CASES)
def test_weekday_distance_case_table(wi, wj, expected):
    assert weekday_distance(wi, wj) == expected
    assert weekday_distance(wj, wi) == expected


def test_weekday_distance_only_takes_three_values():
    values = {float(weekday_distance(i, j)) for i in range(1, 8) for j in range(1, 8)}
    assert values == {0.0, 0.5, 1.0}


def test_season_distance_wraps_around_the_year_end():
    assert season_distance(1, 365, 365) == pytest.approx(1 / 182, abs=1e-12)
    assert season_distance(1, 182, 365) == pytest.approx(181 / 182, abs=1e-12)
    assert season_distance(1, 366, 366) == pytest.approx(1 / 183, abs=1e-12)


def test_season_distance_is_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    for s in (365, 366):
        for _ in range(200):
            a, b = int(rng.integers(1, s + 1)), int(rng.integers(1, s + 1))
            d = season_distance(a, b, s)
            assert d == season_distance(b, a, s)
            assert 0.0 <= d <= 1.0


def test_combined_dissimilarity_weighted_sum():
    weights = DissimilarityWeights(5, 1, 10)
    assert combine_distances(weights, 0.2, 0.5, 0.1) == pytest.approx(2.5, abs=1e-12)


def test_default_weights_are_the_tuned_selection():
    from meterfill import DEFAULT_WEIGHTS

    assert (DEFAULT_WEIGHTS.energy, DEFAULT_WEIGHTS.weekday, DEFAULT_WEIGHTS.season) == (
        5.0, 1.0, 10.0,
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_weights_must_be_finite(bad):
    for weights in ((bad, 1, 10), (5, bad, 10), (5, 1, bad)):
        with pytest.raises(ValidationError, match="must be finite"):
            DissimilarityWeights(*weights)


def test_weights_must_be_usable():
    with pytest.raises(ValidationError, match="non-negative"):
        DissimilarityWeights(-1, 1, 1)
    with pytest.raises(ValidationError, match="positive"):
        DissimilarityWeights(0, 0, 0)


def test_dissimilarity_of_identical_days_is_zero_energy_term():
    a = record(date(2018, 3, 5), total=50.0)
    b = record(date(2018, 3, 5), total=50.0, complete=True)
    assert dissimilarity(a, b, DissimilarityWeights(5, 1, 10), 365, 100.0) == 0.0


def test_dissimilarity_composes_the_three_components():
    a = record(date(2018, 1, 1), total=2.0)            # Monday, doy 1
    b = record(date(2018, 4, 13), total=0.0, complete=True)  # Friday, doy 103
    expected = 5 * 0.2 + 1 * 0.5 + 10 * (102 / 182)
    got = dissimilarity(a, b, DissimilarityWeights(5, 1, 10), 365, 10.0)
    assert got == pytest.approx(expected, abs=1e-12)


def test_component_ranges_stay_normalized():
    rng = np.random.default_rng(23)
    weights = DissimilarityWeights(1.0, 1.0, 1.0)
    for _ in range(200):
        da = record(date(2018, 1, 1) + timedelta(days=int(rng.integers(365))),
                    total=float(rng.uniform(10, 60)))
        db = record(date(2018, 1, 1) + timedelta(days=int(rng.integers(365))),
                    total=float(rng.uniform(10, 60)), complete=True)
        assert 0.0 <= dissimilarity(da, db, weights, 365, 50.0) <= 3.0


# ---------------------------------------------------------------------------
# Best-match selection
# ---------------------------------------------------------------------------


def _fig1_candidates():
    """Twelve complete days of two weeks, first Friday and Saturday missing."""
    days = []
    for i in range(14):
        day = MONDAY.date() + timedelta(days=i)
        if day in (date(2018, 1, 5), date(2018, 1, 6)):
            continue
        total = 24.0 if day != date(2018, 1, 12) else 24.0
        days.append(record(day, total=total, complete=True))
    return days


def test_second_friday_is_selected_at_dissimilarity_0_4():
    # Crafted so the winning day's dissimilarity is exactly 0.4 under
    # weights (20, 1, 5): 20 * (0.27/26) + 0 + 5 * (7/182) = 0.4.
    weights = DissimilarityWeights(20, 1, 5)
    norm = 365, 26.0  # day totals ranging over 20 .. 46 kWh
    target = record(date(2018, 1, 5), total=24.27, estimated=True)
    candidates = _fig1_candidates()
    best = candidates[best_donors([target], candidates, weights, *norm)[0]]
    assert best.date == date(2018, 1, 12)  # the second Friday
    assert dissimilarity(target, best, weights, *norm) == pytest.approx(0.4, abs=1e-9)
    others = [dissimilarity(target, c, weights, *norm) for c in candidates if c is not best]
    assert min(others) > 0.4


def test_single_candidate_is_returned():
    target = record(date(2018, 1, 5), total=10.0)
    only = record(date(2018, 1, 8), total=99.0, complete=True)
    assert [only][best_donors([target], [only], DissimilarityWeights(), 365, 100.0)[0]] is only


def test_ties_break_on_calendar_distance_then_earlier_date():
    weights = DissimilarityWeights(1, 0, 0)  # energy only; equal totals tie
    norm = 365, 10.0
    target = record(date(2018, 6, 15), total=5.0)
    near = record(date(2018, 6, 12), total=5.0, complete=True)   # 3 days away
    far = record(date(2018, 6, 25), total=5.0, complete=True)    # 10 days away
    assert [far, near][best_donors([target], [far, near], weights, *norm)[0]] is near
    before = record(date(2018, 6, 12), total=5.0, complete=True)
    after = record(date(2018, 6, 18), total=5.0, complete=True)
    assert [after, before][best_donors([target], [after, before], weights, *norm)[0]] is before


def test_empty_candidate_list_is_an_error():
    days = table(date(2018, 1, 5), [1.0])
    with pytest.raises(ImputationError, match="no complete day available"):
        match_table(days, np.array([1.0]), np.array([0]), np.array([], dtype=np.int64),
                    np.array([0]))


def test_unanchored_day_matches_on_weekday_and_season_only():
    target = record(date(2018, 1, 5))  # no total available
    same_weekday_far_energy = record(date(2018, 1, 12), total=10.0, complete=True)
    close_energy_other_class = record(date(2018, 1, 6), total=0.0, complete=True)
    candidates = [close_energy_other_class, same_weekday_far_energy]
    weights = DissimilarityWeights(50, 1, 1)
    best = candidates[best_donors([target], candidates, weights, 365, 10.0)[0]]
    assert best is same_weekday_far_energy


def test_scaling_all_weights_keeps_the_selection():
    rng = np.random.default_rng(31)
    norm = 365, 50.0
    candidates = [
        record(MONDAY.date() + timedelta(days=int(d)), total=float(rng.uniform(0, 50)),
               complete=True)
        for d in rng.choice(300, size=40, replace=False)
    ]
    base = DissimilarityWeights(5, 1, 10)
    for _ in range(20):
        target = record(
            MONDAY.date() + timedelta(days=int(rng.integers(300, 360))),
            total=float(rng.uniform(0, 50)),
        )
        chosen = candidates[best_donors([target], candidates, base, *norm)[0]]
        for c in (2.0, 0.5, 8.0, 3.0):
            scaled = DissimilarityWeights(5 * c, 1 * c, 10 * c)
            best = candidates[best_donors([target], candidates, scaled, *norm)[0]]
            assert best.date == chosen.date


def test_matrix_match_agrees_with_the_scalar_oracle():
    # Random weights make distinct dissimilarities differ by far more than
    # rounding; discrete totals, zero weights and dates at equal distances
    # make exact ties, which both sides must break the same way.
    rng = np.random.default_rng(47)
    year = [date(2020, 1, 1) + timedelta(days=d) for d in range(366)]  # leap year
    for trial in range(60):
        raw = rng.uniform(0.1, 10.0, 3) * (rng.random(3) > 0.3)
        if not raw.any():
            raw[int(rng.integers(3))] = 1.0
        weights = DissimilarityWeights(*raw)
        norm = 366, 15.0
        picks = rng.choice(366, size=int(rng.integers(2, 40)), replace=False)
        candidates = [
            record(year[d], total=float(rng.choice([5.0, 12.5, 20.0])), complete=True)
            for d in picks
        ]
        days = [
            record(year[d], total=None if rng.random() < 0.3 else float(rng.choice([5.0, 12.5])))
            for d in rng.integers(0, 366, size=8)
        ]
        keep = rng.random((len(days), len(candidates))) < 0.7
        keep[np.arange(len(days)), rng.integers(len(candidates), size=len(days))] = True

        chosen = best_donors(days, candidates, weights, *norm, keep)
        for day, row, j in zip(days, keep, chosen):
            kept = [c for c, k in zip(candidates, row) if k]
            expected = min(kept, key=lambda c: (
                dissimilarity(day, c, weights, *norm), abs((c.date - day.date).days), c.date,
            ))
            assert candidates[j].date == expected.date, (trial, day.date)
        for day in days:  # one row, no keep mask: every candidate competes
            expected = min(candidates, key=lambda c: (
                dissimilarity(day, c, weights, *norm), abs((c.date - day.date).days), c.date,
            ))
            assert candidates[best_donors([day], candidates, weights, *norm)[0]] is expected


def test_matrix_match_runs_the_distance_rules_under_test():
    # The truth tables above test these two functions; the match must use them.
    # Only the rows' and candidates' known totals set the range: 5 - 1.
    days = table(date(2018, 1, 5), [1.0] * 6)
    total = np.array([1.0, np.nan, 9.0, 3.0, 2.0, 5.0])
    with (
        mock.patch("meterfill.cpi.weekday_distance", wraps=weekday_distance) as weekday,
        mock.patch("meterfill.cpi.season_distance", wraps=season_distance) as season,
    ):
        match = match_table(days, total, np.array([0, 1]), np.array([3, 4, 5]), np.array([0, 0]))
        block = _match_block(match)
    assert (weekday.call_count, season.call_count) == (1, 1)
    assert match.energy_range == 4.0
    assert np.array_equal(block.weekday, weekday_distance(
        np.array([[5], [6]]), days.weekday[block.donor]))
    assert np.array_equal(block.season, season_distance(
        np.array([[5], [6]]), days.day_of_year[block.donor], 365))


def test_matrix_match_needs_a_kept_candidate_on_every_row():
    # The last day has 20 slots: it cannot fill the second row's slot 22.
    days = table(date(2018, 1, 5), [1.0] * 3)
    days = DayTable(days.first, days.start, np.array([24, 48, 68]), *(
        getattr(days, name) for name in ("missing", "known_energy", "full_day")))
    total = np.ones(3)
    match = match_table(days, total, np.array([0, 1]), np.array([2]), np.array([5, 19]))
    assert _match_block(match).keep.tolist() == [[True], [True]]
    with pytest.raises(ImputationError, match="no complete day available"):
        match_table(days, total, np.array([0, 1]), np.array([2]), np.array([5, 22]))


def _tied_rows(block, energy_range, triple):
    """Rows of ``block`` whose least dissimilarity is reached more than once."""
    w_energy, w_weekday, w_season = triple
    value = w_weekday * block.weekday + w_season * block.season
    value = value + w_energy * block.energy / energy_range
    value[~block.keep] = np.inf
    return int(((value == value.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())


def test_batched_match_agrees_with_the_lexsort_oracle_for_every_triple(monkeypatch):
    # Integer weights over a few discrete totals make exact ties on many
    # rows; zero weights, missing totals (days touched by an unanchored
    # boundary gap), per-row keep masks and both cycle lengths cover the
    # other branches.  The keep masks are random, which no row's last
    # missing slot can give, so the triple picker scores the oracle's dense
    # block directly.  Each triple must pick the oracle's donor, in one
    # batch and in batches of five triples (the last one shorter).
    rng = np.random.default_rng(53)
    triples = [
        (w_energy, w_weekday, w_season)
        for w_energy in range(4) for w_weekday in range(3) for w_season in range(4)
        if w_energy + w_weekday + w_season
    ]
    ties = 0
    for trial in range(30):
        cycle = (365, 366)[trial % 2]
        first = date(2019 + trial % 2, 1, 1)  # 2020 is a leap year
        picks = rng.choice(cycle, size=int(rng.integers(1, 60)), replace=False)
        candidates = [
            record(first + timedelta(days=int(d)), total=float(rng.choice([4.0, 8.0, 12.0])),
                   complete=True)
            for d in picks
        ]
        days = [
            record(first + timedelta(days=int(d)),
                   total=None if rng.random() < 0.3 else float(rng.choice([4.0, 8.0, 16.0])))
            for d in rng.integers(0, cycle, size=int(rng.integers(0, 12)))
        ]
        keep = rng.random((len(days), len(candidates))) < 0.6
        keep[np.arange(len(days)), rng.integers(len(candidates), size=len(days))] = True

        block = plan_oracle.match_table(days, candidates, cycle, keep)
        batched = cpi._pick_donors(block, 12.0, triples)
        with monkeypatch.context() as patch:
            patch.setattr(cpi, "_BATCH_ENTRIES", 5 * len(days) * len(candidates))
            assert np.array_equal(cpi._pick_donors(block, 12.0, triples), batched)
        assert batched.shape == (len(triples), len(days))
        for triple, donors in zip(triples, batched):
            expected = lexsort_donors(days, candidates, DissimilarityWeights(*triple), cycle, 12.0,
                                      keep)
            assert donors.tolist() == expected.tolist(), (trial, triple)
            ties += _tied_rows(block, 12.0, triple)
    assert ties > 1000  # the tie-break decided many rows


def _off_grid_triples(rng, count):
    """Random non-negative weight triples, some weights zero, none all zero."""
    triples = []
    for _ in range(count):
        raw = rng.uniform(0.1, 9.0, 3) * (rng.random(3) < 0.7)
        if not raw.any():
            raw[int(rng.integers(3))] = 1.0
        triples.append(tuple(raw.tolist()))
    return triples


def test_shared_terms_give_each_triple_its_own_donors(monkeypatch):
    # Shuffled, duplicated and off-grid triple lists, zero weights among
    # them, on blocks with random keep masks: every triple's donors equal
    # a one-triple call's and the lexsort oracle's.  A batch bound cut to
    # one entry, and to two candidate rows, splits the energy weights into
    # chunks of one and of two, and the donors do not move.
    rng = np.random.default_rng(61)
    grid = [
        (w_energy, w_weekday, w_season)
        for w_energy in (0, 1, 2.5, 4) for w_weekday in (0, 2) for w_season in (0, 1, 3)
        if w_energy + w_weekday + w_season
    ]
    for trial in range(10):
        cycle = (365, 366)[trial % 2]
        first = date(2019 + trial % 2, 1, 1)
        picks = rng.choice(cycle, size=int(rng.integers(2, 50)), replace=False)
        candidates = [
            record(first + timedelta(days=int(d)), total=float(rng.choice([4.0, 8.0, 12.0])),
                   complete=True)
            for d in picks
        ]
        days = [
            record(first + timedelta(days=int(d)),
                   total=None if rng.random() < 0.3 else float(rng.choice([4.0, 8.0, 16.0])))
            for d in rng.integers(0, cycle, size=int(rng.integers(1, 10)))
        ]
        keep = rng.random((len(days), len(candidates))) < 0.6
        keep[np.arange(len(days)), rng.integers(len(candidates), size=len(days))] = True
        block = plan_oracle.match_table(days, candidates, cycle, keep)

        shuffled = [grid[i] for i in rng.permutation(len(grid))]
        for triples in (shuffled, shuffled[:6] * 2 + shuffled[::4], _off_grid_triples(rng, 14)):
            shared = cpi._pick_donors(block, 12.0, triples)
            assert shared.shape == (len(triples), len(days))
            energies = len({w_energy for w_energy, _, _ in triples})
            for entries, chunk in ((1, 1), (2 * len(candidates), 2)):
                with monkeypatch.context() as patch:
                    patch.setattr(cpi, "_BATCH_ENTRIES", entries)
                    groups = cpi._group_triples(triples, len(candidates))
                    assert len(groups.chunks) == -(-energies // chunk)
                    assert cpi._pick_donors(block, 12.0, triples).tobytes() == shared.tobytes()
            for triple, donors in zip(triples, shared):
                assert donors.tolist() == cpi._pick_donors(block, 12.0, [triple])[0].tolist()
                expected = lexsort_donors(days, candidates, DissimilarityWeights(*triple), cycle,
                                          12.0, keep)
                assert donors.tolist() == expected.tolist(), (trial, triple)


def test_shared_term_matching_of_a_plan_is_each_triples_own_match():
    # The batched match of a one-year plan, on a shuffled grid with zero
    # weights, repeated triples and off-grid ones, gives every triple the
    # donors of its own one-triple match and of the lexsort oracle.
    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    rng = np.random.default_rng(67)
    degraded, _ = insert_missing(synthetic_series(3), MissingnessSpec(share=0.1, seed=3))
    plan = plan_cpi(degraded)
    grid = [(w_energy, w_weekday, w_season)
            for w_energy in (0, 2, 5) for w_weekday in (0, 1) for w_season in (0, 4, 10)
            if w_energy + w_weekday + w_season]
    triples = [grid[i] for i in rng.permutation(len(grid))]
    triples += triples[:3] + _off_grid_triples(rng, 6)
    batched = match_weights(plan.table, triples)

    oracle = plan_oracle.plan_cpi(degraded)
    gap_days = [r for r in oracle.records if not r.is_complete]
    table = plan.table
    keep = table.days.slots[table.candidates] > table.last_slot[:, None]
    for triple, donors in zip(triples, batched):
        assert donors.tobytes() == match_weights(table, [triple])[0].tobytes()
        best = lexsort_donors(gap_days, oracle.candidate_records, DissimilarityWeights(*triple),
                              oracle.cycle_length, oracle.energy_range, keep)
        assert donors.tolist() == oracle.candidates[best].tolist(), triple


@pytest.mark.parametrize(
    "bad, message",
    [
        ((float("nan"), 1, 1), "dissimilarity weights must be finite"),
        ((1, float("inf"), 1), "dissimilarity weights must be finite"),
        ((-1, 1, 1), "dissimilarity weights must be non-negative"),
        ((0, 0, 0), "at least one dissimilarity weight must be positive"),
    ],
    ids=["nan", "inf", "negative", "all-zero"],
)
def test_match_weights_refuses_the_triples_that_dissimilarity_weights_refuses(bad, message):
    # Alone, among good triples, and before another bad triple, whose error
    # is not the one raised.
    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    degraded, _ = insert_missing(synthetic_series(3, days=42), MissingnessSpec(share=0.1, seed=3))
    table = plan_cpi(degraded).table
    with pytest.raises(ValidationError, match=message):
        DissimilarityWeights(*bad)
    other = (0, 0, 0) if bad != (0, 0, 0) else (-1, 1, 1)
    for triples in ([bad], [(5, 1, 10), (1, 0, 0), bad, (2, 1, 1)], [(1, 1, 1), bad, other]):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            match_weights(table, triples)


@pytest.mark.parametrize(
    "triples",
    [[(5, 1, 10, 1, 0, 3)], [5, 1, 10], [(5, 1)], [(5, 1, 10), (1, 0)], [(5, 1, 10), "abc"],
     [[]]],
    ids=["six-wide", "flat", "two-wide", "ragged", "not-numbers", "one-empty"],
)
def test_match_weights_takes_only_rows_of_three_weights(triples):
    """A list that is not of (energy, weekday, season) rows is refused, not reshaped."""
    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    degraded, _ = insert_missing(synthetic_series(3, days=42), MissingnessSpec(share=0.1, seed=3))
    table = plan_cpi(degraded).table
    with pytest.raises(ValidationError, match=r"^weights must be a list of \(energy, weekday"):
        match_weights(table, triples)
    for empty in ([], np.empty((0, 3))):
        assert match_weights(table, empty).shape == (0, table.rows.size)


def test_gather_returns_the_layout_of_its_pieces():
    """The values come with each one's position in ``layout.missing`` and its piece."""
    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    degraded, _ = insert_missing(synthetic_series(3, days=42), MissingnessSpec(share=0.2, seed=3))
    plan = plan_cpi(degraded)
    layout = plan.layout
    donors = match_weights(plan.table, [(5, 1, 10), (1, 0, 3)])
    gap = np.array([2, 0, 2])
    values, position, piece = cpi._gather(plan.power, layout, donors, gap, np.array([1, 0, 0]))
    want = cpi._piece_slots(layout.gap_slots[gap])
    assert [position.tolist(), piece.tolist()] == [laid.tolist() for laid in want]
    assert len(values) == len(position)
    values, position, piece = cpi._gather(plan.power, layout, donors)
    assert position.tolist() == list(range(layout.missing.size))
    assert not piece.any()


def test_an_excluded_candidate_stays_out_where_the_energy_term_is_nan():
    # Day totals of -1e308 and 1e308 differ by more than the largest float,
    # so a zero energy weight's term is 0 * inf = NaN there.  Each row's
    # nearest candidate is excluded and has such a NaN term: the exclusion
    # goes on the sum, or inf + NaN would hand argmin that candidate.
    first = date(2019, 3, 4)
    candidates = [record(first + timedelta(days=d), total=total, complete=True)
                  for d, total in ((1, -1e308), (2, -1e308), (3, 1e308), (9, 1e308))]
    days = [record(first, total=1e308), record(first + timedelta(days=10), total=-1e308)]
    keep = np.array([[False, True, True, True], [True, True, True, False]])
    triples = [(0, 1, 1), (2, 1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1)]
    rows = np.arange(len(days))
    with np.errstate(over="ignore", invalid="ignore"):
        block = plan_oracle.match_table(days, candidates, 365, keep)
        assert not block.keep[:, 0].any() and np.isinf(block.energy[:, 0]).all()
        shared = cpi._pick_donors(block, 1.0, triples)
        for (w_energy, w_weekday, w_season), donors in zip(triples, shared):
            value = w_weekday * block.weekday + w_season * block.season
            value = value + w_energy * block.energy / 1.0
            value[~block.keep] = np.inf
            column = value.argmin(axis=1)
            assert block.keep[rows, column].all()
            assert donors.tolist() == block.donor[rows, column].tolist()
            assert keep[rows, donors].all()


def test_sixty_energy_weights_on_four_years_hold_no_full_table():
    # One row of four years' candidates under sixty energy weights passes
    # the batch bound, so the weights go in chunks.  The match stays under
    # the bound that planning and a one-triple match keep
    # (test_planning_and_matching_four_years_hold_no_full_table), and above
    # its donors it holds a few batch-sized temporaries at most.
    import tracemalloc

    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    degraded, _ = insert_missing(synthetic_series(5, days=1461),
                                 MissingnessSpec(share=0.3, seed=3))
    triples = [(w_energy, 0, 1) for w_energy in range(1, 61)]
    tracemalloc.start()
    try:
        plan = plan_cpi(degraded)
        held = tracemalloc.get_traced_memory()[0]
        donors = match_weights(plan.table, triples)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        match_weights(plan.table, triples)
        own = tracemalloc.get_traced_memory()[1] - held - donors.nbytes
    finally:
        tracemalloc.stop()
    assert len(triples) * plan.table.candidates.size > cpi._BATCH_ENTRIES
    assert len(cpi._group_triples(triples, plan.table.candidates.size).chunks) > 1
    assert peak < 8 * degraded.values.nbytes
    assert own < 6 * 8 * cpi._BATCH_ENTRIES + donors.nbytes


def test_match_table_orders_each_row_by_calendar_distance_then_date():
    days = table(date(2018, 6, 12), [5.0] * 14)  # 2018-06-12 .. 06-25
    candidates = np.array([0, 2, 6, 13])  # the 12th, 14th, 18th and 25th
    block = _match_block(match_table(days, np.full(14, 5.0), np.array([3]), candidates,
                                     np.array([0])))
    assert (12 + block.donor[0]).tolist() == [14, 12, 18, 25]
    assert block.keep.all()
    assert block.energy.tolist() == [[0.0] * 4]


def test_equal_day_totals_leave_the_donors_to_weekday_and_season():
    # Every day holds 7 kWh.  The energy range must stay positive so the
    # energy term is 0, not 0 / 0: a NaN term would hand each row its
    # nearest candidate whatever the weights.
    days = table(MONDAY.date(), [7.0] * 21)  # 2018-01-01 .. 01-21
    rows = np.array([3, 12])  # Thursday the 4th and Saturday the 13th
    candidates = np.setdiff1d(np.arange(21), rows)
    match = match_table(days, np.full(21, 7.0), rows, candidates, np.array([0, 0]))
    assert 0.0 < match.energy_range < np.inf
    donors = match_weights(match, [(5, 1, 10), (5, 1, 0), (5, 0, 10)])
    assert (1 + donors).tolist() == [[11, 6], [11, 6], [3, 12]]


def test_unknown_day_totals_leave_the_donors_to_weekday_and_season():
    # No row or candidate has a known total (every day touched by an
    # unanchored boundary gap): every energy term is 0 and the range is 1.
    days = table(date(2018, 1, 5), [1.0] * 3)
    match = match_table(days, np.full(3, np.nan), np.array([0]), np.array([2]), np.array([0]))
    block = _match_block(match)
    assert (match.energy_range, block.energy.tolist()) == (1.0, [[0.0]])
    assert block.donor.tolist() == [[2]]

    days = table(MONDAY.date(), [7.0] * 21)
    rows = np.array([3, 12])
    match = match_table(days, np.full(21, np.nan), rows, np.setdiff1d(np.arange(21), rows),
                        np.array([0, 0]))
    donors = match_weights(match, [(5, 1, 10), (5, 1, 0), (5, 0, 10)])
    assert (1 + donors).tolist() == [[11, 6], [11, 6], [3, 12]]  # as with equal totals


@pytest.mark.parametrize("first, cycle", [(date(2020, 2, 1), 366), (date(2020, 1, 31), 365)])
def test_season_cycle_is_366_days_when_the_table_holds_29_february(first, cycle):
    # 29 days from the 1st of February 2020 end on the 29th; from the 31st
    # of January they end on the 28th.
    days = table(first, [1.0] * 29)
    match = match_table(days, np.ones(29), np.array([0]), np.array([1, 28]), np.array([0]))
    assert _match_block(match).season.tolist() == [[1 / (cycle // 2), 28 / (cycle // 2)]]


def test_plan_match_uses_the_table_built_with_the_plan(year_series):
    degraded = with_missing(year_series, range(5000, 5400))
    plan = plan_cpi(degraded)
    days = plan.table.days
    candidates = np.flatnonzero((days.missing == 0) & days.full_day)
    assert _match_block(plan.table).donor.shape == (plan.layout.days.size, candidates.size)
    with mock.patch("meterfill.cpi.match_table", wraps=match_table) as build:
        result = run_plan(plan, plan_donors(plan, DissimilarityWeights()))
    assert build.call_count == 0
    matches = matched_days(plan, DissimilarityWeights())
    assert dict(pair for fill in result.per_gap for pair in fill.sources) == matches
    oracle = plan_oracle.plan_cpi(degraded)
    gap_days = [r for r in oracle.records if not r.is_complete]
    candidates = oracle.candidate_records
    best = lexsort_donors(gap_days, candidates, DissimilarityWeights(), oracle.cycle_length,
                          oracle.energy_range)
    assert matches == {r.date: candidates[j].date for r, j in zip(gap_days, best)}


# ---------------------------------------------------------------------------
# Copy, paste and scale
# ---------------------------------------------------------------------------


def _gap_series(day1_power, actual_gap_power, missing_slots=(1, 2, 3, 4)):
    """Three hourly days; Tuesday's `missing_slots` power values removed."""
    levels = np.concatenate(
        [np.asarray(day1_power, float), np.asarray(actual_gap_power, float),
         np.ones(72 - len(day1_power) - len(actual_gap_power))]
    )
    values = np.concatenate(([0.0], np.cumsum(levels)))
    es = energy(values)
    first = 24 + missing_slots[0]
    es = with_missing(es, range(first + 1, first + len(missing_slots)))
    return es


def _paste_dates(ps, layout, matches, es, scale=True):
    """The completed paste of ``matches``, a ``day with gaps -> donor day`` dict."""
    first = ps.start.date()
    donors = [(matches[first + timedelta(days=d)] - first).days for d in layout.days.tolist()]
    imputed, per_gap = copy_paste_and_scale(ps, layout, np.array(donors, dtype=np.int64), scale)
    return complete_from_power(es, imputed, per_gap)


def _paste(es, matches, scale=True):
    ps = energy_to_power(es)
    return _paste_dates(ps, paste_layout(ps, detect_gaps(es)), matches, es, scale)


def _donor_short_of_metered_energy():
    """Donor slots hold 2 kW (8 kWh pasted); the gap meters 10 kWh over 4 hours."""
    day1 = np.ones(24)
    day1[1:5] = 2.0
    day2 = np.ones(24)
    day2[1:5] = 2.5
    levels = np.concatenate([day1, day2, np.ones(24)])
    es = energy(np.concatenate(([0.0], np.cumsum(levels))))
    es = with_missing(es, range(26, 29))  # readings 02:00-04:00 of Tuesday
    (gap,) = detect_gaps(es).records
    assert gap.actual_energy == pytest.approx(10.0)
    return es, gap


def test_scaling_follows_the_energy_ratio():
    es, gap = _donor_short_of_metered_energy()
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([2.5, 2.5, 2.5, 2.5])
    assert result.per_gap[0].scale == pytest.approx(10.0 / 8.0)
    assert result.per_gap[0].sources == ((date(2018, 1, 2), date(2018, 1, 1)),)


def test_unscaled_paste_keeps_its_energy_miss_in_the_imputed_power():
    es, gap = _donor_short_of_metered_energy()
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)}, scale=False)
    span = slice(gap.first_missing, gap.last_missing + 1)
    assert result.imputed_power.values[span] == pytest.approx([2.0, 2.0, 2.0, 2.0])
    assert result.imputed_power.values[span].sum() * 1.0 == pytest.approx(8.0)
    assert result.per_gap[0].fallback == "unscaled"
    # The completed series still meet the metered right anchor: the last
    # slot of the gap carries the 2 kWh miss as a jump.
    e = result.completed_energy.values
    p = result.completed_power.values
    assert_untouched(es, e)
    assert e[gap.last_missing] + p[gap.last_missing] * 1.0 == pytest.approx(gap.anchor_after)
    assert p[span] == pytest.approx([2.0, 2.0, 2.0, 4.0])
    assert np.array_equal(energy_to_power(result.completed_energy).values, p)


def test_identical_energy_needs_no_scaling():
    day = np.ones(24)
    day[1:5] = 2.0
    es = energy(np.concatenate(([0.0], np.cumsum(np.tile(day, 3)))))
    es = with_missing(es, range(26, 29))
    (gap,) = detect_gaps(es).records
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})
    assert result.per_gap[0].scale == pytest.approx(1.0)
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([2.0, 2.0, 2.0, 2.0])


def test_zero_pasted_energy_falls_back_to_uniform_fill():
    levels = np.concatenate([np.zeros(24), np.ones(24), np.ones(24)])
    es = energy(np.concatenate(([0.0], np.cumsum(levels))))
    es = with_missing(es, range(26, 29))  # 4 missing power values, 4 kWh metered
    (gap,) = detect_gaps(es).records
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})
    fill = result.per_gap[0]
    assert fill.fallback == "uniform"
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([1.0, 1.0, 1.0, 1.0])  # 4 kWh over 4 h


def test_opposite_sign_energy_falls_back_to_uniform_fill():
    levels = np.concatenate([np.ones(24), -np.ones(24), np.ones(24)])
    es = energy(np.concatenate(([10.0], np.cumsum(levels) + 10.0)),
                kind=MeterKind.GENERATION)
    es = with_missing(es, range(26, 29))
    (gap,) = detect_gaps(es).records
    assert gap.actual_energy == pytest.approx(-4.0)
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})
    assert result.per_gap[0].fallback == "uniform"
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([-1.0, -1.0, -1.0, -1.0])


def test_rebuilt_energy_meets_the_right_anchor():
    day = np.ones(24)
    day[5:9] = 3.0
    es = energy(np.concatenate(([0.0], np.cumsum(np.tile(day, 3) * 1.1))))
    es = with_missing(es, range(26, 33))
    (gap,) = detect_gaps(es).records
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})
    e = result.completed_energy.values
    p = result.completed_power.values
    assert e[gap.last_missing] + p[gap.last_missing] * 1.0 == pytest.approx(
        gap.anchor_after, abs=1e-9
    )
    assert_untouched(es, e)


def test_donor_outside_the_series_is_an_imputation_error():
    es = with_missing(energy(np.arange(73.0)), range(26, 29))
    with pytest.raises(ImputationError, match="2018-01-09"):
        _paste(es, {date(2018, 1, 2): date(2018, 1, 9)})


@pytest.mark.parametrize("row", [-800000, 5000000, 2**62])
def test_donor_row_beyond_any_date_is_an_imputation_error(row):
    """A row no ``datetime.date`` holds is named by its number.

    Row 2**62 would wrap to day 0 in the index arithmetic, whose slots are
    present, so the rows are checked against the series before it.
    """
    from meterfill import synthetic_series

    es = with_missing(synthetic_series(3, days=60, slots_per_day=24), range(49, 53))
    ps = energy_to_power(es)
    layout = paste_layout(ps, detect_gaps(es))
    assert layout.days.tolist() == [2]
    with pytest.raises(
        ImputationError, match=f"matched day at row {row} does not cover all slots needed by "
    ):
        copy_paste_and_scale(ps, layout, np.array([row]))


@pytest.mark.parametrize("donors", [[], [0, 0], [0.0]], ids=["empty", "too-long", "float"])
def test_donors_other_than_one_integer_row_per_day_are_an_imputation_error(donors):
    es = with_missing(energy(np.arange(73.0)), range(26, 29))
    ps = energy_to_power(es)
    layout = paste_layout(ps, detect_gaps(es))
    assert layout.days.tolist() == [1]
    with pytest.raises(ImputationError, match="integer donor row"):
        copy_paste_and_scale(ps, layout, np.array(donors))


def test_donor_missing_a_needed_slot_is_an_imputation_error():
    # From 06:00 the first day has no 02:00-05:00 slots to give.
    es = with_missing(energy(np.arange(73.0), start=MONDAY + 6 * HOUR), range(21, 24))
    with pytest.raises(
        ImputationError,
        match="matched day 2018-01-01 does not cover all slots needed by 2018-01-02",
    ):
        _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})


def test_incomplete_donor_is_an_imputation_error():
    es = with_missing(energy(np.arange(73.0)), range(26, 29))
    with pytest.raises(ImputationError, match="matched day 2018-01-02 is not complete"):
        _paste(es, {date(2018, 1, 2): date(2018, 1, 2)})


def test_paste_across_midnight_copies_each_day_from_its_own_donor():
    start = MONDAY + 6 * HOUR  # power index 0 is 06:00 on 2018-01-01
    levels = np.random.default_rng(5).uniform(0.5, 2.0, 120)
    es = energy(np.concatenate(([0.0], np.cumsum(levels))), start=start)
    es = with_missing(es, range(41, 45))  # power 2018-01-02 22:00 to 01-03 02:00
    donors = {date(2018, 1, 2): date(2018, 1, 5), date(2018, 1, 3): date(2018, 1, 4)}
    result = _paste(es, donors, scale=False)
    (fill,) = result.per_gap
    assert fill.sources == tuple(donors.items())
    p = energy_to_power(es)
    for i in range(fill.gap.first_missing, fill.gap.last_missing + 1):
        when = p.timestamp(i)
        donor_when = datetime.combine(donors[when.date()], when.time())
        assert result.imputed_power.values[i] == p.values[(donor_when - start) // HOUR]


# ---------------------------------------------------------------------------
# The paste layout against the per-call oracle
# ---------------------------------------------------------------------------


def _outcome(paste, *args):
    """The result of a paste, or the type and text of its error."""
    try:
        return paste(*args)
    except MeterfillError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ("completed_power", "completed_energy", "imputed_power"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.start, a.resolution) == (b.start, b.resolution), name
        assert a.values.tobytes() == b.values.tobytes(), name
    assert got.completed_energy.meter_kind == want.completed_energy.meter_kind
    assert got.per_gap == want.per_gap
    assert repr(got.per_gap) == repr(want.per_gap)  # the same floats, signed zeros included


@st.composite
def _paste_inputs(draw):
    """A few days of readings with gaps, and donors for every day with gaps.

    Resolutions of 5 min, 15 min and 1 h; starts at 00:00, 07:00 and 13:00,
    one of them spanning 2020-02-29.  Gaps may touch either end of the
    series or span more than a day.  A generation meter's days may run at
    zero or reversed power, so a donor can paste nothing or the opposite
    sign and force the uniform fallback.  Most draws match every day with
    gaps to a donor that can fill it; some match a day to any day in or
    near the series, or leave a day out, so the errors are compared too.
    """
    resolution = draw(st.sampled_from([timedelta(minutes=5), QUARTER_HOUR, HOUR]))
    spd = timedelta(days=1) // resolution
    day0 = draw(st.sampled_from([date(2018, 1, 1), date(2020, 2, 26)]))
    start = datetime.combine(day0, time(draw(st.sampled_from([0, 7, 13]))))
    offset = (start - datetime.combine(day0, time())) // resolution
    days = draw(st.integers(3, 8))
    n = days * spd + draw(st.integers(-offset, spd // 2))
    kind = draw(st.sampled_from(list(MeterKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    slot = offset + np.arange(n - 1)
    levels = [0.5, 1.0, 2.0] if kind is MeterKind.CONSUMPTION else [-1.0, 0.0, 1.0, 2.0]
    level = rng.choice(levels, size=days + 2)[slot // spd]
    shape = 1.0 + np.sin(2 * np.pi * (slot % spd) / spd) + 0.1 * rng.random(n - 1)
    power_values = level * shape
    dt = resolution / HOUR
    values = 100.0 + np.concatenate(([0.0], np.cumsum(power_values * dt)))

    missing = np.zeros(n, dtype=bool)
    kinds = st.sampled_from(["head", "tail", "long", "short"])
    for where in draw(st.lists(kinds, min_size=1, max_size=4)):
        length = draw(st.integers(1, spd + spd // 2 if where == "long" else spd // 2))
        length = min(length, n - 2)
        first = {"head": 0, "tail": n - length}.get(where)
        if first is None:
            first = draw(st.integers(0, n - length))
        missing[first : first + length] = True
    if missing.all() or missing[1:-1].all():
        missing[n // 2] = False
    es = EnergySeries(start, resolution, np.where(missing, np.nan, values), meter_kind=kind)
    ps = energy_to_power(es)

    # Every donor day that can fill each day with gaps, by brute force.
    idx = np.flatnonzero(np.isnan(ps.values))
    gap_day = (offset + idx) // spd
    matches = {}
    for d in np.unique(gap_day).tolist():
        own = idx[gap_day == d]
        valid = []
        for c in range(-1, days + 2):
            src = own + (c - d) * spd
            if src.min() >= 0 and src.max() < ps.n and not np.isnan(ps.values[src]).any():
                valid.append(c)
        if valid and draw(st.integers(0, 15)) > 0:
            c = draw(st.sampled_from(valid))
        elif draw(st.integers(0, 3)) == 0:
            continue  # this day gets no donor
        else:
            c = draw(st.integers(-2, days + 2))
        matches[day0 + timedelta(days=d)] = day0 + timedelta(days=c)
    return ps, detect_gaps(es), matches, es, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_paste_inputs())
def test_paste_matches_the_per_call_oracle(inputs):
    ps, gaps, matches, es, scale = inputs
    want = _outcome(paste_oracle.copy_paste_and_scale, ps, gaps.records, matches, es, scale)
    layout = paste_layout(ps, gaps)
    first = ps.start.date()
    if any(first + timedelta(days=d) not in matches for d in layout.days.tolist()):
        # The package takes one donor row per day with gaps, so only the
        # oracle can be handed a day without one.
        assert isinstance(want, tuple) and want[1].startswith("no matched day supplied")
        return
    _assert_same_outcome(_outcome(_paste_dates, ps, layout, matches, es, scale), want)


def test_paste_oracle_draws_cover_every_case():
    """The drawn inputs reach each fallback, both boundary kinds and each error."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_paste_inputs())
    def collect(inputs):
        ps, gaps, matches, es, scale = inputs
        gaps = gaps.records
        outcome = _outcome(paste_oracle.copy_paste_and_scale, ps, gaps, matches, es, scale)
        spd = timedelta(days=1) // ps.resolution
        if isinstance(outcome, tuple):
            seen.add(outcome[1].split(" ")[0] + (" complete" if "complete" in outcome[1] else ""))
            return
        seen.update(f.fallback for f in outcome.per_gap)
        seen.update("leading" for g in gaps if g.anchor_before is None)
        seen.update("trailing" for g in gaps if g.anchor_after is None)
        seen.update("long" for g in gaps if g.length > spd)
        seen.update("scaled" for f in outcome.per_gap if f.scale not in (None, 1.0))

    collect()
    assert seen >= {
        "uniform", "unscaled", None, "leading", "trailing", "long", "scaled",
        "no", "matched complete", "matched",
    }


# The (scale, fallback) of each kind of fill: scaled (by 0.8, or by 1.0
# where pasted and metered energy are both zero), uniform, unscaled, and
# without a scale (a baseline's fill, or any boundary gap).
_FILL_LABELS = [(0.8, None), (1.0, None), (None, "uniform"), (1.0, "unscaled"), (None, None)]


@st.composite
def _cap_inputs(draw):
    """Readings with gaps, the power imputed into them, and a labelled fill per gap.

    Each right anchor is set against the reading that the rebuild
    cumulates up to it from the left anchor: far or one ulp below it (so
    the rebuild lands above the anchor), equal to it, or one ulp or far
    above it, so the readings skip the monotonicity check.  Any gap,
    boundary gaps too, takes any label.  A consumption meter's power is
    non-negative with runs of 0 kW; a generation meter's takes either sign.
    """
    resolution = draw(st.sampled_from([timedelta(minutes=5), QUARTER_HOUR, HOUR]))
    dt = resolution / HOUR
    kind = draw(st.sampled_from(list(MeterKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(3, 100))
    power = rng.choice([0.0, 0.5, 3.0], size=n - 1) * rng.random(n - 1)
    if kind is MeterKind.GENERATION:
        power -= rng.random(n - 1)
    missing = np.zeros(n, dtype=bool)
    for first in rng.integers(0, n, size=rng.integers(1, 13)).tolist():
        missing[first : first + rng.integers(1, 6)] = True
    if missing.all():
        missing[n // 2] = False

    values = np.full(n, np.nan)
    prev = None  # the last present reading so far
    for i in np.flatnonzero(~missing).tolist():
        if prev is None or prev == i - 1:
            values[i] = 100.0 if prev is None else values[prev] + power[prev] * dt
        else:
            rebuilt = values[prev] + np.cumsum(power[prev : i - 1])[-1] * dt
            values[i] = rng.choice([
                rebuilt - rng.uniform(0.01, 1.0), np.nextafter(rebuilt, -np.inf), rebuilt,
                np.nextafter(rebuilt, np.inf), rebuilt + rng.uniform(0.01, 1.0),
            ])
        prev = i
    es = EnergySeries(start=datetime(2020, 2, 28, 22), resolution=resolution, values=values,
                      meter_kind=kind, monotone_tol=float("inf"))
    labels = rng.integers(len(_FILL_LABELS), size=n)
    per_gap = tuple(
        GapFill(gap, (), *_FILL_LABELS[k]) for gap, k in zip(detect_gaps(es).records, labels)
    )
    return es, PowerSeries(es.start, resolution, power), per_gap


def test_the_energy_rebuild_caps_gaps_as_the_oracle_does():
    """``complete_from_power`` equals the oracle's rebuild and separate cap bit for bit.

    The draws must reach, on both meter kinds and for every label, an
    anchored gap whose rebuilt last reading lands one ulp and far above
    its right anchor, and a leading and a trailing gap.
    """
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_cap_inputs())
    def compare(inputs):
        es, imputed, per_gap = inputs
        want = paste_oracle.complete_from_power(es, imputed, per_gap)
        _assert_same_outcome(complete_from_power(es, imputed, per_gap), want)
        rebuilt = paste_oracle.fill_energy_from_power(es, imputed.values).values
        for fill in per_gap:
            gap, label = fill.gap, (fill.scale, fill.fallback)
            if not gap.anchored:
                seen.add(("leading" if gap.anchor_before is None else "trailing", label))
            elif rebuilt[gap.last_missing] == np.nextafter(gap.anchor_after, np.inf):
                seen.add((es.meter_kind, label, "ulp"))
            elif rebuilt[gap.last_missing] > gap.anchor_after:
                seen.add((es.meter_kind, label, "far"))

    compare()
    want = {(kind, label, over) for kind in MeterKind for label in _FILL_LABELS
            for over in ("ulp", "far")}
    want |= {(end, label) for end in ("leading", "trailing") for label in _FILL_LABELS}
    assert seen >= want, want - seen


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_paste_inputs(), st.data())
def test_any_integer_donors_paste_or_raise_an_imputation_error(inputs, data):
    """Donor rows of the right shape, from anywhere in int64, paste or raise cleanly.

    Each day takes its drawn match, a row in or near the series, or any
    int64.  A paste keeps every present value and fills every missing one.
    """
    ps, gaps, matches, _, scale = inputs
    layout = paste_layout(ps, gaps)
    first = ps.start.date()
    near = st.integers(-3, int(layout.days.max(initial=0)) + 3)
    anywhere = st.integers(-(2**63), 2**63 - 1)
    donors = []
    for day in (first + timedelta(days=d) for d in layout.days.tolist()):
        matched = st.just((matches[day] - first).days) if day in matches else near
        donors.append(data.draw(st.one_of(matched, near, anywhere)))
    try:
        imputed, per_gap = copy_paste_and_scale(ps, layout, np.array(donors, dtype=np.int64), scale)
    except ImputationError:
        return
    present = ~np.isnan(ps.values)
    assert imputed.values[present].tobytes() == ps.values[present].tobytes()
    assert not np.isnan(imputed.values).any()
    assert len(per_gap) == gaps.first_missing.size


@pytest.mark.parametrize("slots, hour", [(96, 0), (24, 7), (288, 13)])
def test_run_plan_pastes_as_the_oracle_does_from_the_plan_matches(slots, hour):
    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    start = datetime(2019, 12, 20, hour)  # runs across 2020-02-29
    truth = synthetic_series(slots + hour, days=90, slots_per_day=slots, start=start)
    degraded, _ = insert_missing(truth, MissingnessSpec(share=0.2, seed=hour))
    plan = plan_cpi(degraded)
    for weights in (DissimilarityWeights(), DissimilarityWeights(1.0, 0.0, 3.0)):
        matches = matched_days(plan, weights)
        for scale in (True, False):
            want = paste_oracle.copy_paste_and_scale(
                plan.power, plan.layout.gaps.records, matches, plan.series, scale
            )
            _assert_same_outcome(run_plan(plan, plan_donors(plan, weights), scale), want)


def test_plan_layout_rows_are_the_match_table_rows(year_series):
    from meterfill import MissingnessSpec, insert_missing

    degraded, _ = insert_missing(year_series, MissingnessSpec(share=0.1, seed=4))
    plan = plan_cpi(degraded)
    layout = plan.layout
    assert layout.days.dtype == np.int64
    assert np.array_equal(layout.days, np.flatnonzero(plan.table.days.missing))
    assert _match_block(plan.table).donor.shape[0] == layout.days.size
    for got, want in zip(layout.gaps, detect_gaps(plan.series), strict=True):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(layout.missing, np.flatnonzero(np.isnan(plan.power.values)))
    ends = list(zip(layout.gaps.first_missing.tolist(), layout.gaps.last_missing.tolist()))
    for (first, last), (a, b) in zip(ends, layout.gap_slots.tolist(), strict=True):
        assert layout.missing[a:b].tolist() == list(range(first, last + 1))
    for (first, last), (lo, hi) in zip(ends, layout.gap_rows.tolist(), strict=True):
        first, last = (plan.power.timestamp(i).date() for i in (first, last))
        day0 = plan.table.days.first
        days = [day0 + timedelta(days=d) for d in layout.days[[lo, hi - 1]].tolist()]
        assert days == [first, last]


# ---------------------------------------------------------------------------
# The plan against the per-day oracle
# ---------------------------------------------------------------------------

# The longest span drawn at each resolution, in days: finer data over
# shorter spans keeps the oracle test within a few seconds.
_PLAN_SPANS = {timedelta(minutes=5): 90, QUARTER_HOUR: 400, HOUR: 731}


@st.composite
def _plan_inputs(draw, zeros=False):
    """A series of 14 days to 2 years with gaps, as ``plan_cpi`` takes it.

    Resolutions of 5 min, 15 min and 1 h; starts at 00:00, 07:00 and 13:00
    on days that put Feb 29, a leap year's Dec 31 without its Feb 29, or
    neither in the series.  Many series end at a midnight, so the last day
    is a full donor one power slot short.  Gaps may touch either end, span
    several days, crowd three to six into one day or recur weekly over a
    run of weeks.  A generation meter's power changes sign from day to
    day.  Most draws can be planned; some leave too few complete days or no
    complete day of some weekday, so the errors are compared too.  With
    ``zeros``, every series is a new consumption meter, read from 0 kWh,
    that draws exactly 0 kW at night and on about one day in ten (a
    vacancy), so many gaps end on a donor slot of 0 kW.

    The readings come from a generator seeded with every choice of the
    draw.  Hypothesis makes new draws by editing earlier ones, so a seed
    drawn on its own would recur across draws that differ only in their gaps.
    """
    choices = []

    def pick(strategy):
        choices.append(draw(strategy))
        return choices[-1]

    resolution = pick(st.sampled_from(list(_PLAN_SPANS)))
    spd = timedelta(days=1) // resolution
    day0 = pick(st.sampled_from([
        date(2018, 1, 1), date(2020, 2, 20), date(2019, 12, 30), date(2020, 3, 1),
        date(2019, 3, 4),
    ]))
    start = datetime.combine(day0, time(pick(st.sampled_from([0, 7, 13]))))
    offset = (start - datetime.combine(day0, time())) // resolution
    # One series in eight spans two weeks, too few for 14 complete days once
    # a gap lands; the rest, any length from four weeks up to the cap.
    short = pick(st.integers(0, 7)) == 0
    days = 14 if short else pick(st.integers(28, _PLAN_SPANS[resolution] - 1))
    n = days * spd - offset + pick(st.one_of(st.just(0), st.integers(0, spd - 1)))
    kind = MeterKind.CONSUMPTION if zeros else pick(st.sampled_from(list(MeterKind)))

    missing = np.zeros(n, dtype=bool)
    kinds = st.sampled_from(["head", "tail", "long", "long", "short", "short", "crowd", "crowd",
                             "weekly"])
    for where in pick(st.lists(kinds, min_size=1, max_size=6)):
        if where == "crowd":  # three to six gaps inside one day
            first = pick(st.integers(0, n - spd))
            count = pick(st.integers(3, 6))
            step = spd // count
            for k in range(count):
                missing[first + k * step + 1 : first + (k + 1) * step - 1] = True
            continue
        if where == "weekly":  # the same hour of one weekday in one to three weeks, or all
            weeks = range(pick(st.integers(0, 7 * spd)), n - 3, 7 * spd)
            for week in weeks[: pick(st.integers(0, 3)) or None]:
                missing[week + 1 : week + 3] = True
            continue
        longest = {"long": 3 * spd, "short": spd // 2}.get(where, spd)
        length = pick(st.integers(spd + 1 if where == "long" else 2, longest))
        first = {"head": 0, "tail": n - length}.get(where)
        if first is None:
            first = pick(st.integers(0, n - length))
        missing[first : first + length] = True
    missing[n // 2] = False  # an energy series needs a present reading

    pick(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng([zlib.crc32(repr(choice).encode()) for choice in choices])
    slot = offset + np.arange(n - 1)
    low = 0.5 if kind is MeterKind.CONSUMPTION else -1.0
    level = rng.uniform(low, 2.0, size=days + 1)[slot // spd]
    shape = 1.0 + np.sin(2 * np.pi * (slot % spd) / spd) + 0.1 * rng.random(n - 1)
    power = level * shape
    if zeros:
        night = (slot % spd < spd // 4) | (slot % spd >= spd - spd // 8)
        power[night | (rng.random(days + 1)[slot // spd] < 0.1)] = 0.0
    base = 0.0 if zeros else 100.0
    values = base + np.concatenate(([0.0], np.cumsum(power * (resolution / HOUR))))
    return EnergySeries(start, resolution, np.where(missing, np.nan, values), meter_kind=kind)


def _assert_same_plan(got, want):
    """The day table, candidates, normalization, layout and match matrices agree bit for bit.

    The package's matrices are its block helper's over all rows; the
    oracle builds them densely.
    """
    days = got.table.days
    views = plan_oracle.views(days)
    assert views == list(want.days)
    assert repr(views) == repr(list(want.days))
    records = want.records
    totals = np.array([np.nan if r.total_energy is None else r.total_energy for r in records])
    assert got.table.total.tobytes() == totals.tobytes()
    assert days.weekday.tolist() == [r.weekday for r in records]
    assert days.day_of_year.tolist() == [r.day_of_year for r in records]
    candidates = np.flatnonzero((days.missing == 0) & days.full_day)
    assert candidates.tobytes() == want.candidates.tobytes()
    assert [records[i].date for i in candidates.tolist()] == [
        c.date for c in want.candidate_records
    ]

    # The oracle works out the cycle and the range itself, as plain numbers.
    block = _match_block(got.table)
    doy = days.day_of_year
    season = season_distance(doy[got.layout.days][:, None], doy[block.donor],
                             want.cycle_length)
    assert block.season.tobytes() == season.tobytes()
    assert got.table.energy_range == want.energy_range
    assert type(got.table.energy_range) is float

    a, b = got.layout, want.layout
    for name in ("days", "missing", "row", "gap_rows"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert [c.tobytes() for c in a.gaps] == [c.tobytes() for c in b.gaps]

    for name in ("weekday", "season", "energy", "keep", "donor"):
        a, b = getattr(block, name), getattr(want.block, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    triples = [(5, 1, 10), (1, 0, 0), (0, 1, 1), (2.5, 0.5, 7)]
    assert np.array_equal(match_weights(got.table, triples),
                          cpi._pick_donors(want.block, want.energy_range, triples))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_plan_inputs())
def test_plan_matches_the_per_day_oracle(es):
    want = _outcome(plan_oracle.plan_cpi, es)
    got = _outcome(plan_cpi, es)
    if isinstance(want, tuple):
        assert got == want
        return
    _assert_same_plan(got, want)
    for scale in (True, False):
        _assert_same_outcome(
            _outcome(run_plan, got, plan_donors(got, DEFAULT_WEIGHTS), scale),
            _outcome(run_plan, want, plan_oracle.plan_donors(want, DEFAULT_WEIGHTS), scale),
        )


def test_plan_oracle_draws_cover_every_case():
    """The drawn series reach each error, both cycles, boundary and crowded days."""
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_plan_inputs())
    def collect(es):
        outcome = _outcome(plan_oracle.plan_cpi, es)
        if isinstance(outcome, tuple):
            seen.add(outcome[1].split(" ")[0])
            return
        seen.add(outcome.cycle_length)
        seen.add(es.resolution)
        spd = timedelta(days=1) // es.resolution
        seen.update("long" for g in outcome.layout.gaps.records if g.length > spd)
        seen.update("boundary" for r in outcome.records if r.total_energy is None)
        touched = [row for lo, hi in outcome.layout.gap_rows for row in range(lo, hi)]
        if touched and max(map(touched.count, touched)) >= 3:
            seen.add("crowded")
        if not outcome.block.keep.all():
            seen.add("short donor")
        if (np.diff(es.values[np.isfinite(es.values)]) < 0).any():
            seen.add("sign change")

    collect()
    assert seen >= {
        365, 366, "boundary", "long", "crowded", "short donor", "sign change",
        timedelta(minutes=5), QUARTER_HOUR, HOUR, "copy-paste", "no",
    }


def test_the_plan_compiles_day_totals_equal_to_its_estimates():
    """Within ``plan_cpi``, ``compile_complete_days`` hands back its estimates byte for byte.

    ``estimate_daily_energy`` already gives each complete day its known
    energy (plus 0.0), so the compile step adds nothing to a plan.  The
    draws include gaps at either end, whose days keep a NaN estimate.
    """
    calls = []

    def watched(days, estimates):
        given_estimates = estimates.copy()
        total = compile_complete_days(days, estimates)
        calls.append((given_estimates, total))
        return total

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_plan_inputs(), _plan_inputs(zeros=True)))
    def collect(es):
        _outcome(plan_cpi, es)

    with mock.patch.object(cpi, "compile_complete_days", watched):
        collect()
    assert len(calls) > 30
    assert any(np.isnan(estimates).any() for estimates, _ in calls)  # boundary gaps
    for estimates, total in calls:
        assert total.tobytes() == estimates.tobytes()


@pytest.mark.parametrize("stage", ["too-few", "weekday", "misaligned", "resolution"])
def test_plan_errors_match_the_oracle(stage):
    es = _weekly_profile_series(weeks=4, noise_seed=4)
    if stage == "too-few":
        es = with_missing(_weekly_profile_series(weeks=2), range(4 * 24 + 1, 6 * 24))
    elif stage == "weekday":
        es = with_missing(es, [i for w in range(4) for i in range((7 * w + 6) * 24 + 5, (7 * w + 6) * 24 + 8)])
    elif stage == "misaligned":
        es = with_missing(energy(es.values, start=MONDAY + timedelta(minutes=7)), range(40, 45))
    else:
        es = with_missing(energy(es.values, resolution=timedelta(minutes=7)), range(40, 45))
    want = _outcome(plan_oracle.plan_cpi, es)
    assert isinstance(want, tuple)
    assert _outcome(plan_cpi, es) == want
    if stage in ("misaligned", "resolution"):
        assert _outcome(day_partition, es) == _outcome(plan_oracle.day_partition, es)


def test_estimates_add_the_gap_shares_in_gap_order():
    # Each of twenty days holds four gaps: the end of one across the last
    # midnight, two inside the day and the start of one across the next.
    # The weekday offsets give the shares of the crossing gaps bits that
    # other sums round differently, and almost all of a day's energy lies
    # in its gaps, so a day's total is the oracle's only if its shares are
    # added in the oracle's gap order.
    rng = np.random.default_rng(29)
    crowded = [24 * d + h for d in range(2, 22) for h in (-2, -1, 0, 1, 2, 7, 8, 14, 15)]
    power = rng.uniform(0.001, 0.002, size=28 * 24)
    gap_power = np.unique(np.clip([i + k for i in crowded for k in (-1, 0)], 0, None))
    power[gap_power] = rng.uniform(1.0, 3.0, size=gap_power.size)
    es = with_missing(energy(np.concatenate(([0.0], np.cumsum(power)))), crowded)
    offsets = np.array([0.3, -0.1, 0.25, -0.45, 0.0, 0.7, -0.7])
    gaps = detect_gaps(es)
    got = _estimate(es, gaps, offsets)
    want = plan_oracle.estimate_daily_energy(es, plan_oracle.day_partition(es), gaps.records,
                                             offsets)
    assert got.tobytes() == np.array(list(want.values())).tobytes()


def test_stage_errors_match_the_oracle():
    es = with_missing(energy(np.arange(48.0 * 3)), [0, 1, 2])
    gaps = detect_gaps(es)
    got = _outcome(_estimate, es, gaps, _flat_pattern())
    want = _outcome(plan_oracle.estimate_daily_energy, es, plan_oracle.day_partition(es),
                    gaps.records, _flat_pattern())
    assert isinstance(want, tuple) and got == want

    days = table(date(2018, 1, 5), [1.0] * 3)  # 24 slots a day
    got = _outcome(match_table, days, np.ones(3), np.array([0]), np.array([2]), np.array([24]))
    want = _outcome(plan_oracle.match_table, [record(date(2018, 1, 5), total=1.0)],
                    [record(date(2018, 1, 7), total=1.0, complete=True)],
                    365, np.array([[False]]))
    assert isinstance(want, tuple) and got == want


def test_energy_range_is_the_oracles_plain_float():
    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    for seed in range(3):
        truth = synthetic_series(seed, days=120)
        for share in (0.01, 0.1, 0.3):
            degraded, _ = insert_missing(truth, MissingnessSpec(share=share, seed=seed))
            energy_range = plan_cpi(degraded).table.energy_range
            assert type(energy_range) is float
            assert energy_range == plan_oracle.plan_cpi(degraded).energy_range


_MIXED_TRIPLES = [(5, 1, 10), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2.5, 0.5, 7), (20, 10, 1)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_plan_inputs())
def test_the_donors_do_not_depend_on_the_block_size(es):
    """One row per block, a prime number of entries, and one block give the same donors."""
    plan = _outcome(plan_cpi, es)
    if isinstance(plan, tuple):
        return
    picks = []
    for entries in (1, 1009, 1 << 40):
        with mock.patch.object(cpi, "_BLOCK_ENTRIES", entries):
            picks.append([match_weights(plan.table, triples).tobytes()
                          for triples in ([astuple(DEFAULT_WEIGHTS)], _MIXED_TRIPLES)])
    assert picks[0] == picks[1] == picks[2]


_COVERING_TRIPLES = [*_MIXED_TRIPLES, (1, 1, 1), (3, 0, 2), (0, 2, 5), (10, 1, 0)]


def test_the_covering_scores_are_each_assignments_own_mape():
    """The tuner's covering scorer gives each distinct assignment its own MAPE, bit for bit.

    ``metrics._covering_scores`` pastes a few covering donor vectors and
    gathers each assignment's imputed power over the mask from them.  Over
    ``_plan_inputs`` draws, with and without zero-power runs, and with one
    more isolated missing reading that the plan interpolates, each distinct
    assignment of a ten-triple batch match must score ``mape_p`` of its own
    ``run_plan``, or raise the same error.  The truth is the first
    assignment's imputed power one day on, and all zero in about one draw
    in eight.  The draws must reach days that three or more gaps touch,
    boundary gaps, uniform fallbacks and interpolated readings.
    """
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_plan_inputs(), _plan_inputs(zeros=True)), st.integers(0, 2**32 - 1),
           st.integers(0, 7))
    def check(es, single, blank):
        values, i = np.array(es.values), single % es.n
        if 0 < i < es.n - 1 and not np.isnan(values[i - 1 : i + 2]).any():
            values[i] = np.nan
            seen.add("interpolated reading")
        es = replace(es, values=values)
        plan = _outcome(plan_cpi, es)
        if isinstance(plan, tuple):
            return
        assignments = np.unique(match_weights(plan.table, _COVERING_TRIPLES), axis=0)
        results = [run_plan(plan, donors) for donors in assignments]
        spd = timedelta(days=1) // es.resolution
        truth = np.roll(results[0].imputed_power.values, spd) * (blank != 0)
        actual = PowerSeries(es.start, es.resolution, truth)
        mask = np.flatnonzero(np.isnan(energy_to_power(es).values))
        want = [_outcome(lambda r: mape_p(actual, r.imputed_power, mask).value, r)
                for r in results]
        got = _outcome(metrics._covering_scores, plan, actual, mask, assignments)
        errors = [w for w in want if isinstance(w, tuple)]
        if errors:
            assert len(errors) == len(want)
            assert got == errors[0]
        else:
            assert got.tobytes() == np.array(want).tobytes()

        touches = np.zeros(plan.layout.days.size, dtype=np.int64)
        for lo, hi in plan.layout.gap_rows:
            touches[lo:hi] += 1
        if touches.max(initial=0) >= 3:
            seen.add("crowded day")
        if not plan.layout.gaps.anchored.all():
            seen.add("boundary gap")
        if any(f.fallback == "uniform" for r in results for f in r.per_gap):
            seen.add("uniform fallback")
        if errors:
            seen.add("error")
        groups = []  # each day group's [lo, hi) day positions and its number of gaps
        for lo, hi in plan.layout.gap_rows.tolist():
            if groups and lo < groups[-1][1]:
                groups[-1][1:] = max(groups[-1][1], hi), groups[-1][2] + 1
            else:
                groups.append([lo, hi, 1])
        if any(n >= 2 and len({row[lo:hi].tobytes() for row in assignments}) > 1
               for lo, hi, n in groups):
            seen.add("a day group of two or more gaps pasted with a non-base choice")

    check()
    assert seen == {"interpolated reading", "crowded day", "boundary gap", "uniform fallback",
                    "error", "a day group of two or more gaps pasted with a non-base choice"}


def test_each_gap_gathered_and_scaled_alone_is_the_oracles_slice():
    """The paste core, run on every gap as a piece of its own, gives the oracle's values and audit.

    Over ``_plan_inputs`` draws, with and without zero-power runs, every
    gap is pasted from each of two weightings' donor rows as a piece of
    its own: one ``cpi._gather`` over all the pieces, in gap and then row
    order, and one ``cpi._scale_gap`` over them.  Each piece's values must
    equal the oracle's imputed power over the gap byte for byte, scaled
    and unscaled, and its factor and fallback those of its ``GapFill``.
    The draws must reach boundary gaps, uniform fallbacks, scaled gaps and
    the unscaled path.
    """
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_plan_inputs(), _plan_inputs(zeros=True)))
    def check(es):
        plan = _outcome(plan_cpi, es)
        if isinstance(plan, tuple):
            return
        layout, dt = plan.layout, resolution_hours(plan.power.resolution)
        first = plan.table.days.first
        donors = match_weights(plan.table, [(5, 1, 10), (1, 0, 3)])
        gap = np.repeat(np.arange(len(layout.gaps.records)), 2)
        row = np.tile([0, 1], len(layout.gaps.records))
        pasted, _, _ = cpi._gather(plan.power, layout, donors, gap, row)
        scaled = pasted.copy()
        factor, uniform = cpi._scale_gap(scaled, layout.gaps, dt, gap)
        edges = np.cumsum(np.diff(layout.gap_slots[gap]).ravel())[:-1]
        pieces = {scale: np.split(values, edges) for scale, values in ((True, scaled),
                                                                        (False, pasted))}
        for r, row_donors in enumerate(donors):
            matches = {first + timedelta(days=day): first + timedelta(days=donor)
                       for day, donor in zip(layout.days.tolist(), row_donors.tolist())}
            for scale in (True, False):
                want = paste_oracle.copy_paste_and_scale(
                    plan.power, layout.gaps.records, matches, plan.series, scale)
                for k, (gap_record, fill) in enumerate(zip(layout.gaps.records, want.per_gap,
                                                           strict=True)):
                    j = 2 * k + r
                    span = slice(gap_record.first_missing, gap_record.last_missing + 1)
                    assert pieces[scale][j].tobytes() == want.imputed_power.values[span].tobytes()
                    if scale:
                        f = factor[j].item()
                        got = (None if f != f else f, "uniform" if uniform[j] else None)
                    else:  # the values as pasted, which the audit of an anchored gap flags
                        got = (1.0, "unscaled") if gap_record.anchored else (None, None)
                    assert repr(got) == repr((fill.scale, fill.fallback))
                    seen.add("boundary gap" if not gap_record.anchored
                             else fill.fallback or "scaled")

    check()
    assert seen == {"boundary gap", "uniform", "unscaled", "scaled"}


def test_a_bad_donor_in_a_piece_raises_the_per_piece_gathers_error():
    """The tuner's scorer names a bad donor as gathering each piece alone names it.

    ``metrics._covering_scores`` gets a valid first assignment and rows
    that differ from it on days of some gaps: a donor row before the
    series, past its end, or where no date lies, or a donor day that lacks
    the slots a piece needs.  Its error must be, by type and text, the one
    that ``paste_oracle.gather_piece`` raises on the first bad piece in gap
    order, then choice order, naming that piece's earliest bad day.
    """
    # Sixty days, the last cut off after 15 hours, with gaps over days
    # 1, 4-5, 10 (two), 20-21, 29 and 59, the last day (hours 2-4).
    truth = energy(day_profile_series(1.0 + 0.3 * np.sin(np.arange(60))).values[:1432])
    es = with_missing(truth, [*range(30, 40), *range(100, 130), 243, 244, 259, 260,
                              *range(500, 510), *range(700, 720), 1419, 1420])
    plan = plan_cpi(es)
    layout = plan.layout
    # Position i is the i-th day with gaps: gaps 1 and 4 span two each, and
    # gaps 2 and 3 share one, at hours 2-4 and 18-20.
    assert layout.days.tolist() == [1, 4, 5, 10, 20, 21, 29, 59]
    assert layout.gap_rows.tolist() == [[0, 1], [1, 3], [3, 4], [3, 4], [4, 6], [6, 7], [7, 8]]
    actual = energy_to_power(truth)
    mask = np.flatnonzero(np.isnan(energy_to_power(es).values))
    base = plan_donors(plan, DEFAULT_WEIGHTS)
    n_days = len(plan.table.days)
    own = layout.days  # each day with gaps is missing its own slots

    def changed(**days):
        row = base.copy()
        for day, donor in days.items():
            row[int(day[1:])] = donor
        return row

    cases = [
        ([changed(d0=-3)], 1, 0),                            # before the first day
        ([changed(d6=n_days + 2)], 1, 5),                    # past the last
        ([changed(d5=10**15)], 1, 4),                        # where no date lies
        ([changed(d0=own[0])], 1, 0),                        # not complete
        # Gap order first: gap 1's piece (row 2) before gap 5's (row 1).
        ([changed(d6=-1), changed(d2=own[2])], 2, 1),
        # Choice order within a gap: the first row with a bad choice for it.
        ([changed(d1=own[1]), changed(d2=n_days)], 1, 1),
        # Within a piece, its earliest bad day, even where a later one is also bad.
        ([changed(d1=own[1], d2=-40)], 1, 1),
        ([changed(d1=-40, d2=own[2])], 1, 1),
        # The cut last day lacks gap 2's hours and ends before gap 3's: gap 2's
        # piece is judged on its own slots, which the day covers.
        ([changed(d3=59)], 1, 2),
    ]
    for rows, bad, k in cases:
        assignments = np.array([base, *rows])
        a, b = layout.gap_slots[k]
        want = _outcome(paste_oracle.gather_piece, plan.power, layout, assignments[bad], a, b)
        assert isinstance(want, tuple), rows
        got = _outcome(metrics._covering_scores, plan, actual, mask, assignments)
        assert got == want


def test_planning_and_matching_four_years_hold_no_full_table():
    # At 30 % share a four-year quarter-hourly series has about 670 days
    # with gaps against about 790 candidates: one (rows x candidates)
    # matrix of float64 alone is 4.2 MB, nearly four times the readings.
    import tracemalloc

    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    degraded, _ = insert_missing(synthetic_series(5, days=1461),
                                 MissingnessSpec(share=0.3, seed=3))
    tracemalloc.start()
    try:
        plan = plan_cpi(degraded)
        match_weights(plan.table, [astuple(DEFAULT_WEIGHTS)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.table.rows.size * plan.table.candidates.size * 8 > 3 * degraded.values.nbytes
    assert peak < 8 * degraded.values.nbytes
    fields = vars(plan.table).values()
    assert not [v.shape for v in fields if isinstance(v, np.ndarray) and v.ndim > 1]


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def _weekly_profile_series(weeks=2, noise_seed=None):
    """Hourly series with a repeating weekly shape, optionally jittered."""
    day_shapes = {
        0: 1.0, 1: 1.1, 2: 1.05, 3: 1.15, 4: 1.3, 5: 0.7, 6: 0.6,
    }
    slots = []
    for d in range(7 * weeks):
        shape = day_shapes[d % 7]
        hours = 0.3 + shape * np.exp(-0.5 * ((np.arange(24) - 18) / 3.0) ** 2)
        slots.append(hours)
    levels = np.concatenate(slots)
    if noise_seed is not None:
        levels = levels * np.exp(np.random.default_rng(noise_seed).normal(0, 0.01, levels.size))
    return energy(np.concatenate(([0.0], np.cumsum(levels))))


def test_complete_input_is_returned_unchanged():
    es = _weekly_profile_series()
    result = impute_cpi(es)
    assert result.completed_energy is es
    assert result.per_gap == ()


def test_two_week_scenario_fills_friday_from_the_second_friday():
    es = _weekly_profile_series(weeks=2, noise_seed=9)
    degraded = with_missing(es, range(4 * 24 + 1, 6 * 24))
    result = impute_cpi(degraded, DissimilarityWeights(20, 1, 5), min_complete_days=12)

    (fill,) = result.per_gap
    assert dict(fill.sources) == {
        date(2018, 1, 5): date(2018, 1, 12),
        date(2018, 1, 6): date(2018, 1, 13),
    }
    # Friday's slots carry the second Friday's values times the gap factor.
    p = energy_to_power(es).values
    imputed = result.completed_power.values
    friday = slice(4 * 24, 5 * 24)
    second_friday = slice(11 * 24, 12 * 24)
    assert imputed[friday] == pytest.approx(p[second_friday] * fill.scale)
    gap = fill.gap
    dt = 1.0
    conserved = imputed[gap.first_missing : gap.last_missing + 1].sum() * dt
    assert conserved == pytest.approx(gap.actual_energy, rel=1e-12)
    assert_untouched(degraded, result.completed_energy.values)


def test_impute_without_scaling_pastes_the_donor_as_is():
    es = _weekly_profile_series(weeks=3, noise_seed=9)
    degraded = with_missing(es, range(4 * 24 + 1, 6 * 24))
    scaled = impute_cpi(degraded)
    unscaled = impute_cpi(degraded, scale=False)

    (fill,) = unscaled.per_gap
    assert (fill.scale, fill.fallback) == (1.0, "unscaled")
    assert fill.sources == scaled.per_gap[0].sources
    span = slice(fill.gap.first_missing, fill.gap.last_missing + 1)
    factor = scaled.per_gap[0].scale
    assert factor != pytest.approx(1.0)
    assert unscaled.imputed_power.values[span] * factor == pytest.approx(
        scaled.imputed_power.values[span], rel=1e-12
    )
    assert_untouched(degraded, unscaled.completed_energy.values)


def test_boundary_gap_is_pasted_without_scaling():
    es = _weekly_profile_series(weeks=4, noise_seed=2)
    degraded = with_missing(es, range(0, 30))
    result = impute_cpi(degraded)
    boundary = result.per_gap[0]
    assert not boundary.anchored
    assert boundary.scale is None
    assert not np.isnan(result.completed_power.values).any()
    assert not np.isnan(result.completed_energy.values).any()
    assert_untouched(degraded, result.completed_energy.values)


def test_too_few_complete_days_is_an_error():
    es = _weekly_profile_series(weeks=2)
    degraded = with_missing(es, range(4 * 24 + 1, 6 * 24))
    with pytest.raises(ImputationError, match="at least 14 complete days"):
        impute_cpi(degraded)


def test_gap_on_every_sunday_leaves_no_sunday_candidate():
    es = _weekly_profile_series(weeks=4, noise_seed=4)
    missing = []
    for week in range(4):
        start = (7 * week + 6) * 24 + 5
        missing.extend(range(start, start + 3))
    degraded = with_missing(es, missing)
    with pytest.raises(ImputationError, match="Sunday"):
        impute_cpi(degraded)


def test_deterministic_for_fixed_inputs(year_series):
    from meterfill import MissingnessSpec, insert_missing

    degraded, _ = insert_missing(year_series, MissingnessSpec(share=0.1, seed=8))
    a = impute_cpi(degraded)
    b = impute_cpi(degraded)
    assert np.array_equal(a.completed_power.values, b.completed_power.values)
    assert np.array_equal(a.completed_energy.values, b.completed_energy.values)


def test_year_run_conserves_energy_and_is_idempotent(year_series):
    from meterfill import MissingnessSpec, insert_missing

    degraded, _ = insert_missing(year_series, MissingnessSpec(share=0.2, seed=1))
    result = impute_cpi(degraded)
    dt = 0.25
    for gap in detect_gaps(degraded).records:
        imputed = result.completed_power.values[
            gap.first_missing : gap.last_missing + 1
        ].sum() * dt
        assert imputed == pytest.approx(gap.actual_energy, rel=1e-9)
    assert_untouched(degraded, result.completed_energy.values)
    again = impute_cpi(result.completed_energy)
    assert np.array_equal(again.completed_energy.values, result.completed_energy.values)
    assert np.array_equal(again.completed_power.values, result.completed_power.values)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_plan_inputs())
def test_impute_cpi_fills_every_gap_from_complete_donors(es):
    """Wherever a plan can be built, both copy-paste methods keep their invariants.

    Present readings are untouched, every donor is another complete full
    day, the unscaled paste copies the donor's value at the same
    within-day slot, the scaled paste conserves each anchored gap's
    metered energy, and scaling leaves the donors as they are.  A second
    imputation of the completed energy is the identity, and a consumption
    meter's scaled power is nowhere negative.
    """
    if isinstance(_outcome(plan_cpi, es), tuple):
        return
    scaled, unscaled = impute_cpi(es), impute_cpi(es, scale=False)
    present = ~np.isnan(es.values)
    for result in (scaled, unscaled):
        assert result.completed_energy.values[present].tobytes() == es.values[present].tobytes()
    assert [f.sources for f in scaled.per_gap] == [f.sources for f in unscaled.per_gap]

    filled = interpolate_singles(es)
    days = day_partition(filled)
    donors = np.full(len(days), -1)  # the day-table row of each day's donor
    for fill in unscaled.per_gap:
        assert fill.sources
        for day, donor in fill.sources:
            row, source = (day - days.first).days, (donor - days.first).days
            assert source != row
            assert days.missing[source] == 0 and days.full_day[source]
            donors[row] = source

    ps = energy_to_power(filled)
    spd = timedelta(days=1) // es.resolution
    first_slot = (es.start - datetime.combine(days.first, time())) // es.resolution
    missing = np.flatnonzero(np.isnan(ps.values))
    day = (first_slot + missing) // spd
    assert (donors[day] >= 0).all()
    source = missing + (donors[day] - day) * spd
    assert unscaled.imputed_power.values[missing].tobytes() == ps.values[source].tobytes()

    dt = es.resolution / HOUR
    for fill in scaled.per_gap:
        if fill.anchored:
            span = slice(fill.gap.first_missing, fill.gap.last_missing + 1)
            pasted = scaled.imputed_power.values[span].sum() * dt
            assert pasted == pytest.approx(fill.gap.actual_energy, rel=1e-9)

    again = impute_cpi(scaled.completed_energy)
    assert again.completed_energy.values.tobytes() == scaled.completed_energy.values.tobytes()
    assert again.completed_power.values.tobytes() == scaled.completed_power.values.tobytes()
    if es.meter_kind is MeterKind.CONSUMPTION:  # every drawn consumption day is >= 0
        assert (scaled.imputed_power.values >= 0).all()
        assert (scaled.completed_power.values >= 0).all()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_plan_inputs(zeros=True))
def test_scaled_fills_on_zero_power_runs_complete_a_valid_meter(es):
    """Nights and vacancies of exactly 0 kW: the completed series is a valid meter.

    A scaled gap conserves its energy only to rounding, so where its last
    slot is pasted from a donor slot of 0 kW the reading cumulated from the
    left anchor could land above the right anchor.  The completed power
    stays non-negative, and the completed energy reads back as a
    consumption meter with no tolerance, as the CLI reads its own output.
    """
    if isinstance(_outcome(plan_cpi, es), tuple):
        return
    triples = (DEFAULT_WEIGHTS, DissimilarityWeights(1, 0, 0), DissimilarityWeights(0, 1, 1))
    for weights in triples:
        result = impute_cpi(es, weights)
        assert (result.imputed_power.values >= 0).all()
        assert (result.completed_power.values >= 0).all()
        EnergySeries(es.start, es.resolution, result.completed_energy.values, monotone_tol=0.0)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_plan_inputs(), st.integers(-40, 40))
def test_scaling_the_readings_by_a_power_of_two_commutes_with_imputation(es, k):
    """Every method's imputation of the readings times 2**k is its result times 2**k, bit for bit.

    The product is exact in floating point, and every rule of the five
    methods (the energy-range normalization, the weekly fit, the
    estimates' clamp, the fallbacks, the baselines' fits and the seasonal
    model's relative zero-mean check) is invariant under it, so the
    donors, the scale factors, the imputed power, the completed series and
    the audit's anchors and gap energies all carry over exactly, and an
    error is the same error.  Each method of ``metrics.METHODS`` runs
    through ``metrics.method_imputer`` at a drawn k in -40..40, and
    ``impute_cpi`` at every k in -3..5.  Scores are not unit-free:
    ``evaluate``'s MAPE drops the truths below ``ZERO_ACTUAL_THRESHOLD``,
    an absolute 1e-9 kW, so a change of unit can move a term across it.
    """

    def audit(fills, factor):
        return [(f.gap.first_missing, f.gap.last_missing,
                 *(None if v is None else v * factor
                   for v in (f.gap.anchor_before, f.gap.anchor_after, f.gap.actual_energy)),
                 f.sources, f.scale, f.fallback) for f in fills]

    def check(impute, want, k):
        factor = 2.0**k
        got = _outcome(impute, replace(es, values=es.values * factor))
        if isinstance(want, tuple):
            assert got == want
            return
        for name in ("imputed_power", "completed_power", "completed_energy"):
            expect = getattr(want, name).values * factor
            assert getattr(got, name).values.tobytes() == expect.tobytes(), (k, name)
        assert repr(audit(got.per_gap, 1.0)) == repr(audit(want.per_gap, factor)), k

    wants = {}
    for method in metrics.METHODS:
        impute = metrics.method_imputer(method)
        wants[method] = _outcome(impute, es)
        check(impute, wants[method], k)
    for small in range(-3, 6):
        check(impute_cpi, wants["cpi"], small)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_plan_inputs(), st.integers(-14 * 60, 14 * 60))
def test_a_fixed_utc_offset_on_the_start_keeps_the_donors_and_the_imputation(es, minutes):
    """``impute_cpi`` of the series with a zone-aware start is its naive result.

    Days split at the start's own local midnight, so a fixed UTC offset
    between -14 h and +14 h leaves every day-table row where it was: the
    donors, the imputed power, the completed energy and the audit must be
    the same bit for bit, and an error must be the same error.
    """
    aware = replace(es, start=es.start.replace(tzinfo=timezone(timedelta(minutes=minutes))))
    want, got = (_outcome(impute_cpi, series) for series in (es, aware))
    if isinstance(want, tuple):
        assert got == want
        return
    donors = (match_weights(plan_cpi(series).table, _MIXED_TRIPLES) for series in (aware, es))
    assert next(donors).tobytes() == next(donors).tobytes()
    for name in ("imputed_power", "completed_energy"):
        assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes(), name
    assert got.completed_energy.start == aware.start
    assert repr(got.per_gap) == repr(want.per_gap)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(_plan_inputs(), st.integers(-14, 13), st.integers(-5, 5), st.integers(0, 2**32 - 1))
def test_a_utc_offset_that_changes_part_way_is_a_parse_error(es, hours, shift, cut):
    """A file at one UTC offset that gives a random suffix of its rows in another is refused.

    The text of the series at a fixed offset is rewritten from a drawn row
    on: the same instants, written ``shift`` whole hours away.  The parser
    must name that row, the new offset and the first one.  A shift of zero
    leaves the text as written, and it reads back as the series.
    """
    first = timezone(timedelta(hours=hours))
    aware = replace(es, start=es.start.replace(tzinfo=first))
    header, *rows = format_series(aware).splitlines(keepends=True)
    row = 2 + cut % (len(rows) - 1)  # the first rewritten data row, counted from 1
    later = timezone(timedelta(hours=hours + shift))
    text = header + "".join(rows[: row - 1]) + "".join(
        aware.timestamp(i).astimezone(later).isoformat(sep=" ") + "," + line.split(",", 1)[1]
        for i, line in enumerate(rows[row - 1 :], start=row - 1)
    )
    config = ParseConfig(meter_kind=es.meter_kind)
    if shift == 0:
        parsed = parse_series(text, config)
        assert parsed.start.utcoffset() == first.utcoffset(None)
        assert parsed.start == aware.start
        assert parsed.values.tobytes() == aware.values.tobytes()
        return
    message = (f"UTC offset changes at row {row}: {later.tzname(None)} after "
               f"{first.tzname(None)} at row 1; a file must keep one offset")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_series(text, config)


def _holds_a_leap_day_or_later(es):
    """Whether the series reaches a 29 February or a later day of its leap year."""
    first, last = es.start.date(), es.timestamp(es.n - 1).date()
    return any(
        calendar.isleap(year) and first <= date(year, 12, 31) and date(year, 2, 29) <= last
        for year in range(first.year, last.year + 1)
    )


def _day_offsets(result, first):
    """Each gap's (day, donor) pairs as day offsets from ``first``, with its scale and fallback."""
    return [
        ([((day - first).days, (donor - first).days) for day, donor in f.sources],
         f.scale, f.fallback)
        for f in result.per_gap
    ]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_plan_inputs())
def test_a_364_day_shift_keeps_the_donors_and_the_imputed_power(es):
    """``impute_cpi`` of the series moved 52 weeks either way is its result, moved.

    The shift keeps every weekday, and it moves every day of the year one
    day back or on around a 365-day cycle, so every cyclic season distance
    is kept too.  That holds only where the cycle is 365 days throughout:
    a day table counts its days by calendar ordinal, so in one that holds a
    leap year's days after 28 February but not its 29 February those days
    sit one day off (README, "Notes on behaviour").  Draws whose original
    or shifted span reaches a 29 February or a later day of a leap year are
    skipped; the rest must keep the match table's season distances, the
    donors as day offsets, bit for bit the same imputed power, and the same
    scales, fallbacks or error.
    """
    want = _outcome(impute_cpi, es)
    for days in (-364, 364):
        shifted = replace(es, start=es.start + timedelta(days=days))
        if _holds_a_leap_day_or_later(es) or _holds_a_leap_day_or_later(shifted):
            continue
        got = _outcome(impute_cpi, shifted)
        if isinstance(want, tuple):
            assert got == want
            continue
        seasons = (_match_block(plan_cpi(series).table).season for series in (shifted, es))
        assert next(seasons).tobytes() == next(seasons).tobytes(), days
        assert got.imputed_power.values.tobytes() == want.imputed_power.values.tobytes(), days
        assert _day_offsets(got, shifted.start.date()) == _day_offsets(want, es.start.date())
