"""Tests for the copy-paste imputation pipeline."""

from datetime import date, datetime, time, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meterfill import (
    DissimilarityWeights,
    EnergySeries,
    ImputationError,
    MeterfillError,
    MeterKind,
    ValidationError,
    energy_to_power,
    impute_cpi,
)
from meterfill import cpi
from meterfill.cpi import (
    DEFAULT_WEIGHTS,
    SeasonContext,
    WeeklyPattern,
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
from meterfill.series import DayTable, day_partition, detect_gaps

import paste_oracle
import plan_oracle
from conftest import (
    HOUR,
    MONDAY,
    QUARTER_HOUR,
    assert_untouched,
    energy,
    matched_days,
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


def test_interpolated_single_splits_the_energy_between_both_power_values():
    es = energy([0.0, np.nan, 4.0])
    p = energy_to_power(interpolate_singles(es)).values
    assert p.tolist() == [2.0, 2.0]
    assert p.sum() * 1.0 == 4.0  # bracketing energy difference, 1 h resolution


# ---------------------------------------------------------------------------
# Weekly pattern fit
# ---------------------------------------------------------------------------


def table(first, known, total=None, slots=24):
    """A day table of whole days from ``first``, each of ``slots`` slots."""
    n = len(known)
    bounds = np.arange(n + 1) * slots
    zero = np.zeros(n, dtype=np.int64)
    total = None if total is None else np.array(total, dtype=np.float64)
    return DayTable(first, bounds[:-1], bounds[1:], zero, zero,
                    np.array(known, dtype=np.float64), zero == 0, total)


def _days(totals, start=MONDAY.date()):
    """The table of consecutive days with these totals, and its every row."""
    return table(start, totals), np.arange(len(totals))


def test_weekend_offsets_recover_the_closed_form():
    totals = [110.0 if d % 7 in (5, 6) else 100.0 for d in range(28)]
    pattern = fit_weekly_pattern(*_days(totals))
    for w in range(1, 6):
        assert pattern.offsets[w - 1] == pytest.approx(-20 / 7, abs=1e-6)
    for w in (6, 7):
        assert pattern.offsets[w - 1] == pytest.approx(50 / 7, abs=1e-6)
    assert pattern.slope == pytest.approx(0.0, abs=1e-6)


def test_constant_totals_give_zero_offsets_and_slope():
    pattern = fit_weekly_pattern(*_days([42.0] * 21))
    assert max(abs(o) for o in pattern.offsets) < 1e-9
    assert abs(pattern.slope) < 1e-9
    assert pattern.intercept == pytest.approx(42.0)


def test_pure_trend_recovers_the_slope_exactly():
    pattern = fit_weekly_pattern(*_days([2.0 * i for i in range(28)]))
    assert pattern.slope == pytest.approx(2.0, abs=1e-9)
    assert max(abs(o) for o in pattern.offsets) < 1e-9


def test_fewer_than_fourteen_days_is_an_error():
    with pytest.raises(ImputationError, match="14"):
        fit_weekly_pattern(*_days([1.0] * 13))


def test_missing_weekday_class_is_named():
    days, rows = _days([10.0] * 20)
    with pytest.raises(ImputationError, match="Sunday"):
        fit_weekly_pattern(days, rows[days.weekday != 7])


def test_offsets_must_sum_to_zero():
    with pytest.raises(ValidationError, match="sum to zero"):
        WeeklyPattern(offsets=(1.0,) * 7, intercept=0.0, slope=0.0)


# ---------------------------------------------------------------------------
# Daily energy estimation
# ---------------------------------------------------------------------------


def _row(day):
    """The day-table row of ``day`` in a series that starts on MONDAY."""
    return (day - MONDAY.date()).days


def _flat_pattern(**overrides):
    offsets = [0.0] * 7
    for weekday, value in overrides.items():
        index = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"].index(weekday)
        offsets[index] = value
    return WeeklyPattern(offsets=tuple(offsets), intercept=0.0, slope=0.0)


def test_two_full_days_receive_their_weekly_offsets():
    # Friday and Saturday fully missing in the power domain: readings from
    # Friday 01:00 through Saturday 23:00 removed, 48 kWh metered over the gap.
    base = energy(np.arange(14 * 24 + 1, dtype=float))  # 1 kW constant, hourly
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    gaps = detect_gaps(es)
    assert gaps[0].actual_energy == pytest.approx(48.0)
    pattern = _flat_pattern(fri=4.0, sat=-4.0)
    totals = estimate_daily_energy(es, day_partition(es), gaps, pattern)
    assert totals[_row(date(2018, 1, 5))] == pytest.approx(28.0)
    assert totals[_row(date(2018, 1, 6))] == pytest.approx(20.0)


def test_zero_offsets_allocate_proportionally():
    # 23 readings missing -> 24 missing power values split 6 / 18 across the
    # Thursday/Friday boundary; constant 40/24 kW makes the gap worth 40 kWh.
    values = np.arange(14 * 24 + 1, dtype=float) * (40.0 / 24.0)
    es = with_missing(energy(values), range(3 * 24 + 19, 4 * 24 + 18))
    (gap,) = detect_gaps(es)
    assert gap.actual_energy == pytest.approx(40.0)
    totals = estimate_daily_energy(es, day_partition(es), [gap], _flat_pattern())
    thursday_known = 18 * 40.0 / 24.0
    friday_known = 6 * 40.0 / 24.0
    assert totals[_row(date(2018, 1, 4))] - thursday_known == pytest.approx(10.0)
    assert totals[_row(date(2018, 1, 5))] - friday_known == pytest.approx(30.0)


def test_single_day_gap_ignores_the_pattern():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(2 * 24 + 3, 2 * 24 + 9))
    (gap,) = detect_gaps(es)
    known = 24.0 - 7.0  # 24 slots of 1 kW minus the 7 missing power values
    for pattern in (_flat_pattern(), _flat_pattern(wed=5.0, sun=-5.0)):
        totals = estimate_daily_energy(es, day_partition(es), [gap], pattern)
        assert totals[_row(date(2018, 1, 3))] == pytest.approx(known + gap.actual_energy)


def test_unanchored_gap_is_rejected():
    es = with_missing(energy(np.arange(48.0 * 3)), [0, 1, 2])
    (gap,) = detect_gaps(es)
    with pytest.raises(ImputationError, match="unanchored"):
        estimate_daily_energy(es, day_partition(es), [gap], _flat_pattern())


def test_estimation_conserves_every_gap_exactly():
    rng = np.random.default_rng(5)
    values = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 3.0, size=21 * 24))))
    es = energy(values)
    es = with_missing(es, list(range(30, 80)) + list(range(200, 230)) + [400])
    es = interpolate_singles(es)
    gaps = detect_gaps(es)
    pattern = _flat_pattern(mon=3.0, tue=-1.0, wed=-2.0)
    totals = estimate_daily_energy(es, day_partition(es), gaps, pattern)
    allocated = (totals - day_partition(es).known_energy).sum()
    assert allocated == pytest.approx(sum(g.actual_energy for g in gaps), rel=1e-12)


def test_clamped_negative_allocations_still_conserve():
    # Large negative offset forces a clamp on the second day of the gap.
    base = energy(np.arange(14 * 24 + 1, dtype=float) * 0.05)  # 0.05 kW constant
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    (gap,) = detect_gaps(es)
    totals = estimate_daily_energy(
        es, day_partition(es), [gap], _flat_pattern(fri=40.0, sat=-40.0)
    )
    friday, saturday = totals[_row(date(2018, 1, 5))], totals[_row(date(2018, 1, 6))]
    assert friday >= 0.0 and saturday >= 0.0
    assert friday + saturday == pytest.approx(gap.actual_energy, rel=1e-12)


# ---------------------------------------------------------------------------
# Day compilation
# ---------------------------------------------------------------------------


def _no_estimates(days):
    return np.full(len(days), np.nan)


def test_fourteen_day_series_with_two_gap_days_has_twelve_candidates():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    days = day_partition(es)
    days = compile_complete_days(days, _no_estimates(days))
    assert len(days) == 14
    plan = plan_cpi(es, min_complete_days=12)
    assert plan.candidates.tolist() == [0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13]
    assert plan.layout.days.tolist() == [4, 5]
    assert np.flatnonzero(np.isnan(days.total)).tolist() == [4, 5]


def test_complete_year_gives_365_complete_records():
    from meterfill import synthetic_series

    days = day_partition(synthetic_series(3, days=365))
    days = compile_complete_days(days, _no_estimates(days))
    assert len(days) == 365
    assert (days.missing == 0).all()
    assert np.array_equal(days.total, days.known_energy)


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
    days = compile_complete_days(days, estimates)
    assert days.total[_row(date(2018, 1, 5))] == 28.0
    assert np.isnan(days.total[_row(date(2018, 1, 6))])
    assert days.total[0] == days.known_energy[0] == 24.0  # complete: its own total


def _columns(days):
    return [getattr(days, name).tolist()
            for name in ("start", "stop", "first_slot", "missing", "known_energy", "full_day")]


def test_plan_partitions_the_series_once():
    # Boundary and interior gaps: the partition feeds the weekly fit, the
    # estimates, the day totals and the match.
    base = energy(np.arange(21 * 24 + 1, dtype=float))
    es = with_missing(base, [0, 1, *range(4 * 24 + 1, 6 * 24), 20 * 24])
    with mock.patch("meterfill.cpi.day_partition", wraps=day_partition) as spy:
        plan = plan_cpi(es)
    assert spy.call_count == 1
    assert _columns(plan.days) == _columns(day_partition(plan.series))


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
    ctx = SeasonContext(365, 0.0, 100.0)
    a = record(date(2018, 3, 5), total=50.0)
    b = record(date(2018, 3, 5), total=50.0, complete=True)
    assert dissimilarity(a, b, DissimilarityWeights(5, 1, 10), ctx) == 0.0


def test_dissimilarity_composes_the_three_components():
    ctx = SeasonContext(365, 0.0, 10.0)
    a = record(date(2018, 1, 1), total=2.0)            # Monday, doy 1
    b = record(date(2018, 4, 13), total=0.0, complete=True)  # Friday, doy 103
    expected = 5 * 0.2 + 1 * 0.5 + 10 * (102 / 182)
    got = dissimilarity(a, b, DissimilarityWeights(5, 1, 10), ctx)
    assert got == pytest.approx(expected, abs=1e-12)


def test_component_ranges_stay_normalized():
    rng = np.random.default_rng(23)
    ctx = SeasonContext(365, 10.0, 60.0)
    weights = DissimilarityWeights(1.0, 1.0, 1.0)
    for _ in range(200):
        da = record(date(2018, 1, 1) + timedelta(days=int(rng.integers(365))),
                    total=float(rng.uniform(10, 60)))
        db = record(date(2018, 1, 1) + timedelta(days=int(rng.integers(365))),
                    total=float(rng.uniform(10, 60)), complete=True)
        assert 0.0 <= dissimilarity(da, db, weights, ctx) <= 3.0


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
    ctx = SeasonContext(365, 20.0, 46.0)
    target = record(date(2018, 1, 5), total=24.27, estimated=True)
    candidates = _fig1_candidates()
    best = candidates[best_donors([target], candidates, weights, ctx)[0]]
    assert best.date == date(2018, 1, 12)  # the second Friday
    assert dissimilarity(target, best, weights, ctx) == pytest.approx(0.4, abs=1e-9)
    others = [dissimilarity(target, c, weights, ctx) for c in candidates if c is not best]
    assert min(others) > 0.4


def test_single_candidate_is_returned():
    target = record(date(2018, 1, 5), total=10.0)
    only = record(date(2018, 1, 8), total=99.0, complete=True)
    ctx = SeasonContext(365, 0, 100)
    assert [only][best_donors([target], [only], DissimilarityWeights(), ctx)[0]] is only


def test_ties_break_on_calendar_distance_then_earlier_date():
    weights = DissimilarityWeights(1, 0, 0)  # energy only; equal totals tie
    ctx = SeasonContext(365, 0.0, 10.0)
    target = record(date(2018, 6, 15), total=5.0)
    near = record(date(2018, 6, 12), total=5.0, complete=True)   # 3 days away
    far = record(date(2018, 6, 25), total=5.0, complete=True)    # 10 days away
    assert [far, near][best_donors([target], [far, near], weights, ctx)[0]] is near
    before = record(date(2018, 6, 12), total=5.0, complete=True)
    after = record(date(2018, 6, 18), total=5.0, complete=True)
    assert [after, before][best_donors([target], [after, before], weights, ctx)[0]] is before


def test_empty_candidate_list_is_an_error():
    days = table(date(2018, 1, 5), [1.0], total=[1.0])
    with pytest.raises(ImputationError, match="no complete day available"):
        match_table(days, np.array([0]), np.array([], dtype=np.int64),
                    SeasonContext(365, 0, 2), np.array([0]))


def test_unanchored_day_matches_on_weekday_and_season_only():
    ctx = SeasonContext(365, 0.0, 10.0)
    target = record(date(2018, 1, 5))  # no total available
    same_weekday_far_energy = record(date(2018, 1, 12), total=10.0, complete=True)
    close_energy_other_class = record(date(2018, 1, 6), total=0.0, complete=True)
    candidates = [close_energy_other_class, same_weekday_far_energy]
    best = candidates[best_donors([target], candidates, DissimilarityWeights(50, 1, 1), ctx)[0]]
    assert best is same_weekday_far_energy


def test_scaling_all_weights_keeps_the_selection():
    rng = np.random.default_rng(31)
    ctx = SeasonContext(365, 0.0, 50.0)
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
        chosen = candidates[best_donors([target], candidates, base, ctx)[0]]
        for c in (2.0, 0.5, 8.0, 3.0):
            scaled = DissimilarityWeights(5 * c, 1 * c, 10 * c)
            best = candidates[best_donors([target], candidates, scaled, ctx)[0]]
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
        ctx = SeasonContext(366, 5.0, 20.0)
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

        chosen = best_donors(days, candidates, weights, ctx, keep)
        for day, row, j in zip(days, keep, chosen):
            kept = [c for c, k in zip(candidates, row) if k]
            expected = min(kept, key=lambda c: (
                dissimilarity(day, c, weights, ctx), abs((c.date - day.date).days), c.date,
            ))
            assert candidates[j].date == expected.date, (trial, day.date)
        for day in days:  # one row, no keep mask: every candidate competes
            expected = min(candidates, key=lambda c: (
                dissimilarity(day, c, weights, ctx), abs((c.date - day.date).days), c.date,
            ))
            assert candidates[best_donors([day], candidates, weights, ctx)[0]] is expected


def test_matrix_match_runs_the_distance_rules_under_test():
    # The truth tables above test these two functions; the match must use them.
    days = table(date(2018, 1, 5), [1.0] * 6, total=[1.0, np.nan, 1.0, 1.0, 1.0, 1.0])
    ctx = SeasonContext(365, 0, 2)
    with (
        mock.patch("meterfill.cpi.weekday_distance", wraps=weekday_distance) as weekday,
        mock.patch("meterfill.cpi.season_distance", wraps=season_distance) as season,
    ):
        match = match_table(days, np.array([0, 1]), np.array([3, 4, 5]), ctx, np.array([0, 0]))
    assert (weekday.call_count, season.call_count) == (1, 1)
    assert np.array_equal(match.weekday, weekday_distance(
        np.array([[5], [6]]), np.array([1, 2, 3])[match.order]))
    assert np.array_equal(match.season, season_distance(
        np.array([[5], [6]]), np.array([8, 9, 10])[match.order], 365))


def test_matrix_match_needs_a_kept_candidate_on_every_row():
    # The last day has 20 slots: it cannot fill the second row's slot 22.
    days = table(date(2018, 1, 5), [1.0] * 3, total=[1.0] * 3)
    days = DayTable(days.first, days.start, np.array([24, 48, 68]), *(
        getattr(days, name) for name in ("first_slot", "missing", "known_energy",
                                         "full_day", "total")))
    ctx = SeasonContext(365, 0, 2)
    match = match_table(days, np.array([0, 1]), np.array([2]), ctx, np.array([5, 19]))
    assert match.keep.tolist() == [[True], [True]]
    with pytest.raises(ImputationError, match="no complete day available"):
        match_table(days, np.array([0, 1]), np.array([2]), ctx, np.array([5, 22]))


def _tied_rows(table, triple):
    """Rows of ``table`` whose least dissimilarity is reached more than once."""
    w_energy, w_weekday, w_season = triple
    value = w_weekday * table.weekday + w_season * table.season
    value = value + w_energy * table.energy / table.energy_range
    value[~table.keep] = np.inf
    return int(((value == value.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())


def test_batched_match_agrees_with_the_lexsort_oracle_for_every_triple(monkeypatch):
    # Integer weights over a few discrete totals make exact ties on many
    # rows; zero weights, missing totals (days touched by an unanchored
    # boundary gap), per-row keep masks and both cycle lengths cover the
    # other branches.  Each triple must pick the oracle's donor, in one
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
        ctx = SeasonContext(cycle, 4.0, 16.0)
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

        table = plan_oracle.match_table(days, candidates, ctx, keep)
        batched = match_weights(table, triples)
        with monkeypatch.context() as patch:
            patch.setattr(cpi, "_BATCH_ENTRIES", 5 * len(days) * len(candidates))
            assert np.array_equal(match_weights(table, triples), batched)
        assert batched.shape == (len(triples), len(days))
        for triple, donors in zip(triples, batched):
            expected = lexsort_donors(days, candidates, DissimilarityWeights(*triple), ctx, keep)
            assert donors.tolist() == expected.tolist(), (trial, triple)
            ties += _tied_rows(table, triple)
    assert ties > 1000  # the tie-break decided many rows


def test_match_table_orders_each_row_by_calendar_distance_then_date():
    days = table(date(2018, 6, 12), [5.0] * 14, total=[5.0] * 14)  # 2018-06-12 .. 06-25
    candidates = np.array([0, 2, 6, 13])  # the 12th, 14th, 18th and 25th
    match = match_table(days, np.array([3]), candidates, SeasonContext(365, 0.0, 10.0),
                        np.array([0]))
    assert (12 + candidates[match.order[0]]).tolist() == [14, 12, 18, 25]
    assert match.keep.all()
    assert match.energy.tolist() == [[0.0] * 4]


def test_plan_match_uses_the_table_built_with_the_plan(year_series):
    degraded = with_missing(year_series, range(5000, 5400))
    plan = plan_cpi(degraded)
    assert plan.table.order.shape == (plan.layout.days.size, plan.candidates.size)
    with mock.patch("meterfill.cpi.match_table", wraps=match_table) as build:
        result = run_plan(plan, DissimilarityWeights())
    assert build.call_count == 0
    matches = matched_days(plan, DissimilarityWeights())
    assert dict(pair for fill in result.per_gap for pair in fill.sources) == matches
    oracle = plan_oracle.plan_cpi(degraded)
    gap_days = [r for r in oracle.records if not r.is_complete]
    candidates = oracle.candidate_records
    best = lexsort_donors(gap_days, candidates, DissimilarityWeights(), oracle.context)
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
    (gap,) = detect_gaps(es)
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
    assert e[gap.energy_last] + p[gap.last_missing] * 1.0 == pytest.approx(gap.anchor_after)
    assert p[span] == pytest.approx([2.0, 2.0, 2.0, 4.0])
    assert np.array_equal(energy_to_power(result.completed_energy).values, p)


def test_identical_energy_needs_no_scaling():
    day = np.ones(24)
    day[1:5] = 2.0
    es = energy(np.concatenate(([0.0], np.cumsum(np.tile(day, 3)))))
    es = with_missing(es, range(26, 29))
    (gap,) = detect_gaps(es)
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})
    assert result.per_gap[0].scale == pytest.approx(1.0)
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([2.0, 2.0, 2.0, 2.0])


def test_zero_pasted_energy_falls_back_to_uniform_fill():
    levels = np.concatenate([np.zeros(24), np.ones(24), np.ones(24)])
    es = energy(np.concatenate(([0.0], np.cumsum(levels))))
    es = with_missing(es, range(26, 29))  # 4 missing power values, 4 kWh metered
    (gap,) = detect_gaps(es)
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
    (gap,) = detect_gaps(es)
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
    (gap,) = detect_gaps(es)
    result = _paste(es, {date(2018, 1, 2): date(2018, 1, 1)})
    e = result.completed_energy.values
    p = result.completed_power.values
    last = gap.energy_last
    assert e[last] + p[gap.last_missing] * 1.0 == pytest.approx(
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
    want = _outcome(paste_oracle.copy_paste_and_scale, ps, gaps, matches, es, scale)
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
    assert len(per_gap) == len(gaps)


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
                plan.power, plan.layout.gaps, matches, plan.series, scale
            )
            _assert_same_outcome(run_plan(plan, weights, scale), want)


def test_plan_layout_rows_are_the_match_table_rows(year_series):
    from meterfill import MissingnessSpec, insert_missing

    degraded, _ = insert_missing(year_series, MissingnessSpec(share=0.1, seed=4))
    plan = plan_cpi(degraded)
    layout = plan.layout
    assert layout.days.dtype == np.int64
    assert np.array_equal(layout.days, np.flatnonzero(plan.days.missing))
    assert plan.table.order.shape[0] == layout.days.size
    assert layout.gaps == plan.layout.gaps == tuple(detect_gaps(plan.series))
    assert np.array_equal(layout.missing, np.flatnonzero(np.isnan(plan.power.values)))
    for gap, (lo, hi) in zip(layout.gaps, layout.gap_rows):
        first, last = (plan.power.timestamp(i).date() for i in (gap.first_missing, gap.last_missing))
        days = [plan.days.first + timedelta(days=d) for d in layout.days[[lo, hi - 1]].tolist()]
        assert days == [first, last]


# ---------------------------------------------------------------------------
# The plan against the per-day oracle
# ---------------------------------------------------------------------------

# The longest span drawn at each resolution, in days: finer data over
# shorter spans keeps the oracle test within a few seconds.
_PLAN_SPANS = {timedelta(minutes=5): 90, QUARTER_HOUR: 400, HOUR: 731}


@st.composite
def _plan_inputs(draw):
    """A series of 14 days to 2 years with gaps, as ``plan_cpi`` takes it.

    Resolutions of 5 min, 15 min and 1 h; starts at 00:00, 07:00 and 13:00
    on days that put Feb 29, a leap year's Dec 31 without its Feb 29, or
    neither in the series.  Many series end at a midnight, so the last day
    is a full donor one power slot short.  Gaps may touch either end, span
    several days, crowd three to six into one day or recur every week.  A
    generation meter's power changes sign from day to day.  Some draws
    leave too few complete days or no complete day of some weekday, so the
    errors are compared too.
    """
    resolution = draw(st.sampled_from(list(_PLAN_SPANS)))
    spd = timedelta(days=1) // resolution
    day0 = draw(st.sampled_from([
        date(2018, 1, 1), date(2020, 2, 20), date(2019, 12, 30), date(2020, 3, 1),
        date(2019, 3, 4),
    ]))
    start = datetime.combine(day0, time(draw(st.sampled_from([0, 7, 13]))))
    offset = (start - datetime.combine(day0, time())) // resolution
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A quarter of the series span two weeks; the rest, any length up to the cap.
    days = draw(st.sampled_from([0, 0, 0, 14])) or int(rng.integers(28, _PLAN_SPANS[resolution]))
    n = days * spd - offset + draw(st.one_of(st.just(0), st.integers(0, spd - 1)))
    kind = draw(st.sampled_from(list(MeterKind)))

    slot = offset + np.arange(n - 1)
    low = 0.5 if kind is MeterKind.CONSUMPTION else -1.0
    level = rng.uniform(low, 2.0, size=days + 1)[slot // spd]
    shape = 1.0 + np.sin(2 * np.pi * (slot % spd) / spd) + 0.1 * rng.random(n - 1)
    values = 100.0 + np.concatenate(([0.0], np.cumsum(level * shape * (resolution / HOUR))))

    missing = np.zeros(n, dtype=bool)
    kinds = st.sampled_from(["head", "tail", "long", "long", "short", "short", "crowd", "crowd",
                             "weekly"])
    for where in draw(st.lists(kinds, min_size=1, max_size=6)):
        if where == "crowd":  # three to six gaps inside one day
            first = draw(st.integers(0, n - spd))
            count = draw(st.integers(3, 6))
            step = spd // count
            for k in range(count):
                missing[first + k * step + 1 : first + (k + 1) * step - 1] = True
            continue
        if where == "weekly":  # the same hour of one weekday in every week
            for week in range(draw(st.integers(0, 7 * spd)), n - 3, 7 * spd):
                missing[week + 1 : week + 3] = True
            continue
        longest = {"long": 3 * spd, "short": spd // 2}.get(where, spd)
        length = draw(st.integers(spd + 1 if where == "long" else 2, longest))
        first = {"head": 0, "tail": n - length}.get(where)
        if first is None:
            first = draw(st.integers(0, n - length))
        missing[first : first + length] = True
    missing[n // 2] = False  # an energy series needs a present reading
    return EnergySeries(start, resolution, np.where(missing, np.nan, values), meter_kind=kind)


def _assert_same_plan(got, want):
    """The day table, candidates, context, layout and match table agree bit for bit."""
    views = plan_oracle.views(got.days)
    assert views == list(want.days)
    assert repr(views) == repr(list(want.days))
    records = want.records
    totals = np.array([np.nan if r.total_energy is None else r.total_energy for r in records])
    assert got.days.total.tobytes() == totals.tobytes()
    assert got.days.weekday.tolist() == [r.weekday for r in records]
    assert got.days.day_of_year.tolist() == [r.day_of_year for r in records]
    assert got.candidates.tobytes() == want.candidates.tobytes()
    assert [records[i].date for i in got.candidates.tolist()] == [
        c.date for c in want.candidate_records
    ]

    assert got.context == want.context
    assert type(got.context.energy_min) is float and type(got.context.energy_max) is float

    a, b = got.layout, want.layout
    assert (a.gaps, a.gap_rows) == (b.gaps, b.gap_rows)
    for name in ("days", "missing", "row"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    for name in ("weekday", "season", "energy", "keep", "order"):
        a, b = getattr(got.table, name), getattr(want.table, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.table.energy_range == want.table.energy_range
    triples = [(5, 1, 10), (1, 0, 0), (0, 1, 1), (2.5, 0.5, 7)]
    assert np.array_equal(match_weights(got.table, triples), match_weights(want.table, triples))


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
        _assert_same_outcome(_outcome(run_plan, got, DEFAULT_WEIGHTS, scale),
                             _outcome(run_plan, want, DEFAULT_WEIGHTS, scale))


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
        seen.add(outcome.context.cycle_length)
        seen.add(es.resolution)
        spd = timedelta(days=1) // es.resolution
        seen.update("long" for g in outcome.layout.gaps if g.length > spd)
        seen.update("boundary" for r in outcome.records if r.total_energy is None)
        touched = [row for lo, hi in outcome.layout.gap_rows for row in range(lo, hi)]
        if touched and max(map(touched.count, touched)) >= 3:
            seen.add("crowded")
        if not outcome.table.keep.all():
            seen.add("short donor")
        if (np.diff(es.values[np.isfinite(es.values)]) < 0).any():
            seen.add("sign change")

    collect()
    assert seen >= {
        365, 366, "boundary", "long", "crowded", "short donor", "sign change",
        timedelta(minutes=5), QUARTER_HOUR, HOUR, "copy-paste", "no",
    }


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
    # The weekly pattern gives the shares of the crossing gaps bits that
    # other sums round differently, and almost all of a day's energy lies
    # in its gaps, so a day's total is the oracle's only if its shares are
    # added in the oracle's gap order.
    rng = np.random.default_rng(29)
    crowded = [24 * d + h for d in range(2, 22) for h in (-2, -1, 0, 1, 2, 7, 8, 14, 15)]
    power = rng.uniform(0.001, 0.002, size=28 * 24)
    gap_power = np.unique(np.clip([i + k for i in crowded for k in (-1, 0)], 0, None))
    power[gap_power] = rng.uniform(1.0, 3.0, size=gap_power.size)
    es = with_missing(energy(np.concatenate(([0.0], np.cumsum(power)))), crowded)
    pattern = WeeklyPattern((0.3, -0.1, 0.25, -0.45, 0.0, 0.7, -0.7), 0.0, 0.0)
    gaps = detect_gaps(es)
    got = estimate_daily_energy(es, day_partition(es), gaps, pattern)
    want = plan_oracle.estimate_daily_energy(es, plan_oracle.day_partition(es), gaps, pattern)
    assert got.tobytes() == np.array(list(want.values())).tobytes()


def test_stage_errors_match_the_oracle():
    es = with_missing(energy(np.arange(48.0 * 3)), [0, 1, 2])
    gaps = detect_gaps(es)
    got = _outcome(estimate_daily_energy, es, day_partition(es), gaps, _flat_pattern())
    want = _outcome(plan_oracle.estimate_daily_energy, es, plan_oracle.day_partition(es), gaps,
                    _flat_pattern())
    assert isinstance(want, tuple) and got == want

    days = table(date(2018, 1, 5), [1.0] * 3, total=[1.0] * 3)  # 24 slots a day
    got = _outcome(match_table, days, np.array([0]), np.array([2]), SeasonContext(365, 0, 2),
                   np.array([24]))
    want = _outcome(plan_oracle.match_table, [record(date(2018, 1, 5), total=1.0)],
                    [record(date(2018, 1, 7), total=1.0, complete=True)],
                    SeasonContext(365, 0, 2), np.array([[False]]))
    assert isinstance(want, tuple) and got == want


def test_season_context_holds_plain_floats():
    from meterfill import MissingnessSpec, insert_missing, synthetic_series

    for seed in range(3):
        truth = synthetic_series(seed, days=120)
        for share in (0.01, 0.1, 0.3):
            degraded, _ = insert_missing(truth, MissingnessSpec(share=share, seed=seed))
            context = plan_cpi(degraded).context
            assert type(context.energy_min) is float and type(context.energy_max) is float
            assert context == plan_oracle.plan_cpi(degraded).context


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
    for gap in detect_gaps(degraded):
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
