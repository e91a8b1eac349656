"""Tests for the copy-paste imputation pipeline."""

from datetime import date, datetime, timedelta

import numpy as np
import pytest

from meterfill import (
    CpiConfig,
    DayRecord,
    DissimilarityWeights,
    ImputationError,
    MeterKind,
    SeasonContext,
    ValidationError,
    combine_distances,
    compile_complete_days,
    copy_paste_and_scale,
    detect_gaps,
    dissimilarity,
    energy_to_power,
    estimate_daily_energy,
    fit_weekly_pattern,
    impute_cpi,
    interpolate_singles,
    select_best_match,
)
from meterfill.cpi import WeeklyPattern, _best_donors, season_distance, weekday_distance

from conftest import HOUR, MONDAY, assert_untouched, energy, with_missing


def record(day, total=None, complete=False, estimated=False, full=True):
    return DayRecord(
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


def _days(totals, start=MONDAY.date()):
    return [(start + timedelta(days=i), t) for i, t in enumerate(totals)]


def test_weekend_offsets_recover_the_closed_form():
    totals = [110.0 if d % 7 in (5, 6) else 100.0 for d in range(28)]
    pattern = fit_weekly_pattern(_days(totals))
    for w in range(1, 6):
        assert pattern.offsets[w - 1] == pytest.approx(-20 / 7, abs=1e-6)
    for w in (6, 7):
        assert pattern.offsets[w - 1] == pytest.approx(50 / 7, abs=1e-6)
    assert pattern.slope == pytest.approx(0.0, abs=1e-6)


def test_constant_totals_give_zero_offsets_and_slope():
    pattern = fit_weekly_pattern(_days([42.0] * 21))
    assert max(abs(o) for o in pattern.offsets) < 1e-9
    assert abs(pattern.slope) < 1e-9
    assert pattern.intercept == pytest.approx(42.0)


def test_pure_trend_recovers_the_slope_exactly():
    pattern = fit_weekly_pattern(_days([2.0 * i for i in range(28)]))
    assert pattern.slope == pytest.approx(2.0, abs=1e-9)
    assert max(abs(o) for o in pattern.offsets) < 1e-9


def test_fewer_than_fourteen_days_is_an_error():
    with pytest.raises(ImputationError, match="14"):
        fit_weekly_pattern(_days([1.0] * 13))


def test_missing_weekday_class_is_named():
    days = [
        (MONDAY.date() + timedelta(days=i), 10.0)
        for i in range(20)
        if (MONDAY.date() + timedelta(days=i)).isoweekday() != 7
    ]
    with pytest.raises(ImputationError, match="Sunday"):
        fit_weekly_pattern(days)


def test_offsets_must_sum_to_zero():
    with pytest.raises(ValidationError, match="sum to zero"):
        WeeklyPattern(offsets=(1.0,) * 7, intercept=0.0, slope=0.0)


# ---------------------------------------------------------------------------
# Daily energy estimation
# ---------------------------------------------------------------------------


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
    totals = estimate_daily_energy(es, gaps, pattern)
    assert totals[date(2018, 1, 5)] == pytest.approx(28.0)
    assert totals[date(2018, 1, 6)] == pytest.approx(20.0)


def test_zero_offsets_allocate_proportionally():
    # 23 readings missing -> 24 missing power values split 6 / 18 across the
    # Thursday/Friday boundary; constant 40/24 kW makes the gap worth 40 kWh.
    values = np.arange(14 * 24 + 1, dtype=float) * (40.0 / 24.0)
    es = with_missing(energy(values), range(3 * 24 + 19, 4 * 24 + 18))
    (gap,) = detect_gaps(es)
    assert gap.actual_energy == pytest.approx(40.0)
    totals = estimate_daily_energy(es, [gap], _flat_pattern())
    thursday_known = 18 * 40.0 / 24.0
    friday_known = 6 * 40.0 / 24.0
    assert totals[date(2018, 1, 4)] - thursday_known == pytest.approx(10.0)
    assert totals[date(2018, 1, 5)] - friday_known == pytest.approx(30.0)


def test_single_day_gap_ignores_the_pattern():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(2 * 24 + 3, 2 * 24 + 9))
    (gap,) = detect_gaps(es)
    known = 24.0 - 7.0  # 24 slots of 1 kW minus the 7 missing power values
    for pattern in (_flat_pattern(), _flat_pattern(wed=5.0, sun=-5.0)):
        totals = estimate_daily_energy(es, [gap], pattern)
        assert totals[date(2018, 1, 3)] == pytest.approx(known + gap.actual_energy)


def test_unanchored_gap_is_rejected():
    es = with_missing(energy(np.arange(48.0 * 3)), [0, 1, 2])
    (gap,) = detect_gaps(es)
    with pytest.raises(ImputationError, match="unanchored"):
        estimate_daily_energy(es, [gap], _flat_pattern())


def test_estimation_conserves_every_gap_exactly():
    rng = np.random.default_rng(5)
    values = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 3.0, size=21 * 24))))
    es = energy(values)
    es = with_missing(es, list(range(30, 80)) + list(range(200, 230)) + [400])
    es = interpolate_singles(es)
    gaps = detect_gaps(es)
    pattern = _flat_pattern(mon=3.0, tue=-1.0, wed=-2.0)
    totals = estimate_daily_energy(es, gaps, pattern)
    from meterfill import day_partition

    allocated = sum(totals[v.date] - v.known_energy for v in day_partition(es))
    assert allocated == pytest.approx(sum(g.actual_energy for g in gaps), rel=1e-12)


def test_clamped_negative_allocations_still_conserve():
    # Large negative offset forces a clamp on the second day of the gap.
    base = energy(np.arange(14 * 24 + 1, dtype=float) * 0.05)  # 0.05 kW constant
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    (gap,) = detect_gaps(es)
    totals = estimate_daily_energy(es, [gap], _flat_pattern(fri=40.0, sat=-40.0))
    friday, saturday = totals[date(2018, 1, 5)], totals[date(2018, 1, 6)]
    assert friday >= 0.0 and saturday >= 0.0
    assert friday + saturday == pytest.approx(gap.actual_energy, rel=1e-12)


# ---------------------------------------------------------------------------
# Day compilation
# ---------------------------------------------------------------------------


def test_fourteen_day_series_with_two_gap_days_has_twelve_candidates():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    records = compile_complete_days(es, {})
    assert len(records) == 14
    candidates = [r for r in records if r.is_complete and r.full_day]
    assert len(candidates) == 12
    incomplete = [r.date for r in records if not r.is_complete]
    assert incomplete == [date(2018, 1, 5), date(2018, 1, 6)]


def test_complete_year_gives_365_complete_records():
    from meterfill import synthetic_series

    records = compile_complete_days(synthetic_series(3, days=365), {})
    assert len(records) == 365
    assert all(r.is_complete for r in records)


def test_day_of_year_bounds():
    base = energy(np.arange(2 * 24 + 1, dtype=float), start=datetime(2018, 12, 31))
    records = compile_complete_days(base, {})
    assert records[0].day_of_year == 365
    jan = compile_complete_days(energy(np.arange(25.0)), {})
    assert jan[0].day_of_year == 1


def test_estimated_days_carry_the_estimate():
    base = energy(np.arange(14 * 24 + 1, dtype=float))
    es = with_missing(base, range(4 * 24 + 1, 6 * 24))
    records = compile_complete_days(es, {date(2018, 1, 5): 28.0})
    by_date = {r.date: r for r in records}
    assert by_date[date(2018, 1, 5)].estimated
    assert by_date[date(2018, 1, 5)].total_energy == 28.0
    assert by_date[date(2018, 1, 6)].total_energy is None
    assert not by_date[date(2018, 1, 6)].estimated


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
    values = {weekday_distance(i, j) for i in range(1, 8) for j in range(1, 8)}
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
    best = select_best_match(target, candidates, weights, ctx)
    assert best.date == date(2018, 1, 12)  # the second Friday
    assert dissimilarity(target, best, weights, ctx) == pytest.approx(0.4, abs=1e-9)
    others = [dissimilarity(target, c, weights, ctx) for c in candidates if c is not best]
    assert min(others) > 0.4


def test_single_candidate_is_returned():
    target = record(date(2018, 1, 5), total=10.0)
    only = record(date(2018, 1, 8), total=99.0, complete=True)
    assert select_best_match(target, [only], ctx=SeasonContext(365, 0, 100)) is only


def test_ties_break_on_calendar_distance_then_earlier_date():
    weights = DissimilarityWeights(1, 0, 0)  # energy only; equal totals tie
    ctx = SeasonContext(365, 0.0, 10.0)
    target = record(date(2018, 6, 15), total=5.0)
    near = record(date(2018, 6, 12), total=5.0, complete=True)   # 3 days away
    far = record(date(2018, 6, 25), total=5.0, complete=True)    # 10 days away
    assert select_best_match(target, [far, near], weights, ctx) is near
    before = record(date(2018, 6, 12), total=5.0, complete=True)
    after = record(date(2018, 6, 18), total=5.0, complete=True)
    assert select_best_match(target, [after, before], weights, ctx) is before


def test_empty_candidate_list_is_an_error():
    with pytest.raises(ImputationError, match="no complete day available"):
        select_best_match(record(date(2018, 1, 5), total=1.0), [], ctx=SeasonContext(365, 0, 2))


def test_unanchored_day_matches_on_weekday_and_season_only():
    ctx = SeasonContext(365, 0.0, 10.0)
    target = record(date(2018, 1, 5))  # no total available
    same_weekday_far_energy = record(date(2018, 1, 12), total=10.0, complete=True)
    close_energy_other_class = record(date(2018, 1, 6), total=0.0, complete=True)
    best = select_best_match(
        target, [close_energy_other_class, same_weekday_far_energy],
        DissimilarityWeights(50, 1, 1), ctx,
    )
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
        chosen = select_best_match(target, candidates, base, ctx)
        for c in (2.0, 0.5, 8.0, 3.0):
            scaled = DissimilarityWeights(5 * c, 1 * c, 10 * c)
            assert select_best_match(target, candidates, scaled, ctx).date == chosen.date


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

        chosen = _best_donors(days, candidates, weights, ctx, keep)
        for day, row, j in zip(days, keep, chosen):
            kept = [c for c, k in zip(candidates, row) if k]
            expected = min(kept, key=lambda c: (
                dissimilarity(day, c, weights, ctx), abs((c.date - day.date).days), c.date,
            ))
            assert candidates[j].date == expected.date, (trial, day.date)
        for day in days:
            assert select_best_match(day, candidates, weights, ctx) is candidates[
                _best_donors([day], candidates, weights, ctx)[0]
            ]


def test_matrix_match_needs_a_kept_candidate_on_every_row():
    days = [record(date(2018, 1, 5), total=1.0), record(date(2018, 1, 6), total=1.0)]
    candidates = [record(date(2018, 1, 8), total=1.0, complete=True)]
    keep = np.array([[True], [False]])
    with pytest.raises(ImputationError, match="no complete day available"):
        _best_donors(days, candidates, DissimilarityWeights(), SeasonContext(365, 0, 2), keep)


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
    result = copy_paste_and_scale(
        energy_to_power(es), [gap],
        {date(2018, 1, 2): date(2018, 1, 1)}, es,
    )
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([2.5, 2.5, 2.5, 2.5])
    assert result.per_gap[0].scale == pytest.approx(10.0 / 8.0)
    assert result.per_gap[0].sources == ((date(2018, 1, 2), date(2018, 1, 1)),)


def test_unscaled_paste_keeps_its_energy_miss_in_the_imputed_power():
    es, gap = _donor_short_of_metered_energy()
    result = copy_paste_and_scale(
        energy_to_power(es), [gap],
        {date(2018, 1, 2): date(2018, 1, 1)}, es, scale=False,
    )
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
    result = copy_paste_and_scale(
        energy_to_power(es), [gap], {date(2018, 1, 2): date(2018, 1, 1)}, es
    )
    assert result.per_gap[0].scale == pytest.approx(1.0)
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([2.0, 2.0, 2.0, 2.0])


def test_zero_pasted_energy_falls_back_to_uniform_fill():
    levels = np.concatenate([np.zeros(24), np.ones(24), np.ones(24)])
    es = energy(np.concatenate(([0.0], np.cumsum(levels))))
    es = with_missing(es, range(26, 29))  # 4 missing power values, 4 kWh metered
    (gap,) = detect_gaps(es)
    result = copy_paste_and_scale(
        energy_to_power(es), [gap], {date(2018, 1, 2): date(2018, 1, 1)}, es
    )
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
    result = copy_paste_and_scale(
        energy_to_power(es), [gap], {date(2018, 1, 2): date(2018, 1, 1)}, es
    )
    assert result.per_gap[0].fallback == "uniform"
    imputed = result.completed_power.values[gap.first_missing : gap.last_missing + 1]
    assert imputed == pytest.approx([-1.0, -1.0, -1.0, -1.0])


def test_rebuilt_energy_meets_the_right_anchor():
    day = np.ones(24)
    day[5:9] = 3.0
    es = energy(np.concatenate(([0.0], np.cumsum(np.tile(day, 3) * 1.1))))
    es = with_missing(es, range(26, 33))
    (gap,) = detect_gaps(es)
    result = copy_paste_and_scale(
        energy_to_power(es), [gap], {date(2018, 1, 2): date(2018, 1, 1)}, es
    )
    e = result.completed_energy.values
    p = result.completed_power.values
    last = gap.energy_last
    assert e[last] + p[gap.last_missing] * 1.0 == pytest.approx(
        gap.anchor_after, abs=1e-9
    )
    assert_untouched(es, e)


def _paste(es, matches, scale=True):
    return copy_paste_and_scale(energy_to_power(es), detect_gaps(es), matches, es, scale=scale)


def test_donor_outside_the_series_is_an_imputation_error():
    es = with_missing(energy(np.arange(73.0)), range(26, 29))
    with pytest.raises(ImputationError, match="2018-01-09"):
        _paste(es, {date(2018, 1, 2): date(2018, 1, 9)})


def test_day_without_a_match_is_an_imputation_error():
    es = with_missing(energy(np.arange(73.0)), range(26, 29))
    with pytest.raises(ImputationError, match="no matched day supplied for 2018-01-02"):
        _paste(es, {})


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
    config = CpiConfig(min_complete_days=12)
    result = impute_cpi(degraded, DissimilarityWeights(20, 1, 5), config)

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
