"""Tests for the benchmark imputers."""

from dataclasses import replace
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meterfill import (
    ImputationError,
    MissingnessSpec,
    PowerSeries,
    energy_to_power,
    impute_hist_avg,
    impute_linear,
    impute_seasonal_model,
    insert_missing,
    synthetic_series,
)
from meterfill import baselines
from meterfill.baselines import SeasonalModel, calendar_columns, fit_seasonal_model
from meterfill.errors import MeterfillError, ValidationError
from meterfill.series import day_slot

import baseline_oracle
import seasonal_oracle
from conftest import power


def with_nan(values, indices):
    values = np.array(values, dtype=float)
    values[list(indices)] = np.nan
    return values


# ---------------------------------------------------------------------------
# Linear interpolation
# ---------------------------------------------------------------------------


def test_linear_hand_example():
    ps = power(with_nan([2.0, 0, 0, 0, 6.0], [1, 2, 3]))
    out = impute_linear(ps)
    assert out.values.tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]


def test_linear_constant_fill_between_equal_values():
    ps = power(with_nan([4.0, 0, 0, 4.0], [1, 2]))
    assert impute_linear(ps).values.tolist() == [4.0, 4.0, 4.0, 4.0]


def test_linear_midpoint_is_the_anchor_mean():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.uniform(0, 10, size=2)
        ps = power(with_nan([a, 0, 0, 0, b], [1, 2, 3]))
        assert impute_linear(ps).values[2] == pytest.approx((a + b) / 2)


def test_linear_boundary_runs_extend_the_nearest_value():
    ps = power(with_nan([0, 0, 3.0, 5.0, 0], [0, 1, 4]))
    assert impute_linear(ps).values.tolist() == [3.0, 3.0, 3.0, 5.0, 5.0]


def test_linear_stays_within_the_anchor_range():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 10, 200)
    missing = rng.choice(np.arange(1, 199), size=60, replace=False)
    ps = power(with_nan(values, missing))
    out = impute_linear(ps).values
    for i in missing:
        left = right = int(i)
        while np.isnan(ps.values[left]):
            left -= 1
        while np.isnan(ps.values[right]):
            right += 1
        lo = min(ps.values[left], ps.values[right])
        hi = max(ps.values[left], ps.values[right])
        assert lo - 1e-12 <= out[i] <= hi + 1e-12


def test_linear_needs_a_present_value():
    with pytest.raises(ImputationError):
        impute_linear(power([np.nan, np.nan]))


def test_linear_preserves_present_values():
    values = with_nan(np.arange(10.0), [4])
    out = impute_linear(power(values))
    present = ~np.isnan(values)
    assert np.array_equal(out.values[present], values[present])


# ---------------------------------------------------------------------------
# Historical average
# ---------------------------------------------------------------------------


def test_histavg_on_an_exactly_repeating_week():
    week = np.tile(np.arange(7 * 24, dtype=float), 3)
    missing = [30, 31, 200]
    ps = power(with_nan(week, missing))
    out = impute_hist_avg(ps)
    assert np.array_equal(out.values, week)


def test_histavg_constant_series():
    values = with_nan(np.full(7 * 24 * 2, 3.5), [50, 51])
    assert np.allclose(impute_hist_avg(power(values)).values, 3.5)


def test_histavg_averages_across_weeks():
    values = np.zeros(7 * 24 * 3)
    slot = 10
    values[slot] = 5.0            # week 1: v
    values[slot + 168] = 7.0      # week 2: v + 2
    values[slot + 336] = np.nan   # week 3: missing
    out = impute_hist_avg(power(values))
    assert out.values[slot + 336] == pytest.approx(6.0)


def test_histavg_errors_on_an_all_missing_slot():
    values = np.ones(7 * 24 * 2)
    values[10] = values[10 + 168] = np.nan
    with pytest.raises(ImputationError, match="slot 10"):
        impute_hist_avg(power(values))


def test_histavg_ignores_which_weeks_hold_the_gaps():
    # Same present values per slot, gaps in different weeks: same fills.
    base = np.tile(np.arange(7 * 24, dtype=float) * 0.1, 4)
    a = with_nan(base, [5, 6, 7])
    b = with_nan(base, [5 + 168, 6 + 336, 7 + 168])
    out_a = impute_hist_avg(power(a))
    out_b = impute_hist_avg(power(b))
    assert out_a.values[5] == pytest.approx(out_b.values[5 + 168])
    assert out_a.values[6] == pytest.approx(out_b.values[6 + 336])


# ---------------------------------------------------------------------------
# Seasonal model
# ---------------------------------------------------------------------------


def _daily_sinusoid(days=28, spd=24, amp=1.0, level=5.0):
    t = np.arange(days * spd)
    return level + amp * np.sin(2 * np.pi * t / spd)


def test_seasonal_recovers_a_daily_sinusoid():
    rng = np.random.default_rng(17)
    truth = _daily_sinusoid()
    missing = rng.choice(truth.size, size=truth.size // 10, replace=False)
    ps = power(with_nan(truth, missing))
    out = impute_seasonal_model(ps)
    err = out.values[missing] - truth[missing]
    rms = np.sqrt(np.mean(err**2))
    assert rms < 0.05 * np.sqrt(np.mean(truth[missing] ** 2))


def test_seasonal_constant_series_gives_zero_profiles():
    values = with_nan(np.full(28 * 24, 2.0), [100, 101, 102])
    ps = power(values)
    model = fit_seasonal_model(ps)
    assert np.allclose(model.daily_profile, 0.0, atol=1e-9)
    assert np.allclose(model.weekly_profile, 0.0, atol=1e-9)
    assert np.allclose(impute_seasonal_model(ps).values, 2.0)


def test_seasonal_recovers_a_pure_ramp():
    truth = 2.0 * np.arange(35 * 24, dtype=float)
    missing = [100, 500, 600, 601]
    ps = power(with_nan(truth, missing))
    model = fit_seasonal_model(ps)
    knot_values = np.asarray(model.knot_values)
    knots = np.asarray(model.knots, dtype=float)
    slopes = np.diff(knot_values) / np.diff(knots)
    assert np.allclose(slopes, 2.0, atol=1e-6)
    out = impute_seasonal_model(ps)
    assert out.values[missing] == pytest.approx(truth[missing], abs=1e-5)


@pytest.mark.parametrize(
    "slots, days", [(96, 120), (24, 400), (288, 45)], ids=["15min", "1h", "5min"]
)
@pytest.mark.parametrize("start", [datetime(2018, 1, 1), datetime(2018, 3, 7, 13, 0)],
                         ids=["aligned", "midday"])
@pytest.mark.parametrize("share", [0.02, 0.3])
def test_seasonal_matches_the_dense_oracle(slots, days, start, share):
    # Largest difference seen over these cases with gap seeds 0, 1, 2 and 5: 1.8e-13 kW.
    truth = synthetic_series(7, days, slots, start)
    degraded, _ = insert_missing(truth, MissingnessSpec(share=share, seed=5))
    ps = energy_to_power(degraded)
    every_knot = list(range(0, ps.n - 1, 28 * slots)) + [ps.n - 1]
    assert list(fit_seasonal_model(ps).knots) == every_knot
    out = impute_seasonal_model(ps).values
    expected = seasonal_oracle.impute_seasonal(ps).values
    assert np.max(np.abs(out - expected)) <= 1e-9


@pytest.mark.parametrize(
    "outage, dropped",
    [(slice(0, 30 * 24), 0), (slice(28 * 24, 84 * 24), 1344)],
    ids=["leading-30-days", "interior-56-days"],
)
def test_seasonal_trend_bridges_a_knot_without_present_values(outage, dropped):
    truth = energy_to_power(synthetic_series(5, 120, 24))
    values = np.array(truth.values)
    values[outage] = np.nan
    ps = replace(truth, values=values)
    model = fit_seasonal_model(ps)
    assert dropped not in model.knots
    # A knot fitted without support fell to about 0 kW, far below every
    # present value; the trend over the outage now stays among them.
    trend = model.trend_at(np.arange(outage.start, outage.stop, dtype=float))
    assert np.nanmin(values) <= trend.min() and trend.max() <= np.nanmax(values)
    out = impute_seasonal_model(ps).values
    assert not np.isnan(out).any()
    assert np.array_equal(out[~np.isnan(values)], values[~np.isnan(values)])


def test_seasonal_needs_two_weeks_of_data():
    values = with_nan(np.ones(7 * 24), [10])
    with pytest.raises(ImputationError, match="two weeks"):
        impute_seasonal_model(power(values))


def test_all_imputers_return_complete_series_and_keep_present_values():
    rng = np.random.default_rng(29)
    truth = _daily_sinusoid(days=21) * (1 + 0.1 * rng.standard_normal(21 * 24))
    # keep the removals inside week 2 so every weekly slot keeps two values
    missing = rng.choice(np.arange(7 * 24, 14 * 24), size=80, replace=False)
    ps = power(with_nan(truth, missing))
    present = ~np.isnan(ps.values)
    for impute in (impute_linear, impute_hist_avg, impute_seasonal_model):
        out = impute(ps)
        assert not np.isnan(out.values).any()
        assert np.array_equal(out.values[present], ps.values[present])


def test_method_table_dispatches_through_the_module_functions(monkeypatch):
    """Each baseline's fill is looked up in ``meterfill.baselines`` at each call.

    A wrapper set on the module attribute sees the call of ``method_imputer``
    on a power and on an energy series, and that of an ``evaluate`` cell.
    """
    from meterfill import metrics

    assert list(metrics.METHODS) == ["cpi", "cpi_noscale", "linear", "histavg", "seasonal"]
    series = synthetic_series(4, days=28, slots_per_day=24)
    degraded, _ = insert_missing(series, MissingnessSpec(share=0.1, seed=2))
    ps = energy_to_power(degraded)
    names = {"linear": "impute_linear", "histavg": "impute_hist_avg",
             "seasonal": "impute_seasonal_model"}
    calls = {method: [] for method in names}
    for method, name in names.items():
        fill = getattr(baselines, name)
        want = fill(ps).values.tobytes()

        def watched(series, method=method, fill=fill):
            calls[method].append(series)
            return fill(series)

        monkeypatch.setattr(baselines, name, watched)
        assert metrics.method_imputer(method, "power")(ps).values.tobytes() == want
        assert metrics.method_imputer(method)(degraded).imputed_power.values.tobytes() == want
        assert len(calls[method]) == 2
    report = metrics.evaluate([("s", series)], shares=[0.1], methods=list(names))
    assert [r.error for r in report.rows] == [None] * 3
    assert [len(c) for c in calls.values()] == [3, 3, 3]


def test_every_baseline_fill_scales_with_the_unit_bit_for_bit():
    """A baseline's fill of the power times 2**k is its fill times 2**k, bit for bit.

    A file in Wh, or a substation's readings, reach 2**36 (about 7e10) and
    more.  The seasonal model's zero-mean check is relative to each
    profile's largest magnitude, so it holds there as at unit scale.
    """
    from meterfill import metrics

    degraded, _ = insert_missing(synthetic_series(3), MissingnessSpec(share=0.1, seed=1))
    ps = energy_to_power(degraded)
    for method in ("linear", "histavg", "seasonal"):
        fill = metrics.method_imputer(method, "power")
        want = fill(ps).values
        for k in (-40, 36, 40):
            got = fill(replace(ps, values=ps.values * 2.0**k)).values
            assert got.tobytes() == (want * 2.0**k).tobytes(), (method, k)


def test_a_seasonal_model_whose_profile_mean_is_not_zero_is_refused():
    daily = np.sin(np.arange(24) / 24 * 2 * np.pi)
    weekly = np.arange(7.0) - 3.0
    for k in (-40, 0, 40):
        SeasonalModel((0, 100), (1.0, 2.0), daily * 2.0**k, weekly * 2.0**k)
        for profiles in ((daily + 0.01, weekly), (daily, weekly + 0.01)):
            with pytest.raises(ValidationError, match="zero-mean"):
                SeasonalModel((0, 100), (1.0, 2.0), *(p * 2.0**k for p in profiles))


# ---------------------------------------------------------------------------
# Index-set bodies against the full-length oracle
# ---------------------------------------------------------------------------


@st.composite
def gappy_power(draw):
    """Power series over 14 days to 2 years with boundary runs and long outages.

    Starts fall on or off the day boundary, now and then off the resolution
    grid, and a 7-minute resolution does not divide a day.  Outages may
    leave every value present, drop trend knots, empty a weekly slot or
    leave under two weeks of data.
    """
    minutes = draw(st.sampled_from([5, 15, 15, 60, 60, 7]))
    spd = 1440 // minutes
    days = draw(st.integers(14, {5: 60, 15: 240, 60: 731, 7: 30}[minutes]))
    day0 = draw(st.dates(date(2019, 1, 1), date(2021, 12, 31)))
    start = datetime.combine(day0, datetime.min.time()) + draw(st.sampled_from(
        [timedelta(0), timedelta(hours=7), timedelta(hours=7, minutes=15),
         timedelta(hours=13), timedelta(minutes=3)]
    ))
    n = days * spd + draw(st.integers(-spd + 1, spd - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n)
    values = (5.0 + 0.002 * t / spd + np.sin(2 * np.pi * t / spd)
              + 0.5 * (t // spd % 7 >= 5) + 0.3 * rng.standard_normal(n))
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.1, 0.3]))] = np.nan
    for _ in range(draw(st.integers(0, 3))):
        length = int(draw(st.sampled_from([1, spd // 2, 3 * spd, 8 * spd, 60 * spd, n])))
        at = draw(st.sampled_from(["start", "end", "inside"]))
        lo = 0 if at == "start" else n - length if at == "end" else rng.integers(0, n)
        values[max(lo, 0) : lo + length] = np.nan
    return PowerSeries(start, timedelta(minutes=minutes), values)


def outcome(fn, ps):
    """A fill's or a model's bytes, or the type and text of its error."""
    try:
        result = fn(ps)
    except MeterfillError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, PowerSeries):
        return result.values.tobytes()
    return (result.knots, np.array(result.knot_values).tobytes(),
            result.daily_profile.tobytes(), result.weekly_profile.tobytes())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gappy_power())
def test_baselines_match_the_full_length_oracle(ps):
    for name in ("impute_linear", "impute_hist_avg", "fit_seasonal_model",
                 "impute_seasonal_model"):
        got = outcome(getattr(baselines, name), ps)
        assert got == outcome(getattr(baseline_oracle, name), ps), name
    try:
        day, slot = day_slot(ps, np.arange(ps.n))
    except MeterfillError:
        return
    for index in (np.flatnonzero(np.isnan(ps.values)), np.flatnonzero(~np.isnan(ps.values))):
        columns = calendar_columns(ps, index)
        assert np.array_equal(columns[0], slot[index])
        assert np.array_equal(columns[1], (ps.start.weekday() + day[index]) % 7)
