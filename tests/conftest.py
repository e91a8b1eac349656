"""Shared fixtures and builders for the test suite."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from meterfill import EnergySeries, MeterKind, PowerSeries

MONDAY = datetime(2018, 1, 1)  # 2018-01-01 is a Monday; 2018 is not a leap year
QUARTER_HOUR = timedelta(minutes=15)
HOUR = timedelta(hours=1)


def energy(values, start=MONDAY, resolution=HOUR, kind=MeterKind.CONSUMPTION, tol=0.0):
    return EnergySeries(
        start=start, resolution=resolution, values=values, meter_kind=kind, monotone_tol=tol
    )


def power(values, start=MONDAY, resolution=HOUR):
    return PowerSeries(start=start, resolution=resolution, values=values)


def day_profile_series(day_powers, start=MONDAY, slots=24):
    """Energy series built from per-day constant power levels (kW), hourly slots.

    ``day_powers[d]`` is day d's constant power, so day d's total energy is
    ``day_powers[d] * 24`` kWh for hourly resolution.
    """
    per_slot = np.repeat(np.asarray(day_powers, dtype=float), slots)
    values = np.concatenate(([0.0], np.cumsum(per_slot)))  # one reading per slot boundary
    return EnergySeries(start=start, resolution=timedelta(hours=24 // slots), values=values)


def with_missing(series, indices):
    values = np.array(series.values)
    values[list(indices)] = np.nan
    return EnergySeries(
        start=series.start,
        resolution=series.resolution,
        values=values,
        meter_kind=series.meter_kind,
        monotone_tol=series.monotone_tol,
    )


def plan_donors(plan, weights):
    """The donor day-table rows ``weights`` pick for the days with gaps of ``plan``."""
    from meterfill.cpi import match_weights

    return match_weights(plan.table, [(weights.energy, weights.weekday, weights.season)])[0]


def matched_days(plan, weights):
    """Each day with gaps of ``plan`` mapped to the donor day ``weights`` pick."""
    first = plan.table.days.first
    return {
        first + timedelta(days=day): first + timedelta(days=donor)
        for day, donor in zip(plan.layout.days.tolist(), plan_donors(plan, weights).tolist())
    }


def assert_untouched(original, result_values):
    """Every originally present value is unchanged bit-for-bit."""
    present = ~np.isnan(original.values)
    assert np.array_equal(np.asarray(result_values)[present], original.values[present])


@pytest.fixture(scope="session")
def year_series():
    from meterfill import synthetic_series

    return synthetic_series(42)
