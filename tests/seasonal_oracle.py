"""Reference seasonal-baseline fit through a dense hat-function design matrix.

The package fits the piecewise-linear trend from its tridiagonal Gram system
and evaluates it with ``np.interp`` (``meterfill.baselines``).  This version
builds the full (values × knots) design matrix and solves it by least
squares, as the seasonal baseline was first written.  It keeps every knot,
so the tests compare the two only on series whose knots all have present
values nearby.
"""

from dataclasses import replace
from typing import Sequence

import numpy as np

from meterfill import PowerSeries
from meterfill.baselines import TREND_KNOT_DAYS, SeasonalModel
from meterfill.series import day_slot, slots_per_day


def hat_basis(index: np.ndarray, knots: Sequence[int]) -> np.ndarray:
    design = np.zeros((index.size, len(knots)))
    for j in range(len(knots)):
        lo = knots[j - 1] if j > 0 else knots[0]
        hi = knots[j + 1] if j + 1 < len(knots) else knots[-1]
        up = (index - lo) / (knots[j] - lo) if knots[j] > lo else np.ones_like(index, float)
        down = (hi - index) / (hi - knots[j]) if hi > knots[j] else np.ones_like(index, float)
        design[:, j] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return design


def fit_seasonal(ps: PowerSeries) -> SeasonalModel:
    """Least-squares fit of the additive model on the present values only."""
    spd = slots_per_day(ps.resolution)
    present = ~np.isnan(ps.values)
    m = ps.n
    idx = np.arange(m)
    step = TREND_KNOT_DAYS * spd
    knots = list(range(0, m - 1, step))
    if knots[-1] != m - 1:
        knots.append(m - 1)

    design = hat_basis(idx[present].astype(float), knots)
    beta, *_ = np.linalg.lstsq(design, ps.values[present], rcond=None)
    trend = hat_basis(idx.astype(float), knots) @ beta

    day_index, slot = day_slot(ps, idx)
    weekday0 = (ps.start.date().weekday() + day_index) % 7

    detrended = ps.values - trend
    daily = np.zeros(spd)
    counts = np.bincount(slot[present], minlength=spd)
    sums = np.bincount(slot[present], weights=detrended[present], minlength=spd)
    np.divide(sums, counts, out=daily, where=counts > 0)
    daily_mean = daily.mean()
    daily -= daily_mean

    residual = detrended - daily_mean - daily[slot]
    weekly = np.zeros(7)
    wcounts = np.bincount(weekday0[present], minlength=7)
    wsums = np.bincount(weekday0[present], weights=residual[present], minlength=7)
    np.divide(wsums, wcounts, out=weekly, where=wcounts > 0)
    weekly_mean = weekly.mean()
    weekly -= weekly_mean

    shifted = beta + daily_mean + weekly_mean
    return SeasonalModel(
        knots=tuple(knots),
        knot_values=tuple(float(v) for v in shifted),
        daily_profile=daily,
        weekly_profile=weekly,
    )


def impute_seasonal(ps: PowerSeries) -> PowerSeries:
    """Fill the missing values from the densely fitted model."""
    model = fit_seasonal(ps)
    idx = np.flatnonzero(np.isnan(ps.values))
    day_index, slot = day_slot(ps, idx)
    weekday0 = (ps.start.date().weekday() + day_index) % 7
    filled = np.array(ps.values)
    filled[idx] = model.predict(idx.astype(float), slot, weekday0)
    return replace(ps, values=filled)
