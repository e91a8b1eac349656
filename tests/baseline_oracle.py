"""Reference baselines that work over full-length arrays.

The package fits each baseline from the present values only and writes
only the missing ones (``meterfill.baselines``): the linear fill is
evaluated at the missing indices, the weekly slot is a tiled range, and the
seasonal trend segments and calendar columns come from per-segment and
per-day counts of the sorted index set.  These are the earlier bodies,
which evaluate, divide and gather over every power index.  The tests
require the two to give bit-identical fills, models and errors.
"""

from dataclasses import replace

import numpy as np

from meterfill import ImputationError, PowerSeries
from meterfill.baselines import TREND_KNOT_DAYS, SeasonalModel
from meterfill.series import day_slot, slots_per_day


def impute_linear(ps: PowerSeries) -> PowerSeries:
    """Linearly interpolate each gap between its bracketing present values.

    Runs touching the series boundary are filled by constant extension of
    the nearest present value.
    """
    present = ~np.isnan(ps.values)
    if not present.any():
        raise ImputationError("cannot interpolate a series with no present values")
    if present.all():
        return ps
    idx = np.arange(ps.n)
    filled = np.interp(idx, idx[present], ps.values[present])
    filled[present] = ps.values[present]
    filled.setflags(write=False)
    return replace(ps, values=filled)


def impute_hist_avg(ps: PowerSeries) -> PowerSeries:
    """Fill each missing value from the average week at its weekly slot.

    The weekly slot of index t is ``t mod W`` with W the number of power
    values per week; a slot that must be imputed but has no present value
    anywhere in the series is an error.
    """
    spd = slots_per_day(ps.resolution)
    week = 7 * spd
    present = ~np.isnan(ps.values)
    if present.all():
        return ps
    slot = np.arange(ps.n) % week
    sums = np.bincount(slot[present], weights=ps.values[present], minlength=week)
    counts = np.bincount(slot[present], minlength=week)
    missing_idx = np.flatnonzero(~present)
    empty = counts[slot[missing_idx]] == 0
    if empty.any():
        bad = int(slot[missing_idx[empty][0]])
        raise ImputationError(f"no present value at weekly slot {bad}")
    filled = np.array(ps.values)
    filled[missing_idx] = sums[slot[missing_idx]] / counts[slot[missing_idx]]
    filled.setflags(write=False)
    return replace(ps, values=filled)


def _fit_trend(index: np.ndarray, values: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Least-squares knot values of the piecewise-linear trend through the points.

    Index t between knots j and j+1 carries the hat weights 1-u and u, so
    the Gram matrix is tridiagonal and each band is one ``bincount``.
    """
    k = knots.size
    seg = np.minimum(np.searchsorted(knots, index, side="right") - 1, k - 2)
    u = (index - knots[seg]) / (knots[seg + 1] - knots[seg])
    w = 1.0 - u
    band = np.bincount(seg, w * u, k - 1)
    gram = np.diag(np.bincount(seg, w * w, k) + np.bincount(seg + 1, u * u, k))
    gram += np.diag(band, 1) + np.diag(band, -1)
    rhs = np.bincount(seg, w * values, k) + np.bincount(seg + 1, u * values, k)
    beta, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return beta


def fit_seasonal_model(ps: PowerSeries) -> SeasonalModel:
    """Fit the additive model by least squares on the present values only.

    A trend knot with no present value strictly between its neighbours is
    dropped, so across a long outage the trend is linear between the nearest
    supported knots, and constant beyond the outermost one.
    """
    spd = slots_per_day(ps.resolution)
    present = ~np.isnan(ps.values)
    if present.sum() < 2 * 7 * spd:
        raise ImputationError(
            "seasonal model needs at least two weeks of present values, got "
            f"{int(present.sum())} of {2 * 7 * spd}"
        )
    m = ps.n
    idx = np.arange(m)
    at = np.flatnonzero(present)
    knots = np.append(np.arange(0, m - 1, TREND_KNOT_DAYS * spd), m - 1)
    # Present values strictly between each knot's neighbours (-1 and m at the ends).
    bounds = np.concatenate(([-1], knots, [m]))
    support = np.searchsorted(at, bounds[2:]) - np.searchsorted(at, bounds[:-2], side="right")
    knots = knots[support > 0]

    beta = _fit_trend(at, ps.values[present], knots)
    trend = np.interp(idx, knots, beta)

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

    shifted = beta + daily_mean + weekly_mean  # fold the removed means into the trend
    return SeasonalModel(
        knots=tuple(int(k) for k in knots),
        knot_values=tuple(float(v) for v in shifted),
        daily_profile=daily,
        weekly_profile=weekly,
    )


def impute_seasonal_model(ps: PowerSeries) -> PowerSeries:
    """Fill missing values with the fitted seasonal model's value at t."""
    present = ~np.isnan(ps.values)
    if present.all():
        return ps
    model = fit_seasonal_model(ps)
    idx = np.flatnonzero(~present)
    day_index, slot = day_slot(ps, idx)
    weekday0 = (ps.start.date().weekday() + day_index) % 7
    filled = np.array(ps.values)
    filled[idx] = model.predict(idx.astype(float), slot, weekday0)
    filled.setflags(write=False)
    return replace(ps, values=filled)
