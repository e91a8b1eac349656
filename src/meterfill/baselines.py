"""Benchmark imputation methods operating on power series.

All three imputers return a complete series and never touch present values:
linear interpolation between the bracketing known values, the historical
average week, and an additive seasonal model (piecewise-linear trend plus
zero-mean daily and weekly profiles) fitted by least squares on the present
values only.  Each works over two index sets: it fits from the present
indices and writes only the missing ones.

The seasonal trend, linear between knots every ``TREND_KNOT_DAYS`` days, is
fitted from its tridiagonal (banded) Gram system, built by ``bincount``
without a dense design matrix, and read back with ``np.interp``.  Knots with
no present value between their neighbours are dropped before the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImputationError, ValidationError
from .series import PowerSeries, _with_values, grid_offset, slots_per_day

TREND_KNOT_DAYS = 28


def impute_linear(ps: PowerSeries) -> PowerSeries:
    """Linearly interpolate each gap between its bracketing present values.

    Runs touching the series boundary are filled by constant extension of
    the nearest present value.  ``np.interp`` is evaluated at the missing
    indices only; it is pointwise, so each value is the one a full-length
    call gives.
    """
    missing = np.isnan(ps.values)
    if missing.all():
        raise ImputationError("cannot interpolate a series with no present values")
    if not missing.any():
        return ps
    at, idx = np.flatnonzero(~missing), np.flatnonzero(missing)
    return _with_values(ps, idx, np.interp(idx, at, ps.values[at]))


def impute_hist_avg(ps: PowerSeries) -> PowerSeries:
    """Fill each missing value from the average week at its weekly slot.

    The weekly slot of index t is ``t mod W`` with W the number of power
    values per week; a slot that must be imputed but has no present value
    anywhere in the series is an error.
    """
    spd = slots_per_day(ps.resolution)
    week = 7 * spd
    missing = np.isnan(ps.values)
    if not missing.any():
        return ps
    slot = np.tile(np.arange(week), -(-ps.n // week))[: ps.n]
    present = ~missing
    sums = np.bincount(slot[present], weights=ps.values[present], minlength=week)
    counts = np.bincount(slot[present], minlength=week)
    missing_idx = np.flatnonzero(missing)
    missing_slot = slot[missing_idx]
    missing_count = counts[missing_slot]
    empty = missing_count == 0
    if empty.any():
        bad = int(missing_slot[empty.argmax()])
        raise ImputationError(f"no present value at weekly slot {bad}")
    return _with_values(ps, missing_idx, sums[missing_slot] / missing_count)


@dataclass(frozen=True)
class SeasonalModel:
    """Additive decomposition: piecewise-linear trend + daily + weekly profile.

    The trend is linear between ``knots`` (power-index positions) with the
    listed values; both profiles are zero-mean, relative to their magnitude.
    """

    knots: tuple[int, ...]
    knot_values: tuple[float, ...]
    daily_profile: np.ndarray   # one value per within-day slot
    weekly_profile: np.ndarray  # one value per weekday, Monday first

    def __post_init__(self):
        daily = np.asarray(self.daily_profile, dtype=np.float64)
        weekly = np.asarray(self.weekly_profile, dtype=np.float64)
        object.__setattr__(self, "daily_profile", daily)
        object.__setattr__(self, "weekly_profile", weekly)
        if any(abs(p.mean()) > 1e-6 * np.abs(p).max(initial=0.0) for p in (daily, weekly)):
            raise ValidationError("seasonal profiles must be zero-mean over their cycles")

    def trend_at(self, index: np.ndarray) -> np.ndarray:
        return np.interp(index, self.knots, self.knot_values)

    def predict(self, index: np.ndarray, slot: np.ndarray, weekday0: np.ndarray) -> np.ndarray:
        """Model value at power indices with given within-day slots and weekdays (0-based)."""
        return self.trend_at(index) + self.daily_profile[slot] + self.weekly_profile[weekday0]


def calendar_columns(ps: PowerSeries, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(within-day slot, weekday with Monday 0) of sorted power indices.

    Day d holds the indices from ``d * spd - grid_offset`` on (the
    ``day_slot`` rule), so one ``searchsorted`` of those day edges into
    ``index`` counts each day's indices, and every column is a per-day
    value repeated that many times.
    """
    spd = slots_per_day(ps.resolution)
    offset = grid_offset(ps.start, ps.resolution)
    day_start = np.arange((offset + ps.n - 1) // spd + 1) * spd - offset
    count = np.diff(np.searchsorted(index, day_start), append=index.size)
    weekday0 = (ps.start.date().weekday() + np.arange(day_start.size)) % 7
    return index - np.repeat(day_start, count), np.repeat(weekday0, count)


def _fit_trend(at: np.ndarray, values: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Least-squares knot values of the piecewise-linear trend through the points.

    ``at`` is sorted, so segment j (knots j to j+1, the last one closed)
    holds the points from the first at or after knot j on: one
    ``searchsorted`` of the inner knots counts each segment's points.  Point
    t in segment j carries the hat weights 1-u and u, so the Gram matrix is
    tridiagonal and each band is one ``bincount``.
    """
    k = knots.size
    count = np.diff(np.searchsorted(at, knots[1:-1]), prepend=0, append=at.size)
    seg = np.repeat(np.arange(k - 1), count)
    u = (at - np.repeat(knots[:-1], count)) / np.repeat(np.diff(knots), count)
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
    supported knots, and constant beyond the outermost one.  Every column
    of the fit is built at the present indices only.
    """
    spd = slots_per_day(ps.resolution)
    at = np.flatnonzero(~np.isnan(ps.values))
    if at.size < 2 * 7 * spd:
        raise ImputationError(
            "seasonal model needs at least two weeks of present values, got "
            f"{at.size} of {2 * 7 * spd}"
        )
    m = ps.n
    knots = np.append(np.arange(0, m - 1, TREND_KNOT_DAYS * spd), m - 1)
    # Present values strictly between each knot's neighbours (-1 and m at the ends).
    bounds = np.concatenate(([-1], knots, [m]))
    support = np.searchsorted(at, bounds[2:]) - np.searchsorted(at, bounds[:-2], side="right")
    knots = knots[support > 0]

    values = ps.values[at]
    beta = _fit_trend(at, values, knots)
    slot, weekday0 = calendar_columns(ps, at)

    detrended = values - np.interp(at, knots, beta)
    daily = np.zeros(spd)
    counts = np.bincount(slot, minlength=spd)
    sums = np.bincount(slot, weights=detrended, minlength=spd)
    np.divide(sums, counts, out=daily, where=counts > 0)
    daily_mean = daily.mean()
    daily -= daily_mean

    residual = detrended - daily_mean - daily[slot]
    weekly = np.zeros(7)
    wcounts = np.bincount(weekday0, minlength=7)
    wsums = np.bincount(weekday0, weights=residual, minlength=7)
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
    missing = np.isnan(ps.values)
    if not missing.any():
        return ps
    model = fit_seasonal_model(ps)
    idx = np.flatnonzero(missing)
    slot, weekday0 = calendar_columns(ps, idx)
    return _with_values(ps, idx, model.predict(idx.astype(float), slot, weekday0))

