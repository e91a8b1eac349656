"""Benchmark imputation methods operating on power series.

All three imputers return a complete series and never touch present values:
linear interpolation between the bracketing known values, the historical
average week, and an additive seasonal model (piecewise-linear trend plus
zero-mean daily and weekly profiles) fitted by least squares on the present
values only.

The seasonal trend, linear between knots every ``TREND_KNOT_DAYS`` days, is
fitted from its tridiagonal (banded) Gram system, built by ``bincount``
without a dense design matrix, and read back with ``np.interp``.  Knots with
no present value between their neighbours are dropped before the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ImputationError, ValidationError
from .series import PowerSeries, day_slot, slots_per_day

TREND_KNOT_DAYS = 28


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


@dataclass(frozen=True)
class SeasonalModel:
    """Additive decomposition: piecewise-linear trend + daily + weekly profile.

    The trend is linear between ``knots`` (power-index positions) with the
    listed values; both profiles are zero-mean over their cycles.
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
        if abs(daily.mean()) > 1e-6 or abs(weekly.mean()) > 1e-6:
            raise ValidationError("seasonal profiles must be zero-mean over their cycles")

    def trend_at(self, index: np.ndarray) -> np.ndarray:
        return np.interp(index, self.knots, self.knot_values)

    def predict(self, index: np.ndarray, slot: np.ndarray, weekday0: np.ndarray) -> np.ndarray:
        """Model value at power indices with given within-day slots and weekdays (0-based)."""
        return self.trend_at(index) + self.daily_profile[slot] + self.weekly_profile[weekday0]


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


# Name -> power fill of every baseline, for the harness and the CLI.  Each
# entry looks its function up when called, so a wrapper or mock set on the
# module attribute (``meterfill.baselines.impute_linear``) sees every call.
BASELINES = {
    "linear": lambda ps: impute_linear(ps),
    "histavg": lambda ps: impute_hist_avg(ps),
    "seasonal": lambda ps: impute_seasonal_model(ps),
}
