"""Reference paste, scale and energy rebuild that lay out every call anew.

The package lays a series out once (``meterfill.cpi.paste_layout``, held by
each plan) and reuses it for every donor assignment; its energy rebuild
finds the runs of missing readings with numpy and caps the conserving ones
as it cumulates them.  These are the earlier bodies: each call finds the
missing slots, their days and every gap's days again, the rebuild walks the
``Gap`` records of ``detect_gaps``, and the cap walks the audit records
after it.  The tests require the two to give bit-identical results and the
same errors.
"""

from datetime import date, timedelta

import numpy as np

from meterfill import (
    EnergySeries,
    GapFill,
    ImputationError,
    ImputationResult,
    MeterKind,
    PowerSeries,
    ValidationError,
)
from meterfill.series import day_slot, detect_gaps, resolution_hours, slots_per_day


def copy_paste_and_scale(ps, gaps, matches, energy, scale=True):
    dt = resolution_hours(ps.resolution)
    date0 = ps.start.date()
    idx = np.flatnonzero(np.isnan(ps.values))
    day, _ = day_slot(ps, idx)
    gap_days, which = np.unique(day, return_inverse=True)
    gap_dates = [date0 + timedelta(days=d) for d in gap_days.tolist()]
    for gap_date in gap_dates:
        if gap_date not in matches:
            raise ImputationError(f"no matched day supplied for {gap_date}")
    shift = [(matches[d] - d).days for d in gap_dates]
    src = idx + np.array(shift, dtype=np.int64)[which] * slots_per_day(ps.resolution)
    inside = (src >= 0) & (src < ps.n)
    donor_values = ps.values[np.where(inside, src, 0)]
    bad = ~inside | np.isnan(donor_values)
    if bad.any():
        k = which[bad.argmax()]  # the earliest day with a slot it cannot fill
        gap_date, donor = gap_dates[k], matches[gap_dates[k]]
        if not inside[which == k].all():
            raise ImputationError(
                f"matched day {donor} does not cover all slots needed by {gap_date}"
            )
        raise ImputationError(f"matched day {donor} is not complete")
    completed = np.array(ps.values)
    completed[idx] = donor_values

    fills = []
    # The day offsets of each gap's first and last missing value.
    ends, _ = day_slot(ps, [[g.first_missing for g in gaps], [g.last_missing for g in gaps]])
    for gap, first, last in zip(gaps, *ends.tolist()):
        span = slice(gap.first_missing, gap.last_missing + 1)
        touched = [date0 + timedelta(days=d) for d in range(first, last + 1)]
        sources = tuple((gap_date, matches[gap_date]) for gap_date in touched)
        if not gap.anchored:
            fills.append(GapFill(gap, sources, None))
            continue
        if not scale:
            fills.append(GapFill(gap, sources, 1.0, fallback="unscaled"))
            continue
        actual = gap.actual_energy
        pasted = float(completed[span].sum() * dt)
        if (pasted == 0.0 and actual != 0.0) or pasted * actual < 0.0:
            completed[span] = actual / (gap.length * dt)
            fills.append(GapFill(gap, sources, None, fallback="uniform"))
            continue
        factor = actual / pasted if pasted != 0.0 else 1.0
        completed[span] *= factor
        fills.append(GapFill(gap, sources, factor))

    imputed = PowerSeries(start=ps.start, resolution=ps.resolution, values=completed)
    return complete_from_power(energy, imputed, tuple(fills))


def complete_from_power(energy, imputed, per_gap):
    completed = fill_energy_from_power(energy, imputed.values)
    if energy.meter_kind is MeterKind.CONSUMPTION:
        completed = cap_at_right_anchors(completed, per_gap)
    return ImputationResult(completed, per_gap, imputed)


def cap_at_right_anchors(es, per_gap):
    """``es`` with each conserving gap's rebuilt readings capped at its right anchor.

    A scaled or uniform fill conserves its gap's energy only to rounding;
    where its last rebuilt reading lands above the right anchor, every
    reading of the gap is capped there.  Unscaled fills and fills without
    a scale (baselines, boundary gaps) keep their readings.
    """
    values = np.array(es.values)
    for fill in per_gap:
        gap = fill.gap
        conserving = fill.fallback == "uniform" or (fill.scale is not None and fill.fallback is None)
        if gap.anchored and conserving and values[gap.last_missing] > gap.anchor_after:
            run = slice(gap.first_missing + 1, gap.last_missing + 1)
            values[run] = np.minimum(values[run], gap.anchor_after)
    return EnergySeries(
        start=es.start,
        resolution=es.resolution,
        values=values,
        meter_kind=es.meter_kind,
        monotone_tol=float("inf"),
    )


def fill_energy_from_power(es, power_values):
    power_values = np.asarray(power_values, dtype=np.float64)
    if power_values.shape != (es.n - 1,):
        raise ValidationError(
            f"expected {es.n - 1} power values, got {power_values.shape}"
        )
    if np.isnan(power_values).any():
        raise ImputationError("power values must be complete to rebuild energy")
    dt = resolution_hours(es.resolution)
    filled = np.array(es.values)
    for gap in detect_gaps(es).records:
        # The first and last missing reading of the gap.
        lo = gap.first_missing + (gap.anchor_before is not None)
        hi = gap.last_missing + (gap.anchor_after is None)
        if gap.anchor_before is not None:
            base = es.values[lo - 1]
            filled[lo : hi + 1] = base + np.cumsum(power_values[lo - 1 : hi]) * dt
        else:
            base = es.values[hi + 1]
            filled[lo : hi + 1] = base - np.cumsum(power_values[lo : hi + 1][::-1] * dt)[::-1]
    return EnergySeries(
        start=es.start,
        resolution=es.resolution,
        values=filled,
        meter_kind=es.meter_kind,
        monotone_tol=float("inf"),
    )


def gather_piece(ps, layout, donors, start, stop):
    """The donor values of the missing slots ``layout.missing[start:stop]``, one piece alone.

    ``donors[i]`` is the day-table row of the donor of ``layout.days[i]``.
    This is the gather that pasted one gap's donor choice at a time: the
    earliest day of the run with a slot that its donor does not cover, or
    covers with a missing value, raises, judged on the run's own slots.
    """
    days = layout.row[start:stop]
    ordinal = ps.start.date().toordinal()
    src = [int(i) + (int(donors[k]) - int(layout.days[k])) * slots_per_day(ps.resolution)
           for i, k in zip(layout.missing[start:stop].tolist(), days.tolist())]
    inside = [0 <= i < ps.n for i in src]
    values = [ps.values[i] if ok else np.nan for i, ok in zip(src, inside)]
    for k, ok, value in zip(days.tolist(), inside, values):
        if ok and not np.isnan(value):
            continue
        day = ps.start.date() + timedelta(days=int(layout.days[k]))
        donor = ordinal + int(donors[k])
        named = 1 <= donor <= date.max.toordinal()
        donor = date.fromordinal(donor) if named else f"at row {donors[k]}"
        if not all(ok for d, ok in zip(days.tolist(), inside) if d == k):
            raise ImputationError(f"matched day {donor} does not cover all slots needed by {day}")
        raise ImputationError(f"matched day {donor} is not complete")
    return np.array(values)
