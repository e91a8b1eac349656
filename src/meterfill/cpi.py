"""Copy-paste imputation for energy time series.

Pipeline: interpolate isolated missing readings, estimate per-day energy
totals for gap days, compile the complete candidate days, pick each gap
day's least dissimilar candidate, paste the candidate's power values into
the day's missing slots, and finally rescale every anchored gap so its
imputed energy matches the metered energy difference across the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Mapping, Sequence

import numpy as np

from .errors import ImputationError, ValidationError
from .series import (
    DayRecord,
    DayView,
    EnergySeries,
    Gap,
    PowerSeries,
    Series,
    day_partition,
    day_slot,
    detect_gaps,
    energy_to_power,
    fill_energy_from_power,
    resolution_hours,
    slots_per_day,
)

WORKDAYS = frozenset({1, 2, 3, 4, 5})
WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


@dataclass(frozen=True)
class DissimilarityWeights:
    """Non-negative weights for the energy, weekday and season distances."""

    energy: float = 5.0
    weekday: float = 1.0
    season: float = 10.0

    def __post_init__(self):
        if min(self.energy, self.weekday, self.season) < 0:
            raise ValidationError("dissimilarity weights must be non-negative")
        if self.energy + self.weekday + self.season <= 0:
            raise ValidationError("at least one dissimilarity weight must be positive")


DEFAULT_WEIGHTS = DissimilarityWeights(5.0, 1.0, 10.0)


@dataclass(frozen=True)
class SeasonContext:
    """Seasonal cycle length and the day-total range used for normalization."""

    cycle_length: int
    energy_min: float
    energy_max: float

    def __post_init__(self):
        if self.cycle_length not in (365, 366):
            raise ValidationError("seasonal cycle length must be 365 or 366")
        if not self.energy_max > self.energy_min:
            raise ValidationError("energy_max must exceed energy_min")


@dataclass(frozen=True)
class WeeklyPattern:
    """Zero-mean per-weekday offsets of daily energy plus a linear trend.

    ``offsets[w - 1]`` is the kWh offset of weekday w (1 = Monday); the trend
    is ``intercept + slope * day_index`` with day_index counted from the
    first day used in the fit.
    """

    offsets: tuple[float, ...]
    intercept: float
    slope: float

    def __post_init__(self):
        if len(self.offsets) != 7:
            raise ValidationError("weekly pattern needs exactly 7 offsets")
        if abs(sum(self.offsets)) > 1e-6:
            raise ValidationError("weekday offsets must sum to zero")

    def offset_for(self, weekday: int) -> float:
        return self.offsets[weekday - 1]


@dataclass(frozen=True)
class GapFill:
    """Audit record of how one gap was filled."""

    gap: Gap
    sources: tuple[tuple[date, date], ...]  # (day with gaps, donor day) pairs
    scale: float | None
    anchored: bool
    fallback: str | None = None


@dataclass(frozen=True)
class ImputationResult:
    """The completed series, the power as imputed, and the per-gap audit.

    ``imputed_power`` is the power the method produced: the pasted donor
    values, scaled when scaling is on, or a baseline's fill.  Audits and
    scores read it.  ``completed_power`` is the derivative of
    ``completed_energy``, so the two completed series agree exactly; it
    equals ``imputed_power`` except in the last slot of each gap anchored
    on both sides, which meets the metered right anchor and so carries the
    gap's energy miss (rounding level when the imputed power conserves it).
    """

    completed_power: PowerSeries
    completed_energy: EnergySeries
    per_gap: tuple[GapFill, ...]
    imputed_power: PowerSeries

    def __post_init__(self):
        if np.isnan(self.completed_power.values).any():
            raise ValidationError("completed power series still contains missing values")
        if np.isnan(self.completed_energy.values).any():
            raise ValidationError("completed energy series still contains missing values")
        if np.isnan(self.imputed_power.values).any():
            raise ValidationError("imputed power series still contains missing values")


@dataclass(frozen=True)
class CpiConfig:
    min_complete_days: int = 14
    scale: bool = True


def interpolate_singles(es: EnergySeries) -> EnergySeries:
    """Fill isolated missing readings with the mean of their neighbours.

    Runs of two or more missing readings are left untouched; the filled
    readings count as present in all later pipeline steps.
    """
    miss = np.isnan(es.values)
    if not miss.any():
        return es
    single = miss.copy()
    single[0] = single[-1] = False
    single[1:-1] &= ~miss[:-2] & ~miss[2:]
    if not single.any():
        return es
    values = np.array(es.values)
    idx = np.flatnonzero(single)
    values[idx] = 0.5 * (values[idx - 1] + values[idx + 1])
    return replace(es, values=values)


def fit_weekly_pattern(
    complete_days: Sequence[tuple[date, float]],
    min_days: int = 14,
) -> WeeklyPattern:
    """Least-squares fit of daily totals on a linear trend plus weekday dummies.

    Needs at least 14 days (configurable) and at least one day per weekday
    class; the per-weekday effects are recentred to zero mean across the
    seven weekdays and the removed mean is folded into the intercept.
    """
    if len(complete_days) < min_days:
        raise ImputationError(
            f"weekly pattern needs at least {min_days} complete days, "
            f"got {len(complete_days)}"
        )
    dates = [d for d, _ in complete_days]
    totals = np.array([t for _, t in complete_days], dtype=np.float64)
    weekdays = np.array([d.isoweekday() for d in dates])
    for w in range(1, 8):
        if not (weekdays == w).any():
            raise ImputationError(f"no complete {WEEKDAY_NAMES[w - 1]} (weekday {w}) available")
    day_index = np.array([(d - dates[0]).days for d in dates], dtype=np.float64)

    design = np.ones((len(dates), 8))
    design[:, 1] = day_index
    for w in range(1, 7):  # weekday 7 is the reference class
        design[:, 1 + w] = weekdays == w
    beta, *_ = np.linalg.lstsq(design, totals, rcond=None)

    effects = np.append(beta[2:8], 0.0)
    mean_effect = effects.mean()
    offsets = effects - mean_effect
    offsets -= offsets.mean()  # absorb rounding so the invariant holds exactly
    return WeeklyPattern(
        offsets=tuple(float(o) for o in offsets),
        intercept=float(beta[0] + mean_effect),
        slope=float(beta[1]),
    )


def _gap_days(series: Series, gap: Gap) -> tuple[np.ndarray, np.ndarray]:
    """Day offsets the gap's power span touches, and its length on each."""
    day, _ = day_slot(series, np.arange(gap.first_missing, gap.last_missing + 1))
    return np.arange(day[0], day[-1] + 1), np.bincount(day - day[0])


def estimate_daily_energy(
    series: EnergySeries,
    gaps: Sequence[Gap],
    pattern: WeeklyPattern,
) -> dict[date, float]:
    """Estimate each day's total energy, allocating gap energy across days.

    Per anchored gap: the metered gap energy is first split across the
    overlapped days in proportion to their missing values; the weekly
    pattern is then injected with a zero-sum correction weighted by how much
    of each day lies in the gap, so the gap total is untouched; negative day
    shares are clamped to zero and the rest rescaled to restore the total.
    Unanchored gaps are rejected.
    """
    days = day_partition(series)
    extra = np.zeros(len(days))
    for gap in gaps:
        if not gap.anchored:
            raise ImputationError(
                "cannot allocate energy for an unanchored gap; boundary gaps "
                "are handled without an energy estimate"
            )
        touched, counts = _gap_days(series, gap)
        gap_energy = gap.actual_energy
        allocation = gap_energy * counts / counts.sum()
        if touched.size > 1:
            coverage = counts / np.array([days[i].slots for i in touched])
            offs = np.array(
                [pattern.offset_for(days[i].date.isoweekday()) for i in touched]
            )
            centred = offs - (coverage * offs).sum() / coverage.sum()
            adjusted = allocation + coverage * centred
            if adjusted.min() < 0 and gap_energy > 0:
                adjusted = np.clip(adjusted, 0.0, None)
                total = adjusted.sum()
                adjusted = (
                    adjusted * (gap_energy / total) if total > 0 else allocation
                )
            elif adjusted.min() < 0:
                adjusted = allocation
            allocation = adjusted
        extra[touched] += allocation
    return {view.date: view.known_energy + extra[i] for i, view in enumerate(days)}


def compile_complete_days(
    series: EnergySeries,
    estimates: Mapping[date, float] | None = None,
) -> list[DayRecord]:
    """Build one DayRecord per day of the series.

    Complete days carry their actual totals; days with gaps take their total
    from ``estimates`` when available and None otherwise (unanchored case).
    Partial boundary days are flagged so they never become copy candidates.
    """
    estimates = estimates or {}
    records = []
    for view in day_partition(series):
        complete = view.missing == 0
        if complete:
            total = view.known_energy
        else:
            total = estimates.get(view.date)
        records.append(
            DayRecord(
                date=view.date,
                total_energy=total,
                weekday=view.date.isoweekday(),
                day_of_year=view.date.timetuple().tm_yday,
                is_complete=complete,
                estimated=(not complete) and total is not None,
                full_day=view.covers_full_day,
            )
        )
    return records


def energy_distance(total_i: float, total_j: float, ctx: SeasonContext) -> float:
    """Absolute day-total difference normalized by the seasonal energy range."""
    return abs(total_i - total_j) / (ctx.energy_max - ctx.energy_min)


def weekday_distance(weekday_i: int, weekday_j: int) -> float:
    """0 for the same weekday, 0.5 within the workday/weekend class, else 1."""
    if weekday_i == weekday_j:
        return 0.0
    if (weekday_i in WORKDAYS) == (weekday_j in WORKDAYS):
        return 0.5
    return 1.0


def season_distance(doy_i: int, doy_j: int, cycle_length: int) -> float:
    """Cyclic day-of-year distance normalized to [0, 1]."""
    half = cycle_length // 2
    delta = abs(doy_i - doy_j)
    if delta <= half:
        return delta / half
    return (cycle_length - delta) / half


def combine_distances(
    weights: DissimilarityWeights,
    d_energy: float,
    d_weekday: float,
    d_season: float,
) -> float:
    """Weighted sum of the three normalized distance components."""
    return (
        weights.energy * d_energy
        + weights.weekday * d_weekday
        + weights.season * d_season
    )


def dissimilarity(
    day_i: DayRecord,
    day_j: DayRecord,
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    ctx: SeasonContext | None = None,
) -> float:
    """Weighted sum of the energy, weekday and season distances.

    When the day with gaps has no usable energy total (unanchored boundary
    day) the energy term is dropped and only the weekday and season terms
    are compared.
    """
    if day_i.total_energy is not None and day_j.total_energy is not None:
        if ctx is None:
            raise ValidationError("a SeasonContext is required to compare day totals")
        d_energy = energy_distance(day_i.total_energy, day_j.total_energy, ctx)
    else:
        d_energy = 0.0
    return combine_distances(
        weights,
        d_energy,
        weekday_distance(day_i.weekday, day_j.weekday),
        season_distance(day_i.day_of_year, day_j.day_of_year, ctx.cycle_length if ctx else 365),
    )


def _best_donors(
    days: Sequence[DayRecord],
    candidates: Sequence[DayRecord],
    weights: DissimilarityWeights,
    ctx: SeasonContext,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Index of each day's least dissimilar candidate, from one distance matrix.

    Entry (i, j) is ``dissimilarity(days[i], candidates[j])``, the energy
    term dropped where a total is missing; candidates outside ``keep[i]``
    are excluded.  Exact ties go to the smallest calendar distance, then
    to the earlier date.
    """
    def column(attr):
        return np.array([getattr(d, attr) for d in days], dtype=np.float64)[:, None]

    def row(attr):
        return np.array([getattr(c, attr) for c in candidates], dtype=np.float64)

    weekday, c_weekday = column("weekday"), row("weekday")
    dw = np.where(
        c_weekday == weekday, 0.0, np.where((c_weekday <= 5) == (weekday <= 5), 0.5, 1.0)
    )
    half = ctx.cycle_length // 2
    delta = np.abs(row("day_of_year") - column("day_of_year"))
    ds = np.where(delta <= half, delta, ctx.cycle_length - delta) / half
    energy = weights.energy * np.abs(row("total_energy") - column("total_energy")) / (
        ctx.energy_max - ctx.energy_min
    )
    value = weights.weekday * dw + weights.season * ds + np.where(np.isnan(energy), 0.0, energy)
    if keep is not None:
        if not keep.any(axis=1).all():
            raise ImputationError("no complete day available")
        value = np.where(keep, value, np.inf)
    ordinal = np.array([c.date.toordinal() for c in candidates])
    distance = np.abs(ordinal - np.array([d.date.toordinal() for d in days])[:, None])
    order = np.lexsort((np.broadcast_to(ordinal, value.shape), distance, value), axis=-1)
    return order[:, 0]


def select_best_match(
    day_with_gaps: DayRecord,
    candidates: Sequence[DayRecord],
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    ctx: SeasonContext | None = None,
) -> DayRecord:
    """Pick the candidate day with the smallest dissimilarity.

    Candidates from both before and after the day are considered; exact ties
    are broken by the smallest calendar distance, then by the earlier date.
    """
    if not candidates:
        raise ImputationError("no complete day available")
    if ctx is None:
        if day_with_gaps.total_energy is not None:
            raise ValidationError("a SeasonContext is required to compare day totals")
        ctx = SeasonContext(365, 0.0, 1.0)
    return candidates[int(_best_donors([day_with_gaps], candidates, weights, ctx)[0])]


def copy_paste_and_scale(
    ps: PowerSeries,
    gaps: Sequence[Gap],
    matches: Mapping[date, date],
    energy: EnergySeries,
    scale: bool = True,
) -> ImputationResult:
    """Fill missing power slots from matched days, then conserve gap energy.

    Every missing power value is copied from the same within-day slot of the
    matched donor day, a whole-day shift of its index.  Each anchored gap is
    then multiplied by the ratio of its metered energy to its pasted energy;
    if the pasted energy is zero or of opposite sign, the gap falls back to a
    uniform fill.  Unanchored gaps are pasted without scaling and flagged.
    The pasted (and scaled) power is the result's ``imputed_power``; the
    completed series are rebuilt from it by ``complete_from_power``.
    """
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
    for gap in gaps:
        span = slice(gap.first_missing, gap.last_missing + 1)
        touched = [date0 + timedelta(days=int(d)) for d in _gap_days(ps, gap)[0]]
        sources = tuple((gap_date, matches[gap_date]) for gap_date in touched)
        if not gap.anchored:
            fills.append(GapFill(gap, sources, None, anchored=False))
            continue
        if not scale:
            fills.append(GapFill(gap, sources, 1.0, anchored=True, fallback="unscaled"))
            continue
        actual = gap.actual_energy
        pasted = float(completed[span].sum() * dt)
        if (pasted == 0.0 and actual != 0.0) or pasted * actual < 0.0:
            completed[span] = actual / (gap.length * dt)
            fills.append(GapFill(gap, sources, None, anchored=True, fallback="uniform"))
            continue
        factor = actual / pasted if pasted != 0.0 else 1.0
        completed[span] *= factor
        fills.append(GapFill(gap, sources, factor, anchored=True))

    imputed = PowerSeries(start=ps.start, resolution=ps.resolution, values=completed)
    return complete_from_power(energy, imputed, tuple(fills))


def complete_from_power(
    energy: EnergySeries,
    imputed: PowerSeries,
    per_gap: tuple[GapFill, ...],
) -> ImputationResult:
    """Build the completed series from the power a method imputed.

    The energy is rebuilt first and the power re-derived from it, so the two
    completed series are exactly consistent and a second pass over the
    output reproduces it bit-for-bit.  Present power values are unchanged
    (the same differences of the same readings).  Each anchored gap is
    cumulated from its left anchor and the right anchor is kept, so the
    gap's last completed power slot absorbs whatever the imputed power
    misses of the metered energy: a rounding-level residual after scaling,
    a visible jump for a method that does not conserve energy.  The
    imputed power is kept as given for audits and scores.
    """
    completed_energy = fill_energy_from_power(energy, imputed.values)
    completed_power = energy_to_power(completed_energy)
    return ImputationResult(completed_power, completed_energy, per_gap, imputed)


@dataclass(frozen=True)
class CpiPlan:
    """Weight-independent state shared by all matching runs on one series."""

    series: EnergySeries        # input with isolated singles already filled
    power: PowerSeries
    gaps: tuple[Gap, ...]
    days: tuple[DayView, ...]
    records: tuple[DayRecord, ...]
    candidates: tuple[DayRecord, ...]
    context: SeasonContext


def _season_context(records: Sequence[DayRecord], candidates: Sequence[DayRecord]) -> SeasonContext:
    cycle = 365
    for record in records:
        if record.date.month == 2 and record.date.day == 29:
            cycle = 366
            break
    totals = [c.total_energy for c in candidates]
    totals += [r.total_energy for r in records if r.estimated and r.total_energy is not None]
    lo, hi = min(totals), max(totals)
    if not hi > lo:
        hi = lo + 1.0  # all day totals identical; any range gives zero distances
    return SeasonContext(cycle, lo, hi)


def plan_cpi(es: EnergySeries, config: CpiConfig = CpiConfig()) -> CpiPlan:
    """Run the weight-independent pipeline stages once for a series."""
    filled = interpolate_singles(es)
    gaps = detect_gaps(filled)
    power = energy_to_power(filled)
    days = day_partition(filled)

    complete_full = [
        view for view in days if view.missing == 0 and view.covers_full_day
    ]
    if len(complete_full) < config.min_complete_days:
        raise ImputationError(
            f"copy-paste imputation needs at least {config.min_complete_days} "
            f"complete days, got {len(complete_full)}"
        )
    pattern = fit_weekly_pattern(
        [(v.date, v.known_energy) for v in complete_full],
        min_days=config.min_complete_days,
    )

    anchored = [g for g in gaps if g.anchored]
    unanchored = [g for g in gaps if not g.anchored]
    estimates = estimate_daily_energy(filled, anchored, pattern)
    # Days touched by an unanchored boundary gap get no energy estimate and
    # are matched on weekday and season alone.
    blocked = {days[i].date for gap in unanchored for i in _gap_days(filled, gap)[0]}
    usable = {d: v for d, v in estimates.items() if d not in blocked}

    records = compile_complete_days(filled, usable)
    candidates = [r for r in records if r.is_complete and r.full_day]
    return CpiPlan(
        series=filled,
        power=power,
        gaps=tuple(gaps),
        days=tuple(days),
        records=tuple(records),
        candidates=tuple(candidates),
        context=_season_context(records, candidates),
    )


def _match_days(plan: CpiPlan, weights: DissimilarityWeights) -> dict[date, date]:
    # Record i is day offset i; a donor must cover the day's last missing slot.
    rows = [i for i, r in enumerate(plan.records) if not r.is_complete]
    day, slot = day_slot(plan.power, np.flatnonzero(np.isnan(plan.power.values)))
    last_slot = slot[np.searchsorted(day, rows, side="right") - 1]
    date0 = plan.power.start.date()
    donor_slots = np.array([plan.days[(c.date - date0).days].slots for c in plan.candidates])
    keep = donor_slots > last_slot[:, None]
    best = _best_donors([plan.records[i] for i in rows], plan.candidates, weights,
                        plan.context, keep)
    return {plan.records[i].date: plan.candidates[j].date for i, j in zip(rows, best)}


def run_plan(
    plan: CpiPlan,
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    scale: bool = True,
) -> ImputationResult:
    matches = _match_days(plan, weights)
    return copy_paste_and_scale(plan.power, plan.gaps, matches, plan.series, scale=scale)


def impute_cpi(
    es: EnergySeries,
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    config: CpiConfig = CpiConfig(),
) -> ImputationResult:
    """Impute every missing value of an energy series by copy-paste.

    Deterministic for fixed inputs.  A series without missing values is
    returned unchanged; otherwise the full pipeline runs and the imputed
    power conserves the metered energy of every anchored gap (unless scaling
    is disabled via the config, in which case the miss shows in
    ``imputed_power`` and as a jump at each gap's right anchor in the
    completed series).
    """
    filled = interpolate_singles(es)
    if not np.isnan(filled.values).any():
        power = energy_to_power(filled)
        return ImputationResult(power, filled, (), power)
    plan = plan_cpi(es, config)
    return run_plan(plan, weights, scale=config.scale)
