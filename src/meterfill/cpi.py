"""Copy-paste imputation for energy time series.

Pipeline: interpolate isolated missing readings, estimate per-day energy
totals for gap days, compile the complete candidate days, pick each gap
day's least dissimilar candidate, paste the candidate's power values into
the day's missing slots, and finally rescale every anchored gap so its
imputed energy matches the metered energy difference across the gap.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .errors import ImputationError, ValidationError
from .series import (
    DayTable,
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

_MAX_ORDINAL = date.max.toordinal()
WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


@dataclass(frozen=True)
class DissimilarityWeights:
    """Non-negative weights for the energy, weekday and season distances."""

    energy: float = 5.0
    weekday: float = 1.0
    season: float = 10.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.energy, self.weekday, self.season))):
            raise ValidationError("dissimilarity weights must be finite")
        if min(self.energy, self.weekday, self.season) < 0:
            raise ValidationError("dissimilarity weights must be non-negative")
        if self.energy + self.weekday + self.season <= 0:
            raise ValidationError("at least one dissimilarity weight must be positive")


DEFAULT_WEIGHTS = DissimilarityWeights()


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
    values.setflags(write=False)
    return replace(es, values=values)


def fit_weekly_pattern(
    days: DayTable,
    rows: np.ndarray,
    min_days: int = 14,
) -> WeeklyPattern:
    """Least-squares fit of daily totals on a linear trend plus weekday dummies.

    Fits the known energy of the day-table ``rows`` (in date order), with
    the trend counted in days from the first of them.  Needs at least 14
    days (configurable) and at least one day per weekday class; the
    per-weekday effects are recentred to zero mean across the seven
    weekdays and the removed mean is folded into the intercept.
    """
    if len(rows) < min_days:
        raise ImputationError(
            f"weekly pattern needs at least {min_days} complete days, got {len(rows)}"
        )
    weekdays = days.weekday[rows]
    for w in range(1, 8):
        if not (weekdays == w).any():
            raise ImputationError(f"no complete {WEEKDAY_NAMES[w - 1]} (weekday {w}) available")

    design = np.ones((len(rows), 8))
    design[:, 1] = rows - rows[0]
    for w in range(1, 7):  # weekday 7 is the reference class
        design[:, 1 + w] = weekdays == w
    beta, *_ = np.linalg.lstsq(design, days.known_energy[rows], rcond=None)

    effects = np.append(beta[2:8], 0.0)
    mean_effect = effects.mean()
    offsets = effects - mean_effect
    offsets -= offsets.mean()  # absorb rounding so the invariant holds exactly
    return WeeklyPattern(
        offsets=tuple(float(o) for o in offsets),
        intercept=float(beta[0] + mean_effect),
        slope=float(beta[1]),
    )


def _gap_day_range(series: Series, gaps: Sequence[Gap]) -> np.ndarray:
    """Day offsets of each gap's first and last missing value, shape (2, gaps)."""
    ends = [[g.first_missing for g in gaps], [g.last_missing for g in gaps]]
    return day_slot(series, np.array(ends, dtype=np.int64).reshape(2, -1))[0]


def estimate_daily_energy(
    series: EnergySeries,
    days: DayTable,
    gaps: Sequence[Gap],
    pattern: WeeklyPattern,
) -> np.ndarray:
    """Estimate each day's total energy, allocating gap energy across days.

    Row d of the result is day d's known energy plus its share of the
    gaps.  Per anchored gap: the metered gap energy is first split across
    the overlapped days in proportion to their missing values; the weekly
    pattern is then injected with a zero-sum correction weighted by how much
    of each day lies in the gap, so the gap total is untouched; negative day
    shares are clamped to zero and the rest rescaled to restore the total.
    The shares are added into the days in gap order.  Unanchored gaps are
    rejected.  ``days`` is the series' ``day_partition``.
    """
    if not all(gap.anchored for gap in gaps):
        raise ImputationError(
            "cannot allocate energy for an unanchored gap; boundary gaps "
            "are handled without an energy estimate"
        )
    # One (gap, day) pair per day each gap touches, in gap order.
    first_day, last_day = _gap_day_range(series, gaps)
    ndays = last_day - first_day + 1
    offset = np.cumsum(ndays) - ndays
    gap = np.repeat(np.arange(len(gaps)), ndays)
    day = np.arange(gap.size) - offset[gap] + first_day[gap]
    first = np.array([g.first_missing for g in gaps], dtype=np.int64)[gap]
    stop = np.array([g.last_missing + 1 for g in gaps], dtype=np.int64)[gap]
    counts = np.minimum(stop, days.stop[day]) - np.maximum(first, days.start[day])
    energy = np.array([g.actual_energy for g in gaps], dtype=np.float64)
    allocation = energy[gap] * counts / (stop - first)

    # A gap over several days takes the weekly pattern, centred on the
    # gap's coverage of each day.  The gaps over L days are handled as the
    # rows of one (gaps, L) matrix of their pairs; a row's sum equals
    # ``ndarray.sum`` of that gap's own pairs bit for bit.
    coverage = counts / days.slots[day]
    offs = np.array(pattern.offsets)[days.weekday[day] - 1]
    for width in sorted(set(ndays.tolist()) - {1}):
        rows = np.flatnonzero(ndays == width)
        pairs = offset[rows, None] + np.arange(width)
        cover = coverage[pairs]
        centre = (cover * offs[pairs]).sum(axis=1) / cover.sum(axis=1)
        adjusted = allocation[pairs] + cover * (offs[pairs] - centre[:, None])
        fits = adjusted.min(axis=1) >= 0
        allocation[pairs[fits]] = adjusted[fits]
        clamp = ~fits & (energy[rows] > 0)
        if clamp.any():  # clamp the negative shares, then restore the gap total
            clamped = np.clip(adjusted[clamp], 0.0, None)
            total = clamped.sum(axis=1)
            kept = total > 0
            scale = energy[rows[clamp][kept]] / total[kept]
            allocation[pairs[clamp][kept]] = clamped[kept] * scale[:, None]
    extra = np.zeros(len(days))
    np.add.at(extra, day, allocation)
    return days.known_energy + extra


def compile_complete_days(days: DayTable, estimates: np.ndarray) -> DayTable:
    """The day table with its ``total`` column filled in for matching.

    Complete days carry their actual totals; days with gaps take theirs
    from ``estimates``, which is NaN where a day has none (one touched by
    an unanchored boundary gap).
    """
    return replace(days, total=np.where(days.missing == 0, days.known_energy, estimates))


def weekday_distance(weekday_i: np.ndarray, weekday_j: np.ndarray) -> np.ndarray:
    """0 for the same weekday, 0.5 within the workday/weekend class, else 1.

    Elementwise over the broadcast ISO weekdays (1 = Monday).
    """
    same_class = (weekday_i <= 5) == (weekday_j <= 5)
    return np.where(weekday_i == weekday_j, 0.0, np.where(same_class, 0.5, 1.0))


def season_distance(doy_i: np.ndarray, doy_j: np.ndarray, cycle_length: int) -> np.ndarray:
    """Cyclic day-of-year distance normalized to [0, 1], elementwise."""
    half = cycle_length // 2
    delta = np.abs(doy_i - doy_j)
    return np.where(delta <= half, delta, cycle_length - delta) / half


@dataclass(frozen=True, eq=False)
class MatchTable:
    """The weight-independent part of matching days with gaps to donors.

    Row i is the day-table row ``rows[i]`` of ``match_table`` (in a plan,
    ``layout.days[i]``), and candidate index j is ``candidates[j]``.  Every
    matrix holds a row's candidates in tie order (smaller calendar distance
    first, then the earlier date), and ``order[i, k]`` is the candidate
    index of column k, so the first least-dissimilar column of a row is the
    tie-break winner.  ``energy`` is the absolute day-total difference, 0
    where a total is missing, which drops the energy term there.
    """

    weekday: np.ndarray         # weekday distances
    season: np.ndarray          # season distances
    energy: np.ndarray          # |day total - candidate total|
    keep: np.ndarray            # False where a candidate cannot donate to the row
    order: np.ndarray           # candidate index of each column
    energy_range: float         # energy_max - energy_min of the season context


def match_table(
    days: DayTable,
    rows: np.ndarray,
    candidates: np.ndarray,
    ctx: SeasonContext,
    last_slot: np.ndarray,
) -> MatchTable:
    """Distance components of every (row, candidate) pair of ``days``, in tie order.

    ``rows`` and ``candidates`` are day-table rows in date order, and the
    day totals are the table's ``total`` column.  A candidate can donate
    to ``rows[i]`` only if it reaches within-day slot ``last_slot[i]``, the
    row's last missing slot.
    """
    # Candidates are in date order: a stable sort by calendar distance puts
    # the earlier date first on a tie.
    order = np.argsort(np.abs(candidates - rows[:, None]), axis=-1, kind="stable")
    donor = candidates[order]
    keep = days.slots[donor] > last_slot[:, None]
    if not candidates.size or not keep.any(axis=1).all():
        raise ImputationError("no complete day available")

    # Both distances take few values: look them up by weekday pair (entry
    # 7 * (w_i - 1) + w_j - 1 of the 7 x 7 table) and by day-of-year difference.
    week = np.arange(1, 8)
    weekday = days.weekday
    pair = (7 * weekday[rows] - 8)[:, None] + weekday[donor]
    day_of_year = days.day_of_year
    delta = np.abs(day_of_year[rows][:, None] - day_of_year[donor])
    energy = np.abs(days.total[donor] - days.total[rows][:, None])
    return MatchTable(
        weekday=weekday_distance(week[:, None], week).ravel()[pair],
        season=season_distance(0, np.arange(367), ctx.cycle_length)[delta],
        energy=np.where(np.isnan(energy), 0.0, energy),
        keep=keep,
        order=order,
        energy_range=ctx.energy_max - ctx.energy_min,
    )


# Matrix entries evaluated at once: each temporary of a batch of weight
# triples stays within 512 kB, however large the grid.
_BATCH_ENTRIES = 1 << 16


def match_weights(table: MatchTable, triples) -> np.ndarray:
    """Donor index of every row of ``table`` under each weight triple.

    ``triples`` is a sequence of (energy, weekday, season) weights; the
    result has shape (len(triples), rows).  The dissimilarity of a row and a
    candidate is ``weekday * dw + season * ds + energy * |dE| / range``,
    evaluated in that order, so every weighting sees exactly the values a
    single-triple match would.  Exact ties go to the smallest calendar
    distance, then to the earlier date.
    """
    weights = np.asarray(triples, dtype=np.float64).reshape(-1, 3, 1, 1)
    rows, cols = table.order.shape
    donors = np.empty((len(weights), rows), dtype=np.int64)
    excluded = ~table.keep
    step = max(1, _BATCH_ENTRIES // max(1, rows * cols))
    for lo in range(0, len(weights), step):
        w_energy, w_weekday, w_season = weights[lo : lo + step].swapaxes(0, 1)
        value = w_weekday * table.weekday
        value += w_season * table.season
        energy = w_energy * table.energy
        energy /= table.energy_range
        value += energy
        value[:, excluded] = np.inf
        donors[lo : lo + step] = table.order[np.arange(rows), value.argmin(axis=-1)]
    return donors


@dataclass(frozen=True, eq=False)
class PasteLayout:
    """Where a paste writes and what each gap spans, whatever the donors.

    ``days`` are the day-table rows (day offsets from the start's date)
    that have missing power values, in date order: the rows of a plan's
    match table.  ``missing`` holds every missing power index and ``row``
    the position of its day in ``days``.  Gap k touches ``days[lo:hi]``
    for ``(lo, hi) = gap_rows[k]``.
    """

    gaps: tuple[Gap, ...]
    days: np.ndarray                        # the day-table rows with missing power
    missing: np.ndarray                     # missing power indices
    row: np.ndarray                         # the position in `days` of each missing index
    gap_rows: tuple[tuple[int, int], ...]   # the positions in `days` each gap touches


def paste_layout(ps: PowerSeries, gaps: Sequence[Gap]) -> PasteLayout:
    """The donor-independent part of pasting into ``ps`` and scaling ``gaps``."""
    missing = np.flatnonzero(np.isnan(ps.values))
    day, _ = day_slot(ps, missing)
    days, row = np.unique(day, return_inverse=True)
    first, last = _gap_day_range(ps, gaps)
    lo = np.searchsorted(days, first)
    hi = np.searchsorted(days, last, side="right")
    return PasteLayout(
        gaps=tuple(gaps),
        days=days,
        missing=missing,
        row=row,
        gap_rows=tuple(zip(lo.tolist(), hi.tolist())),
    )


def copy_paste_and_scale(
    ps: PowerSeries,
    layout: PasteLayout,
    donors: np.ndarray,
    scale: bool = True,
) -> tuple[PowerSeries, tuple[GapFill, ...]]:
    """Fill missing power slots from donor days, then conserve gap energy.

    ``donors[i]`` is the day-table row of the donor of ``layout.days[i]``.
    Every missing power value is copied from the same within-day slot of
    its day's donor, a whole-day shift of its index.  Each anchored gap is
    then multiplied by the ratio of its metered energy to its pasted energy;
    if the pasted energy is zero or of opposite sign, the gap falls back to a
    uniform fill.  Unanchored gaps are pasted without scaling and flagged.
    Returns the pasted (and scaled) power, a result's ``imputed_power``, and
    the per-gap audit; ``complete_from_power`` builds the completed series
    from them.  ``layout`` is the ``paste_layout`` of ``ps`` and its gaps.
    """
    donors = np.asarray(donors)
    if donors.shape != layout.days.shape or not np.issubdtype(donors.dtype, np.integer):
        raise ImputationError(
            f"expected one integer donor row for each of {layout.days.size} days "
            f"with gaps, got shape {donors.shape} of {donors.dtype}"
        )
    # A row outside the series' days covers none of its day's slots.  It is
    # set aside before the index arithmetic, which could overflow on it.
    in_range = (donors >= 0) & (donors <= int(day_slot(ps, ps.n - 1)[0]))
    rows = np.where(in_range, donors.astype(np.int64), layout.days)
    src = layout.missing + (rows - layout.days)[layout.row] * slots_per_day(ps.resolution)
    inside = in_range[layout.row] & (src >= 0) & (src < ps.n)
    donor_values = ps.values[np.where(inside, src, 0)]
    bad = ~inside | np.isnan(donor_values)
    ordinal = ps.start.date().toordinal()
    if bad.any():
        k = layout.row[bad.argmax()]  # the earliest day with a slot it cannot fill
        day = date.fromordinal(ordinal + int(layout.days[k]))
        donor = ordinal + int(donors[k])  # named by its row where no date holds it
        donor = date.fromordinal(donor) if 1 <= donor <= _MAX_ORDINAL else f"at row {donors[k]}"
        if not inside[layout.row == k].all():
            raise ImputationError(f"matched day {donor} does not cover all slots needed by {day}")
        raise ImputationError(f"matched day {donor} is not complete")
    pairs = list(zip(*(map(date.fromordinal, (ordinal + r).tolist()) for r in (layout.days, rows))))
    completed = np.array(ps.values)
    completed[layout.missing] = donor_values

    dt = resolution_hours(ps.resolution)
    fills = []
    for gap, (lo, hi) in zip(layout.gaps, layout.gap_rows):
        span = slice(gap.first_missing, gap.last_missing + 1)
        sources = tuple(pairs[lo:hi])
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

    completed.setflags(write=False)
    return PowerSeries(start=ps.start, resolution=ps.resolution, values=completed), tuple(fills)


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
    """Weight-independent state shared by all matching runs on one series.

    ``days`` is the series' day table with its ``total`` column filled in,
    and ``candidates`` are its rows of complete full days: the donors of
    the match table, in date order.  ``run_plan`` reads the match table to
    pick donors and the paste layout to paste and scale them; neither is
    rebuilt per weighting.
    """

    series: EnergySeries        # input with isolated singles already filled
    power: PowerSeries
    layout: PasteLayout         # the missing slots, their days, and every gap's days
    days: DayTable
    candidates: np.ndarray      # the day-table rows of the copy candidates
    context: SeasonContext
    table: MatchTable           # the days with gaps against the candidates


def _season_context(days: DayTable, candidates: np.ndarray) -> SeasonContext:
    """Cycle length and day-total range of the candidates and the estimated days."""
    last = days.first + timedelta(days=len(days) - 1)
    leap_day = any(
        calendar.isleap(year) and days.first <= date(year, 2, 29) <= last
        for year in range(days.first.year, last.year + 1)
    )
    ranged = (days.missing > 0) & ~np.isnan(days.total)
    ranged[candidates] = True
    lo, hi = float(days.total[ranged].min()), float(days.total[ranged].max())
    if not hi > lo:
        hi = lo + 1.0  # all day totals identical; any range gives zero distances
    return SeasonContext(366 if leap_day else 365, lo, hi)


def plan_cpi(es: EnergySeries, min_complete_days: int = 14) -> CpiPlan:
    """Run the weight-independent pipeline stages once for a series.

    One day table carries the plan from the partition to the match table:
    the weekly fit reads its complete full days, the gap-day estimates and
    the day totals become its ``total`` column, and the match table is
    built by indexing its columns.  The series needs at least
    ``min_complete_days`` complete full days.
    """
    filled = interpolate_singles(es)
    gaps = detect_gaps(filled)
    power = energy_to_power(filled)
    layout = paste_layout(power, gaps)
    days = day_partition(filled)

    candidates = np.flatnonzero((days.missing == 0) & days.full_day)
    if candidates.size < min_complete_days:
        raise ImputationError(
            f"copy-paste imputation needs at least {min_complete_days} "
            f"complete days, got {candidates.size}"
        )
    pattern = fit_weekly_pattern(days, candidates, min_days=min_complete_days)

    estimates = estimate_daily_energy(filled, days, [g for g in gaps if g.anchored], pattern)
    # Days touched by an unanchored boundary gap get no energy estimate and
    # are matched on weekday and season alone.
    for first, last in _gap_day_range(filled, [g for g in gaps if not g.anchored]).T.tolist():
        estimates[first : last + 1] = np.nan
    days = compile_complete_days(days, estimates)
    context = _season_context(days, candidates)

    day, slot = day_slot(power, layout.missing)
    last_slot = slot[np.searchsorted(day, layout.days, side="right") - 1]
    return CpiPlan(
        series=filled,
        power=power,
        layout=layout,
        days=days,
        candidates=candidates,
        context=context,
        table=match_table(days, layout.days, candidates, context, last_slot),
    )


def run_plan(
    plan: CpiPlan,
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    scale: bool = True,
) -> ImputationResult:
    """Impute the plan's series with the donors that ``weights`` pick.

    Only donor-dependent work happens here: matching on the plan's table,
    ``copy_paste_and_scale`` of the donors' day-table rows over the plan's
    paste layout, and the energy rebuild of ``complete_from_power``.
    """
    best = match_weights(plan.table, [(weights.energy, weights.weekday, weights.season)])[0]
    imputed, per_gap = copy_paste_and_scale(plan.power, plan.layout, plan.candidates[best], scale)
    return complete_from_power(plan.series, imputed, per_gap)


def impute_cpi(
    es: EnergySeries,
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    scale: bool = True,
    min_complete_days: int = 14,
) -> ImputationResult:
    """Impute every missing value of an energy series by copy-paste.

    Deterministic for fixed inputs.  A series without missing values is
    returned unchanged; otherwise the full pipeline runs and the imputed
    power conserves the metered energy of every anchored gap (unless
    ``scale`` is false, in which case the miss shows in ``imputed_power``
    and as a jump at each gap's right anchor in the completed series).
    ``min_complete_days`` is the least number of complete days ``plan_cpi``
    accepts.
    """
    filled = interpolate_singles(es)
    if not np.isnan(filled.values).any():
        power = energy_to_power(filled)
        return ImputationResult(power, filled, (), power)
    return run_plan(plan_cpi(filled, min_complete_days), weights, scale=scale)
