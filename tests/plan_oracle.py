"""Reference planning stages that build one Python object per day.

The package plans from one day table of arrays (``meterfill.series.DayTable``):
the day partition, the weekly fit, the gap-day estimates, the day totals and
the match table all read and write its columns.  These are the earlier
bodies: the partition returns a ``DayView`` per day, the estimates are a
``date -> total`` dict, every day becomes a ``DayRecord``, and the match
table reads the records' attributes one by one into dense matrices over
every (day with gaps, candidate) pair, as the package's match table once
held them; the package builds them a block of rows at a time.  The tests
require the two to give bit-identical plans, matrices, results and errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
import numpy as np

from meterfill import DissimilarityWeights, EnergySeries, ImputationError, ValidationError
from meterfill.cpi import (
    WEEKDAY_NAMES,
    PasteLayout,
    _MatchBlock,
    _pick_donors,
    interpolate_singles,
    paste_layout,
    season_distance,
    weekday_distance,
)
from meterfill.series import (
    detect_gaps,
    day_slot,
    energy_to_power,
    grid_offset,
    resolution_hours,
    slots_per_day,
)


@dataclass(frozen=True)
class DayView:
    """One calendar day's view over the power domain of a series."""

    date: date
    start: int              # first power index of the day
    stop: int               # one past the last power index
    missing: int            # missing power values in the day
    known_energy: float     # resolution-hours * sum of present power (kWh)
    covers_full_day: bool   # series spans every energy reading of the day

    @property
    def slots(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class DayRecord:
    """Calendar-day properties used for dissimilarity matching.

    ``total_energy`` is the day's actual total for complete days, the
    estimated total for days whose gaps are all anchored, and None for days
    touched by an unanchored boundary gap.
    """

    date: date
    total_energy: float | None
    weekday: int            # 1 = Monday .. 7 = Sunday
    day_of_year: int        # 1 .. 366
    is_complete: bool
    estimated: bool
    full_day: bool

    def __post_init__(self):
        if not 1 <= self.weekday <= 7:
            raise ValidationError(f"weekday must be in 1..7, got {self.weekday}")
        if not 1 <= self.day_of_year <= 366:
            raise ValidationError(f"day of year must be in 1..366, got {self.day_of_year}")
        if self.is_complete and self.estimated:
            raise ValidationError("a complete day cannot carry an estimated total")


def views(table) -> list[DayView]:
    """The rows of a package day table as the per-day views it replaced."""
    columns = (table.start, table.stop, table.missing, table.known_energy, table.full_day)
    return [
        DayView(table.first + timedelta(days=d), *fields)
        for d, fields in enumerate(zip(*(c.tolist() for c in columns)))
    ]


def day_partition(series) -> list[DayView]:
    ps = energy_to_power(series) if isinstance(series, EnergySeries) else series
    spd = slots_per_day(ps.resolution)
    off0 = grid_offset(ps.start, ps.resolution)
    m = ps.n
    if m == 0:
        return []
    miss = np.isnan(ps.values)
    day_count = (off0 + m - 1) // spd + 1
    edges = np.arange(day_count + 1) * spd - off0
    bounds = np.clip(edges, 0, m)
    missing = np.diff(np.concatenate(([0], np.cumsum(miss)))[bounds])

    zeroed = np.where(miss, 0.0, ps.values)
    first = int(off0 > 0)
    rows = (m - bounds[first]) // spd
    sums = np.empty(day_count)
    whole = zeroed[bounds[first] : bounds[first] + rows * spd].reshape(rows, spd)
    sums[first : first + rows] = whole.sum(axis=1)
    for d in {0, day_count - 1} - set(range(first, first + rows)):
        sums[d] = zeroed[bounds[d] : bounds[d + 1]].sum()

    full = np.diff(np.clip(edges, 0, series.n)) == spd
    date0 = ps.start.date()
    columns = (bounds[:-1], bounds[1:], missing, sums * resolution_hours(ps.resolution), full)
    return [
        DayView(date0 + timedelta(days=d), *fields)
        for d, fields in enumerate(zip(*(c.tolist() for c in columns)))
    ]


def fit_weekly_pattern(complete_days, min_days=14) -> np.ndarray:
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
    for w in range(1, 7):
        design[:, 1 + w] = weekdays == w
    beta, *_ = np.linalg.lstsq(design, totals, rcond=None)

    effects = np.append(beta[2:8], 0.0)
    offsets = effects - effects.mean()
    offsets -= offsets.mean()
    return offsets


def _gap_days(series, gap):
    day, _ = day_slot(series, np.arange(gap.first_missing, gap.last_missing + 1))
    return np.arange(day[0], day[-1] + 1), np.bincount(day - day[0])


def estimate_daily_energy(series, days, gaps, offsets) -> dict[date, float]:
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
                [offsets[days[i].date.isoweekday() - 1] for i in touched]
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


def compile_complete_days(days, estimates) -> list[DayRecord]:
    records = []
    for view in days:
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


def match_table(days, candidates, cycle_length, keep=None, rows=None) -> _MatchBlock:
    """The package's matrices over every row at once, built from the records one by one.

    ``rows`` are the candidates' day-table rows, which ``donor`` holds; by
    default they are the candidates' positions, so that ``_pick_donors``
    answers in candidate indices, as ``lexsort_donors`` does.  ``keep`` may
    be any mask, also one that no row's last missing slot gives.
    """
    if not candidates or (keep is not None and not keep.any(axis=1).all()):
        raise ImputationError("no complete day available")

    ordinal = np.array([c.date.toordinal() for c in candidates])
    distance = np.abs(ordinal - np.array([d.date.toordinal() for d in days])[:, None])
    order = np.lexsort((np.broadcast_to(ordinal, distance.shape), distance), axis=-1)

    def column(attr):
        return np.array([getattr(d, attr) for d in days], dtype=np.float64)[:, None]

    def row(attr):
        return np.array([getattr(c, attr) for c in candidates], dtype=np.float64)[order]

    energy = np.abs(row("total_energy") - column("total_energy"))
    return _MatchBlock(
        weekday=weekday_distance(column("weekday"), row("weekday")),
        season=season_distance(column("day_of_year"), row("day_of_year"), cycle_length),
        energy=np.where(np.isnan(energy), 0.0, energy),
        keep=np.full(order.shape, True) if keep is None else np.take_along_axis(keep, order, 1),
        donor=order if rows is None else np.asarray(rows, dtype=np.int64)[order],
    )


def best_donors(days, candidates, weights: DissimilarityWeights, cycle_length, energy_range,
                keep=None) -> np.ndarray:
    """Index of each day's least dissimilar candidate, as ``match_weights`` picks it."""
    block = match_table(days, candidates, cycle_length, keep)
    return _pick_donors(block, energy_range, [(weights.energy, weights.weekday, weights.season)])[0]


def season_normalization(records, candidates) -> tuple[int, float]:
    """The seasonal cycle length and the range of the candidates' and estimated days' totals."""
    cycle = 365
    for record in records:
        if record.date.month == 2 and record.date.day == 29:
            cycle = 366
            break
    totals = [c.total_energy for c in candidates]
    totals += [r.total_energy for r in records if r.estimated and r.total_energy is not None]
    lo, hi = min(totals), max(totals)
    if not hi > lo:
        hi = lo + 1.0
    return cycle, hi - lo


@dataclass(frozen=True, eq=False)
class Plan:
    """What the earlier ``plan_cpi`` held.

    ``run_plan`` reads ``series``, ``power`` and ``layout``, and
    ``plan_donors`` reads ``block`` and ``energy_range``.
    ``candidate_records`` are the records of the copy candidates, and
    ``candidates`` their day-table rows, which the block's ``donor`` holds.
    """

    days: tuple[DayView, ...]
    records: tuple[DayRecord, ...]
    candidate_records: tuple[DayRecord, ...]
    cycle_length: int
    energy_range: float
    series: EnergySeries
    power: object
    layout: PasteLayout
    candidates: np.ndarray
    block: _MatchBlock


def plan_cpi(es, min_complete_days=14) -> Plan:
    filled = interpolate_singles(es)
    gaps = detect_gaps(filled)
    power = energy_to_power(filled)
    layout = paste_layout(power, gaps)
    days = day_partition(filled)

    complete_full = [
        view for view in days if view.missing == 0 and view.covers_full_day
    ]
    if len(complete_full) < min_complete_days:
        raise ImputationError(
            f"copy-paste imputation needs at least {min_complete_days} "
            f"complete days, got {len(complete_full)}"
        )
    offsets = fit_weekly_pattern(
        [(v.date, v.known_energy) for v in complete_full],
        min_days=min_complete_days,
    )

    anchored = [g for g in gaps.records if g.anchored]
    unanchored = [g for g in gaps.records if not g.anchored]
    estimates = estimate_daily_energy(filled, days, anchored, offsets)
    blocked = {days[i].date for gap in unanchored for i in _gap_days(filled, gap)[0]}
    usable = {d: v for d, v in estimates.items() if d not in blocked}

    records = compile_complete_days(days, usable)
    rows = [i for i, r in enumerate(records) if r.is_complete and r.full_day]
    candidates = [records[i] for i in rows]
    cycle_length, energy_range = season_normalization(records, candidates)

    gap_rows = [i for i, r in enumerate(records) if not r.is_complete]
    day, slot = day_slot(power, layout.missing)
    last_slot = slot[np.searchsorted(day, gap_rows, side="right") - 1]
    donor_slots = np.array([days[i].slots for i in rows])
    keep = donor_slots > last_slot[:, None]
    return Plan(
        days=tuple(days),
        records=tuple(records),
        candidate_records=tuple(candidates),
        cycle_length=cycle_length,
        energy_range=energy_range,
        series=filled,
        power=power,
        layout=layout,
        candidates=np.array(rows, dtype=np.int64),
        block=match_table([records[i] for i in gap_rows], candidates, cycle_length, keep, rows),
    )


def plan_donors(plan: Plan, weights: DissimilarityWeights) -> np.ndarray:
    """The donor day-table rows ``weights`` pick for the days with gaps of ``plan``."""
    triple = [(weights.energy, weights.weekday, weights.season)]
    return _pick_donors(plan.block, plan.energy_range, triple)[0]
