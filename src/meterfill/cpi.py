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
from dataclasses import astuple, dataclass
from datetime import date, timedelta
from functools import cached_property, partial
from itertools import groupby

import numpy as np

from .errors import ImputationError, ValidationError
from .series import (
    DayTable,
    EnergySeries,
    Gap,
    GapArrays,
    MeterKind,
    PowerSeries,
    _missing_runs,
    _with_values,
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
class GapFill:
    """Audit record of how one gap was filled."""

    gap: Gap
    sources: tuple[tuple[date, date], ...]  # (day with gaps, donor day) pairs
    scale: float | None
    fallback: str | None = None

    @property
    def anchored(self) -> bool:
        """Whether the gap has a metered reading on both sides."""
        return self.gap.anchored


@dataclass(frozen=True)
class ImputationResult:
    """The completed energy, the power as imputed, and the per-gap audit.

    ``imputed_power`` is the power the method produced: the pasted donor
    values, scaled when scaling is on, or a baseline's fill.  Audits and
    scores read it.  ``completed_power`` is the derivative of
    ``completed_energy``, derived on first read and then kept, so the two
    completed series agree exactly; it equals ``imputed_power`` except in
    the last slot of each gap anchored on both sides, which meets the
    metered right anchor and so carries the gap's energy miss (rounding
    level when the imputed power conserves it; where the energy rebuild
    caps readings at the anchor, the slot before the capped ones carries it).
    """

    completed_energy: EnergySeries
    per_gap: tuple[GapFill, ...]
    imputed_power: PowerSeries

    def __post_init__(self):
        if np.isnan(self.completed_energy.values).any():
            raise ValidationError("completed energy series still contains missing values")
        if np.isnan(self.imputed_power.values).any():
            raise ValidationError("imputed power series still contains missing values")

    @cached_property
    def completed_power(self) -> PowerSeries:
        return energy_to_power(self.completed_energy)


def interpolate_singles(es: EnergySeries) -> EnergySeries:
    """Fill isolated missing readings with the mean of their neighbours.

    These are the missing runs of length one with a present reading on
    both sides; runs at the series ends and runs of two or more are left
    untouched.  The filled readings count as present in all later steps.
    """
    starts, stops = _missing_runs(es.values)
    idx = starts[(stops - starts == 1) & (starts > 0) & (stops < es.n)]
    if not idx.size:
        return es
    return _with_values(es, idx, 0.5 * (es.values[idx - 1] + es.values[idx + 1]))


def fit_weekly_pattern(
    days: DayTable,
    rows: np.ndarray,
    min_days: int = 14,
) -> np.ndarray:
    """Zero-mean weekday offsets of daily energy, fitted beside a linear trend.

    Least-squares fit of the known energy of the day-table ``rows`` (in
    date order) on a trend, counted in days from the first of them, plus
    weekday dummies.  Needs at least 14 days (configurable) and at least
    one day per weekday class.  Returns the per-weekday effects recentred
    to zero mean as a read-only float64 array, Monday first: entry w - 1
    is the kWh offset of ISO weekday w.
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
    offsets = effects - effects.mean()
    offsets -= offsets.mean()  # absorb rounding so the offsets sum to zero
    offsets.setflags(write=False)
    return offsets


def estimate_daily_energy(
    days: DayTable,
    gaps: GapArrays,
    gap_days: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Estimate each day's total energy, allocating gap energy across days.

    Row d of the result is day d's known energy plus its share of the
    gaps.  Per anchored gap: the metered gap energy is first split across
    the overlapped days in proportion to their missing values; the weekday
    ``offsets`` of ``fit_weekly_pattern`` are then injected with a zero-sum
    correction weighted by how much of each day lies in the gap, so the gap
    total is untouched; negative day shares are clamped to zero and the
    rest rescaled to restore the total.
    The shares are added into the days in gap order.  Unanchored gaps are
    rejected.  ``days`` is the series' ``day_partition``, ``gaps`` rows of
    its ``detect_gaps`` table, and ``gap_days`` the day-table rows of their
    first and last missing power values, shape (2, gaps).
    """
    if not gaps.anchored.all():
        raise ImputationError(
            "cannot allocate energy for an unanchored gap; boundary gaps "
            "are handled without an energy estimate"
        )
    # One (gap, day) pair per day each gap touches, in gap order.
    ndays = gap_days[1] - gap_days[0] + 1
    day, gap = _piece_slots(gap_days.T + [0, 1])
    first = gaps.first_missing[gap]
    stop = gaps.last_missing[gap] + 1
    counts = np.minimum(stop, days.stop[day]) - np.maximum(first, days.start[day])
    energy = gaps.actual_energy
    allocation = energy[gap] * counts / (stop - first)

    # A gap over several days takes the weekday offsets, centred on the
    # gap's coverage of each day.  The gaps over L days are handled as the
    # rows of one (gaps, L) matrix of their pairs; a row's sum equals
    # ``ndarray.sum`` of that gap's own pairs bit for bit.
    coverage = counts / days.slots[day]
    offs = offsets[days.weekday[day] - 1]
    for width in sorted(set(ndays.tolist()) - {1}):
        rows = np.flatnonzero(ndays == width)
        pairs = np.flatnonzero(ndays[gap] == width).reshape(-1, width)
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


def compile_complete_days(days: DayTable, estimates: np.ndarray) -> np.ndarray:
    """Each row's day total for matching, one entry per row of ``days``.

    Complete days carry their actual totals; days with gaps take theirs
    from ``estimates``, which is NaN where a day has none (one touched by
    an unanchored boundary gap).
    """
    return np.where(days.missing == 0, days.known_energy, estimates)


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

    Row i is the row ``rows[i]`` of the day table ``days`` (in a plan,
    ``layout.days[i]``), and ``candidates`` are the copy candidates' rows in
    date order.  A candidate can donate to row i only if it reaches
    within-day slot ``last_slot[i]``.  The table keeps no (rows x
    candidates) matrix: ``match_weights`` builds the distances a block of
    rows at a time from the day table's columns, the day totals and the two
    distance look-ups, and divides the energy term by ``energy_range``, the
    largest minus the smallest known total of the rows and candidates.
    """

    days: DayTable                  # the series' day table
    total: np.ndarray               # day total of every day-table row, NaN if unknown
    rows: np.ndarray                # day-table rows with gaps
    candidates: np.ndarray          # day-table rows of the copy candidates
    last_slot: np.ndarray           # each row's last missing within-day slot
    weekday_distances: np.ndarray   # weekday distance of ISO weekdays (i, j) at 7 * i + j - 8
    season_distances: np.ndarray    # season distance by day-of-year difference, 0 .. 366
    energy_range: float             # the span of the known day totals


def match_table(
    days: DayTable,
    total: np.ndarray,
    rows: np.ndarray,
    candidates: np.ndarray,
    last_slot: np.ndarray,
) -> MatchTable:
    """What matching ``rows`` against ``candidates`` of ``days`` needs, whatever the weights.

    ``rows`` and ``candidates`` are day-table rows in date order, and the
    table keeps ``days`` and its day totals ``total`` (NaN where unknown)
    as given, copying no column.  A candidate can donate to ``rows[i]``
    only if it reaches within-day slot ``last_slot[i]``, the row's last
    missing slot; a row that no candidate reaches raises.  The energy range
    spans the known totals of the rows and candidates; where all are equal
    it is taken as ``(lo + 1) - lo``, and where none is known as 1.  The
    season cycle is 366 days when a 29 February lies between the table's
    first and last date, else 365.
    """
    if not candidates.size or (days.slots[candidates].max() <= last_slot).any():
        raise ImputationError("no complete day available")

    totals = total[np.concatenate([rows, candidates])]
    totals = totals[~np.isnan(totals)]
    lo, hi = (float(totals.min()), float(totals.max())) if totals.size else (0.0, 0.0)
    if not hi > lo:
        hi = lo + 1.0  # day totals all equal or unknown; any range gives zero distances
    last = days.first + timedelta(days=len(days) - 1)
    leap_day = any(
        calendar.isleap(year) and days.first <= date(year, 2, 29) <= last
        for year in range(days.first.year, last.year + 1)
    )

    # Both distances take few values: look them up by weekday pair and by
    # day-of-year difference.
    week = np.arange(1, 8)
    return MatchTable(
        days=days,
        total=total,
        rows=rows,
        candidates=candidates,
        last_slot=last_slot,
        weekday_distances=weekday_distance(week[:, None], week).ravel(),
        season_distances=season_distance(0, np.arange(367), 366 if leap_day else 365),
        energy_range=hi - lo,
    )


@dataclass(frozen=True, eq=False)
class _MatchBlock:
    """The distance components of a block of rows against every candidate.

    Every matrix holds a row's candidates in tie order (smaller calendar
    distance first, then the earlier date), and ``donor[i, k]`` is the
    day-table row of column k, so the first least-dissimilar column of a
    row is the tie-break winner.  ``energy`` is the absolute day-total
    difference, 0 where a total is missing, which drops the energy term.
    """

    weekday: np.ndarray         # weekday distances
    season: np.ndarray          # season distances
    energy: np.ndarray          # |day total - candidate total|
    keep: np.ndarray            # False where a candidate cannot donate to the row
    donor: np.ndarray           # day-table row of each column


def _match_block(table: MatchTable, lo: int = 0, hi: int | None = None) -> _MatchBlock:
    """The matrices of ``table``'s rows ``lo:hi`` (all rows by default), in tie order."""
    rows = table.rows[lo:hi]
    # Candidates are in date order: a stable sort by calendar distance puts
    # the earlier date first on a tie.
    candidates = table.candidates
    donor = candidates[np.argsort(np.abs(candidates - rows[:, None]), axis=-1, kind="stable")]
    days, total = table.days, table.total
    pair = (7 * days.weekday[rows] - 8)[:, None] + days.weekday[donor]
    delta = np.abs(days.day_of_year[rows][:, None] - days.day_of_year[donor])
    energy = np.abs(total[donor] - total[rows][:, None])
    return _MatchBlock(
        weekday=table.weekday_distances[pair],
        season=table.season_distances[delta],
        energy=np.where(np.isnan(energy), 0.0, energy),
        keep=days.slots[donor] > table.last_slot[lo:hi, None],
        donor=donor,
    )


# Bounds on the matrix entries held at once: each matrix of a block of rows
# stays within 64 kB, and each temporary of scoring weight triples on it
# within 256 kB, however long the series or large the grid.
_BLOCK_ENTRIES = 1 << 13
_BATCH_ENTRIES = 1 << 15
# At most this many energy weights are scored on a block at once.  More
# make the blocks thin, and numpy pays per weight and block to broadcast
# the weekday-plus-season term; fewer rebuild that term more often.
_CHUNK_WEIGHTS = 10


@dataclass(frozen=True, eq=False)
class _TripleGroups:
    """Weight triples grouped by the dissimilarity terms they share.

    Triple k of the given list is distinct triple ``inverse[k]``.  The
    distinct triples run by chunk of energy weights, then by (weekday,
    season) pair, then by energy weight.  Each of ``chunks`` is its energy
    weights, shaped to broadcast over a block, and its groups
    ``(w_weekday, w_season, lo, hi, at)``: distinct triples ``lo:hi`` share
    the pair, and ``at`` picks their energy weights from the chunk (a slice
    where they are consecutive).  Blocks of ``rows`` rows keep each matrix
    within ``_BLOCK_ENTRIES`` entries, and a chunk's energy terms, and the
    sums of a group, within ``_BATCH_ENTRIES``.
    """

    inverse: np.ndarray     # the distinct triple of each given triple
    distinct: int           # how many distinct triples there are
    rows: int               # rows of each block that match_weights builds
    chunks: list            # (energy weights, groups) per chunk of energy weights


def _group_triples(triples, candidates: int) -> _TripleGroups:
    """``triples`` grouped for blocks of ``candidates`` columns."""
    weights = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
    bad = ~(np.isfinite(weights).all(1) & (weights >= 0).all(1) & (weights > 0).any(1))
    if bad.any():  # the first triple that DissimilarityWeights refuses raises its error
        DissimilarityWeights(*weights[bad.argmax()].tolist())
    listed = weights.tolist()
    energies = sorted({w_energy for w_energy, _, _ in listed})
    most = max(1, min(_CHUNK_WEIGHTS, _BATCH_ENTRIES // max(1, candidates)))
    count = -(-len(energies) // most)  # as few chunks as ``most`` allows, of even sizes
    chunk = -(-len(energies) // count) if count else 1
    place = {w_energy: i for i, w_energy in enumerate(energies)}
    # (chunk, weekday weight, season weight, energy weight's place in the chunk)
    keys = [(place[w_energy] // chunk, w_weekday, w_season, place[w_energy] % chunk)
            for w_energy, w_weekday, w_season in listed]
    distinct = sorted(set(keys))
    chunks = [(np.array(energies[lo : lo + chunk]).reshape(-1, 1, 1), [])
              for lo in range(0, len(energies), chunk)]
    lo = 0
    for (sliced, w_weekday, w_season), run in groupby(distinct, lambda key: key[:3]):
        at = [key[3] for key in run]
        hi = lo + len(at)
        if at[-1] - at[0] == len(at) - 1:  # a view of the energy terms, not a gather
            at = slice(at[0], at[-1] + 1)
        chunks[sliced][1].append((w_weekday, w_season, lo, hi, at))
        lo = hi
    position = {key: i for i, key in enumerate(distinct)}
    return _TripleGroups(
        inverse=np.array([position[key] for key in keys], dtype=np.intp),
        distinct=len(distinct),
        rows=max(1, min(_BLOCK_ENTRIES, _BATCH_ENTRIES // chunk) // max(1, candidates)),
        chunks=chunks,
    )


def _pick_grouped(block: _MatchBlock, energy_range: float, groups: _TripleGroups,
                  donors: np.ndarray) -> None:
    """Write ``_pick_donors`` of the triples ``groups`` was built from into ``donors``."""
    excluded = None if block.keep.all() else np.nonzero(~block.keep)
    picks = np.empty((groups.distinct, len(block.donor)), dtype=np.intp)
    for w_energy, group in groups.chunks:
        energy = w_energy * block.energy
        energy /= energy_range
        for w_weekday, w_season, first, last, at in group:
            value = w_weekday * block.weekday
            value += w_season * block.season
            value = value + energy[at]
            if excluded is not None:
                value[:, excluded[0], excluded[1]] = np.inf
            value.argmin(axis=-1, out=picks[first:last])
    picks = block.donor[np.arange(len(block.donor)), picks]
    # Clipping never bites (every position is valid) and leaves np.take
    # unbuffered, so it writes the rows in place: no third picks matrix.
    np.take(picks, groups.inverse, axis=0, out=donors, mode="clip")


def _pick_donors(block: _MatchBlock, energy_range: float, triples) -> np.ndarray:
    """Donor day-table row of every row of ``block`` under each weight triple.

    The triples share their terms.  ``P = weekday * dw + season * ds`` is
    built once per distinct (weekday, season) pair, ``Q = energy * |dE|``
    then ``/ range`` once per distinct energy weight, and a triple's
    dissimilarity is ``P + Q``: the IEEE operations of ``match_weights``'
    formula, in its order, so each triple picks what it picks alone.
    Candidates that cannot donate are set to infinity in the sum, never in
    ``P``: a zero energy weight times an overflowed difference makes ``Q``
    NaN, and ``inf + NaN`` would hand ``argmin`` the excluded column.  A
    block that excludes nothing skips the step.  The energy weights are
    taken in chunks of at most ``_CHUNK_WEIGHTS``, and the whole block is
    scored at once: ``match_weights`` sizes its blocks so that no matrix
    of terms or sums exceeds ``_BATCH_ENTRIES`` entries.
    """
    groups = _group_triples(triples, block.donor.shape[1])
    donors = np.empty((groups.inverse.size, block.donor.shape[0]), dtype=np.int64)
    _pick_grouped(block, energy_range, groups, donors)
    return donors


def match_weights(table: MatchTable, triples) -> np.ndarray:
    """Donor day-table row of every row of ``table`` under each weight triple.

    ``triples`` is a sequence of (energy, weekday, season) weights; the
    result has shape (len(triples), rows), and each of its rows is the
    ``donors`` of ``copy_paste_and_scale`` and ``run_plan``.  The
    dissimilarity of a row and a candidate is
    ``(weekday * dw + season * ds) + (energy * |dE|) / range``, evaluated
    in that order, so every weighting sees exactly the values a
    single-triple match would.  Exact ties go to the smallest calendar
    distance, then to the earlier date.  The triples are grouped once:
    each block of rows builds the weekday-plus-season term once per
    distinct (weekday, season) pair and the energy term once per distinct
    energy weight, and each triple's sum of the two (``_pick_donors``).
    The distance matrices are built for a block of ``_TripleGroups.rows``
    rows at a time, and every triple is scored on a block before the next
    is built, so no (rows x candidates) matrix is held.  A triple that
    ``DissimilarityWeights`` refuses raises its ``ValidationError``.
    """
    groups = _group_triples(triples, table.candidates.size)
    rows, step = table.rows.size, groups.rows
    donors = np.empty((len(groups.inverse), rows), dtype=np.int64)
    for lo in range(0, rows, step):
        block = _match_block(table, lo, lo + step)
        _pick_grouped(block, table.energy_range, groups, donors[:, lo : lo + step])
    return donors


@dataclass(frozen=True, eq=False)
class PasteLayout:
    """Where a paste writes and what each gap spans, whatever the donors.

    ``gaps`` is the series' ``detect_gaps`` table.  ``days`` are the
    day-table rows (day offsets from the start's date) that have missing
    power values, in date order: the rows of a plan's match table.
    ``missing`` holds every missing power index and ``row`` the position
    of its day in ``days``, and ``last_slot[i]`` is the within-day slot of
    the last missing index of ``days[i]``.  Gap k touches ``days[lo:hi]``
    for ``(lo, hi) = gap_rows[k]``, so its first and last day-table rows
    are ``days[lo]`` and ``days[hi - 1]``, and its missing indices are
    ``missing[a:b]`` for ``(a, b) = gap_slots[k]``.
    """

    gaps: GapArrays
    days: np.ndarray            # the day-table rows with missing power
    missing: np.ndarray         # missing power indices
    row: np.ndarray             # the position in `days` of each missing index
    last_slot: np.ndarray       # the last missing within-day slot of each of `days`
    gap_rows: np.ndarray        # int64 (gaps, 2): the positions in `days` each gap touches
    gap_slots: np.ndarray       # int64 (gaps, 2): the positions in `missing` each gap covers


def paste_layout(ps: PowerSeries, gaps: GapArrays) -> PasteLayout:
    """The donor-independent part of pasting into ``ps`` and scaling its gap table ``gaps``.

    Missing indices are mapped to their days once, and each gap's day
    positions are those of its first and last missing index.  The gaps
    cover the missing indices in order, so each gap's are one run of them.
    """
    missing = np.flatnonzero(np.isnan(ps.values))
    day, slot = day_slot(ps, missing)
    days, row = np.unique(day, return_inverse=True)
    ends = np.searchsorted(missing, np.stack([gaps.first_missing, gaps.last_missing], 1))
    return PasteLayout(
        gaps=gaps,
        days=days,
        missing=missing,
        row=row,
        last_slot=slot[np.searchsorted(day, days, side="right") - 1],
        gap_rows=row[ends] + [0, 1],
        gap_slots=ends + [0, 1],
    )


def _piece_slots(runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of the ``(start, stop)`` rows of ``runs``, run after run, and its run."""
    length = runs[:, 1] - runs[:, 0]
    offset = np.cumsum(length) - length
    piece = np.repeat(np.arange(len(runs)), length)
    return np.repeat(runs[:, 0] - offset, length) + np.arange(piece.size), piece


def _gather(
    ps: PowerSeries,
    layout: PasteLayout,
    donors: np.ndarray,
    gap: np.ndarray | None = None,
    row: np.ndarray | None = None,
) -> np.ndarray:
    """The donor values of pieces of the missing power slots, piece after piece.

    ``donors[r, i]`` is the day-table row of the donor of ``layout.days[i]``
    in donor row r.  Piece j is gap ``gap[j]``'s run of ``layout.missing``
    (its ``gap_slots``) pasted from ``donors[row[j]]``; by default there
    is one piece, the run of every missing slot, pasted from ``donors[0]``.
    Each slot copies the same within-day slot of its day's donor, a
    whole-day shift of its index, and all pieces are gathered in one fancy
    index.  The first piece with a slot that its donor does not cover, or
    covers with a missing value, raises, naming its earliest such day; a
    day that a piece holds whole is judged on all of its slots.
    """
    if gap is None:
        runs, row = np.array([[0, layout.missing.size]]), np.zeros(1, dtype=np.intp)
    else:
        runs = layout.gap_slots[gap]
    position, piece = _piece_slots(runs)
    day = layout.row[position]
    # A row outside the series' days covers none of its day's slots.  The
    # rows are clipped to [-1, n] before the index arithmetic, which could
    # overflow on them; both bounds lie outside the days too.
    src = donors.take(row[piece] * donors.shape[1] + day).astype(np.int64, copy=False)
    np.minimum(np.maximum(src, -1, out=src), ps.n, out=src)
    src -= layout.days[day]
    src *= slots_per_day(ps.resolution)
    src += layout.missing[position]
    outside = src.view(np.uint64) >= ps.n  # a negative index reads as a huge one
    values = ps.values.take(src, mode="clip")
    bad = outside | np.isnan(values)
    if bad.any():
        first = bad.argmax()  # in the first piece with a slot it cannot fill, its earliest day
        k, j = day[first], piece[first]
        ordinal = ps.start.date().toordinal()
        when = date.fromordinal(ordinal + int(layout.days[k]))
        raw = donors[row[j], k]
        donor = ordinal + int(raw)  # named by its row where no date holds it
        donor = date.fromordinal(donor) if 1 <= donor <= _MAX_ORDINAL else f"at row {raw}"
        if outside[(day == k) & (piece == j)].any():
            raise ImputationError(f"matched day {donor} does not cover all slots needed by {when}")
        raise ImputationError(f"matched day {donor} is not complete")
    return values


def _scale_gap(
    values: np.ndarray, gaps: GapArrays, dt: float, gap: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scale pasted gaps in place; return each one's factor and whether it fell back.

    ``values`` holds pieces back to back, piece j a paste of gap ``gap[j]``
    of the table ``gaps`` (by default every gap, in order).  An anchored
    piece is multiplied by the ratio of its gap's metered energy to its
    pasted energy, the sum of its own slice times ``dt``, the resolution in
    hours; if the pasted energy is zero or of opposite sign, it falls back
    to a uniform fill.  Unanchored pieces keep the pasted values.  The
    factor is NaN where none was applied: on unanchored and uniform pieces.
    """
    if gap is not None:
        gaps = GapArrays(*(column[gap] for column in gaps))
    actual = gaps.actual_energy
    length = gaps.last_missing - gaps.first_missing + 1
    stop = np.cumsum(length).tolist()
    pasted = np.array([values[a:b].sum() for a, b in zip([0, *stop], stop)])
    pasted *= dt
    # The same tests and quotients as on Python floats, where inf and NaN pass silently.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        uniform = gaps.anchored & (((pasted == 0.0) & (actual != 0.0)) | (pasted * actual < 0.0))
        factor = np.where(pasted != 0.0, actual / pasted, 1.0)
        fill = actual[uniform] / (length[uniform] * dt) if uniform.any() else None
    unscaled = uniform | ~gaps.anchored
    values *= np.repeat(np.where(unscaled, 1.0, factor), length)
    if fill is not None:
        values[np.repeat(uniform, length)] = np.repeat(fill, length[uniform])
    factor[unscaled] = np.nan
    return factor, uniform


def copy_paste_and_scale(
    ps: PowerSeries,
    layout: PasteLayout,
    donors: np.ndarray,
    scale: bool = True,
) -> tuple[PowerSeries, tuple[GapFill, ...]]:
    """Fill missing power slots from donor days, then conserve gap energy.

    ``donors[i]`` is the day-table row of the donor of ``layout.days[i]``.
    Every missing power value is copied from the same within-day slot of
    its day's donor, a whole-day shift of its index (``_gather``, with one
    piece of every missing slot, so that a bad donor of a day that two
    gaps share is judged on all of that day's slots).  Each gap is then
    scaled on its own (``_scale_gap``, one piece per gap): an anchored gap
    is multiplied by the ratio of its metered energy to its pasted energy;
    if the pasted energy is zero or of opposite sign, the gap falls back to
    a uniform fill.  Unanchored gaps are pasted without scaling and
    flagged.  Without ``scale`` every gap keeps its pasted values and each
    anchored one is audited as unscaled.
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
    values = _gather(ps, layout, donors[None])
    ordinal = ps.start.date().toordinal()
    pairs = list(zip(*(map(date.fromordinal, (ordinal + r).tolist())
                       for r in (layout.days, donors.astype(np.int64)))))

    if scale:
        factor, uniform = _scale_gap(values, layout.gaps, resolution_hours(ps.resolution))
        audit = [(None if f != f else f, "uniform" if u else None)
                 for f, u in zip(factor.tolist(), uniform.tolist())]
    else:
        audit = [(1.0, "unscaled") if a else (None, None) for a in layout.gaps.anchored.tolist()]
    fills = tuple(
        GapFill(gap, tuple(pairs[lo:hi]), *pair)
        for gap, (lo, hi), pair in zip(layout.gaps.records, layout.gap_rows.tolist(), audit)
    )
    return _with_values(ps, layout.missing, values), fills


def complete_from_power(
    energy: EnergySeries,
    imputed: PowerSeries,
    per_gap: tuple[GapFill, ...],
) -> ImputationResult:
    """Build the completed series from the power a method imputed.

    Only the energy is rebuilt; the result derives the completed power from
    it when first read, so the two are exactly consistent and a second pass
    over the output reproduces it bit-for-bit.  Present power values are
    unchanged (the same differences of the same readings).  Each anchored gap is
    cumulated from its left anchor and the right anchor is kept, so the
    gap's last completed power slot absorbs whatever the imputed power
    misses of the metered energy: a rounding-level residual after scaling,
    a visible jump for a method that does not conserve energy.  A scaled or
    uniform fill conserves its gap's energy only to rounding, so on a
    consumption meter ``fill_energy_from_power`` caps its rebuilt readings
    at the gap's right anchor, and that residual never makes the completed
    power negative; unscaled fills and baselines keep their jump.  The
    imputed power is kept as given for audits and scores.
    """
    capped = ()
    if energy.meter_kind is MeterKind.CONSUMPTION:
        capped = np.array([
            fill.gap.first_missing + 1  # the gap's first missing reading
            for fill in per_gap
            if fill.anchored
            and (fill.fallback == "uniform" or (fill.scale is not None and fill.fallback is None))
        ], dtype=np.int64)
    return ImputationResult(fill_energy_from_power(energy, imputed.values, capped), per_gap, imputed)


@dataclass(frozen=True)
class CpiPlan:
    """Weight-independent state shared by all matching runs on one series.

    ``table`` holds the series' day table and day totals; no other field does.
    ``match_weights`` reads the match table, which holds the season and
    energy normalization, to pick donors, and ``run_plan`` reads the paste
    layout to paste and scale them; neither is rebuilt per weighting.  The
    plan holds nothing that grows as (days with gaps x candidates): the
    distance matrices are built block by block inside each match.
    """

    series: EnergySeries        # input with isolated singles already filled
    power: PowerSeries
    layout: PasteLayout         # the missing slots, their days, and every gap's days
    table: MatchTable           # the days with gaps against the copy candidates


def plan_cpi(es: EnergySeries, min_complete_days: int = 14) -> CpiPlan:
    """Run the weight-independent pipeline stages once for a series.

    One day table carries the plan from the partition to the match table:
    the weekly fit reads its complete full days, the estimates become the
    day totals beside it, and the match table holds both.  The series is
    differentiated once, the partition reads that power, and the paste
    layout alone maps the missing indices to their days.  The series needs
    at least ``min_complete_days`` complete full days.
    """
    filled = interpolate_singles(es)
    gaps = detect_gaps(filled)
    power = energy_to_power(filled)
    layout = paste_layout(power, gaps)
    days = day_partition(filled, power)

    candidates = np.flatnonzero((days.missing == 0) & days.full_day)
    if candidates.size < min_complete_days:
        raise ImputationError(
            f"copy-paste imputation needs at least {min_complete_days} "
            f"complete days, got {candidates.size}"
        )
    offsets = fit_weekly_pattern(days, candidates, min_days=min_complete_days)

    anchored = gaps.anchored
    anchored_gaps = GapArrays(*(column[anchored] for column in gaps))
    gap_days = layout.days[layout.gap_rows - [0, 1]].T
    estimates = estimate_daily_energy(days, anchored_gaps, gap_days[:, anchored], offsets)
    # Days touched by an unanchored boundary gap get no energy estimate and
    # are matched on weekday and season alone.
    for first, last in gap_days[:, ~anchored].T.tolist():
        estimates[first : last + 1] = np.nan
    total = compile_complete_days(days, estimates)
    return CpiPlan(
        series=filled,
        power=power,
        layout=layout,
        table=match_table(days, total, layout.days, candidates, layout.last_slot),
    )


def run_plan(plan: CpiPlan, donors: np.ndarray, scale: bool = True) -> ImputationResult:
    """Impute the plan's series from ``donors``, one day-table row per day with gaps.

    ``donors`` is a row of ``match_weights(plan.table, ...)``.  Only
    donor-dependent work happens here: ``copy_paste_and_scale`` over the
    plan's paste layout, and the energy rebuild of ``complete_from_power``.
    """
    imputed, per_gap = copy_paste_and_scale(plan.power, plan.layout, donors, scale)
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
    accepts.  The donors are ``match_weights``' pick for ``weights`` on the
    plan's match table, and ``run_plan`` pastes them (``_imputer``).
    """
    return _imputer(es, weights, min_complete_days)(scale)


def _imputer(es: EnergySeries, weights: DissimilarityWeights, min_complete_days: int = 14):
    """``impute_cpi`` planned and matched once, as a function that pastes for either ``scale``."""
    filled = interpolate_singles(es)
    if not np.isnan(filled.values).any():
        return lambda scale: ImputationResult(filled, (), energy_to_power(filled))
    plan = plan_cpi(filled, min_complete_days)
    return partial(run_plan, plan, match_weights(plan.table, [astuple(weights)])[0])
