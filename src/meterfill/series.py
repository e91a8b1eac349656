"""Core data model for meter time series.

An *energy* series holds cumulative meter readings (kWh); a *power* series
holds per-interval average power (kW).  Both are stored as equally spaced
float arrays where NaN marks a missing value, so missingness is never
encoded by skipping rows.

Power values are interval-start labelled: ``power[i]`` is the average power
between energy readings ``i`` and ``i + 1`` and carries the timestamp of
reading ``i``.  A run of k missing energy readings therefore knocks out
k + 1 power values when both sides are anchored, and k at a series boundary.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, fields, replace
from datetime import date, datetime, timedelta
from enum import Enum
from functools import cached_property
from typing import Iterator, TextIO

import numpy as np

from .errors import ImputationError, ParseError, ValidationError

_MICROSECOND = timedelta(microseconds=1)
_DAY_US = 86_400_000_000


class MeterKind(str, Enum):
    CONSUMPTION = "consumption"
    GENERATION = "generation"


def _as_values(values) -> np.ndarray:
    """The read-only float64 array a series holds.

    A float64 array that owns its memory and is already read-only is
    adopted as it is; the package's producers freeze each array they build
    before wrapping it, and ``_with_values`` builds every series that
    differs from another at some indices.  Anything else (a writeable
    array, a view, a list, another dtype) is copied, so that a later write
    to the argument never reaches the series.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.base is None
        and not values.flags.writeable
    ):
        arr = values
    else:
        arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("series values must be one-dimensional")
    if np.isinf(arr).any():
        raise ValidationError("series values must be finite or NaN")
    arr.setflags(write=False)
    return arr


def _with_values(series: Series, index, values) -> Series:
    """``series`` with ``values`` written at ``index``; every other field is kept."""
    out = np.array(series.values)
    out[index] = values
    out.setflags(write=False)
    return replace(series, values=out)


@dataclass(frozen=True, eq=False)
class Series:
    """Equally spaced float values, NaN = missing: what both kinds share.

    Series compare and hash by identity.  A series derived from another
    keeps its other fields through ``dataclasses.replace``.
    """

    start: datetime
    resolution: timedelta
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values))
        if self.resolution <= timedelta(0):
            raise ValidationError("resolution must be positive")

    @property
    def n(self) -> int:
        return int(self.values.size)

    def timestamp(self, index: int) -> datetime:
        return self.start + index * self.resolution


@dataclass(frozen=True, eq=False)
class EnergySeries(Series):
    """Equally spaced cumulative meter readings (kWh), NaN = missing.

    Consumption series are validated to be monotone non-decreasing across
    present readings, up to ``monotone_tol`` (kWh), which must not be
    negative or NaN; ``inf`` turns the check off.  Generation meters skip
    the monotonicity check.
    """

    meter_kind: MeterKind = MeterKind.CONSUMPTION
    monotone_tol: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not self.monotone_tol >= 0.0:
            raise ValidationError(
                f"monotone_tol must be non-negative, got {float(self.monotone_tol)}"
            )
        if self.values.size == 0 or not np.isfinite(self.values).any():
            raise ValidationError("an energy series needs at least one present reading")
        if self.meter_kind is MeterKind.CONSUMPTION and math.isfinite(self.monotone_tol):
            present = np.flatnonzero(np.isfinite(self.values))
            steps = np.diff(self.values[present])
            bad = np.flatnonzero(steps < -self.monotone_tol)
            if bad.size:
                i, j = present[bad[0]], present[bad[0] + 1]
                raise ValidationError(
                    f"consumption readings decrease from index {i} to {j} "
                    f"({self.values[i]:g} -> {self.values[j]:g})"
                )


@dataclass(frozen=True, eq=False)
class PowerSeries(Series):
    """Equally spaced average-power values (kW), NaN = missing."""


@dataclass(frozen=True)
class Gap:
    """The audit's record of one gap: a row of ``detect_gaps``' table.

    A missing anchor, and the ``actual_energy`` of its gap, is None.
    """

    first_missing: int
    last_missing: int
    anchor_before: float | None
    anchor_after: float | None
    actual_energy: float | None

    @property
    def length(self) -> int:
        """Number of missing power values covered by the gap."""
        return self.last_missing - self.first_missing + 1

    @property
    def anchored(self) -> bool:
        return self.anchor_before is not None and self.anchor_after is not None


@dataclass(frozen=True, eq=False)
class DayTable:
    """The calendar days of a series' power domain as columns, one row per day.

    Row d is the date ``first + d days``; its ordinal, ISO weekday and day of
    year are derived from ``first`` by arithmetic.  ``start``/``stop`` bound
    the day's power indices, ``missing`` counts absent power values,
    ``known_energy`` is resolution-hours times the sum of the present ones
    (kWh), and ``full_day`` is set where the series spans every reading of
    the day.  The planner's day totals live beside the table
    (``compile_complete_days``); the slot, weekday and day-of-year columns
    are computed once per table, on first use.
    """

    first: date
    start: np.ndarray
    stop: np.ndarray
    missing: np.ndarray
    known_energy: np.ndarray
    full_day: np.ndarray

    def __len__(self) -> int:
        return int(self.start.size)

    @cached_property
    def slots(self) -> np.ndarray:
        return self.stop - self.start

    @property
    def ordinal(self) -> np.ndarray:
        """``date.toordinal()`` of each day."""
        return self.first.toordinal() + np.arange(len(self))

    @cached_property
    def weekday(self) -> np.ndarray:
        """ISO weekday of each day, 1 = Monday .. 7 = Sunday."""
        return (self.first.isoweekday() - 1 + np.arange(len(self))) % 7 + 1

    @cached_property
    def day_of_year(self) -> np.ndarray:
        """Day of year of each day, 1 .. 366."""
        ordinal = self.ordinal
        last = self.first + timedelta(days=len(self) - 1)
        jan1 = np.array([date(y, 1, 1).toordinal() for y in range(self.first.year, last.year + 1)])
        return ordinal - jan1[np.searchsorted(jan1, ordinal, side="right") - 1] + 1


def resolution_hours(resolution: timedelta) -> float:
    return resolution.total_seconds() / 3600.0


def grid_offset(start: datetime, resolution: timedelta) -> int:
    """Resolution steps between the start's local midnight and the start itself.

    A zone-aware start is measured from its own midnight, in its own zone.
    Day-based operations need the series start to sit on the resolution grid
    of its own day; a misaligned start raises.
    """
    offset = start - start.replace(hour=0, minute=0, second=0, microsecond=0)
    if offset % resolution != timedelta(0):
        raise ImputationError(
            "series start is not aligned to the resolution grid within its day"
        )
    return offset // resolution


def slots_per_day(resolution: timedelta) -> int:
    """Number of resolution steps per day; the resolution must divide 24 h."""
    res_us = resolution // _MICROSECOND
    if res_us <= 0 or _DAY_US % res_us != 0:
        raise ImputationError(
            f"resolution {resolution} does not divide a day; day-based "
            "operations are undefined"
        )
    return _DAY_US // res_us


def day_slot(series: Series, index) -> tuple[np.ndarray, np.ndarray]:
    """(day offset from the start's date, within-day slot) of power indices.

    Power index i lies ``grid_offset + i`` steps after the start's midnight,
    so the same slot k days later is index ``i + k * slots_per_day``.
    """
    return np.divmod(
        grid_offset(series.start, series.resolution) + np.asarray(index),
        slots_per_day(series.resolution),
    )


def energy_to_power(es: EnergySeries) -> PowerSeries:
    """Differentiate meter readings into average power (kWh/h = kW).

    ``power[i] = (e[i+1] - e[i]) / dt`` and is missing iff either bracketing
    reading is missing.
    """
    values = np.diff(es.values)
    values /= resolution_hours(es.resolution)
    values.setflags(write=False)
    return PowerSeries(es.start, es.resolution, values)


def power_to_energy(
    ps: PowerSeries,
    base_energy: float,
    meter_kind: MeterKind = MeterKind.CONSUMPTION,
    monotone_tol: float = 0.0,
) -> EnergySeries:
    """Integrate a complete power series back into meter readings.

    The first reading is ``base_energy``; conversion of a power series with
    missing values is undefined and raises.
    """
    if np.isnan(ps.values).any():
        raise ImputationError("cannot convert a power series with missing values to energy")
    dt = resolution_hours(ps.resolution)
    energies = np.empty(ps.n + 1, dtype=np.float64)
    energies[0] = base_energy
    np.cumsum(ps.values * dt, out=energies[1:])
    energies[1:] += base_energy
    energies.setflags(write=False)
    return EnergySeries(ps.start, ps.resolution, energies, meter_kind, monotone_tol)


def _missing_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and exclusive stops of the maximal runs of NaN in ``values``."""
    miss = np.zeros(values.size + 2, dtype=bool)  # a present value beyond each end
    np.isnan(values, out=miss[1:-1])
    edges = np.flatnonzero(miss[1:] != miss[:-1])
    return edges[0::2], edges[1::2]


@dataclass(frozen=True, eq=False)
class GapArrays:
    """The gaps of an energy series as columns, one entry per gap in order.

    ``first_missing``/``last_missing`` bound each gap's missing power
    values.  ``anchor_before``/``anchor_after`` are the metered readings on
    either side, NaN where a boundary run lacks one, and ``actual_energy``
    is their difference (NaN then too).  ``anchored`` is set where a gap
    has both anchors.  Iterating the table gives its columns in this order.
    """

    first_missing: np.ndarray
    last_missing: np.ndarray
    anchor_before: np.ndarray
    anchor_after: np.ndarray
    actual_energy: np.ndarray
    anchored: np.ndarray

    def __iter__(self):
        return (getattr(self, field.name) for field in fields(self))

    @cached_property
    def records(self) -> tuple[Gap, ...]:
        """Each gap's audit record, in order; built once per table, on first use."""
        floats = (self.anchor_before, self.anchor_after, self.actual_energy)
        floats = ([None if v != v else v for v in column.tolist()] for column in floats)
        return tuple(map(Gap, self.first_missing.tolist(), self.last_missing.tolist(), *floats))


def detect_gaps(es: EnergySeries) -> GapArrays:
    """The table of the maximal runs of missing readings, as power-domain gaps.

    A run of missing readings ``[a, b]`` spans the power indices
    ``[a - 1, b]``; a run at the series start has no left anchor and
    starts at ``a``, and one at the end has no right anchor and stops at
    ``b - 1``.  Gaps are sorted and disjoint, and a present reading
    separates any two.
    """
    run_starts, run_stops = _missing_runs(es.values)
    first = np.maximum(run_starts - 1, 0)
    last = np.minimum(run_stops, es.n - 1) - 1
    has_before, has_after = run_starts > 0, run_stops < es.n
    before = np.where(has_before, es.values[first], np.nan)
    after = np.where(has_after, es.values[last + 1], np.nan)
    return GapArrays(first, last, before, after, after - before, has_before & has_after)


def day_partition(series: Series, power: PowerSeries | None = None) -> DayTable:
    """Split a series into the day table of its power domain.

    The series start must fall on the resolution grid of its calendar day.
    Day d covers power indices ``d * spd - off0`` up to
    ``(d + 1) * spd - off0`` (the ``day_slot`` rule), clipped to the series.
    An energy series is differentiated first, unless the caller passes its
    ``energy_to_power`` as ``power``.
    """
    ps = power
    if ps is None:
        ps = energy_to_power(series) if isinstance(series, EnergySeries) else series
    spd = slots_per_day(ps.resolution)
    off0 = grid_offset(ps.start, ps.resolution)
    m = ps.n
    if m == 0:
        none = np.zeros(0, dtype=np.int64)
        return DayTable(ps.start.date(), none, none, none, np.zeros(0), none == 0)
    miss = np.isnan(ps.values)
    day_count = (off0 + m - 1) // spd + 1
    edges = np.arange(day_count + 1) * spd - off0
    bounds = np.clip(edges, 0, m)
    missing = np.diff(np.concatenate(([0], np.cumsum(miss)))[bounds])

    # Whole days are summed as the rows of one reshape and the partial first
    # and last days alone, so every day's sum is that of its own slice.
    zeroed = np.where(miss, 0.0, ps.values)
    first = int(off0 > 0)
    rows = (m - bounds[first]) // spd
    sums = np.empty(day_count)
    whole = zeroed[bounds[first] : bounds[first] + rows * spd].reshape(rows, spd)
    sums[first : first + rows] = whole.sum(axis=1)
    for d in {0, day_count - 1} - set(range(first, first + rows)):
        sums[d] = zeroed[bounds[d] : bounds[d + 1]].sum()

    # Coverage of the input's own values (readings, for an energy series)
    # decides whether a day counts as full: the last day of a day-aligned
    # series keeps spd readings but only spd-1 power slots, and still qualifies.
    full = np.diff(np.clip(edges, 0, series.n)) == spd
    return DayTable(
        first=ps.start.date(),
        start=bounds[:-1],
        stop=bounds[1:],
        missing=missing,
        known_energy=sums * resolution_hours(ps.resolution),
        full_day=full,
    )


def fill_energy_from_power(
    es: EnergySeries, power_values: np.ndarray, capped: np.ndarray | tuple = ()
) -> EnergySeries:
    """Rebuild a complete energy series from imputed power values.

    Originally present readings are kept bit-for-bit; each missing run is
    cumulated from its left anchor (or backwards from the right anchor for a
    run at the series start).  For a run anchored on both sides the gap's
    last power value is not used: the right anchor stays as metered, so the
    power re-derived from the result carries in that slot whatever the
    imputed power misses of the metered gap energy.  ``capped`` lists the
    first missing reading of runs anchored on both sides whose rebuilt
    readings are capped at the right anchor when the last of them lands
    above it.  The result skips monotonicity re-validation: imputed power
    from non-conserving methods may dip below a prior reading.
    """
    power_values = np.asarray(power_values, dtype=np.float64)
    if power_values.shape != (es.n - 1,):
        raise ValidationError(
            f"expected {es.n - 1} power values, got {power_values.shape}"
        )
    if np.isnan(power_values).any():
        raise ImputationError("power values must be complete to rebuild energy")
    dt = resolution_hours(es.resolution)
    filled = np.array(es.values)
    capped = set(np.asarray(capped, dtype=np.int64).tolist())
    for lo, stop in zip(*(edge.tolist() for edge in _missing_runs(es.values))):
        run = filled[lo:stop]
        if lo > 0:  # base + cumsum(power) * dt, computed in place
            power_values[lo - 1 : stop - 1].cumsum(out=run)
            run *= dt
            run += es.values[lo - 1]
            if lo in capped and run[-1] > es.values[stop]:
                np.minimum(run, es.values[stop], out=run)
        else:
            run[:] = es.values[stop] - np.cumsum(power_values[lo:stop][::-1] * dt)[::-1]
    filled.setflags(write=False)
    return replace(es, values=filled, monotone_tol=float("inf"))


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

_HEADER = ("timestamp", "value")
_NAN_TOKENS = {"nan"}
# The written-form reader walks the text in blocks of about this many
# characters, each cut at a line end, and format_series renders this many
# rows at a time, so that neither holds one Python object per cell of the
# whole file.
_PARSE_BLOCK_CHARS = 1 << 16
_FORMAT_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class ParseConfig:
    """How to interpret a two-column series CSV."""

    kind: str = "energy"  # "energy" or "power"
    meter_kind: MeterKind = MeterKind.CONSUMPTION
    monotone_tol: float = 0.0

    def __post_init__(self):
        if self.kind not in ("energy", "power"):
            raise ValidationError(f"unknown series kind {self.kind!r}")


def _timestamps(start: datetime, resolution: timedelta, n: int) -> Iterator[str]:
    """``(start + i * resolution).isoformat(sep=" ")`` for every i < n, in order.

    The strings are made as they are taken, so a caller that takes a block
    at a time holds one block.  A naive start on the grid of a resolution
    that divides a day is built as (date string) + (time-of-day string),
    with the time-of-day strings made once.  Other series, and those
    shorter than a day's slots, are built row by row; so is a
    timezone-aware start, whose offset suffix may change with the date.
    """
    try:
        spd = slots_per_day(resolution)
        first = grid_offset(start, resolution) if start.tzinfo is None else None
    except ImputationError:
        first = None
    if first is None or spd > n:
        return ((start + i * resolution).isoformat(sep=" ") for i in range(n))
    day0 = start.date()
    dates = ((day0 + timedelta(days=d)).isoformat() + " " for d in itertools.count())
    times = [(datetime.min + k * resolution).time().isoformat() for k in range(spd)]
    return itertools.islice((d + t for d in dates for t in times), first, first + n)


def _blocks(text: str, lo: int) -> Iterator[tuple[int, int]]:
    """(start, end) of the blocks of ``text[lo:]``, each ending after a line end.

    A block reaches to the first line end at least ``_PARSE_BLOCK_CHARS``
    characters past its start, or to the end of the text.
    """
    while lo < len(text):
        hi = text.find("\n", lo + _PARSE_BLOCK_CHARS - 1) + 1 or len(text)
        yield lo, hi
        lo = hi


def _parse_written(text: str) -> tuple[datetime, timedelta, np.ndarray] | None:
    """(start, resolution, values) of text in exactly format_series' form.

    That form is: a ``timestamp,value`` header, ``\\n`` line ends, no quotes,
    one comma per row, the timestamp column equal to ``_timestamps`` of its
    first two rows, and values that ``float`` reads as finite or that are
    empty or ``nan``.  Anything else returns None, so that the row-wise
    reader accepts it or reports its error.  The header, the line ends, the
    quotes and the first, second and last timestamps are checked before any
    block is split, so other ISO-8601 forms (a ``T`` separator, a padded
    first cell, a BOM, CRLF, quoting) and a year with a shifted last row are
    turned away before any per-row work.
    """
    header = ",".join(_HEADER) + "\n"
    if not text.startswith(header) or not text.endswith("\n") or '"' in text or "\r" in text:
        return None
    comma = text.find(",", len(header))
    first = text[len(header) : comma] if comma > 0 else ""
    try:
        start = datetime.fromisoformat(first)
    except ValueError:
        return None
    if first != start.isoformat(sep=" "):
        return None
    rows = text.count("\n") - 1
    if rows < 2:
        return None
    second = text.find("\n", len(header)) + 1
    second_stamp = text[second : text.find("\n", second)].split(",")[0]
    last_stamp = text[text.rfind("\n", 0, -1) + 1 : -1].split(",")[0]
    try:
        resolution = datetime.fromisoformat(second_stamp) - start
        if last_stamp != (start + (rows - 1) * resolution).isoformat(sep=" "):
            return None
    except (ValueError, TypeError, OverflowError):
        return None
    if resolution <= timedelta(0):
        return None
    values = np.empty(rows)
    column = _timestamps(start, resolution, rows)
    i0 = 0
    for lo, hi in _blocks(text, len(header)):
        # Each line end becomes ",\n": one split gives every cell, and a
        # cell that opens a row starts with "\n".  Two cells per row is one
        # comma per row on average.  The timestamp cells join to the
        # expected column joined by line ends only if each holds the line
        # end before it, so then every row of the block has exactly one comma.
        block = text[lo : hi - 1]
        k = block.count("\n") + 1
        cells = block.replace("\n", ",\n").split(",")
        if len(cells) != 2 * k:
            return None
        stamps, fields = cells[0::2], cells[1::2]
        out = values[i0 : i0 + k]
        try:
            if "".join(stamps) != "\n".join(itertools.islice(column, k)):
                return None
            out[:] = [float(f) if f else math.nan for f in fields]
        except (ValueError, TypeError, OverflowError):
            return None
        bad = np.flatnonzero(~np.isfinite(out))
        if any(fields[i] and fields[i].lower() not in _NAN_TOKENS for i in bad):
            return None
        i0 += k
    return start, resolution, values


def parse_series(text: str, config: ParseConfig = ParseConfig()) -> Series:
    """Parse a ``timestamp,value`` CSV into a series.

    Timestamps must be ISO-8601 and equally spaced, and carry one UTC
    offset or none; the resolution is inferred from the first two rows and
    enforced globally.  Missing values are encoded as an empty field or the
    literal ``NaN``.  Row numbers in error messages count data rows from 1
    (header excluded).  Text in exactly the form ``format_series`` writes
    is read a block of columns at a time; any other text goes through a
    row-wise ``csv`` reader, which gives the same series or reports the
    first bad row.
    """
    written = _parse_written(text)
    if written is not None:
        return _build_series(*written, config)
    rows = []
    try:
        for row in csv.reader(io.StringIO(text)):
            if row and any(cell.strip() for cell in row):
                rows.append(row)
    except csv.Error as exc:
        where = f"row {len(rows)}" if rows else "the header"
        raise ParseError(f"unreadable CSV at {where}: {exc}") from None
    if not rows:
        raise ParseError("empty file: no header row")
    header = tuple(cell.strip().lstrip("﻿").lower() for cell in rows[0])
    if header != _HEADER:
        raise ParseError(f'expected header "timestamp,value", got {",".join(rows[0])!r}')
    data = rows[1:]
    if not data:
        raise ParseError("empty file: no data rows")
    if len(data) < 2:
        raise ParseError("need at least two rows to infer the resolution")

    timestamps: list[datetime] = []
    values = np.empty(len(data), dtype=np.float64)
    for i, row in enumerate(data, start=1):
        if len(row) != 2:
            raise ParseError(f"expected 2 columns at row {i}, got {len(row)}")
        ts_text, value_text = row[0].strip(), row[1].strip()
        try:
            timestamps.append(datetime.fromisoformat(ts_text))
        except ValueError:
            raise ParseError(f"invalid timestamp at row {i}: {ts_text!r}") from None
        if value_text == "" or value_text.lower() in _NAN_TOKENS:
            values[i - 1] = np.nan
        else:
            try:
                values[i - 1] = float(value_text)
            except ValueError:
                raise ParseError(f"non-numeric value at row {i}: {value_text!r}") from None
            if not math.isfinite(values[i - 1]):
                raise ParseError(f"non-finite value at row {i}: {value_text!r}")

    try:
        resolution = timestamps[1] - timestamps[0]
    except TypeError:
        raise ParseError("mixed naive and timezone-aware timestamps at row 2") from None
    if resolution <= timedelta(0):
        raise ParseError("non-increasing timestamps at row 2")
    offset = timestamps[0].utcoffset()
    for i, ts in enumerate(timestamps):
        if (ts.utcoffset() is None) != (offset is None):
            raise ParseError(f"mixed naive and timezone-aware timestamps at row {i + 1}")
        try:
            expected = timestamps[0] + i * resolution
        except OverflowError:
            expected = "a timestamp after year 9999"
        if ts != expected:
            raise ParseError(
                f"irregular spacing at row {i + 1}: expected {expected}, got {ts}"
            )
        if ts.utcoffset() != offset:
            raise ParseError(
                f"UTC offset changes at row {i + 1}: {ts.tzname()} after "
                f"{timestamps[0].tzname()} at row 1; a file must keep one offset"
            )
    return _build_series(timestamps[0], resolution, values, config)


def _build_series(
    start: datetime, resolution: timedelta, values: np.ndarray, config: ParseConfig
) -> Series:
    values.setflags(write=False)
    if config.kind == "power":
        return PowerSeries(start, resolution, values)
    return EnergySeries(start, resolution, values, config.meter_kind, config.monotone_tol)


def format_series(series: Series, file: TextIO | None = None) -> str | None:
    """Render a series as a ``timestamp,value`` CSV re-ingestible by parse_series.

    Each block of rows is one ``%``-format, with an empty field for each NaN.
    Without ``file`` the blocks are joined and returned.  Given an open text
    file, each block is written to it as soon as it is made and None is
    returned, so that only one block of the text is held at a time.
    """
    blocks = []
    write = blocks.append if file is None else file.write
    write("timestamp,value\n")
    column = _timestamps(series.start, series.resolution, series.n)
    for i0 in range(0, series.n, _FORMAT_BLOCK_ROWS):
        block = series.values[i0 : i0 + _FORMAT_BLOCK_ROWS].tolist()
        cells = [None] * (2 * len(block))
        cells[0::2] = itertools.islice(column, len(block))
        cells[1::2] = ["" if v != v else repr(v) for v in block]
        write("%s,%s\n" * len(block) % tuple(cells))
    return "".join(blocks) if file is None else None


def _read_text(path, error: type[Exception] = ParseError) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 raises ``error`` naming its offset."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise error(
                f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                f"at offset {exc.start}"
            ) from None


def read_series(path, config: ParseConfig = ParseConfig()) -> Series:
    """``parse_series`` of a UTF-8 file, read with universal newlines (CRLF becomes ``\\n``)."""
    return parse_series(_read_text(path), config)


def write_series(path, series: Series) -> None:
    """Write ``format_series``' text to ``path`` (UTF-8) one block at a time."""
    with open(path, "w", encoding="utf-8") as f:
        format_series(series, f)
