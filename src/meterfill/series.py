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
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from enum import Enum
from typing import NamedTuple, Union

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
    before wrapping it.  Anything else (a writeable array, a view, a list,
    another dtype) is copied, so that a later write to the argument never
    reaches the series.
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


@dataclass(frozen=True, eq=False)
class EnergySeries:
    """Equally spaced cumulative meter readings, NaN = missing.

    Consumption series are validated to be monotone non-decreasing across
    present readings, up to ``monotone_tol`` (kWh), which must not be
    negative or NaN; ``inf`` turns the check off.  Generation meters skip
    the monotonicity check.
    """

    start: datetime
    resolution: timedelta
    values: np.ndarray
    meter_kind: MeterKind = MeterKind.CONSUMPTION
    monotone_tol: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values))
        if self.resolution <= timedelta(0):
            raise ValidationError("resolution must be positive")
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

    @property
    def n(self) -> int:
        return int(self.values.size)

    def timestamp(self, index: int) -> datetime:
        return self.start + index * self.resolution


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Equally spaced average-power values (kW), NaN = missing."""

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


Series = Union[EnergySeries, PowerSeries]


@dataclass(frozen=True)
class Gap:
    """A maximal run of missing power values with its energy anchors.

    ``first_missing``/``last_missing`` index the power array.  For a run of
    missing energy readings at indices ``[a, b]`` the power span is
    ``[a - 1, b]`` when interior; a run touching the series start or end
    loses the corresponding anchor and one power index.  ``actual_energy``
    is ``anchor_after - anchor_before`` and is absent for unanchored gaps.
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

    @property
    def energy_first(self) -> int:
        """Index of the first missing energy reading."""
        return self.first_missing + 1 if self.anchor_before is not None else self.first_missing

    @property
    def energy_last(self) -> int:
        """Index of the last missing energy reading."""
        return self.last_missing if self.anchor_after is not None else self.last_missing + 1


@dataclass(frozen=True, eq=False)
class DayTable:
    """The calendar days of a series' power domain as columns, one row per day.

    Row d is the date ``first + d days``; its ordinal, ISO weekday and day of
    year are derived from ``first`` by arithmetic.  ``start``/``stop`` bound
    the day's power indices, ``first_slot`` is the within-day slot of
    ``start``, ``missing`` counts absent power values, ``known_energy`` is
    resolution-hours times the sum of the present ones (kWh), and
    ``full_day`` is set where the series spans every reading of the day.
    ``total`` is the day's energy for matching, filled in by the planner
    (NaN where a day has none), and None before that.
    """

    first: date
    start: np.ndarray
    stop: np.ndarray
    first_slot: np.ndarray
    missing: np.ndarray
    known_energy: np.ndarray
    full_day: np.ndarray
    total: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.start.size)

    @property
    def slots(self) -> np.ndarray:
        return self.stop - self.start

    @property
    def ordinal(self) -> np.ndarray:
        """``date.toordinal()`` of each day."""
        return self.first.toordinal() + np.arange(len(self))

    @property
    def weekday(self) -> np.ndarray:
        """ISO weekday of each day, 1 = Monday .. 7 = Sunday."""
        return (self.first.isoweekday() - 1 + np.arange(len(self))) % 7 + 1

    @property
    def day_of_year(self) -> np.ndarray:
        """Day of year of each day, 1 .. 366."""
        ordinal = self.ordinal
        last = self.first + timedelta(days=len(self) - 1)
        jan1 = np.array([date(y, 1, 1).toordinal() for y in range(self.first.year, last.year + 1)])
        return ordinal - jan1[np.searchsorted(jan1, ordinal, side="right") - 1] + 1


def resolution_hours(resolution: timedelta) -> float:
    return resolution.total_seconds() / 3600.0


def grid_offset(start: datetime, resolution: timedelta) -> int:
    """Resolution steps between the start's midnight and the start itself.

    Day-based operations need the series start to sit on the resolution grid
    of its own day; a misaligned start raises.
    """
    offset = start - datetime.combine(start.date(), datetime.min.time())
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
    return PowerSeries(start=es.start, resolution=es.resolution, values=values)


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
    return EnergySeries(
        start=ps.start,
        resolution=ps.resolution,
        values=energies,
        meter_kind=meter_kind,
        monotone_tol=monotone_tol,
    )


def _missing_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and exclusive stops of the maximal runs of NaN in ``values``."""
    edges = np.flatnonzero(np.diff(np.isnan(values), prepend=False, append=False))
    return edges[0::2], edges[1::2]


class GapArrays(NamedTuple):
    """The gaps of an energy series as columns, one entry per gap in order.

    Each column is the ``Gap`` field of the same name; an anchor that a
    boundary run lacks is NaN, and so is that gap's ``actual_energy``.
    """

    first_missing: np.ndarray
    last_missing: np.ndarray
    anchor_before: np.ndarray
    anchor_after: np.ndarray
    actual_energy: np.ndarray


def gap_arrays(es: EnergySeries) -> GapArrays:
    """Power spans and energy anchors of the maximal runs of missing readings.

    A run of missing readings ``[a, b]`` spans the power indices
    ``[a - 1, b]``; a run at the series start has no left anchor and
    starts at ``a``, and one at the end has no right anchor and stops at
    ``b - 1``.
    """
    run_starts, run_stops = _missing_runs(es.values)
    first = np.maximum(run_starts - 1, 0)
    last = np.minimum(run_stops, es.n - 1) - 1
    before = np.where(run_starts > 0, es.values[first], np.nan)
    after = np.where(run_stops < es.n, es.values[last + 1], np.nan)
    return GapArrays(first, last, before, after, after - before)


def detect_gaps(es: EnergySeries) -> list[Gap]:
    """Locate maximal runs of missing readings as power-domain gaps.

    Gaps are disjoint, sorted, and never adjacent.  Runs touching the series
    boundary yield unanchored gaps without an ``actual_energy``.
    """
    first, last, *floats = (column.tolist() for column in gap_arrays(es))
    # A missing anchor, and the energy of its gap, is None in a Gap.
    floats = ([None if v != v else v for v in column] for column in floats)
    return list(map(Gap, first, last, *floats))


def day_partition(series: Series) -> DayTable:
    """Split a series into the day table of its power domain.

    The series start must fall on the resolution grid of its calendar day.
    Day d covers power indices ``d * spd - off0`` up to
    ``(d + 1) * spd - off0`` (the ``day_slot`` rule), clipped to the series.
    """
    ps = energy_to_power(series) if isinstance(series, EnergySeries) else series
    spd = slots_per_day(ps.resolution)
    off0 = grid_offset(ps.start, ps.resolution)
    m = ps.n
    if m == 0:
        none = np.zeros(0, dtype=np.int64)
        return DayTable(ps.start.date(), none, none, none, none, np.zeros(0), none == 0)
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
        first_slot=bounds[:-1] - edges[:-1],
        missing=missing,
        known_energy=sums * resolution_hours(ps.resolution),
        full_day=full,
    )


def fill_energy_from_power(es: EnergySeries, power_values: np.ndarray) -> EnergySeries:
    """Rebuild a complete energy series from imputed power values.

    Originally present readings are kept bit-for-bit; each missing run is
    cumulated from its left anchor (or backwards from the right anchor for a
    run at the series start).  For a run anchored on both sides the gap's
    last power value is not used: the right anchor stays as metered, so the
    power re-derived from the result carries in that slot whatever the
    imputed power misses of the metered gap energy.  The result skips
    monotonicity re-validation: imputed power from non-conserving methods
    may dip below a prior reading.
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
    for lo, stop in zip(*(edge.tolist() for edge in _missing_runs(es.values))):
        run = filled[lo:stop]
        if lo > 0:  # base + cumsum(power) * dt, computed in place
            power_values[lo - 1 : stop - 1].cumsum(out=run)
            run *= dt
            run += es.values[lo - 1]
        else:
            run[:] = es.values[stop] - np.cumsum(power_values[lo:stop][::-1] * dt)[::-1]
    filled.setflags(write=False)
    return EnergySeries(
        start=es.start,
        resolution=es.resolution,
        values=filled,
        meter_kind=es.meter_kind,
        monotone_tol=float("inf"),
    )


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

_HEADER = ("timestamp", "value")
_NAN_TOKENS = {"nan"}


@dataclass(frozen=True)
class ParseConfig:
    """How to interpret a two-column series CSV."""

    kind: str = "energy"  # "energy" or "power"
    meter_kind: MeterKind = MeterKind.CONSUMPTION
    monotone_tol: float = 0.0

    def __post_init__(self):
        if self.kind not in ("energy", "power"):
            raise ValidationError(f"unknown series kind {self.kind!r}")


def _timestamps(start: datetime, resolution: timedelta, n: int) -> list[str]:
    """``(start + i * resolution).isoformat(sep=" ")`` for every i < n.

    A naive start on the grid of a resolution that divides a day is built
    as (date string) + (time-of-day string) over whole days.  Other series,
    and those shorter than a day's slots, are built row by row; so is a
    timezone-aware start, whose offset suffix may change with the date.
    """
    try:
        spd = slots_per_day(resolution)
        first = grid_offset(start, resolution) if start.tzinfo is None else None
    except ImputationError:
        first = None
    if first is None or spd > n:
        return [(start + i * resolution).isoformat(sep=" ") for i in range(n)]
    day0 = start.date()
    days = (first + n - 1) // spd + 1
    dates = [(day0 + timedelta(days=d)).isoformat() + " " for d in range(days)]
    times = [(datetime.min + k * resolution).time().isoformat() for k in range(spd)]
    return [d + t for d in dates for t in times][first : first + n]


def _parse_written(text: str) -> tuple[datetime, timedelta, np.ndarray] | None:
    """(start, resolution, values) of text in exactly format_series' form.

    That form is: a ``timestamp,value`` header, ``\\n`` line ends, no quotes,
    one comma per row, the timestamp column equal to ``_timestamps`` of its
    first two rows, and values that ``float`` reads as finite or that are
    empty or ``nan``.  Anything else returns None, so that the row-wise
    reader accepts it or reports its error.  The header, the line ends, the
    quotes and the first timestamp are checked before the text is split, so
    other ISO-8601 forms (a ``T`` separator, a padded first cell, a BOM, CRLF, quoting)
    are turned away before any per-row work.
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
    # Each line end becomes ",\n": one split gives every cell, and a cell
    # that opens a row starts with "\n".  Two cells per row is one comma per
    # row on average.  The timestamp cells join to the expected column
    # joined by line ends only if each holds the line end before it, so
    # then every row has exactly one comma.
    body = text[len(header) : -1]
    rows = body.count("\n") + 1
    cells = body.replace("\n", ",\n").split(",")
    if rows < 2 or len(cells) != 2 * rows:
        return None
    stamps, fields = cells[0::2], cells[1::2]
    try:
        resolution = datetime.fromisoformat(stamps[1][1:]) - start
        if (
            resolution <= timedelta(0)
            or stamps[-1] != "\n" + (start + (rows - 1) * resolution).isoformat(sep=" ")
            or "".join(stamps) != "\n".join(_timestamps(start, resolution, rows))
        ):
            return None
        values = np.array([float(f) if f else math.nan for f in fields])
    except (ValueError, TypeError, OverflowError):
        return None
    bad = np.flatnonzero(~np.isfinite(values))
    if any(fields[i] and fields[i].lower() not in _NAN_TOKENS for i in bad):
        return None
    return start, resolution, values


def parse_series(text: str, config: ParseConfig = ParseConfig()) -> Series:
    """Parse a ``timestamp,value`` CSV into a series.

    Timestamps must be ISO-8601 and equally spaced; the resolution is
    inferred from the first two rows and enforced globally.  Missing values
    are encoded as an empty field or the literal ``NaN``.  Row numbers in
    error messages count data rows from 1 (header excluded).  Text in
    exactly the form ``format_series`` writes is read a column at a time;
    any other text goes through a row-wise ``csv`` reader, which gives the
    same series or reports the first bad row.
    """
    written = _parse_written(text)
    if written is not None:
        return _build_series(*written, config)
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
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
    for i, ts in enumerate(timestamps):
        try:
            expected = timestamps[0] + i * resolution
        except OverflowError:
            expected = "a timestamp after year 9999"
        if ts != expected:
            raise ParseError(
                f"irregular spacing at row {i + 1}: expected {expected}, got {ts}"
            )
    return _build_series(timestamps[0], resolution, values, config)


def _build_series(
    start: datetime, resolution: timedelta, values: np.ndarray, config: ParseConfig
) -> Series:
    values.setflags(write=False)
    if config.kind == "power":
        return PowerSeries(start=start, resolution=resolution, values=values)
    return EnergySeries(
        start=start,
        resolution=resolution,
        values=values,
        meter_kind=config.meter_kind,
        monotone_tol=config.monotone_tol,
    )


def format_series(series: Series) -> str:
    """Render a series as a ``timestamp,value`` CSV re-ingestible by parse_series."""
    stamps = _timestamps(series.start, series.resolution, series.n)
    values = ["" if math.isnan(v) else repr(v) for v in series.values.tolist()]
    return "timestamp,value\n" + "".join([f"{s},{v}\n" for s, v in zip(stamps, values)])


def read_series(path, config: ParseConfig = ParseConfig()) -> Series:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                f"at offset {exc.start}"
            ) from None
    return parse_series(text, config)


def write_series(path, series: Series) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_series(series))
