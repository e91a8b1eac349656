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
from typing import Union

import numpy as np

from .errors import ImputationError, ParseError, ValidationError

_MICROSECOND = timedelta(microseconds=1)
_DAY_US = 86_400_000_000


class MeterKind(str, Enum):
    CONSUMPTION = "consumption"
    GENERATION = "generation"


def _as_values(values) -> np.ndarray:
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
    present readings, up to ``monotone_tol`` (kWh).  Generation meters skip
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

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)


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

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)


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


@dataclass(frozen=True)
class DayView:
    """One calendar day's view over the power domain of a series."""

    date: date
    start: int              # first power index of the day
    stop: int               # one past the last power index
    first_slot: int         # within-day slot of `start`
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
    dt = resolution_hours(es.resolution)
    values = np.diff(es.values) / dt
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
    return EnergySeries(
        start=ps.start,
        resolution=ps.resolution,
        values=energies,
        meter_kind=meter_kind,
        monotone_tol=monotone_tol,
    )


def detect_gaps(es: EnergySeries) -> list[Gap]:
    """Locate maximal runs of missing readings as power-domain gaps.

    Gaps are disjoint, sorted, and never adjacent.  Runs touching the series
    boundary yield unanchored gaps without an ``actual_energy``.
    """
    miss = np.isnan(es.values)
    if not miss.any():
        return []
    edges = np.diff(np.concatenate(([0], miss.view(np.int8), [0])))
    run_starts = np.flatnonzero(edges == 1)
    run_stops = np.flatnonzero(edges == -1)  # exclusive
    n = es.n
    gaps = []
    for a, b in zip(run_starts.tolist(), (run_stops - 1).tolist()):
        anchored_left = a > 0
        anchored_right = b < n - 1
        first = a - 1 if anchored_left else a
        last = b if anchored_right else b - 1
        before = float(es.values[a - 1]) if anchored_left else None
        after = float(es.values[b + 1]) if anchored_right else None
        energy = after - before if (before is not None and after is not None) else None
        gaps.append(Gap(first, last, before, after, energy))
    return gaps


def _power_view(series: Series) -> PowerSeries:
    return energy_to_power(series) if isinstance(series, EnergySeries) else series


def day_partition(series: Series) -> list[DayView]:
    """Split a series into per-day views over the power domain.

    The series start must fall on the resolution grid of its calendar day.
    ``known_energy`` sums the day's present power values times the
    resolution in hours; ``missing`` counts absent power values.
    """
    ps = _power_view(series)
    spd = slots_per_day(ps.resolution)
    off0 = grid_offset(ps.start, ps.resolution)
    m = ps.n
    if m == 0:
        return []
    dt = resolution_hours(ps.resolution)
    miss = np.isnan(ps.values)
    date0 = ps.start.date()

    # Energy-domain coverage decides whether a day counts as full: the last
    # day of a day-aligned series keeps spd readings but only spd-1 power
    # slots, and still qualifies.
    n_energy = m + 1 if isinstance(series, EnergySeries) else m
    views = []
    day_count = (off0 + m - 1) // spd + 1
    for d in range(day_count):
        start_i = max(d * spd - off0, 0)
        stop_i = min((d + 1) * spd - off0, m)
        seg = ps.values[start_i:stop_i]
        n_missing = int(miss[start_i:stop_i].sum())
        known = float(np.nansum(seg) * dt) if stop_i > start_i else 0.0
        e_lo = max(d * spd - off0, 0)
        e_hi = min((d + 1) * spd - off0, n_energy)
        views.append(
            DayView(
                date=date0 + timedelta(days=d),
                start=int(start_i),
                stop=int(stop_i),
                first_slot=int(off0 + start_i - d * spd),
                missing=n_missing,
                known_energy=known,
                covers_full_day=(e_hi - e_lo) == spd,
            )
        )
    return views


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
    for gap in detect_gaps(es):
        lo, hi = gap.energy_first, gap.energy_last
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


def parse_series(text: str, config: ParseConfig = ParseConfig()) -> Series:
    """Parse a ``timestamp,value`` CSV into a series.

    Timestamps must be ISO-8601 and equally spaced; the resolution is
    inferred from the first two rows and enforced globally.  Missing values
    are encoded as an empty field or the literal ``NaN``.  Row numbers in
    error messages count data rows from 1 (header excluded).
    """
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

    resolution = timestamps[1] - timestamps[0]
    if resolution <= timedelta(0):
        raise ParseError("non-increasing timestamps at row 2")
    for i, ts in enumerate(timestamps):
        expected = timestamps[0] + i * resolution
        if ts != expected:
            raise ParseError(
                f"irregular spacing at row {i + 1}: expected {expected}, got {ts}"
            )

    if config.kind == "power":
        return PowerSeries(start=timestamps[0], resolution=resolution, values=values)
    return EnergySeries(
        start=timestamps[0],
        resolution=resolution,
        values=values,
        meter_kind=config.meter_kind,
        monotone_tol=config.monotone_tol,
    )


def format_series(series: Series) -> str:
    """Render a series as a ``timestamp,value`` CSV re-ingestible by parse_series."""
    out = io.StringIO()
    out.write("timestamp,value\n")
    for i, v in enumerate(series.values):
        stamp = series.timestamp(i).isoformat(sep=" ")
        out.write(f"{stamp},{'' if math.isnan(v) else repr(float(v))}\n")
    return out.getvalue()


def read_series(path, config: ParseConfig = ParseConfig()) -> Series:
    with open(path, "r", encoding="utf-8") as f:
        return parse_series(f.read(), config)


def write_series(path, series: Series) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_series(series))
