"""Synthetic smart-meter load profiles for tests and benchmark runs.

Each profile combines a two-peak daily shape (weekends differ from
workdays), a yearly sinusoidal modulation, a slowly drifting day-level
factor, and multiplicative noise.  The clock time, the weekday and the day
of year follow the calendar of the start, whatever its hour.  Profiles are
strictly positive, so the accumulated energy series is strictly increasing.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from .errors import ValidationError
from .series import EnergySeries, resolution_hours

DEFAULT_START = datetime(2018, 1, 1)  # a Monday, non-leap year


def synthetic_series(
    seed: int,
    days: int = 365,
    slots_per_day: int = 96,
    start: datetime = DEFAULT_START,
) -> EnergySeries:
    """Generate a complete one-meter energy series (``days * slots_per_day`` readings)."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    spd = slots_per_day
    n = days * spd
    m = n - 1  # power values between consecutive readings
    resolution = timedelta(seconds=86400 // spd)

    first = (start - start.replace(hour=0, minute=0, second=0, microsecond=0)) // resolution
    day, tod = np.divmod(first + np.arange(m), spd)  # days since the start's date, and slot
    tod = tod / spd  # drops the int slots, so no extra (m,) array stays alive
    weekday = (start.weekday() + day) % 7  # 0 = Monday
    doy = (start.timetuple().tm_yday - 1 + day) % 365
    touched = (first + n - 1) // spd + 1  # the days the readings reach

    scale = rng.uniform(4.0, 40.0)
    base = rng.uniform(0.15, 0.35)
    morning_amp = rng.uniform(0.5, 1.2)
    evening_amp = rng.uniform(0.8, 1.8)
    morning_mu = rng.uniform(0.30, 0.38)
    evening_mu = rng.uniform(0.74, 0.84)
    width = rng.uniform(0.045, 0.08)

    def bumps(mu_shift: float, amp_factor: float) -> np.ndarray:
        morning = morning_amp * amp_factor * np.exp(
            -0.5 * ((tod - morning_mu - mu_shift) / width) ** 2
        )
        evening = evening_amp * np.exp(-0.5 * ((tod - evening_mu) / width) ** 2)
        return base + morning + evening

    weekend_shift = rng.uniform(0.05, 0.12)
    weekend_level = rng.uniform(0.55, 0.95)
    shape = np.where(weekday < 5, bumps(0.0, 1.0), weekend_level * bumps(weekend_shift, 0.7))

    yearly_amp = rng.uniform(0.25, 0.45)
    yearly_phase = rng.uniform(0.0, 365.0)
    yearly = 1.0 + yearly_amp * np.cos(2 * np.pi * (doy - yearly_phase) / 365.0)

    # Persistent day-to-day drift so similar-energy days carry similar shapes.
    steps = rng.normal(0.0, 0.12, size=touched)
    drift = np.empty(touched)
    drift[0] = steps[0]
    for d in range(1, touched):
        drift[d] = 0.75 * drift[d - 1] + steps[d]
    day_factor = np.exp(drift - drift.var() / 2.0)

    noise = np.exp(rng.normal(0.0, 0.05, size=m))
    power = scale * shape * yearly * day_factor[day] * noise
    power = np.clip(power, 0.01, None)

    energy = np.empty(n)
    energy[0] = rng.uniform(0.0, 1000.0)
    energy[1:] = energy[0] + np.cumsum(power) * resolution_hours(resolution)
    energy.setflags(write=False)
    return EnergySeries(start, resolution, energy)


def synthetic_suite(count: int, base_seed: int = 0, **kwargs) -> list[tuple[str, EnergySeries]]:
    """A reproducible family of differently shaped synthetic series."""
    if count < 0:
        raise ValidationError(f"series count must be non-negative, got {count}")
    return [
        (f"synth-{base_seed + i:03d}", synthetic_series(base_seed + i, **kwargs))
        for i in range(count)
    ]
