"""Tests for the synthetic load profiles."""

import hashlib
from datetime import datetime

import numpy as np
import pytest

from meterfill import energy_to_power, synthetic_series


@pytest.mark.parametrize(
    "start", [datetime(2020, 2, 20, 7), datetime(2020, 2, 22)], ids=["thursday-0700", "saturday"]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_profile_follows_the_calendar_of_its_start(seed, start):
    ps = energy_to_power(synthetic_series(seed, days=364, slots_per_day=24, start=start))
    stamps = [ps.timestamp(i) for i in range(ps.n)]
    weekday = np.array([t.weekday() for t in stamps])
    hour = np.array([t.hour for t in stamps])
    by_weekday = [ps.values[weekday == w].mean() for w in range(7)]
    assert sorted(np.argsort(by_weekday)[:2].tolist()) == [5, 6]  # Saturday and Sunday
    peak = int(np.argmax([ps.values[hour == h].mean() for h in range(24)]))
    assert 7 <= peak <= 10 or 17 <= peak <= 21


@pytest.mark.parametrize(
    ("seed", "days", "digest"),
    [
        (1, 365, "73bb7432aaa881ebfacc33bbdb5384d93c1327bd8c2975e34a0faddc114de0c7"),
        (9, 1461, "b5961a054ca69ef0fe4efc770170595407581dbb9e2bfe7d72ba31c5c6abdcd7"),
    ],
    ids=["one-year", "four-years"],
)
def test_the_default_start_keeps_its_series(seed, days, digest):
    es = synthetic_series(seed, days=days)
    assert (es.start, es.n) == (datetime(2018, 1, 1), days * 96)
    assert hashlib.sha256(es.values.tobytes()).hexdigest() == digest
