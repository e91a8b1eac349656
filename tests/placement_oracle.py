"""Reference gap placement that rescans the whole series for every removal.

The package places removals over a list of free runs
(``meterfill.gapgen._place``).  This version recomputes every valid start
from a cumulative sum of the removed readings before each gap, and keeps a
``placeable`` flag per reading for the singles.  It makes the same draws, so
the tests require identical masks, generator states and errors.
"""

import numpy as np

from meterfill import InfeasibleSpecError


def valid_gap_starts(removed: np.ndarray, length: int) -> np.ndarray:
    """Start indices where a gap of `length` fits without touching anything."""
    n = removed.size
    window = np.concatenate(([0], np.cumsum(removed.view(np.int8))))
    starts = np.arange(1, n - length)
    if starts.size == 0:
        return starts
    occupied = window[starts + length + 1] - window[starts - 1]
    return starts[occupied == 0]


def place(rng: np.random.Generator, n: int, lengths: list[int], n_singles: int) -> np.ndarray:
    removed = np.zeros(n, dtype=bool)
    for length in lengths:
        starts = valid_gap_starts(removed, length)
        if starts.size == 0:
            raise InfeasibleSpecError("no room left for a gap")
        start = int(starts[rng.integers(starts.size)])
        removed[start : start + length] = True

    # Singles need both neighbours present, including against earlier removals.
    placeable = np.zeros(n, dtype=bool)
    placeable[1 : n - 1] = ~removed[:-2] & ~removed[1:-1] & ~removed[2:]
    for _ in range(n_singles):
        options = np.flatnonzero(placeable)
        if options.size == 0:
            raise InfeasibleSpecError("no room left for a single missing value")
        pick = int(options[rng.integers(options.size)])
        removed[pick] = True
        placeable[max(pick - 2, 0) : pick + 3] = False
    return removed
