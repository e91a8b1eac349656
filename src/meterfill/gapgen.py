"""Artificial missing-value insertion for benchmark runs.

Removals are split into isolated single readings and multi-value gaps with
uniformly drawn lengths.  Placement keeps every removal run non-adjacent to
any other and preserves the first and last readings, so every synthetic gap
stays anchored.

Placement keeps the free runs of readings in order.  A removal of length L
fits a run ``[lo, hi]`` at any start in ``[lo+1, hi-L]``, and one draw over
the count of all fits picks the k-th fit across the runs, so each removal
costs time in the number of runs, not in the series length.  A gap at s
splits its run into ``[lo, s-1]`` and ``[s+L, hi]``; a single at p splits it
into ``[lo, p-2]`` and ``[p+2, hi]``, so two singles are never two readings
apart.  Gaps are placed first, in drawn order, then the singles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpecError, ValidationError
from .series import EnergySeries, slots_per_day

DEFAULT_MAX_GAP_DAYS = 3
PLACEMENT_ATTEMPTS = 20


@dataclass(frozen=True)
class MissingnessSpec:
    """How much to remove and in what shape.

    ``share`` is the fraction of readings to remove, ``single_fraction`` the
    fraction of removals that must be isolated singles.  ``max_gap_len`` is
    in readings; None means three days' worth at the series resolution.
    """

    share: float
    max_gap_len: int | None = None
    single_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.share < 1.0:
            raise ValidationError(f"share must be in (0, 1), got {self.share}")
        if self.max_gap_len is not None and self.max_gap_len < 2:
            raise ValidationError(f"max_gap_len must be at least 2, got {self.max_gap_len}")
        if not 0.0 <= self.single_fraction <= 1.0:
            raise ValidationError(
                f"single_fraction must be in [0, 1], got {self.single_fraction}"
            )


@dataclass(frozen=True)
class MissingMask:
    """Sorted removed reading indices plus the subset that are isolated."""

    indices: np.ndarray
    singles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "singles", np.asarray(self.singles, dtype=np.int64))


def _draw_gap_lengths(rng: np.random.Generator, budget: int, max_len: int) -> list[int]:
    """Uniform lengths in [2, max_len] consuming the budget, tail truncated.

    The tail is nudged so a remainder of one reading never occurs; with
    max_len == 2 an odd budget is unservable.
    """
    lengths = []
    remaining = budget
    while remaining >= 2:
        length = int(rng.integers(2, max_len + 1))
        length = min(length, remaining)
        if remaining - length == 1:
            if length > 2:
                length -= 1
            elif length + 1 <= min(max_len, remaining):
                length += 1
            else:
                raise InfeasibleSpecError(
                    "cannot tile an odd removal budget with gaps of length 2; "
                    "use a larger max_gap_len or a different share"
                )
        lengths.append(length)
        remaining -= length
    if remaining == 1:
        lengths.append(1)  # degenerate budget: one extra isolated removal
    return lengths


def _place(rng: np.random.Generator, n: int, lengths: list[int], n_singles: int) -> np.ndarray:
    # Free runs [lo, hi] in order, one row each (the rule is in the module docstring).
    runs = np.zeros((1 + len(lengths), 2), dtype=np.int64)
    runs[0, 1], count = n - 1, 1
    removed = np.zeros(n, dtype=bool)
    for length in lengths:
        fits = np.maximum(runs[:count, 1] - runs[:count, 0] - length, 0)
        ends = np.cumsum(fits)
        if ends[-1] == 0:
            raise InfeasibleSpecError("no room left for a gap")
        k = int(rng.integers(int(ends[-1])))
        run = int(np.searchsorted(ends, k, side="right"))
        start = int(runs[run, 0]) + 1 + k - int(ends[run] - fits[run])
        removed[start : start + length] = True
        runs[run + 2 : count + 1] = runs[run + 1 : count]
        runs[run + 1] = (start + length, runs[run, 1])
        runs[run, 1] = start - 1
        count += 1

    # Singles draw over a running prefix sum of the runs' fits: ``ends[r]``
    # counts the fits before run r, and the slots past the last run hold a
    # sentinel above any draw.  A split replaces one fit by two and shifts
    # every later sum by the difference, in one slice.
    lo, hi = runs[:count, 0].tolist(), runs[:count, 1].tolist()
    ends = np.full(count + n_singles + 1, np.iinfo(np.int64).max)
    ends[0] = 0
    np.cumsum(np.maximum(runs[:count, 1] - runs[:count, 0] - 1, 0), out=ends[1 : count + 1])
    for _ in range(n_singles):
        total = int(ends[count])
        if total == 0:
            raise InfeasibleSpecError("no room left for a single missing value")
        k = int(rng.integers(total))
        run = int(ends.searchsorted(k, side="right")) - 1
        before = int(ends[run])
        single = lo[run] + 1 + k - before
        removed[single] = True
        hi.insert(run, single - 2)
        lo.insert(run + 1, single + 2)
        left = before + max(hi[run] - lo[run] - 1, 0)
        after = left + max(hi[run + 1] - lo[run + 1] - 1, 0)
        ends[run + 3 : count + 2] = ends[run + 2 : count + 1] + (after - ends[run + 1])
        ends[run + 1] = left
        ends[run + 2] = after
        count += 1
    return removed


def insert_missing(es: EnergySeries, spec: MissingnessSpec) -> tuple[EnergySeries, MissingMask]:
    """Remove values from a complete series, returning it plus the mask.

    The removal count is ``round(share * n)`` exactly, of which
    ``round(single_fraction * count)`` are isolated singles; the remainder is
    consumed by multi-value gaps with lengths uniform in [2, max_gap_len]
    (the last gap truncated to fit).  The first and last readings are never
    removed and no two removal runs touch, so all gaps are anchored.
    Deterministic for a fixed seed.
    """
    if np.isnan(es.values).any():
        raise ValidationError("artificial removal needs a complete input series")
    n = es.n
    total = round(spec.share * n)
    if total < 1:
        raise ValidationError("share * series length must be at least 1")
    max_len = spec.max_gap_len
    if max_len is None:
        max_len = DEFAULT_MAX_GAP_DAYS * slots_per_day(es.resolution)

    n_singles = round(spec.single_fraction * total)
    gap_budget = total - n_singles
    if total > n - 2:
        raise InfeasibleSpecError(
            f"cannot remove {total} of {n} readings while preserving the "
            "boundary anchors; use a smaller share"
        )

    rng = np.random.default_rng(spec.seed)
    last_error = None
    for _ in range(PLACEMENT_ATTEMPTS):
        try:
            lengths = _draw_gap_lengths(rng, gap_budget, max_len)
            removed = _place(rng, n, lengths, n_singles)
            break
        except InfeasibleSpecError as exc:
            last_error = exc
    else:
        raise InfeasibleSpecError(
            f"could not place {total} removals after {PLACEMENT_ATTEMPTS} attempts "
            f"({last_error}); use a smaller share or max_gap_len"
        )

    indices = np.flatnonzero(removed)
    run_break = np.diff(indices) > 1
    run_id = np.concatenate(([0], np.cumsum(run_break)))
    run_sizes = np.bincount(run_id)
    singles = indices[run_sizes[run_id] == 1]

    degraded = np.array(es.values)
    degraded[indices] = np.nan
    degraded.setflags(write=False)
    out = EnergySeries(
        start=es.start,
        resolution=es.resolution,
        values=degraded,
        meter_kind=es.meter_kind,
        monotone_tol=es.monotone_tol,
    )
    return out, MissingMask(indices=indices, singles=singles)
