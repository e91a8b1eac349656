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

Gaps keep the runs as numpy columns and scan every run's fit for each
draw, since each gap length changes every fit.  Singles all fit a run in
``hi - lo - 1`` ways, so they walk a blocked list of Python ints instead:
about sqrt(runs) steps and no numpy call per draw beyond the draw itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpecError, ValidationError
from .series import EnergySeries, _missing_runs, _with_values, slots_per_day

DEFAULT_MAX_GAP_DAYS = 3
PLACEMENT_ATTEMPTS = 20


@dataclass(frozen=True)
class MissingnessSpec:
    """How much to remove and in what shape.

    ``share`` is the fraction of readings to remove, ``single_fraction`` the
    fraction of removals that must be isolated singles.  ``max_gap_len`` is
    in readings, at least 2 and below 2**63 (numpy draws the lengths in
    int64); None means three days' worth at the series resolution.
    ``seed`` seeds the draws and must be non-negative.
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
        if self.max_gap_len is not None and self.max_gap_len >= 2**63:
            raise ValidationError(f"max_gap_len must be below 2**63, got {self.max_gap_len}")
        if not 0.0 <= self.single_fraction <= 1.0:
            raise ValidationError(
                f"single_fraction must be in [0, 1], got {self.single_fraction}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


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

    The tail is nudged so a remainder of one reading never occurs: a gap
    shrinks by one, or one of length 2 grows to 3.  ``insert_missing``
    refuses the budgets that this cannot serve within ``max_len``.
    """
    lengths = []
    remaining = budget
    while remaining >= 2:
        length = int(rng.integers(2, max_len + 1))
        length = min(length, remaining)
        if remaining - length == 1:
            length += 1 if length == 2 else -1
        lengths.append(length)
        remaining -= length
    if remaining == 1:
        lengths.append(1)  # degenerate budget: one extra isolated removal
    return lengths


def _place(rng: np.random.Generator, n: int, lengths: list[int], n_singles: int) -> np.ndarray:
    # Free runs as columns: ``lo`` and ``width`` (= hi - lo), in position order.
    # ``ends`` holds the running fit count of the first ``count`` runs and a
    # sentinel above any draw past them, so it is searched whole.
    capacity = 1 + len(lengths)
    lo = np.zeros(capacity, dtype=np.int64)
    width = np.zeros(capacity, dtype=np.int64)
    fits = np.empty(capacity, dtype=np.int64)
    ends = np.full(capacity, np.iinfo(np.int64).max)
    width[0], count = n - 1, 1
    removed = np.zeros(n, dtype=bool)
    for length in lengths:
        np.subtract(width[:count], length, out=fits[:count])
        np.maximum(fits[:count], 0, out=fits[:count])
        fits[:count].cumsum(out=ends[:count])
        total = ends.item(count - 1)
        if total == 0:
            raise InfeasibleSpecError("no room left for a gap")
        k = int(rng.integers(total))
        run = int(ends.searchsorted(k, "right"))
        run_lo, run_width = lo.item(run), width.item(run)
        start = run_lo + 1 + k - ends.item(run) + fits.item(run)
        removed[start : start + length] = True
        lo[run + 2 : count + 1] = lo[run + 1 : count]
        width[run + 2 : count + 1] = width[run + 1 : count]
        lo[run + 1] = start + length
        width[run + 1] = run_lo + run_width - start - length
        width[run] = start - 1 - run_lo
        count += 1

    # Singles walk a blocked list: each block holds its runs' ``lo`` and fit
    # (``max(width - 1, 0)``) as Python lists, with the fit sum beside it.  A
    # draw walks the block sums, then one block's fits; a split rewrites one
    # run, inserts one, and a block past ``2 * size`` runs splits in two.
    size = max(16, math.isqrt(count + n_singles))
    run_lo = lo[:count].tolist()
    run_fit = np.maximum(width[:count] - 1, 0).tolist()
    blocks = [
        (run_lo[i : i + size], run_fit[i : i + size]) for i in range(0, count, size)
    ]
    sums = [sum(fit) for _, fit in blocks]
    total = sum(sums)
    singles = []
    for _ in range(n_singles):
        if total == 0:
            raise InfeasibleSpecError("no room left for a single missing value")
        k = int(rng.integers(total))
        for b, block_sum in enumerate(sums):
            if k < block_sum:
                break
            k -= block_sum
        block_lo, block_fit = blocks[b]
        for j, fit in enumerate(block_fit):
            if k < fit:
                break
            k -= fit
        # The run [lo, lo + fit + 1] loses its reading at lo + 1 + k and both
        # neighbours of it: [lo, single - 2] keeps k - 2 fits, the rest
        # [single + 2, hi] keeps fit - k - 3.
        single = block_lo[j] + 1 + k
        singles.append(single)
        left = k - 2 if k > 2 else 0
        right = fit - k - 3 if fit > k + 3 else 0
        block_fit[j] = left
        block_fit.insert(j + 1, right)
        block_lo.insert(j + 1, single + 2)
        sums[b] += left + right - fit
        total += left + right - fit
        if len(block_fit) > 2 * size:
            blocks.insert(b + 1, (block_lo[size:], block_fit[size:]))
            del block_lo[size:], block_fit[size:]
            sums.insert(b + 1, sum(blocks[b + 1][1]))
            sums[b] -= sums[b + 1]
    removed[singles] = True
    return removed


def insert_missing(es: EnergySeries, spec: MissingnessSpec) -> tuple[EnergySeries, MissingMask]:
    """Remove values from a complete series, returning it plus the mask.

    The removal count is ``round(share * n)`` exactly, of which
    ``round(single_fraction * count)`` are isolated singles; the remainder is
    consumed by multi-value gaps with lengths uniform in [2, max_gap_len]
    (the last gap truncated to fit).  The first and last readings are never
    removed and no two removal runs touch, so all gaps are anchored.  The
    mask's ``singles`` are the missing runs of length one in the degraded
    values.  Deterministic for a fixed seed.
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
    # Gaps of two readings alone cannot use up an odd budget (a budget of
    # one becomes one extra isolated removal), so every draw would fail.
    if max_len == 2 and gap_budget % 2 and gap_budget > 1:
        raise InfeasibleSpecError(
            f"cannot tile an odd gap budget of {gap_budget} readings with gaps of "
            "length 2 (max_gap_len 2); use a larger max_gap_len or a different share"
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
    degraded = _with_values(es, indices, np.nan)
    starts, stops = _missing_runs(degraded.values)
    singles = starts[stops - starts == 1]
    return degraded, MissingMask(indices=indices, singles=singles)
