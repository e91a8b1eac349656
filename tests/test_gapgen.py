"""Tests for artificial missing-value insertion."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meterfill import (
    InfeasibleSpecError,
    MissingnessSpec,
    ValidationError,
    gapgen,
    insert_missing,
)

import placement_oracle
from conftest import QUARTER_HOUR, energy


def complete_series(n, seed=0):
    rng = np.random.default_rng(seed)
    values = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))))
    return energy(values, resolution=QUARTER_HOUR)


def run_lengths(indices):
    indices = np.asarray(indices)
    breaks = np.flatnonzero(np.diff(indices) > 1)
    return np.diff(np.concatenate(([0], breaks + 1, [indices.size])))


def test_counts_match_the_protocol_arithmetic():
    es = complete_series(35040)
    degraded, mask = insert_missing(es, MissingnessSpec(share=0.10, seed=1))
    assert mask.indices.size == 3504
    assert mask.singles.size == 175  # round(0.05 * 3504)
    assert int(np.isnan(degraded.values).sum()) == 3504


def test_degenerate_budget_of_one_is_a_single():
    es = complete_series(100)
    degraded, mask = insert_missing(es, MissingnessSpec(share=0.01, seed=2))
    assert mask.indices.size == 1
    assert mask.singles.size == 1
    idx = int(mask.indices[0])
    assert not np.isnan(degraded.values[idx - 1])
    assert not np.isnan(degraded.values[idx + 1])


def test_same_seed_gives_identical_masks():
    es = complete_series(5000)
    spec = MissingnessSpec(share=0.08, max_gap_len=20, seed=99)
    _, a = insert_missing(es, spec)
    _, b = insert_missing(es, spec)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.singles, b.singles)


def test_distinct_seeds_give_distinct_masks():
    es = complete_series(2000)
    seen = set()
    for seed in range(100):
        _, mask = insert_missing(es, MissingnessSpec(share=0.05, seed=seed))
        seen.add(tuple(mask.indices.tolist()))
    assert len(seen) == 100


@pytest.mark.parametrize("share", [0.01, 0.02, 0.05, 0.1, 0.2, 0.3])
def test_contract_holds_at_every_share(share):
    es = complete_series(35040)
    max_len = 3 * 96
    degraded, mask = insert_missing(es, MissingnessSpec(share=share, seed=7))
    total = round(share * 35040)
    assert mask.indices.size == total
    assert mask.singles.size == round(0.05 * total)
    lengths = run_lengths(mask.indices)
    assert lengths.max() <= max_len
    assert (np.count_nonzero(lengths == 1)) == mask.singles.size
    assert 0 not in mask.indices and 35039 not in mask.indices


def test_runs_are_never_adjacent():
    es = complete_series(5000)
    _, mask = insert_missing(es, MissingnessSpec(share=0.3, max_gap_len=50, seed=5))
    removed = np.zeros(5000, dtype=bool)
    removed[mask.indices] = True
    # a run boundary always has a present value on each side
    edges = np.diff(removed.astype(int))
    run_starts = np.flatnonzero(edges == 1) + 1
    run_stops = np.flatnonzero(edges == -1)
    for a, b in zip(run_starts[1:], run_stops[:-1]):
        assert a - b >= 2


def test_explicit_max_gap_len_is_respected():
    es = complete_series(5000)
    _, mask = insert_missing(es, MissingnessSpec(share=0.2, max_gap_len=5, seed=3))
    assert run_lengths(mask.indices).max() <= 5


def test_singles_are_isolated():
    es = complete_series(8000)
    degraded, mask = insert_missing(es, MissingnessSpec(share=0.15, seed=11))
    missing = np.isnan(degraded.values)
    for i in mask.singles.tolist():
        assert not missing[i - 1] and not missing[i + 1]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 200),
    share=st.floats(0.005, 0.6),
    max_gap_len=st.sampled_from([None, 2, 3, 5]),
    single_fraction=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100, share=0.01, max_gap_len=None, single_fraction=0.05, seed=2)  # a budget of one
def test_singles_are_the_removals_without_a_removed_neighbour(
    n, share, max_gap_len, single_fraction, seed
):
    try:
        degraded, mask = insert_missing(
            complete_series(n), MissingnessSpec(share, max_gap_len, single_fraction, seed)
        )
    except (InfeasibleSpecError, ValidationError):
        return
    removed = set(mask.indices.tolist())
    assert np.flatnonzero(np.isnan(degraded.values)).tolist() == sorted(removed)
    singles = [i for i in sorted(removed) if i - 1 not in removed and i + 1 not in removed]
    assert mask.singles.tolist() == singles


def test_share_of_one_value_requires_enough_length():
    es = complete_series(20)
    with pytest.raises(ValidationError, match="at least 1"):
        insert_missing(es, MissingnessSpec(share=0.01, seed=0))


def test_infeasible_spec_is_reported():
    es = complete_series(40)
    with pytest.raises(InfeasibleSpecError, match="smaller share"):
        insert_missing(es, MissingnessSpec(share=0.95, seed=0))


def test_an_odd_budget_of_two_reading_gaps_fails_before_any_draw():
    # A year at 10 %: 3,504 removals, 175 of them singles, leave an odd
    # gap budget of 3,329 that gaps of exactly two readings cannot tile.
    es = complete_series(35040)
    spec = MissingnessSpec(share=0.1, max_gap_len=2, seed=0)
    with (
        mock.patch.object(gapgen, "_draw_gap_lengths") as draw,
        mock.patch.object(gapgen, "_place") as place,
        pytest.raises(InfeasibleSpecError) as caught,
    ):
        insert_missing(es, spec)
    assert not draw.called and not place.called
    assert str(caught.value) == (
        "cannot tile an odd gap budget of 3329 readings with gaps of length 2 "
        "(max_gap_len 2); use a larger max_gap_len or a different share"
    )
    # One reading more and the budget is even: the same spec is placed.
    _, mask = insert_missing(complete_series(35050), spec)
    assert run_lengths(mask.indices).max() == 2


def test_degraded_input_is_rejected():
    es = complete_series(100)
    degraded, _ = insert_missing(es, MissingnessSpec(share=0.1, seed=0))
    with pytest.raises(ValidationError, match="complete"):
        insert_missing(degraded, MissingnessSpec(share=0.1, seed=0))


def test_spec_validation():
    with pytest.raises(ValidationError):
        MissingnessSpec(share=0.0)
    with pytest.raises(ValidationError):
        MissingnessSpec(share=1.5)
    with pytest.raises(ValidationError):
        MissingnessSpec(share=0.1, max_gap_len=1)
    with pytest.raises(ValidationError):
        MissingnessSpec(share=0.1, single_fraction=1.5)
    with pytest.raises(ValidationError, match="below 2"):
        MissingnessSpec(share=0.1, max_gap_len=2**63)
    # The largest length numpy can draw in int64 still draws a mask.
    insert_missing(complete_series(200), MissingnessSpec(share=0.1, max_gap_len=2**63 - 1))


# ---------------------------------------------------------------------------
# Free-run placement against the rescanning oracle
# ---------------------------------------------------------------------------


def insert_outcome(es, spec, place):
    """The mask, or the error type and text, of one insertion using ``place``."""
    with mock.patch.object(gapgen, "_place", place):
        try:
            _, mask = insert_missing(es, spec)
        except (InfeasibleSpecError, ValidationError) as exc:
            return type(exc).__name__, str(exc)
    return mask.indices.tolist(), mask.singles.tolist()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 400),
    share=st.floats(0.005, 0.95),
    max_gap_len=st.sampled_from([None, 2, 3, 5, 7, 500]),
    single_fraction=st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_placement_matches_the_oracle(n, share, max_gap_len, single_fraction, seed):
    es = complete_series(n)
    spec = MissingnessSpec(share, max_gap_len, single_fraction, seed)
    expected = insert_outcome(es, spec, placement_oracle.place)
    assert insert_outcome(es, spec, gapgen._place) == expected


@pytest.mark.parametrize("share", [0.01, 0.1, 0.3])
def test_placement_matches_the_oracle_on_a_year(share):
    es = complete_series(35040)
    spec = MissingnessSpec(share=share, seed=12)
    assert insert_outcome(es, spec, gapgen._place) == insert_outcome(
        es, spec, placement_oracle.place
    )


def test_placement_leaves_the_generator_where_the_oracle_does():
    lengths = [5, 2, 9, 3, 1]
    new, old = np.random.default_rng(8), np.random.default_rng(8)
    removed = gapgen._place(new, 300, lengths, 12)
    assert np.array_equal(removed, placement_oracle.place(old, 300, lengths, 12))
    assert new.bit_generator.state == old.bit_generator.state


def place_outcome(place, seed, n, share, single_fraction, max_len=3 * 96):
    """The mask or error text of one placement, and where it leaves the generator."""
    rng = np.random.default_rng(seed)
    total = round(share * n)
    n_singles = round(single_fraction * total)
    lengths = gapgen._draw_gap_lengths(rng, total - n_singles, max_len)
    try:
        outcome = np.flatnonzero(place(rng, n, lengths, n_singles)).tolist()
    except InfeasibleSpecError as exc:
        outcome = str(exc)
    return outcome, rng.bit_generator.state


@pytest.mark.parametrize("share", [0.1, 0.3])
@pytest.mark.parametrize("single_fraction", [0.5, 1.0])
def test_singles_heavy_year_matches_the_oracle(share, single_fraction):
    # At 30 % share every reading a single: the year runs out of room part
    # way, so the error text and the draws up to it are compared as well.
    expected = place_outcome(placement_oracle.place, 31, 35040, share, single_fraction)
    assert place_outcome(gapgen._place, 31, 35040, share, single_fraction) == expected


@pytest.mark.parametrize(
    ("n", "share", "max_len", "single_fraction"),
    [
        (1461 * 96, 0.3, 3 * 96, 0.05),  # four years: 2,104 singles split 6 blocks many times
        # 1,669 gaps of two readings, so the singles start on 40 blocks.  (A
        # full year has 5,000 such gaps and costs the oracle 2.5 s.)
        (122 * 96, 0.3, 2, 0.05),
    ],
    ids=["four-years", "short-gaps"],
)
def test_large_placements_match_the_oracle(n, share, max_len, single_fraction):
    expected = place_outcome(placement_oracle.place, 5, n, share, single_fraction, max_len)
    assert place_outcome(gapgen._place, 5, n, share, single_fraction, max_len) == expected
