"""Scalar reference for the copy-paste dissimilarity of two days.

The package computes dissimilarities only as one matrix
(``meterfill.cpi._best_donors``).  This one-pair version, with its own
scalar weekday, season and combination rules, is the oracle the tests
compare the matrix against.
"""

from meterfill import DayRecord, DissimilarityWeights, SeasonContext

WORKDAYS = frozenset({1, 2, 3, 4, 5})


def weekday_distance(weekday_i: int, weekday_j: int) -> float:
    """0 for the same weekday, 0.5 within the workday/weekend class, else 1."""
    if weekday_i == weekday_j:
        return 0.0
    if (weekday_i in WORKDAYS) == (weekday_j in WORKDAYS):
        return 0.5
    return 1.0


def season_distance(doy_i: int, doy_j: int, cycle_length: int) -> float:
    """Cyclic day-of-year distance normalized to [0, 1]."""
    half = cycle_length // 2
    delta = abs(doy_i - doy_j)
    if delta <= half:
        return delta / half
    return (cycle_length - delta) / half


def combine_distances(
    weights: DissimilarityWeights,
    d_energy: float,
    d_weekday: float,
    d_season: float,
) -> float:
    """Weighted sum of the three normalized distance components."""
    return (
        weights.energy * d_energy
        + weights.weekday * d_weekday
        + weights.season * d_season
    )


def dissimilarity(
    day_i: DayRecord,
    day_j: DayRecord,
    weights: DissimilarityWeights,
    ctx: SeasonContext,
) -> float:
    """Weighted sum of the energy, weekday and season distances.

    The energy distance is the absolute day-total difference over the
    context's energy range; it is dropped when either day has no total.
    """
    if day_i.total_energy is not None and day_j.total_energy is not None:
        d_energy = abs(day_i.total_energy - day_j.total_energy) / (ctx.energy_max - ctx.energy_min)
    else:
        d_energy = 0.0
    return combine_distances(
        weights,
        d_energy,
        weekday_distance(day_i.weekday, day_j.weekday),
        season_distance(day_i.day_of_year, day_j.day_of_year, ctx.cycle_length),
    )
