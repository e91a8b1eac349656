"""Reference versions of the copy-paste dissimilarity and donor choice.

The package computes dissimilarities only as a batch over weight triples
(``meterfill.cpi.match_weights``).  The one-pair ``dissimilarity``, with its
own scalar weekday, season and combination rules, and ``lexsort_donors``,
one matrix per weight triple sorted in full, are the oracles the tests
compare the batch against.
"""

import numpy as np

from meterfill import DissimilarityWeights
from meterfill.cpi import season_distance as season_matrix
from meterfill.cpi import weekday_distance as weekday_matrix
from plan_oracle import DayRecord

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
    cycle_length: int,
    energy_range: float,
) -> float:
    """Weighted sum of the energy, weekday and season distances.

    The energy distance is the absolute day-total difference over
    ``energy_range``; it is dropped when either day has no total.
    """
    if day_i.total_energy is not None and day_j.total_energy is not None:
        d_energy = abs(day_i.total_energy - day_j.total_energy) / energy_range
    else:
        d_energy = 0.0
    return combine_distances(
        weights,
        d_energy,
        weekday_distance(day_i.weekday, day_j.weekday),
        season_distance(day_i.day_of_year, day_j.day_of_year, cycle_length),
    )


def lexsort_donors(days, candidates, weights, cycle_length, energy_range, keep=None):
    """Index of each day's least dissimilar candidate, one full sort per row.

    Entry (i, j) of the matrix is the weighted sum of the energy, weekday
    and season distances, the energy term dropped where a total is missing;
    candidates outside ``keep[i]`` are excluded.  Rows are sorted by value,
    then calendar distance, then date.
    """

    def column(attr):
        return np.array([getattr(d, attr) for d in days], dtype=np.float64)[:, None]

    def row(attr):
        return np.array([getattr(c, attr) for c in candidates], dtype=np.float64)

    dw = weekday_matrix(column("weekday"), row("weekday"))
    ds = season_matrix(column("day_of_year"), row("day_of_year"), cycle_length)
    energy = weights.energy * np.abs(row("total_energy") - column("total_energy")) / energy_range
    value = weights.weekday * dw + weights.season * ds + np.where(np.isnan(energy), 0.0, energy)
    if keep is not None:
        value = np.where(keep, value, np.inf)
    ordinal = np.array([c.date.toordinal() for c in candidates])
    distance = np.abs(ordinal - np.array([d.date.toordinal() for d in days])[:, None])
    order = np.lexsort((np.broadcast_to(ordinal, value.shape), distance, value), axis=-1)
    return order[:, 0]
