"""Per-triple reference for the weight grid search.

``meterfill.metrics.grid_search_weights`` matches every weight triple in one
batch, runs one full paste per series and pastes each other donor choice of
each gap alone, and gathers each distinct donor assignment's imputed power
from those.  This version matches
each triple on its own (a one-triple ``match_weights`` call) and runs a full
``run_plan`` and ``mape_p`` for every triple on every series, with all
plans held at once; the tests require the two to agree exactly.  Gap
insertion is looked up in ``meterfill.metrics`` at call time, so a test
that patches it there degrades both the same way.
"""

import numpy as np

from meterfill import DissimilarityWeights, MetricError, MissingnessSpec, trimmed_mean
from meterfill import metrics
from meterfill.cpi import match_weights, plan_cpi, run_plan
from meterfill.series import energy_to_power


def grid_search_per_triple(
    calibration,
    energy_range=(1, 20),
    weekday_range=(0, 10),
    season_range=(1, 20),
    share=0.1,
    seed=0,
    max_gap_len=None,
    imputed=None,
):
    """(best weights, scores) of the exhaustive grid, one imputation per triple.

    Given a list, ``imputed`` gets each (triple, series) imputation's
    (truth, imputed power) over the series' mask, in grid order.
    """
    prepared = []
    for index, (sid, series) in enumerate(calibration):
        spec = MissingnessSpec(
            share=share, max_gap_len=max_gap_len,
            seed=metrics._cell_seed(seed, index, share),
        )
        degraded, _ = metrics.insert_missing(series, spec)
        plan = plan_cpi(degraded)
        actual = energy_to_power(series)
        mask = np.flatnonzero(np.isnan(energy_to_power(degraded).values))
        prepared.append((plan, actual, mask))

    def aggregate(values):
        return trimmed_mean(values) if len(values) >= 5 else float(np.mean(values))

    scores = []
    best = None
    for w_energy in range(energy_range[0], energy_range[1] + 1):
        for w_weekday in range(weekday_range[0], weekday_range[1] + 1):
            for w_season in range(season_range[0], season_range[1] + 1):
                if w_energy + w_weekday + w_season == 0:
                    continue
                weights = DissimilarityWeights(w_energy, w_weekday, w_season)
                mapes = []
                for plan, actual, mask in prepared:
                    donors = match_weights(plan.table, [(w_energy, w_weekday, w_season)])[0]
                    power = run_plan(plan, donors).imputed_power
                    mapes.append(metrics.mape_p(actual, power, mask).value)
                    if imputed is not None:
                        imputed.append((actual.values[mask], power.values[mask]))
                score = aggregate(mapes)
                scores.append((w_energy, w_weekday, w_season, score))
                key = (score, w_energy + w_weekday + w_season, (w_energy, w_weekday, w_season))
                if best is None or key < best[0]:
                    best = (key, weights)
    if best is None:
        raise MetricError("weight grid is empty")
    return best[1], scores
