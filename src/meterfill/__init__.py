"""Energy-conserving gap imputation for smart-meter energy time series.

The copy-paste imputer fills each day that has missing values with the most
similar complete day of the same series, then rescales every gap so the
metered energy across the gap is preserved exactly.  Linear, historical
average and seasonal-model benchmarks plus a degradation/evaluation harness
round out the package.  The top level holds what README documents; the
plan's stages and the series internals live in ``meterfill.cpi``,
``meterfill.series`` and ``meterfill.baselines``.
"""

from .baselines import impute_hist_avg, impute_linear, impute_seasonal_model
from .cpi import DEFAULT_WEIGHTS, DissimilarityWeights, GapFill, ImputationResult, impute_cpi
from .errors import (
    ImputationError,
    InfeasibleSpecError,
    MeterfillError,
    MetricError,
    ParseError,
    ValidationError,
)
from .gapgen import MissingMask, MissingnessSpec, insert_missing
from .metrics import (
    EvaluationReport,
    GridSearchResult,
    evaluate,
    grid_search_weights,
    mape_p,
    trimmed_mean,
    wape_e,
)
from .series import (
    EnergySeries,
    MeterKind,
    ParseConfig,
    PowerSeries,
    energy_to_power,
    parse_series,
    power_to_energy,
    read_series,
    write_series,
)
from .synthetic import synthetic_series, synthetic_suite

__version__ = "0.1.0"
