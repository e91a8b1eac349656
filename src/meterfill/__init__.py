"""Energy-conserving gap imputation for smart-meter energy time series.

The copy-paste imputer fills each day that has missing values with the most
similar complete day of the same series, then rescales every gap so the
metered energy across the gap is preserved exactly.  Linear, historical
average and seasonal-model benchmarks plus a degradation/evaluation harness
round out the package.
"""

from .baselines import (
    SeasonalModel,
    fit_seasonal_model,
    impute_hist_avg,
    impute_linear,
    impute_seasonal_model,
)
from .cpi import (
    CpiConfig,
    DEFAULT_WEIGHTS,
    DissimilarityWeights,
    GapFill,
    ImputationResult,
    SeasonContext,
    WeeklyPattern,
    compile_complete_days,
    copy_paste_and_scale,
    estimate_daily_energy,
    fit_weekly_pattern,
    impute_cpi,
    interpolate_singles,
)
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
    DayTable,
    EnergySeries,
    Gap,
    MeterKind,
    ParseConfig,
    PowerSeries,
    day_partition,
    detect_gaps,
    energy_to_power,
    fill_energy_from_power,
    parse_series,
    power_to_energy,
    read_series,
    write_series,
)
from .synthetic import synthetic_series, synthetic_suite

__version__ = "0.1.0"
