"""Error measures, aggregation, weight tuning and the benchmark harness.

The harness degrades complete ground-truth series, runs each imputation
method, and scores pattern fidelity (MAPE over the missing power values)
and energy conservation (WAPE over the per-gap energies), with wall-clock
runtime measured around the imputation call only.  Both measures read the
power each method imputed (for copy-paste: pasted, then scaled if scaling
is on), never the power re-derived from the rebuilt energy, whose last
gap slot absorbs any energy miss; so a method that does not conserve
energy scores a nonzero WAPE.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .baselines import BASELINES
from .cpi import (
    CpiConfig,
    DEFAULT_WEIGHTS,
    DissimilarityWeights,
    impute_cpi,
    plan_cpi,
    run_plan,
)
from .errors import MeterfillError, MetricError
from .gapgen import MissingnessSpec, insert_missing
from .series import (
    EnergySeries,
    Gap,
    PowerSeries,
    detect_gaps,
    energy_to_power,
    resolution_hours,
)

ZERO_ACTUAL_THRESHOLD = 1e-9  # kW; |actual| below this is excluded from MAPE

BENCHMARK_METHODS = ("cpi", *BASELINES)
ALL_METHODS = ("cpi", "cpi_noscale", *BASELINES)


class MapeResult(NamedTuple):
    value: float
    skipped: int


def mape_p(actual: PowerSeries, imputed: PowerSeries, mask: Iterable[int]) -> MapeResult:
    """Mean absolute percentage error over the masked power values.

    Terms whose actual power is smaller than ``ZERO_ACTUAL_THRESHOLD`` in
    magnitude are excluded and counted in ``skipped``.
    """
    idx = np.asarray(sorted(set(int(i) for i in mask)), dtype=np.int64)
    if idx.size == 0:
        raise MetricError("no evaluable points: empty mask")
    truth = actual.values[idx]
    guess = imputed.values[idx]
    if np.isnan(truth).any() or np.isnan(guess).any():
        raise MetricError("both series must be complete over the mask")
    keep = np.abs(truth) >= ZERO_ACTUAL_THRESHOLD
    skipped = int((~keep).sum())
    if not keep.any():
        raise MetricError("no evaluable points: all actual values are zero")
    value = float(np.mean(np.abs(guess[keep] - truth[keep]) / np.abs(truth[keep])))
    return MapeResult(value, skipped)


def wape_e(actual_energies: Sequence[float], imputed_energies: Sequence[float]) -> float:
    """Sum of absolute per-gap energy errors over the sum of actual energies."""
    actual = np.asarray(list(actual_energies), dtype=np.float64)
    imputed = np.asarray(list(imputed_energies), dtype=np.float64)
    if actual.size == 0 or actual.size != imputed.size:
        raise MetricError("gap energy lists must be non-empty and equally long")
    denom = actual.sum()
    if denom == 0.0:
        raise MetricError("total actual gap energy is zero")
    return float(np.abs(imputed - actual).sum() / denom)


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean after dropping the two largest and two smallest values."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size < 5:
        raise MetricError(f"trimmed mean needs at least 5 values, got {vals.size}")
    return float(np.sort(vals)[2:-2].mean())


def gap_energies(imputed: PowerSeries, gaps: Sequence[Gap]) -> list[float]:
    """Energy of each gap in ``imputed``: resolution-hours times the power sum.

    The harness passes the power as imputed, so the energies show any miss.
    """
    dt = resolution_hours(imputed.resolution)
    return [float(imputed.values[g.first_missing : g.last_missing + 1].sum() * dt) for g in gaps]


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodScore:
    method: str
    mape_p: float
    wape_e: float
    runtime_seconds: float
    skipped_mape_terms: int


@dataclass(frozen=True)
class ScoreRow:
    series_id: str
    share: float
    seed: int
    method: str
    mape_p: float
    wape_e: float
    runtime_s: float
    skipped_terms: int
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    share: float
    method: str
    mape_p_trimmed: float
    wape_e_trimmed: float
    runtime_s_mean: float


@dataclass
class EvaluationReport:
    rows: list[ScoreRow]
    aggregates: list[AggregateRow]
    warnings: list[str] = field(default_factory=list)


def _impute_power(
    method: str,
    degraded: EnergySeries,
    weights: DissimilarityWeights,
    config: CpiConfig,
) -> PowerSeries:
    if method == "cpi":
        return impute_cpi(degraded, weights, config).imputed_power
    if method == "cpi_noscale":
        noscale = CpiConfig(min_complete_days=config.min_complete_days, scale=False)
        return impute_cpi(degraded, weights, noscale).imputed_power
    if method not in BASELINES:
        raise MetricError(f"unknown method {method!r}")
    return BASELINES[method](energy_to_power(degraded))


def score_method(
    method: str,
    original: EnergySeries,
    degraded: EnergySeries,
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    config: CpiConfig = CpiConfig(),
) -> MethodScore:
    """Impute a degraded series and score its imputed power against the original."""
    actual_power = energy_to_power(original)
    degraded_power = energy_to_power(degraded)
    mask = np.flatnonzero(np.isnan(degraded_power.values))
    gaps = detect_gaps(degraded)

    started = time.perf_counter()
    imputed = _impute_power(method, degraded, weights, config)
    elapsed = time.perf_counter() - started

    mape = mape_p(actual_power, imputed, mask)
    wape = wape_e([g.actual_energy for g in gaps], gap_energies(imputed, gaps))
    return MethodScore(method, mape.value, wape, elapsed, mape.skipped)


def _cell_seed(seed: int, series_index: int, share: float) -> int:
    mixed = np.random.SeedSequence([seed, series_index, round(share * 1_000_000)])
    return int(mixed.generate_state(1)[0])


def _evaluate_cell(payload) -> list[ScoreRow]:
    (sid, series, share, seed, series_index, methods, weights, config,
     max_gap_len, single_fraction) = payload
    spec = MissingnessSpec(
        share=share,
        max_gap_len=max_gap_len,
        single_fraction=single_fraction,
        seed=_cell_seed(seed, series_index, share),
    )
    try:
        degraded, _ = insert_missing(series, spec)
    except MeterfillError as exc:
        return [
            ScoreRow(sid, share, seed, m, float("nan"), float("nan"), 0.0, 0, str(exc))
            for m in methods
        ]
    rows = []
    for method in methods:
        try:
            score = score_method(method, series, degraded, weights, config)
            rows.append(
                ScoreRow(
                    sid, share, seed, method,
                    score.mape_p, score.wape_e, score.runtime_seconds,
                    score.skipped_mape_terms,
                )
            )
        except MeterfillError as exc:
            rows.append(
                ScoreRow(sid, share, seed, method, float("nan"), float("nan"), 0.0, 0, str(exc))
            )
    return rows


def evaluate(
    series_set: Sequence[tuple[str, EnergySeries]],
    shares: Sequence[float],
    methods: Sequence[str] = BENCHMARK_METHODS,
    seeds: Sequence[int] = (0,),
    weights: DissimilarityWeights = DEFAULT_WEIGHTS,
    config: CpiConfig = CpiConfig(),
    max_gap_len: int | None = None,
    single_fraction: float = 0.05,
    parallelism: int = 1,
) -> EvaluationReport:
    """Degrade, impute and score every (series, share, seed, method) cell.

    Method failures are recorded per cell instead of aborting the run.
    Aggregates are trimmed means per (share, method); groups smaller than
    five fall back to the plain mean and are flagged in the warnings.
    """
    if not series_set:
        raise MetricError("evaluation needs at least one series")
    cells = [
        (sid, series, share, seed, i, tuple(methods), weights, config,
         max_gap_len, single_fraction)
        for i, (sid, series) in enumerate(series_set)
        for share in shares
        for seed in seeds
    ]
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            chunks = list(pool.map(_evaluate_cell, cells))
    else:
        chunks = [_evaluate_cell(cell) for cell in cells]
    rows = [row for chunk in chunks for row in chunk]

    warnings = [
        f"{r.series_id} share={r.share} seed={r.seed} {r.method}: {r.error}"
        for r in rows
        if r.error
    ]
    aggregates = []
    for share in shares:
        for method in methods:
            group = [
                r for r in rows
                if r.share == share and r.method == method and r.error is None
            ]
            if not group:
                continue
            mapes = [r.mape_p for r in group]
            wapes = [r.wape_e for r in group]
            if len(group) >= 5:
                agg_mape, agg_wape = trimmed_mean(mapes), trimmed_mean(wapes)
            else:
                agg_mape, agg_wape = float(np.mean(mapes)), float(np.mean(wapes))
                warnings.append(
                    f"share={share} {method}: only {len(group)} scores, "
                    "trimmed mean skipped (plain mean reported)"
                )
            aggregates.append(
                AggregateRow(
                    share, method, agg_mape, agg_wape,
                    float(np.mean([r.runtime_s for r in group])),
                )
            )
    return EvaluationReport(rows=rows, aggregates=aggregates, warnings=warnings)


REPORT_COLUMNS = (
    "series_id", "share", "seed", "method", "mape_p", "wape_e", "runtime_s", "skipped_terms",
)
AGGREGATE_COLUMNS = ("share", "method", "mape_p_trimmed", "wape_e_trimmed", "runtime_s_mean")


def format_report_csv(report: EvaluationReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(REPORT_COLUMNS)
    for r in report.rows:
        writer.writerow(
            [r.series_id, repr(r.share), r.seed, r.method,
             repr(r.mape_p), repr(r.wape_e), repr(r.runtime_s), r.skipped_terms]
        )
    return out.getvalue()


def format_aggregates_csv(report: EvaluationReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(AGGREGATE_COLUMNS)
    for a in report.aggregates:
        writer.writerow(
            [repr(a.share), a.method,
             repr(a.mape_p_trimmed), repr(a.wape_e_trimmed), repr(a.runtime_s_mean)]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Weight tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSearchResult:
    best: DissimilarityWeights
    scores: list[tuple[int, int, int, float]]  # (w_energy, w_weekday, w_season, mape)


def grid_search_weights(
    calibration: Sequence[tuple[str, EnergySeries]],
    energy_range: tuple[int, int] = (1, 20),
    weekday_range: tuple[int, int] = (0, 10),
    season_range: tuple[int, int] = (1, 20),
    share: float = 0.1,
    seed: int = 0,
    max_gap_len: int | None = None,
    config: CpiConfig = CpiConfig(),
) -> GridSearchResult:
    """Exhaustive integer grid search minimizing the aggregate MAPE.

    Matching is re-run per weight combination on shared per-series pipeline
    state, so only the weight-dependent stages repeat.  Ties are broken by
    the smaller weight sum, then lexicographically.  The calibration set
    must be disjoint from the evaluation set (caller's responsibility).
    """
    if not calibration:
        raise MetricError("grid search needs a non-empty calibration set")
    prepared = []
    for index, (sid, series) in enumerate(calibration):
        spec = MissingnessSpec(
            share=share, max_gap_len=max_gap_len, seed=_cell_seed(seed, index, share)
        )
        degraded, _ = insert_missing(series, spec)
        plan = plan_cpi(degraded, config)
        actual = energy_to_power(series)
        mask = np.flatnonzero(np.isnan(energy_to_power(degraded).values))
        prepared.append((plan, actual, mask))

    def aggregate(values: list[float]) -> float:
        return trimmed_mean(values) if len(values) >= 5 else float(np.mean(values))

    scores = []
    best = None
    for w_energy in range(energy_range[0], energy_range[1] + 1):
        for w_weekday in range(weekday_range[0], weekday_range[1] + 1):
            for w_season in range(season_range[0], season_range[1] + 1):
                if w_energy + w_weekday + w_season == 0:
                    continue
                weights = DissimilarityWeights(w_energy, w_weekday, w_season)
                mapes = [
                    mape_p(actual, run_plan(plan, weights).imputed_power, mask).value
                    for plan, actual, mask in prepared
                ]
                score = aggregate(mapes)
                scores.append((w_energy, w_weekday, w_season, score))
                key = (score, w_energy + w_weekday + w_season, (w_energy, w_weekday, w_season))
                if best is None or key < best[0]:
                    best = (key, weights)
    if best is None:
        raise MetricError("weight grid is empty")
    return GridSearchResult(best=best[1], scores=scores)
