"""Error measures, aggregation, weight tuning and the benchmark harness.

The harness degrades complete ground-truth series, runs each imputation
method, and scores pattern fidelity (MAPE over the missing power values)
and energy conservation (WAPE over the per-gap energies), with wall-clock
runtime measured around the imputation only.  ``cpi`` and ``cpi_noscale``
run from one plan per degraded series; the runtime of each is that plan's
time plus its own matching, pasting and scaling, so it is still what the
method costs alone.  Both measures read the power each method imputed
(for copy-paste: pasted, then scaled if scaling is on), never the power
re-derived from the rebuilt energy, whose last gap slot absorbs any
energy miss; so a method that does not conserve energy scores a nonzero
WAPE.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .baselines import BASELINES
from .cpi import (
    CpiConfig,
    DEFAULT_WEIGHTS,
    DissimilarityWeights,
    interpolate_singles,
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

# The copy-paste methods by name: whether each scales its gaps to the metered energy.
CPI_METHODS = {"cpi": True, "cpi_noscale": False}
BENCHMARK_METHODS = ("cpi", *BASELINES)
ALL_METHODS = (*CPI_METHODS, *BASELINES)


class MapeResult(NamedTuple):
    value: float
    skipped: int


def mape_p(actual: PowerSeries, imputed: PowerSeries, mask: Iterable[int]) -> MapeResult:
    """Mean absolute percentage error over the masked power values.

    ``mask`` is any iterable of integer power indices (an integer array, a
    list, a set, a range or a generator) in ``[0, actual.n)``; duplicates
    count once.  Any other index, or series of different lengths, raise
    ``MetricError``.  Terms whose actual power is smaller than
    ``ZERO_ACTUAL_THRESHOLD`` in magnitude are excluded and counted in
    ``skipped``.
    """
    if actual.n != imputed.n:
        raise MetricError(
            f"actual and imputed series differ in length: {actual.n} and {imputed.n}"
        )
    raw = np.asarray(mask if isinstance(mask, np.ndarray) else list(mask))
    if raw.size == 0:
        raise MetricError("no evaluable points: empty mask")
    if raw.dtype.kind not in "iuf" or raw.ndim != 1:
        raise MetricError(
            f"mask must be a flat sequence of integer indices, got a {raw.ndim}-d {raw.dtype} array"
        )
    bad = raw[(raw != np.trunc(raw)) | (raw < 0) | (raw >= actual.n)]
    if bad.size:
        raise MetricError(f"mask index {bad[0]} is not an integer in [0, {actual.n})")
    # The sorted distinct indices, from a bitmap: np.unique (numpy 2.4) took
    # 30 times as long on a one-year mask at 30 % share.
    masked = np.zeros(actual.n, dtype=bool)
    masked[raw.astype(np.int64)] = True
    idx = np.flatnonzero(masked)
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


def score_method(
    method: str,
    actual: PowerSeries,
    mask: np.ndarray,
    gaps: Sequence[Gap],
    imputed: PowerSeries,
    runtime_seconds: float,
) -> MethodScore:
    """Score a method's imputed power against the original power ``actual``.

    ``mask`` and ``gaps`` are the degraded series' missing power indices and gaps.
    """
    mape = mape_p(actual, imputed, mask)
    wape = wape_e([g.actual_energy for g in gaps], gap_energies(imputed, gaps))
    return MethodScore(method, mape.value, wape, runtime_seconds, mape.skipped)


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

    def failed(method: str, exc: MeterfillError) -> ScoreRow:
        return ScoreRow(sid, share, seed, method, float("nan"), float("nan"), 0.0, 0, str(exc))

    try:
        degraded, _ = insert_missing(series, spec)
        actual = energy_to_power(series)
        degraded_power = energy_to_power(degraded)
        mask = np.flatnonzero(np.isnan(degraded_power.values))
        gaps = detect_gaps(degraded)
    except MeterfillError as exc:
        return [failed(m, exc) for m in methods]

    # Both copy-paste methods run from one plan, and each is charged its
    # time.  As in ``impute_cpi``, no plan is built when interpolating the
    # isolated singles leaves no gap.
    plan_s, plan = 0.0, None
    if any(m in CPI_METHODS for m in methods):
        started = time.perf_counter()
        try:
            filled = interpolate_singles(degraded)
            if np.isnan(filled.values).any():
                plan = plan_cpi(filled, config)
        except MeterfillError as exc:
            plan = exc
        plan_s = time.perf_counter() - started

    rows = []
    for method in methods:
        started, shared_s = time.perf_counter(), 0.0
        try:
            if method in CPI_METHODS:
                if isinstance(plan, MeterfillError):
                    raise plan
                shared_s = plan_s
                if plan is None:
                    imputed = energy_to_power(filled)
                else:
                    imputed = run_plan(plan, weights, CPI_METHODS[method]).imputed_power
            elif method in BASELINES:
                imputed = BASELINES[method](degraded_power)
            else:
                raise MetricError(f"unknown method {method!r}")
            elapsed = time.perf_counter() - started + shared_s
            score = score_method(method, actual, mask, gaps, imputed, elapsed)
        except MeterfillError as exc:
            rows.append(failed(method, exc))
        else:
            rows.append(ScoreRow(sid, share, seed, method, score.mape_p, score.wape_e,
                                 score.runtime_seconds, score.skipped_mape_terms))
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
    ``config`` sets the copy-paste planning; the method name sets scaling.
    Aggregates are trimmed means per (share, method); groups smaller than
    five fall back to the plain mean and are flagged in the warnings.
    Cells run in ``parallelism`` worker processes, which must be at least 1.
    """
    if not series_set:
        raise MetricError("evaluation needs at least one series")
    if parallelism < 1:
        raise MetricError(f"parallelism must be at least 1, got {parallelism}")
    cells = [
        (sid, series, share, seed, i, tuple(methods), weights, config,
         max_gap_len, single_fraction)
        for i, (sid, series) in enumerate(series_set)
        for share in shares
        for seed in seeds
    ]
    if parallelism > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
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
