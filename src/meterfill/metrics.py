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
    DEFAULT_WEIGHTS,
    DissimilarityWeights,
    interpolate_singles,
    match_weights,
    plan_cpi,
    run_plan,
)
from .errors import MeterfillError, MetricError, ValidationError
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


def wape_e(actual_energies: Iterable[float], imputed_energies: Iterable[float]) -> float:
    """Sum of absolute per-gap energy errors over the sum of actual energies."""
    actual, imputed = (
        np.asarray(e if isinstance(e, np.ndarray) else list(e), dtype=np.float64)
        for e in (actual_energies, imputed_energies)
    )
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


class GapSpans(NamedTuple):
    """The power spans of a series' gaps, grouped by length.

    ``actual`` is each gap's metered energy in gap order (NaN where a gap
    is unanchored).  Each group holds the positions of the gaps of one
    length and the matrix of their power indices, one row per gap.
    """

    actual: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]


def gap_spans(gaps: Sequence[Gap]) -> GapSpans:
    """Group the gaps' power spans by length, for ``gap_energies``.

    Every span's power indices are laid out in one flat index, by length
    and then in gap order; each group's matrix is a reshaped slice of it.
    """
    first = np.array([g.first_missing for g in gaps], dtype=np.int64)
    length = np.array([g.last_missing for g in gaps], dtype=np.int64) - first + 1
    order = np.argsort(length, kind="stable")
    length = length[order]
    offset = np.cumsum(length) - length
    flat = np.repeat(first[order] - offset, length) + np.arange(length.sum())
    edges = np.flatnonzero(np.diff(length, prepend=0, append=0)).tolist()
    offsets, widths = [*offset.tolist(), flat.size], length.tolist()
    groups = tuple(
        (order[a:b], flat[offsets[a] : offsets[b]].reshape(b - a, widths[a]))
        for a, b in zip(edges, edges[1:])
    )
    actual = np.array([g.actual_energy for g in gaps], dtype=np.float64)
    return GapSpans(actual, groups)


def gap_energies(imputed: PowerSeries, spans: GapSpans) -> np.ndarray:
    """Energy of each gap in ``imputed``: resolution-hours times the power sum.

    Each group of equally long spans is summed as the rows of one gathered
    matrix.  A row's sum equals ``ndarray.sum`` of that span's slice bit
    for bit; ``np.add.reduceat`` adds in another order and does not.  The
    harness passes the power as imputed, so the energies show any miss.
    """
    sums = np.empty(spans.actual.size)
    for rows, index in spans.groups:
        sums[rows] = imputed.values[index].sum(axis=1)
    return sums * resolution_hours(imputed.resolution)


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
    spans: GapSpans,
    imputed: PowerSeries,
    runtime_seconds: float,
) -> MethodScore:
    """Score a method's imputed power against the original power ``actual``.

    ``mask`` is the degraded series' missing power indices, and ``spans``
    are its gaps as ``gap_spans`` groups them.
    """
    mape = mape_p(actual, imputed, mask)
    wape = wape_e(spans.actual, gap_energies(imputed, spans))
    return MethodScore(method, mape.value, wape, runtime_seconds, mape.skipped)


def _cell_seed(seed: int, series_index: int, share: float) -> int:
    mixed = np.random.SeedSequence([seed, series_index, round(share * 1_000_000)])
    return int(mixed.generate_state(1)[0])


def _evaluate_cell(payload) -> list[ScoreRow]:
    (sid, series, share, seed, series_index, methods, weights, max_gap_len,
     single_fraction) = payload
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
        spans = gap_spans(detect_gaps(degraded))
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
                plan = plan_cpi(filled)
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
            score = score_method(method, actual, mask, spans, imputed, elapsed)
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
    max_gap_len: int | None = None,
    single_fraction: float = 0.05,
    parallelism: int = 1,
) -> EvaluationReport:
    """Degrade, impute and score every (series, share, seed, method) cell.

    Method failures are recorded per cell instead of aborting the run.
    The method name sets whether copy-paste scales (``CPI_METHODS``).
    Aggregates are trimmed means per (share, method); groups smaller than
    five fall back to the plain mean and are flagged in the warnings.
    Cells run in ``parallelism`` worker processes, which must be at least 1.
    The degradation settings of every share are checked, and an empty
    share or seed list is rejected, before any series is degraded.
    """
    if not series_set:
        raise MetricError("evaluation needs at least one series")
    if parallelism < 1:
        raise MetricError(f"parallelism must be at least 1, got {parallelism}")
    if not shares:
        raise MetricError("evaluation needs at least one share")
    if not seeds:
        raise MetricError("evaluation needs at least one seed")
    for share in shares:
        MissingnessSpec(share, max_gap_len, single_fraction)
    cells = [
        (sid, series, share, seed, i, tuple(methods), weights, max_gap_len,
         single_fraction)
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


def _weight_grid(
    energy_range: tuple[int, int],
    weekday_range: tuple[int, int],
    season_range: tuple[int, int],
) -> list[tuple[int, int, int]]:
    """Every integer (energy, weekday, season) triple of the ranges, all-zero excluded.

    The bounds are checked here because the batched match never builds a
    ``DissimilarityWeights`` for most triples.
    """
    named = (("energy", energy_range), ("weekday", weekday_range), ("season", season_range))
    for name, (lo, hi) in named:
        if min(lo, hi) < 0:
            raise ValidationError("dissimilarity weights must be non-negative")
        if lo > hi:
            raise MetricError(f"{name} weight range {lo}:{hi} is reversed: {lo} exceeds {hi}")
    triples = [
        (w_energy, w_weekday, w_season)
        for w_energy in range(energy_range[0], energy_range[1] + 1)
        for w_weekday in range(weekday_range[0], weekday_range[1] + 1)
        for w_season in range(season_range[0], season_range[1] + 1)
        if w_energy + w_weekday + w_season != 0
    ]
    if not triples:
        raise MetricError("weight grid is empty")
    return triples


def grid_search_weights(
    calibration: Sequence[tuple[str, EnergySeries]],
    energy_range: tuple[int, int] = (1, 20),
    weekday_range: tuple[int, int] = (0, 10),
    season_range: tuple[int, int] = (1, 20),
    share: float = 0.1,
    seed: int = 0,
    max_gap_len: int | None = None,
) -> GridSearchResult:
    """Exhaustive integer grid search minimizing the aggregate MAPE.

    The series are handled one at a time, so only one plan is held in
    memory.  Each series is degraded and planned once, and every weight
    triple is matched in one batch on the plan's match table
    (``cpi.match_weights``).  Triples that pick the same donor for every
    day with gaps give the same imputation, so each distinct assignment is
    imputed and scored once, and its MAPE is that of all its triples.  The
    aggregate over the series is the trimmed mean (plain mean below five
    series).  Ties are broken by the smaller weight sum, then
    lexicographically.  Reversed or negative ranges, an empty grid and
    bad degradation settings are rejected before any series is degraded.  The
    calibration set must be disjoint from the evaluation set (caller's
    responsibility).
    """
    if not calibration:
        raise MetricError("grid search needs a non-empty calibration set")
    MissingnessSpec(share, max_gap_len)
    triples = _weight_grid(energy_range, weekday_range, season_range)
    mapes = np.empty((len(triples), len(calibration)))
    for index, (sid, series) in enumerate(calibration):
        spec = MissingnessSpec(
            share=share, max_gap_len=max_gap_len, seed=_cell_seed(seed, index, share)
        )
        degraded, _ = insert_missing(series, spec)
        plan = plan_cpi(degraded)
        actual = energy_to_power(series)
        mask = np.flatnonzero(np.isnan(energy_to_power(degraded).values))
        groups: dict[bytes, list[int]] = {}
        for t, donors in enumerate(match_weights(plan.table, triples)):
            groups.setdefault(donors.tobytes(), []).append(t)
        for members in groups.values():
            weights = DissimilarityWeights(*triples[members[0]])
            mapes[members, index] = mape_p(actual, run_plan(plan, weights).imputed_power,
                                           mask).value
        del plan  # before the next series is planned: one plan in memory at a time

    def aggregate(values: list[float]) -> float:
        return trimmed_mean(values) if len(values) >= 5 else float(np.mean(values))

    scores = [(*triple, aggregate(row)) for triple, row in zip(triples, mapes.tolist())]
    best = min(scores, key=lambda s: (s[3], s[0] + s[1] + s[2], s[:3]))
    return GridSearchResult(best=DissimilarityWeights(*best[:3]), scores=scores)
