"""Error measures, aggregation, weight tuning and the benchmark harness.

The harness degrades complete ground-truth series, runs each imputation
method, and scores pattern fidelity (MAPE over the missing power values)
and energy conservation (WAPE over the per-gap energies), with wall-clock
runtime measured around the imputation only.  ``cpi`` and ``cpi_noscale``
run from one plan and one match per degraded series; the runtime of each
is that shared planning and matching time plus its own pasting and
scaling, so it is still what the method costs alone.  Both measures read
the power each method imputed (for copy-paste: pasted, then scaled if
scaling is on), never the power re-derived from the rebuilt energy, whose
last gap slot absorbs any energy miss; so a method that does not conserve
energy scores a nonzero WAPE.  ``METHODS`` is the one table of methods
and ``method_imputer`` the one entry that imputes by name.  The cells of
``evaluate`` and ``grid_search_weights`` are degraded by one ``_degrade``,
imputed by one ``cpi._imputer``, scored by one MAPE rule and aggregated
by one ``_aggregate``; ``_format_csv`` writes both report CSVs.  The
tuner scores every distinct donor assignment of a series from one paste
and its pieces (``_covering_scores``).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import baselines
from .cpi import (
    DEFAULT_WEIGHTS,
    CpiPlan,
    DissimilarityWeights,
    GapFill,
    _gather,
    _imputer,
    _piece_slots,
    _scale_gap,
    complete_from_power,
    impute_cpi,
    run_plan,
)
from .errors import MeterfillError, MetricError, ValidationError
from .gapgen import MissingnessSpec, insert_missing
from .series import (
    EnergySeries,
    GapArrays,
    PowerSeries,
    detect_gaps,
    energy_to_power,
    resolution_hours,
)

ZERO_ACTUAL_THRESHOLD = 1e-9  # kW; |actual| below this is excluded from MAPE

# Every method by name: a copy-paste method's ``scale``, or the name of a
# baseline's power fill, looked up in ``meterfill.baselines`` at each call.
METHODS = {
    "cpi": True,
    "cpi_noscale": False,
    "linear": "impute_linear",
    "histavg": "impute_hist_avg",
    "seasonal": "impute_seasonal_model",
}
BENCHMARK_METHODS = ("cpi", "linear", "histavg", "seasonal")


def method_imputer(method: str, kind: str = "energy", weights=DEFAULT_WEIGHTS):
    """``method``'s imputation of a series of ``kind``, as a function of the series.

    Copy-paste refuses a power input here, before it is read.  A baseline's
    fill of an energy series is completed, with an audit of gaps without donors.
    """
    entry = METHODS[method]
    if isinstance(entry, bool):
        if kind == "power":
            raise ValidationError("copy-paste imputation requires an energy input")
        return lambda es: impute_cpi(es, weights, scale=entry)
    if kind == "power":
        return lambda ps: getattr(baselines, entry)(ps)
    return lambda es: complete_from_power(
        es, getattr(baselines, entry)(energy_to_power(es)),
        tuple(GapFill(g, (), None) for g in detect_gaps(es).records),
    )


class MapeResult(NamedTuple):
    value: float
    skipped: int


def mape_p(actual: PowerSeries, imputed: PowerSeries, mask: Iterable[int]) -> MapeResult:
    """Mean absolute percentage error over the masked power values.

    ``mask`` is any iterable of integer power indices (an integer array, a
    list, a set, a range or a generator) in ``[0, actual.n)``; duplicates
    count once, and a strictly increasing integer array is used as the
    index as it is.  Any other index, or series that differ in length,
    start or resolution, raise ``MetricError``.  Terms whose actual power
    is smaller than ``ZERO_ACTUAL_THRESHOLD`` in magnitude are excluded and
    counted in ``skipped``.
    """
    if actual.n != imputed.n:
        raise MetricError(
            f"actual and imputed series differ in length: {actual.n} and {imputed.n}"
        )
    if (actual.start, actual.resolution) != (imputed.start, imputed.resolution):
        raise MetricError("actual and imputed series differ in start or resolution")
    idx = _sorted_index(mask, actual.n)
    truth = actual.values[idx]
    guess = imputed.values[idx]
    if np.isnan(truth).any() or np.isnan(guess).any():
        raise MetricError("both series must be complete over the mask")
    keep = np.abs(truth) >= ZERO_ACTUAL_THRESHOLD
    skipped = int((~keep).sum())
    if not keep.any():
        raise MetricError("no evaluable points: all actual values are zero")
    return MapeResult(float(_relative_errors(guess[keep][None], truth[keep])[0]), skipped)


def _relative_errors(guesses: np.ndarray, truth: np.ndarray) -> list:
    """Each row's mean of ``|guess - truth| / |truth|``, the terms taken in place in ``guesses``.

    ``mape_p`` scores one row and ``_covering_scores`` many.  Each row is
    reduced by its own 1-D ``mean``, so every score is a one-row ``mape_p``'s
    bit for bit: on a column-major matrix, ``mean(axis=1)`` adds in another order.
    """
    guesses -= truth
    guesses /= truth  # |a / b| is |a| / |b| bit for bit: rounding is symmetric in sign
    np.abs(guesses, out=guesses)
    return [row.mean() for row in guesses]


def _sorted_index(mask: Iterable[int], n: int) -> np.ndarray:
    """The sorted distinct indices of ``mask``, checked to lie in ``[0, n)``.

    A strictly increasing one-dimensional integer array whose entries lie in
    range already is that index (``np.flatnonzero`` gives one) and is used
    as it is.
    """
    if (
        isinstance(mask, np.ndarray)
        and mask.dtype.kind in "iu"
        and mask.ndim == 1
        and mask.size
        and mask[0] >= 0
        and mask[-1] < n
        and (mask[1:] > mask[:-1]).all()
    ):
        return mask
    raw = np.asarray(mask if isinstance(mask, np.ndarray) else list(mask))
    if raw.size == 0:
        raise MetricError("no evaluable points: empty mask")
    if raw.dtype.kind not in "iuf" or raw.ndim != 1:
        raise MetricError(
            f"mask must be a flat sequence of integer indices, got a {raw.ndim}-d {raw.dtype} array"
        )
    bad = raw[(raw != np.trunc(raw)) | (raw < 0) | (raw >= n)]
    if bad.size:
        raise MetricError(f"mask index {bad[0]} is not an integer in [0, {n})")
    # The sorted distinct indices, from a bitmap: np.unique (numpy 2.4) took
    # 30 times as long on a one-year mask at 30 % share.
    masked = np.zeros(n, dtype=bool)
    masked[raw.astype(np.int64)] = True
    return np.flatnonzero(masked)


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


def gap_spans(gaps: GapArrays) -> GapSpans:
    """Group the power spans of the ``detect_gaps`` table by length, for ``gap_energies``.

    Every span's power indices are laid out in one flat index
    (``_piece_slots``), by length and then in gap order; each group's
    matrix is a reshaped slice of it.
    """
    runs = np.stack([gaps.first_missing, gaps.last_missing + 1], 1)
    length = runs[:, 1] - runs[:, 0]
    order = np.argsort(length, kind="stable")
    flat, span = _piece_slots(runs[order])
    edges = np.flatnonzero(np.diff(length[order], prepend=0, append=0))
    bounds, edges = np.searchsorted(span, edges).tolist(), edges.tolist()
    groups = tuple(
        (order[a:b], flat[lo:hi].reshape(b - a, -1))
        for a, b, lo, hi in zip(edges, edges[1:], bounds, bounds[1:])
    )
    return GapSpans(gaps.actual_energy, groups)


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
    actual: PowerSeries,
    mask: np.ndarray,
    spans: GapSpans,
    imputed: PowerSeries,
) -> tuple[MapeResult, float]:
    """The MAPE and WAPE of a method's imputed power against ``actual``.

    ``mask`` is the degraded series' missing power indices, and ``spans``
    are its gaps as ``gap_spans`` groups them.
    """
    mape = mape_p(actual, imputed, mask)
    return mape, wape_e(spans.actual, gap_energies(imputed, spans))


def _cell_seed(seed: int, series_index: int, share: float) -> int:
    mixed = np.random.SeedSequence([seed, series_index, round(share * 1_000_000)])
    return int(mixed.generate_state(1)[0])


def _degrade(
    series: EnergySeries, index: int, share: float, seed: int, max_gap_len: int | None,
    single_fraction: float = 0.05,
) -> tuple:
    """Series ``index`` degraded as its cell is, its power, the degraded power and its mask."""
    spec = MissingnessSpec(share, max_gap_len, single_fraction, _cell_seed(seed, index, share))
    degraded, _ = insert_missing(series, spec)
    actual = energy_to_power(series)
    degraded_power = energy_to_power(degraded)
    return degraded, actual, degraded_power, np.flatnonzero(np.isnan(degraded_power.values))


def _aggregate(values: Sequence[float]) -> float:
    """The trimmed mean of ``values``, or their plain mean below five values."""
    return trimmed_mean(values) if len(values) >= 5 else float(np.mean(values))


def _evaluate_cell(payload) -> list[ScoreRow]:
    sid, methods, weights, series, index, share, seed, max_gap_len, single_fraction = payload

    def failed(method: str, exc: MeterfillError) -> ScoreRow:
        return ScoreRow(sid, share, seed, method, float("nan"), float("nan"), 0.0, 0, str(exc))

    try:
        degraded, actual, degraded_power, mask = _degrade(
            series, index, share, seed, max_gap_len, single_fraction
        )
        spans = gap_spans(detect_gaps(degraded))
    except MeterfillError as exc:
        return [failed(m, exc) for m in methods]

    # Both copy-paste methods paste from one plan and match (``_imputer``), each charged its time.
    plan_s, paste = 0.0, None
    if any(isinstance(METHODS[m], bool) for m in methods):
        started = time.perf_counter()
        try:
            paste = _imputer(degraded, [astuple(weights)])[0]
        except MeterfillError as exc:
            paste = exc
        plan_s = time.perf_counter() - started

    rows = []
    for method in methods:
        started, shared_s = time.perf_counter(), 0.0
        try:
            entry = METHODS[method]
            if isinstance(entry, bool):
                if isinstance(paste, MeterfillError):
                    raise paste
                shared_s = plan_s
                imputed = paste(entry).imputed_power
            else:
                imputed = method_imputer(method, "power")(degraded_power)
            elapsed = time.perf_counter() - started + shared_s
            mape, wape = score_method(actual, mask, spans, imputed)
        except MeterfillError as exc:
            rows.append(failed(method, exc))
        else:
            rows.append(ScoreRow(sid, share, seed, method, mape.value, wape, elapsed, mape.skipped))
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
    Each method is looked up by name in ``METHODS``.
    Aggregates are ``_aggregate``'s trimmed means per (share, method);
    groups smaller than five fall back to the plain mean and are flagged in
    the warnings.
    ``parallelism`` must be at least 1.  Cells run in as many worker
    processes, but in no more than there are cells, and in this process
    when that is one.
    Every share's and seed's degradation settings are checked, and an
    empty or repeating share, seed or method list or an unknown method
    rejected, before any series is degraded.
    """
    if not series_set:
        raise MetricError("evaluation needs at least one series")
    if parallelism < 1:
        raise MetricError(f"parallelism must be at least 1, got {parallelism}")
    for name, values in (("share", shares), ("seed", seeds), ("method", methods)):
        if len(values) == 0:
            raise MetricError(f"evaluation needs at least one {name}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            entry = repeated[0]  # a numpy entry is named as its Python scalar
            entry = entry.item() if isinstance(entry, np.generic) else entry
            raise MetricError(f"{name} {entry!r} is listed more than once")
    for method in methods:
        if method not in METHODS:
            raise MetricError(f"unknown method {method!r}")
    for share in shares:
        for seed in seeds:
            MissingnessSpec(share, max_gap_len, single_fraction, seed)
    cells = [
        (sid, tuple(methods), weights, series, i, share, seed, max_gap_len, single_fraction)
        for i, (sid, series) in enumerate(series_set)
        for share in shares
        for seed in seeds
    ]
    workers = min(parallelism, len(cells))
    if workers > 1:
        import concurrent.futures  # here, so that single-process runs never load it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
            if len(group) < 5:
                warnings.append(
                    f"share={share} {method}: only {len(group)} scores, "
                    "trimmed mean skipped (plain mean reported)"
                )
            aggregates.append(
                AggregateRow(
                    share, method,
                    _aggregate([r.mape_p for r in group]),
                    _aggregate([r.wape_e for r in group]),
                    float(np.mean([r.runtime_s for r in group])),
                )
            )
    return EvaluationReport(rows=rows, aggregates=aggregates, warnings=warnings)


REPORT_COLUMNS = (
    "series_id", "share", "seed", "method", "mape_p", "wape_e", "runtime_s", "skipped_terms",
)
AGGREGATE_COLUMNS = ("share", "method", "mape_p_trimmed", "wape_e_trimmed", "runtime_s_mean")


def _format_csv(columns: tuple[str, ...], records) -> str:
    """A header of ``columns``, then each record's fields of those names, floats by repr."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerows([getattr(record, name) for name in columns] for record in records)
    return out.getvalue()


def format_report_csv(report: EvaluationReport) -> str:
    return _format_csv(REPORT_COLUMNS, report.rows)


def format_aggregates_csv(report: EvaluationReport) -> str:
    return _format_csv(AGGREGATE_COLUMNS, report.aggregates)


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

    The bounds are checked here, before any series is degraded; the batched
    match would refuse a negative triple only once a series is planned.
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


# Bounds on what the tuner's scorer holds at once: each block of pasted
# pieces spans at most this many missing slots (a longer piece is a block of
# its own), and each block of scored assignments this many matrix entries.
_PIECE_SLOTS = 1 << 15
_SCORE_ENTRIES = 1 << 16


def _covering_scores(
    plan: CpiPlan, actual: PowerSeries, mask: np.ndarray, assignments: np.ndarray
) -> np.ndarray:
    """The MAPE over ``mask`` of each row of ``assignments``, from one paste and its pieces.

    Each row of ``assignments`` is a ``donors`` row of a batch match on
    ``plan``'s table, and ``mask`` is a sorted index array that holds
    every power index the plan pastes into.  Each score is
    ``mape_p(actual, run_plan(plan, row).imputed_power, mask).value`` bit
    for bit, with the same errors.
    A gap's pasted and scaled values depend only on the donors of its own
    days, since each slot copies from its own day's donor and each gap's
    factor or fallback reads only its own span.  The rows give gap k C_k
    distinct donor tuples over its days, its choices, and row c of a
    (max C_k x mask) matrix holds choice c of each gap that has one.  Every
    row starts as the ``run_plan`` of the first assignment, which makes
    choice 0 of every gap and fills the interpolated singles outside every
    gap; ``mape_p`` scores that assignment.  Each other choice is a piece,
    pasted from the first row that makes it: the pieces, in gap and then
    choice order, are gathered (``_gather``) and scaled (``_scale_gap``)
    in blocks of at most ``_PIECE_SLOTS`` slots, so a bad donor raises from
    the piece and day that pasting them one by one would reach first.  The
    other assignments are scored in blocks of at most ``_SCORE_ENTRIES``
    entries: each one's imputed power over the kept slots (truth at least
    ``ZERO_ACTUAL_THRESHOLD`` in magnitude) is gathered as a row of a
    matrix from the row of its gap's choice, and the rows are scored by
    ``mape_p``'s own rule (``_relative_errors``).  A scaled piece that
    came out NaN raises ``mape_p``'s error, after the first score.
    """
    layout = plan.layout
    count = len(layout.gap_slots)
    # Each mask slot's gap; the interpolated singles take the extra last
    # column of ``choice``, which is 0 for every row.
    slots = np.searchsorted(mask, layout.missing)  # each missing slot's place in the mask
    slot_gap = np.full(mask.size, count)
    slot_gap[slots] = np.repeat(np.arange(count), np.diff(layout.gap_slots).ravel())
    # Choice c of gap k is the c-th distinct donor tuple of its days, in
    # row order.
    choice = np.zeros((len(assignments), count + 1), dtype=np.int64)
    for k, (lo, hi) in enumerate(layout.gap_rows.tolist()):
        numbers: dict[bytes, int] = {}
        choice[:, k] = [numbers.setdefault(days.tobytes(), len(numbers))
                        for days in assignments[:, lo:hi]]
    # Each choice c >= 1 is a piece, made by the first row whose number
    # exceeds those of every row before it; pieces go in gap, then choice, order.
    new = choice[1:] > np.maximum.accumulate(choice, axis=0)[:-1]
    gap, holder = np.nonzero(new.T)
    holder += 1
    made = choice[holder, gap]

    base = run_plan(plan, assignments[0]).imputed_power
    pastes = np.empty((int(choice.max(initial=0)) + 1, mask.size))
    pastes[:] = base.values[mask]
    # Blocks of whole pieces, cut where the slots reach the bound.
    ends = np.cumsum(np.diff(layout.gap_slots[gap]).ravel())
    dt, lo, nan = resolution_hours(plan.power.resolution), 0, False
    while lo < gap.size:
        reach = (ends[lo - 1] if lo else 0) + _PIECE_SLOTS
        hi = max(lo + 1, int(np.searchsorted(ends, reach, side="right")))
        values, position, piece = _gather(plan.power, layout, assignments, gap[lo:hi], holder[lo:hi])
        _scale_gap(values, layout.gaps, dt, gap[lo:hi])
        pastes[made[lo:hi][piece], slots[position]] = values
        nan = nan or bool(np.isnan(values).any())
        lo = hi

    scores = np.empty(len(assignments))
    scores[0] = mape_p(actual, base, mask).value
    if nan:  # a scaled piece that is NaN reaches some assignment's guess
        raise MetricError("both series must be complete over the mask")
    truth = actual.values[mask]
    kept = np.flatnonzero(np.abs(truth) >= ZERO_ACTUAL_THRESHOLD)
    truth = truth[kept]
    columns = slot_gap[kept]
    step = max(1, _SCORE_ENTRIES // kept.size)
    for lo in range(1, len(assignments), step):
        guesses = pastes[choice[lo : lo + step].take(columns, axis=1), kept]  # row-major
        scores[lo : lo + step] = _relative_errors(guesses, truth)
    return scores


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
    memory.  Each series is degraded, planned and matched as an ``evaluate``
    cell is (``_degrade``, ``cpi._imputer``), every weight triple in one
    batch; a series with no gap left once its singles are interpolated
    scores its one paste for every triple.  Triples that pick the same donor
    for every day with gaps give the same imputation, and its MAPE is that
    of all its triples.  The distinct assignments are scored by
    ``_covering_scores``, which runs ``run_plan`` and ``mape_p`` once, on
    the first of them, pastes each other distinct donor choice of each gap
    once, in bounded blocks of pieces, and scores the rest in bounded blocks
    of rows: one completion per series, not one per assignment.  The
    aggregate over the series is ``_aggregate``'s, as in ``evaluate``.  Ties
    are broken by the smaller weight sum, then lexicographically.  Reversed
    or negative ranges, an empty grid and bad degradation settings (a
    negative seed among them) are rejected before any series is degraded.
    The calibration set must be disjoint from the evaluation set (caller's
    responsibility).
    """
    if not calibration:
        raise MetricError("grid search needs a non-empty calibration set")
    MissingnessSpec(share, max_gap_len, seed=seed)  # bad settings fail before any degrading
    triples = _weight_grid(energy_range, weekday_range, season_range)
    mapes = np.empty((len(triples), len(calibration)))
    for index, (sid, series) in enumerate(calibration):
        degraded, actual, _, mask = _degrade(series, index, share, seed, max_gap_len)
        paste, plan, donors = _imputer(degraded, triples)
        if plan is None:  # no gap: every triple fills it alike
            mapes[:, index] = mape_p(actual, paste(True).imputed_power, mask).value
            continue
        numbers: dict[bytes, int] = {}
        which = np.array([numbers.setdefault(row.tobytes(), len(numbers)) for row in donors])
        assignments = donors[np.unique(which, return_index=True)[1]]
        del paste, donors  # paste views the batch; only the distinct assignments are kept
        mapes[:, index] = _covering_scores(plan, actual, mask, assignments)[which]
        del plan  # before the next series is planned: one plan in memory at a time

    scores = [(*triple, _aggregate(row)) for triple, row in zip(triples, mapes.tolist())]
    best = min(scores, key=lambda s: (s[3], s[0] + s[1] + s[2], s[:3]))
    return GridSearchResult(best=DissimilarityWeights(*best[:3]), scores=scores)
