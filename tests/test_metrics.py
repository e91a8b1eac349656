"""Tests for error measures, aggregation and the evaluation harness."""

import re
import time
from dataclasses import fields, replace
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meterfill import (
    DissimilarityWeights,
    EnergySeries,
    ImputationError,
    MetricError,
    MissingnessSpec,
    ValidationError,
    evaluate,
    grid_search_weights,
    impute_cpi,
    insert_missing,
    mape_p,
    synthetic_series,
    synthetic_suite,
    trimmed_mean,
    wape_e,
)
from meterfill import cpi, metrics
from meterfill.cpi import plan_cpi, run_plan
from meterfill.metrics import (
    METHODS,
    _cell_seed,
    _degrade,
    format_aggregates_csv,
    format_report_csv,
    gap_spans,
    score_method,
)
from meterfill.series import Gap, GapArrays, detect_gaps

import score_oracle
from conftest import power
from grid_oracle import grid_search_per_triple


# ---------------------------------------------------------------------------
# MAPE over missing power values
# ---------------------------------------------------------------------------


def test_mape_hand_example():
    actual = power([9.0, 2.0, 4.0, 9.0])
    imputed = power([9.0, 3.0, 3.0, 9.0])
    result = mape_p(actual, imputed, [1, 2])
    assert result.value == pytest.approx(0.375)
    assert result.skipped == 0


def test_perfect_imputation_scores_zero():
    actual = power([1.0, 2.0, 3.0])
    assert mape_p(actual, actual, [0, 1, 2]).value == 0.0


def test_zero_actual_terms_are_excluded_and_counted():
    actual = power([0.0, 2.0])
    imputed = power([5.0, 3.0])
    result = mape_p(actual, imputed, [0, 1])
    assert result.value == pytest.approx(0.5)
    assert result.skipped == 1


def test_all_zero_actuals_is_an_error():
    with pytest.raises(MetricError, match="no evaluable points"):
        mape_p(power([0.0, 0.0]), power([1.0, 1.0]), [0, 1])
    with pytest.raises(MetricError, match="no evaluable points"):
        mape_p(power([1.0]), power([1.0]), [])


def test_mape_requires_completeness_over_the_mask():
    with pytest.raises(MetricError, match="complete"):
        mape_p(power([np.nan, 1.0]), power([1.0, 1.0]), [0])


def set_based_mape(actual, imputed, mask):
    """MAPE over the distinct mask indices, as first written with a Python set."""
    idx = np.asarray(sorted(set(int(i) for i in mask)), dtype=np.int64)
    truth, guess = actual.values[idx], imputed.values[idx]
    keep = np.abs(truth) >= 1e-9
    return float(np.mean(np.abs(guess[keep] - truth[keep]) / np.abs(truth[keep]))), int((~keep).sum())


@pytest.mark.parametrize(
    "make_mask",
    [
        lambda: [7, 3, 11, 3, 0, 7],
        lambda: {19, 4, 8},
        lambda: range(2, 15, 3),
        lambda: (i * i for i in range(5)),
        lambda: np.array([12, 1, 12, 5, 18]),
        lambda: np.array([2.0, 6.0, 2.0]),
        lambda: np.arange(20, dtype=np.uint16),
        lambda: np.flatnonzero(np.arange(20) % 3 == 1),
        lambda: np.array([0]),
        lambda: np.array([19]),
        lambda: np.array([1, 4, 9, 18], dtype=np.int32),
    ],
    ids=["unsorted-duplicated", "set", "range", "generator", "ndarray", "float-ndarray", "uint",
         "sorted-int64", "first-only", "last-only", "sorted-int32"],
)
def test_mape_matches_the_set_based_form(make_mask):
    rng = np.random.default_rng(4)
    truth = rng.uniform(0.5, 3.0, 20)
    truth[4] = 0.0
    actual, imputed = power(truth), power(truth * rng.uniform(0.7, 1.3, 20))
    result = mape_p(actual, imputed, make_mask())
    assert (result.value, result.skipped) == set_based_mape(actual, imputed, make_mask())


@pytest.mark.parametrize(
    "mask, imputed_n, message",
    [
        ([-1], 4, r"-1 is not an integer in \[0, 4\)"),
        ([1, 4], 4, r"index 4 is not"),
        ([10**9], 4, r"1000000000 is not"),
        ([0, 1.5], 4, r"1.5 is not an integer"),
        ([float("nan")], 4, "nan is not an integer"),
        ([True, False], 4, "integer indices"),
        (np.zeros((2, 1), dtype=int), 4, "integer indices"),
        ([0, 1], 3, "differ in length: 4 and 3"),
        (np.array([-1, 2]), 4, r"-1 is not an integer in \[0, 4\)"),
        (np.array([1, 4]), 4, r"index 4 is not an integer in \[0, 4\)"),
    ],
    ids=["negative", "past-the-end", "huge", "fractional", "nan", "bool", "nested", "length",
         "sorted-negative", "sorted-past-the-end"],
)
def test_mape_rejects_a_bad_mask_or_length(mask, imputed_n, message):
    actual = power([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(MetricError, match=message):
        mape_p(actual, power([1.0] * imputed_n), mask)


# ---------------------------------------------------------------------------
# WAPE over gap energies
# ---------------------------------------------------------------------------


def test_wape_hand_example():
    assert wape_e([10.0, 20.0], [9.0, 22.0]) == pytest.approx(0.1)


def test_wape_zero_for_exact_energies():
    assert wape_e([5.0, 7.0], [5.0, 7.0]) == 0.0


def test_wape_zero_total_is_an_error():
    with pytest.raises(MetricError, match="zero"):
        wape_e([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(MetricError):
        wape_e([], [])


def test_wape_accepts_any_iterable():
    expected = wape_e([10.0, 20.0], [9.0, 22.0])
    assert wape_e(np.array([10.0, 20.0]), iter([9.0, 22.0])) == expected
    assert wape_e((e for e in (10.0, 20.0)), np.array([9, 22])) == expected


def _table(gaps):
    """The ``detect_gaps`` table whose records are ``gaps``."""
    columns = [[g.first_missing for g in gaps], [g.last_missing for g in gaps]]
    columns += [[np.nan if v is None else v for v in values] for values in (
        [g.anchor_before for g in gaps], [g.anchor_after for g in gaps],
        [g.actual_energy for g in gaps])]
    return GapArrays(*(np.array(c, dtype=np.int64) for c in columns[:2]),
                     *(np.array(c, dtype=np.float64) for c in columns[2:]),
                     np.array([g.anchored for g in gaps], dtype=bool))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def spans_over_power(draw):
    """Gaps laid over a power array: repeated lengths, -0.0, mixed signs and scales."""
    lengths = draw(st.lists(
        st.one_of(st.sampled_from([1, 2, 2, 3, 17, 96]), st.integers(1, 300)),
        min_size=1, max_size=40,
    ))
    lengths += draw(st.lists(st.integers(8193, 20000), max_size=2))
    lengths = draw(st.permutations(lengths))
    spacing = draw(st.lists(st.integers(1, 5), min_size=len(lengths) + 1,
                            max_size=len(lengths) + 1))
    gaps, position = [], spacing[0]
    for length, space in zip(lengths, spacing[1:]):
        gaps.append(Gap(position, position + length - 1, 0.0, 1.0, 1.0))
        position += length + space
    seed = draw(st.integers(0, 2**32 - 1))
    low = draw(st.integers(-8, 11))
    high = draw(st.integers(low + 1, 12))
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(low, high, position) * rng.choice([-1.0, 1.0], position)
    values[rng.random(position) < 0.05] = -0.0
    resolution = draw(st.sampled_from([timedelta(minutes=5), timedelta(minutes=15),
                                       timedelta(hours=1)]))
    return power(values, resolution=resolution), gaps, rng.uniform(-1e6, 1e6, len(gaps))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spans_over_power())
def test_grouped_gap_energies_match_the_per_gap_slices(case):
    imputed, gaps, actual_energies = case
    actual_gaps = [replace(g, actual_energy=float(e)) for g, e in zip(gaps, actual_energies)]
    spans = metrics.gap_spans(_table(actual_gaps))
    expected = score_oracle.gap_energies(imputed, actual_gaps)
    energies = metrics.gap_energies(imputed, spans)
    assert bits(energies) == bits(expected)
    assert bits(spans.actual) == bits([g.actual_energy for g in actual_gaps])
    assert bits([wape_e(spans.actual, energies)]) == bits(
        [wape_e([g.actual_energy for g in actual_gaps], expected)]
    )


def test_gap_spans_of_no_gaps_score_as_an_empty_list():
    spans = metrics.gap_spans(_table([]))
    assert spans.groups == () and spans.actual.size == 0
    assert metrics.gap_energies(power([1.0, 2.0]), spans).size == 0
    with pytest.raises(MetricError, match="non-empty"):
        wape_e(spans.actual, metrics.gap_energies(power([1.0, 2.0]), spans))


def test_unanchored_gaps_have_no_actual_energy():
    spans = metrics.gap_spans(_table([Gap(0, 1, None, 2.0, None), Gap(3, 4, 3.0, 4.0, 1.0)]))
    assert np.isnan(spans.actual[0]) and spans.actual[1] == 1.0


def test_gap_arrays_agree_with_the_gap_list():
    readings = np.cumsum(np.random.default_rng(8).uniform(0.0, 2.0, 40))
    readings[[0, 1, 7, 8, 9, 20, 38, 39]] = np.nan
    es = EnergySeries(datetime(2018, 1, 1), timedelta(hours=1), readings)
    arrays = detect_gaps(es)
    gaps = arrays.records
    spans = [(0, 1), (6, 9), (19, 20), (37, 38)]
    assert [(g.first_missing, g.last_missing) for g in gaps] == spans
    assert arrays.first_missing.tolist() == [g.first_missing for g in gaps]
    assert arrays.last_missing.tolist() == [g.last_missing for g in gaps]
    energies = [np.nan if g.actual_energy is None else g.actual_energy for g in gaps]
    assert np.array_equal(arrays.actual_energy, energies, equal_nan=True)
    assert np.isnan(arrays.actual_energy[[0, -1]]).all()
    assert arrays.anchored.tolist() == [g.anchored for g in gaps] == [False, True, True, False]
    assert _table(gaps).records == gaps


# ---------------------------------------------------------------------------
# Trimmed mean
# ---------------------------------------------------------------------------


def test_trimmed_mean_drops_two_from_each_side():
    assert trimmed_mean(range(1, 11)) == pytest.approx(5.5)


def test_trimmed_mean_of_five_is_the_median():
    assert trimmed_mean([9.0, 1.0, 5.0, 3.0, 7.0]) == 5.0


def test_trimmed_mean_of_equal_values():
    assert trimmed_mean([2.5] * 8) == 2.5


def test_trimmed_mean_needs_five_values():
    with pytest.raises(MetricError, match="at least 5"):
        trimmed_mean([1.0, 2.0, 3.0, 4.0])


def brute_force_trim(values):
    remaining = list(values)
    for _ in range(2):
        remaining.remove(max(remaining))
        remaining.remove(min(remaining))
    return sum(remaining) / len(remaining)


def test_trimmed_mean_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(200):
        values = rng.uniform(-100, 100, size=int(rng.integers(5, 40))).tolist()
        assert trimmed_mean(values) == pytest.approx(brute_force_trim(values), rel=1e-12)


def test_trimmed_mean_is_permutation_invariant_and_bounded():
    rng = np.random.default_rng(6)
    values = rng.uniform(0, 50, size=11)
    shuffled = values.copy()
    rng.shuffle(shuffled)
    assert trimmed_mean(values) == trimmed_mean(shuffled)
    survivors = np.sort(values)[2:-2]
    assert survivors.min() <= trimmed_mean(values) <= survivors.max()


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_suite():
    return synthetic_suite(6, base_seed=50, days=42)


def test_row_and_aggregate_counts(small_suite):
    report = evaluate(small_suite, shares=[0.05, 0.1], methods=["linear", "histavg"])
    assert len(report.rows) == 6 * 2 * 2
    assert len(report.aggregates) == 2 * 2
    assert report.warnings == []


def test_single_cell_report_flags_skipped_trimming(small_suite):
    report = evaluate(small_suite[:1], shares=[0.1], methods=["linear"])
    assert len(report.rows) == 1
    assert any("trimmed mean skipped" in w for w in report.warnings)


def test_evaluation_is_deterministic(small_suite):
    kwargs = dict(shares=[0.1], methods=["cpi", "linear"], seeds=[3])
    a = evaluate(small_suite, **kwargs)
    b = evaluate(small_suite, **kwargs)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.series_id, ra.method, ra.mape_p, ra.wape_e) == (
            rb.series_id, rb.method, rb.mape_p, rb.wape_e,
        )


def test_parallel_equals_serial(small_suite):
    kwargs = dict(shares=[0.1], methods=["linear", "histavg"], seeds=[1])
    serial = evaluate(small_suite, **kwargs, parallelism=1)
    parallel = evaluate(small_suite, **kwargs, parallelism=3)
    for ra, rb in zip(serial.rows, parallel.rows):
        assert ra.mape_p == rb.mape_p and ra.wape_e == rb.wape_e


@st.composite
def evaluation_grids(draw):
    """``evaluate`` arguments over one or two short hourly series."""
    days = draw(st.integers(21, 42))
    start = datetime(2020, 2, draw(st.integers(1, 28)), draw(st.sampled_from([0, 7, 13])))
    suite = synthetic_suite(draw(st.integers(1, 2)), base_seed=draw(st.integers(0, 999)),
                            days=days, slots_per_day=24, start=start)
    return dict(
        series_set=suite,
        shares=draw(st.lists(st.sampled_from([0.01, 0.05, 0.1, 0.3]), min_size=1, max_size=2,
                             unique=True)),
        methods=draw(st.lists(st.sampled_from(list(metrics.METHODS)), min_size=1, unique=True)),
        seeds=draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=2, unique=True)),
        weights=DissimilarityWeights(*draw(st.tuples(*[st.integers(1, 20)] * 3))),
        max_gap_len=draw(st.one_of(st.none(), st.integers(2, 48))),
    )


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(evaluation_grids())
def test_every_row_is_the_same_at_any_parallelism(kwargs):
    """Rows, aggregates and warnings agree at parallelism 1 and 2, runtimes aside."""
    serial, parallel = (evaluate(**kwargs, parallelism=p) for p in (1, 2))
    for a, b in [(serial.rows, parallel.rows), (serial.aggregates, parallel.aggregates)]:
        untimed = [
            [repr(replace(r, **{f: 0.0 for f in ("runtime_s", "runtime_s_mean")
                                if hasattr(r, f)})) for r in rows]
            for rows in (a, b)
        ]
        assert untimed[0] == untimed[1]
    assert serial.warnings == parallel.warnings


def test_evaluate_asks_for_no_more_workers_than_cells(small_suite):
    requested = []

    class InProcessPool:
        """Records the workers asked for and maps in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def untimed(report):
        return [repr(replace(r, runtime_s=0.0)) for r in report.rows]

    kwargs = dict(shares=[0.05, 0.1], methods=["cpi", "linear"])
    serial = evaluate(small_suite[:1], **kwargs, parallelism=1)
    with mock.patch("concurrent.futures.ProcessPoolExecutor", InProcessPool):
        pooled = evaluate(small_suite[:1], **kwargs, parallelism=64)
        alone = evaluate(small_suite[:1], **dict(kwargs, shares=[0.1]), parallelism=64)
    assert requested == [2]  # two cells; the one-cell grid ran in this process
    assert untimed(pooled) == untimed(serial)
    assert untimed(alone) == untimed(serial)[2:]


def test_each_caller_matches_once(small_suite):
    calls = []
    match_weights = cpi.match_weights

    def counted(table, triples):
        calls.append(len(triples))
        return match_weights(table, triples)

    suite = small_suite[:2]
    degraded, _ = insert_missing(suite[0][1], MissingnessSpec(share=0.1, seed=3))
    with (
        mock.patch.object(cpi, "match_weights", counted),
        mock.patch.object(metrics, "match_weights", counted),
    ):
        impute_cpi(degraded)
        assert calls == [1]
        report = evaluate(suite, shares=[0.05, 0.1], methods=["cpi", "linear", "cpi_noscale"])
        assert [r.error for r in report.rows] == [None] * 12
        assert calls[1:] == [1] * 4  # one per cell
        result = grid_search_weights(suite, (1, 3), (0, 2), (1, 3), share=0.1, seed=4)
        assert len(result.scores) == 27
        assert calls[5:] == [27, 27]  # one batch per series


def test_run_plan_derives_no_completed_power(small_suite):
    calls = []
    energy_to_power = cpi.energy_to_power

    def counted(es):
        calls.append(es.n)
        return energy_to_power(es)

    degraded, _ = insert_missing(small_suite[0][1], MissingnessSpec(share=0.1, seed=3))
    plan = plan_cpi(degraded)
    donors = cpi.match_weights(plan.table, [(5, 1, 10)])[0]
    with mock.patch.object(cpi, "energy_to_power", counted):
        result = cpi.run_plan(plan, donors)
        assert calls == []  # the harness and the tuner score the imputed power only
        first = result.completed_power
        assert result.completed_power is first
    assert calls == [degraded.n]
    assert [f.name for f in fields(result)] == ["completed_energy", "per_gap", "imputed_power"]


@pytest.mark.parametrize("parallelism", [0, -3])
def test_parallelism_below_one_is_an_error(small_suite, parallelism):
    with pytest.raises(MetricError, match=f"parallelism must be at least 1, got {parallelism}"):
        evaluate(small_suite[:1], shares=[0.1], methods=["linear"], parallelism=parallelism)


@pytest.mark.parametrize(
    "methods, plans",
    [(["cpi", "cpi_noscale"], 1), (["linear", "histavg", "seasonal"], 0)],
    ids=["copy-paste", "baselines"],
)
def test_one_cell_plans_once_and_only_for_copy_paste(small_suite, methods, plans):
    with mock.patch("meterfill.cpi.plan_cpi", wraps=plan_cpi) as planned:
        report = evaluate(small_suite[:1], shares=[0.1], methods=methods)
    assert planned.call_count == plans
    assert [r.error for r in report.rows] == [None] * len(methods)


def test_a_failed_plan_fails_both_copy_paste_rows_with_its_error():
    series = synthetic_series(9, days=20)
    degraded, _ = insert_missing(series, MissingnessSpec(share=0.3, seed=_cell_seed(0, 0, 0.3)))
    with pytest.raises(ImputationError, match="needs at least 14 complete days") as planning:
        impute_cpi(degraded)
    with mock.patch("meterfill.cpi.plan_cpi", wraps=plan_cpi) as planned:
        report = evaluate([("short", series)], shares=[0.3],
                          methods=["cpi", "linear", "cpi_noscale"])
    assert planned.call_count == 1
    assert [r.error for r in report.rows] == [str(planning.value), None, str(planning.value)]


def test_a_cell_of_isolated_singles_is_scored_without_a_plan():
    # Ten days are too few to plan, but interpolation alone fills singles.
    with mock.patch("meterfill.cpi.plan_cpi", wraps=plan_cpi) as planned:
        report = evaluate([("short", synthetic_series(9, days=10))], shares=[0.02],
                          methods=["cpi", "cpi_noscale"], single_fraction=1.0)
    assert planned.call_count == 0
    assert [(r.error, r.wape_e) for r in report.rows] == [(None, 0.0), (None, 0.0)]


@pytest.mark.parametrize(
    "days, share, single_fraction",
    [(365, 0.1, 0.05), (365, 0.3, 0.05), (10, 0.02, 1.0)],
    ids=["one-year-10", "one-year-30", "singles-only"],
)
def test_a_cells_copy_paste_rows_score_impute_cpis_own_imputation(days, share, single_fraction):
    series, weights = synthetic_series(9, days=days), DissimilarityWeights(3, 2, 7)
    report = evaluate([("s", series)], shares=[share], methods=["cpi", "cpi_noscale"],
                      seeds=[5], weights=weights, single_fraction=single_fraction)
    degraded, actual, _, mask = _degrade(series, 0, share, 5, None, single_fraction)
    spans = gap_spans(detect_gaps(degraded))
    for row in report.rows:
        result = impute_cpi(degraded, weights, scale=METHODS[row.method])
        assert bool(result.per_gap) == (days > 10)  # the singles-only cell pastes nothing
        mape, wape = score_method(actual, mask, spans, result.imputed_power)
        assert (row.error, row.mape_p, row.wape_e, row.skipped_terms) == (
            None, mape.value, wape, mape.skipped)


def test_each_copy_paste_runtime_includes_the_shared_plan(small_suite):
    def slow_plan(*args):
        time.sleep(0.05)
        return plan_cpi(*args)

    with mock.patch("meterfill.cpi.plan_cpi", slow_plan):
        report = evaluate(small_suite[:1], shares=[0.1], methods=["cpi", "cpi_noscale"])
    assert [r.error for r in report.rows] == [None, None]
    assert all(r.runtime_s >= 0.05 for r in report.rows)


def test_method_failures_are_recorded_not_raised():
    # Ten days hold too few complete days for copy-paste; the baseline still runs.
    report = evaluate(synthetic_suite(1, days=10, slots_per_day=24), shares=[0.1],
                      methods=["cpi", "linear"])
    errors = [r for r in report.rows if r.error]
    assert [r.method for r in errors] == ["cpi"]
    assert "complete days" in errors[0].error
    assert [a.method for a in report.aggregates] == ["linear"]


def test_cpi_conserves_energy_in_the_harness(small_suite):
    report = evaluate(small_suite, shares=[0.1], methods=["cpi"])
    for row in report.rows:
        assert row.error is None
        assert row.wape_e <= 1e-9


def test_unscaled_copy_paste_shows_its_energy_miss_in_the_harness(small_suite):
    report = evaluate(small_suite, shares=[0.1], methods=["cpi_noscale"])
    for row in report.rows:
        assert row.error is None
        assert row.wape_e > 1e-9


def test_report_csv_shapes(small_suite):
    report = evaluate(small_suite[:2], shares=[0.05], methods=["linear"])
    text = format_report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "series_id,share,seed,method,mape_p,wape_e,runtime_s,skipped_terms"
    assert len(lines) == 1 + len(report.rows)
    agg = format_aggregates_csv(report).strip().splitlines()
    assert agg[0] == "share,method,mape_p_trimmed,wape_e_trimmed,runtime_s_mean"
    assert len(agg) == 1 + len(report.aggregates)


def test_evaluate_takes_numpy_lists(small_suite):
    kwargs = dict(shares=[0.05, 0.1], methods=["linear", "histavg"], seeds=[0, 2])
    lists = evaluate(small_suite[:2], **kwargs)
    arrays = evaluate(small_suite[:2], **{k: np.array(v) for k, v in kwargs.items()})
    assert [replace(r, runtime_s=0.0) for r in arrays.rows] == [
        replace(r, runtime_s=0.0) for r in lists.rows
    ]
    assert [replace(a, runtime_s_mean=0.0) for a in arrays.aggregates] == [
        replace(a, runtime_s_mean=0.0) for a in lists.aggregates
    ]
    for name in ("share", "seed", "method"):
        empty = {**kwargs, f"{name}s": np.array([], dtype=np.asarray(kwargs[f"{name}s"]).dtype)}
        with pytest.raises(MetricError, match=f"evaluation needs at least one {name}"):
            evaluate(small_suite[:1], **empty)
    # A repeated entry is named as the Python scalar a list would give.
    for repeated, text in (
        (dict(shares=np.array([0.1, 0.05, 0.1])), "share 0.1"),
        (dict(seeds=np.array([1, 1])), "seed 1"),
        (dict(methods=np.array(["cpi", "linear", "cpi"])), "method 'cpi'"),
    ):
        with pytest.raises(MetricError, match=f"^{re.escape(text)} is listed more than once$"):
            evaluate(small_suite[:1], **{**kwargs, **repeated})


def test_report_csvs_write_numpy_floats_as_python_floats(small_suite):
    def text(shares):
        report = evaluate(small_suite[:1], shares=shares, methods=["linear"])
        report = replace(
            report,
            rows=[replace(r, runtime_s=0.5) for r in report.rows],
            aggregates=[replace(a, runtime_s_mean=0.5) for a in report.aggregates],
        )
        return format_report_csv(report), format_aggregates_csv(report)

    report, aggregates = text([np.float64(0.1)])
    assert (report, aggregates) == text([0.1])
    assert report.splitlines()[1].split(",")[1] == "0.1"
    assert aggregates.splitlines()[1].split(",")[0] == "0.1"


# ---------------------------------------------------------------------------
# Weight grid search
# ---------------------------------------------------------------------------


def test_single_grid_point_is_returned_unconditionally():
    suite = synthetic_suite(1, base_seed=60, days=42)
    result = grid_search_weights(
        suite, energy_range=(7, 7), weekday_range=(2, 2), season_range=(4, 4),
        share=0.1, seed=1,
    )
    assert result.best == DissimilarityWeights(7, 2, 4)
    assert len(result.scores) == 1


def test_grid_search_needs_a_calibration_set():
    with pytest.raises(MetricError, match="non-empty"):
        grid_search_weights([])


def test_ties_prefer_the_smaller_weight_sum():
    # With a single candidate day per weekday every weighting picks the same
    # donor, so all grid points tie and the smallest lexicographic wins.
    suite = synthetic_suite(1, base_seed=61, days=30)
    result = grid_search_weights(
        suite, energy_range=(1, 2), weekday_range=(0, 1), season_range=(1, 2),
        share=0.02, seed=5,
    )
    scores = {w[:3]: w[3] for w in result.scores}
    best = (result.best.energy, result.best.weekday, result.best.season)
    ties = [w for w, s in scores.items() if s == scores[best]]
    assert sum(best) == min(sum(t) for t in ties)


def test_seasonal_structure_prefers_the_season_weight():
    # Amplitude is driven by the day of the year and all weekdays share one
    # shape, so matching on season beats matching on weekday.
    import numpy as np
    from datetime import datetime, timedelta
    from meterfill import EnergySeries

    t = np.arange(120 * 24)
    doy = t // 24
    level = 1.0 + 0.8 * np.sin(2 * np.pi * doy / 365.0)
    shape = 1.0 + 0.5 * np.sin(2 * np.pi * (t % 24) / 24.0)
    rng = np.random.default_rng(9)
    p = level * shape * np.exp(rng.normal(0, 0.02, t.size))
    es = EnergySeries(
        start=datetime(2018, 1, 1),
        resolution=timedelta(hours=1),
        values=np.concatenate(([0.0], np.cumsum(p))),
    )
    result = grid_search_weights(
        [("cal", es)],
        energy_range=(1, 1), weekday_range=(0, 3), season_range=(1, 4),
        share=0.1, seed=2, max_gap_len=30,
    )
    assert result.best.season > result.best.weekday


def _with_boundary_gaps(series, spec):
    """``insert_missing``, then the first 5 and last 7 readings removed too."""
    degraded, mask = insert_missing(series, spec)
    values = np.array(degraded.values)
    values[:5] = values[-7:] = np.nan
    return EnergySeries(degraded.start, degraded.resolution, values), mask


@pytest.mark.parametrize(
    "suite, grid, options, boundary, wide",
    [
        (synthetic_suite(3, base_seed=70, days=60, slots_per_day=24),
         ((1, 4), (0, 2), (1, 4)), {"share": 0.1, "seed": 2}, False, False),
        # Six series: the aggregate is a trimmed mean.  Mid-day starts leave
        # partial boundary days; zero bounds put zero weights in the grid.
        (synthetic_suite(6, base_seed=80, days=42, slots_per_day=48,
                         start=datetime(2019, 12, 20, 13)),
         ((0, 2), (0, 2), (0, 3)), {"share": 0.2, "seed": 7}, False, False),
        # Leap year, short gaps, and unanchored gaps at both ends of every
        # series, whose days are matched without an energy total.
        (synthetic_suite(5, base_seed=90, days=70, slots_per_day=24,
                         start=datetime(2020, 2, 1)),
         ((1, 3), (0, 2), (1, 3)), {"share": 0.15, "seed": 3, "max_gap_len": 30}, True, False),
        # One quarter-hourly year: thousands of scored slots per assignment.
        ([("year", synthetic_series(3))], ((1, 2), (0, 1), (1, 2)), {"share": 0.1}, False, True),
    ],
    ids=["three-series", "six-series-mid-day", "boundary-gaps", "one-year"],
)
def test_grid_search_equals_the_per_triple_oracle(
    monkeypatch, suite, grid, options, boundary, wide
):
    """The tuner's scores and pick are the per-triple oracle's, bit for bit.

    On the ``wide`` input, the error terms of the oracle's own imputations,
    gathered over the kept slots as one (triple x kept) matrix, have a 2-D
    ``mean(axis=1)`` that differs from some row's own ``np.mean``, so a
    scorer that reduced them that way would fail here.  (The gather is
    column-major; a row-major copy of the same terms reduces row by row.)
    """
    if boundary:
        monkeypatch.setattr(metrics, "insert_missing", _with_boundary_gaps)
    (we, ww, ws) = grid
    result = grid_search_weights(suite, we, ww, ws, **options)
    imputed = []
    best, scores = grid_search_per_triple(suite, we, ww, ws, **options, imputed=imputed)
    assert result.scores == scores
    assert result.best == best
    assert [type(v) for v in result.scores[0]] == [int, int, int, float]
    if boundary:
        plan = plan_cpi(_with_boundary_gaps(suite[0][1], MissingnessSpec(0.15, 30))[0])
        assert not plan.layout.gaps.anchored[[0, -1]].any()
    if wide:
        truth = imputed[0][0]
        keep = np.abs(truth) >= metrics.ZERO_ACTUAL_THRESHOLD
        guesses = np.array([guess for _, guess in imputed])[:, keep]
        terms = np.abs(guesses - truth[keep]) / np.abs(truth[keep])
        assert terms.shape == (8, 3703)
        assert (terms.mean(axis=1) != [np.mean(row) for row in terms]).any()


_ORACLE_CASES = test_grid_search_equals_the_per_triple_oracle.pytestmark[0]


@pytest.mark.parametrize(*_ORACLE_CASES.args, **_ORACLE_CASES.kwargs)
def test_grid_search_in_small_blocks_equals_the_per_triple_oracle(
    monkeypatch, suite, grid, options, boundary, wide
):
    """The oracle cases again, with the tuner's pieces and scores in many small blocks.

    Pieces are pasted in blocks of at most 64 slots, a longer piece alone,
    and each series' assignments are scored two at a time (blocks of twice
    its kept slots), so the pieces and scores cross several blocks; the
    scores and pick must still be the per-triple oracle's, bit for bit.
    """
    monkeypatch.setattr(metrics, "_PIECE_SLOTS", 64)
    blocks, score_blocks = [], []

    def gather(ps, layout, donors, gap, row, gather=metrics._gather):
        blocks.append(np.diff(layout.gap_slots[gap]).ravel())
        return gather(ps, layout, donors, gap, row)

    def covering(plan, actual, mask, assignments, scorer=metrics._covering_scores):
        kept = int((np.abs(actual.values[mask]) >= metrics.ZERO_ACTUAL_THRESHOLD).sum())
        monkeypatch.setattr(metrics, "_SCORE_ENTRIES", 2 * kept)
        score_blocks.extend(min(2, len(assignments) - lo) for lo in range(1, len(assignments), 2))
        return scorer(plan, actual, mask, assignments)

    monkeypatch.setattr(metrics, "_gather", gather)
    monkeypatch.setattr(metrics, "_covering_scores", covering)
    test_grid_search_equals_the_per_triple_oracle(monkeypatch, suite, grid, options, boundary,
                                                  wide)
    assert len(blocks) > 2 * len(suite) and len(score_blocks) > 2 * len(suite)
    assert all(lengths.sum() <= 64 or lengths.size == 1 for lengths in blocks)
    assert any(lengths.size > 1 for lengths in blocks)  # some blocks hold several pieces
    assert score_blocks.count(2) > len(suite)


def test_the_covering_scores_skip_zero_truths_and_reduce_each_row_alone():
    """Zero truths in the mask are skipped, and each score is its own row's mean, bit for bit.

    One quarter-hourly year at 10 % share, scored against a truth that is
    zero, or below ``ZERO_ACTUAL_THRESHOLD``, in about one masked slot in
    seven.  The kept error terms of the assignments, laid out column-major
    as one (assignment x kept) matrix, have a 2-D ``mean(axis=1)`` that
    differs from some row's own mean at this width; the scores must equal
    each assignment's own ``mape_p`` all the same.
    """
    degraded, _ = insert_missing(synthetic_series(3), MissingnessSpec(share=0.1, seed=11))
    plan = plan_cpi(degraded)
    triples = [(e, w, s) for e in (1, 5, 20) for w in (0, 1, 10) for s in (1, 10, 20)]
    assignments = np.unique(cpi.match_weights(plan.table, triples), axis=0)
    mask = np.flatnonzero(np.isnan(metrics.energy_to_power(degraded).values))
    values = np.array(metrics.energy_to_power(synthetic_series(3)).values)
    values[mask[::7]] = 0.0
    values[mask[3::14]] = 0.5 * metrics.ZERO_ACTUAL_THRESHOLD
    actual = replace(metrics.energy_to_power(synthetic_series(3)), values=values)

    scores = metrics._covering_scores(plan, actual, mask, assignments)
    imputed = [run_plan(plan, row).imputed_power for row in assignments]
    want = [mape_p(actual, power, mask) for power in imputed]
    assert len(assignments) >= 8
    assert scores.tobytes() == np.array([w.value for w in want]).tobytes()
    assert {w.skipped for w in want} == {want[0].skipped}
    assert want[0].skipped >= mask.size // 7

    truth = values[mask]
    keep = np.abs(truth) >= metrics.ZERO_ACTUAL_THRESHOLD
    guesses = np.array([power.values[mask] for power in imputed])[:, keep]
    terms = np.abs(guesses - truth[keep]) / np.abs(truth[keep])
    assert not terms.flags.c_contiguous
    assert (terms.mean(axis=1) != [np.mean(row) for row in terms]).any()


def _recorded_grid_search(suite, grid, pieces=None, covered=None, **options):
    """``grid_search_weights``' result, and what it planned, matched, pasted and scored.

    Each entry of the log is (plan, batch donors, pasted donor rows, the
    number of ``mape_p`` calls), in series order.  Given a list, ``pieces``
    gets one list per series of the block paste's pieces in paste order:
    the gap, the donor row, and the values gathered for it.  Every block of
    pieces is checked to be scaled once, right after it is gathered, and
    with the same gaps.  Given a list, ``covered`` gets the covering
    scorer's (actual, mask, assignments, scores) of each series.
    """
    log = []
    pieces = [] if pieces is None else pieces
    covered = [] if covered is None else covered
    blocks = []  # each gathered block's gaps, then whether it was scaled

    def plan(series):
        log.append([cpi.plan_cpi(series), None, [], 0])
        pieces.append([])
        return log[-1][0]

    def match(table, triples):
        assert log[-1][1] is None  # one batch per series
        log[-1][1] = cpi.match_weights(table, triples)
        return log[-1][1]

    def run(plan, donors):
        assert plan is log[-1][0]  # each series is pasted before the next is planned
        log[-1][2].append(tuple(donors.tolist()))
        return cpi.run_plan(plan, donors)

    def gather(ps, layout, donors, gap, row):
        assert layout is log[-1][0].layout
        assert not blocks or blocks[-1][1]  # the block before was scaled
        values = cpi._gather(ps, layout, donors, gap, row)
        lengths = np.diff(layout.gap_slots[gap]).ravel()
        assert values.size == lengths.sum()
        for k, r, piece in zip(gap.tolist(), row.tolist(),
                               np.split(values, np.cumsum(lengths)[:-1])):
            pieces[-1].append((k, tuple(donors[r].tolist()), piece.copy()))
        blocks.append([gap.tolist(), False])
        return values

    def scale_gap(values, gaps, dt, gap):
        assert gaps is log[-1][0].layout.gaps
        assert blocks[-1] == [gap.tolist(), False]  # the block just gathered, once
        blocks[-1][1] = True
        return cpi._scale_gap(values, gaps, dt, gap)

    def score(*args):
        log[-1][3] += 1
        return mape_p(*args)

    def covering(plan, actual, mask, assignments, scorer=metrics._covering_scores):
        scores = scorer(plan, actual, mask, assignments)
        covered.append((actual, mask, assignments, scores))
        return scores

    with (
        mock.patch.object(metrics, "plan_cpi", plan),
        mock.patch.object(metrics, "match_weights", match),
        mock.patch.object(metrics, "run_plan", run),
        mock.patch.object(metrics, "mape_p", score),
        mock.patch.object(metrics, "_gather", gather),
        mock.patch.object(metrics, "_scale_gap", scale_gap),
        mock.patch.object(metrics, "_covering_scores", covering),
    ):
        result = grid_search_weights(suite, *grid, **options)
    assert all(scaled for _, scaled in blocks)
    return result, log


def test_grid_search_scores_each_distinct_assignment_once_per_series():
    """One full paste and one ``mape_p`` per series; each distinct assignment has its own MAPE."""
    suite = synthetic_suite(2, base_seed=95, days=42, slots_per_day=24)
    pieces, covered = [], []
    result, log = _recorded_grid_search(suite, ((1, 3), (0, 2), (1, 3)), pieces, covered,
                                        share=0.1, seed=4)
    assert len(result.scores) == 27
    assert len(log) == len(pieces) == len(covered) == 2
    for (plan, donors, pasted, scored), made, (actual, mask, assignments, scores) in zip(
        log, pieces, covered
    ):
        distinct = {row.tobytes() for row in donors}
        assert scored == 1
        assert pasted == [tuple(donors[0].tolist())]  # the first distinct assignment
        assert {row.tobytes() for row in assignments} == distinct
        assert len(assignments) == len(distinct) > 1
        for row, score in zip(assignments, scores.tolist()):
            own = run_plan(plan, row).imputed_power
            assert score == mape_p(actual, own, mask).value
        assert 0 < len(made)
        assert len({(k, row) for k, row, _ in made}) == len(made)


@pytest.mark.parametrize(
    "suite, grid, options, boundary, crowded",
    [
        (synthetic_suite(2, base_seed=95, days=42, slots_per_day=24),
         ((1, 3), (0, 2), (1, 3)), {"share": 0.1, "seed": 4}, False, False),
        (synthetic_suite(2, base_seed=96, days=90, slots_per_day=48),
         ((1, 6), (0, 3), (1, 6)), {"share": 0.3, "seed": 2}, False, True),
        (synthetic_suite(2, base_seed=90, days=70, slots_per_day=24),
         ((1, 3), (0, 2), (1, 3)), {"share": 0.15, "seed": 3, "max_gap_len": 30}, True, True),
    ],
    ids=["42-days", "90-days-30-percent", "boundary-gaps"],
)
def test_the_tuner_pastes_each_other_gap_choice_once_alone(
    monkeypatch, suite, grid, options, boundary, crowded
):
    """One base paste, then each other donor choice of each gap pasted once, as a piece.

    A gap's choices are the distinct donor tuples that the batch match
    gives its days.  The first assignment's ``run_plan`` holds choice 0 of
    every gap, and ``mape_p`` is called once per series.  Each other choice
    is a piece of the block paste: gathered over exactly its gap's run of
    missing slots, from a batch row that makes it, and scaled once with its
    block.  The pieces and the base together make every choice of every
    gap.  Where ``crowded``, some day that two gaps share is pasted for
    each of them from a donor other than the base's.
    """
    if boundary:
        monkeypatch.setattr(metrics, "insert_missing", _with_boundary_gaps)
    pieces, shared = [], 0
    _, log = _recorded_grid_search(suite, grid, pieces, **options)
    for (plan, donors, pasted, scored), made in zip(log, pieces, strict=True):
        layout = plan.layout
        gap_rows = layout.gap_rows.tolist()
        spd = timedelta(days=1) // plan.power.resolution
        choices = [{tuple(row[lo:hi]) for row in donors.tolist()} for lo, hi in gap_rows]
        base = donors[0].tolist()
        assert pasted == [tuple(base)]  # one run_plan per series
        assert scored == 1  # and one mape_p
        rows = {tuple(row) for row in donors.tolist()}
        covered = [{tuple(base[lo:hi])} for lo, hi in gap_rows]
        moved = [set() for _ in gap_rows]  # the days each gap pastes from a non-base donor
        for k, row, values in made:
            assert row in rows
            # Exactly gap k's run of missing slots, each from its day's donor in ``row``.
            a, b = layout.gap_slots[k]
            day = layout.row[a:b]
            source = layout.missing[a:b] + (np.array(row)[day] - layout.days[day]) * spd
            assert values.tobytes() == plan.power.values[source].tobytes()
            lo, hi = gap_rows[k]
            choice = row[lo:hi]
            assert choice not in covered[k]  # neither the base choice nor pasted twice
            covered[k].add(choice)
            moved[k].update(d for d in range(lo, hi) if row[d] != base[d])
        assert covered == choices
        assert len(made) == sum(len(c) - 1 for c in choices)
        touched = [d for days in moved for d in days]
        shared += len(touched) - len(set(touched))
    if crowded:
        assert shared  # a day two gaps share, pasted off the base for both


def test_a_plan_without_days_with_gaps_still_scores():
    """A degraded series whose only removal is one isolated reading is scored, not planned.

    Interpolating the reading leaves no gap, so every triple scores the
    interpolated series, which the per-triple oracle's empty plan pastes.
    """
    suite = synthetic_suite(2, days=30, slots_per_day=24)
    grid = ((1, 2), (0, 1), (1, 1))
    options = {"share": 1.2 / suite[0][1].n, "seed": 1}
    with mock.patch.object(metrics, "plan_cpi") as plan:
        result = grid_search_weights(suite, *grid, **options)
    assert plan.call_count == 0
    best, scores = grid_search_per_triple(suite, *grid, **options)
    assert result.scores == scores
    assert result.best == best


def test_the_tuner_scores_a_series_too_short_to_plan_as_evaluate_does():
    """Ten days with one single removal: each score is ``evaluate``'s one-triple MAPE.

    Ten days are too few complete days to plan, but interpolating the
    single leaves no gap, so ``evaluate`` scores the interpolated series;
    the tuner must score it too, not refuse it.
    """
    suite = [("short", synthetic_series(3, days=10))]
    result = grid_search_weights(suite, (1, 2), (0, 1), (1, 1), share=0.001)
    assert len(result.scores) == 4
    for w_energy, w_weekday, w_season, score in result.scores:
        weights = DissimilarityWeights(w_energy, w_weekday, w_season)
        assert score == evaluate(suite, (0.001,), ("cpi",), weights=weights).rows[0].mape_p
    with pytest.raises(ImputationError, match="needs at least 14 complete days, got"):
        grid_search_weights(suite, (1, 2), (0, 1), (1, 1), share=0.1)


@pytest.mark.parametrize(
    "grid, error, message",
    [
        (((-1, 2), (0, 1), (1, 2)), ValidationError, "must be non-negative"),
        (((1, 2), (0, 1), (-3, -1)), ValidationError, "must be non-negative"),
        # A negative bound is rejected even where it only meets all-zero triples.
        (((-1, 0), (1, 1), (0, 0)), ValidationError, "must be non-negative"),
        (((5, 1), (0, 1), (1, 2)), MetricError, "energy weight range 5:1 is reversed"),
        (((1, 2), (3, 0), (1, 2)), MetricError, "weekday weight range 3:0 is reversed"),
        (((1, 2), (0, 1), (4, 3)), MetricError, "season weight range 4:3 is reversed"),
        (((0, 0), (0, 0), (0, 0)), MetricError, "weight grid is empty"),
    ],
    ids=["negative-energy", "negative-season", "negative-beside-zero", "reversed-energy",
         "reversed-weekday", "reversed-season", "all-zero"],
)
def test_bad_weight_grids_fail_before_any_series_is_degraded(grid, error, message):
    suite = synthetic_suite(1, base_seed=60, days=42)
    with (
        mock.patch.object(metrics, "insert_missing") as degrade,
        mock.patch.object(metrics, "plan_cpi") as plan,
        pytest.raises(error, match=message),
    ):
        grid_search_weights(suite, *grid)
    assert degrade.call_count == plan.call_count == 0


@pytest.mark.parametrize(
    "settings, error, message",
    [
        ({"shares": (0.1, float("nan"))}, ValidationError, r"share must be in \(0, 1\), got nan"),
        ({"shares": (0.0,)}, ValidationError, r"share must be in \(0, 1\), got 0.0"),
        ({"shares": (0.1, 1.0)}, ValidationError, r"share must be in \(0, 1\), got 1.0"),
        ({"shares": ()}, MetricError, "evaluation needs at least one share"),
        ({"seeds": ()}, MetricError, "evaluation needs at least one seed"),
        ({"methods": ()}, MetricError, "evaluation needs at least one method"),
        ({"shares": (0.1, 0.3, 0.1)}, MetricError, "share 0.1 is listed more than once"),
        ({"seeds": (4, 4)}, MetricError, "seed 4 is listed more than once"),
        ({"methods": ("cpi", "linear", "cpi")}, MetricError,
         "method 'cpi' is listed more than once"),
        ({"methods": ("cpi", "magic", "linear")}, MetricError, "unknown method 'magic'"),
        ({"max_gap_len": 1}, ValidationError, "max_gap_len must be at least 2"),
        ({"single_fraction": 1.5}, ValidationError, "single_fraction must be in"),
        ({"seeds": (0, -1)}, ValidationError, "seed must be non-negative, got -1"),
    ],
    ids=["nan", "zero", "one", "no-shares", "no-seeds", "no-methods", "repeated-share",
         "repeated-seed", "repeated-method", "unknown-method", "max-gap-len", "single-fraction",
         "negative-seed"],
)
def test_bad_degradation_settings_fail_before_any_series_is_degraded(settings, error, message):
    suite = synthetic_suite(1, base_seed=60, days=42)
    with (
        mock.patch.object(metrics, "insert_missing") as degrade,
        pytest.raises(error, match=message),
    ):
        evaluate(suite, **{"shares": (0.1,), "seeds": (0,), **settings})
    assert degrade.call_count == 0


@pytest.mark.parametrize(
    "settings, message",
    [({"share": float("nan")}, "got nan"), ({"share": 0.0}, "got 0.0"),
     ({"share": 1.0}, "got 1.0"), ({"max_gap_len": 1}, "max_gap_len must be at least 2"),
     ({"seed": -1}, "seed must be non-negative, got -1")],
    ids=["nan", "zero", "one", "max-gap-len", "negative-seed"],
)
def test_bad_tuning_settings_fail_before_any_series_is_degraded(settings, message):
    suite = synthetic_suite(1, base_seed=60, days=42)
    with (
        mock.patch.object(metrics, "insert_missing") as degrade,
        pytest.raises(ValidationError, match=message),
    ):
        grid_search_weights(suite, (1, 2), (0, 1), (1, 2), **settings)
    assert degrade.call_count == 0
