"""Tests for error measures, aggregation and the evaluation harness."""

import time
from dataclasses import replace
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
from meterfill.cpi import plan_cpi
from meterfill.metrics import _cell_seed, format_aggregates_csv, format_report_csv
from meterfill.series import Gap, detect_gaps, gap_arrays

import score_oracle
from conftest import matched_days, power
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
    first = np.array([g.first_missing for g in gaps], dtype=np.int64)
    last = np.array([g.last_missing for g in gaps], dtype=np.int64)
    spans = metrics.gap_spans(first, last, actual_energies)
    expected = score_oracle.gap_energies(imputed, actual_gaps)
    energies = metrics.gap_energies(imputed, spans)
    assert bits(energies) == bits(expected)
    assert bits(spans.actual) == bits([g.actual_energy for g in actual_gaps])
    assert bits([wape_e(spans.actual, energies)]) == bits(
        [wape_e([g.actual_energy for g in actual_gaps], expected)]
    )


def test_gap_spans_of_no_gaps_score_as_an_empty_list():
    spans = metrics.gap_spans(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), [])
    assert spans.groups == () and spans.actual.size == 0
    assert metrics.gap_energies(power([1.0, 2.0]), spans).size == 0
    with pytest.raises(MetricError, match="non-empty"):
        wape_e(spans.actual, metrics.gap_energies(power([1.0, 2.0]), spans))


def test_unanchored_gaps_have_no_actual_energy():
    spans = metrics.gap_spans(np.array([0, 3]), np.array([1, 4]), np.array([np.nan, 1.0]))
    assert np.isnan(spans.actual[0]) and spans.actual[1] == 1.0


def test_gap_arrays_agree_with_the_gap_list():
    readings = np.cumsum(np.random.default_rng(8).uniform(0.0, 2.0, 40))
    readings[[0, 1, 7, 8, 9, 20, 38, 39]] = np.nan
    es = EnergySeries(datetime(2018, 1, 1), timedelta(hours=1), readings)
    gaps = detect_gaps(es)
    arrays = gap_arrays(es)
    spans = [(0, 1), (6, 9), (19, 20), (37, 38)]
    assert [(g.first_missing, g.last_missing) for g in gaps] == spans
    assert arrays.first_missing.tolist() == [g.first_missing for g in gaps]
    assert arrays.last_missing.tolist() == [g.last_missing for g in gaps]
    energies = [np.nan if g.actual_energy is None else g.actual_energy for g in gaps]
    assert np.array_equal(arrays.actual_energy, energies, equal_nan=True)
    assert np.isnan(arrays.actual_energy[[0, -1]]).all()


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
    with mock.patch("meterfill.metrics.plan_cpi", wraps=plan_cpi) as planned:
        report = evaluate(small_suite[:1], shares=[0.1], methods=methods)
    assert planned.call_count == plans
    assert [r.error for r in report.rows] == [None] * len(methods)


def test_a_failed_plan_fails_both_copy_paste_rows_with_its_error():
    series = synthetic_series(9, days=20)
    degraded, _ = insert_missing(series, MissingnessSpec(share=0.3, seed=_cell_seed(0, 0, 0.3)))
    with pytest.raises(ImputationError, match="needs at least 14 complete days") as planning:
        impute_cpi(degraded)
    with mock.patch("meterfill.metrics.plan_cpi", wraps=plan_cpi) as planned:
        report = evaluate([("short", series)], shares=[0.3],
                          methods=["cpi", "linear", "cpi_noscale"])
    assert planned.call_count == 1
    assert [r.error for r in report.rows] == [str(planning.value), None, str(planning.value)]


def test_a_cell_of_isolated_singles_is_scored_without_a_plan():
    # Ten days are too few to plan, but interpolation alone fills singles.
    with mock.patch("meterfill.metrics.plan_cpi", wraps=plan_cpi) as planned:
        report = evaluate([("short", synthetic_series(9, days=10))], shares=[0.02],
                          methods=["cpi", "cpi_noscale"], single_fraction=1.0)
    assert planned.call_count == 0
    assert [(r.error, r.wape_e) for r in report.rows] == [(None, 0.0), (None, 0.0)]


def test_each_copy_paste_runtime_includes_the_shared_plan(small_suite):
    def slow_plan(*args):
        time.sleep(0.05)
        return plan_cpi(*args)

    with mock.patch("meterfill.metrics.plan_cpi", slow_plan):
        report = evaluate(small_suite[:1], shares=[0.1], methods=["cpi", "cpi_noscale"])
    assert [r.error for r in report.rows] == [None, None]
    assert all(r.runtime_s >= 0.05 for r in report.rows)


def test_method_failures_are_recorded_not_raised(small_suite):
    report = evaluate(small_suite[:1], shares=[0.1], methods=["cpi", "nonsense"])
    errors = [r for r in report.rows if r.error]
    assert len(errors) == 1
    assert errors[0].method == "nonsense"
    assert not [a for a in report.aggregates if a.method == "nonsense"]


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
    "suite, grid, options, boundary",
    [
        (synthetic_suite(3, base_seed=70, days=60, slots_per_day=24),
         ((1, 4), (0, 2), (1, 4)), {"share": 0.1, "seed": 2}, False),
        # Six series: the aggregate is a trimmed mean.  Mid-day starts leave
        # partial boundary days; zero bounds put zero weights in the grid.
        (synthetic_suite(6, base_seed=80, days=42, slots_per_day=48,
                         start=datetime(2019, 12, 20, 13)),
         ((0, 2), (0, 2), (0, 3)), {"share": 0.2, "seed": 7}, False),
        # Leap year, short gaps, and unanchored gaps at both ends of every
        # series, whose days are matched without an energy total.
        (synthetic_suite(5, base_seed=90, days=70, slots_per_day=24,
                         start=datetime(2020, 2, 1)),
         ((1, 3), (0, 2), (1, 3)), {"share": 0.15, "seed": 3, "max_gap_len": 30}, True),
    ],
    ids=["three-series", "six-series-mid-day", "boundary-gaps"],
)
def test_grid_search_equals_the_per_triple_oracle(monkeypatch, suite, grid, options, boundary):
    if boundary:
        monkeypatch.setattr(metrics, "insert_missing", _with_boundary_gaps)
    (we, ww, ws) = grid
    result = grid_search_weights(suite, we, ww, ws, **options)
    best, scores = grid_search_per_triple(suite, we, ww, ws, **options)
    assert result.scores == scores
    assert result.best == best
    assert [type(v) for v in result.scores[0]] == [int, int, int, float]
    if boundary:
        plan = plan_cpi(_with_boundary_gaps(suite[0][1], MissingnessSpec(0.15, 30))[0])
        assert not plan.layout.gaps[0].anchored and not plan.layout.gaps[-1].anchored


def test_grid_search_scores_each_distinct_assignment_once_per_series():
    suite = synthetic_suite(2, base_seed=95, days=42, slots_per_day=24)
    log = []

    def plan(series):
        log.append("plan")
        return plan_cpi(series)

    def run(plan, weights):
        log.append(tuple(sorted(matched_days(plan, weights).items())))
        return cpi.run_plan(plan, weights)

    with mock.patch.object(metrics, "plan_cpi", plan), mock.patch.object(metrics, "run_plan", run):
        result = grid_search_weights(suite, (1, 3), (0, 2), (1, 3), share=0.1, seed=4)
    assert len(result.scores) == 27
    first, second = (log[1:log.index("plan", 1)], log[log.index("plan", 1) + 1:])
    assert log[0] == "plan" and "plan" not in second  # each series is scored before the next
    for runs in (first, second):
        assert 1 < len(runs) < 27
        assert len(set(runs)) == len(runs)  # no assignment is imputed twice


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
        ({"max_gap_len": 1}, ValidationError, "max_gap_len must be at least 2"),
        ({"single_fraction": 1.5}, ValidationError, "single_fraction must be in"),
    ],
    ids=["nan", "zero", "one", "no-shares", "no-seeds", "max-gap-len", "single-fraction"],
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
     ({"share": 1.0}, "got 1.0"), ({"max_gap_len": 1}, "max_gap_len must be at least 2")],
    ids=["nan", "zero", "one", "max-gap-len"],
)
def test_bad_tuning_settings_fail_before_any_series_is_degraded(settings, message):
    suite = synthetic_suite(1, base_seed=60, days=42)
    with (
        mock.patch.object(metrics, "insert_missing") as degrade,
        pytest.raises(ValidationError, match=message),
    ):
        grid_search_weights(suite, (1, 2), (0, 1), (1, 2), **settings)
    assert degrade.call_count == 0
