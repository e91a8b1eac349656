"""Acceptance suite: one test per release criterion, at stated tolerances.

Runs the full synthetic benchmark grid (20 one-year quarter-hourly series,
six missingness shares, all methods) once and checks energy conservation,
method ordering, the dissimilarity truth tables, oracle equivalences, the
gap-synthesis contract, non-destruction/idempotence and desk-scale runtime
against it.  Each test prints a single pass/fail line.

Set METERFILL_UCI_DIR to a directory of converted one-year energy CSVs
(see scripts/fetch_uci.py) to also run the real-data ordering check.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from meterfill import (
    DissimilarityWeights,
    MissingnessSpec,
    ParseConfig,
    energy_to_power,
    evaluate,
    impute_cpi,
    insert_missing,
    mape_p,
    power_to_energy,
    read_series,
    synthetic_suite,
    trimmed_mean,
    wape_e,
)
from meterfill.cpi import season_distance, weekday_distance
from meterfill.series import detect_gaps

from conftest import QUARTER_HOUR, energy
from dissimilarity_oracle import combine_distances

SHARES = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
METHODS = ("cpi", "cpi_noscale", "linear", "histavg", "seasonal")
N_SERIES = 20


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


@pytest.fixture(scope="session")
def suite():
    return synthetic_suite(N_SERIES, base_seed=1000)


@pytest.fixture(scope="session")
def grid(suite):
    """Full benchmark grid plus its wall-clock duration."""
    started = time.perf_counter()
    report = evaluate(suite, shares=SHARES, methods=METHODS, seeds=[0])
    wall = time.perf_counter() - started
    failed = [r for r in report.rows if r.error]
    assert not failed, f"evaluation cells failed: {failed[:3]}"
    return report, wall


def aggregate(report, share, method, metric):
    for row in report.aggregates:
        if row.share == share and row.method == method:
            return getattr(row, metric)
    raise AssertionError(f"no aggregate for {method} at {share}")


def test_criterion_1_energy_conservation(grid):
    report, _ = grid
    with criterion(1, "copy-paste with scaling conserves every gap's energy"):
        cpi_rows = [r for r in report.rows if r.method == "cpi"]
        assert len(cpi_rows) == N_SERIES * len(SHARES)
        worst = max(r.wape_e for r in cpi_rows)
        assert worst <= 1e-9, f"worst WAPE {worst}"
        total_runtime = sum(r.runtime_s for r in cpi_rows)
        assert total_runtime < 120.0, f"CPI runs took {total_runtime:.1f}s"


def test_criterion_2_method_ordering(grid):
    report, _ = grid
    with criterion(2, "copy-paste beats the historical average, which beats linear"):
        for share in (0.1, 0.2):
            mape_cpi = aggregate(report, share, "cpi", "mape_p_trimmed")
            mape_hist = aggregate(report, share, "histavg", "mape_p_trimmed")
            mape_lin = aggregate(report, share, "linear", "mape_p_trimmed")
            assert mape_cpi < mape_hist < mape_lin, (
                f"share {share}: {mape_cpi:.4f} / {mape_hist:.4f} / {mape_lin:.4f}"
            )
            wape_noscale = aggregate(report, share, "cpi_noscale", "wape_e_trimmed")
            wape_lin = aggregate(report, share, "linear", "wape_e_trimmed")
            assert wape_noscale < wape_lin, (
                f"share {share}: {wape_noscale:.4f} vs {wape_lin:.4f}"
            )


def test_criterion_3_dissimilarity_truth_tables():
    with criterion(3, "distance components match their defining case tables"):
        table = {
            (1, 1): 0.0, (1, 5): 0.5, (6, 7): 0.5, (5, 6): 1.0,
            (1, 6): 1.0, (7, 7): 0.0, (3, 4): 0.5, (7, 2): 1.0,
        }
        for (wi, wj), expected in table.items():
            assert weekday_distance(wi, wj) == expected
            assert weekday_distance(wj, wi) == expected
        assert abs(season_distance(1, 365, 365) - 1 / 182) < 1e-12
        assert abs(season_distance(1, 182, 365) - 181 / 182) < 1e-12
        weights = DissimilarityWeights(5, 1, 10)
        assert abs(combine_distances(weights, 0.2, 0.5, 0.1) - 2.5) < 1e-12


def test_criterion_4_oracle_equivalence():
    with criterion(4, "trimmed mean, round trip and error measures match oracles"):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            values = rng.uniform(-1e3, 1e3, size=int(rng.integers(5, 60))).tolist()
            survivors = sorted(values)[2:-2]
            assert trimmed_mean(values) == pytest.approx(
                sum(survivors) / len(survivors), rel=1e-12
            )

        for _ in range(100):
            n = int(rng.integers(2, 2000))
            readings = np.cumsum(rng.uniform(0.0, 2.0, size=n)) + rng.uniform(0, 500)
            es = energy(readings, resolution=QUARTER_HOUR)
            power = energy_to_power(es)
            back = power_to_energy(power, es.values[0])
            assert np.abs(back.values - es.values).max() < 1e-9

        from conftest import power as power_series

        mape = mape_p(power_series([2.0, 4.0]), power_series([3.0, 3.0]), [0, 1])
        assert mape.value == (0.5 + 0.25) / 2
        assert wape_e([10.0, 20.0], [9.0, 22.0]) == (1.0 + 2.0) / 30.0


def test_criterion_5_gap_synthesis_contract():
    with criterion(5, "artificial removal hits its counts, shapes and determinism"):
        n = 35040
        rng = np.random.default_rng(55)
        es = energy(
            np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.5, n - 1)))),
            resolution=QUARTER_HOUR,
        )
        for share in SHARES:
            spec = MissingnessSpec(share=share, seed=500)
            degraded, mask = insert_missing(es, spec)
            expected_total = round(share * n)
            assert mask.indices.size == expected_total
            assert mask.singles.size == round(0.05 * expected_total)
            runs = np.split(mask.indices, np.flatnonzero(np.diff(mask.indices) > 1) + 1)
            assert max(len(r) for r in runs) <= 3 * 96
            assert detect_gaps(degraded).anchored.all()
            _, again = insert_missing(es, spec)
            assert np.array_equal(mask.indices, again.indices)
            assert np.array_equal(mask.singles, again.singles)


def test_criterion_6_non_destruction_and_idempotence(suite):
    with criterion(6, "present values survive and a second pass is the identity"):
        for (sid, series), share in zip(suite[:4], (0.05, 0.1, 0.2, 0.3)):
            degraded, _ = insert_missing(series, MissingnessSpec(share=share, seed=6))
            result = impute_cpi(degraded)
            present = ~np.isnan(degraded.values)
            assert np.array_equal(
                result.completed_energy.values[present], degraded.values[present]
            )
            again = impute_cpi(result.completed_energy)
            assert np.array_equal(
                again.completed_energy.values, result.completed_energy.values
            )
            assert np.array_equal(
                again.completed_power.values, result.completed_power.values
            )


def test_criterion_7_desk_scale_performance(suite, grid):
    _, wall = grid
    with criterion(7, "single-series imputation and the full grid stay fast"):
        sid, series = suite[0]
        degraded, _ = insert_missing(series, MissingnessSpec(share=0.2, seed=77))
        started = time.perf_counter()
        impute_cpi(degraded)
        single = time.perf_counter() - started
        assert single < 30.0, f"single imputation took {single:.1f}s"
        assert wall < 1800.0, f"full grid took {wall:.1f}s"


UCI_DIR = os.environ.get("METERFILL_UCI_DIR", "")


@pytest.mark.skipif(
    not (UCI_DIR and Path(UCI_DIR).is_dir()),
    reason="set METERFILL_UCI_DIR to a directory of converted UCI energy CSVs",
)
def test_criterion_8_real_data_ordering():
    with criterion(8, "the method ordering holds on real smart-meter data"):
        paths = sorted(Path(UCI_DIR).glob("*.csv"))[:10]
        assert paths, f"no CSV files in {UCI_DIR}"
        series = [(p.stem, read_series(p, ParseConfig(kind="energy"))) for p in paths]
        report = evaluate(
            series, shares=SHARES, methods=("cpi", "histavg", "linear"), seeds=[0]
        )
        for share in SHARES:
            mape_cpi = aggregate(report, share, "cpi", "mape_p_trimmed")
            mape_hist = aggregate(report, share, "histavg", "mape_p_trimmed")
            mape_lin = aggregate(report, share, "linear", "mape_p_trimmed")
            assert mape_cpi < mape_hist < mape_lin
