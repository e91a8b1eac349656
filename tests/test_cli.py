"""End-to-end tests of the command-line interface."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meterfill import (
    EnergySeries,
    ParseConfig,
    parse_series,
    read_series,
    synthetic_series,
    write_series,
)
from meterfill.series import format_series
from meterfill import cli, metrics
from meterfill.cli import main

from grid_oracle import grid_search_per_triple


@pytest.fixture()
def series_csv(tmp_path):
    path = tmp_path / "meter.csv"
    write_series(path, synthetic_series(5, days=42))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_convert_round_trip(tmp_path, series_csv):
    power_csv = tmp_path / "power.csv"
    back_csv = tmp_path / "back.csv"
    assert run_cli("convert", "--to", "power", series_csv, power_csv) == 0
    original = read_series(series_csv)
    base = original.values[0]
    assert run_cli(
        "convert", "--to", "energy", "--base-energy", base, power_csv, back_csv
    ) == 0
    back = read_series(back_csv)
    assert np.abs(back.values - original.values).max() < 1e-9


def test_convert_power_to_energy_requires_base(tmp_path, series_csv, capsys):
    power_csv = tmp_path / "power.csv"
    run_cli("convert", "--to", "power", series_csv, power_csv)
    rc = run_cli("convert", "--to", "energy", power_csv, tmp_path / "x.csv")
    assert rc == 1
    assert "base-energy" in capsys.readouterr().err


def test_insert_gaps_writes_degraded_and_mask(tmp_path, series_csv):
    out = tmp_path / "degraded.csv"
    rc = run_cli(
        "insert-gaps", "--share", "10", "--seed", "4", series_csv, out,
        "--mask-out", tmp_path / "mask.csv",
    )
    assert rc == 0
    degraded = read_series(out)
    n = degraded.n
    missing = int(np.isnan(degraded.values).sum())
    assert missing == round(0.10 * n)
    mask_lines = (tmp_path / "mask.csv").read_text().strip().splitlines()
    assert mask_lines[0] == "index,is_single"
    assert len(mask_lines) == 1 + missing


def test_insert_gaps_is_deterministic(tmp_path, series_csv):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run_cli("insert-gaps", "--share", "5", "--seed", "11", series_csv, out)
    assert a.read_text() == b.read_text()


def test_impute_cpi_writes_energy_power_and_audit(tmp_path, series_csv):
    degraded = tmp_path / "degraded.csv"
    run_cli("insert-gaps", "--share", "10", "--seed", "2", series_csv, degraded)
    out = tmp_path / "completed.csv"
    rc = run_cli("impute", "--method", "cpi", "--weights", "5,1,10", degraded, out)
    assert rc == 0

    completed = read_series(out)
    assert not np.isnan(completed.values).any()
    original = read_series(degraded)
    present = ~np.isnan(original.values)
    assert np.array_equal(completed.values[present], original.values[present])

    power = read_series(tmp_path / "completed.power.csv", ParseConfig(kind="power"))
    assert power.n == completed.n - 1
    audit_lines = (tmp_path / "completed.gaps.jsonl").read_text().strip().splitlines()
    records = [json.loads(line) for line in audit_lines]
    assert records
    for record in records:
        assert record["method"] == "cpi"
        if record["anchored"]:
            assert record["imputed_energy"] == pytest.approx(
                record["actual_energy"], rel=1e-9
            )
            assert record["sources"]


@pytest.mark.parametrize("method", ["cpi", "cpi_noscale", "linear"])
def test_impute_writes_the_completed_power_derived_once(monkeypatch, tmp_path, series_csv, method):
    """The power file is the result's ``completed_power``, read once and then kept.

    It is the power of the completed energy by bytes, for both copy-paste
    methods and for a baseline's fill, which ``method_imputer`` completes.
    """
    degraded = tmp_path / "degraded.csv"
    run_cli("insert-gaps", "--share", "10", "--seed", "2", series_csv, degraded)
    results, written = [], {}

    def kept(make):
        def call(*args, **kwargs):
            results.append(make(*args, **kwargs))
            return results[-1]

        return call

    monkeypatch.setattr(metrics, "impute_cpi", kept(metrics.impute_cpi))
    monkeypatch.setattr(metrics, "complete_from_power", kept(metrics.complete_from_power))
    monkeypatch.setattr(cli, "write_series", lambda path, s: written.setdefault(Path(path).name, s))
    assert run_cli("impute", "--method", method, degraded, tmp_path / "out.csv") == 0
    (result,) = results
    assert written["out.csv"] is result.completed_energy
    assert written["out.power.csv"] is result.completed_power
    want = cli.energy_to_power(result.completed_energy)
    assert result.completed_power.values.tobytes() == want.values.tobytes()
    assert (result.completed_power.start, result.completed_power.resolution) == (
        want.start, want.resolution,
    )


def test_imputing_the_output_of_a_meter_with_zero_power_nights_changes_nothing(tmp_path):
    """The completed files read back as a meter, and imputing them again is the identity.

    The series draws exactly 0 kW at night and in random slots.  Its scaled
    gap at power indices 477-654 ends on a donor slot of 0 kW, where the
    reading cumulated from the left anchor lands an ulp above the right one
    unless it is capped there.
    """
    rng = np.random.default_rng(40)
    spd = 96
    m = 60 * spd
    tod = np.arange(m) % spd
    p = rng.uniform(0.1, 3.0, size=m) * (1 + np.sin(tod / spd * 2 * np.pi))
    p[(tod < 24) | (tod > 88)] = 0.0
    p[rng.random(m) < 0.1] = 0.0
    e = np.concatenate(([50.0], 50.0 + np.cumsum(p * 0.25)))
    miss = np.zeros(m + 1, bool)
    for _ in range(rng.integers(1, 8)):
        length = int(rng.integers(2, 3 * spd))
        first = int(rng.integers(1, m - length))
        miss[first : first + length] = True
    meter = EnergySeries(datetime(2021, 3, 1), timedelta(minutes=15), np.where(miss, np.nan, e))
    write_series(tmp_path / "z.csv", meter)
    assert run_cli("impute", tmp_path / "z.csv", tmp_path / "z_out.csv") == 0
    power = read_series(tmp_path / "z_out.power.csv", ParseConfig(kind="power"))
    assert power.values.min() == 0.0
    assert run_cli("impute", tmp_path / "z_out.csv", tmp_path / "again.csv") == 0
    for name in ("{}.csv", "{}.power.csv"):
        again, first = (tmp_path / name.format(stem) for stem in ("again", "z_out"))
        assert again.read_bytes() == first.read_bytes()
    assert (tmp_path / "again.gaps.jsonl").read_bytes() == b""


def test_impute_baseline_writes_consistent_csvs_and_audits_its_miss(tmp_path, series_csv):
    degraded = tmp_path / "degraded.csv"
    run_cli("insert-gaps", "--share", "10", "--seed", "12", series_csv, degraded)
    out = tmp_path / "linear.csv"
    assert run_cli("impute", "--method", "linear", degraded, out) == 0
    energy = read_series(out, ParseConfig(monotone_tol=float("inf")))
    power = read_series(tmp_path / "linear.power.csv", ParseConfig(kind="power"))
    dt = 1 / 4  # synthetic series are quarter-hourly
    assert np.array_equal(power.values, np.diff(energy.values) / dt)
    records = [
        json.loads(line)
        for line in (tmp_path / "linear.gaps.jsonl").read_text().strip().splitlines()
    ]
    assert [
        r for r in records
        if r["anchored"] and abs(r["imputed_energy"] - r["actual_energy"]) > 1e-9
    ]  # the audit reads the linear fill, not the rebuilt power


def test_impute_baseline_on_power_input(tmp_path, series_csv):
    power_csv = tmp_path / "power.csv"
    run_cli("convert", "--to", "power", series_csv, power_csv)
    degraded_values = read_series(power_csv, ParseConfig(kind="power"))
    values = np.array(degraded_values.values)
    values[100:130] = np.nan
    from meterfill import PowerSeries

    write_series(power_csv, PowerSeries(degraded_values.start, degraded_values.resolution, values))
    out = tmp_path / "filled.csv"
    rc = run_cli("impute", "--method", "linear", "--input-kind", "power", power_csv, out)
    assert rc == 0
    filled = read_series(out, ParseConfig(kind="power"))
    assert not np.isnan(filled.values).any()


def test_impute_cpi_rejects_power_input(tmp_path, series_csv, capsys):
    power_csv = tmp_path / "power.csv"
    run_cli("convert", "--to", "power", series_csv, power_csv)
    rc = run_cli(
        "impute", "--method", "cpi", "--input-kind", "power", power_csv, tmp_path / "x.csv"
    )
    assert rc == 1
    assert "energy input" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["cpi", "cpi_noscale"])
def test_copy_paste_refuses_a_power_input_before_reading_it(tmp_path, capsys, method):
    """The refusal comes before the file is read: a missing file gives the same line."""
    out = tmp_path / "x.csv"
    rc = run_cli("impute", "--method", method, "--input-kind", "power", tmp_path / "none.csv", out)
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: copy-paste imputation requires an energy input"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["seasonal", "cpi_noscale", "linear", "histavg"])
def test_an_energy_file_that_misses_its_anchors_reads_back_without_the_monotone_check(
    tmp_path, series_csv, capsys, method
):
    """A method that does not conserve each gap's energy writes readings that
    fall at a right anchor: read back as a consumption meter the file is
    refused, and with ``--monotone-tol inf`` it gives the power it was written with."""
    degraded, out = tmp_path / "degraded.csv", tmp_path / "out.csv"
    assert run_cli("insert-gaps", "--share", "30", "--seed", "1", series_csv, degraded) == 0
    assert run_cli("impute", "--method", method, degraded, out) == 0
    capsys.readouterr()
    assert run_cli("convert", "--to", "power", out, tmp_path / "strict.csv") == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: consumption readings decrease from index ")
    back = tmp_path / "back.csv"
    assert run_cli("convert", "--to", "power", "--monotone-tol", "inf", out, back) == 0
    assert back.read_bytes() == (tmp_path / "out.power.csv").read_bytes()


def test_evaluate_writes_both_reports(tmp_path, series_csv):
    report = tmp_path / "report.csv"
    agg = tmp_path / "agg.csv"
    rc = run_cli(
        "evaluate", "--shares", "5,10", "--methods", "linear,histavg",
        "--report-out", report, "--aggregate-out", agg, series_csv,
    )
    assert rc == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "series_id,share,seed,method,mape_p,wape_e,runtime_s,skipped_terms"
    assert len(lines) == 1 + 1 * 2 * 2
    agg_lines = agg.read_text().strip().splitlines()
    assert agg_lines[0] == "share,method,mape_p_trimmed,wape_e_trimmed,runtime_s_mean"
    assert len(agg_lines) == 1 + 2 * 2


def test_evaluate_reruns_identically_except_runtime(tmp_path, series_csv):
    outs = []
    for tag in ("one", "two"):
        report = tmp_path / f"report-{tag}.csv"
        run_cli(
            "evaluate", "--shares", "10", "--methods", "linear",
            "--report-out", report, "--aggregate-out", tmp_path / f"agg-{tag}.csv",
            series_csv,
        )
        rows = [line.split(",") for line in report.read_text().strip().splitlines()[1:]]
        outs.append([row[:6] + row[7:] for row in rows])  # drop runtime_s
    assert outs[0] == outs[1]


def _zoned_copy(path, out):
    """``path`` with every timestamp given a +01:00 offset, as a zone-aware writer emits it."""
    header, *rows = path.read_text().splitlines(keepends=True)
    out.parent.mkdir(exist_ok=True)
    out.write_text(header + "".join(row.replace(",", "+01:00,", 1) for row in rows))


@pytest.mark.parametrize("method", ["cpi", "cpi_noscale", "linear", "histavg", "seasonal"])
def test_impute_of_zone_aware_input_matches_the_naive_run(tmp_path, series_csv, method):
    # Days split at the start's own local midnight, so a fixed offset on
    # every timestamp changes nothing but the written timestamps.
    degraded = tmp_path / "degraded.csv"
    run_cli("insert-gaps", "--share", "10", "--seed", "2", series_csv, degraded)
    _zoned_copy(degraded, tmp_path / "zoned.csv")
    for name in ("degraded", "zoned"):
        assert run_cli("impute", "--method", method, tmp_path / f"{name}.csv",
                       tmp_path / f"{name}-out.csv") == 0
    for suffix in ("out.csv", "out.power.csv"):
        naive, aware = ((tmp_path / f"{name}-{suffix}").read_text().splitlines()
                        for name in ("degraded", "zoned"))
        assert [row.split(",")[1] for row in aware] == [row.split(",")[1] for row in naive]
        assert all(row.split(",")[0].endswith("+01:00") for row in aware[1:])
    audits = [(tmp_path / f"{name}-out.gaps.jsonl").read_text() for name in ("degraded", "zoned")]
    assert audits[0] == audits[1] != ""


def test_evaluate_of_zone_aware_input_matches_the_naive_rows(tmp_path, series_csv):
    _zoned_copy(series_csv, tmp_path / "zoned" / series_csv.name)
    reports = []
    for tag, path in (("naive", series_csv), ("zoned", tmp_path / "zoned" / series_csv.name)):
        report = tmp_path / f"report-{tag}.csv"
        assert run_cli(
            "evaluate", "--shares", "1,30", "--methods", "all", "--report-out", report,
            "--aggregate-out", tmp_path / f"agg-{tag}.csv", path,
        ) == 0
        rows = [line.split(",") for line in report.read_text().strip().splitlines()[1:]]
        reports.append([row[:6] + row[7:] for row in rows])  # drop runtime_s
    assert reports[0] == reports[1]
    assert len(reports[0]) == 8 and "nan" not in {row[4] for row in reports[0]}


def test_evaluate_accepts_method_as_an_alias(tmp_path, series_csv):
    report = tmp_path / "report.csv"
    rc = run_cli(
        "evaluate", "--shares", "10", "--method", "all",
        "--report-out", report, "--aggregate-out", tmp_path / "agg.csv", series_csv,
    )
    assert rc == 0
    methods = {line.split(",")[3] for line in report.read_text().strip().splitlines()[1:]}
    assert methods == {"cpi", "linear", "histavg", "seasonal"}


def test_parallelism_env_var_sets_the_default(tmp_path, series_csv, monkeypatch):
    monkeypatch.setenv("METERFILL_PARALLELISM", "2")
    report = tmp_path / "report.csv"
    rc = run_cli(
        "evaluate", "--shares", "10", "--methods", "linear",
        "--report-out", report, "--aggregate-out", tmp_path / "agg.csv", series_csv,
    )
    assert rc == 0
    assert len(report.read_text().strip().splitlines()) == 2


def test_impute_no_scale_skips_energy_conservation(tmp_path, series_csv):
    degraded = tmp_path / "degraded.csv"
    run_cli("insert-gaps", "--share", "10", "--seed", "12", series_csv, degraded)
    out = tmp_path / "unscaled.csv"
    rc = run_cli("impute", "--method", "cpi_noscale", degraded, out)
    assert rc == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "unscaled.gaps.jsonl").read_text().strip().splitlines()
    ]
    assert all(r["fallback"] == "unscaled" for r in records if r["anchored"])
    assert {r["method"] for r in records} == {"cpi_noscale"}
    mismatched = [
        r for r in records
        if r["anchored"] and abs(r["imputed_energy"] - r["actual_energy"]) > 1e-9
    ]
    assert mismatched  # pasting without scaling generally misses the metered energy


def test_no_scale_from_the_config_file_skips_scaling(tmp_path, series_csv):
    degraded = tmp_path / "degraded.csv"
    run_cli("insert-gaps", "--share", "10", "--seed", "12", series_csv, degraded)
    conf = tmp_path / "run.conf"
    conf.write_text("method = cpi_noscale\n")
    rc = run_cli("impute", "--config", conf, degraded, tmp_path / "out.csv")
    assert rc == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "out.gaps.jsonl").read_text().strip().splitlines()
    ]
    anchored = [r for r in records if r["anchored"]]
    assert anchored and all(r["scale"] == 1.0 for r in anchored)


def test_importing_the_cli_loads_no_process_pool():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    pool = {'multiprocessing', 'concurrent.futures', 'concurrent.futures.process', 'logging'}
    code = f"import sys, meterfill.cli; print(sorted({pool!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_evaluate_with_synthetic_series(tmp_path):
    report = tmp_path / "report.csv"
    rc = run_cli(
        "evaluate", "--shares", "10", "--methods", "linear", "--synthetic", "2",
        "--synthetic-seed", "80", "--report-out", report,
        "--aggregate-out", tmp_path / "agg.csv",
    )
    assert rc == 0
    assert len(report.read_text().strip().splitlines()) == 3


def test_tune_weights_prints_selection_and_scores(tmp_path, series_csv, capsys):
    scores = tmp_path / "grid.csv"
    rc = run_cli(
        "tune-weights", "--we", "5:5", "--ww", "1:1", "--ws", "10:10",
        "--share", "10", "--seed", "3", "--scores-out", scores, series_csv,
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "selected weights: 5,1,10" in out
    lines = scores.read_text().strip().splitlines()
    assert lines[0] == "w_energy,w_weekday,w_season,mape_p"
    assert len(lines) == 2


def test_tune_weights_scores_out_equals_the_per_triple_oracle(tmp_path, capsys):
    paths = [tmp_path / "cal1.csv", tmp_path / "cal2.csv"]
    for seed, path in enumerate(paths, start=11):
        write_series(path, synthetic_series(seed, days=42, slots_per_day=24))
    scores = tmp_path / "grid.csv"
    rc = run_cli(
        "tune-weights", "--we", "1:3", "--ww", "0:2", "--ws", "0:3", "--share", "10",
        "--seed", "3", "--max-gap-len", "40", "--scores-out", scores, *paths,
    )
    assert rc == 0
    calibration = [(str(path), read_series(path)) for path in paths]
    best, expected = grid_search_per_triple(
        calibration, (1, 3), (0, 2), (0, 3), share=0.1, seed=3, max_gap_len=40,
    )
    text = "w_energy,w_weekday,w_season,mape_p\n" + "".join(
        f"{we},{ww},{ws},{score!r}\n" for we, ww, ws, score in expected
    )
    assert scores.read_bytes() == text.encode()
    selected = f"{best.energy:g},{best.weekday:g},{best.season:g}"
    assert capsys.readouterr().out == f"selected weights: {selected}\n"


@pytest.mark.parametrize(
    "ranges, message",
    [
        (["--we=-1:2"], "error: dissimilarity weights must be non-negative"),
        (["--ws", "1:-2"], "error: dissimilarity weights must be non-negative"),
        (["--we", "5:1"], "error: energy weight range 5:1 is reversed"),
        (["--we", "0:0", "--ww", "0:0", "--ws", "0:0"], "error: weight grid is empty"),
    ],
    ids=["negative-low", "negative-high", "reversed", "all-zero"],
)
def test_bad_weight_grid_is_one_error_line(series_csv, capsys, ranges, message):
    rc = run_cli("tune-weights", *ranges, series_csv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(message)


def test_missing_input_file_is_a_clean_error(tmp_path, capsys):
    rc = run_cli("impute", "--method", "cpi", tmp_path / "nope.csv", tmp_path / "out.csv")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,value\n2018-01-01 00:00:00,1\n2018-01-01 00:30:00,oops\n")
    rc = run_cli("impute", "--method", "cpi", bad, tmp_path / "out.csv")
    assert rc == 1
    assert "non-numeric" in capsys.readouterr().err


def test_mixed_naive_and_aware_timestamps_are_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,value\n2018-01-01 00:00:00+01:00,1\n2018-01-01 00:15:00,2\n")
    rc = run_cli("impute", "--method", "cpi", bad, tmp_path / "out.csv")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2" in err


def test_a_utc_offset_that_changes_part_way_is_one_error_line(tmp_path, series_csv, capsys):
    # A daylight-saving switch: +01:00, then the same instants at +02:00
    # from data row 500 on.
    header, *rows = series_csv.read_text().splitlines(keepends=True)
    zones = [timezone(timedelta(hours=h)) for h in (1, 2)]
    switched = tmp_path / "switched.csv"
    switched.write_text(header + "".join(
        datetime.fromisoformat(row.split(",")[0]).replace(tzinfo=zones[0])
        .astimezone(zones[i >= 500]).isoformat(sep=" ") + "," + row.split(",", 1)[1]
        for i, row in enumerate(rows, start=1)
    ))
    rc = run_cli("impute", "--method", "cpi", switched, tmp_path / "out.csv")
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "error: UTC offset changes at row 500: UTC+02:00 after UTC+01:00 at row 1; "
        "a file must keep one offset\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_non_utf8_input_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,value\n2018-01-01 00:00:00,1\n2018-01-01 00:15:00,\xff\n")
    rc = run_cli("impute", "--method", "cpi", bad, tmp_path / "out.csv")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err


def test_directory_as_input_is_a_clean_error(tmp_path, capsys):
    rc = run_cli("impute", "--method", "cpi", tmp_path, tmp_path / "out.csv")
    assert rc == 1
    assert capsys.readouterr().err == f"error: Is a directory: {tmp_path}\n"


@pytest.mark.parametrize(
    "exc, message",
    [
        (OSError(errno.ENOSPC, "No space left on device"), "error: No space left on device\n"),
        (OSError("the disk went away"), "error: the disk went away\n"),
    ],
    ids=["errno-without-filename", "bare-message"],
)
def test_os_error_without_a_filename_names_its_cause(
    monkeypatch, tmp_path, series_csv, capsys, exc, message
):
    def failing_write(path, series):
        raise exc

    monkeypatch.setattr(cli, "write_series", failing_write)
    rc = run_cli("impute", "--method", "cpi", series_csv, tmp_path / "out.csv")
    assert rc == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "args, config, env, named",
    [
        ("impute --weights a,b,c {csv} {out}", "", None, "--weights: 'a,b,c'"),
        ("impute --weights 1,2 {csv} {out}", "", None, "--weights: '1,2'"),
        ("impute --config {conf} {csv} {out}", "weights = 1,2,3,4", None,
         "config key weights: '1,2,3,4'"),
        ("impute --weights 1,2,-3 {csv} {out}", "", None,
         "dissimilarity weights must be non-negative"),
        ("evaluate --methods magic {csv}", "", None, "--methods: 'magic'"),
        ("evaluate --methods cpi,magic {csv}", "", None, "--methods: 'cpi,magic'"),
        ("evaluate --config {conf} {csv}", "methods = magic", None,
         "config key methods: 'magic'"),
        ("tune-weights --we 5 {csv}", "", None, "--we: '5'"),
        ("tune-weights --config {conf} {csv}", "ws = 1:2:3", None, "config key ws: '1:2:3'"),
        ("evaluate --shares x {csv}", "", None, "--shares: 'x'"),
        ("evaluate --seeds x {csv}", "", None, "--seeds: 'x'"),
        ("tune-weights --we a:b {csv}", "", None, "--we: 'a:b'"),
        ("insert-gaps --share 10 --config {conf} {csv} {out}", "max_gap_len = abc", None,
         "config key max_gap_len: 'abc'"),
        ("impute --config {conf} {csv} {out}", "meter_kind = sideways", None,
         "config key meter_kind: 'sideways'"),
        ("impute --config {conf} {csv} {out}", "method = magic", None,
         "config key method: 'magic'"),
        ("impute --config {conf} {csv} {out}", "no_scale = true", None,
         "unknown config key 'no_scale'"),
        ("evaluate {csv}", "", "two", "METERFILL_PARALLELISM: 'two'"),
        ("evaluate --parallelism 0 {csv}", "", None, "parallelism must be at least 1, got 0"),
        ("evaluate --parallelism -3 {csv}", "", None, "parallelism must be at least 1, got -3"),
        ("evaluate {csv}", "", "0", "parallelism must be at least 1, got 0"),
        ("impute --method linear {overflow} {out}", "", None, "irregular spacing at row 3"),
        ("insert-gaps --share x {csv} {out}", "", None, "--share: 'x'"),
        ("evaluate --parallelism two {csv}", "", None, "--parallelism: 'two'"),
        ("evaluate --max-gap-len 1.5 {csv}", "", None, "--max-gap-len: '1.5'"),
        ("impute --method magic {csv} {out}", "", None, "--method: 'magic'"),
        ("impute --meter-kind sideways {csv} {out}", "", None, "--meter-kind: 'sideways'"),
        ("convert --to sideways {csv} {out}", "", None, "--to: 'sideways'"),
        ("convert {csv} {out}", "", None, "convert requires --to"),
        ("insert-gaps {csv} {out}", "", None, "insert-gaps requires --share"),
        ("evaluate --shares nan {csv}", "", None, "share must be in (0, 1), got nan"),
        ("evaluate --shares 10,150 {csv}", "", None, "share must be in (0, 1), got 1.5"),
        ("tune-weights --share nan {csv}", "", None, "share must be in (0, 1), got nan"),
        ("evaluate --shares , {csv}", "", None, "evaluation needs at least one share"),
        ("evaluate --seeds , {csv}", "", None, "evaluation needs at least one seed"),
        ("evaluate --methods , {csv}", "", None, "evaluation needs at least one method"),
        ("evaluate --shares 10,10 --methods cpi {csv}", "", None,
         "share 0.1 is listed more than once"),
        ("impute --monotone-tol -1 {csv} {out}", "", None,
         "monotone_tol must be non-negative, got -1.0"),
        ("impute --monotone-tol nan {csv} {out}", "", None,
         "monotone_tol must be non-negative, got nan"),
        ("convert --to power --config {conf} {csv} {out}", "monotone_tol = -0.5", None,
         "monotone_tol must be non-negative, got -0.5"),
        ("insert-gaps --share 10 --seed -1 {csv} {out}", "", None,
         "seed must be non-negative, got -1"),
        ("evaluate --seeds -1 {csv}", "", None, "seed must be non-negative, got -1"),
        ("tune-weights --seed -1 {csv}", "", None, "seed must be non-negative, got -1"),
        ("evaluate --synthetic 1 --synthetic-seed -1 {csv}", "", None,
         "seed must be non-negative, got -1"),
        ("evaluate --synthetic -2 {csv}", "", None, "series count must be non-negative, got -2"),
        ("insert-gaps --share 10 --max-gap-len 99999999999999999999 {csv} {out}", "", None,
         "max_gap_len must be below 2**63, got 99999999999999999999"),
        ("evaluate --max-gap-len 9223372036854775808 {csv}", "", None,
         "max_gap_len must be below 2**63, got 9223372036854775808"),
    ],
    ids=["weights", "weights-two", "config-weights-four", "weights-negative", "methods",
         "methods-one-unknown", "config-methods", "we-no-colon", "config-ws-two-colons",
         "shares", "seeds", "we", "config-int", "config-meter-kind",
         "config-method", "config-no-scale", "parallelism-env", "parallelism-zero",
         "parallelism-negative", "parallelism-env-zero", "timestamp-past-9999",
         "share", "parallelism", "max-gap-len", "method", "meter-kind", "to",
         "missing-to", "missing-share", "shares-nan", "shares-above-one", "tune-share-nan",
         "shares-empty", "seeds-empty", "methods-empty", "shares-repeated",
         "monotone-tol-negative", "monotone-tol-nan",
         "config-monotone-tol", "seed-negative", "seeds-negative", "tune-seed-negative",
         "synthetic-seed-negative", "synthetic-negative", "max-gap-len-huge",
         "evaluate-max-gap-len-huge"],
)
def test_malformed_values_give_one_error_line(tmp_path, series_csv, args, config, env, named):
    paths = {"csv": series_csv, "out": tmp_path / "out.csv", "conf": tmp_path / "run.conf",
             "overflow": tmp_path / "overflow.csv"}
    paths["conf"].write_text(config + "\n")
    paths["overflow"].write_text("timestamp,value\n0001-01-01,0\n6000-01-01,1\n9999-01-01,2\n")
    child_env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    if env is not None:
        child_env["METERFILL_PARALLELISM"] = env
    # A child process, so that an uncaught exception shows as a traceback.
    proc = subprocess.run(
        [sys.executable, "-m", "meterfill.cli", *(a.format(**paths) for a in args.split())],
        capture_output=True, text=True, cwd=tmp_path, env=child_env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and named in line


# Text that no setting's parser accepts: without a digit, a vowel, a comma,
# a colon, a sign or "#" (a config comment), it is no number, list, range,
# weight triple or option name.
_GARBAGE = st.text(alphabet="bdgjkqxz!%&", min_size=1, max_size=8)
# The settings whose text is parsed, per command, and the valid values that
# each command requires.  Path settings take any text.
_PARSED = [(name, key) for name, command in cli.COMMANDS.items() for key in command.settings
           if cli.SETTINGS[key].parse is not str]
_REQUIRED = {"convert": ["--to=power"], "insert-gaps": ["--share=10"]}
# Evaluation lists that parse but name nothing, or an entry twice.
_BAD_LISTS = [
    ("--methods=,", "evaluation needs at least one method"),
    ("--shares=5,0.05", "share 0.05 is listed more than once"),
    ("--seeds=3,1,3", "seed 3 is listed more than once"),
    ("--methods=cpi,linear,cpi", "method 'cpi' is listed more than once"),
]
_CSV_COMMANDS = [
    ["impute", "--method=cpi"], ["impute", "--method=cpi_noscale"], ["impute", "--method=linear"],
    ["impute", "--method=histavg"], ["impute", "--method=seasonal"], ["convert", "--to=power"],
    ["insert-gaps", "--share=10"], ["evaluate", "--methods=linear"], ["tune-weights"],
]


def _positionals(command, csv, out):
    return [csv] if cli.COMMANDS[command].positionals == ("inputs",) else [csv, out]


@st.composite
def _bad_csv(draw):
    """A command reading a two-day hourly CSV with one fault: (argv, file bytes, named)."""
    text = format_series(synthetic_series(draw(st.integers(0, 99)), days=2, slots_per_day=24))
    header, *rows = text.splitlines()
    k = draw(st.integers(1, len(rows) - 2))  # neither the first nor the last row
    stamp, value = rows[k].split(",")
    garbage = draw(_GARBAGE)
    fault = draw(st.sampled_from([
        "header", "stamp", "value", "drop", "columns", "inf", "decrease", "no-values",
        "one-row", "empty", "bytes", "long",
    ]))
    if fault == "header":
        header, named = garbage + ",value", "expected header"
    elif fault == "stamp":
        rows[k], named = f"{garbage},{value}", f"invalid timestamp at row {k + 1}"
    elif fault == "value":
        rows[k], named = f"{stamp},{garbage}", f"non-numeric value at row {k + 1}"
    elif fault == "drop":
        del rows[k]
        # Without the second row the first two imply twice the resolution,
        # so the third row is the first off the grid.
        named = f"irregular spacing at row {max(k + 1, 3)}"
    elif fault == "columns":
        rows[k], named = rows[k] + ",1", f"expected 2 columns at row {k + 1}"
    elif fault == "inf":
        rows[k], named = f"{stamp},{draw(st.sampled_from(['inf', '-inf', 'Infinity']))}", \
            f"non-finite value at row {k + 1}"
    elif fault == "decrease":
        rows[k], named = f"{stamp},-1000000.0", f"decrease from index {k - 1} to {k}"
    elif fault == "no-values":
        rows = [row.split(",")[0] + "," for row in rows]
        named = "at least one present reading"
    elif fault == "one-row":
        rows, named = rows[:1], "at least two rows"
    elif fault == "empty":
        header, rows, named = "", [], "empty file"
    elif fault == "long":  # a cell past the csv module's field size limit
        rows[k], named = f"{stamp},{'1' * 200_000}", f"unreadable CSV at row {k + 1}"
    data = "".join(line + "\n" for line in [header, *rows]).encode()
    if fault == "bytes":
        data, named = data.replace(b"\n", b"\n\xff", 1), "not UTF-8"
    return draw(st.sampled_from(_CSV_COMMANDS)), data, named


@st.composite
def _bad_setting(draw):
    """A command with one bad flag value or config entry: (argv, config, named)."""
    command, key = draw(st.sampled_from(_PARSED))
    garbage = draw(_GARBAGE)
    where = draw(st.sampled_from(["flag", "config", "unknown key", "list", "bytes"]))
    required = [f for f in _REQUIRED.get(command, []) if not f.startswith(cli._flag(key) + "=")]
    argv = [command, *required]
    if where == "flag":
        return [*argv, f"{cli._flag(key)}={garbage}"], "", repr(garbage)
    if where == "config":
        return argv, f"{key} = {garbage}", repr(garbage)
    if where == "bytes":  # the surrogate is written as the byte 0xff
        entry = f"{key} = {garbage}"
        return argv, entry + "\udcff", f"not UTF-8 text: byte 0xff at offset {len(entry)}"
    if where == "unknown key":
        return argv, f"{garbage} = 1", f"unknown config key {garbage!r}"
    flag, named = draw(st.sampled_from(_BAD_LISTS))
    return ["evaluate", flag], "", named


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(_bad_csv(), _bad_setting()))
def test_bad_input_is_one_error_line_and_exit_1(tmp_path_factory, case):
    """Faulty CSV text, config entries and flag values only ever raise MeterfillError.

    ``main`` runs in this process, so any other exception fails the test
    with its traceback.
    """
    tmp = tmp_path_factory.mktemp("bad")
    csv, out, conf = tmp / "in.csv", tmp / "out.csv", tmp / "run.conf"
    argv, content, named = case
    if isinstance(content, bytes):
        csv.write_bytes(content)
    else:
        write_series(csv, synthetic_series(1, days=2, slots_per_day=24))
        conf.write_text(content + "\n", errors="surrogateescape")
        argv = [*argv, f"--config={conf}"]
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(tmp)  # where a command that wrongly succeeds writes its default outputs
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, *map(str, _positionals(argv[0], csv, out))])
    finally:
        os.chdir(cwd)
    assert rc == 1
    (line,) = err.getvalue().splitlines()
    assert line.startswith("error: ") and named in line


def test_config_file_supplies_defaults(tmp_path, series_csv):
    conf = tmp_path / "run.conf"
    conf.write_text("share = 10\nseed = 21\n")
    out_conf = tmp_path / "via-config.csv"
    out_flags = tmp_path / "via-flags.csv"
    assert run_cli("insert-gaps", "--config", conf, series_csv, out_conf) == 0
    assert run_cli("insert-gaps", "--share", "10", "--seed", "21", series_csv, out_flags) == 0
    assert out_conf.read_text() == out_flags.read_text()


def test_a_config_file_with_a_byte_order_mark_is_read_like_one_without(tmp_path, series_csv):
    conf = tmp_path / "bom.conf"
    conf.write_bytes(b"\xef\xbb\xbfseed = 3\n")
    out_conf, out_flag = tmp_path / "via-config.csv", tmp_path / "via-flag.csv"
    assert run_cli("insert-gaps", "--share", "10", "--config", conf, series_csv, out_conf) == 0
    assert run_cli("insert-gaps", "--share", "10", "--seed", "3", series_csv, out_flag) == 0
    assert out_conf.read_bytes() == out_flag.read_bytes()
    assert (tmp_path / "via-config.mask.csv").read_bytes() == (
        tmp_path / "via-flag.mask.csv").read_bytes()


def test_flags_override_the_config_file(tmp_path, series_csv):
    conf = tmp_path / "run.conf"
    conf.write_text("share = 10\nseed = 21\n")
    out = tmp_path / "out.csv"
    assert run_cli(
        "insert-gaps", "--config", conf, "--share", "20", series_csv, out
    ) == 0
    degraded = read_series(out)
    assert int(np.isnan(degraded.values).sum()) == round(0.2 * degraded.n)


@pytest.mark.parametrize("key", ["shore", "output"])
def test_unknown_config_key_is_rejected(tmp_path, series_csv, capsys, key):
    # A positional is not a config key: only the command's own flags are.
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = elsewhere.csv\n")
    rc = run_cli("insert-gaps", "--config", conf, "--share", "10", series_csv, tmp_path / "o.csv")
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not (tmp_path / "o.csv").exists()


def test_convert_reads_to_from_the_config_file(tmp_path, series_csv):
    power_flag, power_conf = tmp_path / "flag.csv", tmp_path / "conf.csv"
    conf = tmp_path / "run.conf"
    conf.write_text("to = power\nmeter-kind = consumption\n")
    assert run_cli("convert", "--to", "power", series_csv, power_flag) == 0
    assert run_cli("convert", "--config", conf, series_csv, power_conf) == 0
    assert power_conf.read_text() == power_flag.read_text()


@pytest.mark.parametrize(
    "args",
    [["impute", "--shore", "10", "in.csv", "out.csv"], ["impute", "in.csv"], ["frobnicate"],
     ["impute", "--no-scale", "in.csv", "out.csv"]],
    ids=["unknown-flag", "missing-positional", "unknown-command", "no-scale"],
)
def test_usage_errors_print_usage_and_exit_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "usage: meterfill" in capsys.readouterr().err


def test_outputs_are_reingestible(tmp_path, series_csv):
    degraded = tmp_path / "degraded.csv"
    run_cli("insert-gaps", "--share", "5", "--seed", "6", series_csv, degraded)
    completed = tmp_path / "completed.csv"
    run_cli("impute", "--method", "cpi", degraded, completed)
    for path, kind in [
        (degraded, "energy"),
        (completed, "energy"),
        (tmp_path / "completed.power.csv", "power"),
    ]:
        series = parse_series(path.read_text(), ParseConfig(kind=kind))
        assert series.n > 0
