"""End-to-end tests of the command-line interface."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meterfill import ParseConfig, parse_series, read_series, synthetic_series, write_series
from meterfill import cli
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
    code = ("import sys, meterfill.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
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
        ("impute --monotone-tol -1 {csv} {out}", "", None,
         "monotone_tol must be non-negative, got -1.0"),
        ("impute --monotone-tol nan {csv} {out}", "", None,
         "monotone_tol must be non-negative, got nan"),
        ("convert --to power --config {conf} {csv} {out}", "monotone_tol = -0.5", None,
         "monotone_tol must be non-negative, got -0.5"),
    ],
    ids=["weights", "shares", "seeds", "we", "config-int", "config-meter-kind",
         "config-method", "config-no-scale", "parallelism-env", "parallelism-zero",
         "parallelism-negative", "parallelism-env-zero", "timestamp-past-9999",
         "share", "parallelism", "max-gap-len", "method", "meter-kind", "to",
         "missing-to", "missing-share", "shares-nan", "shares-above-one", "tune-share-nan",
         "shares-empty", "seeds-empty", "monotone-tol-negative", "monotone-tol-nan",
         "config-monotone-tol"],
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


def test_config_file_supplies_defaults(tmp_path, series_csv):
    conf = tmp_path / "run.conf"
    conf.write_text("share = 10\nseed = 21\n")
    out_conf = tmp_path / "via-config.csv"
    out_flags = tmp_path / "via-flags.csv"
    assert run_cli("insert-gaps", "--config", conf, series_csv, out_conf) == 0
    assert run_cli("insert-gaps", "--share", "10", "--seed", "21", series_csv, out_flags) == 0
    assert out_conf.read_text() == out_flags.read_text()


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
