"""Command-line front end: convert, insert-gaps, impute, evaluate, tune-weights.

Flags may be pre-set from a ``key = value`` config file (``--config``);
explicit flags win.  ``METERFILL_PARALLELISM`` sets the default evaluation
parallelism.  All commands exit 0 on success and print a one-line
diagnostic to stderr with a nonzero exit status on any domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics
from .baselines import BASELINES
from .cpi import CpiConfig, DissimilarityWeights, GapFill, complete_from_power, impute_cpi
from .errors import MeterfillError, ValidationError
from .gapgen import MissingnessSpec, insert_missing
from .series import (
    EnergySeries,
    MeterKind,
    ParseConfig,
    detect_gaps,
    energy_to_power,
    power_to_energy,
    read_series,
    resolution_hours,
    write_series,
)
from .synthetic import synthetic_suite

PARALLELISM_ENV = "METERFILL_PARALLELISM"


@dataclass
class RunConfig:
    """A fully resolved command invocation."""

    command: str
    inputs: list[str] = field(default_factory=list)
    output: str | None = None
    to: str | None = None
    base_energy: float | None = None
    meter_kind: str = "consumption"
    monotone_tol: float = 0.0
    input_kind: str = "energy"
    method: str = "cpi"
    weights: DissimilarityWeights = DissimilarityWeights()
    no_scale: bool = False
    share: float | None = None
    shares: list[float] = field(default_factory=list)
    max_gap_len: int | None = None
    single_fraction: float = 0.05
    seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [0])
    methods: list[str] = field(default_factory=lambda: list(metrics.BENCHMARK_METHODS))
    parallelism: int = 1
    mask_out: str | None = None
    power_out: str | None = None
    audit_out: str | None = None
    report_out: str = "report.csv"
    aggregate_out: str = "aggregates.csv"
    scores_out: str | None = None
    synthetic: int = 0
    synthetic_seed: int = 0
    energy_weight_range: tuple[int, int] = (1, 20)
    weekday_weight_range: tuple[int, int] = (0, 10)
    season_weight_range: tuple[int, int] = (1, 20)


def _parse_weights(text: str) -> DissimilarityWeights:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValidationError(f"weights must be three comma-separated numbers, got {text!r}")
    return DissimilarityWeights(*(float(p) for p in parts))


def _parse_share(value: float) -> float:
    # Values of one or more are percentages, smaller ones are fractions.
    return value / 100.0 if value >= 1.0 else value


def _parse_share_list(text: str) -> list[float]:
    return [_parse_share(float(p)) for p in text.split(",") if p.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not hi:
        raise ValidationError(f"ranges are written lo:hi, got {text!r}")
    return int(lo), int(hi)


def _load_config_file(path: str) -> dict[str, str]:
    settings = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        settings[key.strip().replace("-", "_")] = value.strip()
    return settings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meterfill",
        description="Energy-conserving gap imputation for smart-meter time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file supplying flag defaults")

    p = sub.add_parser("convert", help="convert between energy and power CSVs")
    common(p)
    p.add_argument("--to", choices=["power", "energy"], required=True)
    p.add_argument("--base-energy", type=float, help="first meter reading for power->energy")
    p.add_argument("--meter-kind", choices=["consumption", "generation"])
    p.add_argument("--monotone-tol", type=float)
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("insert-gaps", help="remove values artificially for benchmarking")
    common(p)
    p.add_argument("--share", type=float)
    p.add_argument("--max-gap-len", type=int)
    p.add_argument("--single-fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mask-out", help="CSV of removed indices (default <output>.mask.csv)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("impute", help="fill every missing value of a series")
    common(p)
    p.add_argument("--method", choices=list(metrics.ALL_METHODS))
    p.add_argument("--weights", help="copy-paste weights: energy,weekday,season")
    p.add_argument("--no-scale", action="store_true", help="skip per-gap energy scaling")
    p.add_argument("--input-kind", choices=["energy", "power"])
    p.add_argument("--meter-kind", choices=["consumption", "generation"])
    p.add_argument("--monotone-tol", type=float)
    p.add_argument("--power-out", help="completed power CSV (default <output>.power.csv)")
    p.add_argument("--audit-out", help="per-gap JSONL audit (default <output>.gaps.jsonl)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("evaluate", help="benchmark imputation methods on complete series")
    common(p)
    p.add_argument("--shares", help="comma list; values >= 1 are percentages")
    p.add_argument("--methods", "--method", dest="methods", help='comma list or "all"')
    p.add_argument("--seeds", help="comma list of evaluation seeds")
    p.add_argument("--weights")
    p.add_argument("--max-gap-len", type=int)
    p.add_argument("--single-fraction", type=float)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--report-out")
    p.add_argument("--aggregate-out")
    p.add_argument("--synthetic", type=int, help="add N synthetic one-year series")
    p.add_argument("--synthetic-seed", type=int)
    p.add_argument("inputs", nargs="*")

    p = sub.add_parser("tune-weights", help="grid-search dissimilarity weights")
    common(p)
    p.add_argument("--we", help="energy weight range lo:hi")
    p.add_argument("--ww", help="weekday weight range lo:hi")
    p.add_argument("--ws", help="season weight range lo:hi")
    p.add_argument("--share", type=float)
    p.add_argument("--max-gap-len", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--scores-out", help="CSV of all grid scores")
    p.add_argument("--synthetic", type=int)
    p.add_argument("--synthetic-seed", type=int)
    p.add_argument("inputs", nargs="*")

    return parser


def _setting(ns: argparse.Namespace, file_conf: dict[str, str], key: str, parse, default):
    value = getattr(ns, key, None)
    if value is not None and value is not False:
        return parse(value) if isinstance(value, str) and parse else value
    if key in file_conf:
        return parse(file_conf[key]) if parse else file_conf[key]
    return default


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    file_conf = _load_config_file(ns.config) if getattr(ns, "config", None) else {}
    known = set(vars(ns))
    for key in file_conf:
        if key not in known:
            raise ValidationError(f"unknown config key {key!r}")

    cfg = RunConfig(command=ns.command)
    g = lambda key, parse, default: _setting(ns, file_conf, key, parse, default)

    if ns.command == "convert":
        cfg.inputs = [ns.input]
        cfg.output = ns.output
        cfg.to = ns.to
        cfg.base_energy = g("base_energy", float, None)
        cfg.meter_kind = g("meter_kind", str, "consumption")
        cfg.monotone_tol = g("monotone_tol", float, 0.0)
    elif ns.command == "insert-gaps":
        cfg.inputs = [ns.input]
        cfg.output = ns.output
        share = g("share", float, None)
        if share is None:
            raise ValidationError("insert-gaps requires --share")
        cfg.share = _parse_share(share)
        cfg.max_gap_len = g("max_gap_len", int, None)
        cfg.single_fraction = g("single_fraction", float, 0.05)
        cfg.seed = g("seed", int, 0)
        cfg.mask_out = g("mask_out", str, None)
    elif ns.command == "impute":
        cfg.inputs = [ns.input]
        cfg.output = ns.output
        cfg.method = g("method", str, "cpi")
        cfg.weights = g("weights", _parse_weights, DissimilarityWeights())
        cfg.no_scale = bool(getattr(ns, "no_scale", False) or file_conf.get("no_scale") == "true")
        cfg.input_kind = g("input_kind", str, "energy")
        cfg.meter_kind = g("meter_kind", str, "consumption")
        cfg.monotone_tol = g("monotone_tol", float, 0.0)
        cfg.power_out = g("power_out", str, None)
        cfg.audit_out = g("audit_out", str, None)
    elif ns.command == "evaluate":
        cfg.inputs = list(ns.inputs)
        cfg.shares = g("shares", _parse_share_list, [0.01, 0.02, 0.05, 0.1, 0.2, 0.3])
        methods = g("methods", str, "all")
        cfg.methods = list(metrics.BENCHMARK_METHODS) if methods == "all" else [
            m.strip() for m in methods.split(",") if m.strip()
        ]
        for m in cfg.methods:
            if m not in metrics.ALL_METHODS:
                raise ValidationError(f"unknown method {m!r}")
        cfg.seeds = g("seeds", _parse_int_list, [0])
        cfg.weights = g("weights", _parse_weights, DissimilarityWeights())
        cfg.max_gap_len = g("max_gap_len", int, None)
        cfg.single_fraction = g("single_fraction", float, 0.05)
        cfg.parallelism = g(
            "parallelism", int, int(os.environ.get(PARALLELISM_ENV, "1"))
        )
        cfg.report_out = g("report_out", str, "report.csv")
        cfg.aggregate_out = g("aggregate_out", str, "aggregates.csv")
        cfg.synthetic = g("synthetic", int, 0)
        cfg.synthetic_seed = g("synthetic_seed", int, 0)
    elif ns.command == "tune-weights":
        cfg.inputs = list(ns.inputs)
        cfg.energy_weight_range = g("we", _parse_range, (1, 20))
        cfg.weekday_weight_range = g("ww", _parse_range, (0, 10))
        cfg.season_weight_range = g("ws", _parse_range, (1, 20))
        share = g("share", float, 10.0)
        cfg.share = _parse_share(share)
        cfg.max_gap_len = g("max_gap_len", int, None)
        cfg.seed = g("seed", int, 0)
        cfg.scores_out = g("scores_out", str, None)
        cfg.synthetic = g("synthetic", int, 0)
        cfg.synthetic_seed = g("synthetic_seed", int, 0)
    return cfg


def _read_energy(path: str, cfg: RunConfig) -> EnergySeries:
    return read_series(
        path,
        ParseConfig(
            kind="energy",
            meter_kind=MeterKind(cfg.meter_kind),
            monotone_tol=cfg.monotone_tol,
        ),
    )


def _collect_series(cfg: RunConfig) -> list[tuple[str, EnergySeries]]:
    series = [(Path(p).stem, _read_energy(p, cfg)) for p in cfg.inputs]
    if cfg.synthetic:
        series.extend(synthetic_suite(cfg.synthetic, cfg.synthetic_seed))
    if not series:
        raise ValidationError("no input series: pass CSV paths or --synthetic N")
    return series


def _sibling(output: str, suffix: str) -> str:
    path = Path(output)
    return str(path.with_name(path.stem + suffix))


def _cmd_convert(cfg: RunConfig) -> int:
    if cfg.to == "power":
        es = _read_energy(cfg.inputs[0], cfg)
        write_series(cfg.output, energy_to_power(es))
    else:
        ps = read_series(cfg.inputs[0], ParseConfig(kind="power"))
        if cfg.base_energy is None:
            raise ValidationError("power -> energy conversion requires --base-energy")
        write_series(
            cfg.output,
            power_to_energy(
                ps, cfg.base_energy, MeterKind(cfg.meter_kind), cfg.monotone_tol
            ),
        )
    return 0


def _cmd_insert_gaps(cfg: RunConfig) -> int:
    es = _read_energy(cfg.inputs[0], cfg)
    spec = MissingnessSpec(
        share=cfg.share,
        max_gap_len=cfg.max_gap_len,
        single_fraction=cfg.single_fraction,
        seed=cfg.seed,
    )
    degraded, mask = insert_missing(es, spec)
    write_series(cfg.output, degraded)
    mask_path = cfg.mask_out or _sibling(cfg.output, ".mask.csv")
    singles = set(int(i) for i in mask.singles)
    with open(mask_path, "w", encoding="utf-8") as f:
        f.write("index,is_single\n")
        for i in mask.indices:
            f.write(f"{int(i)},{1 if int(i) in singles else 0}\n")
    print(f"removed {mask.indices.size} readings ({mask.singles.size} singles) -> {cfg.output}")
    return 0


def _write_audit(path: str, result, method: str) -> None:
    dt_hours = resolution_hours(result.imputed_power.resolution)
    with open(path, "w", encoding="utf-8") as f:
        for fill in result.per_gap:
            gap = fill.gap
            span = result.imputed_power.values[gap.first_missing : gap.last_missing + 1]
            record = {
                "method": method,
                "first_missing": gap.first_missing,
                "last_missing": gap.last_missing,
                "anchored": fill.anchored,
                "actual_energy": gap.actual_energy,
                "imputed_energy": float(span.sum() * dt_hours),
                "scale": fill.scale,
                "fallback": fill.fallback,
                "sources": [
                    {"day": str(day), "copied_from": str(source)}
                    for day, source in fill.sources
                ],
            }
            f.write(json.dumps(record) + "\n")


def _cmd_impute(cfg: RunConfig) -> int:
    es = _read_energy(cfg.inputs[0], cfg)
    power_out = cfg.power_out or _sibling(cfg.output, ".power.csv")
    audit_out = cfg.audit_out or _sibling(cfg.output, ".gaps.jsonl")

    if cfg.method in ("cpi", "cpi_noscale"):
        config = CpiConfig(scale=not (cfg.no_scale or cfg.method == "cpi_noscale"))
        result = impute_cpi(es, cfg.weights, config)
    else:
        result = complete_from_power(
            es,
            BASELINES[cfg.method](energy_to_power(es)),
            tuple(GapFill(g, (), None, anchored=g.anchored) for g in detect_gaps(es)),
        )
    write_series(cfg.output, result.completed_energy)
    write_series(power_out, result.completed_power)
    _write_audit(audit_out, result, cfg.method)
    print(f"imputed {cfg.inputs[0]} -> {cfg.output} ({len(result.per_gap)} gaps)")
    return 0


def _cmd_impute_power_only(cfg: RunConfig) -> int:
    ps = read_series(cfg.inputs[0], ParseConfig(kind="power"))
    write_series(cfg.output, BASELINES[cfg.method](ps))
    print(f"imputed {cfg.inputs[0]} -> {cfg.output}")
    return 0


def _cmd_evaluate(cfg: RunConfig) -> int:
    series = _collect_series(cfg)
    report = metrics.evaluate(
        series,
        shares=cfg.shares,
        methods=cfg.methods,
        seeds=cfg.seeds,
        weights=cfg.weights,
        max_gap_len=cfg.max_gap_len,
        single_fraction=cfg.single_fraction,
        parallelism=cfg.parallelism,
    )
    Path(cfg.report_out).write_text(metrics.format_report_csv(report), encoding="utf-8")
    Path(cfg.aggregate_out).write_text(metrics.format_aggregates_csv(report), encoding="utf-8")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"scored {len(report.rows)} cells over {len(series)} series -> "
        f"{cfg.report_out}, {cfg.aggregate_out}"
    )
    return 0


def _cmd_tune_weights(cfg: RunConfig) -> int:
    series = _collect_series(cfg)
    result = metrics.grid_search_weights(
        series,
        energy_range=cfg.energy_weight_range,
        weekday_range=cfg.weekday_weight_range,
        season_range=cfg.season_weight_range,
        share=cfg.share,
        seed=cfg.seed,
        max_gap_len=cfg.max_gap_len,
    )
    if cfg.scores_out:
        with open(cfg.scores_out, "w", encoding="utf-8") as f:
            f.write("w_energy,w_weekday,w_season,mape_p\n")
            for we, ww, ws, score in result.scores:
                f.write(f"{we},{ww},{ws},{score!r}\n")
    best = result.best
    print(f"selected weights: {best.energy:g},{best.weekday:g},{best.season:g}")
    return 0


def run(cfg: RunConfig) -> int:
    """Execute a resolved command; raises MeterfillError on domain failures."""
    if cfg.command == "convert":
        return _cmd_convert(cfg)
    if cfg.command == "insert-gaps":
        return _cmd_insert_gaps(cfg)
    if cfg.command == "impute":
        if cfg.input_kind == "power":
            if cfg.method in ("cpi", "cpi_noscale"):
                raise ValidationError("copy-paste imputation requires an energy input")
            return _cmd_impute_power_only(cfg)
        return _cmd_impute(cfg)
    if cfg.command == "evaluate":
        return _cmd_evaluate(cfg)
    if cfg.command == "tune-weights":
        return _cmd_tune_weights(cfg)
    raise ValidationError(f"unknown command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = resolve_config(ns)
        return run(cfg)
    except MeterfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
