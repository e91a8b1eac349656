"""Command-line front end: convert, insert-gaps, impute, evaluate, tune-weights.

Every setting is declared once, in ``SETTINGS`` (its parser, default and
help), and ``COMMANDS`` names the settings and positionals of each command;
the argument parser, the config-key check and the resolution are built from
the two.  A setting comes from its flag, else from a ``key = value`` config
file (``--config``), else, for ``--parallelism``, from
``METERFILL_PARALLELISM``, else from its default.  argparse only collects
text, so every value is parsed in one place: a bad one prints a one-line
``error:`` diagnostic and exits 1, like any other domain error.  Usage errors
(an unknown flag, a missing positional) print usage and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from . import metrics
from .cpi import DEFAULT_WEIGHTS, DissimilarityWeights
from .errors import MeterfillError, ValidationError
from .gapgen import MissingnessSpec, insert_missing
from .series import (
    EnergySeries,
    MeterKind,
    ParseConfig,
    _read_text,
    energy_to_power,
    power_to_energy,
    read_series,
    resolution_hours,
    write_series,
)
from .synthetic import synthetic_suite

PARALLELISM_ENV = "METERFILL_PARALLELISM"


# A parser raises ValueError for text of the wrong shape, and ``_parsed``
# names the flag, key or variable it came from; a well-formed value out of
# its domain raises the domain's own error.
def _parse_weights(text: str) -> DissimilarityWeights:
    energy, weekday, season = (float(p) for p in text.split(","))
    return DissimilarityWeights(energy, weekday, season)


def _parse_share(text: str) -> float:
    # Values of one or more are percentages, smaller ones are fractions.
    value = float(text)
    return value / 100.0 if value >= 1.0 else value


def _parse_share_list(text: str) -> list[float]:
    return [_parse_share(p) for p in text.split(",") if p.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


def _parse_methods(text: str) -> list[str]:
    if text == "all":
        return list(metrics.BENCHMARK_METHODS)
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not set(methods) <= set(metrics.METHODS):
        raise ValueError(text)
    return methods


def _choice(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(text)
        return text

    parse.options = options  # shown as the flag's metavar
    return parse


class Setting(NamedTuple):
    """How one setting is parsed, its default and its ``--help`` text."""

    parse: Callable[[str], Any]
    default: Any = None
    help: str | None = None
    aliases: tuple[str, ...] = ()
    env: str | None = None  # read when neither a flag nor the config file sets it


SETTINGS = {
    "to": Setting(_choice("power", "energy")),
    "base_energy": Setting(float, help="first meter reading for power->energy"),
    "meter_kind": Setting(_choice("consumption", "generation"), "consumption"),
    "monotone_tol": Setting(float, 0.0),
    "input_kind": Setting(_choice("energy", "power"), "energy"),
    "method": Setting(_choice(*metrics.METHODS), "cpi"),
    "weights": Setting(_parse_weights, DEFAULT_WEIGHTS,
                       "copy-paste weights: energy,weekday,season"),
    "share": Setting(_parse_share, 0.1, "values >= 1 are percentages"),
    "shares": Setting(_parse_share_list, (0.01, 0.02, 0.05, 0.1, 0.2, 0.3),
                      "comma list; values >= 1 are percentages"),
    "methods": Setting(_parse_methods, metrics.BENCHMARK_METHODS,
                       'comma list, or "all" for cpi and the baselines',
                       aliases=("--method",)),
    "seed": Setting(int, 0),
    "seeds": Setting(_parse_int_list, (0,), "comma list of evaluation seeds"),
    "max_gap_len": Setting(int),
    "single_fraction": Setting(float, 0.05),
    "parallelism": Setting(int, 1, env=PARALLELISM_ENV),
    "synthetic": Setting(int, 0, "add N synthetic one-year series"),
    "synthetic_seed": Setting(int, 0),
    "we": Setting(_parse_range, (1, 20), "energy weight range lo:hi"),
    "ww": Setting(_parse_range, (0, 10), "weekday weight range lo:hi"),
    "ws": Setting(_parse_range, (1, 20), "season weight range lo:hi"),
    "mask_out": Setting(str, help="CSV of removed indices (default <output>.mask.csv)"),
    "power_out": Setting(str, help="completed power CSV (default <output>.power.csv)"),
    "audit_out": Setting(str, help="per-gap JSONL audit (default <output>.gaps.jsonl)"),
    "report_out": Setting(str, "report.csv"),
    "aggregate_out": Setting(str, "aggregates.csv"),
    "scores_out": Setting(str, help="CSV of all grid scores"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parsed(name: str, text: str, parse):
    try:
        return parse(text)
    except ValueError:
        raise ValidationError(f"invalid value for {name}: {text!r}") from None


def _load_config_file(path: str) -> dict[str, str]:
    """The ``key = value`` settings of a UTF-8 config file, less one leading byte-order mark."""
    settings = {}
    text = _read_text(path, ValidationError).removeprefix("\ufeff")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        settings[key.strip().replace("-", "_")] = value.strip()
    return settings


def _read_energy(path: str, cfg: SimpleNamespace) -> EnergySeries:
    return read_series(
        path,
        ParseConfig(
            kind="energy",
            meter_kind=MeterKind(cfg.meter_kind),
            monotone_tol=cfg.monotone_tol,
        ),
    )


def _collect_series(cfg: SimpleNamespace) -> list[tuple[str, EnergySeries]]:
    series = [(Path(p).stem, _read_energy(p, cfg)) for p in cfg.inputs]
    if cfg.synthetic:
        series.extend(synthetic_suite(cfg.synthetic, cfg.synthetic_seed))
    if not series:
        raise ValidationError("no input series: pass CSV paths or --synthetic N")
    return series


def _sibling(output: str, suffix: str) -> str:
    path = Path(output)
    return str(path.with_name(path.stem + suffix))


def _cmd_convert(cfg: SimpleNamespace) -> int:
    if cfg.to == "power":
        es = _read_energy(cfg.input, cfg)
        write_series(cfg.output, energy_to_power(es))
    else:
        ps = read_series(cfg.input, ParseConfig(kind="power"))
        if cfg.base_energy is None:
            raise ValidationError("power -> energy conversion requires --base-energy")
        write_series(
            cfg.output,
            power_to_energy(
                ps, cfg.base_energy, MeterKind(cfg.meter_kind), cfg.monotone_tol
            ),
        )
    return 0


def _cmd_insert_gaps(cfg: SimpleNamespace) -> int:
    es = _read_energy(cfg.input, cfg)
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


def _cmd_impute(cfg: SimpleNamespace) -> int:
    impute = metrics.method_imputer(cfg.method, cfg.input_kind, cfg.weights)
    if cfg.input_kind == "power":
        write_series(cfg.output, impute(read_series(cfg.input, ParseConfig(kind="power"))))
        print(f"imputed {cfg.input} -> {cfg.output}")
        return 0

    result = impute(_read_energy(cfg.input, cfg))
    power_out = cfg.power_out or _sibling(cfg.output, ".power.csv")
    audit_out = cfg.audit_out or _sibling(cfg.output, ".gaps.jsonl")
    write_series(cfg.output, result.completed_energy)
    write_series(power_out, result.completed_power)
    _write_audit(audit_out, result, cfg.method)
    print(f"imputed {cfg.input} -> {cfg.output} ({len(result.per_gap)} gaps)")
    return 0


def _cmd_evaluate(cfg: SimpleNamespace) -> int:
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


def _cmd_tune_weights(cfg: SimpleNamespace) -> int:
    series = _collect_series(cfg)
    result = metrics.grid_search_weights(
        series,
        energy_range=cfg.we,
        weekday_range=cfg.ww,
        season_range=cfg.ws,
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


class Command(NamedTuple):
    run: Callable[[SimpleNamespace], int]
    help: str
    settings: tuple[str, ...]
    positionals: tuple[str, ...] = ("input", "output")  # "inputs" takes any number
    required: tuple[str, ...] = ()  # settings without a default for this command


COMMANDS = {
    "convert": Command(
        _cmd_convert, "convert between energy and power CSVs",
        ("to", "base_energy", "meter_kind", "monotone_tol"), required=("to",),
    ),
    "insert-gaps": Command(
        _cmd_insert_gaps, "remove values artificially for benchmarking",
        ("share", "max_gap_len", "single_fraction", "seed", "mask_out"), required=("share",),
    ),
    "impute": Command(
        _cmd_impute, "fill every missing value of a series",
        ("method", "weights", "input_kind", "meter_kind", "monotone_tol",
         "power_out", "audit_out"),
    ),
    "evaluate": Command(
        _cmd_evaluate, "benchmark imputation methods on complete series",
        ("shares", "methods", "seeds", "weights", "max_gap_len", "single_fraction",
         "parallelism", "report_out", "aggregate_out", "synthetic", "synthetic_seed"),
        ("inputs",),
    ),
    "tune-weights": Command(
        _cmd_tune_weights, "grid-search dissimilarity weights",
        ("we", "ww", "ws", "share", "max_gap_len", "seed", "scores_out", "synthetic",
         "synthetic_seed"),
        ("inputs",),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meterfill",
        description="Energy-conserving gap imputation for smart-meter time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key = value file supplying flag defaults")
        for key in command.settings:
            setting = SETTINGS[key]
            options = getattr(setting.parse, "options", None)
            kind = {"metavar": "{" + ",".join(options) + "}"} if options else {}
            p.add_argument(_flag(key), *setting.aliases, dest=key, help=setting.help, **kind)
        for key in command.positionals:
            p.add_argument(key, nargs="*" if key == "inputs" else None)
    return parser


def resolve_config(ns: argparse.Namespace) -> SimpleNamespace:
    """Parse every setting of the command; the rest keep their defaults."""
    command = COMMANDS[ns.command]
    file_conf = _load_config_file(ns.config) if ns.config else {}
    for key in file_conf:
        if key not in command.settings:
            raise ValidationError(f"unknown config key {key!r}")

    values = {key: setting.default for key, setting in SETTINGS.items()}
    for key in command.settings:
        setting = SETTINGS[key]
        sources = [
            (_flag(key), getattr(ns, key)),
            (f"config key {key}", file_conf.get(key)),
            (setting.env, os.environ.get(setting.env) if setting.env else None),
        ]
        given = [(name, text) for name, text in sources if text is not None]
        if given:
            values[key] = _parsed(*given[0], setting.parse)
        elif key in command.required:
            raise ValidationError(f"{ns.command} requires {_flag(key)}")
    positionals = {key: getattr(ns, key) for key in command.positionals}
    return SimpleNamespace(command=ns.command, **positionals, **values)


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return COMMANDS[ns.command].run(resolve_config(ns))
    except MeterfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
