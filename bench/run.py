"""Benchmark of meterfill's three end-to-end paths, with a traced run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports ``meterfill`` from
the checkout's ``src/`` and refuses to run without it.  Inputs are synthetic
and derived from ``--seed`` alone.  Each workload is a fixed list of
operations (one pass); the benchmark runs passes in a closed loop, one
operation at a time, until ``--seconds`` have passed and at least one pass is
complete.  Every operation's output is checked.  Times are reported per pass,
as the sum over the operations of each one's median time.

Every time printed is scaled to a reference host speed (see
``SpeedReference``): the benchmark times a fixed task that runs no meterfill
code before and after each timed operation and set-up, and scales each time
by how fast that task ran around it.  The report line keeps the unscaled
``wall_s`` and ``op_p50_s``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation once untraced and once traced, in alternating order, and prints
the per-layer metrics plus ``trace.overhead_s``.  The second-to-last line of
output is a JSON report (machine stamp, input properties, sample counts);
the last line is the result.  The exit status is nonzero if any operation
or output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

SETUP_REPEATS = 3
OP_TIMEOUT_S = 120
CONSERVATION_TOL = 1e-9
STANDARD_SHARES = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
ALL_METHODS = ("cpi", "cpi_noscale", "linear", "histavg", "seasonal")
# How the console script ``meterfill`` starts the CLI, plus one last line on
# stderr with the process's peak resident memory.  The child's own rusage
# cannot give it: Linux carries the parent's peak across fork and exec.
CLI_ENTRY = (
    "import sys; from meterfill.cli import main; code = main(); "
    "print(*[l for l in open('/proc/self/status') if l.startswith('VmHWM:')], "
    "sep='', end='', file=sys.stderr); sys.exit(code)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mape_cpi", "ratio"),
)
PER_LAYER = (
    ("series.parse_s", "s"),
    ("series.format_s", "s"),
    ("series.day_partition_s", "s"),
    ("series.day_partition_calls", "count"),
    ("series.detect_gaps_s", "s"),
    ("series.energy_to_power_s", "s"),
    ("series.fill_energy_s", "s"),
    ("cli.import_s", "s"),
    ("cli.impute_self_s", "s"),
    ("cpi.plan_s", "s"),
    ("cpi.plan_calls", "count"),
    ("cpi.interpolate_singles_s", "s"),
    ("cpi.fit_weekly_pattern_s", "s"),
    ("cpi.estimate_daily_energy_s", "s"),
    ("cpi.compile_complete_days_s", "s"),
    ("cpi.match_s", "s"),
    ("cpi.match_calls", "count"),
    ("cpi.paste_scale_s", "s"),
    ("cpi.gaps", "count"),
    ("cpi.gap_days", "count"),
    ("cpi.fallbacks", "count"),
    ("cpi.distinct_assignment_ratio", "ratio"),
    ("baselines.linear_s", "s"),
    ("baselines.histavg_s", "s"),
    ("baselines.seasonal_s", "s"),
    ("gapgen.insert_missing_s", "s"),
    ("gapgen.gaps_placed", "count"),
    ("metrics.score_self_s", "s"),
    ("metrics.mape_s", "s"),
    ("metrics.harness_self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Size:
    days: int
    slots_per_day: int
    csv_series: int
    csv_shares: tuple[float, ...]
    grid_series: int
    grid_shares: tuple[float, ...]
    tune_series: int
    tune_grid: tuple[tuple[int, int], ...]  # energy, weekday, season ranges


SIZES = {
    "full": Size(365, 96, 4, (0.01, 0.1, 0.3), 8, STANDARD_SHARES, 6, ((1, 5), (0, 1), (1, 2))),
    # For the self-test only: every layer still runs, in seconds.
    "tiny": Size(56, 24, 2, (0.01, 0.1, 0.3), 2, (0.1, 0.3), 2, ((1, 2), (0, 1), (1, 2))),
}
TUNE_SHARE = 0.1
MAPE_SHARE = 0.1


class CheckFailed(Exception):
    """An operation's output is wrong."""


class SpeedReference:
    """Host-speed reference: a fixed task that runs no meterfill code.

    On a shared host the speed of every process drifts, and often steps, by
    tens of percent within a minute, far more than the program's own
    run-to-run noise.  The task mixes what the workloads do, on fixed data:
    an interpreter loop, numpy streaming over a few MB, distances between
    the rows of a day matrix, and many numpy calls on one day's readings.
    Each of these follows the drift differently; their sum follows the
    workloads' time more closely than any one of them.  The benchmark reads it before and after every timed
    operation and scales the operation's time by ``NOMINAL_S`` over the mean
    of the two readings: each time is then in seconds on a host where the
    task takes ``NOMINAL_S``.  A change to meterfill does not change the
    task, so it shows in full.
    """

    NOMINAL_S = 0.03
    SAMPLES = 3  # task runs per reading; a reading is their median

    def __init__(self):
        self.data = np.random.default_rng(0).random(200_000)
        self.days = self.data[: 365 * 96].reshape(365, 96)
        self.readings: list[float] = []

    def _task(self) -> float:
        started = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        x = self.data
        for _ in range(4):
            x = x * 1.0001 + 0.5
            np.add.accumulate(x)
        for i in range(0, 365, 6):
            np.argsort(np.abs(self.days - self.days[i]).sum(axis=1))[:10]
        row = self.days[0]
        for _ in range(3000):
            (row * 2.0).sum()
        elapsed = perf_counter() - started
        if total != 199_999:
            raise RuntimeError("speed reference task computed a wrong result")
        return elapsed

    def reading(self) -> float:
        self.readings.append(statistics.median(self._task() for _ in range(self.SAMPLES)))
        return self.readings[-1]

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / ((before + after) / 2)


def _import_meterfill():
    if not (SRC / "meterfill" / "__init__.py").is_file():
        sys.exit(f"error: no meterfill sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import meterfill

    if SRC.resolve() not in Path(meterfill.__file__).resolve().parents:
        sys.exit(f"error: imported meterfill from {meterfill.__file__}, not from {SRC}")
    return numpy, meterfill


np, meterfill = None, None  # bound in main() once the checkout is verified


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _missing_runs(values) -> list[tuple[int, int]]:
    """(first, last) reading index of each maximal run of NaN readings."""
    miss = np.isnan(values).astype(np.int8)
    edges = np.diff(np.concatenate(([0], miss, [0])))
    return list(zip(np.flatnonzero(edges == 1).tolist(), (np.flatnonzero(edges == -1) - 1).tolist()))


def _input_properties(series, spd: int) -> dict:
    runs = _missing_runs(series.values)
    missing_days = {i // spd for a, b in runs for i in range(a, b + 1)}
    return {
        "rows": series.n,
        "gaps": sum(1 for a, b in runs if b > a),
        "singles": sum(1 for a, b in runs if b == a),
        "gap_days": len(missing_days),
        "share": float(np.isnan(series.values).mean()),
    }


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ImputeCsv:
    """One client runs ``meterfill impute --method cpi`` per degraded CSV."""

    def __init__(self, size: Size, seed: int, work: Path):
        self.size, self.seed, self.work = size, seed, work
        pythonpath = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
        self.files: list[dict] = []
        self.fingerprints: dict[int, str] = {}
        self.mapes: dict[int, tuple[float, int]] = {}  # (MAPE, values scored)
        self.peak_kb = 0

    def setup(self) -> None:
        from meterfill import MissingnessSpec, insert_missing, synthetic_series, write_series

        rng = np.random.default_rng(self.seed)
        self.files = []
        for i, series_seed in enumerate(_seeds(rng, self.size.csv_series)):
            truth = synthetic_series(series_seed, self.size.days, self.size.slots_per_day)
            for share, gap_seed in zip(self.size.csv_shares, _seeds(rng, len(self.size.csv_shares))):
                degraded, _ = insert_missing(truth, MissingnessSpec(share=share, seed=gap_seed))
                path = self.work / f"meter{i}-{round(share * 100)}pct.csv"
                write_series(path, degraded)
                self.files.append({"path": path, "truth": truth, "degraded": degraded,
                                   "output": self.work / f"meter{i}-{round(share * 100)}pct.out.csv"})

    @property
    def ops(self) -> range:
        return range(len(self.files))

    def inputs(self) -> dict:
        return {f["path"].name: _input_properties(f["degraded"], self.size.slots_per_day)
                for f in self.files}

    def run_op(self, key: int, traced: bool):
        f = self.files[key]
        layers_path = self.work / "layers.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(layers_path)]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        cmd += ["impute", "--method", "cpi", str(f["path"]), str(f["output"])]
        started = perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.work, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        elapsed = perf_counter() - started
        if proc.returncode != 0:
            raise CheckFailed(f"meterfill impute exited {proc.returncode}: {proc.stderr.strip()}")
        if traced:
            layers = json.loads(layers_path.read_text(encoding="utf-8"))
        else:
            layers = None
            peak = [line.split()[1] for line in proc.stderr.splitlines()
                    if line.startswith("VmHWM:")]
            if not peak:
                raise CheckFailed("meterfill impute did not report its peak memory")
            self.peak_kb = max(self.peak_kb, int(peak[-1]))
        self._check(key)
        return elapsed, layers

    def _check(self, key: int) -> None:
        f = self.files[key]
        out = f["output"]
        power_out = out.with_name(out.stem + ".power.csv")
        audit_out = out.with_name(out.stem + ".gaps.jsonl")
        fingerprint = _sha256(out, power_out, audit_out)
        if key in self.fingerprints:
            if fingerprint != self.fingerprints[key]:
                raise CheckFailed(f"{out.name}: output differs from the first run on the same input")
            return

        from meterfill import ParseConfig, energy_to_power, mape_p, read_series

        degraded, truth = f["degraded"], f["truth"]
        energy = read_series(out)
        power = read_series(power_out, ParseConfig(kind="power"))
        if energy.n != degraded.n or power.n != degraded.n - 1:
            raise CheckFailed(f"{out.name}: output length differs from the input")
        if np.isnan(energy.values).any() or np.isnan(power.values).any():
            raise CheckFailed(f"{out.name}: output still has missing values")
        present = ~np.isnan(degraded.values)
        if not np.array_equal(energy.values[present], degraded.values[present]):
            raise CheckFailed(f"{out.name}: a present reading changed")

        dt = degraded.resolution.total_seconds() / 3600.0
        runs = _missing_runs(degraded.values)
        for a, b in runs:  # readings a..b missing; power a-1..b spans the gap
            if a == 0 or b == degraded.n - 1:
                continue  # unanchored: no metered energy to conserve
            actual = degraded.values[b + 1] - degraded.values[a - 1]
            imputed = power.values[a - 1 : b + 1].sum() * dt
            if abs(imputed - actual) > CONSERVATION_TOL * abs(actual):
                raise CheckFailed(f"{out.name}: gap at reading {a} imputes {imputed!r} "
                                  f"kWh for a metered {actual!r} kWh")

        # Isolated single readings are interpolated, not filled as gaps.
        expected = sorted((a - 1, b) for a, b in runs if b > a)
        lines = audit_out.read_text(encoding="utf-8").splitlines()
        audited = sorted((r["first_missing"], r["last_missing"]) for r in map(json.loads, lines))
        if audited != expected:
            raise CheckFailed(f"{audit_out.name}: {len(lines)} audit lines for "
                              f"{len(expected)} gaps, or gap spans differ")

        mask = np.flatnonzero(np.isnan(energy_to_power(degraded).values))
        mape = mape_p(energy_to_power(truth), power, mask)
        self.mapes[key] = (mape.value, mask.size - mape.skipped)
        self.fingerprints[key] = fingerprint

    def mape_cpi(self) -> float:
        """MAPE over every imputed value of every file (files weighted by size)."""
        return sum(m * n for m, n in self.mapes.values()) / sum(n for _, n in self.mapes.values())

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


class InProcess:
    """Shared loop body for the workloads that call the library directly."""

    def run_op(self, key: int, traced: bool):
        if not traced:
            started = perf_counter()
            result = self.call(key)
            elapsed = perf_counter() - started
            self.check(key, result)
            return elapsed, None
        tracer = Tracer()
        tracer.install()
        try:
            started = perf_counter()
            with tracer.span("metrics.harness"):
                result = self.call(key)
            elapsed = perf_counter() - started
        finally:
            tracer.uninstall()
        self.check(key, result)
        layers = tracer.layer_metrics()
        layers["cli.import_s"] = 0.0
        return elapsed, layers

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class EvaluateGrid(InProcess):
    """``metrics.evaluate``: each series × every share × all five methods."""

    def __init__(self, size: Size, seed: int, work: Path):
        self.size, self.seed = size, seed
        self.series: list = []
        self.eval_seeds: list[int] = []
        self.first_rows: dict[int, list] = {}

    def setup(self) -> None:
        from meterfill import synthetic_series

        rng = np.random.default_rng(self.seed)
        self.series = [
            (f"synth-{i}", synthetic_series(s, self.size.days, self.size.slots_per_day))
            for i, s in enumerate(_seeds(rng, self.size.grid_series))
        ]
        self.eval_seeds = _seeds(rng, self.size.grid_series)

    @property
    def ops(self) -> range:
        return range(len(self.series))

    def inputs(self) -> dict:
        return {"series": len(self.series), "rows": self.series[0][1].n,
                "shares": list(self.size.grid_shares), "methods": list(ALL_METHODS)}

    def call(self, key: int):
        # One series per call, so that a pass is several operations; the
        # cells are independent, so this is the same work as one call.
        return meterfill.metrics.evaluate(
            [self.series[key]], shares=self.size.grid_shares, methods=ALL_METHODS,
            seeds=(self.eval_seeds[key],), parallelism=1,
        )

    def check(self, key: int, report) -> None:
        rows = [(r.share, r.method, r.mape_p, r.wape_e, r.error) for r in report.rows]
        if len(rows) != len(self.size.grid_shares) * len(ALL_METHODS):
            raise CheckFailed(f"series {key}: {len(rows)} grid cells")
        for share, method, _, wape, error in rows:
            if error is not None:
                raise CheckFailed(f"series {key} share {share} {method}: {error}")
            if method == "cpi" and not wape <= CONSERVATION_TOL:
                raise CheckFailed(f"series {key} share {share}: cpi WAPE {wape!r}")
        if self.first_rows.setdefault(key, rows) != rows:
            raise CheckFailed(f"series {key}: scores differ from the first run on the same input")

    def mape_cpi(self) -> float:
        values = [mape for rows in self.first_rows.values()
                  for share, method, mape, _, _ in rows
                  if method == "cpi" and share == MAPE_SHARE]
        if len(values) >= 5:
            return meterfill.metrics.trimmed_mean(values)
        return statistics.fmean(values)


class TuneWeights(InProcess):
    """``metrics.grid_search_weights`` over a small weight grid."""

    def __init__(self, size: Size, seed: int, work: Path):
        self.size, self.seed = size, seed
        self.calibration: list = []
        self.tune_seed = 0
        self.first: tuple | None = None

    def setup(self) -> None:
        from meterfill import synthetic_series

        rng = np.random.default_rng(self.seed)
        self.calibration = [
            (f"cal-{i}", synthetic_series(s, self.size.days, self.size.slots_per_day))
            for i, s in enumerate(_seeds(rng, self.size.tune_series))
        ]
        (self.tune_seed,) = _seeds(rng, 1)

    ops = range(1)

    def inputs(self) -> dict:
        return {"series": len(self.calibration), "rows": self.calibration[0][1].n,
                "share": TUNE_SHARE, "grid": [list(r) for r in self.size.tune_grid]}

    def call(self, key: int):
        (we, ww, ws) = self.size.tune_grid
        return meterfill.metrics.grid_search_weights(
            self.calibration, energy_range=we, weekday_range=ww, season_range=ws,
            share=TUNE_SHARE, seed=self.tune_seed,
        )

    def check(self, key: int, result) -> None:
        (we, ww, ws) = self.size.tune_grid
        expected = (we[1] - we[0] + 1) * (ww[1] - ww[0] + 1) * (ws[1] - ws[0] + 1)
        if len(result.scores) != expected:
            raise CheckFailed(f"{len(result.scores)} grid scores, expected {expected}")
        best = min(result.scores, key=lambda s: (s[3], s[0] + s[1] + s[2], s[:3]))
        chosen = (result.best.energy, result.best.weekday, result.best.season)
        if chosen != best[:3]:
            raise CheckFailed(f"selected weights {chosen} but the lowest score is at {best[:3]}")
        outcome = (chosen, best[3], tuple(result.scores))
        if self.first is None:
            self.first = outcome
        elif outcome != self.first:
            raise CheckFailed("grid scores differ from the first run on the same input")

    def mape_cpi(self) -> float:
        return self.first[1]


WORKLOADS = {"impute-csv": ImputeCsv, "evaluate-grid": EvaluateGrid, "tune-weights": TuneWeights}


def machine_stamp() -> dict:
    """nproc, CPU model, cache sizes, Python and numpy versions, source identity."""
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "meterfill").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def measure(workload, seconds: float, trace: bool, reference: SpeedReference):
    """Closed loop over passes; returns per-op samples and the failure count.

    Untraced samples are (scaled, unscaled) times; traced samples are the
    scaled time and the scaled layer metrics.  The speed reference is read
    between operations, outside their timed part.
    """
    untraced = {key: [] for key in workload.ops}
    traced = {key: [] for key in workload.ops}
    attempted = failed = 0
    started = perf_counter()
    passes = 0
    before = reference.reading()
    while True:
        for index, key in enumerate(workload.ops):
            modes = (False, True) if trace else (False,)
            if trace and (passes + index) % 2:  # half of each pass runs traced first
                modes = modes[::-1]
            for mode in modes:
                attempted += 1
                try:
                    elapsed, layers = workload.run_op(key, mode)
                except Exception:  # counted and reported; the loop keeps going
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    before = reference.reading()
                    continue
                after = reference.reading()
                scale = reference.scale(before, after)
                before = after
                if mode:
                    traced[key].append((elapsed * scale, {
                        name: value * scale if name.endswith("_s") else value
                        for name, value in layers.items()
                    }))
                else:
                    untraced[key].append((elapsed * scale, elapsed))
            if passes >= 1 and perf_counter() - started >= seconds:
                return untraced, traced, attempted, failed
        passes += 1
        if perf_counter() - started >= seconds:
            return untraced, traced, attempted, failed


def _per_pass(samples: dict[int, list[float]]) -> float:
    return sum(statistics.median(values) for values in samples.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' exists for the self-test")
    args = parser.parse_args(argv)

    global np, meterfill
    np, meterfill = _import_meterfill()

    stamp = machine_stamp()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = WORKLOADS[args.workload](SIZES[args.size], args.seed, work)
        reference = SpeedReference()
        setup_times = []  # (scaled, unscaled)
        before = reference.reading()
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            workload.setup()
            elapsed = perf_counter() - started
            after = reference.reading()
            setup_times.append((elapsed * reference.scale(before, after), elapsed))
            before = after
        untraced, traced, attempted, failed = measure(workload, args.seconds, bool(args.trace),
                                                      reference)
        complete = all(untraced.values()) and (not args.trace or all(traced.values()))

        metrics: dict[str, float] = {}
        unscaled: dict[str, float] = {}
        if complete and not args.trace:
            for i, kind in enumerate((metrics, unscaled)):
                per_op = {key: [sample[i] for sample in values]
                          for key, values in untraced.items()}
                kind["setup_s"] = statistics.median(sample[i] for sample in setup_times)
                kind["wall_s"] = _per_pass(per_op)
                kind["op_p50_s"] = statistics.median(t for ts in per_op.values() for t in ts)
            metrics.update({
                "peak_rss_mb": workload.peak_rss_mb(),
                "mape_cpi": workload.mape_cpi(),
            })
        elif complete:
            names = [name for name, _ in PER_LAYER if name not in
                     ("cpi.distinct_assignment_ratio", "trace.overhead_s")]
            layer_samples = {key: [layers for _, layers in values]
                             for key, values in traced.items()}
            for name in names + ["cpi.distinct_assignments"]:
                metrics[name] = sum(statistics.median(layers[name] for layers in samples)
                                    for samples in layer_samples.values())
            distinct = metrics.pop("cpi.distinct_assignments")
            calls = metrics["cpi.match_calls"]
            metrics["cpi.distinct_assignment_ratio"] = distinct / calls if calls else 0.0
            metrics["trace.overhead_s"] = (
                _per_pass({k: [t for t, _ in v] for k, v in traced.items()})
                - _per_pass({k: [t for t, _ in v] for k, v in untraced.items()})
            )
        units = dict(PER_LAYER if args.trace else END_TO_END)
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "stamp": stamp,
            "inputs": workload.inputs(),
            "samples": {"untraced": sum(map(len, untraced.values())),
                        "traced": sum(map(len, traced.values())),
                        "operations_per_pass": len(workload.ops)},
            "setup_s_each": [unscaled_time for _, unscaled_time in setup_times],
            "speed_reference": {"nominal_s": SpeedReference.NOMINAL_S,
                                "readings": len(reference.readings),
                                "median_s": statistics.median(reference.readings),
                                "min_s": min(reference.readings),
                                "max_s": max(reference.readings)},
            "unscaled": unscaled,
            "error_rate": failed / attempted,
        }
        print(json.dumps({"report": report}))
        correct = failed == 0 and complete
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only if no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
