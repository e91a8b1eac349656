"""Span recorder for the benchmark's traced run.

The tracer wraps public meterfill functions from outside the package.  A
function is replaced in every meterfill module that holds a reference to it,
because ``cpi`` and ``metrics`` bind ``day_partition``, ``plan_cpi``,
``run_plan`` and friends by ``from``-import and look them up in their own
namespace.  Each call records one span: name, start, end and parent.

This module imports only the standard library, so the traced CLI child can
time ``import meterfill.cli`` without numpy already being loaded.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from operator import attrgetter, itemgetter
from time import perf_counter

# (defining module, function, span name, what to keep from the return value)
TARGETS = (
    ("meterfill.series", "parse_series", "series.parse", None),
    ("meterfill.series", "format_series", "series.format", None),
    ("meterfill.series", "day_partition", "series.day_partition", None),
    ("meterfill.series", "detect_gaps", "series.detect_gaps", None),
    ("meterfill.series", "energy_to_power", "series.energy_to_power", None),
    ("meterfill.series", "fill_energy_from_power", "series.fill_energy", None),
    ("meterfill.cpi", "plan_cpi", "cpi.plan", None),
    ("meterfill.cpi", "interpolate_singles", "cpi.interpolate_singles", None),
    ("meterfill.cpi", "fit_weekly_pattern", "cpi.fit_weekly_pattern", None),
    ("meterfill.cpi", "estimate_daily_energy", "cpi.estimate_daily_energy", None),
    ("meterfill.cpi", "compile_complete_days", "cpi.compile_complete_days", None),
    ("meterfill.cpi", "run_plan", "cpi.match", attrgetter("per_gap")),
    ("meterfill.cpi", "copy_paste_and_scale", "cpi.paste_scale", None),
    ("meterfill.baselines", "impute_linear", "baselines.linear", None),
    ("meterfill.baselines", "impute_hist_avg", "baselines.histavg", None),
    ("meterfill.baselines", "impute_seasonal_model", "baselines.seasonal", None),
    ("meterfill.gapgen", "insert_missing", "gapgen.insert_missing", itemgetter(1)),
    ("meterfill.metrics", "score_method", "metrics.score", None),
    ("meterfill.metrics", "mape_p", "metrics.mape", None),
)

# Span names whose self time is reported under a metric name of its own.
# ``cpi.plan`` is reported inclusive instead (see ``layer_metrics``).
SELF_TIME_METRICS = {
    "series.parse": "series.parse_s",
    "series.format": "series.format_s",
    "series.day_partition": "series.day_partition_s",
    "series.detect_gaps": "series.detect_gaps_s",
    "series.energy_to_power": "series.energy_to_power_s",
    "series.fill_energy": "series.fill_energy_s",
    "cli.impute": "cli.impute_self_s",
    "cpi.interpolate_singles": "cpi.interpolate_singles_s",
    "cpi.fit_weekly_pattern": "cpi.fit_weekly_pattern_s",
    "cpi.estimate_daily_energy": "cpi.estimate_daily_energy_s",
    "cpi.compile_complete_days": "cpi.compile_complete_days_s",
    "cpi.match": "cpi.match_s",
    "cpi.paste_scale": "cpi.paste_scale_s",
    "baselines.linear": "baselines.linear_s",
    "baselines.histavg": "baselines.histavg_s",
    "baselines.seasonal": "baselines.seasonal_s",
    "gapgen.insert_missing": "gapgen.insert_missing_s",
    "metrics.score": "metrics.score_self_s",
    "metrics.mape": "metrics.mape_s",
    "metrics.harness": "metrics.harness_self_s",
}
CALL_METRICS = {
    "series.day_partition": "series.day_partition_calls",
    "cpi.plan": "cpi.plan_calls",
    "cpi.match": "cpi.match_calls",
}
COUNT_METRICS = ("cpi.gaps", "cpi.gap_days", "cpi.fallbacks", "gapgen.gaps_placed")


class Tracer:
    """Records nested spans around meterfill functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.kept: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, keep):
        kept = self.kept.setdefault(name, [])

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            # Keep only a small part of the result (never the completed
            # arrays); counting happens after the operation, off the clock.
            if keep is not None:
                kept.append(keep(out))
            return out

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "meterfill" or n.startswith("meterfill."))
        ]
        for module_name, attr, name, keep in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, keep)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        A layer's self time is its span time minus the time of its child
        spans.  ``cpi.plan_s`` is the inclusive time of ``plan_cpi``; its
        stages are reported as separate self times.  The extra count
        ``cpi.distinct_assignments`` is the numerator of the distinct
        assignment ratio, which only a sum over operations can give.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        out.update({metric: 0 for metric in CALL_METRICS.values()})
        out.update({metric: 0 for metric in COUNT_METRICS})
        out["cpi.plan_s"] = 0.0
        for (name, start, end, _), child_time in zip(self.spans, child):
            if name in SELF_TIME_METRICS:
                out[SELF_TIME_METRICS[name]] += end - start - child_time
            if name in CALL_METRICS:
                out[CALL_METRICS[name]] += 1
            if name == "cpi.plan":
                out["cpi.plan_s"] += end - start

        # A donor assignment is the set of (gap, day with gaps, donor day)
        # choices of one run_plan call; the same gaps filled from the same
        # donors is the same assignment, whatever the weights were.
        assignments = set()
        for per_gap in self.kept.get("cpi.match", []):
            assignments.add(tuple(
                (f.gap.first_missing, f.gap.last_missing, f.sources) for f in per_gap
            ))
            out["cpi.gaps"] += len(per_gap)
            out["cpi.gap_days"] += len({day for f in per_gap for day, _ in f.sources})
            out["cpi.fallbacks"] += sum(
                1 for f in per_gap if f.fallback == "uniform" or not f.anchored
            )
        out["cpi.distinct_assignments"] = len(assignments)
        for mask in self.kept.get("gapgen.insert_missing", []):
            idx = mask.indices
            runs = 0 if idx.size == 0 else 1 + int((idx[1:] - idx[:-1] > 1).sum())
            out["gapgen.gaps_placed"] += runs - int(mask.singles.size)
        return out
