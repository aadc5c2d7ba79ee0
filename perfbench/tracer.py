"""Span tracer that wraps dpcrowd's public functions from outside the package.

Nothing under ``src/`` knows about tracing. ``Tracer.installed`` swaps each
target in ``TARGETS`` for a wrapper (in the namespace the engine looks it up
in, or on its class) and restores the originals on exit. Every call is a span
named after its function. A stack of open spans adds each span's duration to
its parent's child time, so a span's self time is its duration minus the
time spent in the traced calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter
from time import perf_counter


def _count_due(counts, result, args, kwargs):
    counts["due"] += bool(result)


def _count_refusal(counts, result, args, kwargs):
    counts["refusals"] += 1


def _count_draw(counts, result, args, kwargs):
    counts["noise_draws"] += 1
    counts["dims_released"] += 1


def _count_groups(counts, result, args, kwargs):
    counts["groups"] += len(result.groups)


def _count_group_draws(counts, result, args, kwargs):
    groups = args[0].groups
    counts["noise_draws"] += len(groups)
    counts["dims_released"] += sum(len(g) for g in groups)


def _count_report_bytes(counts, result, args, kwargs):
    # write_report(results, fmt, path, trace_path=None)
    trace_path = kwargs.get("trace_path", args[3] if len(args) > 3 else None)
    paths = [args[2]] if trace_path is None else [args[2], trace_path]
    counts["report_bytes"] += sum(os.path.getsize(p) for p in paths)


# (owner inside the dpcrowd package, attribute, counter hook or None).
# Module-level functions are patched in the namespace their caller reads them
# from (runners for the engine, report for the writer); methods on the class.
TARGETS = (
    ("runners", "run_experiment", None),
    ("runners", "generate_stream", None),
    ("runners", "load_csv", None),
    ("runners", "partition_users", None),
    ("runners.kcif", "predict", None),
    ("runners.kcif", "initialize", None),
    ("runners.kcif", "effective_variance", None),
    ("runners.kcif", "update_from_delta", None),
    ("runners.SamplingSchedule", "is_sampling_point", _count_due),
    ("runners.SamplingSchedule", "note_sampled", None),
    ("runners.SamplingSchedule", "note_skipped", _count_refusal),
    ("runners.PidController", "update", None),
    ("runners", "feedback_error", None),
    ("runners", "next_interval", None),
    ("runners", "next_interval_plus", None),
    ("runners.PrivacyLedger", "charge", None),
    ("runners.PrivacyLedger", "remaining_window", None),
    ("runners.PrivacyLedger", "audit", None),
    ("runners", "allocate_adaptive", None),
    ("runners", "perturb_count", _count_draw),
    ("runners", "predict_region", None),
    ("runners", "group_regions", _count_groups),
    ("runners", "perturb_groups", _count_group_draws),
    ("runners", "flood_reachability", None),
    ("runners.TopologySchedule", "adjacency_at", None),
    ("report", "write_report", _count_report_bytes),
    ("report", "summarize", None),
    ("config", "load_config", None),
    ("config", "apply_override", None),
    ("datasets", "gen_multilinear", None),
    ("datasets", "save_csv", None),
)

# Per-layer time metrics: the summed self time of the named spans. A span is
# named after where its function is defined: "<module>.<qualname>".
SELF_TIME_METRICS = {
    "runners.self_s": ("runners.run_experiment",),
    "kcif.self_s": ("kcif.predict", "kcif.initialize", "kcif.effective_variance",
                    "kcif.update_from_delta"),
    "sampling.self_s": ("sampling.SamplingSchedule.is_sampling_point",
                        "sampling.SamplingSchedule.note_sampled",
                        "sampling.SamplingSchedule.note_skipped",
                        "sampling.PidController.update", "sampling.feedback_error",
                        "sampling.next_interval", "sampling.next_interval_plus"),
    "privacy.charge_s": ("privacy.PrivacyLedger.charge",),
    "privacy.window_s": ("privacy.PrivacyLedger.remaining_window",
                         "privacy.allocate_adaptive"),
    "privacy.audit_s": ("privacy.PrivacyLedger.audit",),
    "privacy.perturb_s": ("privacy.perturb_count",),
    "grouping.predict_s": ("grouping.predict_region",),
    "grouping.group_s": ("grouping.group_regions",),
    "grouping.perturb_s": ("grouping.perturb_groups",),
    "netsim.flood_s": ("netsim.flood_reachability",),
    "netsim.adjacency_s": ("netsim.TopologySchedule.adjacency_at",),
    "datasets.load_s": ("datasets.load_csv",),
    "datasets.generate_s": ("datasets.generate_stream", "datasets.gen_multilinear",
                            "datasets.save_csv"),
    "config.load_s": ("config.load_config", "config.apply_override"),
    "model.partition_s": ("model.partition_users",),
    "metrics.summarize_s": ("metrics.summarize",),
    "report.write_s": ("report.write_report",),
}

# Per-layer call counts: the number of spans with the names of a time metric.
CALL_METRICS = {
    "kcif.calls": "kcif.self_s",
    "sampling.calls": "sampling.self_s",
    "privacy.charge.calls": "privacy.charge_s",
    "netsim.flood.calls": "netsim.flood_s",
}


def _resolve(dp, owner: str):
    obj = dp
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


def resolve_targets(dp) -> list[tuple[object, str, object, object]]:
    """(owner object, attribute, original, hook) for every target.

    Raises LookupError naming every target that dpcrowd no longer has, so a
    rename under src/ stops the benchmark instead of dropping a layer.
    """
    found, missing = [], []
    for owner, attr, hook in TARGETS:
        try:
            obj = _resolve(dp, owner)
            found.append((obj, attr, getattr(obj, attr), hook))
        except AttributeError:
            missing.append(f"dpcrowd.{owner}.{attr}")
    if missing:
        raise LookupError("traced names missing from dpcrowd: " + ", ".join(missing))
    named = {span_name(original) for _, _, original, _ in found}
    unmatched = sorted(n for names in SELF_TIME_METRICS.values() for n in names if n not in named)
    if unmatched:
        raise LookupError("per-layer metrics name spans no target produces: " + ", ".join(unmatched))
    return found


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('dpcrowd.')}.{fn.__qualname__}"


class Tracer:
    """Per span name: calls, total and self seconds; plus counters fed by call hooks."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.stack: list[list[float]] = []  # open spans: [start, seconds in child spans]
        self.counts: Counter = Counter()

    def wrap(self, fn, hook=None):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0.0, 0.0]
            self.stack.append(span)
            span[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - span[0]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - span[1]
            if hook is not None:
                hook(self.counts, result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, dp):
        """Patch every target with a traced wrapper; restore on exit."""
        targets = resolve_targets(dp)
        try:
            for obj, attr, original, hook in targets:
                setattr(obj, attr, self.wrap(original, hook))
            yield self
        finally:
            for obj, attr, original, _ in targets:
                setattr(obj, attr, original)

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        return {
            name: {"calls": calls, "total_s": self.total_s[name], "self_s": self.self_s[name]}
            for name, calls in self.calls.items()
        }


def layer_metrics(table: dict[str, dict[str, float]]) -> tuple[dict[str, float], dict[str, int]]:
    """Collapse a span table into per-layer self times and call counts."""
    times = {
        metric: sum(table[n]["self_s"] for n in names if n in table)
        for metric, names in SELF_TIME_METRICS.items()
    }
    calls = {
        metric: sum(table[n]["calls"] for n in SELF_TIME_METRICS[time_metric] if n in table)
        for metric, time_metric in CALL_METRICS.items()
    }
    return times, calls
