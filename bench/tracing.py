"""Span tracing of the calls that cross maqmsim's module boundaries.

Nothing in ``src/`` is edited: the tracer replaces, for the duration of one
command, every public function a package module imported from another
package module (``cli -> schedule/protocol/detect/tomo/qstate/memory``,
``protocol -> memory/qstate``, ``tomo -> qstate/detect``,
``schedule -> protocol``) with a wrapper that records a span, plus the
``cli`` entry points a command passes through.  Classes are left alone,
since wrapping them would break ``isinstance`` checks.  A span's layer is
the module that owns the called function.

Spans are kept in memory as ``[id, parent, name, start, end, request,
counts]`` and written out as JSON Lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("cli", "schedule", "protocol", "memory", "qstate", "detect", "tomo")

# cli's own stages; every other traced name is found by scanning imports
CLI_ENTRY_POINTS = (
    "main", "run_sweep", "run_experiment", "load_experiment_config",
    "parse_experiment_config", "report_to_json", "report_to_csv", "sweep_to_csv",
)


def _bootstrap_counts(est):
    attempted = est.n_resamples + est.n_failed
    return {"resamples": attempted, "resamples_ok": est.n_resamples}


# counts read from what a traced call returns, keyed by span name
COUNTERS = {
    "cli.run_experiment": lambda report: {"runs": 1},
    "tomo.mle_reconstruct": lambda res: {"fits": 1, "iterations": res.iterations},
    # one base fit plus one refit per attempted resample
    "tomo.monte_carlo_fidelity": lambda est: dict(
        _bootstrap_counts(est), fits=1 + est.n_resamples + est.n_failed),
    "tomo.monte_carlo_w_fidelity": _bootstrap_counts,
    "detect.sample_counts": lambda table: {"settings": len(table.rows)},
    "schedule.compile_schedule": lambda sched: {
        "events": len(sched.events), "violations": len(sched.violations)},
}


def _traced_names(modules):
    """(module, attribute, span name) for every function to wrap."""
    by_name = {m.__name__: m for m in modules}
    out = []
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = obj.__module__
            if owner in by_name and owner != mod.__name__:
                out.append((mod, attr, f"{owner.rsplit('.', 1)[-1]}.{obj.__name__}"))
            elif owner == mod.__name__ and layer == "cli" and attr in CLI_ENTRY_POINTS:
                out.append((mod, attr, f"cli.{attr}"))
    return out


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self, modules):
        self.spans = []
        self.request = 0
        self._stack = []
        self._targets = _traced_names(modules)
        self._saved = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                    self.request, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod, attr, name in self._targets:
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write_jsonl(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, name, start, end, request, counts in self.spans:
                doc = {"id": sid, "parent": parent, "name": name, "request": request,
                       "start_ms": (start - t0) * 1e3, "end_ms": (end - t0) * 1e3}
                if counts:
                    doc["counts"] = counts
                fh.write(json.dumps(doc) + "\n")


def layer_metrics(spans, traced_wall_ms):
    """Per-layer metrics, normalised per pipeline run where they are totals."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child_ms[s[1]] += (s[4] - s[3]) * 1e3
    names = {s[0]: s[2] for s in spans}

    def dur(s):
        return (s[4] - s[3]) * 1e3

    def outermost(s, group):
        return s[2] in group and (s[1] is None or names[s[1]] not in group)

    def ms(*group):
        return sum(dur(s) for s in spans if outermost(s, group))

    def calls(*group):
        return sum(1 for s in spans if s[2] in group)

    def count(key):
        return sum(s[6].get(key, 0) for s in spans if s[6])

    self_ms = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_ms[s[2].split(".", 1)[0]] += dur(s) - child_ms[s[0]]
    root_ms = sum(dur(s) for s in spans if s[1] is None)

    runs = max(count("runs"), 1)
    fits = count("fits")
    resamples = count("resamples")
    mle_calls = calls("tomo.mle_reconstruct")
    sweep_self = sum(dur(s) - child_ms[s[0]] for s in spans if s[2] == "cli.run_sweep")
    memory_layer = tuple(n for n in set(names.values()) if n.startswith("memory."))
    unattributed = max(traced_wall_ms - root_ms, 0.0)

    m = {
        "tomo.bootstrap_ms": ms("tomo.monte_carlo_fidelity") / runs,
        "tomo.mle_ms": ms("tomo.mle_reconstruct") / runs,
        "tomo.fits": fits / runs,
        "tomo.mle_iterations": count("iterations") / mle_calls if mle_calls else 0.0,
        "tomo.resample_ok_ratio": count("resamples_ok") / resamples if resamples else 1.0,
        "tomo.w_bootstrap_ms": ms("tomo.monte_carlo_w_fidelity") / runs,
        "protocol.run_ms": ms("protocol.run_protocol") / runs,
        "protocol.calls": calls("protocol.run_protocol") / runs,
        "protocol.project_w_ms": ms("protocol.project_w") / runs,
        "qstate.product_basis_ms": ms("qstate.product_basis") / runs,
        "detect.settings_ms": ms("detect.tomography_settings", "detect.w_settings") / runs,
        "detect.settings": count("settings") / runs,
        "detect.sample_ms": ms("detect.sample_counts") / runs,
        "cli.parse_ms": ms("cli.load_experiment_config", "cli.parse_experiment_config") / runs,
        "cli.sweep_overhead_ms": sweep_self / runs,
        "cli.report_ms": ms("cli.report_to_json", "cli.report_to_csv", "cli.sweep_to_csv") / runs,
        "schedule.compile_ms": ms("schedule.compile_schedule") / runs,
        "schedule.events": count("events") / runs,
        "schedule.violations": count("violations") / runs,
        "memory.calls": calls(*memory_layer) / runs,
        "memory.ms": ms(*memory_layer) / runs,
        "qstate.fidelity_calls": calls("qstate.fidelity") / runs,
        "qstate.fidelity_ms": ms("qstate.fidelity") / runs,
        "qstate.state_fidelity_ms": ms("qstate.state_fidelity") / runs,
        "trace.unattributed_ms": unattributed / runs,
        "trace.unattributed_share": unattributed / traced_wall_ms if traced_wall_ms else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer] / runs
    return m
