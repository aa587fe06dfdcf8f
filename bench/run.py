"""maqmsim benchmark: one closed-loop caller drives the CLI on one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload qubit_run --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs every command twice, untraced and traced, and reports per-layer
metrics from the traced copies plus the tracing overhead.  The last line of
stdout is the result, ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the detail: the environment record, every end-to-end
metric (``command_ms_p90`` and ``error_rate`` included) and any failures.
``--record-reference`` rewrites ``bench/reference.json`` instead.

Every command counts as attempted; one that exits non-zero, raises, or
fails an output check counts as failed.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from tracing import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed, check_output, compare_reference, expect

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maqmsim"
WORKDIR = ROOT / ".bench_work"
REFERENCE_FILE = Path(__file__).with_name("reference.json")

SETUP_REPEATS = 5          # fresh interpreters per run; setup_s is their median
# The CPU speed of a small shared machine swings by up to 2x for minutes at
# a time.  Every measured command and fresh interpreter is bracketed by a
# fixed calibration loop, and its time is scaled to the speed at which that
# loop takes CALIBRATION_REF_S.  The unscaled figures are in the detail line.
CALIBRATION_LOOPS = 200
CALIBRATION_REF_S = 1.5e-3
SLOWDOWN_WINDOW = 5
SETUP_CALIBRATIONS = 10
_CALIBRATION_VECTOR = np.linspace(0.0, 1.0, 16)
P90_MIN_COMMANDS = 100     # p90 needs at least ten samples above it
MAX_REPORTED_FAILURES = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# what a user pays before a command starts work: a fresh interpreter, the
# cli import (numpy and scipy included) and one config load
SETUP_SNIPPET = (
    "import sys\n"
    "import maqmsim.cli as cli\n"
    "cli.load_experiment_config(sys.argv[1])\n"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite bench/reference.json from the current code and exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_reference:
        p.error("--workload is required")
    return args


def import_cli():
    """Import ``maqmsim.cli`` from this checkout's ``src``, or return None."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no maqmsim package at {PACKAGE}", file=sys.stderr)
        return None
    sys.path.insert(0, str(PACKAGE.parent))
    try:
        import maqmsim.cli as cli
    except ImportError as err:
        print(f"cannot import maqmsim.cli: {err}", file=sys.stderr)
        return None
    if Path(cli.__file__).resolve().parent != PACKAGE.resolve():
        print(f"maqmsim imported from {cli.__file__}, not {PACKAGE}", file=sys.stderr)
        return None
    return cli


def environment():
    """Versions, cores, BLAS build and thread settings, as found (never set)."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy_blas": blas,
        "cpu_model": cpu_model,
    }


class Caller:
    """The closed-loop caller: one CLI command at a time, each counted."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []

    def invoke(self, argv):
        """Run one command in-process; returns (wall_s, cpu_s, stdout text)."""
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        expect(rc == 0, f"exit code {rc}: {err.getvalue().strip()[-300:]}")
        return wall, cpu, out.getvalue()

    def attempt(self, label, fn):
        """Count one command; a failure is recorded and the pass goes on."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - every failure counts, none stops the run
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            return None

    def checked(self, cmd, tracer=None, expected=None):
        """Invoke ``cmd`` (under ``tracer`` if given) and check its output.

        ``expected`` is an earlier output of the same command, which must
        recur byte for byte.
        """
        if tracer is None:
            wall, cpu, text = self.invoke(cmd.argv)
        else:
            tracer.install()
            try:
                wall, cpu, text = self.invoke(cmd.argv)
            finally:
                tracer.uninstall()
        check_output(text, cmd)
        expect(expected is None or text == expected,
               "report bytes differ from this command's first run")
        return wall, cpu, text


def measure_setup(config):
    """(wall, slowdown) of fresh interpreters importing the cli and loading ``config``.

    A single calibration on each side is too noisy next to a one-second
    start-up, so each takes SETUP_CALIBRATIONS.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)

    def fresh_interpreter():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config)],
                       env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    return [bracketed(fresh_interpreter, SETUP_CALIBRATIONS) for _ in range(SETUP_REPEATS)]


def schedule_roundtrip(caller, config):
    """Compiled schedule JSONL must parse back to byte-identical text."""
    from maqmsim.schedule import schedule_from_jsonl, schedule_to_jsonl
    _, _, text = caller.invoke(("compile", "--config", str(config)))
    expect(text and schedule_to_jsonl(schedule_from_jsonl(text)) == text,
           "schedule JSONL does not round-trip byte-identically")


def check_reference(caller, workload, config):
    """The workload's fixed-seed command must reproduce its pinned output."""
    doc = json.loads(REFERENCE_FILE.read_text())
    expect(workload.name in doc, f"reference.json has no entry for {workload.name}")
    cmd = workload.reference(config)
    _, _, text = caller.invoke(cmd.argv)
    compare_reference(check_output(text, cmd), doc[workload.name]["output"])


def calibrate():
    """Seconds a fixed loop takes now: the machine's current speed.

    The loop mixes small numpy element-wise operations with Python object
    churn, like the pipeline, but calls no BLAS routine and no maqmsim code,
    so no change to the package can change its cost.
    """
    t0 = time.perf_counter()
    acc, keep = 0.0, {}
    for i in range(CALIBRATION_LOOPS):
        w = np.sqrt(_CALIBRATION_VECTOR * i + 1.0)
        acc += float(np.sum(w * w))
        keep[i % 50] = [str(i), (i, acc)]
    return time.perf_counter() - t0


def bracketed(fn, samples=1):
    """``fn()`` and the slowdown of the machine around it.

    The slowdown is the median of ``samples`` calibration times just before
    and ``samples`` just after, over CALIBRATION_REF_S; a wall time divided
    by it is scaled to the reference speed.
    """
    before = [calibrate() for _ in range(samples)]
    value = fn()
    after = [calibrate() for _ in range(samples)]
    return value, statistics.median(before + after) / CALIBRATION_REF_S


@dataclass
class PassResult:
    walls: list = field(default_factory=list)      # every untraced command wall, in order
    slowdowns: list = field(default_factory=list)  # the machine's slowdown around each
    cpus: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    runs: int = 0                                   # pipeline runs the untraced copies did

    def scaled_walls(self):
        """Walls divided by the median slowdown of the SLOWDOWN_WINDOW
        commands centred on each, which damps the calibration's own noise."""
        half = SLOWDOWN_WINDOW // 2
        f = self.slowdowns
        return [w / statistics.median(f[max(0, i - half):i + half + 1])
                for i, w in enumerate(self.walls)]


def run_pass(caller, workload, config, seed, seconds, tracer):
    """Closed loop for ``seconds``: command i of the workload, then i + 1, ...

    With a tracer, each command runs twice, untraced and traced, in an order
    that alternates from one command to the next, and both outputs must be
    byte-identical; only untraced copies enter the end-to-end figures.  The
    first command is repeated at the end and must give the same bytes.
    """
    res = PassResult()
    first = None
    t_start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t_start < seconds:
        cmd = workload.command(config, seed, i)
        if tracer is None:
            copies = [None]
        else:
            copies = [None, tracer] if i % 2 == 0 else [tracer, None]
        text = None
        for copy in copies:
            if copy is not None:
                copy.request = i
            label = f"{'traced ' if copy else ''}command {i}: {' '.join(cmd.argv)}"
            result, slowdown = bracketed(lambda: caller.attempt(
                label, lambda: caller.checked(cmd, copy, text)))
            if result is None:
                continue
            wall, cpu, text = result
            if copy is None:
                res.walls.append(wall)
                res.slowdowns.append(slowdown)
                res.cpus.append(cpu)
                res.runs += cmd.runs
            else:
                res.traced_walls.append(wall)
        if first is None and text is not None:
            first = (cmd, text)
        i += 1
    if first is not None:
        cmd, text = first
        caller.attempt("determinism repeat", lambda: caller.checked(cmd, None, text))
    return res


def record_reference(cli):
    caller = Caller(cli)
    WORKDIR.mkdir(exist_ok=True)
    doc = {}
    for name, workload in WORKLOADS.items():
        config = workload.prepare(WORKDIR)
        cmd = workload.reference(config)
        _, _, text = caller.invoke(cmd.argv)
        doc[name] = {"argv": [a if a != str(config) else config.name for a in cmd.argv],
                     "output": check_output(text, cmd)}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {REFERENCE_FILE}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_unit(name):
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_ratio", "_share", "cpu_per_wall")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    cli = import_cli()
    if cli is None:
        return 2
    if args.record_reference:
        record_reference(cli)
        return 0

    workload = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    config = workload.prepare(WORKDIR)
    caller = Caller(cli)
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}

    if args.trace == 0:
        setups = measure_setup(config)
    # the pinned reference command doubles as the warm-up
    caller.attempt("reference", lambda: check_reference(caller, workload, config))
    tracer = None
    if args.trace:
        tracer = Tracer([importlib.import_module(f"maqmsim.{m}") for m in LAYERS])
    res = run_pass(caller, workload, config, args.seed, args.seconds, tracer)
    if workload.roundtrip_schedule:
        caller.attempt("schedule round trip", lambda: schedule_roundtrip(caller, config))

    failed = len(caller.failures)
    error_rate = failed / caller.attempted
    detail.update(commands=len(res.walls), runs=res.runs,
                  failures=caller.failures[:MAX_REPORTED_FAILURES])
    if not res.walls:
        print(json.dumps({"detail": detail}))
        print("no command completed", file=sys.stderr)
        return 1

    if args.trace == 0:
        scaled = res.scaled_walls()
        scaled_ms = [w * 1e3 for w in scaled]
        metrics = {
            "runs_per_s": metric(res.runs / sum(scaled), "1/s"),
            "command_ms_p50": metric(statistics.median(scaled_ms), "ms"),
            "setup_s": metric(statistics.median(t / f for t, f in setups), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        e2e = dict(metrics)
        if len(scaled_ms) >= P90_MIN_COMMANDS:
            e2e["command_ms_p90"] = metric(statistics.quantiles(scaled_ms, n=10)[8], "ms")
        else:
            e2e["command_ms_p90"] = dict(metric(None, "ms"), omitted=(
                f"the pass yielded {len(scaled_ms)} commands, fewer than {P90_MIN_COMMANDS}"))
        e2e["error_rate"] = metric(error_rate, "ratio")
        detail["end_to_end"] = e2e
        detail["unscaled"] = {
            "slowdown_median": statistics.median(res.slowdowns),
            "runs_per_s": res.runs / sum(res.walls),
            "command_ms_p50": statistics.median(res.walls) * 1e3,
            "setup_slowdown_median": statistics.median(f for _, f in setups),
            "setup_s": statistics.median(t for t, _ in setups),
        }
    else:
        trace_file = WORKDIR / f"trace-{workload.name}.jsonl"
        tracer.write_jsonl(trace_file)
        detail.update(trace_file=str(trace_file.relative_to(ROOT)), spans=len(tracer.spans),
                      error_rate=error_rate)
        values = layer_metrics(tracer.spans, sum(res.traced_walls) * 1e3)
        values["process.cpu_per_wall"] = sum(res.cpus) / sum(res.walls)
        values["trace.overhead_ratio"] = sum(res.traced_walls) / sum(res.walls)
        metrics = {k: metric(v, per_layer_unit(k)) for k, v in values.items()}

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": caller.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
