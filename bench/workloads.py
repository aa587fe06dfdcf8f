"""The benchmark's workloads: inputs made from the workload seed, plus output checks.

Every workload is one closed-loop caller issuing ``maqmsim`` CLI commands
through ``maqmsim.cli.main``, one after another.  A command's inputs are
the shipped configs (or one generated from them) and seeds derived from
the workload seed, so the same seed always gives the same commands.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIGS = Path("src") / "maqmsim" / "configs"
QUBIT_CONFIG = CONFIGS / "qubit_default.json"
QUDIT_CONFIG = CONFIGS / "qudit_default.json"

SWEEP_POINTS = 8          # drift values per sweep command
WIDE_SIDE = 4             # the widened qudit uses a WIDE_SIDE x WIDE_SIDE block
WIDE_ORIGIN = (1, 1)      # lower corner of that block on both 5 x 6 grids


class CheckFailed(Exception):
    """A command's output broke an invariant or a reference value."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def derive_seed(seed, *parts):
    """Seed for command ``parts`` of a workload run with ``seed``."""
    state = np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint32)
    return int(state[0] & 0x7FFFFFFF)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    runs: int              # pipeline runs the command performs
    kind: str              # "run" or "sweep"
    seed: int
    dimension: int


def unit_interval(value, what):
    expect(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
           f"{what} = {value!r} is outside [0, 1]")


def finite_sigma(value, what):
    expect(isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0,
           f"{what} = {value!r} is not finite and non-negative")


def check_run_report(text, cmd):
    """Invariants of one ``maqmsim run`` JSON report, on any seed."""
    rep = json.loads(text)
    expect(rep["seed"] == cmd.seed, f"report seed {rep['seed']} != {cmd.seed}")
    expect(rep["dimension"] == cmd.dimension, "report dimension differs from config")
    expect(rep["schedule"]["valid"] is True, "schedule reported invalid")
    expect(0.0 < rep["herald_probability"] <= 1.0, "herald probability outside (0, 1]")
    qubit = cmd.dimension == 2
    for name in ("maqm1_stage", "maqm2_stage"):
        stage = rep[name]
        keys = (("predicted_fidelity", "fidelity") if qubit
                else ("predicted_w_fidelity", "w_fidelity"))
        for key in keys + ("survival_probability",):
            unit_interval(stage[key], f"{name}.{key}")
        finite_sigma(stage["sigma"], f"{name}.sigma")
        expect(stage["n_resamples"] >= 2, f"{name}: fewer than 2 resamples succeeded")
    if qubit:
        unit_interval(rep["transmission_fidelity"], "transmission_fidelity")
    return rep


def _csv_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_sweep_csv(text):
    return [{k: _csv_value(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def check_sweep_csv(text, cmd):
    """Invariants of one ``maqmsim sweep`` CSV, on any seed."""
    rows = parse_sweep_csv(text)
    expect(len(rows) == cmd.runs, f"{len(rows)} sweep rows, expected {cmd.runs}")
    for i, row in enumerate(rows):
        expect(row["param"] == "protocol.drift", f"row {i}: wrong param")
        expect(row["dimension"] == cmd.dimension, f"row {i}: wrong dimension")
        expect(row["schedule_valid"] == "true", f"row {i}: schedule reported invalid")
        for stage in ("maqm1", "maqm2"):
            unit_interval(row[f"{stage}_w_fidelity"], f"row {i} {stage}_w_fidelity")
            finite_sigma(row[f"{stage}_w_sigma"], f"row {i} {stage}_w_sigma")
    return rows


def check_output(text, cmd):
    """Parse and check a command's output; returns the parsed form."""
    if cmd.kind == "sweep":
        return check_sweep_csv(text, cmd)
    return check_run_report(text, cmd)


# Reference outputs are pinned for one fixed-seed command per workload.  Every
# float must agree within ABS_TOL + REL_TOL * |reference|: that admits a
# change of a few units in the 6th significant figure (the reports round to
# 6 digits; a refactored fit may move the last one) and rejects a fit that
# stops early or optimises the wrong likelihood, which moves fidelities by
# 1e-4 or more.  Everything else must match exactly.
ABS_TOL = 1e-5
REL_TOL = 1e-5
UNPINNED = {"package_version"}


def compare_reference(got, want, path="output"):
    """Raise CheckFailed at the first leaf of ``got`` that differs from ``want``."""
    if isinstance(want, dict):
        expect(isinstance(got, dict) and set(got) == set(want),
               f"{path}: keys differ from the reference")
        for key in want:
            if key not in UNPINNED:
                compare_reference(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        expect(isinstance(got, list) and len(got) == len(want),
               f"{path}: length differs from the reference")
        for i, (g, w) in enumerate(zip(got, want)):
            compare_reference(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        expect(isinstance(got, (int, float))
               and abs(got - want) <= ABS_TOL + REL_TOL * abs(want),
               f"{path} = {got!r}, reference {want!r}")
    else:
        expect(got == want, f"{path} = {got!r}, reference {want!r}")


def widened_qudit_config():
    """``qudit_default.json`` widened to a WIDE_SIDE x WIDE_SIDE block of cells.

    Only the dimension and the two cell lists change; the block is laid out
    x-fastest, the same order as the shipped 2 x 2 block.
    """
    wide = json.loads(QUDIT_CONFIG.read_bytes())
    x0, y0 = WIDE_ORIGIN
    cells = [[x0 + dx, y0 + dy] for dy in range(WIDE_SIDE) for dx in range(WIDE_SIDE)]
    wide["protocol"]["dimension"] = len(cells)
    wide["protocol"]["source_cells"] = cells
    wide["protocol"]["target_cells"] = [list(c) for c in cells]
    return wide


class Workload:
    """A workload's commands; subclasses set ``name``, ``config`` and ``dimension``."""

    roundtrip_schedule = False   # also check the compiled schedule's JSONL round trip

    def prepare(self, workdir):
        """Write any generated input into ``workdir``; return the config path."""
        return self.config

    def command(self, config, seed, i):
        """The i-th command of a run with workload seed ``seed``."""
        s = derive_seed(seed, i)
        return Command(("run", "--config", str(config), "--seed", str(s)),
                       runs=1, kind="run", seed=s, dimension=self.dimension)

    def reference(self, config):
        """The fixed-seed command whose output is pinned in reference.json."""
        return self.command(config, 0, 0)


class QubitRun(Workload):
    # Stresses tomo: ~97% of a run is the 2 x (1 + 50 + 1) = 104 scipy
    # L-BFGS-B fits (the bootstrap plus the report's refit).  A batched MLE
    # must show its gain here.  Bypasses nothing, but protocol, detect,
    # schedule and cli are each at most a few percent of the run.
    name = "qubit_run"
    config = QUBIT_CONFIG
    dimension = 2


class QuditSweep(Workload):
    # Stresses the per-run overhead: many short d = 4 runs whose time is the
    # W bootstrap (~48%), protocol (~33%), detect (~12%), cli parse plus
    # deepcopy (~5%) and schedule (~4%).  Bypasses the MLE entirely, so an
    # MLE change must show no change here.
    name = "qudit_sweep"
    config = QUDIT_CONFIG
    dimension = 4

    def command(self, config, seed, i):
        rng = np.random.default_rng([seed, i, 1])
        values = ",".join(f"{v:.3f}" for v in rng.uniform(0.0, 0.9, SWEEP_POINTS))
        s = derive_seed(seed, i)
        return Command(("sweep", "--config", str(config), "--param", "protocol.drift",
                        "--values", values, "--seed", str(s)),
                       runs=SWEEP_POINTS, kind="sweep", seed=s, dimension=self.dimension)


class WideQudit(Workload):
    # Stresses protocol and detect at d^2 scale: d = 16 labelled states in
    # run_protocol (~55% of a run), then 256 w_settings and their sampling.
    # Bypasses the MLE.  Shrinking the labelled states must show its gain
    # here.  The schedule stays valid, with one dwell warning.
    name = "wide_qudit"
    config = Path("wide_qudit.json")
    dimension = WIDE_SIDE * WIDE_SIDE
    roundtrip_schedule = True

    def prepare(self, workdir):
        path = Path(workdir) / self.config
        path.write_text(json.dumps(widened_qudit_config(), indent=2) + "\n")
        return path


WORKLOADS = {w.name: w for w in (QubitRun(), QuditSweep(), WideQudit())}
