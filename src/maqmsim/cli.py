"""Batch front-end: config loading, full pipeline runs, sweeps, compilation.

Reports are deterministic: all randomness flows from the config seed through
named substreams (the stream tree is set out in ``detect``): ``derive_seed``
gives each stage and sweep point its seed through numpy's ``SeedSequence``,
and ``detect.stream_states`` hashes the streams of a run, or of a bounded
group of sweep points, in one pass.  Floats are serialized at 6 significant
digits, and the report embeds the config hash so every number is traceable
to its inputs.  ``main`` keeps no state that can change an output: it builds
its argument parser once per process, and keeps the last compiled schedule
under its exact inputs (``_compile``), the last config under its exact bytes
and whether ``--seed`` was given (``_load``), and both stages' outcomes and
probabilities under their protocol object and ``eta_det`` (``_run``); none
of these depends on the seed.  Sweep points share each memory entry off the
swept path, and parsing never writes into it, so it is parsed once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .detect import (
    coincidence_probabilities,
    poisson_resamples,
    sample_counts,
    stream_states,
    tomography_settings,
    w_settings,
)
from .memory import MAX_CELLS, CellAddress, MemoryId, MemorySpec, RfGrid
from .protocol import PostSelectionError, ProtocolConfig, project_w, run_protocol
from .schedule import PatternError, Schedule, compile_schedule, schedule_to_jsonl
from .tomo import bell_target, monte_carlo_fidelities, monte_carlo_w_fidelity
from .qstate import state_fidelity

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_experiment_config",
    "run_experiment",
    "run_sweep",
    "sweepable_paths",
    "report_to_json",
    "sweep_to_csv",
    "main",
]


class ConfigError(ValueError):
    """Config problem with a field-path or line-precise location prefix."""


# numpy's binomial takes the herald number as a C long, and a bootstrap
# resample's Poisson mean, an observed count up to the herald number, must
# stay below ~9.2234e18
MAX_HERALDS = 2**62
MAX_DIMENSION = 100       # a qudit run builds d^2 settings of d-vectors
MAX_RESAMPLES = 10**5     # a qubit run refits the table once per resample
MAX_BOOTSTRAP_FLOATS = 10**8   # the W bootstrap holds an (R, d^2) stack of floats
_PLAN_ROWS = 1 << 14      # the stream rows a sweep hashes in one pass, unless one point has more


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    protocol: ProtocolConfig
    eta_det: float
    dark_rate: float
    heralds_per_setting: int
    n_resamples: int
    tol: float
    max_iter: int
    sha256: str


_REQUIRED = object()


class _Object:
    """One config object, read key by key; a key that is never read is unknown."""

    def __init__(self, doc, path: str):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: must be an object, got {doc!r}" if path
                              else "config: top level must be a JSON object")
        self.doc, self.path, self.unread = doc, path, set(doc)

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def read(self, key: str, check=None, default=_REQUIRED, **bounds):
        """The value at ``key``, else ``default``, through ``check(value, path, **bounds)``."""
        self.unread.discard(key)
        if key not in self.doc and default is _REQUIRED:
            raise ConfigError(f"{self.at(key)}: required field is missing")
        value = self.doc.get(key, default)
        return value if check is None else check(value, self.at(key), **bounds)

    def close(self) -> None:
        if self.unread:
            raise ConfigError(f"{self.path or 'config'}: unknown field(s) "
                              f"{', '.join(map(repr, sorted(self.unread)))}")


def _number(value, path: str, positive=False, non_negative=False, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: must be a number")
    try:
        value = float(value)
    except OverflowError:   # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be positive")
    if non_negative and value < 0:
        raise ConfigError(f"{path}: must be non-negative")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be at most {maximum:g}")
    return value


def _integer(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be at most {maximum}")
    return value


def _within(values: np.ndarray, non_negative=False, maximum=None) -> bool:
    """Whether every value passes ``_number``'s finiteness and bound checks."""
    ok = np.isfinite(values)
    if non_negative:
        ok &= values >= 0
    if maximum is not None:
        ok &= values <= maximum
    return bool(ok.all())


def _numbers(value, path: str, count: int, **bounds) -> np.ndarray:
    """A list of ``count`` numbers as a float array, checked all at once;
    an error names the first entry that fails, as ``_number`` reads it."""
    if not isinstance(value, list) or len(value) != count:
        raise ConfigError(f"{path}: must be a list of {count} numbers")
    if {type(v) for v in value} <= {int, float}:
        try:
            array = np.array(value, dtype=float)
        except OverflowError:   # an int past the float range
            array = None
        if array is not None and _within(array, **bounds):
            return array
    return np.array([_number(v, f"{path}[{i}]", **bounds) for i, v in enumerate(value)])


def _efficiencies(value, path: str, cells: int):
    """A map in [0, 1]: one number for every cell, or a row-major list of one per cell."""
    if isinstance(value, list):    # an array, so that MemorySpec does not check it again
        return _numbers(value, path, cells, non_negative=True, maximum=1.0)
    return _number(value, path, non_negative=True, maximum=1.0)


def _cells(doc, path: str, spec: MemorySpec):
    if not isinstance(doc, list) or not doc:
        raise ConfigError(f"{path}: must be a non-empty list of [x, y] pairs")
    out = []
    for i, pair in enumerate(doc):
        if (not isinstance(pair, list) or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)):
            raise ConfigError(f"{path}[{i}]: must be an [x, y] integer pair")
        try:
            out.append(CellAddress(spec.memory, pair[0], pair[1]))
            spec.require_cell(out[-1])
        except ValueError as err:
            raise ConfigError(f"{path}[{i}]: {err}") from err
    return tuple(out)


def _memory_spec(memories: _Object, name: str, known: dict) -> MemorySpec:
    entry = memories.read(name, _Object)
    if name in known and known[name][0] is entry.doc:
        return known[name][1]
    n_x = entry.read("n_x", _integer, minimum=1, maximum=MAX_CELLS)
    n_y = entry.read("n_y", _integer, minimum=1, maximum=MAX_CELLS)
    eta_write = entry.read("eta_write", _efficiencies, cells=n_x * n_y)
    eta_read = entry.read("eta_read", _efficiencies, cells=n_x * n_y)
    # only the receiving memory stores by EIT
    eta_eit = entry.read("eta_eit", _efficiencies, cells=n_x * n_y) if name == "MAQM2" else None
    tau_mem, t_larmor = (entry.read(key, _number) for key in ("tau_mem", "t_larmor"))
    grid = entry.read("rf_grid", _Object)
    ramps = [grid.read(key, _number) for key in ("x_origin", "x_step", "y_origin", "y_step")]
    grid.close()
    entry.close()
    try:
        known[name] = entry.doc, MemorySpec(MemoryId(name), n_x, n_y, eta_write, eta_read,
                                            tau_mem, t_larmor, RfGrid(*ramps), eta_eit)
    except ValueError as err:
        # a message that opens with a key of the entry or its grid is about that field
        key, sep, rest = str(err).partition(": ")
        where = next((o.at(key) for o in (entry, grid) if sep and key in o.doc), None)
        raise ConfigError(f"{where}: {rest}" if where else f"{entry.path}: {err}") from err
    return known[name][1]


def _seed(top: _Object, seed_override) -> int:
    """The override, else the config's seed, checked wherever given: a non-negative integer."""
    if seed_override is None or "seed" in top.doc:
        seed = top.read("seed", _integer, minimum=0)
    return seed if seed_override is None else _integer(seed_override, "seed", minimum=0)


def parse_experiment_config(doc: dict, seed_override: int | None = None,
                            sha256: str = "") -> ExperimentConfig:
    """Validate a config document; a field the reader never asks for is rejected by name."""
    return _parse(doc, seed_override, sha256, {})


def _parse(doc, seed_override, sha256: str, known: dict) -> ExperimentConfig:
    """``parse_experiment_config``, with ``known[name]`` the (entry, spec) last read there."""
    top = _Object(doc, "")
    seed = _seed(top, seed_override)

    memories = top.read("memories", _Object)
    spec1, spec2 = (_memory_spec(memories, name, known) for name in ("MAQM1", "MAQM2"))
    memories.close()

    proto = top.read("protocol", _Object)
    # each branch needs a cell of its own in both memories
    dim = proto.read("dimension", _integer, minimum=2,
                     maximum=min(spec1.n_x * spec1.n_y, spec2.n_x * spec2.n_y, MAX_DIMENSION))
    source = proto.read("source_cells", _cells, spec=spec1)
    target = proto.read("target_cells", _cells, spec=spec2)
    t1, tau, t2 = (proto.read(key, _number) for key in ("t1", "tau", "t2"))

    phases = tuple(proto.read("write_phases", _numbers, [0.0] * dim, count=dim).tolist())

    drift = proto.read("drift", default=0.0)
    if isinstance(drift, list):
        drifts = _numbers(drift, "protocol.drift", dim).tolist()
    else:
        # scalar shorthand: the first bin is the phase reference
        value = _number(drift, "protocol.drift")
        drifts = [0.0] + [value] * (dim - 1)

    order = proto.read("retrieval_order", default=list(range(dim)))
    if (not isinstance(order, list)
            or any(isinstance(v, bool) or not isinstance(v, int) for v in order)):
        raise ConfigError("protocol.retrieval_order: must be a list of bin indices")
    proto.close()

    try:
        protocol = ProtocolConfig(
            dimension=dim, spec1=spec1, spec2=spec2,
            source_cells=source, target_cells=target,
            t1=t1, tau=tau, t2=t2,
            write_phases=phases,
            drifts=tuple(drifts),
            retrieval_order=tuple(order),
        )
    except ValueError as err:
        raise ConfigError(f"protocol.{err}") from err

    det = top.read("detection", _Object, {})
    eta_det = det.read("eta_det", _number, 1.0, positive=True, maximum=1.0)
    dark = det.read("dark_rate", _number, 0.0, non_negative=True)
    heralds = det.read("heralds_per_setting", _integer, 1000, minimum=1, maximum=MAX_HERALDS)
    det.close()

    est = top.read("estimation", _Object, {})
    n_res = est.read("n_resamples", _integer, 100, minimum=2, maximum=MAX_RESAMPLES)
    if n_res * dim**2 > MAX_BOOTSTRAP_FLOATS:
        raise ConfigError(f"estimation.n_resamples: must be at most "
                          f"{MAX_BOOTSTRAP_FLOATS // dim**2} at dimension {dim}, since the "
                          f"bootstrap holds n_resamples x dimension**2 floats")
    tol = est.read("tol", _number, 1e-9, positive=True)
    # the relative-reduction test behind tol cannot fail at tol >= 1, so a fit
    # would stop after one step and report convergence
    if tol >= 1.0:
        raise ConfigError("estimation.tol: must be less than 1")
    max_iter = est.read("max_iter", _integer, 1000, minimum=1)
    est.close()
    top.close()

    return ExperimentConfig(
        seed=seed, protocol=protocol, eta_det=eta_det, dark_rate=dark,
        heralds_per_setting=heralds, n_resamples=n_res, tol=tol,
        max_iter=max_iter, sha256=sha256,
    )


def _read_config(path: str, raw: bytes | None = None) -> tuple[object, bytes]:
    """The parsed JSON document and its raw bytes, read from ``path`` unless given.

    The bytes must be UTF-8 (a leading byte-order mark is skipped); syntax
    errors name path:line:col, and a key repeated in one object is named;
    nesting past the interpreter's recursion limit, or an integer past its
    digit limit, is rejected with the path.
    """
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: byte {err.start} "
                          f"({raw[err.start]:#04x}) is invalid") from None

    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise ConfigError(f"{path}: duplicate key {repeated!r}")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique_keys), raw
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply") from None
    except ConfigError:
        raise
    except ValueError:   # CPython's limit on the digits of an int literal
        raise ConfigError(f"{path}: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None


def load_experiment_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    doc, raw = _read_config(path)
    sha = hashlib.sha256(raw).hexdigest()
    return parse_experiment_config(doc, seed_override=seed_override, sha256=sha)


def derive_seed(*parts: int) -> int:
    """The uint64 seed of the stream (seed, index, ...): the first state word of
    ``np.random.SeedSequence(parts)``."""
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])


def _stream_plans(runs) -> list[tuple[np.ndarray, ...]]:
    """Each run's streams, from (cfg, n_settings) pairs: stage 1's table and
    bootstrap streams, then stage 2's.

    Stage s's table seed is ``derive_seed(seed, s, 0)`` and its bootstrap
    seed ``derive_seed(seed, s, 1)``; row i of either draws from stream
    (that seed, i), and all the runs' rows are hashed in one pass.  A sweep
    passes groups of at most ``_PLAN_ROWS`` rows (or one larger point).
    """
    seeds = [derive_seed(cfg.seed, s, k) for cfg, _ in runs for s in (1, 2) for k in (0, 1)]
    counts = [count for cfg, n in runs for count in (n, cfg.n_resamples) * 2]
    states = stream_states(np.repeat(np.array(seeds, dtype=np.uint64), counts),
                           np.concatenate([np.arange(c) for c in counts]))
    return list(zip(*[iter(np.split(states, np.cumsum(counts)[:-1]))] * 4))


def _settings(dimension: int):
    return tomography_settings() if dimension == 2 else w_settings(dimension)


def _qubit_blocks(outcomes, tables, resamples,
                  cfg: ExperimentConfig) -> tuple[dict, dict, float | None]:
    """Both stages' blocks and the transmission fidelity, from one fit of both tables.

    A stage without a spread keeps its fidelity, sets sigma None and adds
    the reason as the block's ``warnings``; a stage without a base fit has
    no fidelity, and then the run has no transmission fidelity.
    """
    target = bell_target(cfg.protocol.write_phases[1] - cfg.protocol.write_phases[0])
    estimates = monte_carlo_fidelities(tables, target, resamples, tol=cfg.tol,
                                       max_iter=cfg.max_iter)
    blocks = []
    for outcome, est in zip(outcomes, estimates):
        block = {
            "predicted_fidelity": outcome.predicted_fidelity,
            "survival_probability": outcome.survival_probability,
            "fidelity": est.value,
            "sigma": est.sigma,
            "n_resamples": est.n_resamples,
        }
        if est.warnings:
            block["warnings"] = list(est.warnings)
        blocks.append(block)
    rho1, rho2 = (est.rho for est in estimates)
    transmission = None if rho1 is None or rho2 is None else state_fidelity(rho1, rho2)
    return *blocks, transmission


def _w_block(outcome, draw, dimension: int) -> dict:
    """The stage's W block, whose table and resamples ``draw()`` gives if it has amplitudes
    to project on; what cannot be computed is None, with the reason in warnings."""
    block = {
        "predicted_w_fidelity": None,
        "survival_probability": outcome.survival_probability,
        "w_fidelity": None,
        "sigma": None,
        "n_resamples": 0,
        "warnings": [],
    }
    try:
        block["predicted_w_fidelity"] = project_w(outcome)
    except PostSelectionError as err:
        block["warnings"].append(str(err))
        return block
    table, resamples = draw()
    est = monte_carlo_w_fidelity(table, dimension, resamples)
    block.update(w_fidelity=est.value, sigma=est.sigma, n_resamples=est.n_resamples,
                 warnings=list(est.warnings))
    return block


def _check_dark_rate(cfg: ExperimentConfig, probabilities: dict) -> None:
    """Reject a dark rate that lifts some setting's probability above 1, per stage name."""
    for name, stage_probabilities in probabilities.items():
        peak = float(stage_probabilities.max())
        if peak + cfg.dark_rate > 1.0:
            raise ConfigError(f"detection.dark_rate: {cfg.dark_rate!r} plus the largest "
                              f"{name} coincidence probability {peak:.6g} exceeds 1")


_last_compiled = [None, None]   # the key and schedule of the last compile
_last_loaded = [None, None]     # the key and config of the last load
# the (protocol, eta_det) key of the last run, its protocol held and compared by
# identity, and both stages' outcomes and probabilities, every array read-only
_last_stages = [None, None]


def _compile(cfg: ExperimentConfig) -> Schedule:
    """The protocol's schedule, compiled again only when its key changes.

    The key is what compilation reads: the cells (which fix the dimension
    and memory ids), the retrieval order and, as float64 bits (so -0.0 and
    0.0 differ), the times, write phases and each memory's ``tau_mem``,
    ``t_larmor`` and RF grid.  Grid sizes (a parsed config's cells lie on
    them), drifts and efficiency maps never move the schedule, so a sweep
    over them compiles once.
    """
    p, specs = cfg.protocol, (cfg.protocol.spec1, cfg.protocol.spec2)
    floats = [p.t1, p.tau, p.t2, *p.write_phases,
              *(v for s in specs for v in (s.tau_mem, s.t_larmor, *vars(s.rf_grid).values()))]
    key = (p.source_cells, p.target_cells, p.retrieval_order, np.array(floats).tobytes())
    if _last_compiled[0] != key:
        try:
            _last_compiled[1] = compile_schedule(p)
        except PatternError as err:
            raise ConfigError(f"protocol.{err}") from err
        _last_compiled[0] = key
    return _last_compiled[1]


def _load(path: str, seed_override: int | None) -> ExperimentConfig:
    """``load_experiment_config``, parsed again only when its key changes.

    The file is read on every call.  The key is its bytes and whether an override
    is given (a seedless document is valid only with one); an error is never kept.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    key = (raw, seed_override is not None)
    if _last_loaded[0] != key:
        doc, _ = _read_config(path, raw)
        _last_loaded[:] = key, parse_experiment_config(doc, seed_override,
                                                       hashlib.sha256(raw).hexdigest())
    cfg = _last_loaded[1]
    return cfg if seed_override is None else replace(
        cfg, seed=_integer(seed_override, "seed", minimum=0))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline: compile, run both stages, measure, estimate.

    The source-only stage retrieves directly from the first memory (the
    transfer leg disabled); the transfer stage runs the whole chain.  Qubit
    runs get tomography fidelities against the Bell target plus the
    transmission fidelity between the two reconstructions; qudit runs get
    W-state fidelities for both stages.

    The dark rate is checked against both stages before any count is
    drawn.  Then each stage, in order, draws its table and its resamples
    from its blocks of its stream plan, but a W stage with nothing to project
    on draws nothing.  A W stage is estimated before the next stage draws, so
    one W resample stack is alive at a time; the qubit tables are fitted
    together once both are drawn.
    """
    return _run(cfg, _stream_plans([(cfg, len(_settings(cfg.protocol.dimension).labels))])[0])


def _run(cfg: ExperimentConfig, plan: tuple[np.ndarray, ...]) -> dict:
    """``run_experiment`` on the run's ``_stream_plans`` entry."""
    schedule = _compile(cfg)
    stages = ("maqm1_stage", "maqm2_stage")
    d = cfg.protocol.dimension
    settings = _settings(d)
    key = _last_stages[0]
    if key is None or key[0] is not cfg.protocol or key[1] != cfg.eta_det:
        outcomes = [run_protocol(cfg.protocol, transfer=transfer) for transfer in (False, True)]
        probabilities = [coincidence_probabilities(outcome, settings, cfg.eta_det)
                         for outcome in outcomes]
        for p in probabilities:
            p.setflags(write=False)
        _last_stages[:] = (cfg.protocol, cfg.eta_det), (outcomes, probabilities)
    outcomes, probabilities = _last_stages[1]
    _check_dark_rate(cfg, dict(zip(stages, probabilities)))

    report = {
        "package_version": __version__,
        "seed": cfg.seed,
        "config_sha256": cfg.sha256,
        "dimension": d,
        "herald_probability": outcomes[0].herald_probability,
        "schedule": {"valid": schedule.valid,
                     "violations": [asdict(v) for v in schedule.violations]},
    }
    drawn = []
    for name, outcome, p, rows, draws in zip(stages, outcomes, probabilities,
                                             plan[::2], plan[1::2]):
        def draw():   # called in this iteration, so it reads this stage's streams
            table = sample_counts(settings, p, cfg.heralds_per_setting, cfg.dark_rate, rows)
            return table, poisson_resamples(table, draws)
        if d > 2:   # the stack is freed when its block is done
            report[name] = _w_block(outcome, draw, d)
        else:
            drawn.append(draw())
    if d == 2:
        *blocks, transmission = _qubit_blocks(outcomes, *zip(*drawn), cfg)
        report.update(zip(stages, blocks), transmission_fidelity=transmission)
    return report


def _round_floats(node):
    if isinstance(node, bool):
        return node
    if isinstance(node, float):
        return float(f"{node:.6g}")
    if isinstance(node, dict):
        return {k: _round_floats(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round_floats(v) for v in node]
    return node


def report_to_json(report: dict) -> str:
    return json.dumps(_round_floats(report), indent=2) + "\n"


def _flatten(node, prefix=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(node, list):
        yield prefix.rstrip("."), json.dumps(_round_floats(node))
    else:
        yield prefix.rstrip("."), node


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{float(f'{value:.6g}'):g}"
    return str(value)


def _csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def report_to_csv(report: dict) -> str:
    return _csv_text([("key", "value"),
                      *((key, _csv_cell(value)) for key, value in _flatten(report))])


# sweepable paths: numeric entries overwrite the raw config value; the
# virtual entry expands a scalar into the structured field it stands for
_SWEEP_NUMERIC = {
    "protocol.t1", "protocol.tau", "protocol.t2", "protocol.drift",
    "detection.eta_det", "detection.dark_rate", "detection.heralds_per_setting",
    "estimation.n_resamples", "memories.MAQM1.eta_read", "memories.MAQM1.eta_write",
    "memories.MAQM1.tau_mem", "memories.MAQM1.t_larmor",
    "memories.MAQM2.eta_eit", "memories.MAQM2.tau_mem",
    "memories.MAQM2.t_larmor",
}
_SWEEP_VIRTUAL = {"memories.MAQM1.eta_read_ratio"}


def sweepable_paths() -> tuple[str, ...]:
    return tuple(sorted(_SWEEP_NUMERIC | _SWEEP_VIRTUAL))


def _with_value(doc: dict, path: str, value) -> dict:
    """``doc`` with ``value`` at the dotted ``path``, missing objects made.

    Only the objects on the path are copied; the rest is shared with
    ``doc``, which is left as it was.  Sharing is safe because parsing a
    config never writes into the document it reads.
    """
    *parents, last = path.split(".")
    doc = node = dict(doc)
    for key in parents:
        child = node.get(key, {})
        if not isinstance(child, dict):
            raise ConfigError(f"{path}: cannot descend into a non-object")
        node[key] = node = dict(child)
    node[last] = value
    return doc


def _apply_ratio(doc: dict, ratio: float, unswept: ExperimentConfig) -> dict:
    """Scale the read efficiency of every non-reference branch by ``ratio``.

    ``unswept`` is ``doc`` parsed; it supplies the read map and the source cells.
    """
    eta_read = unswept.protocol.spec1.eta_read.copy()
    for cell in unswept.protocol.source_cells[1:]:
        eta_read[cell.y, cell.x] *= ratio
    return _with_value(doc, "memories.MAQM1.eta_read", eta_read.ravel().tolist())


_SWEEP_COLUMNS = [
    "param", "value", "seed", "dimension", "schedule_valid", "herald_probability",
    "maqm1_fidelity", "maqm1_sigma", "maqm2_fidelity", "maqm2_sigma",
    "transmission_fidelity",
    "maqm1_w_fidelity", "maqm1_w_sigma", "maqm2_w_fidelity", "maqm2_w_sigma",
]


def run_sweep(doc: dict, param: str, values, base_seed: int | None = None) -> list[dict]:
    """One pipeline run per value; row i runs with seed derived from (seed, i)."""
    top = _Object(doc, "")
    if param not in (_SWEEP_NUMERIC | _SWEEP_VIRTUAL):
        raise ConfigError(f"{param}: not a sweepable parameter "
                          f"(choose from {', '.join(sweepable_paths())})")
    base_seed = _seed(top, base_seed)
    rows, group, size, known = [], [], 0, {}
    unswept = _parse(doc, base_seed, "", known) if param in _SWEEP_VIRTUAL else None

    def run(group):   # each (value, cfg, n_settings) in turn, on plans hashed in one pass
        plans = _stream_plans([(cfg, n) for _, cfg, n in group]) if group else []
        for (value, cfg, _), plan in zip(group, plans):
            report = _run(cfg, plan)
            row = {"param": param, "value": value, "seed": report["seed"],
                   "dimension": report["dimension"], "schedule_valid": report["schedule"]["valid"],
                   "herald_probability": report["herald_probability"]}
            # a qubit block has "fidelity", a W block "w_fidelity"; both have "sigma"
            w = "" if report["dimension"] == 2 else "w_"
            for stage in ("maqm1", "maqm2"):
                block = report[f"{stage}_stage"]
                row[f"{stage}_{w}fidelity"] = block[f"{w}fidelity"]
                row[f"{stage}_{w}sigma"] = block["sigma"]
            if "transmission_fidelity" in report:
                row["transmission_fidelity"] = report["transmission_fidelity"]
            rows.append(row)

    for i, value in enumerate(values):
        # a whole value goes in as an int, so the field's own reader check decides
        varied = (_apply_ratio(doc, value, unswept) if unswept is not None
                  else _with_value(doc, param, int(value) if float(value).is_integer() else value))
        try:
            cfg = _parse(varied, derive_seed(base_seed, i), "", known)
        except ConfigError:   # raised once the points parsed ahead of it have run
            run(group)
            raise
        n_settings = len(_settings(cfg.protocol.dimension).labels)
        if group and size + 2 * (n_settings + cfg.n_resamples) > _PLAN_ROWS:
            run(group)
            group, size = [], 0
        group.append((value, cfg, n_settings))
        size += 2 * (n_settings + cfg.n_resamples)
    run(group)
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    return _csv_text([_SWEEP_COLUMNS,
                      *([_csv_cell(row.get(col)) for col in _SWEEP_COLUMNS] for row in rows)])


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    cfg = _load(args.config, args.seed)
    report = run_experiment(cfg)
    text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
    _emit(text, args.out)
    return 0


def _cmd_compile(args) -> int:
    cfg = _load(args.config, args.seed)
    schedule = _compile(cfg)
    _emit(schedule_to_jsonl(schedule), args.out)
    for v in schedule.violations:
        print(f"{v.severity}: {v.code}: {v.message}", file=sys.stderr)
    return 0 if schedule.valid else 1


def _cmd_sweep(args) -> int:
    doc, _ = _read_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",")] if args.values else []
    except ValueError:
        raise ConfigError(f"--values: {args.values!r} is not a comma-separated "
                          f"list of numbers") from None
    rows = run_sweep(doc, args.param, values, base_seed=args.seed)
    _emit(report_to_json(rows) if args.format == "json" else sweep_to_csv(rows), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maqmsim",
        description="Simulate entanglement transfer between multiplexed memories "
                    "and compile control schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_run = sub.add_parser("run", help="run the full pipeline and emit a report")
    common(p_run)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_compile = sub.add_parser("compile", help="compile the control schedule (JSON Lines)")
    common(p_compile)
    p_sweep = sub.add_parser("sweep", help="rerun the pipeline over parameter values")
    common(p_sweep)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.add_argument("--param", required=True,
                         help="parameter path, e.g. protocol.drift")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compile":
            return _cmd_compile(args)
        return _cmd_sweep(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
