"""Compilation of protocol timings into timed AOD/RF control events.

The compiler turns a :class:`~maqmsim.protocol.ProtocolConfig` into a flat
list of pulse events, one per control action, each carrying the RF tones for
the two AOD axes of the memory it drives.  Compilation never fails on timing
problems; instead every schedule carries a verdict, a list of violations with
severities, so a near-miss schedule can still be inspected.  The limits come
from the two memories themselves: retrievals must sit on the source memory's
Larmor grid and the verification delay on the target's, the source dwell is
measured against the source memory time, and the deflector switch time and
the per-channel guard are fixed hardware constants.  Patterns the
crossed AODs physically cannot produce (cell weights that do not factor into
an x tone set times a y tone set) are the one hard error, a ``PatternError``
that names the cell list.

Timing lives on a 1 ns grid (``TIME_GRID_US``).  The emission format is JSON
Lines, one line per (event, axis), and for every ``ProtocolConfig`` that
compiles, parsing the emitted schedule and emitting it again reproduces the
bytes exactly.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .memory import TIME_GRID_US, CellAddress, MemorySpec
from .protocol import ProtocolConfig, bin_time

__all__ = [
    "Channel",
    "Tone",
    "PulseEvent",
    "Violation",
    "Schedule",
    "PatternError",
    "AOD_SWITCH_US",
    "MIN_GUARD_US",
    "TIME_GRID_US",
    "cell_to_rf",
    "superposition_rf",
    "compile_schedule",
    "validate_schedule",
    "schedule_to_jsonl",
    "schedule_from_jsonl",
]

WRITE_DURATION_US = 0.1
READ_DURATION_US = 0.5
COUPLING_DURATION_US = 0.7
FINAL_DURATION_US = 1.0
AOD_SWITCH_US = 2.0     # deflector retune time between bins
MIN_GUARD_US = 0.05     # least spacing between events on one channel
_TICKS_PER_US = 1.0 / TIME_GRID_US    # exactly 1000.0

FACTOR_RTOL = 1e-10     # relative second-singular-value bound for product patterns
LARMOR_TOLERANCE = 0.01  # allowed distance from the Larmor grid, in periods
WEIGHT_NORM_ATOL = 1e-9


class Channel(enum.Enum):
    """Control channels in their tie-break order at equal start times.

    ``aod_retune`` marks the window in which the deflectors move to the next
    bin's cell; it drives no light but occupies the switch time, so it is
    scheduled like any other event.
    """

    WRITE = "write"
    READ = "read"
    COUPLING = "coupling"
    AOD_RETUNE = "aod_retune"
    COUPLING_FINAL = "coupling_final"


_CHANNEL_RANK = {c: i for i, c in enumerate(Channel)}


def _snap(t: float) -> float:
    # onto the timing grid; also scrubs float-sum dust out of emitted times
    return round(t * _TICKS_PER_US) / _TICKS_PER_US


@dataclass(frozen=True)
class Tone:
    f_mhz: float
    amp: float
    phase_rad: float

    def __post_init__(self):
        if not 0.0 <= self.amp <= 1.0 + 1e-12:
            raise ValueError(f"tone amplitude must be in [0, 1], got {self.amp!r}")


@dataclass(frozen=True)
class PulseEvent:
    """One timed control action with its per-axis RF tones."""

    t_start_us: float
    duration_us: float
    channel: Channel
    x_tones: tuple[Tone, ...]
    y_tones: tuple[Tone, ...]

    def __post_init__(self):
        if self.t_start_us < 0:
            raise ValueError(f"t_start_us must be non-negative, got {self.t_start_us!r}")
        if self.duration_us <= 0:
            raise ValueError(f"duration_us must be positive, got {self.duration_us!r}")
        object.__setattr__(self, "x_tones", tuple(self.x_tones))
        object.__setattr__(self, "y_tones", tuple(self.y_tones))

    @property
    def t_end_us(self) -> float:
        return self.t_start_us + self.duration_us


@dataclass(frozen=True)
class Violation:
    severity: str   # "error" or "warning"
    code: str
    message: str

    def __post_init__(self):
        if self.severity not in ("error", "warning"):
            raise ValueError("severity must be 'error' or 'warning'")


@dataclass(frozen=True)
class Schedule:
    """Time-ordered events plus the validation verdict attached at compile time.

    ``violations`` is None for a schedule no verdict was attached to, such
    as one parsed back from JSONL; ``validate_schedule`` gives its verdict.
    """

    events: tuple[PulseEvent, ...]
    violations: tuple[Violation, ...] | None = None

    def __post_init__(self):
        ordered = sorted(self.events,
                         key=lambda e: (e.t_start_us, _CHANNEL_RANK[e.channel]))
        object.__setattr__(self, "events", tuple(ordered))
        if self.violations is not None:
            object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def valid(self) -> bool:
        """No error-severity violation; raises ``ValueError`` on an unvalidated schedule."""
        if self.violations is None:
            raise ValueError("schedule carries no verdict: "
                             "validate_schedule(schedule, source, target) gives one")
        return not any(v.severity == "error" for v in self.violations)

    def on_channel(self, channel: Channel) -> tuple[PulseEvent, ...]:
        return tuple(e for e in self.events if e.channel is channel)


class PatternError(ValueError):
    """A cell pattern that crossed deflectors cannot produce."""


def cell_to_rf(spec: MemorySpec, cell: CellAddress) -> tuple[float, float]:
    """RF tone pair (f_x, f_y) in MHz that steers both AOD axes onto a cell."""
    spec.require_cell(cell)
    return (spec.rf_grid.x_freq(cell.x), spec.rf_grid.y_freq(cell.y))


def superposition_rf(spec: MemorySpec, cells, weights):
    """Factor a weighted cell pattern into per-axis multi-tone settings.

    Crossed AODs produce the outer product of their tone patterns, so the
    requested complex weights, laid out on the (x, y) index grid, must have
    rank one.  Returns ``(x_tones, y_tones)``; each axis gets one tone per
    distinct frequency, unit total power per axis, and the global phase is
    fixed by making the strongest x tone real and positive.
    """
    cells = list(cells)
    weights = np.asarray(weights, dtype=complex)
    if len(cells) != weights.size or not cells:
        raise ValueError("need one weight per cell")
    if len(set(cells)) != len(cells):
        raise ValueError("cells must be distinct")
    for c in cells:
        spec.require_cell(c)
    norm_sq = float(np.sum(np.abs(weights) ** 2))
    if abs(norm_sq - 1.0) > WEIGHT_NORM_ATOL:
        raise ValueError(f"weights must be normalized, sum |w|^2 = {norm_sq!r}")

    xs = sorted({c.x for c in cells})
    ys = sorted({c.y for c in cells})
    grid = np.zeros((len(xs), len(ys)), dtype=complex)
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    for c, w in zip(cells, weights):
        grid[xi[c.x], yi[c.y]] = w

    if len(xs) == 1:
        u, v = np.ones(1, dtype=complex), grid[0, :].copy()
    elif len(ys) == 1:
        u, v = grid[:, 0].copy(), np.ones(1, dtype=complex)
    else:
        umat, svals, vh = np.linalg.svd(grid)
        if svals[1] > FACTOR_RTOL * svals[0]:
            raise PatternError(
                "cell weights do not factor into independent x and y tone patterns; "
                "crossed deflectors cannot produce this superposition"
            )
        u = umat[:, 0]
        v = svals[0] * vh[0, :]

    # global phase onto the y axis: strongest x tone real positive
    j = int(np.argmax(np.abs(u)))
    ph = u[j] / abs(u[j])
    u = u * np.conj(ph)
    v = v * ph

    x_tones = tuple(Tone(spec.rf_grid.x_freq(x), float(abs(a)), float(np.angle(a)))
                    for x, a in zip(xs, u) if abs(a) > 1e-12)
    y_tones = tuple(Tone(spec.rf_grid.y_freq(y), float(abs(a)), float(np.angle(a)))
                    for y, a in zip(ys, v) if abs(a) > 1e-12)
    return x_tones, y_tones


def _pattern_tones(spec, cells, weights, field):
    try:
        return superposition_rf(spec, cells, weights)
    except PatternError as err:
        raise PatternError(f"{field}: {err}") from None


def _single_cell_tones(spec, cell):
    fx, fy = cell_to_rf(spec, cell)
    return (Tone(fx, 1.0, 0.0),), (Tone(fy, 1.0, 0.0),)


def compile_schedule(config: ProtocolConfig) -> Schedule:
    """Compile one heralded write plus readout chain into timed events.

    The write pulse fires at t = 0 carrying the source superposition.  Each
    bin i pairs a read pulse on the source memory with a storage (coupling)
    pulse on the target, both starting at t1 + i*tau; the deflectors retune
    to the next cell in the gap after each read.  The retune window tracks
    the read-side deflectors; the target-side pair moves in the same window.
    A final coupling pulse t2 after the last bin reads the stored
    superposition back out.  The returned schedule carries the verdict from
    :func:`validate_schedule` against ``config.spec1`` and ``config.spec2``;
    violations never abort compilation.  A source or target pattern that
    does not factor raises ``PatternError`` prefixed with ``source_cells``
    or ``target_cells``.
    """
    d = config.dimension
    spec1, spec2 = config.spec1, config.spec2
    order = config.retrieval_order
    write_weights = np.exp(1j * np.asarray(config.write_phases)) / np.sqrt(d)

    events = [PulseEvent(0.0, WRITE_DURATION_US, Channel.WRITE,
                         *_pattern_tones(spec1, config.source_cells, write_weights,
                                         "source_cells"))]
    for i in range(d):
        t_i = _snap(bin_time(config, i))
        src = config.source_cells[order[i]]
        tgt = config.target_cells[order[i]]
        events.append(PulseEvent(t_i, READ_DURATION_US, Channel.READ,
                                 *_single_cell_tones(spec1, src)))
        events.append(PulseEvent(t_i, COUPLING_DURATION_US, Channel.COUPLING,
                                 *_single_cell_tones(spec2, tgt)))
        if i + 1 < d:
            nxt = config.source_cells[order[i + 1]]
            events.append(PulseEvent(_snap(t_i + READ_DURATION_US),
                                     AOD_SWITCH_US, Channel.AOD_RETUNE,
                                     *_single_cell_tones(spec1, nxt)))
    t_final = _snap(bin_time(config, d - 1) + config.t2)
    final_weights = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    events.append(PulseEvent(t_final, FINAL_DURATION_US, Channel.COUPLING_FINAL,
                             *_pattern_tones(spec2, config.target_cells, final_weights,
                                             "target_cells")))

    schedule = Schedule(tuple(events))
    return Schedule(schedule.events, validate_schedule(schedule, spec1, spec2))


def _off_grid(t: float, period: float) -> bool:
    ratio = t / period
    return abs(ratio - round(ratio)) > LARMOR_TOLERANCE


def validate_schedule(schedule: Schedule, source: MemorySpec,
                      target: MemorySpec) -> tuple[Violation, ...]:
    """Check a schedule against the two memories and the deflector timing.

    Timings are re-derived from the events themselves rather than trusted
    from whatever produced them.  Checks: retrieval times on the source
    Larmor grid (``source.t_larmor``), verification delay on the target
    grid (``target.t_larmor``), inter-bin gaps long enough to retune
    (``AOD_SWITCH_US`` plus the read), source dwell against
    ``source.tau_mem`` (warning past 1x, error past 2x), and per-channel
    overlap and ``MIN_GUARD_US`` spacing.
    """
    out: list[Violation] = []
    t_l1, t_l2 = source.t_larmor, target.t_larmor

    writes = schedule.on_channel(Channel.WRITE)
    origin = writes[0].t_start_us if writes else 0.0
    reads = schedule.on_channel(Channel.READ)
    finals = schedule.on_channel(Channel.COUPLING_FINAL)

    if reads:
        t1 = reads[0].t_start_us - origin
        if _off_grid(t1, t_l1):
            out.append(Violation("error", "larmor_t1",
                                 f"first retrieval at {t1:g} us is off the source "
                                 f"Larmor grid ({t_l1:g} us)"))
        for a, b in zip(reads, reads[1:]):
            gap = b.t_start_us - a.t_start_us
            if _off_grid(gap, t_l1):
                out.append(Violation("error", "larmor_tau",
                                     f"bin spacing {gap:g} us is off the source "
                                     f"Larmor grid ({t_l1:g} us)"))
            floor = AOD_SWITCH_US + a.duration_us
            if gap < floor - 1e-9:
                out.append(Violation("error", "bin_gap",
                                     f"bin spacing {gap:g} us is below the retune floor "
                                     f"{floor:g} us (switch {AOD_SWITCH_US:g} "
                                     f"+ read {a.duration_us:g})"))
        if finals:
            t2 = finals[0].t_start_us - reads[-1].t_start_us
            if _off_grid(t2, t_l2):
                out.append(Violation("error", "larmor_t2",
                                     f"verification delay {t2:g} us is off the target "
                                     f"Larmor grid ({t_l2:g} us)"))
        dwell = reads[-1].t_start_us - origin
        mem1 = source.tau_mem
        if dwell > 2.0 * mem1:
            out.append(Violation("error", "dwell",
                                 f"last bin dwells {dwell:g} us in the source memory, "
                                 f"over twice the memory time {mem1:g} us"))
        elif dwell > mem1:
            out.append(Violation("warning", "dwell",
                                 f"last bin dwells {dwell:g} us in the source memory, "
                                 f"past the memory time {mem1:g} us"))

    for channel in Channel:
        on = schedule.on_channel(channel)
        for a, b in zip(on, on[1:]):
            if b.t_start_us < a.t_end_us - 1e-9:
                out.append(Violation("error", "overlap",
                                     f"{channel.value} events at {a.t_start_us:g} and "
                                     f"{b.t_start_us:g} us overlap"))
            elif b.t_start_us < a.t_end_us + MIN_GUARD_US - 1e-9:
                out.append(Violation("error", "guard",
                                     f"{channel.value} events at {a.t_start_us:g} and "
                                     f"{b.t_start_us:g} us are closer than the "
                                     f"{MIN_GUARD_US:g} us guard"))
    return tuple(out)


def _tone_doc(tone: Tone) -> dict:
    return {"f_mhz": tone.f_mhz, "amp": tone.amp, "phase_rad": tone.phase_rad}


def schedule_to_jsonl(schedule: Schedule) -> str:
    """One JSON line per (event, axis), x before y, trailing newline.

    A non-finite number raises ``ValueError``: JSON has none, and
    ``schedule_from_jsonl`` would reject the ``Infinity`` or ``NaN`` written.
    """
    lines = []
    for e in schedule.events:
        for axis, tones in (("x", e.x_tones), ("y", e.y_tones)):
            if not tones:
                continue
            lines.append(json.dumps({
                "t_start_us": e.t_start_us,
                "duration_us": e.duration_us,
                "channel": e.channel.value,
                "axis": axis,
                "tones": [_tone_doc(t) for t in tones],
            }, allow_nan=False))
    return "\n".join(lines) + "\n"


def _field(doc: dict, key: str, ok, kind: str, path: str = ""):
    """``doc[key]`` if ``ok`` accepts it; otherwise a ``ValueError`` naming the field."""
    if not ok(doc.get(key)):
        raise ValueError(f"{path}{key} must be {kind}, got {doc[key]!r}" if key in doc
                         else f"missing field {path + key!r}")
    return doc[key]


def _finite(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def schedule_from_jsonl(text: str) -> Schedule:
    """Parse emitted lines back into an unvalidated schedule (``violations`` None).

    The verdict is not serialized: ``validate_schedule(schedule, source,
    target)`` gives it from the events and the two memory specs.  A
    malformed line raises ``ValueError("line N: ...")`` naming the field.
    """
    channels = [c.value for c in Channel]
    partial: dict[tuple, dict] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"line {n}: not valid JSON ({err.msg})") from err
        try:
            if not isinstance(doc, dict):
                raise ValueError(f"must be a JSON object, got {doc!r}")
            t_start, duration = (_field(doc, k, _finite, "a finite number")
                                 for k in ("t_start_us", "duration_us"))
            channel = Channel(_field(doc, "channel", lambda v: v in channels,
                                     f"one of {channels}"))
            axis = _field(doc, "axis", lambda v: v in ("x", "y"), "'x' or 'y'")
            # the emitter leaves out an axis with no tones, so an empty list would not round-trip
            tone_docs = _field(doc, "tones", lambda v: isinstance(v, list) and len(v) > 0
                               and all(isinstance(t, dict) for t in v),
                               "a non-empty list of tone objects")
            tones = tuple(Tone(*(_field(t, k, _finite, "a finite number", f"tones[{i}].")
                                 for k in ("f_mhz", "amp", "phase_rad")))
                          for i, t in enumerate(tone_docs))
            PulseEvent(t_start, duration, channel, tones, ())   # checked here to name the line
        except ValueError as err:
            raise ValueError(f"line {n}: {err}") from err
        key = (t_start, duration, channel)
        slot = partial.setdefault(key, {"x": (), "y": ()})
        if slot[axis]:
            raise ValueError(f"line {n}: duplicate {axis} axis for event at "
                             f"t={key[0]!r} on channel {key[2].value!r}")
        slot[axis] = tones
    events = [PulseEvent(t, dur, ch, axes["x"], axes["y"])
              for (t, dur, ch), axes in partial.items()]
    return Schedule(tuple(events))
