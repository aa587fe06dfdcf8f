"""Stochastic measurement layer: projective settings and coincidence counts.

A block of settings is one ``Settings`` value: the row labels plus read-only
(n, d) arrays of signal and atom analyzer vectors, row i projecting onto
``signal[i]`` x ``atom[i]``.  ``tomography_settings()`` and
``w_settings(d)`` build their block once and share it between calls.

Coincidences are herald-conditioned: probabilities are computed against the
unnormalized branch amplitudes of a protocol run, so branch loss and
detection efficiency show up as missing counts rather than renormalized
statistics.  A ``CountsTable`` is three read-only columns: labels, heralds
and coincidences.  Counts cross to ``tomo`` as arrays: a table, and the
(R, n) stack of its bootstrap resamples that ``poisson_resamples`` draws.

Every random draw in the package is made here, from a stream: a PCG64
seeded from one row of ``stream_states(seeds, indices)``, bit for bit the
generator ``np.random.default_rng([seed, index])`` gives.  A run's streams
form a tree: the config seed gives stage s a table seed and a bootstrap
seed, ``cli.derive_seed(seed, s, 0)`` and ``(seed, s, 1)``, through numpy's
``SeedSequence``; table row i draws from stream (table seed, i) and
resample r from (bootstrap seed, r), the rows of a run, or of a group of
sweep points, hashed in one array pass.  Streams are keyed by index, so
tables are reproducible and independent of evaluation order, and adding a
consumer never shifts another's draws.  ``numpy.random`` loads on the
first draw.  Nothing is cached between runs but the settings blocks and
label tuples, which depend on the dimension alone, and the seed stand-in
class; ``cli.main`` keeps no stream or draw between calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .protocol import TransferOutcome

__all__ = [
    "Settings",
    "CountsTable",
    "tomography_settings",
    "w_labels",
    "w_settings",
    "coincidence_probabilities",
    "sample_counts",
    "poisson_resamples",
    "stream_states",
]

BASIS_NORM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Settings:
    """Product projections, one row each: signal analyzer x atom analyzer.

    ``signal`` and ``atom`` are read-only complex (n, d) copies of the
    vectors given; every row must be unit-norm.
    """

    labels: tuple[str, ...]
    signal: np.ndarray
    atom: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        signal, atom = (np.array(v, dtype=complex) for v in (self.signal, self.atom))
        if signal.ndim != 2 or signal.shape != atom.shape or len(signal) != len(labels):
            raise ValueError(f"need one label and equal-length signal and atom vectors per "
                             f"row, got {len(labels)} labels, {signal.shape} and {atom.shape}")
        norms = np.linalg.norm(np.stack([signal, atom]), axis=-1)
        off = np.argwhere(np.abs(norms - 1.0) > BASIS_NORM_ATOL)
        if off.size:
            side, row = off[0]
            raise ValueError(f"setting {labels[row]!r}: {('signal', 'atom')[side]} vector "
                             f"must be unit-norm, got |v| = {norms[side, row]!r}")
        signal.setflags(write=False)
        atom.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "signal", signal)
        object.__setattr__(self, "atom", atom)


@dataclass(frozen=True, eq=False)
class CountsTable:
    """A coincidence table as columns: row i is ``labels[i]``, ``heralds[i]``
    and ``coincidences[i]``.

    The count columns are read-only 1-D copies of what is given, checked
    all at once: counts are non-negative and no row has more coincidences
    than heralds.  ``rows`` gives the table as ``(label, heralds,
    coincidences)`` tuples.
    """

    labels: tuple[str, ...]
    heralds: np.ndarray
    coincidences: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        heralds, coincidences = np.array(self.heralds), np.array(self.coincidences)
        if heralds.shape != (len(labels),) or coincidences.shape != (len(labels),):
            raise ValueError(f"need one herald and one coincidence count per label, got "
                             f"{len(labels)} labels, {heralds.shape} and {coincidences.shape}")
        if (heralds < 0).any() or (coincidences < 0).any():
            raise ValueError("counts must be non-negative")
        if (coincidences > heralds).any():
            raise ValueError("coincidences cannot exceed heralds")
        heralds.setflags(write=False)
        coincidences.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "heralds", heralds)
        object.__setattr__(self, "coincidences", coincidences)

    @property
    def rows(self) -> tuple[tuple[str, int, int], ...]:
        return tuple(zip(self.labels, self.heralds.tolist(), self.coincidences.tolist()))

    def __eq__(self, other):
        if not isinstance(other, CountsTable):
            return NotImplemented
        return (self.labels == other.labels and np.array_equal(self.heralds, other.heralds)
                and np.array_equal(self.coincidences, other.coincidences))

    __hash__ = None


# single-qubit analyzer kets on the {upper, lower} mode pair
_KETS = {
    "U": (1.0, 0.0),
    "D": (0.0, 1.0),
    "S": (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
    "R": (1.0 / np.sqrt(2.0), -1.0j / np.sqrt(2.0)),
}
_KET_ORDER = "UDSR"


@functools.cache
def tomography_settings() -> Settings:
    """The 16-projector two-qubit set, signal letter first in the label.

    {U, D, S, R} per side: populations, balanced superposition, and circular
    analyzers; informationally complete for a two-qubit state.  The block is
    built once and shared between calls.
    """
    pairs = [(s, a) for s in _KET_ORDER for a in _KET_ORDER]
    return Settings(tuple(s + a for s, a in pairs),
                    [_KETS[s] for s, _ in pairs], [_KETS[a] for _, a in pairs])


# ``dimension`` is positional-only here and in ``w_settings``: the cache
# would key f(4) and f(dimension=4) apart
@functools.cache
def w_labels(dimension: int, /) -> tuple[str, ...]:
    """Row labels of a W-state table, in ``w_settings`` order.

    ``P{i}`` for each branch i, then ``C{i}{j}+`` and ``C{i}{j}-`` for each
    pair i < j in lexicographic order: d^2 labels in all.  The tuple is built
    once per dimension and shared between calls.
    """
    if dimension < 2:
        raise ValueError("need at least two branches")
    pairs = combinations(range(dimension), 2)
    return (tuple(f"P{i}" for i in range(dimension))
            + tuple(f"C{i}{j}{tag}" for i, j in pairs for tag in "+-"))


@functools.cache
def w_settings(dimension: int, /) -> Settings:
    """Population plus pairwise-superposition settings for a W-state check.

    The signal photon is always analyzed in the balanced superposition of its
    branches; the memory side is projected onto each branch (labels ``Pi``)
    and onto (|i> +- |j>)/sqrt(2) for every pair (labels ``Cij+``/``Cij-``),
    in ``w_labels`` order.  The block is built once per dimension and shared
    between calls.
    """
    d = dimension
    labels = w_labels(d)
    h = 1.0 / np.sqrt(2.0)
    atoms = np.zeros((d * d, d), dtype=complex)
    atoms[range(d), range(d)] = 1.0
    for row, (i, j) in zip(range(d, d * d, 2), combinations(range(d), 2)):
        atoms[row:row + 2, i] = h
        atoms[row:row + 2, j] = (h, -h)
    return Settings(labels, np.full((d * d, d), 1.0 / np.sqrt(d)), atoms)


def coincidence_probabilities(outcome: TransferOutcome, settings: Settings,
                              eta_det: float) -> np.ndarray:
    """Herald-conditioned signal/atom coincidence probability of each setting."""
    if not 0.0 < eta_det <= 1.0:
        raise ValueError("eta_det must be in (0, 1]")
    d = outcome.branch_amplitudes.size
    if settings.signal.shape[1] != d:
        raise ValueError(f"setting vectors must have length {d}, "
                         f"got {settings.signal.shape[1]}")
    # the state is diagonal in the branch pairing: sum_k v_k |s_k>|a_k>
    amp = np.sum(np.conj(settings.signal) * np.conj(settings.atom)
                 * outcome.branch_amplitudes, axis=1)
    # |amp|^2 through libm's hypot and pow, as Python's abs and ** compute it;
    # numpy's SIMD abs and square differ from them in the last bit now and then
    return np.array([abs(a) ** 2 * eta_det for a in amp.tolist()])


def sample_counts(settings: Settings, probabilities, heralds_per_setting: int,
                  dark_rate: float, streams: np.ndarray) -> CountsTable:
    """Draw one coincidence table: row i is binomial(heralds, probabilities[i] +
    dark_rate) on the PCG64 seeded from ``streams[i]`` (see ``stream_states``).

    ``probabilities`` are ``coincidence_probabilities`` of ``settings``, one
    per row.
    """
    if heralds_per_setting < 1:
        raise ValueError("heralds_per_setting must be at least 1")
    if dark_rate < 0:
        raise ValueError("dark_rate must be non-negative")
    n = len(settings.labels)
    p = np.asarray(probabilities, dtype=float) + dark_rate
    if p.shape != (n,):
        raise ValueError(f"need one probability per setting, got {p.shape} for {n} settings")
    over = np.flatnonzero(p > 1.0)
    if over.size:
        i = over[0]
        raise ValueError(f"setting {settings.labels[i]!r}: probability {p.item(i)!r} exceeds 1")
    counts = np.fromiter((rng.binomial(heralds_per_setting, p_i)
                          for p_i, rng in zip(p.tolist(), _generators(streams, n))),
                         dtype=np.int64, count=n)
    return CountsTable(settings.labels, np.full(n, heralds_per_setting, dtype=np.int64), counts)


def poisson_resamples(table: CountsTable, streams: np.ndarray) -> np.ndarray:
    """(R, n) float bootstrap resamples of the table's coincidences: row r is
    Poisson around the n counts, drawn on the PCG64 seeded from ``streams[r]``."""
    observed = table.coincidences.astype(float)
    draws = np.empty((len(streams), observed.size))
    for r, rng in enumerate(_generators(streams, len(streams))):
        draws[r] = rng.poisson(observed)
    return draws


# SeedSequence's hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(calls + 1, 1) uint32: the running hash constant before each call and after the last."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# a pool of 4 words takes 4 hashmix calls to fill and 4 x 3 to mix;
# generate_state(4, uint64) takes 8 more
_POOL_CONSTS = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_WORDS**2)
_STATE_CONSTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_WORDS)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on each row of ``values``, row j after j earlier calls."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = _MIX_L * x - _MIX_R * y
    return values ^ (values >> 16)


def _column(values, bits: int, name: str) -> np.ndarray:
    """``values``, a scalar or 1-D array of integers in [0, 2**bits), as a 1-D uint64 array.

    A list or tuple of Python ints is read through exact ints: numpy reads
    an empty one, or one that mixes ints at or above 2**63 with smaller
    ones, as float64.
    """
    if isinstance(values, (list, tuple)) and all(type(v) is int for v in values):
        array = np.array(values, dtype=object)
    else:
        array = np.asarray(values)
        if array.ndim > 1 or array.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integers in [0, 2**{bits}), a scalar or a 1-D "
                             f"array, got {array.dtype} of shape {array.shape}")
    if array.size:
        low, high = int(array.min()), int(array.max())
        if low < 0 or high >> bits:
            raise ValueError(f"{name} must be in [0, 2**{bits}), got {low if low < 0 else high}")
    return np.atleast_1d(array.astype(np.uint64))


def stream_states(seeds, indices) -> np.ndarray:
    """(n, 4) uint64 PCG64 seed states of the streams (seeds[j], indices[j]),
    all in one hash pass.

    Row j is ``np.random.SeedSequence([seeds[j], indices[j]]).generate_state(4,
    np.uint64)``, so ``PCG64`` seeded from it is the generator
    ``np.random.default_rng([seeds[j], indices[j]])`` gives, bit for bit.
    ``seeds`` are below 2**64 and ``indices`` below 2**32, each a scalar or
    a 1-D array; they broadcast to one length n (1 when both are scalars).

    A seed is one entropy word below 2**32 and two above, and an index one,
    so a row's entropy fits SeedSequence's pool of 4 words, zero-filled.
    The mixing runs once for all rows over (4, n) uint32 arrays, which wrap
    modulo 2**32 as the C code does.  The hash constants do not depend on
    the entropy, and the calls that mix one pool word into the others are
    independent, so each such group runs as one array operation.
    """
    seeds, indices = np.broadcast_arrays(_column(seeds, 64, "seeds"),
                                         _column(indices, 32, "indices"))
    wide = seeds > _MASK32
    entropy = np.zeros((_POOL_WORDS, len(seeds)), dtype=np.uint32)
    entropy[0] = seeds & _MASK32
    entropy[1] = np.where(wide, seeds >> 32, indices)
    entropy[2] = np.where(wide, indices, 0)
    pool = _hashmix(entropy, _POOL_CONSTS[:_POOL_WORDS + 1])
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        # every other pool word, in order, takes a hash of this one
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_CONSTS[k:k + _POOL_WORDS]))
        k += _POOL_WORDS - 1
    # generate_state(4, uint64): 8 words cycling over the pool, read in pairs
    # as little-endian uint64
    state = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTS)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _fixed_state() -> type:
    """The seed stand-in class: an ``ISeedSequence`` whose one state is given,
    for PCG64 to seed itself from.  It is built on the first draw, so that
    importing this module does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype != np.uint64:
                raise ValueError(f"state is 4 uint64 words, not {n_words} {dtype}")
            return self.state

    return FixedState


def _generators(streams: np.ndarray, count: int):
    """One PCG64 generator per row of ``streams``, (count, 4) ``stream_states``,
    built as they are taken, each seeded from its own ``_fixed_state()`` object."""
    streams = np.ascontiguousarray(streams)
    if streams.dtype != np.uint64 or streams.shape != (count, 4):
        raise ValueError(f"need ({count}, 4) uint64 stream states, "
                         f"got {streams.dtype} of shape {streams.shape}")
    from numpy.random import PCG64, Generator
    fixed_state = _fixed_state()
    return (Generator(PCG64(fixed_state(row))) for row in streams)
