"""Stochastic measurement layer: projective settings and coincidence counts.

A block of settings is one ``Settings`` value: the row labels plus read-only
(n, d) arrays of signal and atom analyzer vectors, row i projecting onto
``signal[i]`` x ``atom[i]``.  ``tomography_settings(2)`` and
``w_settings(d)`` build their block once and share it between calls.

Coincidences are herald-conditioned: probabilities are computed against the
unnormalized branch amplitudes of a protocol run, so branch loss and
detection efficiency show up as missing counts rather than renormalized
statistics.  Sampling is binomial per setting on independent substreams, so
tables are reproducible and independent of evaluation order.  Substream
(seed, i) is the generator ``np.random.default_rng([seed, i])`` gives, bit
for bit; ``_substreams`` computes the seed hashes of all rows in one array
pass, and ``numpy.random`` loads on the first draw.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .protocol import TransferOutcome

__all__ = [
    "Settings",
    "CountRow",
    "CountsTable",
    "tomography_settings",
    "w_labels",
    "w_settings",
    "coincidence_probabilities",
    "sample_counts",
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


@dataclass(frozen=True)
class CountRow:
    label: str
    heralds: int
    coincidences: int

    def __post_init__(self):
        if self.heralds < 0 or self.coincidences < 0:
            raise ValueError("counts must be non-negative")
        if self.coincidences > self.heralds:
            raise ValueError("coincidences cannot exceed heralds")


@dataclass(frozen=True)
class CountsTable:
    rows: tuple[CountRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))


# single-qubit analyzer kets on the {upper, lower} mode pair
_KETS = {
    "U": (1.0, 0.0),
    "D": (0.0, 1.0),
    "S": (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
    "R": (1.0 / np.sqrt(2.0), -1.0j / np.sqrt(2.0)),
}
_KET_ORDER = "UDSR"


def tomography_settings(dimension: int = 2) -> Settings:
    """The 16-projector two-qubit set, signal letter first in the label.

    {U, D, S, R} per side: populations, balanced superposition, and circular
    analyzers; informationally complete for a two-qubit state.  The block is
    built once and shared between calls.
    """
    if dimension != 2:
        raise ValueError("tomography settings are defined for dimension 2 only")
    return _tomography_settings()


@functools.lru_cache(maxsize=None)
def _tomography_settings() -> Settings:
    pairs = [(s, a) for s in _KET_ORDER for a in _KET_ORDER]
    return Settings(tuple(s + a for s, a in pairs),
                    [_KETS[s] for s, _ in pairs], [_KETS[a] for _, a in pairs])


def w_labels(dimension: int) -> tuple[str, ...]:
    """Row labels of a W-state table, in ``w_settings`` order.

    ``P{i}`` for each branch i, then ``C{i}{j}+`` and ``C{i}{j}-`` for each
    pair i < j in lexicographic order: d^2 labels in all.
    """
    if dimension < 2:
        raise ValueError("need at least two branches")
    pairs = combinations(range(dimension), 2)
    return (tuple(f"P{i}" for i in range(dimension))
            + tuple(f"C{i}{j}{tag}" for i, j in pairs for tag in "+-"))


def w_settings(dimension: int = 4) -> Settings:
    """Population plus pairwise-superposition settings for a W-state check.

    The signal photon is always analyzed in the balanced superposition of its
    branches; the memory side is projected onto each branch (labels ``Pi``)
    and onto (|i> +- |j>)/sqrt(2) for every pair (labels ``Cij+``/``Cij-``),
    in ``w_labels`` order.  The block is built once per dimension and shared
    between calls.
    """
    return _w_settings(dimension)


@functools.lru_cache(maxsize=None)
def _w_settings(d: int) -> Settings:
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
    d = outcome.config.dimension
    if settings.signal.shape[1] != d:
        raise ValueError(f"setting vectors must have length {d}, "
                         f"got {settings.signal.shape[1]}")
    # the state is diagonal in the branch pairing: sum_k v_k |s_k>|a_k>
    amp = np.sum(np.conj(settings.signal) * np.conj(settings.atom)
                 * outcome.branch_amplitudes, axis=1)
    # |amp|^2 through libm's hypot and pow, as Python's abs and ** compute it;
    # numpy's SIMD abs and square differ from them in the last bit now and then
    return np.array([abs(a) ** 2 * eta_det for a in amp.tolist()])


def sample_counts(outcome: TransferOutcome, settings: Settings, heralds_per_setting: int,
                  eta_det: float, dark_rate: float, seed: int) -> CountsTable:
    """Draw one coincidence table; row i draws from substream (seed, i)."""
    if heralds_per_setting < 1:
        raise ValueError("heralds_per_setting must be at least 1")
    if dark_rate < 0:
        raise ValueError("dark_rate must be non-negative")
    probabilities = coincidence_probabilities(outcome, settings, eta_det).tolist()
    rows = []
    for label, probability, rng in zip(settings.labels, probabilities,
                                       _substreams(seed, len(probabilities))):
        p = probability + dark_rate
        if p > 1.0:
            raise ValueError(f"setting {label!r}: probability {p!r} exceeds 1")
        c = int(rng.binomial(heralds_per_setting, p))
        rows.append(CountRow(label, heralds_per_setting, c))
    return CountsTable(tuple(rows))


# SeedSequence's hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_WORDS = 4


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(calls + 1, 1) uint32: the running hash constant before each call and after the last."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    consts = np.array(out, dtype=np.uint32)[:, None]
    consts.setflags(write=False)
    return consts


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on each row of ``values``, row j after j earlier calls."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = _MIX_L * x - _MIX_R * y
    return values ^ (values >> 16)


def _substream_states(seed: int, count: int) -> np.ndarray:
    """(count, 4) uint64: ``SeedSequence([seed, i]).generate_state(4, np.uint64)``.

    SeedSequence's entropy mixing, run once for all i over (words, count)
    uint32 arrays, which wrap modulo 2**32 as the C code does.  The entropy
    is seed's little-endian 32-bit words, then i's one word.  The hash
    constants do not depend on the entropy, and the calls that mix one
    source word into several pool words are independent, so each such group
    runs as one array operation.
    """
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    entropy = np.zeros((max(len(words) + 1, _POOL_WORDS), count), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count, dtype=np.uint32)
    # four hashmix calls per entropy row: the first 4 rows fill the pool and
    # are each hashed into the 3 other pool words; later rows into all 4
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * len(entropy))
    pool = _hashmix(entropy[:_POOL_WORDS], consts[:_POOL_WORDS + 1])
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        # every other pool word, in order, takes a hash of this one
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL_WORDS]))
        k += _POOL_WORDS - 1
    for word in entropy[_POOL_WORDS:]:
        pool = _mix(pool, _hashmix(word, consts[k:k + _POOL_WORDS + 1]))
        k += _POOL_WORDS
    # generate_state(4, uint64): 8 words cycling over the pool, read in pairs
    # as little-endian uint64
    state = _hashmix(np.concatenate([pool, pool]),
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _FixedState:
    """A seed sequence whose one state is given; PCG64 seeds itself from it.

    ``_substreams`` registers it as a numpy ``ISeedSequence`` on first use,
    so importing this module does not load ``numpy.random``.
    """

    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"state is 4 uint64 words, not {n_words} {dtype}")
        return self.state


def _substreams(seed: int, count: int):
    """The generators ``np.random.default_rng([seed, i])`` for i < count, bit for bit.

    The seed hashes run in one pass (``_substream_states``); PCG64 seeds
    itself from each state row.  The generators are built as they are taken.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= count <= 2**32:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_FixedState)
    return (Generator(PCG64(_FixedState(row))) for row in _substream_states(seed, count))
