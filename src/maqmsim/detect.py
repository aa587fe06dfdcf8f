"""Stochastic measurement layer: projective settings and coincidence counts.

Coincidences are herald-conditioned: probabilities are computed against the
unnormalized branch amplitudes of a protocol run, so branch loss and
detection efficiency show up as missing counts rather than renormalized
statistics.  Sampling is binomial per setting on independent substreams, so
tables are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .protocol import TransferOutcome

__all__ = [
    "MeasurementSetting",
    "CountRow",
    "CountsTable",
    "tomography_settings",
    "w_labels",
    "w_settings",
    "coincidence_probabilities",
    "sample_counts",
]

BASIS_NORM_ATOL = 1e-9


@dataclass(frozen=True)
class MeasurementSetting:
    """Product projection: signal analyzer basis x atom analyzer basis."""

    label: str
    signal_basis: tuple
    atom_basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "signal_basis", tuple(complex(c) for c in self.signal_basis))
        object.__setattr__(self, "atom_basis", tuple(complex(c) for c in self.atom_basis))
        for name, vec in (("signal_basis", self.signal_basis), ("atom_basis", self.atom_basis)):
            norm = np.linalg.norm(vec)
            if abs(norm - 1.0) > BASIS_NORM_ATOL:
                raise ValueError(f"{name} must be unit-norm, got |v| = {norm!r}")

    def signal_vector(self) -> np.ndarray:
        return np.asarray(self.signal_basis, dtype=complex)

    def atom_vector(self) -> np.ndarray:
        return np.asarray(self.atom_basis, dtype=complex)


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


def tomography_settings(dimension: int = 2) -> tuple[MeasurementSetting, ...]:
    """The 16-projector two-qubit set, signal letter first in the label.

    {U, D, S, R} per side: populations, balanced superposition, and circular
    analyzers; informationally complete for a two-qubit state.  The tuple is
    built once and shared between calls.
    """
    if dimension != 2:
        raise ValueError("tomography settings are defined for dimension 2 only")
    return _tomography_settings()


@functools.lru_cache(maxsize=None)
def _tomography_settings() -> tuple[MeasurementSetting, ...]:
    return _share(tuple(
        MeasurementSetting(s + a, _KETS[s], _KETS[a])
        for s in _KET_ORDER for a in _KET_ORDER
    ))


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


def w_settings(dimension: int = 4) -> tuple[MeasurementSetting, ...]:
    """Population plus pairwise-superposition settings for a W-state check.

    The signal photon is always analyzed in the balanced superposition of its
    branches; the memory side is projected onto each branch (labels ``Pi``)
    and onto (|i> +- |j>)/sqrt(2) for every pair (labels ``Cij+``/``Cij-``),
    in ``w_labels`` order.  The tuple is built once per dimension and shared
    between calls.
    """
    return _w_settings(dimension)


@functools.lru_cache(maxsize=None)
def _w_settings(d: int) -> tuple[MeasurementSetting, ...]:
    labels = w_labels(d)
    uniform = tuple(np.full(d, 1.0 / np.sqrt(d), dtype=complex))
    h = 1.0 / np.sqrt(2.0)
    atoms = np.zeros((d * d, d), dtype=complex)
    atoms[range(d), range(d)] = 1.0
    for row, (i, j) in zip(range(d, d * d, 2), combinations(range(d), 2)):
        atoms[row:row + 2, i] = h
        atoms[row:row + 2, j] = (h, -h)
    return _share(tuple(MeasurementSetting(label, uniform, tuple(atom))
                        for label, atom in zip(labels, atoms)))


# stacked vectors of the shared setting tuples, keyed by id; an entry keeps
# its tuple alive, so no other object can take over the id
_SHARED_VECTORS: dict[int, tuple] = {}


def _share(settings: tuple) -> tuple:
    _SHARED_VECTORS[id(settings)] = (settings, *_stack(settings, len(settings[0].atom_basis)))
    return settings


def _stack(settings, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) signal and atom vectors of ``settings``."""
    if any(len(s.signal_basis) != d or len(s.atom_basis) != d for s in settings):
        raise ValueError(f"setting vectors must have length {d}")
    shape = (len(settings), d)
    return (np.array([s.signal_basis for s in settings], dtype=complex).reshape(shape),
            np.array([s.atom_basis for s in settings], dtype=complex).reshape(shape))


def coincidence_probabilities(outcome: TransferOutcome, settings,
                              eta_det: float) -> np.ndarray:
    """Herald-conditioned signal/atom coincidence probability of each setting."""
    if not 0.0 < eta_det <= 1.0:
        raise ValueError("eta_det must be in (0, 1]")
    d = outcome.config.dimension
    shared = _SHARED_VECTORS.get(id(settings))
    if shared and shared[0] is settings and shared[1].shape[1] == d:
        signal, atom = shared[1:]
    else:
        signal, atom = _stack(settings, d)
    # the state is diagonal in the branch pairing: sum_k v_k |s_k>|a_k>
    amp = np.sum(np.conj(signal) * np.conj(atom) * outcome.branch_amplitudes, axis=1)
    # |amp|^2 through libm's hypot and pow, as Python's abs and ** compute it;
    # numpy's SIMD abs and square differ from them in the last bit now and then
    return np.array([abs(a) ** 2 * eta_det for a in amp.tolist()])


def sample_counts(outcome: TransferOutcome, settings, heralds_per_setting: int,
                  eta_det: float, dark_rate: float, seed: int) -> CountsTable:
    """Draw one coincidence table; row i uses substream (seed, i)."""
    if heralds_per_setting < 1:
        raise ValueError("heralds_per_setting must be at least 1")
    if dark_rate < 0:
        raise ValueError("dark_rate must be non-negative")
    probabilities = coincidence_probabilities(outcome, settings, eta_det).tolist()
    rows = []
    for i, (setting, probability) in enumerate(zip(settings, probabilities)):
        p = probability + dark_rate
        if p > 1.0:
            raise ValueError(f"setting {setting.label!r}: probability {p!r} exceeds 1")
        rng = np.random.default_rng([seed, i])
        c = int(rng.binomial(heralds_per_setting, p))
        rows.append(CountRow(setting.label, heralds_per_setting, c))
    return CountsTable(tuple(rows))
