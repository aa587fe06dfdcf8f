"""Density matrices and state fidelities as plain complex arrays.

A density matrix is a square array checked to be Hermitian, unit-trace and
positive semidefinite; a pure target is a complex unit vector of the same
dimension.  The basis the entries refer to is fixed by the caller (``tomo``
reconstructs on signal branch x time-bin branch), so two matrices compare
entry for entry once their dimensions agree.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DensityMatrix", "fidelity", "state_fidelity"]

NORM_ATOL = 1e-12       # pure-target normalization
HERM_ATOL = 1e-10       # Hermiticity / trace of density matrices
PSD_ATOL = 1e-10        # most negative eigenvalue a density matrix may have


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace square matrix."""

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {mat.shape}")
        if not np.allclose(mat, mat.conj().T, atol=HERM_ATOL, rtol=0):
            raise ValueError("density matrix must be Hermitian")
        trace = float(np.real(np.trace(mat)))
        if abs(trace - 1.0) > HERM_ATOL:
            raise ValueError(f"density matrix trace must be 1, got {trace!r}")
        eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        if eigs.min() < -PSD_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()!r}")
        self.entries: np.ndarray = mat.copy()
        self.entries.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dimension})"


def _unit_target(target, d: int) -> np.ndarray:
    """``target`` as a complex vector; one that is not a unit vector of length d raises."""
    t = np.asarray(target, dtype=complex)
    if t.shape != (d,):
        raise ValueError(f"target must be a vector of length {d}, got shape {t.shape}")
    norm_sq = float(np.sum(np.abs(t) ** 2))
    if abs(norm_sq - 1.0) > NORM_ATOL * max(1.0, norm_sq):
        raise ValueError(f"target not normalized: sum |a|^2 = {norm_sq!r}")
    return t


def fidelity(rho: DensityMatrix, target) -> float:
    """Overlap <target| rho |target> with a pure target given as a unit vector."""
    t = _unit_target(target, rho.dimension)
    value = np.vdot(t, rho.entries @ t)
    if abs(value.imag) > HERM_ATOL:
        raise ValueError("fidelity came out complex; density matrix invalid?")
    return float(np.clip(value.real, 0.0, 1.0))


def _stack_fidelities(mats: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``fidelity(DensityMatrix(m), target)`` for each m of a (k, d, d) stack.

    Matrices that ``DensityMatrix`` or ``fidelity`` would reject are left
    out; the rest keep their order and the bits of the one-matrix calls.
    The target is not checked: check it with ``_unit_target`` first.
    """
    hermitian = (np.abs(mats - mats.conj().transpose(0, 2, 1)) <= HERM_ATOL).all(axis=(1, 2))
    unit_trace = ~(np.abs(np.trace(mats, axis1=1, axis2=2).real - 1.0) > HERM_ATOL)
    mats = mats[hermitian & unit_trace]
    eigs = np.linalg.eigvalsh((mats + mats.conj().transpose(0, 2, 1)) / 2.0)
    mats = mats[eigs.min(axis=1) >= -PSD_ATOL]
    t = np.asarray(target, dtype=complex)
    values = np.matmul(t.conj(), (mats @ t)[..., None])[..., 0]
    return np.clip(values.real[~(np.abs(values.imag) > HERM_ATOL)], 0.0, 1.0)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(mat)
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def state_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2.

    Symmetric in its arguments to within 1e-8; equals ``fidelity`` when one
    argument is pure.
    """
    if rho1.dimension != rho2.dimension:
        raise ValueError(f"dimensions differ: {rho1.dimension} vs {rho2.dimension}")
    s1 = _psd_sqrt(rho1.entries)
    inner = s1 @ rho2.entries @ s1
    eigs = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0), 0.0, None)
    value = float(np.sum(np.sqrt(eigs)) ** 2)
    return float(np.clip(value, 0.0, 1.0))
