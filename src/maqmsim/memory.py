"""Phenomenological model of one multiplexed atomic quantum memory (MAQM).

A MAQM is a cold-atom cloud partitioned into an n_x x n_y grid of
micro-ensemble cells, each individually addressable through a pair of
crossed AODs.  This module owns the per-cell bookkeeping:

* efficiency maps for the write (herald), read (retrieval) and EIT
  (storage-retrieval) stages,
* the storage-time survival model
  ``exp(-(t/tau_mem)^2) * cos^2(pi t / t_larmor)`` -- a Gaussian motional
  envelope modulated by Larmor precession with a full revival every period,
* the RF frequency grid that maps a cell index to AOD tone frequencies.

The envelope is a model choice (the underlying experiments quote only a
memory-time scalar).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MemoryId",
    "CellAddress",
    "RfGrid",
    "MemorySpec",
    "survival",
]


MAX_CELLS = 10**6   # cells per memory grid
TIME_GRID_US = 1e-3     # schedule event times are snapped to this grid


class MemoryId(enum.Enum):
    """Identity of one of the two memories in a transfer link."""

    MAQM1 = "MAQM1"
    MAQM2 = "MAQM2"


@dataclass(frozen=True)
class CellAddress:
    """One micro-ensemble cell: (memory, column x, row y), 0-based."""

    memory: MemoryId
    x: int
    y: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"cell indices must be non-negative, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class RfGrid:
    """Per-axis AOD frequency ramp: f(index) = origin + step * index, MHz."""

    x_origin: float
    x_step: float
    y_origin: float
    y_step: float

    def __post_init__(self):
        for name in ("x_origin", "x_step", "y_origin", "y_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be a finite number")
        for name in ("x_step", "y_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")

    def x_freq(self, index: int) -> float:
        return self.x_origin + self.x_step * index

    def y_freq(self, index: int) -> float:
        return self.y_origin + self.y_step * index


def _real(value, name: str) -> float:
    """``value`` as a float; strings and booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_map(values, n_x: int, n_y: int, name: str) -> np.ndarray:
    """Coerce a scalar, a row-major flat list or an array into an (n_y, n_x) map in [0,1]."""
    if np.isscalar(values):
        arr = np.full((n_y, n_x), _real(values, name))
    else:
        if not isinstance(values, np.ndarray):
            values = [_real(v, f"{name}[{i}]") for i, v in enumerate(values)]
        arr = np.asarray(values, dtype=float)
        if arr.size != n_x * n_y:
            raise ValueError(f"{name}: expected {n_x * n_y} entries, got {arr.size}")
        arr = arr.reshape(n_y, n_x)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError(f"{name}: efficiencies must lie in [0, 1]")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)   # the maps are arrays: == and hash by identity
class MemorySpec:
    """Static description of one memory: grid, efficiencies, decay, RF map.

    Efficiency maps are stored as read-only (n_y, n_x) arrays indexed [y, x];
    flat inputs are row-major (index = y * n_x + x).  ``eta_eit`` is only
    meaningful for the receiving memory and may be None.
    """

    memory: MemoryId
    n_x: int
    n_y: int
    eta_write: np.ndarray
    eta_read: np.ndarray
    tau_mem: float
    t_larmor: float
    rf_grid: RfGrid
    eta_eit: np.ndarray | None = None

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("grid sizes must be >= 1")
        if self.n_x * self.n_y > MAX_CELLS:
            # checked before any map is built: a scalar efficiency fills n_x * n_y floats
            raise ValueError(f"grid of {self.n_x} x {self.n_y} cells exceeds "
                             f"MAX_CELLS = {MAX_CELLS}")
        if not 0 < self.tau_mem < math.inf:
            raise ValueError("tau_mem: must be a finite positive number")
        # a shorter period is not resolved by the schedule, and pi t / t_larmor
        # would overflow the survival and Larmor grid checks
        if not math.isfinite(self.t_larmor):
            raise ValueError("t_larmor: must be a finite number")
        if self.t_larmor < TIME_GRID_US:
            raise ValueError(f"t_larmor: must be at least {TIME_GRID_US:g}, the timing grid")
        # steps are positive, so the last cell has each axis's largest tone
        grid = self.rf_grid
        for axis, tone in (("x", grid.x_freq(self.n_x - 1)), ("y", grid.y_freq(self.n_y - 1))):
            if not math.isfinite(tone):
                raise ValueError(f"rf_grid: {axis}_origin + {axis}_step * (n_{axis} - 1), "
                                 f"the last cell's {axis} tone, must be a finite number")
        object.__setattr__(self, "eta_write", _as_map(self.eta_write, self.n_x, self.n_y, "eta_write"))
        object.__setattr__(self, "eta_read", _as_map(self.eta_read, self.n_x, self.n_y, "eta_read"))
        if self.eta_eit is not None:
            object.__setattr__(self, "eta_eit", _as_map(self.eta_eit, self.n_x, self.n_y, "eta_eit"))

    def require_cell(self, cell: CellAddress) -> None:
        if cell.memory is not self.memory:
            raise ValueError(f"cell belongs to {cell.memory.value}, spec is {self.memory.value}")
        if not (0 <= cell.x < self.n_x and 0 <= cell.y < self.n_y):
            raise ValueError(
                f"cell ({cell.x}, {cell.y}) outside {self.n_x}x{self.n_y} grid of {self.memory.value}"
            )


def survival(spec: MemorySpec, t: float) -> float:
    """Survival probability of a spin wave stored for ``t`` microseconds.

    Gaussian envelope times Larmor modulation:
    ``exp(-(t/tau_mem)^2) * cos^2(pi t / t_larmor)``.  At integer multiples
    of the Larmor period the modulation revives fully and only the envelope
    remains.

    Parameters
    ----------
    spec : MemorySpec
    t : float
        Storage duration in microseconds, must be >= 0.
    """
    if t < 0:
        raise ValueError(f"storage time must be non-negative, got {t}")
    ratio = t / spec.tau_mem
    if ratio > 30.0:
        # exp(-ratio**2) is 0.0 from ratio ~27.3 on; past ~1e154 the square overflows
        return 0.0
    envelope = np.exp(-(ratio ** 2))
    modulation = np.cos(np.pi * t / spec.t_larmor) ** 2
    return float(envelope * modulation)
