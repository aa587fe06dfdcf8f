"""Heralded pair generation and sequential time-bin transfer between memories.

The model follows the experiment's three stages.  A write pulse on the source
memory produces, conditioned on a herald click, an entangled state between the
signal photon's spatial mode and a spin wave,

    (1/sqrt(d)) sum_k e^{i theta_k} |s_k> |a_k>.

Read pulses then convert the spin-wave branches to photons one bin at a time;
bin i fires at t1 + i*tau and carries branch sigma(i), where sigma is the
retrieval order.  Each bin accumulates the read-laser phase alpha_i, and
storage in the target memory adds the coupling-laser phase -beta_i.  Read
and coupling light come from one common laser, so the two cancel bin by bin
and only the per-bin drift phase survives; the model carries that drift
alone.  Amplitudes pick up sqrt(efficiency * survival) factors at every
retrieval and storage step; the unnormalized branch amplitudes therefore
carry the full per-branch transmission budget, and their squared norm is the
probability that the delivered excitation is still alive at verification
time, conditioned on the herald.

Every state on this path is diagonal in the branch pairing, so the d branch
amplitudes v_k of sum_k v_k |s_k>|a_k> are the whole state.

Nothing here is stochastic; it is exact bookkeeping, so tests can pin numbers
to closed forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .memory import TIME_GRID_US, CellAddress, MemorySpec, survival

__all__ = [
    "ProtocolConfig",
    "TransferOutcome",
    "PostSelectionError",
    "bin_time",
    "storage_dwell",
    "run_protocol",
    "project_w",
]


MAX_TIME_US = 1e6         # protocol times: one second, far beyond any memory time
MIN_TAU_US = 2 * TIME_GRID_US   # snapped bins two grid steps apart stay distinct


class PostSelectionError(RuntimeError):
    """Raised when a projection conditions on an event of probability zero."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to run one heralded transfer.

    ``source_cells`` and ``target_cells`` pair up branch by branch: branch k
    starts in source_cells[k] and, if transferred, ends in target_cells[k].
    ``retrieval_order`` maps bin index to branch index; None gives the
    identity.  ``drifts[i]`` is the net laser phase bin i picks up on the
    transfer leg; None gives zeros, as it does for ``write_phases``.  A
    tuple, even an empty one, must have one entry per branch.  Times are
    microseconds.
    """

    dimension: int
    spec1: MemorySpec
    spec2: MemorySpec
    source_cells: tuple[CellAddress, ...]
    target_cells: tuple[CellAddress, ...]
    t1: float
    tau: float
    t2: float
    write_phases: tuple[float, ...] | None = None
    drifts: tuple[float, ...] | None = None
    retrieval_order: tuple[int, ...] | None = None

    def __post_init__(self):
        d = self.dimension
        if d < 2:
            raise ValueError("dimension: must be at least 2")
        for name, spec in (("source_cells", self.spec1), ("target_cells", self.spec2)):
            cells = tuple(getattr(self, name))
            object.__setattr__(self, name, cells)
            if len(cells) != d:
                raise ValueError(f"{name}: need exactly one cell per branch")
            if len(set(cells)) != d:
                raise ValueError(f"{name}: cells must be distinct within the memory")
            for c in cells:
                spec.require_cell(c)
        # written so that NaN fails each comparison
        floors = (("t1", self.t1 > 0, "must be positive"),
                  ("tau", self.tau >= MIN_TAU_US, f"must be at least {MIN_TAU_US:g}, two "
                                                  f"steps of the {TIME_GRID_US:g} us timing grid"),
                  ("t2", self.t2 >= 0, "must be non-negative"))
        for name, above_floor, rule in floors:
            if not above_floor:
                raise ValueError(f"{name}: {rule}")
            if not getattr(self, name) <= MAX_TIME_US:
                raise ValueError(f"{name}: must be at most {MAX_TIME_US:g}")
        for name, each in (("write_phases", "one write phase per branch"),
                           ("drifts", "one drift phase per bin")):
            phases = (0.0,) * d if getattr(self, name) is None else tuple(getattr(self, name))
            if len(phases) != d:
                raise ValueError(f"{name}: need {each}")
            bad = next((i for i, phase in enumerate(phases) if not math.isfinite(phase)), None)
            if bad is not None:
                raise ValueError(f"{name}[{bad}]: must be a finite number")
            object.__setattr__(self, name, phases)
        order = tuple(range(d)) if self.retrieval_order is None else tuple(self.retrieval_order)
        if sorted(order) != list(range(d)):
            raise ValueError("retrieval_order: must be a permutation of the bins")
        object.__setattr__(self, "retrieval_order", order)


def bin_time(config: ProtocolConfig, i: int) -> float:
    """Read time of bin i, measured from the heralded write."""
    return config.t1 + i * config.tau

def storage_dwell(config: ProtocolConfig, i: int) -> float:
    # bin i sits in the target memory from arrival until all bins are in
    # and the verification delay t2 has elapsed
    return (config.dimension - 1 - i) * config.tau + config.t2


@dataclass(frozen=True, eq=False)   # the amplitudes are an array: == and hash by identity
class TransferOutcome:
    """Result of one exact protocol run.

    ``branch_amplitudes[k]`` is the amplitude of the pair (signal mode k,
    output mode k) and is not normalized: its squared norm is the
    herald-conditioned probability that the branch excitation survives to
    verification.  There are d of them, one per branch, in a read-only array.
    """

    branch_amplitudes: np.ndarray
    herald_probability: float
    predicted_fidelity: float

    @property
    def survival_probability(self) -> float:
        return float(np.sum(np.abs(self.branch_amplitudes) ** 2))


def run_protocol(config: ProtocolConfig, transfer: bool = True) -> TransferOutcome:
    """Run the exact bookkeeping for one heralded write plus readout chain.

    With ``transfer`` false the run stops at the source memory: branches are
    read out on the same bin schedule and verified directly, with no storage
    leg and no coupling phase.  With it true every bin is stored in the
    paired target cell and the verification happens t2 after the last bin.
    The predicted fidelity is the overlap of the normalized branch amplitudes
    with the ideal pair (1/sqrt(d)) sum_k e^{i theta_k} |s_k>|a_k>.
    """
    d = config.dimension
    spec1, spec2 = config.spec1, config.spec2
    if transfer and spec2.eta_eit is None:
        raise ValueError(f"{spec2.memory.value} has no eit efficiency map configured")

    branch = np.zeros(d, dtype=complex)
    for i, k in enumerate(config.retrieval_order):
        c = config.source_cells[k]
        w = spec1.eta_read[c.y, c.x] * survival(spec1, bin_time(config, i))
        phase = config.write_phases[k]
        if transfer:
            c = config.target_cells[k]
            w *= spec2.eta_eit[c.y, c.x]
            w *= survival(spec2, storage_dwell(config, i))
            phase += config.drifts[i]
        branch[k] = np.sqrt(w) * np.exp(1j * phase) / np.sqrt(d)
    branch.setflags(write=False)

    scaled, norm_sq = _scale_free(branch)
    if norm_sq > 0:
        ideal = np.exp(1j * np.asarray(config.write_phases)) / np.sqrt(d)
        predicted = float(abs(np.vdot(ideal, scaled)) ** 2 / norm_sq)
    else:
        predicted = 0.0

    herald_p = float(np.mean([spec1.eta_write[c.y, c.x] for c in config.source_cells]))

    return TransferOutcome(
        branch_amplitudes=branch,
        herald_probability=herald_p,
        predicted_fidelity=predicted,
    )


def _scale_free(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` and its squared norm, ``v`` taken over its largest magnitude
    where that norm is not a normal float: the ratios taken of ``v`` do not
    depend on its scale, and squares that small have lost their digits or
    underflowed to zero."""
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if norm_sq < sys.float_info.min and v.any():
        v = v / np.abs(v).max()
        norm_sq = float(np.sum(np.abs(v) ** 2))
    return v, norm_sq


def project_w(outcome: TransferOutcome) -> float:
    """W fidelity of the memory after projecting the signal photon.

    Detecting the heralded signal photon in the balanced superposition of its
    d spatial modes leaves the memory in sum_k v_k |k> up to normalization.
    The returned fidelity is the overlap with the uniform target, so branch
    loss shows up directly: one dead branch out of four gives 3/4.
    """
    d = outcome.branch_amplitudes.size
    v, _ = _scale_free(outcome.branch_amplitudes)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise PostSelectionError("every branch amplitude is zero; nothing to project on")
    return float(abs(np.sum(v / norm)) ** 2 / d)
