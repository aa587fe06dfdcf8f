"""A slow, independent reference for what a run's predictions should be, and
for how far a fit can lie from the maximum-likelihood state.

It builds the whole signal x memory state as a d^2 vector out of Kronecker
products of basis kets, and every measurement as an explicit projector on
that space.  It takes nothing from the package's branch-diagonal arithmetic
(``protocol.run_protocol``, ``protocol.project_w``,
``detect.coincidence_probabilities``): the per-branch transmission is
recomputed here from the memory model's formulas, and the package supplies
only the config it reads and the settings it measures.  The likelihood-gap
bound takes a fit's state and its table's projectors as plain arrays.
"""

import cmath
import math

import numpy as np


def survival(tau_mem: float, t_larmor: float, t: float) -> float:
    """exp(-(t / tau_mem)^2) cos^2(pi t / t_larmor): a spin wave stored for t."""
    ratio = t / tau_mem
    return math.exp(-(ratio * ratio)) * math.cos(math.pi * t / t_larmor) ** 2


def state_vector(config, transfer: bool) -> np.ndarray:
    """The herald-conditioned, unnormalized state sum_k v_k |s_k> (x) |a_k>.

    Bin i reads branch k = ``retrieval_order[i]`` at t1 + i tau.  With the
    transfer, the branch is stored in its target cell until the last bin is
    in and t2 has passed, and picks up the bin's drift phase.
    """
    d = config.dimension
    kets = np.eye(d)
    psi = np.zeros(d * d, dtype=complex)
    for i, k in enumerate(config.retrieval_order):
        source = config.source_cells[k]
        weight = config.spec1.eta_read[source.y, source.x] * survival(
            config.spec1.tau_mem, config.spec1.t_larmor, config.t1 + i * config.tau)
        phase = config.write_phases[k]
        if transfer:
            target = config.target_cells[k]
            weight *= config.spec2.eta_eit[target.y, target.x] * survival(
                config.spec2.tau_mem, config.spec2.t_larmor, (d - 1 - i) * config.tau + config.t2)
            phase += config.drifts[i]
        psi += math.sqrt(weight) * cmath.exp(1j * phase) / math.sqrt(d) * np.kron(kets[k], kets[k])
    return psi


def predicted_fidelity(config, psi: np.ndarray) -> float:
    """<ideal| rho |ideal> for rho = |psi><psi| normalized; 0 when psi is zero."""
    d = config.dimension
    kets = np.eye(d)
    ideal = sum(cmath.exp(1j * theta) / math.sqrt(d) * np.kron(kets[k], kets[k])
                for k, theta in enumerate(config.write_phases))
    scale = np.abs(psi).max()
    if scale == 0.0:
        return 0.0
    # scaled to a largest entry of 1, real and imaginary parts apart: a starved
    # state's norm can be subnormal, and numpy's complex division by it overflows
    psi = psi.real / scale + 1j * (psi.imag / scale)
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    return np.vdot(ideal, rho @ ideal).real


def w_fidelity(d: int, psi: np.ndarray) -> float:
    """The memory's overlap with the uniform W state after the signal photon is
    found in the balanced superposition of its modes."""
    plus = np.ones(d) / math.sqrt(d)
    memory = np.kron(plus.conj()[None, :], np.eye(d)) @ psi   # (<+| (x) 1) |psi>
    # scaled as in predicted_fidelity: a subnormal squared norm has lost its digits
    scale = np.abs(memory).max()
    memory = memory.real / scale + 1j * (memory.imag / scale)
    w = np.ones(d) / math.sqrt(d)
    return abs(np.vdot(w, memory)) ** 2 / np.vdot(memory, memory).real


def coincidence_probabilities(psi: np.ndarray, settings, eta_det: float) -> np.ndarray:
    """eta_det <psi| P_i |psi> for each setting's projector
    P_i = |signal_i><signal_i| (x) |atom_i><atom_i|."""
    out = []
    for s, a in zip(settings.signal, settings.atom):
        projector = np.kron(np.outer(s, s.conj()), np.outer(a, a.conj()))
        out.append(eta_det * np.vdot(psi, projector @ psi).real)
    return np.array(out)


def likelihood_gap_bound(projectors: np.ndarray, counts: np.ndarray, exposures: np.ndarray,
                         rho: np.ndarray) -> float:
    """An upper bound on how far ``rho``'s log-likelihood lies below the maximum.

    With the scale fixed by tr(S rho) = 1, S = sum_s e_s P_s, the
    log-likelihood sum_s c_s ln q_s is concave in rho, so the gap to the
    optimum is at most Q lambda_max(S^{-1/2} R S^{-1/2}) - C, where
    q_s = tr(P_s rho), Q = tr(S rho), R = sum_s (c_s / q_s) P_s and C =
    sum_s c_s: the gradient stopping rule of Glancy, Knill and Girard,
    New J. Phys. 14, 095017 (2012).  A setting without counts adds nothing to R.
    """
    q = np.einsum("sij,ji->s", projectors, rho).real
    ratios = np.divide(counts, q, out=np.zeros(len(q)), where=counts > 0)
    s_op = np.tensordot(exposures, projectors, axes=1)
    r_op = np.tensordot(ratios, projectors, axes=1)
    values, vectors = np.linalg.eigh(s_op)
    s_inv_half = (vectors / np.sqrt(values)) @ vectors.conj().T
    big_q = np.trace(s_op @ rho).real
    return float(big_q * np.linalg.eigvalsh(s_inv_half @ r_op @ s_inv_half)[-1] - counts.sum())
