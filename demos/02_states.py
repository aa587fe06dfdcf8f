#!/usr/bin/env python3
"""The states the pipeline compares: the Bell target on the logical basis,
the branch amplitudes a lossless four-bin run leaves in the memory, and
the fidelities between them.

States are plain arrays: a pure state is a complex unit vector, a mixed one
a ``DensityMatrix``.  The logical basis is signal branch x time-bin branch,
with |s>|b> at index 2 s + b.
"""

import numpy as np

from maqmsim import (
    CellAddress,
    DensityMatrix,
    MemoryId,
    MemorySpec,
    ProtocolConfig,
    RfGrid,
    bell_target,
    fidelity,
    run_protocol,
    state_fidelity,
)


def pure(vector):
    return DensityMatrix(np.outer(vector, vector.conj()))


def lossless_qudit_config():
    # unit efficiencies, a memory time far beyond the run, and bin times on
    # both Larmor grids, so every branch arrives with its full amplitude
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, 1.0, 1e12, 3.9,
                       RfGrid(97.0, 1.5, 95.5, 1.5))
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0, 1e12, 1.3,
                       RfGrid(101.1, 1.2, 99.0, 1.2), eta_eit=1.0)
    coords = [(2, 2), (2, 3), (3, 2), (3, 3)]
    return ProtocolConfig(
        dimension=4, spec1=spec1, spec2=spec2,
        source_cells=tuple(CellAddress(MemoryId.MAQM1, x, y) for x, y in coords),
        target_cells=tuple(CellAddress(MemoryId.MAQM2, x, y) for x, y in coords),
        t1=11.7, tau=3.9, t2=7.8)


def main():
    print("Two-branch target: (|00> + e^{i phi} |11>) / sqrt(2)")
    bell = bell_target(0.0)
    for index, amp in enumerate(bell):
        s, b = divmod(index, 2)
        print(f"  signal[{s}] x timebin[{b}]  {amp.real:+.6f}{amp.imag:+.6f}j")

    # a pure state is self-consistent: overlap with itself is 1
    rho = pure(bell)
    print(f"  <bell|rho|bell> = {fidelity(rho, bell):.12f}")

    shifted = bell_target(np.pi / 3)
    print(f"  overlap with phase-shifted copy: {fidelity(rho, shifted):.6f}"
          f"  (expected cos^2(pi/6) = {np.cos(np.pi / 6) ** 2:.6f})")

    print()
    print("Four-branch lossless transfer, one branch per time bin")
    branches = run_protocol(lossless_qudit_config()).branch_amplitudes
    print(f"  {branches.size} branch amplitudes, all"
          f" {max(abs(branches)):.6f} = 1/2")

    print()
    print("W state over 4 bins")
    # projecting the signal photon leaves sum_k v_k |k> in the memory
    w4 = np.full(4, 0.5, dtype=complex)
    rho_w = pure(branches / np.linalg.norm(branches))
    print(f"  F_W of the stored state: {fidelity(rho_w, w4):.12f}")
    print(f"  Uhlmann fidelity with itself: {state_fidelity(rho_w, rho_w):.12f}")

    # mixing with the maximally mixed state dilutes fidelity linearly
    d = w4.size
    for p in (1.0, 0.9, 0.5):
        mixed = DensityMatrix(p * rho_w.entries + (1 - p) * np.eye(d) / d)
        expected = p + (1 - p) / d
        print(f"  p={p:.1f} mixture: F_W = {fidelity(mixed, w4):.6f}"
              f"  (expected {expected:.6f})")


if __name__ == "__main__":
    main()
