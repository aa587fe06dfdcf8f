#!/usr/bin/env python3
"""Run the heralded transfer end to end and look at what costs fidelity.

Covers the source-only stage versus the full transfer, branch efficiency
imbalance, coupling-laser drift, readout ordering, and the W projection for
the four-bin run.
"""

import numpy as np

from maqmsim import (
    CellAddress,
    MemoryId,
    MemorySpec,
    ProtocolConfig,
    RfGrid,
    project_w,
    run_protocol,
)

GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)


def specs(eta_read=1.0, tau_mem=1e12):
    # tau_mem huge by default so decoherence stays out of the picture until
    # we ask for it; t1, tau, t2 below are all multiples of both Larmor
    # periods, which the schedule validator requires anyway
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, eta_read,
                       tau_mem, 7.8, GRID1)
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0,
                       tau_mem, 1.3, GRID2, eta_eit=1.0)
    return spec1, spec2


def qubit_config(spec1, spec2, **kw):
    return ProtocolConfig(
        dimension=2,
        spec1=spec1, spec2=spec2,
        source_cells=(CellAddress(MemoryId.MAQM1, 1, 1),
                      CellAddress(MemoryId.MAQM1, 1, 2)),
        target_cells=(CellAddress(MemoryId.MAQM2, 1, 1),
                      CellAddress(MemoryId.MAQM2, 1, 2)),
        t1=15.6, tau=7.8, t2=7.8, **kw)


def main():
    spec1, spec2 = specs()
    config = qubit_config(spec1, spec2)

    print("Ideal efficiencies, no decoherence")
    for transfer, label in [(False, "source-only stage"),
                            (True, "full transfer stage")]:
        out = run_protocol(config, transfer=transfer)
        print(f"  {label:<20} herald={out.herald_probability:.4f}"
              f"  survival={out.survival_probability:.4f}"
              f"  predicted fidelity={out.predicted_fidelity:.6f}")

    print()
    print("Unbalanced retrieval: branch 1 keeps eta_read=1, branch 0 varies")
    print("(balanced loss only costs survival; an imbalance also skews the")
    print("post-selected amplitudes away from the target and costs fidelity)")
    for ratio in (1.0, 0.5, 0.25, 0.05):
        eta = np.full((6, 5), 1.0)
        eta[1, 1] = ratio  # row-major maps: [y, x], branch 0 sits at (1, 1)
        s1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, eta, 1e12, 7.8, GRID1)
        out = run_protocol(qubit_config(s1, spec2), transfer=True)
        print(f"  eta ratio {ratio:5.2f}: predicted fidelity"
              f" {out.predicted_fidelity:.6f}")

    print()
    print("Coupling-laser drift on the second bin (transfer leg only; the")
    print("source-only stage shares one laser, so its net phase cancels)")
    for phi in (0.0, np.pi / 4, np.pi / 2, np.pi):
        out1 = run_protocol(qubit_config(spec1, spec2, drifts=(0.0, phi)),
                            transfer=False)
        out2 = run_protocol(qubit_config(spec1, spec2, drifts=(0.0, phi)),
                            transfer=True)
        print(f"  drift {phi:5.3f} rad: source stage {out1.predicted_fidelity:.4f},"
              f" transfer stage {out2.predicted_fidelity:.4f}"
              f"  (cos^2(phi/2) = {np.cos(phi / 2) ** 2:.4f})")

    print()
    print("Four-bin run with finite memory, verified against the W state")
    s1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, 0.2, 65.0, 3.9, GRID1)
    s2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0, 27.8, 1.3, GRID2,
                    eta_eit=0.2)
    qudit = ProtocolConfig(
        dimension=4,
        spec1=s1, spec2=s2,
        source_cells=tuple(CellAddress(MemoryId.MAQM1, 2 + x, 2 + y)
                           for y in range(2) for x in range(2)),
        target_cells=tuple(CellAddress(MemoryId.MAQM2, 2 + x, 2 + y)
                           for y in range(2) for x in range(2)),
        t1=11.7, tau=3.9, t2=7.8)
    out = run_protocol(qudit, transfer=True)
    f_w = project_w(out)
    print(f"  herald probability  {out.herald_probability:.5f}")
    print(f"  survival            {out.survival_probability:.6f}")
    print(f"  W fidelity          {f_w:.6f}")
    print("  early bins wait longer in the source memory, late bins wait")
    print("  longer in the target; the imbalance is what pulls F_W below 1")


if __name__ == "__main__":
    main()
