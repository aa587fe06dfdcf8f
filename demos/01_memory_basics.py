#!/usr/bin/env python3
"""Walk through the static memory model: survival, per-cell efficiency,
the storage-retrieval budget of the receiving memory and the RF grid.

Run from the repo root after installing the package:

    python3 demos/01_memory_basics.py
"""

import numpy as np

from maqmsim import (
    CellAddress,
    MemoryId,
    MemorySpec,
    RfGrid,
    survival,
)

GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)


def main():
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6,
                       eta_write=0.01, eta_read=0.2,
                       tau_mem=65.0, t_larmor=7.8, rf_grid=GRID1)
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6,
                       eta_write=0.0, eta_read=0.0,
                       tau_mem=27.8, t_larmor=1.3, rf_grid=GRID2,
                       eta_eit=0.2)

    print("Survival vs storage time (tau_mem=65, t_larmor=7.8)")
    print(f"{'t (us)':>8}  {'survival':>10}  note")
    for t, note in [(0.0, "reference"),
                    (7.8, "first Larmor revival"),
                    (15.6, "second revival"),
                    (11.7, "between revivals: cos^2 kills it"),
                    (78.0, "tenth revival, Gaussian envelope dominates")]:
        print(f"{t:8.1f}  {survival(spec1, t):10.6f}  {note}")

    # revivals are not full: the Gaussian envelope decays monotonically
    envelope = [survival(spec1, k * 7.8) for k in range(6)]
    assert all(a > b for a, b in zip(envelope, envelope[1:]))
    print("revival peaks decay monotonically:",
          " > ".join(f"{v:.4f}" for v in envelope))

    print()
    print("Per-cell retrieval, cell (1, 2) of the source memory")
    cell = CellAddress(MemoryId.MAQM1, 1, 2)
    eta = spec1.eta_read[cell.y, cell.x]   # maps are (n_y, n_x), indexed [y, x]
    surv = survival(spec1, 15.6)
    print(f"  eta_read            = {eta:.4f}")
    print(f"  survival(15.6)      = {surv:.6f}")
    print(f"  retrieval combined  = {eta * surv:.6f}  (product of the two)")

    print()
    print("Storage and retrieval in the receiving memory, cell (2, 3)")
    cell2 = CellAddress(MemoryId.MAQM2, 2, 3)
    for t_store in (0.0, 7.8, 13.0, 26.0):
        eit = spec2.eta_eit[cell2.y, cell2.x]
        print(f"  stored {t_store:5.1f} us: eta_eit x survival ="
              f" {eit * survival(spec2, t_store):.6f}")

    print()
    print("The same source memory with a per-cell read map (maps row-major)")
    spec = MemorySpec(MemoryId.MAQM1, 5, 6,
                      eta_write=0.01, eta_read=[0.2] * 29 + [0.1],
                      tau_mem=65.0, t_larmor=7.8, rf_grid=GRID1)
    last = CellAddress(MemoryId.MAQM1, 4, 5)
    print(f"  cell (4, 5): eta_read = {spec.eta_read[last.y, last.x]:.2f},"
          f" AOD tones f_x = {spec.rf_grid.x_freq(4)} MHz,"
          f" f_y = {spec.rf_grid.y_freq(5)} MHz")

if __name__ == "__main__":
    main()
