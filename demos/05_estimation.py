#!/usr/bin/env python3
"""From exact branch amplitudes to an experimenter's eye view: sample
coincidence counts through lossy detectors, reconstruct the state by
maximum likelihood, and put an error bar on the fidelity."""

import numpy as np

from maqmsim import (
    CellAddress,
    MemoryId,
    MemorySpec,
    ProtocolConfig,
    RfGrid,
    bell_target,
    coincidence_probabilities,
    fidelity,
    mle_reconstruct,
    monte_carlo_fidelity,
    monte_carlo_w_fidelity,
    run_protocol,
    sample_counts,
    tomography_settings,
    w_settings,
)

GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)


def transfer_outcome(eta_branch0=1.0, dimension=2):
    eta = np.full((6, 5), 1.0)
    eta[1, 1] = eta_branch0
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, eta, 1e12, 7.8, GRID1)
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0, 1e12, 1.3, GRID2,
                       eta_eit=1.0)
    if dimension == 2:
        coords = [(1, 1), (1, 2)]
        t1, tau = 15.6, 7.8
    else:
        coords = [(2, 2), (3, 2), (2, 3), (3, 3)]
        t1, tau = 15.6, 7.8
    cfg = ProtocolConfig(
        dimension=dimension,
        spec1=spec1, spec2=spec2,
        source_cells=tuple(CellAddress(MemoryId.MAQM1, x, y) for x, y in coords),
        target_cells=tuple(CellAddress(MemoryId.MAQM2, x, y) for x, y in coords),
        t1=t1, tau=tau, t2=7.8)
    return run_protocol(cfg, transfer=True)


def main():
    # branch 0 retrieves at eta=0.25, so the verified state is slightly
    # skewed away from the balanced Bell target
    outcome = transfer_outcome(eta_branch0=0.25)
    target = bell_target(0.0)
    print(f"Truth: predicted fidelity {outcome.predicted_fidelity:.6f}")

    settings = tomography_settings(2)
    print()
    print("Coincidence probabilities feeding the sampler (first four settings)")
    probabilities = coincidence_probabilities(outcome, settings, eta_det=0.8)
    for label, p in zip(settings.labels[:4], probabilities):
        print(f"  setting {label}: {p:.6f}")

    print()
    print("Counts -> MLE fit -> fidelity, growing the sample")
    for heralds in (200, 2000, 20000):
        table = sample_counts(outcome, settings, heralds_per_setting=heralds,
                              eta_det=0.8, dark_rate=1e-4, seed=42)
        fit = mle_reconstruct(table)
        print(f"  {heralds:6d} heralds/setting: F = {fidelity(fit.rho, target):.4f}"
              f"  (converged={fit.converged}, {fit.iterations} iterations)")

    print()
    print("Bootstrap error bar at 2000 heralds/setting")
    table = sample_counts(outcome, settings, heralds_per_setting=2000,
                          eta_det=0.8, dark_rate=1e-4, seed=42)
    est = monte_carlo_fidelity(table, target, n_resamples=100, seed=7)
    pull = (est.value - outcome.predicted_fidelity) / est.sigma
    print(f"  F = {est.value:.4f} +- {est.sigma:.4f}"
          f"  ({est.n_resamples} resamples, truth sits {pull:+.2f} sigma away)")

    print()
    print("W-state verification of the four-bin transfer")
    outcome4 = transfer_outcome(dimension=4)
    table4 = sample_counts(outcome4, w_settings(4), heralds_per_setting=20000,
                           eta_det=0.8, dark_rate=1e-4, seed=5)
    pops = np.array([r.coincidences for r in table4.rows if r.label.startswith("P")],
                    dtype=float)
    print(f"  populations: {np.round(pops / pops.sum(), 4)}")
    est4 = monte_carlo_w_fidelity(table4, dimension=4, n_resamples=100, seed=9)
    print(f"  F_W = {est4.value:.4f} +- {est4.sigma:.4f}"
          f"  warnings: {list(est4.warnings) or 'none'}")


if __name__ == "__main__":
    main()
