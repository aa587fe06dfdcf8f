#!/usr/bin/env python3
"""From exact branch amplitudes to an experimenter's eye view: sample
coincidence counts through lossy detectors, reconstruct the state by
maximum likelihood, and put an error bar on the fidelity.

Every random draw happens in ``detect``: ``sample_counts`` draws a table and
``poisson_resamples`` its bootstrap resamples.  The estimators in ``tomo``
take those arrays and draw nothing themselves."""

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
    monte_carlo_fidelities,
    monte_carlo_w_fidelity,
    poisson_resamples,
    run_protocol,
    sample_counts,
    stream_states,
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

    settings = tomography_settings()
    print()
    print("Coincidence probabilities feeding the sampler (first four settings)")
    probabilities = coincidence_probabilities(outcome, settings, eta_det=0.8)
    for label, p in zip(settings.labels[:4], probabilities):
        print(f"  setting {label}: {p:.6f}")

    # every draw has a stream of its own: row i of a table seeded 42 draws
    # from np.random.default_rng([42, i]), bit for bit
    table_streams = stream_states(42, np.arange(len(settings.labels)))
    print()
    print("Counts -> MLE fit -> fidelity, growing the sample")
    for heralds in (200, 2000, 20000):
        table = sample_counts(settings, probabilities, heralds_per_setting=heralds,
                              dark_rate=1e-4, streams=table_streams)
        fit = mle_reconstruct(table)
        print(f"  {heralds:6d} heralds/setting: F = {fidelity(fit.rho, target):.4f}"
              f"  (converged={fit.converged}, {fit.iterations} iterations)")

    print()
    print("Bootstrap error bar at 2000 heralds/setting")
    table = sample_counts(settings, probabilities, heralds_per_setting=2000,
                          dark_rate=1e-4, streams=table_streams)
    # 100 resampled tables, resample r drawn from np.random.default_rng([7, r])
    resamples = poisson_resamples(table, stream_states(7, np.arange(100)))
    print(f"  resample stack: {resamples.shape[0]} tables x {resamples.shape[1]} settings")
    # the bootstrap takes a tuple of tables, fitted in one stack; here, one
    (est,) = monte_carlo_fidelities((table,), target, (resamples,))
    pull = (est.value - outcome.predicted_fidelity) / est.sigma
    print(f"  F = {est.value:.4f} +- {est.sigma:.4f}"
          f"  ({est.n_resamples} resamples, truth sits {pull:+.2f} sigma away)")

    print()
    print("W-state verification of the four-bin transfer")
    outcome4 = transfer_outcome(dimension=4)
    probabilities4 = coincidence_probabilities(outcome4, w_settings(4), eta_det=0.8)
    table4 = sample_counts(w_settings(4), probabilities4, heralds_per_setting=20000,
                           dark_rate=1e-4, streams=stream_states(5, np.arange(16)))
    pops = table4.coincidences[:4].astype(float)
    print(f"  populations: {np.round(pops / pops.sum(), 4)}")
    resamples4 = poisson_resamples(table4, stream_states(9, np.arange(100)))
    est4 = monte_carlo_w_fidelity(table4, dimension=4, resamples=resamples4)
    print(f"  F_W = {est4.value:.4f} +- {est4.sigma:.4f}"
          f"  warnings: {list(est4.warnings) or 'none'}")


if __name__ == "__main__":
    main()
