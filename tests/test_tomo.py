import ctypes.util
import functools
import importlib.machinery
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maqmsim import tomo
from maqmsim.cli import (
    derive_seed,
    load_experiment_config,
    parse_experiment_config,
    run_experiment,
)
from maqmsim.detect import (
    CountsTable,
    coincidence_probabilities,
    tomography_settings,
    w_labels,
    w_settings,
)
from maqmsim.memory import CellAddress, MemoryId, MemorySpec, RfGrid
from maqmsim.protocol import ProtocolConfig, project_w, run_protocol
from maqmsim.qstate import DensityMatrix, fidelity, state_fidelity
from maqmsim.tomo import (
    LikelihoodDecreasedError,
    bell_target,
    mle_reconstruct,
    monte_carlo_fidelities,
    monte_carlo_w_fidelity,
    w_fidelity,
)
import reference
from test_detect import draw_counts, resamples

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = SRC_DIR / "maqmsim" / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)


def make_config(dimension=2, eta_read=1.0, eta_eit=1.0):
    coords = [(1, 1), (1, 2)] if dimension == 2 else [(2, 2), (2, 3), (3, 2), (3, 3)]
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, eta_read, 1e18,
                       7.8 if dimension == 2 else 3.9, GRID1)
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.01, 0.2, 1e18, 1.3, GRID2,
                       eta_eit=eta_eit)
    return ProtocolConfig(
        dimension=dimension, spec1=spec1, spec2=spec2,
        source_cells=tuple(CellAddress(MemoryId.MAQM1, x, y) for x, y in coords),
        target_cells=tuple(CellAddress(MemoryId.MAQM2, x, y) for x, y in coords),
        t1=15.6 if dimension == 2 else 11.7,
        tau=7.8 if dimension == 2 else 3.9,
        t2=7.8,
    )


def setting_probability(rho_entries, signal, atom):
    # independent restatement of the projection rule
    ket = np.kron(signal, atom)
    return float(np.real(np.conj(ket) @ rho_entries @ ket))


def exact_counts(probabilities, labels, heralds=4_000_000):
    counts = np.asarray(probabilities) * heralds
    assert (abs(counts - counts.round()) < 1e-6).all(), "test wants exactly representable counts"
    return CountsTable(labels, [heralds] * len(labels), counts.round().astype(int))


def one_table_fidelity(table, target, draws, **stopping):
    """``monte_carlo_fidelities`` of one table and its (R, n) resamples."""
    return monte_carlo_fidelities((table,), target, (draws,), **stopping)[0]


def bell_table(heralds=4_000_000):
    settings = tomography_settings()
    target = bell_target()
    rho = np.outer(target, target.conj())
    probs = [setting_probability(rho, s, a) for s, a in zip(settings.signal, settings.atom)]
    return exact_counts(probs, settings.labels, heralds)


def ginibre_density(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


class TestMleReconstruct:
    def test_large_count_consistency(self):
        res = mle_reconstruct(bell_table())
        assert res.converged
        assert fidelity(res.rho, bell_target()) >= 0.9999

    def test_mixed_truth_recovered(self):
        rng = np.random.default_rng(3)
        target = bell_target()
        pure = np.outer(target, target.conj())
        truth = 0.8 * pure + 0.2 * np.eye(4) / 4
        settings = tomography_settings()
        probs = [setting_probability(truth, s, a) for s, a in zip(settings.signal, settings.atom)]
        counts = CountsTable(settings.labels, [10_000_000] * 16,
                             [int(round(p * 10_000_000)) for p in probs])
        res = mle_reconstruct(counts)
        assert_allclose(res.rho.entries, truth, rtol=0, atol=2e-3)

    def test_trace_monotone(self):
        out = run_protocol(make_config())
        table = draw_counts(out, tomography_settings(), 1000, 0.5, 1e-4, seed=5)
        res = mle_reconstruct(table)
        trace = np.array(res.likelihood_trace)
        assert len(trace) >= 2
        assert (np.diff(trace) >= -1e-9 * (1 + np.abs(trace[:-1]))).all()

    def test_all_zero_counts_returns_init(self):
        settings = tomography_settings()
        counts = CountsTable(settings.labels, [1000] * 16, [0] * 16)
        res = mle_reconstruct(counts)
        assert_allclose(res.rho.entries, np.eye(4) / 4, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("estimator", ["mle_reconstruct", "monte_carlo_fidelities"])
    @pytest.mark.parametrize("name, value", [("tol", float("nan")), ("tol", float("inf")),
                                             ("tol", 0.0), ("tol", -1e-9),
                                             ("tol", 1.0), ("tol", 1e300),
                                             ("max_iter", 0), ("max_iter", -1)])
    def test_bad_stopping_rules_rejected_before_any_fit(self, monkeypatch, estimator,
                                                         name, value):
        spy = SetulbSpy(monkeypatch)
        table = bell_table()
        args = (table,) if estimator == "mle_reconstruct" else (
            (table,), bell_target(), (resamples(table, 0, 4),))
        with pytest.raises(ValueError, match=f"^{name} must"):
            getattr(tomo, estimator)(*args, **{name: value})
        assert spy.fits == 0

    def test_exhaustion_flags_non_convergence(self):
        out = run_protocol(make_config())
        table = draw_counts(out, tomography_settings(), 1000, 0.5, 0.0, seed=6)
        res = mle_reconstruct(table, max_iter=1)
        assert not res.converged

    def test_agrees_with_the_exact_state_on_exact_input(self):
        target = bell_target()
        res = mle_reconstruct(bell_table())
        exact = DensityMatrix(np.outer(target, target.conj()))
        assert state_fidelity(res.rho, exact) >= 1.0 - 1e-6

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="no measurement setting named 'XX'"):
            mle_reconstruct(CountsTable(("XX",), [10], [1]))

    def test_result_always_physical(self):
        out = run_protocol(make_config(eta_read=[0.3] * 30))
        for seed in range(5):
            table = draw_counts(out, tomography_settings(), 200, 0.4, 1e-3, seed=seed)
            res = mle_reconstruct(table)
            eigs = np.linalg.eigvalsh(res.rho.entries)
            assert eigs.min() >= -1e-10
            assert_allclose(np.trace(res.rho.entries).real, 1.0, atol=1e-10)


class TestMonteCarloFidelity:
    def test_high_count_sigma_small(self):
        out = run_protocol(make_config())
        table = draw_counts(out, tomography_settings(), 20_000, 1.0, 0.0, seed=8)
        est = one_table_fidelity(table, bell_target(), resamples(table, 17, 20))
        assert est.value >= 0.99
        assert 0.0 < est.sigma < 0.01
        assert est.n_failed == 0

    def test_deterministic_in_seed(self):
        out = run_protocol(make_config())
        table = draw_counts(out, tomography_settings(), 2000, 1.0, 0.0, seed=9)
        a = one_table_fidelity(table, bell_target(), resamples(table, 23, 5))
        b = one_table_fidelity(table, bell_target(), resamples(table, 23, 5))
        assert a == b

    def test_stack_blocks_give_the_same_estimate(self, monkeypatch):
        out = run_protocol(make_config())
        table = draw_counts(out, tomography_settings(), 2000, 1.0, 0.0, seed=9)
        whole = one_table_fidelity(table, bell_target(), resamples(table, 23, 10))
        monkeypatch.setattr(tomo, "MAX_STACK_ROWS", 4)
        blocks = one_table_fidelity(table, bell_target(), resamples(table, 23, 10))
        assert (blocks.value, blocks.sigma, blocks.n_resamples) == \
            (whole.value, whole.sigma, whole.n_resamples) == (whole.value, whole.sigma, 10)

    @pytest.mark.parametrize("value, sigma, message", [
        (1.5, None, "fidelity value must lie in [0, 1]"),
        (-1e-12, None, "fidelity value must lie in [0, 1]"),
        (float("nan"), 0.1, "fidelity value must lie in [0, 1]"),
        (0.5, -1e-3, "sigma must be finite and non-negative"),
        (0.5, float("inf"), "sigma must be finite and non-negative"),
        (0.5, float("nan"), "sigma must be finite and non-negative"),
    ])
    def test_an_estimate_out_of_range_is_refused(self, value, sigma, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            tomo.FidelityEstimate(value, sigma, 1)

    @pytest.mark.parametrize("shape", [(1, 16), (0, 16), (4, 15), (16,), (2, 16, 1)])
    def test_a_resample_array_of_the_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"need an \(R, 16\) array of resamples"):
            one_table_fidelity(bell_table(), bell_target(), np.ones(shape))

    def test_target_must_be_a_unit_vector_of_the_reconstruction_dimension(self):
        table = bell_table()
        for bad in (np.full(2, np.sqrt(0.5)), np.full(4, 1.0)):
            with pytest.raises(ValueError):
                one_table_fidelity(table, bad, resamples(table, 23, 2))

    @pytest.mark.parametrize("stage", [
        pytest.param(1, marks=pytest.mark.xfail(
            strict=True, reason="the constrained MLE near the pure-state boundary reads low: "
                                "truth 0.996902, 51/100 covered, bias -0.77 sd")),
        pytest.param(2, marks=pytest.mark.xfail(
            strict=True, reason="the constrained MLE near the pure-state boundary reads low: "
                                "truth 0.979555, 68/100 covered, bias -0.87 sd")),
    ])
    def test_error_bars_calibrated_at_the_shipped_settings(self, stage):
        # the shipped qubit config's heralds, dark rate, resample count and
        # stopping rule; the truth is a tight fit of the exact expected counts
        cfg = load_experiment_config(str(CONFIG_DIR / "qubit_default.json"))
        out, settings = run_protocol(cfg.protocol, transfer=stage == 2), tomography_settings()
        target = bell_target(cfg.protocol.write_phases[1] - cfg.protocol.write_phases[0])
        probs = coincidence_probabilities(out, settings, cfg.eta_det) + cfg.dark_rate
        expected = CountsTable(settings.labels, [10**9] * 16, 10**9 * probs)
        truth = fidelity(mle_reconstruct(expected, tol=1e-16, max_iter=cfg.max_iter).rho, target)
        errors, covered = [], 0
        for trial in range(100):
            table = draw_counts(out, settings, cfg.heralds_per_setting, cfg.eta_det,
                                cfg.dark_rate, seed=trial)
            est = one_table_fidelity(table, target,
                                     resamples(table, 10_000 + trial, cfg.n_resamples),
                                     tol=cfg.tol, max_iter=cfg.max_iter)
            errors.append(est.value - truth)
            if abs(est.value - truth) <= est.sigma:
                covered += 1
        assert 55 <= covered <= 80, f"truth {truth:.6f}, covered {covered}/100"
        bias = float(np.mean(errors)) / float(np.std(errors, ddof=1))
        assert abs(bias) < 0.3, f"truth {truth:.6f}, covered {covered}/100, bias {bias:.3f} sd"

    @pytest.mark.parametrize("counts", [[3] + [0] * 15, [0] * 5 + [2] + [0] * 10])
    def test_counts_in_one_setting_give_no_spread(self, counts):
        # every resample k' e_s has the optimum of the observed k e_s, and an
        # all-zero one stays at its warm start, so the spread is optimizer noise
        table = CountsTable(tomography_settings().labels, [1000] * 16, counts)
        est = one_table_fidelity(table, bell_target(), resamples(table, 7, 50))
        assert est.value == fidelity(mle_reconstruct(table).rho, bell_target())
        assert (est.sigma, est.n_resamples + est.n_failed) == (None, 50)
        assert est.warnings == ("coincidence counts sit in one setting, "
                                "so the resamples show no spread",)


def shared_tables():
    """Three sampled tables of one outcome that share labels and heralds."""
    out = run_protocol(make_config())
    return [draw_counts(out, tomography_settings(), 2000, 1.0, 0.0, seed=seed)
            for seed in (9, 10, 11)]


def assert_same_estimate(got, want):
    assert (got.value, got.sigma, got.n_resamples, got.n_failed, got.warnings) == \
        (want.value, want.sigma, want.n_resamples, want.n_failed, want.warnings)
    assert got.rho.entries.tobytes() == want.rho.entries.tobytes()


class TestMonteCarloFidelities:
    @pytest.mark.parametrize("max_rows", [tomo.MAX_STACK_ROWS, 3])
    @pytest.mark.parametrize("n_tables", [2, 3])
    def test_each_table_gets_the_estimate_it_gets_alone(self, monkeypatch, n_tables, max_rows):
        # 4, 5 and 6 resamples: with 3-row blocks, rows 3-5 straddle tables 0 and 1
        tables = shared_tables()[:n_tables]
        draws = [resamples(table, 23 + i, 4 + i) for i, table in enumerate(tables)]
        alone = [one_table_fidelity(table, bell_target(), r) for table, r in zip(tables, draws)]
        monkeypatch.setattr(tomo, "MAX_STACK_ROWS", max_rows)
        spy = SetulbSpy(monkeypatch)
        fused = monte_carlo_fidelities(tables, bell_target(), draws)
        assert spy.fits == 1 + -(-sum(map(len, draws)) // max_rows)
        assert len(fused) == n_tables
        for got, want in zip(fused, alone):
            assert_same_estimate(got, want)

    def test_failed_resamples_count_against_their_own_table(self, monkeypatch):
        # fit 2 is the resample stack, table 0's resamples in rows 0-5
        tables = shared_tables()[:2]
        draws = [resamples(table, 23 + i, 6) for i, table in enumerate(tables)]
        plain = monte_carlo_fidelities(tables, bell_target(), draws)
        spy = SetulbSpy(monkeypatch)
        spy.act = lambda row, *args: (spy.fits == 2 and row < 6 and row % 2 == 1
                                      and force_decrease(row, *args))
        first, second = monte_carlo_fidelities(tables, bell_target(), draws)
        assert spy.fits == 2
        assert (first.value, first.n_resamples, first.n_failed) == (plain[0].value, 3, 3)
        assert first.sigma != plain[0].sigma
        assert_same_estimate(second, plain[1])

    def test_a_base_fit_decrease_raises_the_first_tables_error(self):
        tables = shared_tables()[:2]
        draws = [resamples(table, 23 + i, 4) for i, table in enumerate(tables)]

        def raised(rows):
            with pytest.MonkeyPatch.context() as patch:
                spy = SetulbSpy(patch)
                spy.act = lambda row, *args: row in rows and force_decrease(row, *args)
                with pytest.raises(LikelihoodDecreasedError) as err:
                    monte_carlo_fidelities(tables, bell_target(), draws)
                assert spy.fits == 1
            return str(err.value)

        first, second = raised({0}), raised({1})
        assert first != second
        assert raised({0, 1}) == first

    def test_a_table_without_counts_has_no_value_and_is_not_fitted(self, monkeypatch):
        table = shared_tables()[0]
        empty = CountsTable(table.labels, table.heralds, [0] * 16)
        draws = [resamples(empty, 24, 6), resamples(table, 23, 6)]
        alone = one_table_fidelity(table, bell_target(), draws[1])
        spy = SetulbSpy(monkeypatch)
        none = one_table_fidelity(empty, bell_target(), draws[0])
        assert spy.fits == 0
        assert (none.value, none.sigma, none.rho, none.n_resamples, none.n_failed,
                none.warnings) == (None, None, None, 0, 0, ("coincidence counts are all zero",))
        # beside a table with counts, the resample stack holds that table's 6 rows alone
        both = monte_carlo_fidelities([empty, table], bell_target(), draws)
        assert spy.fits == 2 and len(spy.starts) == 6
        assert both[0] == none
        assert_same_estimate(both[1], alone)

    @pytest.mark.parametrize("change, message", [("heralds", "tables must share"),
                                                 ("labels", "tables must share"),
                                                 ("count", r"zip\(\) argument 2 is longer")])
    def test_tables_must_share_labels_and_heralds(self, monkeypatch, change, message):
        table = bell_table()
        other = {
            "heralds": bell_table(heralds=8_000_000),
            "labels": CountsTable(table.labels[::-1], table.heralds, table.coincidences[::-1]),
            "count": table,
        }[change]
        draws = [resamples(t, 3 + i, 4) for i, t in enumerate((table, other))]
        spy = SetulbSpy(monkeypatch)
        with pytest.raises(ValueError, match=message):
            monte_carlo_fidelities([table, other], bell_target(),
                                   draws + draws[:1] if change == "count" else draws)
        with pytest.raises(ValueError, match="need at least one table"):
            monte_carlo_fidelities([], bell_target(), [])
        assert spy.fits == 0



def w_counts(rho):
    """Exact W counts of a density matrix in w_labels order.

    P_i = rho_ii and C_ij+- = (rho_ii + rho_jj +- 2 Re rho_ij)/2.
    """
    d = rho.shape[0]
    pops = [rho[i, i].real for i in range(d)]
    pairs = [(rho[i, i].real + rho[j, j].real + sign * 2.0 * rho[i, j].real) / 2.0
             for i in range(d) for j in range(i + 1, d) for sign in (1.0, -1.0)]
    return np.array(pops + pairs)


def w_table(counts, d, heralds=1000):
    return CountsTable(w_labels(d), [heralds] * d * d, counts)


class TestWFidelity:
    def test_ideal_w_data(self):
        # P_i = 1, C_ij+ = 2, C_ij- = 0: p_i = 1/4 and Re rho_ij = 1/4
        est = w_fidelity([1] * 4 + [2, 0] * 6, 4)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.warnings == ()
        # one vector measures no spread
        assert (est.sigma, est.n_resamples, est.n_failed) == (None, 0, 0)

    def test_incoherent_mixture(self):
        assert w_fidelity([1.0] * 16, 4).value == pytest.approx(0.25, abs=1e-12)

    def test_matches_overlap_oracle_on_random_states(self):
        rng = np.random.default_rng(11)
        target = np.full(4, 0.5)
        for _ in range(25):
            rho = DensityMatrix(ginibre_density(4, rng))
            est = w_fidelity(w_counts(rho.entries), 4)
            assert_allclose(est.value, fidelity(rho, target), rtol=0, atol=1e-12)

    def test_impossible_visibility_warns(self):
        # p = (1/2, 1/2) bounds |Re rho_01| by 1/2; the counts say 0.6
        est = w_fidelity([50, 50, 120, 0], 2)
        assert est.warnings
        assert "exceeds" in est.warnings[0]

    @pytest.mark.parametrize("counts, message", [
        ([1.0] * 15, r"d\^2 counts"),
        ([1.0] * 17, r"d\^2 counts"),
        ([1.0] * 15 + [-1.0], "non-negative"),
    ], ids=["short", "long", "negative"])
    def test_bad_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            w_fidelity(counts, 4)

    def test_no_population_count_has_no_value(self):
        est = w_fidelity([0.0] * 4 + [1.0] * 12, 4)
        assert (est.value, est.sigma, est.n_resamples, est.n_failed) == (None, None, 0, 0)
        assert est.warnings == ("population counts are all zero",)


def reference_w_bootstrap(table, d, stack):
    """The scalar per-resample loop of the label-dict W estimator, kept as reference."""

    def estimate(by_label):
        pops_raw = [by_label[f"P{i}"] for i in range(d)]
        total = float(sum(pops_raw))
        if total <= 0:
            raise ValueError("population counts are all zero")
        pops = [c / total for c in pops_raw]
        vis, notes = [], []
        for i in range(d):
            for j in range(i + 1, d):
                v = (by_label[f"C{i}{j}+"] - by_label[f"C{i}{j}-"]) / (2.0 * total)
                bound = np.sqrt(pops[i] * pops[j])
                if abs(v) > bound * (1.0 + 0.05) + 1e-12:
                    notes.append(f"visibility ({i},{j}) = {v:.4g} exceeds the "
                                 f"population bound {bound:.4g}")
                vis.append(v)
        value = (sum(pops) + 2.0 * sum(vis)) / d
        if not 0.0 <= value <= 1.0:
            notes.append(f"raw estimate {value:.4g} clipped into [0, 1]")
            value = float(np.clip(value, 0.0, 1.0))
        return value, tuple(notes)

    point, notes = estimate(dict(zip(table.labels, table.coincidences.astype(float).tolist())))
    values, failed = [], 0
    for row in stack:
        try:
            values.append(estimate(dict(zip(table.labels, row.tolist())))[0])
        except ValueError:
            failed += 1
    return point, values, failed, notes


class TestWPipeline:
    def qudit_outcome(self, **kw):
        return run_protocol(make_config(4, **kw))

    def test_counts_reproduce_projection_fidelity(self):
        # lossless run: estimate from sampled counts should sit on the exact
        # projected fidelity within Monte Carlo error
        out = self.qudit_outcome()
        table = draw_counts(out, w_settings(4), 100_000, 0.8, 0.0, seed=31)
        est = monte_carlo_w_fidelity(table, 4, resamples(table, 32, 30))
        exact = project_w(out)
        assert abs(est.value - exact) < 5 * max(est.sigma, 1e-4)

    def test_nonuniform_efficiency_lowers_w_fidelity(self):
        values = [1.0] * 30
        for (x, y), eta in zip([(2, 2), (2, 3), (3, 2), (3, 3)],
                               [1.0, 0.6, 0.35, 0.15]):
            values[y * 5 + x] = eta
        out = self.qudit_outcome(eta_eit=values)
        table = draw_counts(out, w_settings(4), 200_000, 0.8, 0.0, seed=41)
        est = monte_carlo_w_fidelity(table, 4, resamples(table, 42, 30))
        exact = project_w(out)
        assert exact < 0.95
        assert abs(est.value - exact) < 5 * max(est.sigma, 1e-4)

    def test_dark_counts_pull_toward_mixed(self):
        out = self.qudit_outcome()
        clean = draw_counts(out, w_settings(4), 200_000, 0.5, 0.0, seed=51)
        dark = draw_counts(out, w_settings(4), 200_000, 0.5, 5e-3, seed=51)
        f_clean = w_fidelity(clean.coincidences, 4).value
        f_dark = w_fidelity(dark.coincidences, 4).value
        assert f_dark < f_clean
        assert f_dark > 0.25

    def test_mixed_heralds_rejected(self):
        table = CountsTable(("P0", "P1", "C01+", "C01-"), [100, 200, 100, 100], [1] * 4)
        with pytest.raises(ValueError, match="herald"):
            monte_carlo_w_fidelity(table, 2, resamples(table, 0, 2))

    def test_missing_population_rows_rejected(self):
        table = CountsTable(("P0", "C01+", "C01-"), [100] * 3, [1] * 3)
        with pytest.raises(ValueError, match="missing \\['P1'\\]"):
            monte_carlo_w_fidelity(table, 2, resamples(table, 0, 2))

    @pytest.mark.parametrize("drop", ["C01-", "C23+"])
    def test_missing_pair_row_rejected(self, drop):
        table = CountsTable(*zip(*(r for r in w_table([10] * 16, 4).rows if r[0] != drop)))
        with pytest.raises(ValueError, match=f"missing \\['{re.escape(drop)}'\\]"):
            monte_carlo_w_fidelity(table, 4, resamples(table, 0, 2))

    def test_extra_or_reordered_rows_rejected(self):
        rows = w_table([10] * 4, 2).rows
        extra = CountsTable(*zip(*rows, ("C02+", 1000, 1)))
        with pytest.raises(ValueError, match="unexpected \\['C02\\+'\\]"):
            monte_carlo_w_fidelity(extra, 2, resamples(extra, 0, 2))
        reordered = CountsTable(*zip(*rows[::-1]))
        with pytest.raises(ValueError, match="in order"):
            monte_carlo_w_fidelity(reordered, 2, resamples(reordered, 0, 2))

    @pytest.mark.parametrize("shape", [(1, 16), (3, 15), (16,)])
    def test_a_resample_array_of_the_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"need an \(R, 16\) array of resamples"):
            monte_carlo_w_fidelity(w_table([10] * 16, 4), 4, np.ones(shape))

    @pytest.mark.parametrize("seed, n_ok", [(8, 1), (3, 0)])
    def test_too_few_resamples_keep_the_point(self, seed, n_ok):
        # one population count: a resample fails when its Poisson draw is 0;
        # the coherence count keeps the no-coherence rule out of the way
        counts = [1] + [0] * 3 + [1] + [0] * 11
        table = w_table(counts, 4)
        est = monte_carlo_w_fidelity(table, 4, resamples(table, seed, 3))
        alone = w_fidelity(counts, 4)
        assert est.value.hex() == alone.value.hex()
        assert (est.sigma, est.n_resamples, est.n_failed) == (None, n_ok, 3 - n_ok)
        assert est.warnings == (*alone.warnings, f"only {n_ok} of 3 resamples succeeded")

    @pytest.mark.parametrize("populations", [[1, 0, 0, 0], [0, 1, 0, 0], [30, 40, 1, 7]])
    def test_no_coherence_count_has_no_sigma(self, populations):
        # every resample has V = 0, so its value is 1/d to rounding: the
        # spread would read ~0 with no reason given
        table = w_table(populations + [0] * 12, 4)
        stack = resamples(table, 5, 40)
        est = monte_carlo_w_fidelity(table, 4, stack)
        alone = w_fidelity(table.coincidences, 4)
        assert est.value.hex() == alone.value.hex() and est.sigma is None
        ok = int((stack[:, :4].sum(axis=1) > 0).sum())
        assert (est.n_resamples, est.n_failed) == (ok, 40 - ok)
        spread = () if ok >= 2 else (f"only {ok} of 40 resamples succeeded",)
        assert est.warnings == (*alone.warnings, *spread, tomo._NO_COHERENCE)

    def test_zero_populations_have_no_point(self):
        table = w_table([0] * 4 + [5] * 12, 4)
        est = monte_carlo_w_fidelity(table, 4, resamples(table, 0, 3))
        assert (est.value, est.sigma, est.n_resamples, est.n_failed) == (None, None, 0, 0)
        assert est.warnings == ("population counts are all zero",)

    def test_pairs_are_built_once_per_dimension(self):
        i, j = tomo._w_pairs(5)
        assert tomo._w_pairs(5)[0] is i
        assert list(zip(i.tolist(), j.tolist())) == [
            (a, b) for a in range(5) for b in range(a + 1, 5)]
        assert not i.flags.writeable and not j.flags.writeable

    def d16_table(self):
        cfg = load_experiment_config(str(GOLDEN_DIR / "qudit16_config.json"))
        out = run_protocol(cfg.protocol, transfer=True)
        return draw_counts(out, w_settings(16), cfg.heralds_per_setting, cfg.eta_det,
                           cfg.dark_rate, seed=5)

    @pytest.mark.parametrize("config", [CONFIG_DIR / "qudit_default.json",
                                        GOLDEN_DIR / "qudit16_config.json"], ids=["d4", "d16"])
    def test_error_bars_calibrated_at_the_shipped_settings(self, config):
        # stage 2 at the config's heralds, dark rate and resample count; the
        # truth is the estimate from the exact expected counts
        cfg = load_experiment_config(str(config))
        d = cfg.protocol.dimension
        out, settings = run_protocol(cfg.protocol, transfer=True), w_settings(d)
        expected = cfg.heralds_per_setting * (
            coincidence_probabilities(out, settings, cfg.eta_det) + cfg.dark_rate)
        truth = w_fidelity(expected, d).value
        errors, covered = [], 0
        for trial in range(100):
            table = draw_counts(out, settings, cfg.heralds_per_setting, cfg.eta_det,
                                cfg.dark_rate, seed=trial)
            est = monte_carlo_w_fidelity(table, d,
                                         resamples(table, 10_000 + trial, cfg.n_resamples))
            errors.append(est.value - truth)
            if abs(est.value - truth) <= est.sigma:
                covered += 1
        assert 55 <= covered <= 80, f"covered {covered}/100"
        bias = float(np.mean(errors)) / float(np.std(errors, ddof=1))
        assert abs(bias) < 0.3, f"bias {bias:.3f} sd"

    @pytest.mark.parametrize("case", ["d4", "d16", "near_zero_populations"])
    def test_matches_scalar_reference_bitwise(self, case):
        if case == "d4":
            d, n_res = 4, 50
            table = draw_counts(self.qudit_outcome(), w_settings(4), 20_000, 0.5, 1e-4, seed=3)
        elif case == "d16":
            d, n_res = 16, 20
            table = self.d16_table()
        else:
            # one population count in all: about e^-1 of the resamples have none
            d, n_res = 4, 60
            table = w_table([1, 0, 0, 0] + [1, 0, 0, 2, 3, 0, 1, 1, 0, 0, 2, 0], 4)
        stack = resamples(table, 9, n_res)
        value, values, n_failed, notes = reference_w_bootstrap(table, d, stack)
        est = monte_carlo_w_fidelity(table, d, stack)
        assert est.value == value
        assert est.sigma == float(np.asarray(values).std(ddof=1))
        assert (est.n_resamples, est.n_failed) == (len(values), n_failed)
        assert est.warnings == notes
        # every resample of the stack, not just their spread
        stacked, *_, total = tomo._w_estimate(stack, d)
        assert np.clip(stacked[total > 0], 0.0, 1.0).tobytes() == np.array(values).tobytes()
        if case == "near_zero_populations":
            assert n_failed > 0 and notes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0])
@pytest.mark.parametrize("estimator", ["qubit", "w"])
def test_resamples_must_be_finite_non_negative_counts(estimator, bad):
    # unchecked, a NaN row counted as a good qubit resample, a negative count
    # moved sigma, and an infinite W count failed FidelityEstimate's own check
    if estimator == "qubit":
        table = bell_table()
        estimate = lambda draws: one_table_fidelity(table, bell_target(), draws)
    else:
        table = w_table([10] * 16, 4)
        estimate = lambda draws: monte_carlo_w_fidelity(table, 4, draws)
    draws = np.full((3, 16), 5.0)
    draws[2, 0] = draws[1, 6] = bad   # the first bad entry in row order is named
    message = rf"resample 1, column 6 \({re.escape(table.labels[6])}\) is {bad!r}, not a finite"
    with pytest.raises(ValueError, match=message):
        estimate(draws)


class TestTransmissionFidelity:
    def test_noiseless_stages_agree(self):
        cfg = make_config()
        stage1 = run_protocol(cfg, transfer=False)
        stage2 = run_protocol(cfg, transfer=True)
        settings = tomography_settings()
        rho1 = mle_reconstruct(draw_counts(stage1, settings, 500_000, 1.0, 0.0, seed=61)).rho
        rho2 = mle_reconstruct(draw_counts(stage2, settings, 500_000, 1.0, 0.0, seed=62)).rho
        f12 = state_fidelity(rho1, rho2)
        f21 = state_fidelity(rho2, rho1)
        assert_allclose(f12, f21, rtol=0, atol=1e-8)
        assert f12 >= 0.999


# ------------------------------------------------- MLE objective and guards

def loop_unpack(x, d):
    # reference: the element-by-element unpacking in _pack's order
    t_mat = np.zeros((d, d), dtype=complex)
    t_mat[np.diag_indices(d)] = x[:d]
    pos = d
    for i in range(d):
        for j in range(i):
            t_mat[i, j] = x[pos] + 1j * x[pos + 1]
            pos += 2
    return t_mat


def loop_pack(t_mat):
    # reference: the inverse of loop_unpack
    d = t_mat.shape[0]
    lower = [(t_mat[i, j].real, t_mat[i, j].imag) for i in range(d) for j in range(i)]
    return np.concatenate([t_mat.diagonal().real, np.array(lower).reshape(-1)])


def loop_grad_pack(m_mat):
    d = m_mat.shape[0]
    parts = [2.0 * m_mat.diagonal().real]
    for i in range(d):
        for j in range(i):
            parts.append(np.array([2.0 * m_mat[i, j].real, 2.0 * m_mat[i, j].imag]))
    return np.concatenate(parts)


def reference_objective(projectors, observed, exposures):
    """The separate value and gradient functions, each unpacking T itself."""
    d = projectors.shape[1]
    c_total = float(observed.sum())
    s_op = np.tensordot(exposures, projectors, axes=1)

    def split(x):
        t_mat = loop_unpack(x, d)
        a_mat = t_mat @ t_mat.conj().T
        q = np.clip(np.einsum("sij,ji->s", projectors, a_mat).real, tomo.Q_FLOOR, None)
        big_q = max(float(np.einsum("ij,ji->", s_op, a_mat).real), tomo.Q_FLOOR)
        return t_mat, q, big_q

    def value(x):
        _, q, big_q = split(x)
        return -(float(observed @ np.log(q)) - c_total * np.log(big_q))

    def gradient(x):
        t_mat, q, big_q = split(x)
        g_mat = np.tensordot(observed / q, projectors, axes=1) - (c_total / big_q) * s_op
        return -loop_grad_pack(g_mat @ t_mat)

    return value, gradient


def sampled_table(seed=5, heralds=1000):
    return draw_counts(run_protocol(make_config()), tomography_settings(),
                       heralds, 0.5, 1e-4, seed=seed)


def shipped_stage_table(name, stage):
    # a stage's table of a shipped qubit config at seed 821328062, drawn as a run draws it
    cfg = load_experiment_config(str(CONFIG_DIR / f"{name}.json"), 821328062)
    table = draw_counts(run_protocol(cfg.protocol, transfer=stage == 2), tomography_settings(),
                        cfg.heralds_per_setting, cfg.eta_det, cfg.dark_rate,
                        seed=derive_seed(cfg.seed, stage, 0))
    target = bell_target(cfg.protocol.write_phases[1] - cfg.protocol.write_phases[0])
    return cfg, table, target


def stacked_problem(n_rows=6, seed=5, table=None):
    # one table, sampled unless given, plus Poisson resamples of it, as a
    # bootstrap stacks them
    table = sampled_table(seed) if table is None else table
    projectors, observed, exposures = tomo._aligned_projectors(table)
    stack = np.vstack([observed[None], resamples(table, seed, n_rows - 1)])
    return projectors, stack, exposures


def scipy_reference_fit(projectors, observed, exposures, init_rho, tol, max_iter,
                        maxfun=15000):
    """The serial fit through scipy's public L-BFGS-B, with the reference objective."""
    from scipy.optimize import minimize

    d = projectors.shape[1]
    value, gradient = reference_objective(projectors, observed, exposures)
    x0 = loop_pack(tomo._initial_t(init_rho, d))
    trace = [-value(x0)]
    res = minimize(lambda x: (value(x), gradient(x)), x0, jac=True, method="L-BFGS-B",
                   callback=lambda xk: trace.append(-value(xk)),
                   options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-12,
                            "maxfun": maxfun})
    t_mat = loop_unpack(res.x, d)
    a_mat = t_mat @ t_mat.conj().T
    a_mat = (a_mat + a_mat.conj().T) / 2.0
    return (a_mat / np.trace(a_mat).real, float(-res.fun), int(res.nit),
            bool(res.success), tuple(trace))


class SetulbSpy:
    """Wraps scipy's setulb; maps each call to its stack row and records tasks.

    A ``_fit_stack`` call starts every row in row order before any other
    call, so a run of starts opens a new fit (counted in ``fits``) and the
    row of a call is the position of its x buffer among those starts.
    ``act(row, *args)`` may stand in for the real setulb by returning True.
    """

    def __init__(self, monkeypatch, act=None):
        from scipy.optimize import _lbfgsb
        self.real, self.act = _lbfgsb.setulb, act
        self.fits, self.starts, self.starting = 0, [], False
        self.fg, self.accepted = {}, {}
        monkeypatch.setattr(_lbfgsb, "setulb", self)

    def __call__(self, *args):
        x, task = args[1], args[11]
        key = x.ctypes.data
        starting = task[0] == 0
        if starting and not self.starting:
            self.fits += 1
            self.starts.clear()
        self.starting = starting
        if starting:
            self.starts.append(key)
        row = self.starts.index(key)
        if self.act is None or not self.act(row, *args):
            self.real(*args)
        if task[0] == tomo._FG:
            self.fg[row] = self.fg.get(row, 0) + 1
        elif task[0] == tomo._NEW_X:
            self.accepted.setdefault(row, []).append(x.copy())


class TestMleObjective:
    def test_unpack_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 4, 9):
            x = rng.normal(size=(3, d * d))
            objective = tomo._NegLogLikelihoods(np.zeros((1, d, d)), np.zeros((1, 1)), np.zeros(1))
            t_mat = objective.unpack(x)
            for row, t_row in zip(x, t_mat):
                assert t_row.tobytes() == loop_unpack(row, d).tobytes()
            assert objective.pack(t_mat).tobytes() == x.tobytes()

    def test_fused_value_and_gradient_match_reference_bitwise(self):
        # row by row inside a stack, for the whole stack and for a subset
        projectors, stack, exposures = stacked_problem()
        objective = tomo._NegLogLikelihoods(projectors, stack, exposures)
        rng = np.random.default_rng(12)
        for rows in (np.arange(len(stack)), np.array([4, 1, 3])):
            for _ in range(10):
                x = rng.normal(size=(len(rows), 16))
                values, grads = objective(x, rows)
                for i, r in enumerate(rows):
                    value, gradient = reference_objective(projectors, stack[r], exposures)
                    assert values[i] == value(x[i])
                    assert grads[i].tobytes() == gradient(x[i]).tobytes()

    def test_gradient_matches_central_differences(self):
        projectors, stack, exposures = stacked_problem(n_rows=3)
        objective = tomo._NegLogLikelihoods(projectors, stack, exposures)
        rows = np.arange(3)
        rng = np.random.default_rng(13)
        step = 1e-6
        for _ in range(5):
            x = rng.normal(size=(3, 16))
            grads = objective(x, rows)[1]
            numeric = np.empty((3, 16))
            for k in range(16):
                e = np.zeros(16)
                e[k] = step
                numeric[:, k] = (objective(x + e, rows)[0]
                                 - objective(x - e, rows)[0]) / (2 * step)
            for grad, num in zip(grads, numeric):
                assert np.linalg.norm(grad - num) <= 1e-6 * np.linalg.norm(grad)

    def test_trace_equals_fresh_evaluations_at_accepted_iterates(self, monkeypatch):
        projectors, stack, exposures = stacked_problem(n_rows=4)
        spy = SetulbSpy(monkeypatch)
        fit = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 1000)
        for r in range(len(stack)):
            accepted, trace = spy.accepted[r], fit.traces[r]
            assert len(accepted) == fit.iterations[r] == len(trace) - 1 >= 2
            fresh = tomo._NegLogLikelihoods(projectors, stack[r:r + 1], exposures)
            assert list(trace[1:]) == [-fresh(x[None], [0])[0][0] for x in accepted]
            assert fit.log_likelihood[r] == trace[-1]

    def test_one_objective_evaluation_per_optimizer_call(self, monkeypatch):
        # one stacked call per pass serves every row that asked for f and g,
        # each row once; the first serves every row's request at x0
        calls = []
        real_call = tomo._NegLogLikelihoods.__call__

        def recording_call(self, x, rows):
            calls.append(list(rows))
            return real_call(self, x, rows)

        monkeypatch.setattr(tomo._NegLogLikelihoods, "__call__", recording_call)
        projectors, stack, exposures = stacked_problem()
        spy = SetulbSpy(monkeypatch)
        tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 1000)
        assert calls[0] == list(range(len(stack)))
        assert all(len(set(rows)) == len(rows) for rows in calls)
        assert sum(map(len, calls)) == sum(spy.fg.values())
        assert len(calls) == max(spy.fg.values())
        assert min(spy.fg.values()) < max(spy.fg.values())   # rows finish apart

    def test_setulb_never_writes_the_gradient(self, monkeypatch):
        # the loop hands setulb g[r] unchanged between evaluations, as
        # scipy's loop does
        unchanged = []

        def keep_watch(row, m, x, low, up, nbd, f, g, *rest):
            before = g.copy()
            spy.real(m, x, low, up, nbd, f, g, *rest)
            unchanged.append(g.tobytes() == before.tobytes())
            return True

        spy = SetulbSpy(monkeypatch, act=keep_watch)
        projectors, stack, exposures = stacked_problem()
        tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 1000)
        assert len(unchanged) > 100 and all(unchanged)

    def test_bootstrap_base_fit_is_the_plain_fit(self):
        out = run_protocol(make_config())
        table = draw_counts(out, tomography_settings(), 2000, 1.0, 0.0, seed=9)
        est = one_table_fidelity(table, bell_target(), resamples(table, 23, 3))
        assert est.rho.entries.tobytes() == mle_reconstruct(table).rho.entries.tobytes()
        assert est.value == fidelity(est.rho, bell_target())


class TestAgainstScipyMinimize:
    # at 2 heralds per setting some fits end on the projected-gradient test
    @pytest.mark.parametrize("seed, heralds", [(5, 1000), (6, 1000), (7, 1000), (8, 1000),
                                               (9, 1000), (11, 2)])
    def test_stack_matches_serial_public_fits(self, seed, heralds):
        # a scipy whose setulb or _minimize_lbfgsb loop differs fails here
        table = sampled_table(seed, heralds)
        projectors, observed, exposures = tomo._aligned_projectors(table)
        base = scipy_reference_fit(projectors, observed, exposures, np.eye(4) / 4, 1e-9, 1000)
        stack = resamples(table, seed, 20)
        fits = [(tomo._fit_stack(projectors, observed[None], exposures, np.eye(4) / 4,
                                 1e-9, 1000), 0, base)]
        fit = tomo._fit_stack(projectors, stack, exposures, base[0], 1e-9, 1000)
        fits += [(fit, r, scipy_reference_fit(projectors, stack[r], exposures, base[0],
                                              1e-9, 1000)) for r in range(20)]
        for got, r, (rho, ll, nit, converged, trace) in fits:
            assert got.errors[r] is None
            assert got.rho[r].tobytes() == rho.tobytes()
            assert got.log_likelihood[r] == ll
            assert got.iterations[r] == nit
            assert bool(got.converged[r]) == converged
            assert got.traces[r] == trace

    def test_a_bootstrap_size_stack_fits_each_row_as_alone(self):
        # the shipped qubit stage-2 table and 99 resamples, started as a
        # bootstrap starts them; the stack property draws at most 4 rows
        _, table, _ = shipped_stage_table("qubit_default", 2)
        projectors, observed, exposures = tomo._aligned_projectors(table)
        base = tomo._fit_stack(projectors, observed[None], exposures, np.eye(4) / 4, 1e-9, 1000)
        stack = np.vstack([observed[None], resamples(table, 7, 99)])
        starts = np.array([np.eye(4) / 4] + [base.rho[0]] * 99)
        fit = tomo._fit_stack(projectors, stack, exposures, starts, 1e-9, 1000)
        assert max(fit.iterations) > 2 * min(fit.iterations)   # rows finish far apart
        for r in range(len(stack)):
            alone = tomo._fit_stack(projectors, stack[r:r + 1], exposures, starts[r], 1e-9, 1000)
            assert fit.errors[r] is None and alone.errors[0] is None
            assert fit.rho[r].tobytes() == alone.rho[0].tobytes()
            assert fit.log_likelihood[r] == alone.log_likelihood[0]
            assert fit.iterations[r] == alone.iterations[0]
            assert fit.converged[r] == alone.converged[0]
            assert fit.traces[r] == alone.traces[0]

    def test_exhausted_rows_match_too(self):
        projectors, stack, exposures = stacked_problem()
        fit = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 3)
        for r in range(len(stack)):
            rho, ll, nit, converged, trace = scipy_reference_fit(
                projectors, stack[r], exposures, np.eye(4) / 4, 1e-9, 3)
            assert (fit.rho[r].tobytes(), fit.log_likelihood[r], fit.iterations[r],
                    bool(fit.converged[r]), fit.traces[r]) == (rho.tobytes(), ll, nit,
                                                               converged, trace)
            assert nit == 3 and not converged

    @pytest.mark.parametrize("maxfun", [3, 5, 8, 13])
    def test_the_maxfun_stop_matches_too(self, monkeypatch, maxfun):
        # scipy counts the evaluation at x0 as the first
        monkeypatch.setattr(tomo, "_LBFGS_MAXFUN", maxfun)
        projectors, stack, exposures = stacked_problem(n_rows=4)
        fit = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 1000)
        for r in range(len(stack)):
            rho, ll, nit, converged, trace = scipy_reference_fit(
                projectors, stack[r], exposures, np.eye(4) / 4, 1e-9, 1000, maxfun)
            assert (fit.rho[r].tobytes(), fit.log_likelihood[r], fit.iterations[r],
                    bool(fit.converged[r]), fit.traces[r]) == (rho.tobytes(), ll, nit,
                                                               converged, trace)
            assert nit <= maxfun and not converged

    @pytest.mark.parametrize("task, converged", [(tomo._CONVERGENCE, True), (6, False),
                                                 (7, False), (8, False)])
    def test_converged_only_on_the_convergence_task(self, monkeypatch, task, converged):
        # scipy's success flag: warning (6), error (7) and abnormal (8) ends are failures
        def end_with_task(row, m, x, *args):
            args[9][0] = tomo._FG if args[9][0] == 0 else task
            return True

        SetulbSpy(monkeypatch, act=end_with_task)
        projectors, stack, exposures = stacked_problem(n_rows=2)
        fit = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 1000)
        assert fit.converged.tolist() == [converged, converged]
        assert fit.errors == (None, None)


def moving_setulb(move):
    """A stand-in setulb that keeps the real one's START contract: START asks
    for f and g at x0 as it stands; the next call applies ``move`` to x and
    asks again, the one after accepts that x, and then the row converges.
    The stage rides in the task's second slot."""
    @functools.wraps(move)
    def stand_in(row, m, x, *args):
        task = args[9]
        if task[0] == 0:
            task[:] = (tomo._FG, 1)
        elif tuple(task) == (tomo._FG, 1):
            move(x)
            task[1] = 2
        else:
            task[0] = tomo._NEW_X if task[0] == tomo._FG else tomo._CONVERGENCE
        return True
    return stand_in


@moving_setulb
def force_decrease(x):
    # "accepts" the pure state |00><00|, which a Bell-like table makes far
    # less likely than the maximally mixed start
    x[:] = 0.0
    x[0] = 1.0


@moving_setulb
def force_nan(x):
    x[:] = np.nan


class TestLikelihoodGuard:
    @pytest.mark.parametrize("stand_in", [force_decrease, force_nan])
    def test_forced_decrease_raises_named_error(self, monkeypatch, stand_in):
        SetulbSpy(monkeypatch, act=stand_in)
        with pytest.raises(LikelihoodDecreasedError, match="likelihood decreased"):
            mle_reconstruct(bell_table())

    @pytest.mark.parametrize("stand_in", [force_decrease, force_nan])
    def test_forced_rows_fail_alone_in_a_stack(self, monkeypatch, stand_in):
        projectors, stack, exposures = stacked_problem()
        plain = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 1000)
        SetulbSpy(monkeypatch, act=lambda row, *args: row in (1, 4) and stand_in(row, *args))
        fit = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-9, 1000)
        for r in range(len(stack)):
            if r in (1, 4):
                assert isinstance(fit.errors[r], LikelihoodDecreasedError)
                assert fit.iterations[r] == 1
            else:
                assert fit.errors[r] is None
                assert fit.rho[r].tobytes() == plain.rho[r].tobytes()
                assert fit.traces[r] == plain.traces[r]

    def test_bootstrap_counts_guard_failures(self, monkeypatch):
        # fit 1 is the base fit; in fit 2, the resample stack, rows 1, 3
        # and 5 are forced to fail
        spy = SetulbSpy(monkeypatch)
        spy.act = lambda row, *args: spy.fits == 2 and row % 2 == 1 and force_decrease(row, *args)
        est = one_table_fidelity(bell_table(), bell_target(), resamples(bell_table(), 3, 6))
        assert (est.n_resamples, est.n_failed) == (3, 3)

    @pytest.mark.parametrize("survivors", [0, 1])
    def test_bootstrap_without_spread_keeps_the_point(self, monkeypatch, survivors):
        plain = one_table_fidelity(bell_table(), bell_target(), resamples(bell_table(), 3, 6))
        spy = SetulbSpy(monkeypatch)
        spy.act = lambda row, *args: (spy.fits == 2 and row >= survivors
                                      and force_decrease(row, *args))
        est = one_table_fidelity(bell_table(), bell_target(), resamples(bell_table(), 3, 6))
        assert est.value.hex() == plain.value.hex()
        assert (est.sigma, est.n_resamples, est.n_failed) == (None, survivors, 6 - survivors)
        assert est.warnings == (f"only {survivors} of 6 resamples succeeded",)
        assert est.rho.entries.tobytes() == plain.rho.entries.tobytes()
        assert plain.warnings == ()


IMPORT_ORDER_SCRIPT = r"""
import json, sys
from maqmsim import tomo
from maqmsim.detect import CountsTable

order, rows = sys.argv[1], json.loads(sys.argv[2])
table = CountsTable(*zip(*rows))

def fit():
    res = tomo.mle_reconstruct(table)
    return [res.rho.entries.tobytes().hex(), res.log_likelihood, res.iterations,
            list(res.likelihood_trace)]

steps = {}
if order == "kernel first":
    steps["fit"] = fit()
    steps["package loaded"] = "scipy.optimize" in sys.modules
    kernel = sys.modules["scipy.optimize._lbfgsb"]
    from scipy.optimize import _lbfgsb, minimize
else:
    from scipy.optimize import _lbfgsb, minimize
    kernel = _lbfgsb
    steps["fit"] = fit()
    steps["package loaded"] = "scipy.optimize" in sys.modules
steps["one module"] = _lbfgsb is kernel is sys.modules["scipy.optimize._lbfgsb"]
steps["package works"] = minimize(lambda x: float((x - 1.5) @ (x - 1.5)), [0.0, 0.0],
                                  method="L-BFGS-B").fun < 1e-12
calls = []
real = _lbfgsb.setulb
_lbfgsb.setulb = lambda *args: calls.append(1) or real(*args)
steps["stand-in fit"] = fit()
steps["stand-in called"] = len(calls) > 0
print(json.dumps(steps))
"""


class TestKernelLoader:
    def test_either_import_order_fits_with_one_kernel(self):
        table = bell_table(heralds=2000)
        rows = json.dumps(table.rows)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        res = mle_reconstruct(table)
        here = [res.rho.entries.tobytes().hex(), res.log_likelihood, res.iterations,
                list(res.likelihood_trace)]
        for order, package_loaded in [("kernel first", False), ("package first", True)]:
            done = subprocess.run([sys.executable, "-c", IMPORT_ORDER_SCRIPT, order, rows],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert json.loads(done.stdout) == {
                "fit": here, "package loaded": package_loaded, "one module": True,
                "package works": True, "stand-in fit": here, "stand-in called": True}, order

    @pytest.mark.parametrize("scipy_found", [False, True])
    def test_missing_kernel_raises_import_error(self, monkeypatch, tmp_path, scipy_found):
        # no scipy at all, or a scipy whose optimize directory has no extension
        spec = None
        if scipy_found:
            (tmp_path / "optimize").mkdir()
            spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.delitem(sys.modules, tomo._KERNEL)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=re.escape("scipy>=1.15")):
            mle_reconstruct(bell_table())
        assert tomo._KERNEL not in sys.modules

    def test_a_kernel_that_fails_to_run_is_not_registered(self, monkeypatch):
        class FailingLoader(importlib.machinery.ExtensionFileLoader):
            def create_module(self, spec):
                return None   # a plain module, so that exec_module runs

            def exec_module(self, module):
                raise ImportError("kernel init failed")

        monkeypatch.delitem(sys.modules, tomo._KERNEL)
        monkeypatch.setattr(tomo, "ExtensionFileLoader", FailingLoader)
        with pytest.raises(ImportError, match="kernel init failed"):
            mle_reconstruct(bell_table())
        assert tomo._KERNEL not in sys.modules


def scipy_blas_threads():
    """scipy's OpenBLAS (get, set) thread calls, or a skip where a pin cannot show."""
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
    if len(cores) < 2:
        pytest.skip("one usable core: a one-thread pin reads as the default count")
    threads = tomo._scipy_blas_threads(tomo._lbfgsb_kernel().__file__)
    if threads is None:
        pytest.skip("this scipy bundles no OpenBLAS with scipy_openblas thread calls")
    return threads


CPU_PER_WALL_SCRIPT = """
import time
import numpy as np
from maqmsim import tomo
from maqmsim.detect import CountsTable, tomography_settings

labels = tomography_settings().labels
rng = np.random.default_rng(5)
tables = [CountsTable(labels, [2000] * 16,
                      rng.poisson([300 if label[0] == label[1] else 40 for label in labels]))
          for _ in range(8)]

def fit_for(seconds):
    cpu, wall = time.process_time(), time.perf_counter()
    while time.perf_counter() - wall < seconds:
        for table in tables:
            tomo.mle_reconstruct(table)
    return (time.process_time() - cpu) / (time.perf_counter() - wall)

fit_for(0.3)   # a fresh OpenBLAS thread spins ~0.1 s before it first sleeps
print(fit_for(0.5))
"""


class TestOneBlasThread:
    @pytest.fixture
    def threads(self):
        get, set_ = scipy_blas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    @pytest.mark.parametrize("library", ["none", "missing", "libc"])
    def test_no_thread_count_to_pin_without_openblas_calls(self, tmp_path, library):
        # a stand-in kernel has no file; a file that does not load, or a
        # library without scipy_openblas calls, leaves the fit on its BLAS's threads
        path = {"none": None, "missing": str(tmp_path / "missing.so"),
                "libc": ctypes.util.find_library("c")}[library]
        assert tomo._scipy_blas_threads(path) is None

    def test_a_fit_runs_on_one_thread_and_restores_the_count(self, monkeypatch, threads):
        seen = set()
        SetulbSpy(monkeypatch, act=lambda *args: seen.add(threads()))
        mle_reconstruct(bell_table())
        assert seen == {1}
        assert threads() == 2

    def test_the_count_is_restored_after_a_failed_fit(self, monkeypatch, threads):
        SetulbSpy(monkeypatch, act=force_decrease)
        with pytest.raises(LikelihoodDecreasedError):
            mle_reconstruct(bell_table())
        assert threads() == 2

        real, calls = tomo._NegLogLikelihoods.__call__, []

        def failing(self, x, rows):
            calls.append(threads())
            if len(calls) == 3:
                raise FloatingPointError("objective failed")
            return real(self, x, rows)

        monkeypatch.undo()
        monkeypatch.setattr(tomo._NegLogLikelihoods, "__call__", failing)
        with pytest.raises(FloatingPointError, match="objective failed"):
            mle_reconstruct(bell_table())
        assert calls == [1, 1, 1]
        assert threads() == 2

    def test_fitting_keeps_the_process_on_one_core(self):
        # one busy thread cannot read above 1.0; a spinning second one reads ~2
        scipy_blas_threads()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", CPU_PER_WALL_SCRIPT],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= 1.3


@pytest.mark.xfail(strict=True, reason="L-BFGS-B with ftol=tol stops short of the optimum: "
                   "on this table the default fit sits 1.2e-3 nats low and its fidelity "
                   "is off by 8.1e-4")
def test_default_tolerance_fit_reaches_the_optimum():
    cfg, table, target = shipped_stage_table("qubit_default", 2)
    default = mle_reconstruct(table, tol=cfg.tol, max_iter=cfg.max_iter)
    tight = mle_reconstruct(table, tol=1e-16, max_iter=cfg.max_iter)
    assert default.converged
    assert abs(fidelity(default.rho, target) - fidelity(tight.rho, target)) <= 1e-5


def fit_gap_bound(table, tol, max_iter):
    """The likelihood-gap bound of the table's plain fit, in nats."""
    projectors, observed, exposures = tomo._aligned_projectors(table)
    rho = mle_reconstruct(table, tol=tol, max_iter=max_iter).rho.entries
    return reference.likelihood_gap_bound(projectors, observed, exposures, rho)


SHIPPED_QUBIT_STAGES = [("qubit_default", 1), ("qubit_default", 2),
                        ("qubit_ideal", 1), ("qubit_ideal", 2)]


@pytest.mark.parametrize("name, stage", SHIPPED_QUBIT_STAGES)
def test_a_tight_fit_is_certified_near_the_optimum(name, stage):
    # 3.3e-6, 3.9e-5, 8.7e-11 and -1.5e-11 (rounding) nats
    cfg, table, _ = shipped_stage_table(name, stage)
    assert fit_gap_bound(table, 1e-16, cfg.max_iter) <= 1e-4


@pytest.mark.xfail(strict=True, reason="L-BFGS-B's relative stop at the shipped tol certifies "
                   "only 1.4e-2, 2.1e-1, 1.5e-3 and 2.1e-3 nats on these tables")
def test_a_shipped_fit_is_certified_near_the_optimum():
    bounds = [fit_gap_bound(table, cfg.tol, cfg.max_iter)
              for cfg, table, _ in (shipped_stage_table(*case) for case in SHIPPED_QUBIT_STAGES)]
    assert max(bounds) <= 1e-4


@functools.lru_cache(maxsize=None)
def high_count_report(path):
    # no dark counts and 10^9 heralds per setting, at the shipped resample
    # count and stopping rule
    doc = json.loads(Path(path).read_text())
    doc["detection"].update(dark_rate=0.0, heralds_per_setting=10**9)
    return run_experiment(parse_experiment_config(doc))


def stops_short(sds):
    return pytest.mark.xfail(
        strict=True, reason=f"L-BFGS-B's relative stop at tol 1e-9 ends the fits short at "
                            f"10^9 heralds (within 3 sd at tol 1e-16): {sds} sd")


@pytest.mark.parametrize("path, stage", [
    pytest.param(CONFIG_DIR / "qubit_default.json", 1, marks=stops_short(-25.2)),
    pytest.param(CONFIG_DIR / "qubit_default.json", 2, marks=stops_short(-8.2)),
    pytest.param(CONFIG_DIR / "qubit_ideal.json", 1, marks=stops_short(-6.9)),
    pytest.param(CONFIG_DIR / "qubit_ideal.json", 2, marks=stops_short(-6.8)),
    (CONFIG_DIR / "qudit_default.json", 1),
    (CONFIG_DIR / "qudit_default.json", 2),
    (GOLDEN_DIR / "qudit16_config.json", 1),
    (GOLDEN_DIR / "qudit16_config.json", 2),
], ids=lambda value: value.stem if isinstance(value, Path) else f"stage{value}")
def test_high_count_estimate_lies_within_three_sigma_of_the_prediction(path, stage):
    report = high_count_report(str(path))
    block = report[f"maqm{stage}_stage"]
    w = "" if report["dimension"] == 2 else "w_"
    pull = (block[f"{w}fidelity"] - block[f"predicted_{w}fidelity"]) / block["sigma"]
    assert abs(pull) <= 3.0, f"{pull:+.2f} sd"
