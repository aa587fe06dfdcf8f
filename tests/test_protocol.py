import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maqmsim.memory import CellAddress, MemoryId, MemorySpec, RfGrid
from maqmsim.protocol import (
    MAX_TIME_US,
    MIN_TAU_US,
    PostSelectionError,
    ProtocolConfig,
    bin_time,
    project_w,
    run_protocol,
    storage_dwell,
)


def closed_form_two_branch(eta_1, eta_2):
    # independent oracle for the two-branch loss law; the library must not
    # contain this expression anywhere
    return (np.sqrt(eta_1) + np.sqrt(eta_2)) ** 2 / (2.0 * (eta_1 + eta_2))


def reference_survival(t, tau_mem, t_larmor):
    return np.exp(-((t / tau_mem) ** 2)) * np.cos(np.pi * t / t_larmor) ** 2


GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)


def source_spec(eta_read=1.0, tau_mem=1e18, t_larmor=7.8, eta_write=0.01):
    return MemorySpec(MemoryId.MAQM1, 5, 6, eta_write, eta_read, tau_mem, t_larmor, GRID1)


def target_spec(eta_eit=1.0, tau_mem=1e18, t_larmor=7.8):
    return MemorySpec(MemoryId.MAQM2, 5, 6, 0.01, 0.2, tau_mem, t_larmor, GRID2,
                      eta_eit=eta_eit)


def cells(memory, coords):
    return tuple(CellAddress(memory, x, y) for x, y in coords)


SOURCE_PAIR = cells(MemoryId.MAQM1, [(1, 1), (1, 2)])
TARGET_PAIR = cells(MemoryId.MAQM2, [(1, 1), (1, 2)])


def qubit_config(spec1=None, spec2=None, **kw):
    args = dict(
        dimension=2,
        spec1=spec1 or source_spec(),
        spec2=spec2 or target_spec(),
        source_cells=SOURCE_PAIR,
        target_cells=TARGET_PAIR,
        t1=15.6,
        tau=7.8,
        t2=7.8,
    )
    args.update(kw)
    return ProtocolConfig(**args)


def bell_diagonal(relative_phase=0.0):
    """Bell-pair amplitudes on the branch pairs (s_k, a_k): [1, e^{i phi}] / sqrt(2)."""
    return np.array([1.0, np.exp(1j * relative_phase)]) / np.sqrt(2.0)


def read_map(pairs, base=1.0):
    """Row-major 5x6 map with selected (x, y) cells overridden."""
    values = [base] * 30
    for (x, y), eta in pairs.items():
        values[y * 5 + x] = eta
    return values


class TestTiming:
    def test_bin_times(self):
        cfg = qubit_config()
        assert bin_time(cfg, 0) == 15.6
        assert bin_time(cfg, 1) == pytest.approx(23.4)

    def test_storage_dwell_counts_down(self):
        cfg = qubit_config()
        assert storage_dwell(cfg, 0) == pytest.approx(15.6)
        assert storage_dwell(cfg, 1) == pytest.approx(7.8)


class TestIdealTransfer:
    def test_lossless_run_hits_target_exactly(self):
        out = run_protocol(qubit_config())
        assert out.predicted_fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.survival_probability == pytest.approx(1.0, abs=1e-12)
        stored = out.branch_amplitudes / np.linalg.norm(out.branch_amplitudes)
        assert_allclose(abs(np.vdot(bell_diagonal(), stored)) ** 2, 1.0,
                        rtol=0, atol=1e-12)

    def test_write_phases_carried_through(self):
        cfg = qubit_config(write_phases=(0.0, np.pi / 5))
        out = run_protocol(cfg)
        target = bell_diagonal(relative_phase=np.pi / 5)
        assert_allclose(abs(np.vdot(target, out.branch_amplitudes)) ** 2,
                        1.0, rtol=0, atol=1e-12)
        assert out.predicted_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_source_stage_keeps_source_modes(self):
        # the source stage never stores in MAQM2, so a dead target memory
        # costs it nothing
        out = run_protocol(qubit_config(spec2=target_spec(eta_eit=0.0)), transfer=False)
        assert out.survival_probability == pytest.approx(1.0, abs=1e-12)
        assert out.predicted_fidelity == pytest.approx(1.0, abs=1e-12)


class TestLossLaw:
    def test_pinned_unbalanced_case(self):
        spec1 = source_spec(eta_read=read_map({(1, 1): 0.8, (1, 2): 0.2}))
        out = run_protocol(qubit_config(spec1=spec1), transfer=False)
        assert_allclose(out.predicted_fidelity, 0.900, rtol=0, atol=1e-12)
        assert_allclose(out.survival_probability, 0.5, rtol=0, atol=1e-12)

    def test_matches_closed_form_over_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            eta_1, eta_2 = rng.uniform(0.1, 1.0, size=2)
            spec1 = source_spec(eta_read=read_map({(1, 1): eta_1, (1, 2): eta_2}))
            out = run_protocol(qubit_config(spec1=spec1), transfer=False)
            assert_allclose(out.predicted_fidelity, closed_form_two_branch(eta_1, eta_2),
                            rtol=0, atol=1e-9)

    def test_storage_leg_obeys_same_law(self):
        # loss in the target memory enters the same way as read loss
        spec2 = target_spec(eta_eit=read_map({(1, 1): 0.9, (1, 2): 0.4}))
        out = run_protocol(qubit_config(spec2=spec2))
        assert_allclose(out.predicted_fidelity, closed_form_two_branch(0.9, 0.4),
                        rtol=0, atol=1e-9)

    def test_uniform_loss_leaves_fidelity_at_one(self):
        spec1 = source_spec(eta_read=0.05)
        out = run_protocol(qubit_config(spec1=spec1))
        assert out.predicted_fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.survival_probability == pytest.approx(0.05, abs=1e-12)


class TestSurvivalWeighting:
    def test_branch_weights_follow_decay_model(self):
        spec1 = source_spec(eta_read=0.2, tau_mem=65.0, t_larmor=7.8)
        spec2 = target_spec(eta_eit=0.3, tau_mem=27.8, t_larmor=1.3)
        out = run_protocol(qubit_config(spec1=spec1, spec2=spec2))
        expected = []
        for i in range(2):
            w = 0.2 * reference_survival(15.6 + 7.8 * i, 65.0, 7.8)
            w *= 0.3 * reference_survival((1 - i) * 7.8 + 7.8, 27.8, 1.3)
            expected.append(np.sqrt(w) / np.sqrt(2.0))
        assert_allclose(np.abs(out.branch_amplitudes), expected, rtol=0, atol=1e-12)

    def test_longer_memory_does_not_hurt(self):
        base = run_protocol(qubit_config(spec1=source_spec(tau_mem=30.0)))
        better = run_protocol(qubit_config(spec1=source_spec(tau_mem=60.0)))
        assert better.predicted_fidelity >= base.predicted_fidelity - 1e-12
        assert better.survival_probability > base.survival_probability

    def test_retrieval_order_swaps_branch_weights_under_decay(self):
        spec1 = source_spec(tau_mem=30.0)
        fwd = run_protocol(qubit_config(spec1=spec1))
        rev = run_protocol(qubit_config(spec1=spec1, retrieval_order=(1, 0)),
                           transfer=False)
        fwd_src = run_protocol(qubit_config(spec1=spec1), transfer=False)
        assert_allclose(np.abs(rev.branch_amplitudes),
                        np.abs(fwd_src.branch_amplitudes)[::-1], rtol=0, atol=1e-12)
        assert fwd.predicted_fidelity < 1.0

    def test_retrieval_order_irrelevant_without_decay(self):
        fwd = run_protocol(qubit_config())
        rev = run_protocol(qubit_config(retrieval_order=(1, 0)))
        assert_allclose(np.abs(fwd.branch_amplitudes), np.abs(rev.branch_amplitudes),
                        rtol=0, atol=1e-12)


class TestPhases:
    def test_common_laser_leaves_only_the_bin_drift(self):
        # read and coupling light share one laser, so alpha_i - beta_i cancels
        # and bin i multiplies the branch it carries by e^{i drifts[i]},
        # on the transfer leg only
        order = (2, 0, 3, 1)
        coords = [(1, 1), (2, 1), (1, 2), (2, 2)]
        spec1 = source_spec(eta_read=read_map({(1, 1): 0.3, (2, 1): 0.5, (1, 2): 0.7}),
                            tau_mem=65.0)
        spec2 = target_spec(eta_eit=read_map({(2, 1): 0.4, (2, 2): 0.6}), tau_mem=27.8)
        drifts = tuple(np.random.default_rng(7).uniform(-np.pi, np.pi, size=4))
        base = dict(dimension=4, spec1=spec1, spec2=spec2,
                    source_cells=cells(MemoryId.MAQM1, coords),
                    target_cells=cells(MemoryId.MAQM2, coords),
                    t1=15.6, tau=7.8, t2=7.8, retrieval_order=order)
        drifted = ProtocolConfig(**base, drifts=drifts)
        clean = ProtocolConfig(**base)
        expected = run_protocol(clean).branch_amplitudes.copy()
        for i, k in enumerate(order):
            expected[k] *= np.exp(1j * drifts[i])
        assert_allclose(run_protocol(drifted).branch_amplitudes, expected,
                        rtol=0, atol=1e-15)
        assert_allclose(run_protocol(drifted, transfer=False).branch_amplitudes,
                        run_protocol(clean, transfer=False).branch_amplitudes,
                        rtol=0, atol=1e-15)

    @pytest.mark.parametrize("drift,expected", [
        (0.0, 1.0),
        (np.pi / 4, 0.8535533905932737),
        (np.pi / 2, 0.5),
    ])
    def test_drift_fidelity_curve(self, drift, expected):
        # F = cos^2(drift / 2) for a single-bin phase error on a balanced pair
        out = run_protocol(qubit_config(drifts=(0.0, drift)))
        assert_allclose(out.predicted_fidelity, expected, rtol=0, atol=1e-12)
        brute = abs((1.0 + np.exp(1j * drift)) / 2.0) ** 2
        assert_allclose(expected, brute, rtol=0, atol=1e-12)

    def test_drift_ignored_without_transfer(self):
        out = run_protocol(qubit_config(drifts=(0.0, np.pi)), transfer=False)
        assert out.predicted_fidelity == pytest.approx(1.0, abs=1e-12)


class TestQuditAndW:
    def qudit_config(self, spec1=None, spec2=None, **kw):
        args = dict(
            dimension=4,
            spec1=spec1 or source_spec(t_larmor=3.9),
            spec2=spec2 or target_spec(t_larmor=3.9),
            source_cells=cells(MemoryId.MAQM1, [(2, 2), (2, 3), (3, 2), (3, 3)]),
            target_cells=cells(MemoryId.MAQM2, [(2, 2), (2, 3), (3, 2), (3, 3)]),
            t1=11.7,
            tau=3.9,
            t2=7.8,
        )
        args.update(kw)
        return ProtocolConfig(**args)

    def test_lossless_qudit_run(self):
        out = run_protocol(self.qudit_config())
        assert_allclose(out.branch_amplitudes, np.full(4, 0.5), rtol=0, atol=1e-12)
        assert out.predicted_fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.survival_probability == pytest.approx(1.0, abs=1e-12)

    def test_w_projection_uniform_case(self):
        out = run_protocol(self.qudit_config())
        assert project_w(out) == pytest.approx(1.0, abs=1e-12)
        v = out.branch_amplitudes
        assert_allclose(np.abs(v / np.linalg.norm(v)), 0.5, rtol=0, atol=1e-12)

    def test_w_projection_one_dead_branch(self):
        # killing one of four branches leaves |<W|psi>|^2 = 3/4; brute-force
        # the overlap here rather than trusting the library's arithmetic
        spec1 = source_spec(eta_read=read_map({(3, 3): 0.0}), t_larmor=3.9)
        f_w = project_w(run_protocol(self.qudit_config(spec1=spec1)))
        v = np.array([1.0, 1.0, 1.0, 0.0]) / np.sqrt(3.0)
        brute = abs(np.vdot(np.full(4, 0.5), v)) ** 2
        assert_allclose(brute, 0.75, rtol=0, atol=1e-15)
        assert_allclose(f_w, 0.75, rtol=0, atol=1e-12)

    def test_w_projection_all_dead(self):
        spec1 = source_spec(eta_read=0.0, t_larmor=3.9)
        out = run_protocol(self.qudit_config(spec1=spec1))
        assert out.predicted_fidelity == 0.0
        with pytest.raises(PostSelectionError):
            project_w(out)


class TestConfigValidation:
    def test_mismatched_cell_counts(self):
        with pytest.raises(ValueError):
            qubit_config(source_cells=cells(MemoryId.MAQM1, [(0, 0)]))

    def test_duplicate_cells(self):
        with pytest.raises(ValueError):
            qubit_config(source_cells=cells(MemoryId.MAQM1, [(1, 1), (1, 1)]))

    def test_wrong_memory(self):
        with pytest.raises(ValueError):
            qubit_config(source_cells=TARGET_PAIR)

    def test_bad_retrieval_order(self):
        with pytest.raises(ValueError):
            qubit_config(retrieval_order=(0, 0))

    @pytest.mark.parametrize("dimension", [1, 0, -2])
    def test_fewer_than_two_branches_rejected(self, dimension):
        with pytest.raises(ValueError, match="^dimension: must be at least 2$"):
            qubit_config(dimension=dimension)

    @pytest.mark.parametrize("field, message", [
        ("write_phases", "one write phase per branch"),
        ("drifts", "one drift phase per bin"),
        ("retrieval_order", "must be a permutation of the bins"),
    ])
    def test_an_empty_tuple_is_not_the_default(self, field, message):
        # None gives zeros or the identity order; () is a wrong length
        with pytest.raises(ValueError, match=message):
            qubit_config(**{field: ()})

    def test_drifts_need_one_entry_per_bin(self):
        for drifts in ((0.0,), (0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="one drift phase per bin"):
                qubit_config(drifts=drifts)

    @pytest.mark.parametrize("field, value, rule", [
        *((field, value, rule) for field, rule in (
            ("t1", "must be positive"),
            ("tau", "must be at least 0.002, two steps of the 0.001 us timing grid"),
            ("t2", "must be non-negative"),
        ) for value in (math.nan, -math.inf, -1.0)),
        *((field, value, "must be at most 1e+06") for field in ("t1", "tau", "t2")
          for value in (math.inf, np.nextafter(MAX_TIME_US, math.inf), 1e306, 1e308)),
        ("t1", 0.0, "must be positive"),
        *(("tau", value, "must be at least 0.002") for value in
          (5e-324, 0.001, np.nextafter(MIN_TAU_US, 0.0))),
        ("t2", -5e-324, "must be non-negative"),
    ])
    def test_a_time_outside_its_bounds_is_rejected_by_name(self, field, value, rule):
        # NaN, inf and the huge times once reached the schedule compiler
        with pytest.raises(ValueError, match="^" + re.escape(f"{field}: {rule}")):
            qubit_config(**{field: value})

    @pytest.mark.parametrize("field", ["write_phases", "drifts"])
    @pytest.mark.parametrize("phases, first_bad", [
        ((0.0, math.nan), 1), ((math.inf, 0.0), 0), ((-math.inf, math.nan), 0),
        ((0.25, np.float64(math.inf)), 1),
    ])
    def test_a_phase_that_is_not_finite_is_rejected_by_entry(self, field, phases, first_bad):
        # a NaN write phase once compiled to a valid schedule with one y
        # tone, and an infinite drift warned inside run_protocol
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{field}[{first_bad}]: must be a finite number")):
            qubit_config(**{field: phases})

    def test_finite_phases_past_one_turn_are_kept(self):
        config = qubit_config(write_phases=(0.0, -12.5), drifts=(1e300, 0.25))
        assert (config.write_phases, config.drifts) == ((0.0, -12.5), (1e300, 0.25))

    def test_herald_probability_reports_write_efficiency(self):
        # eta_write lives in the same row-major map layout as eta_read
        spec1 = source_spec(eta_write=read_map({(1, 1): 0.02, (1, 2): 0.04}, base=0.01))
        out = run_protocol(qubit_config(spec1=spec1), transfer=False)
        assert out.herald_probability == pytest.approx(0.03)
