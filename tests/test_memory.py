import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maqmsim.memory import (
    CellAddress,
    MemoryId,
    MemorySpec,
    RfGrid,
    cell_efficiency,
    default_efficiency_map,
    eit_efficiency_probe,
    memory_spec_from_dict,
    memory_spec_to_dict,
    survival,
)


def reference_survival(t, tau_mem, t_larmor):
    # independent restatement of the decay model, kept deliberately naive
    gauss = np.exp(-((t / tau_mem) ** 2))
    larmor = np.cos(np.pi * t / t_larmor) ** 2
    return gauss * larmor


def spec_with(**overrides):
    base = dict(
        memory=MemoryId.MAQM1,
        n_x=5,
        n_y=6,
        eta_write=0.01,
        eta_read=0.2,
        tau_mem=65.0,
        t_larmor=7.8,
        rf_grid=RfGrid(97.0, 1.5, 95.5, 1.5),
    )
    base.update(overrides)
    return MemorySpec(**base)


class TestSurvival:
    def test_matches_reference_on_a_grid(self):
        spec = spec_with()
        for t in np.linspace(0.0, 40.0, 113):
            assert_allclose(survival(spec, t), reference_survival(t, 65.0, 7.8), rtol=0, atol=1e-14)

    def test_anchor_value_at_two_larmor_periods(self):
        # t = 15.6 us is exactly two Larmor periods, so only Gaussian decay remains
        spec = spec_with()
        expected = reference_survival(15.6, 65.0, 7.8)
        assert_allclose(expected, np.exp(-((15.6 / 65.0) ** 2)), rtol=0, atol=1e-15)
        assert_allclose(survival(spec, 15.6), 0.9440274829178357, rtol=0, atol=1e-12)

    def test_zero_time_is_unity(self):
        assert survival(spec_with(), 0.0) == 1.0

    def test_half_larmor_period_kills_retrieval(self):
        assert_allclose(survival(spec_with(), 3.9), 0.0, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            survival(spec_with(), -1.0)

    def test_monotone_decay_at_larmor_multiples(self):
        spec = spec_with()
        values = [survival(spec, 7.8 * k) for k in range(6)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCellEfficiency:
    def test_scalar_map_broadcasts(self):
        spec = spec_with(eta_read=0.2)
        for x in range(5):
            for y in range(6):
                cell = CellAddress(MemoryId.MAQM1, x, y)
                assert cell_efficiency(spec, cell, "read") == 0.2

    def test_per_cell_map_row_major(self):
        values = np.linspace(0.1, 0.9, 30).tolist()
        spec = spec_with(eta_read=values)
        # row-major: index = y * n_x + x
        cell = CellAddress(MemoryId.MAQM1, 3, 2)
        assert_allclose(cell_efficiency(spec, cell, "read"), values[2 * 5 + 3], rtol=0, atol=0)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            cell_efficiency(spec_with(), CellAddress(MemoryId.MAQM1, 0, 0), "teleport")

    def test_missing_eit_map_rejected(self):
        with pytest.raises(ValueError):
            cell_efficiency(spec_with(), CellAddress(MemoryId.MAQM1, 0, 0), "eit")

    def test_wrong_memory_rejected(self):
        with pytest.raises(ValueError):
            cell_efficiency(spec_with(), CellAddress(MemoryId.MAQM2, 0, 0), "read")

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            cell_efficiency(spec_with(), CellAddress(MemoryId.MAQM1, 5, 0), "read")

    def test_efficiency_values_validated(self):
        with pytest.raises(ValueError):
            spec_with(eta_read=1.2)
        with pytest.raises(ValueError):
            spec_with(eta_read=[0.5] * 29)


class TestEitProbe:
    def test_ideal_memory_estimates_unity_with_zero_error(self):
        spec = spec_with(eta_eit=1.0, tau_mem=1e18)
        cell = CellAddress(MemoryId.MAQM1, 2, 2)
        res = eit_efficiency_probe(spec, cell, mean_photon_number=0.5, shots=200, seed=11)
        assert res.estimate == 1.0
        assert res.stderr == 0.0

    def test_estimate_tracks_true_efficiency(self):
        spec = spec_with(eta_eit=0.35, tau_mem=1e18)
        cell = CellAddress(MemoryId.MAQM1, 0, 0)
        res = eit_efficiency_probe(spec, cell, mean_photon_number=2.0, shots=20000, seed=3)
        assert abs(res.estimate - 0.35) < 4 * res.stderr
        assert 0.0 < res.stderr < 0.01

    def test_deterministic_in_seed(self):
        spec = spec_with(eta_eit=0.5, tau_mem=1e18)
        cell = CellAddress(MemoryId.MAQM1, 1, 4)
        a = eit_efficiency_probe(spec, cell, 1.0, 500, seed=42)
        b = eit_efficiency_probe(spec, cell, 1.0, 500, seed=42)
        assert a == b

    def test_storage_time_depresses_estimate(self):
        spec = spec_with(eta_eit=0.8, tau_mem=30.0, t_larmor=1e9)
        cell = CellAddress(MemoryId.MAQM1, 0, 0)
        short = eit_efficiency_probe(spec, cell, 3.0, 50000, seed=5, t_store=0.0)
        long = eit_efficiency_probe(spec, cell, 3.0, 50000, seed=5, t_store=20.0)
        assert long.estimate < short.estimate


class TestRfGrid:
    def test_tone_frequencies(self):
        grid = RfGrid(97.0, 1.5, 95.5, 1.5)
        assert_allclose(grid.x_freq(0), 97.0)
        assert_allclose(grid.x_freq(4), 103.0)
        assert_allclose(grid.y_freq(0), 95.5)
        assert_allclose(grid.y_freq(5), 103.0)

    def test_second_memory_grid(self):
        grid = RfGrid(101.1, 1.2, 99.0, 1.2)
        assert_allclose([grid.x_freq(i) for i in range(5)], [101.1, 102.3, 103.5, 104.7, 105.9])
        assert_allclose([grid.y_freq(j) for j in range(6)], [99.0, 100.2, 101.4, 102.6, 103.8, 105.0])


class TestSerialization:
    def test_round_trip(self):
        spec = spec_with(eta_eit=np.linspace(0.1, 0.4, 30).tolist())
        doc = memory_spec_to_dict(spec)
        clone = memory_spec_from_dict(doc)
        assert clone.memory == spec.memory
        assert_allclose(clone.eta_eit, spec.eta_eit)
        assert clone.rf_grid == spec.rf_grid

    def test_json_is_plain_data(self):
        doc = memory_spec_to_dict(spec_with())
        json.dumps(doc)  # must not raise
        assert doc["memory"] == "MAQM1"
        assert doc["n_x"] == 5 and doc["n_y"] == 6

    def test_default_map_within_bounds(self):
        values = default_efficiency_map(5, 6, seed=7)
        assert values.shape == (6, 5)
        assert values.min() >= 0.10 and values.max() <= 0.30
        again = default_efficiency_map(5, 6, seed=7)
        assert_allclose(values, again, rtol=0, atol=0)
