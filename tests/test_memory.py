import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maqmsim.cli import parse_experiment_config
from maqmsim.memory import (
    TIME_GRID_US,
    CellAddress,
    MemoryId,
    MemorySpec,
    RfGrid,
    survival,
)
from maqmsim.protocol import ProtocolConfig, run_protocol


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
        assert spec.eta_read.shape == (6, 5)
        assert np.all(spec.eta_read == 0.2)

    def test_per_cell_map_row_major(self):
        values = np.linspace(0.1, 0.9, 30).tolist()
        spec = spec_with(eta_read=values)
        # row-major: cell (x, y) = (3, 2) is entry y * n_x + x
        assert spec.eta_read[2, 3] == values[2 * 5 + 3]

    def test_maps_are_read_only(self):
        spec = spec_with()
        with pytest.raises(ValueError):
            spec.eta_read[0, 0] = 0.5

    def test_missing_eit_map_rejected(self):
        spec1 = spec_with()
        spec2 = spec_with(memory=MemoryId.MAQM2)
        cells1 = [CellAddress(MemoryId.MAQM1, x, 0) for x in range(2)]
        cells2 = [CellAddress(MemoryId.MAQM2, x, 0) for x in range(2)]
        config = ProtocolConfig(2, spec1, spec2, cells1, cells2, t1=15.6, tau=7.8, t2=7.8)
        run_protocol(config, transfer=False)
        with pytest.raises(ValueError, match="MAQM2 has no eit efficiency map"):
            run_protocol(config, transfer=True)

    def test_wrong_memory_rejected(self):
        with pytest.raises(ValueError, match="cell belongs to MAQM2, spec is MAQM1"):
            spec_with().require_cell(CellAddress(MemoryId.MAQM2, 0, 0))

    def test_out_of_grid_rejected(self):
        spec = spec_with()
        spec.require_cell(CellAddress(MemoryId.MAQM1, 4, 5))
        for x, y in [(5, 0), (0, 6), (10**19, 1)]:
            with pytest.raises(ValueError, match=rf"cell \({x}, {y}\) outside 5x6 grid of MAQM1"):
                spec.require_cell(CellAddress(MemoryId.MAQM1, x, y))

    def test_efficiency_values_validated(self):
        with pytest.raises(ValueError):
            spec_with(eta_read=1.2)
        with pytest.raises(ValueError):
            spec_with(eta_read=[0.5] * 29)

    @pytest.mark.parametrize("overrides, message", [
        ({"eta_read": "0.2"}, "eta_read must be a number, got '0.2'"),
        ({"eta_write": [0.01] * 29 + [True]}, "eta_write[29] must be a number, got True"),
        ({"n_x": 0}, "grid sizes must be >= 1"),
        ({"n_y": -1}, "grid sizes must be >= 1"),
    ])
    def test_a_spec_a_library_caller_builds_is_checked(self, overrides, message):
        # the config reader checks these first, so only a direct caller meets them
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            spec_with(**overrides)


class TestSpecTimes:
    @pytest.mark.parametrize("t_larmor", [1e-310, 0.0009, np.nextafter(TIME_GRID_US, 0.0),
                                          0.0, -7.8])
    def test_a_larmor_period_below_the_timing_grid_is_rejected(self, t_larmor):
        # at 1e-310, pi t / t_larmor overflowed and survival was NaN
        with pytest.raises(ValueError, match=r"^t_larmor: must be at least 0\.001, the timing grid$"):
            spec_with(t_larmor=t_larmor)
        assert spec_with(t_larmor=TIME_GRID_US).t_larmor == TIME_GRID_US

    @pytest.mark.parametrize("field, value, message", [
        ("tau_mem", 0.0, "must be a finite positive number"),
        ("tau_mem", np.inf, "must be a finite positive number"),
        ("t_larmor", np.nan, "must be a finite number"),
        ("t_larmor", np.inf, "must be a finite number"),
    ])
    def test_a_time_error_opens_with_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field}: {message}$"):
            spec_with(**{field: value})


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

    @pytest.mark.parametrize("field", ["x_step", "y_step"])
    @pytest.mark.parametrize("step, rule", [
        (0.0, "must be positive"), (-1.5, "must be positive"),
        (-np.inf, "must be a finite number"), (np.nan, "must be a finite number"),
    ])
    def test_each_step_is_named(self, field, step, rule):
        steps = {"x_step": 1.5, "y_step": 1.5, field: step}
        with pytest.raises(ValueError, match=f"^{field}: {rule}$"):
            RfGrid(97.0, steps["x_step"], 95.5, steps["y_step"])

    @pytest.mark.parametrize("grid, axis", [(RfGrid(1e308, 1e308, 95.5, 1.5), "x"),
                                            (RfGrid(97.0, 1.5, 1e308, 1e308), "y")])
    def test_a_spec_rejects_a_last_cell_tone_that_overflows(self, grid, axis):
        # each number is finite, but origin + step * (n - 1) is inf
        message = (rf"rf_grid: {axis}_origin \+ {axis}_step \* \(n_{axis} - 1\), "
                   rf"the last cell's {axis} tone, must be a finite number")
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec_with(rf_grid=grid)
        # one cell along that axis has only the origin's tone
        spec_with(rf_grid=grid, **{f"n_{axis}": 1})


class TestSpecFromDict:
    def test_reads_a_literal_dict(self):
        doc = {
            "n_x": 2, "n_y": 3,
            "eta_write": 0.0, "eta_read": 0.5,
            "eta_eit": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            "tau_mem": 27.8, "t_larmor": 1.3,
            "rf_grid": {"x_origin": 101.1, "x_step": 1.2, "y_origin": 99.0, "y_step": 1.2},
        }
        # the memory entry as the config reader sees it, in a minimal qubit config
        source = {"n_x": 2, "n_y": 3, "eta_write": 0.01, "eta_read": 0.2, "tau_mem": 65.0,
                  "t_larmor": 7.8, "rf_grid": doc["rf_grid"]}
        cells = [[1, 1], [1, 2]]
        config = {"seed": 1, "memories": {"MAQM1": source, "MAQM2": doc},
                  "protocol": {"dimension": 2, "source_cells": cells, "target_cells": cells,
                               "t1": 15.6, "tau": 7.8, "t2": 7.8}}
        spec = parse_experiment_config(config).protocol.spec2
        assert spec.memory is MemoryId.MAQM2
        assert (spec.n_x, spec.n_y) == (2, 3)
        assert (spec.tau_mem, spec.t_larmor) == (27.8, 1.3)
        assert spec.rf_grid == RfGrid(101.1, 1.2, 99.0, 1.2)
        assert_allclose(spec.eta_write, np.zeros((3, 2)), rtol=0, atol=0)
        assert_allclose(spec.eta_read, np.full((3, 2), 0.5), rtol=0, atol=0)
        # row-major: index y * n_x + x
        assert_allclose(spec.eta_eit, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], rtol=0, atol=0)
        assert spec.eta_eit[2, 1] == 0.6
