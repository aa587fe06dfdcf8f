import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maqmsim.memory import CellAddress, MemoryId, MemorySpec, RfGrid, survival
from maqmsim.protocol import ProtocolConfig, bin_time, run_protocol
from maqmsim.schedule import (
    Channel,
    PulseEvent,
    Schedule,
    Tone,
    Violation,
    cell_to_rf,
    compile_schedule,
    schedule_from_jsonl,
    schedule_to_jsonl,
    superposition_rf,
    validate_schedule,
)

GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)


def spec1(t_larmor=7.8, tau_mem=65.0):
    return MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, 0.2, tau_mem, t_larmor, GRID1)


def spec2(t_larmor=1.3, tau_mem=27.8):
    return MemorySpec(MemoryId.MAQM2, 5, 6, 0.01, 0.2, tau_mem, t_larmor, GRID2,
                      eta_eit=0.2)


def cells(memory, coords):
    return tuple(CellAddress(memory, x, y) for x, y in coords)


def qubit_config(**kw):
    args = dict(
        dimension=2,
        spec1=spec1(),
        spec2=spec2(),
        source_cells=cells(MemoryId.MAQM1, [(1, 1), (1, 2)]),
        target_cells=cells(MemoryId.MAQM2, [(1, 1), (1, 2)]),
        t1=15.6,
        tau=7.8,
        t2=7.8,
    )
    args.update(kw)
    return ProtocolConfig(**args)


def qudit_config(**kw):
    args = dict(
        dimension=4,
        spec1=spec1(t_larmor=3.9),
        spec2=spec2(),
        source_cells=cells(MemoryId.MAQM1, [(2, 2), (2, 3), (3, 2), (3, 3)]),
        target_cells=cells(MemoryId.MAQM2, [(2, 2), (2, 3), (3, 2), (3, 3)]),
        t1=11.7,
        tau=3.9,
        t2=7.8,
    )
    args.update(kw)
    return ProtocolConfig(**args)


def timings(sched):
    """(t1, tau, t2) read back from the read and final-readout events; the write is at 0."""
    reads = [e.t_start_us for e in sched.on_channel(Channel.READ)]
    final = sched.on_channel(Channel.COUPLING_FINAL)[0].t_start_us
    return reads[0], reads[1] - reads[0], final - reads[-1]


class TestCellToRf:
    def test_first_memory_origin(self):
        assert cell_to_rf(spec1(), CellAddress(MemoryId.MAQM1, 0, 0)) == (97.0, 95.5)

    def test_first_memory_interior(self):
        fx, fy = cell_to_rf(spec1(), CellAddress(MemoryId.MAQM1, 2, 3))
        assert_allclose((fx, fy), (100.0, 100.0))

    def test_second_memory_origin(self):
        assert cell_to_rf(spec2(), CellAddress(MemoryId.MAQM2, 0, 0)) == (101.1, 99.0)

    def test_injective_and_within_span(self):
        seen = set()
        for spec in (spec1(), spec2()):
            for x in range(5):
                for y in range(6):
                    pair = cell_to_rf(spec, CellAddress(spec.memory, x, y))
                    assert (spec.memory, pair) not in seen
                    seen.add((spec.memory, pair))
                    assert spec.rf_grid.x_freq(0) <= pair[0] <= spec.rf_grid.x_freq(4)
                    assert spec.rf_grid.y_freq(0) <= pair[1] <= spec.rf_grid.y_freq(5)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            cell_to_rf(spec1(), CellAddress(MemoryId.MAQM1, 5, 0))


class TestSuperpositionRf:
    def test_single_cell(self):
        x_tones, y_tones = superposition_rf(spec1(), [CellAddress(MemoryId.MAQM1, 1, 1)],
                                            [1.0])
        assert x_tones == (Tone(98.5, 1.0, 0.0),)
        assert y_tones == (Tone(97.0, 1.0, 0.0),)

    def test_balanced_column_pair(self):
        pair = cells(MemoryId.MAQM1, [(1, 1), (1, 2)])
        x_tones, y_tones = superposition_rf(spec1(), pair,
                                            np.array([1.0, 1.0]) / np.sqrt(2))
        assert len(x_tones) == 1 and x_tones[0].amp == pytest.approx(1.0)
        assert [t.f_mhz for t in y_tones] == [97.0, 98.5]
        assert_allclose([t.amp for t in y_tones], [0.7071067811865476] * 2)
        assert_allclose([t.phase_rad for t in y_tones], [0.0, 0.0], atol=1e-15)

    def test_quadrature_pair_phase(self):
        pair = cells(MemoryId.MAQM1, [(1, 1), (1, 2)])
        x_tones, y_tones = superposition_rf(spec1(), pair,
                                            np.array([1.0, -1.0j]) / np.sqrt(2))
        assert_allclose(y_tones[1].phase_rad - y_tones[0].phase_rad, -np.pi / 2)

    def test_block_pattern_factorizes(self):
        block = cells(MemoryId.MAQM1, [(2, 2), (2, 3), (3, 2), (3, 3)])
        x_tones, y_tones = superposition_rf(spec1(), block, np.full(4, 0.5))
        assert len(x_tones) == 2 and len(y_tones) == 2
        assert_allclose([t.amp for t in x_tones], [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert_allclose([t.amp for t in y_tones], [1 / np.sqrt(2)] * 2, atol=1e-12)
        # product of per-axis amplitudes restores the per-cell weight
        assert_allclose(x_tones[0].amp * y_tones[0].amp, 0.5, atol=1e-12)

    def test_diagonal_pattern_rejected(self):
        diag = cells(MemoryId.MAQM1, [(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            superposition_rf(spec1(), diag, np.array([1.0, 1.0]) / np.sqrt(2))

    @pytest.mark.parametrize("coords, weights, message", [
        ([(1, 1), (1, 2)], [1.0], "need one weight per cell"),
        ([], [], "need one weight per cell"),
        ([(1, 1), (1, 1)], [0.6, 0.8], "cells must be distinct"),
    ])
    def test_cells_and_weights_must_pair_up(self, coords, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            superposition_rf(spec1(), cells(MemoryId.MAQM1, coords), weights)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError):
            superposition_rf(spec1(), [CellAddress(MemoryId.MAQM1, 0, 0)], [0.5])

    def test_phase_convention_keeps_pattern(self):
        # a global phase moved between axes must still reproduce the weights
        block = cells(MemoryId.MAQM1, [(2, 2), (2, 3), (3, 2), (3, 3)])
        w = np.array([0.5, 0.5j, 0.5, 0.5j])
        x_tones, y_tones = superposition_rf(spec1(), block, w)
        u = {t.f_mhz: t.amp * np.exp(1j * t.phase_rad) for t in x_tones}
        v = {t.f_mhz: t.amp * np.exp(1j * t.phase_rad) for t in y_tones}
        g = spec1().rf_grid
        for c, expected in zip(block, w):
            got = u[g.x_freq(c.x)] * v[g.y_freq(c.y)]
            assert_allclose(got, expected, atol=1e-12)


class TestCompileQubit:
    def test_bin_and_final_times(self):
        sched = compile_schedule(qubit_config())
        assert sched.valid
        reads = sched.on_channel(Channel.READ)
        assert [e.t_start_us for e in reads] == [15.6, 23.4]
        final = sched.on_channel(Channel.COUPLING_FINAL)
        assert [e.t_start_us for e in final] == [31.2]

    def test_pulse_durations(self):
        sched = compile_schedule(qubit_config())
        durations = {e.channel: e.duration_us for e in sched.events}
        assert durations[Channel.WRITE] == 0.1
        assert durations[Channel.READ] == 0.5
        assert durations[Channel.COUPLING] == 0.7
        assert durations[Channel.COUPLING_FINAL] == 1.0
        assert durations[Channel.AOD_RETUNE] == 2.0

    def test_retune_carries_next_cell(self):
        sched = compile_schedule(qubit_config())
        retunes = sched.on_channel(Channel.AOD_RETUNE)
        assert len(retunes) == 1
        assert retunes[0].t_start_us == pytest.approx(16.1)
        # next bin reads cell (1, 2): x index 1 -> 98.5, y index 2 -> 98.5
        assert retunes[0].x_tones[0].f_mhz == 98.5
        assert retunes[0].y_tones[0].f_mhz == 98.5

    def test_coupling_co_starts_with_read(self):
        sched = compile_schedule(qubit_config())
        reads = sched.on_channel(Channel.READ)
        couplings = sched.on_channel(Channel.COUPLING)
        assert [e.t_start_us for e in reads] == [e.t_start_us for e in couplings]

    def test_write_superposition_tones(self):
        sched = compile_schedule(qubit_config())
        write = sched.on_channel(Channel.WRITE)[0]
        assert write.t_start_us == 0.0
        assert [t.f_mhz for t in write.x_tones] == [98.5]
        assert_allclose([t.amp for t in write.y_tones], [0.7071067811865476] * 2)

    def test_events_sorted(self):
        sched = compile_schedule(qubit_config())
        times = [e.t_start_us for e in sched.events]
        assert times == sorted(times)


class TestCompileQudit:
    def test_bin_times(self):
        sched = compile_schedule(qudit_config())
        assert sched.valid
        reads = sched.on_channel(Channel.READ)
        assert_allclose([e.t_start_us for e in reads], [11.7, 15.6, 19.5, 23.4])
        assert sched.on_channel(Channel.COUPLING_FINAL)[0].t_start_us == 31.2

    def test_three_retunes(self):
        sched = compile_schedule(qudit_config())
        retunes = sched.on_channel(Channel.AOD_RETUNE)
        assert_allclose([e.t_start_us for e in retunes], [12.2, 16.1, 20.0])

    def test_non_product_write_pattern_rejected(self):
        cfg = qudit_config(write_phases=(0.0, 0.0, 0.0, np.pi))
        with pytest.raises(ValueError):
            compile_schedule(cfg)


class TestValidation:
    def test_a_severity_is_error_or_warning(self):
        assert Violation("warning", "code", "message").severity == "warning"
        with pytest.raises(ValueError, match="severity must be 'error' or 'warning'"):
            Violation("fatal", "code", "message")

    def test_paper_timing_is_clean(self):
        sched = compile_schedule(qubit_config())
        assert sched.violations == ()

    def test_short_bin_spacing_flagged(self):
        cfg = qubit_config(tau=1.0, spec1=spec1(t_larmor=0.5))
        sched = compile_schedule(cfg)
        codes = {v.code for v in sched.violations if v.severity == "error"}
        assert "bin_gap" in codes
        assert not sched.valid

    def test_larmor_misaligned_t1_flagged(self):
        cfg = qubit_config(t1=16.0)
        sched = compile_schedule(cfg)
        codes = {v.code for v in sched.violations}
        assert "larmor_t1" in codes
        assert not sched.valid

    @pytest.mark.parametrize("offset, flagged", [(0.05, False), (0.1, True)])
    def test_larmor_tolerance_is_one_percent_of_a_period(self, offset, flagged):
        # 0.05 us and 0.1 us are 0.64% and 1.28% of the 7.8 us source period
        cfg = qubit_config(t1=15.6 + offset)
        sched = compile_schedule(cfg)
        assert ("larmor_t1" in {v.code for v in sched.violations}) == flagged

    def test_larmor_misaligned_t2_flagged(self):
        cfg = qubit_config(t2=8.0, spec2=spec2(t_larmor=1.3))
        sched = compile_schedule(cfg)
        assert "larmor_t2" in {v.code for v in sched.violations}

    def test_long_dwell_warns_then_errors(self):
        cfg = qubit_config(spec1=spec1(tau_mem=20.0))
        sched = compile_schedule(cfg)
        dwell = [v for v in sched.violations if v.code == "dwell"]
        assert dwell and dwell[0].severity == "warning"
        assert sched.valid  # warnings do not invalidate

        cfg = qubit_config(spec1=spec1(tau_mem=10.0))
        sched = compile_schedule(cfg)
        dwell = [v for v in sched.violations if v.code == "dwell"]
        assert dwell and dwell[0].severity == "error"

    def test_overlapping_coupling_pulses_flagged(self):
        tone = (Tone(100.0, 1.0, 0.0),)
        events = (
            PulseEvent(10.0, 0.7, Channel.COUPLING, tone, tone),
            PulseEvent(10.3, 0.7, Channel.COUPLING, tone, tone),
        )
        codes = {v.code for v in validate_schedule(Schedule(events), spec1(), spec2())}
        assert "overlap" in codes

    def test_guard_spacing_flagged(self):
        tone = (Tone(100.0, 1.0, 0.0),)
        events = (
            PulseEvent(10.0, 0.5, Channel.READ, tone, tone),
            PulseEvent(10.51, 0.5, Channel.READ, tone, tone),
        )
        codes = {v.code for v in validate_schedule(Schedule(events), spec1(), spec2())}
        assert "guard" in codes
        assert "overlap" not in codes


class TestCrossModuleConsistency:
    def test_derived_timings_match_config(self):
        cfg = qubit_config()
        sched = compile_schedule(cfg)
        t1, tau, t2 = timings(sched)
        assert_allclose([t1, tau, t2], [15.6, 7.8, 7.8], rtol=0, atol=1e-9)

    def test_schedule_times_reproduce_protocol_survival(self):
        cfg = qudit_config()
        sched = compile_schedule(cfg)
        reads = sched.on_channel(Channel.READ)
        for i, event in enumerate(reads):
            s_direct = survival(cfg.spec1, bin_time(cfg, i))
            s_schedule = survival(cfg.spec1, event.t_start_us)
            assert_allclose(s_schedule, s_direct, rtol=0, atol=1e-9)

    def test_valid_schedule_runs_cleanly(self):
        cfg = qubit_config()
        sched = compile_schedule(cfg)
        assert sched.valid
        t1, tau, t2 = timings(sched)
        rerun = ProtocolConfig(
            dimension=2, spec1=cfg.spec1, spec2=cfg.spec2,
            source_cells=cfg.source_cells, target_cells=cfg.target_cells,
            t1=t1, tau=tau, t2=t2,
        )
        a = run_protocol(cfg)
        b = run_protocol(rerun)
        assert_allclose(a.branch_amplitudes, b.branch_amplitudes, rtol=0, atol=1e-9)


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        for cfg in (qubit_config(), qudit_config()):
            sched = compile_schedule(cfg)
            text = schedule_to_jsonl(sched)
            again = schedule_to_jsonl(schedule_from_jsonl(text))
            assert again == text
            # blank lines carry nothing
            spaced = "\n" + text.replace("\n", "\n \n")
            assert schedule_to_jsonl(schedule_from_jsonl(spaced)) == text

    def test_an_axis_without_tones_writes_no_line(self):
        first = schedule_to_jsonl(compile_schedule(qubit_config())).splitlines()[0] + "\n"
        event, = schedule_from_jsonl(first).events
        assert (len(event.x_tones), event.y_tones) == (1, ())
        assert schedule_to_jsonl(Schedule((event,))) == first

    def test_parsed_invalid_schedule_no_longer_claims_valid(self):
        cfg = qubit_config(t1=16.0)
        sched = compile_schedule(cfg)
        assert not sched.valid
        parsed = schedule_from_jsonl(schedule_to_jsonl(sched))
        assert parsed.violations is None
        with pytest.raises(ValueError, match="validate_schedule"):
            parsed.valid
        assert validate_schedule(parsed, cfg.spec1, cfg.spec2) == sched.violations

    def test_line_fields(self):
        sched = compile_schedule(qubit_config())
        lines = schedule_to_jsonl(sched).splitlines()
        assert len(lines) == 14  # write 2, 2x(read+coupling) 8, retune 2, final 2
        first = json.loads(lines[0])
        assert list(first) == ["t_start_us", "duration_us", "channel", "axis", "tones"]
        assert list(first["tones"][0]) == ["f_mhz", "amp", "phase_rad"]
        axes = [json.loads(line)["axis"] for line in lines]
        assert axes == ["x", "y"] * 7

    def test_a_non_finite_number_is_refused_not_written(self):
        sched = compile_schedule(qubit_config())
        event = sched.events[0]
        tone = dataclasses.replace(event.x_tones[0], f_mhz=float("inf"))
        broken = dataclasses.replace(sched, events=(
            dataclasses.replace(event, x_tones=(tone,) + event.x_tones[1:]),) + sched.events[1:])
        with pytest.raises(ValueError, match="JSON compliant"):
            schedule_to_jsonl(broken)

    def test_compile_deterministic(self):
        a = schedule_to_jsonl(compile_schedule(qubit_config()))
        b = schedule_to_jsonl(compile_schedule(qubit_config()))
        assert a == b

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            schedule_from_jsonl("not json\n")
        with pytest.raises(ValueError):
            schedule_from_jsonl('{"t_start_us": 0.0}\n')


# line 2 of the compiled qubit schedule, the write event's y axis
_TONE = {"f_mhz": 97.0, "amp": 1.0, "phase_rad": 0.0}
_LINE = {"t_start_us": 0.0, "duration_us": 0.1, "channel": "write", "axis": "y",
         "tones": [_TONE]}


@pytest.mark.parametrize("line, field", [
    (5, "must be a JSON object"),
    ({**_LINE, "tones": 3}, "tones "),
    ({**_LINE, "tones": [[1, 2, 3]]}, "tones "),
    ({**_LINE, "tones": []}, "tones "),
    ({**_LINE, "t_start_us": "a"}, "t_start_us "),
    ({**_LINE, "t_start_us": -1.0}, "t_start_us "),
    ({**_LINE, "duration_us": float("nan")}, "duration_us "),
    ({**_LINE, "channel": [1]}, "channel "),
    ({**_LINE, "channel": "bogus"}, "channel "),
    ({**_LINE, "channel": "clean"}, "channel "),
    ({**_LINE, "tones": [{**_TONE, "amp": "1"}]}, r"tones\[0\]\.amp "),
    ({**_LINE, "tones": [{"f_mhz": 97.0, "phase_rad": 0.0}]},
     r"missing field 'tones\[0\]\.amp'"),
    ({**_LINE, "tones": [{**_TONE, "amp": 2.0}]}, r"tone amplitude must be in \[0, 1\]"),
    ({**_LINE, "duration_us": 0.0}, "duration_us must be positive"),
    ({**_LINE, "axis": "x"}, "duplicate x axis for event at t=0.0 on channel 'write'"),
], ids=["not-an-object", "tones-number", "tones-list-of-lists", "tones-empty",
        "t_start-string", "t_start-negative", "duration-nan", "channel-list",
        "channel-unknown", "channel-clean", "amp-string", "amp-missing", "amp-above-one",
        "duration-zero", "axis-repeated"])
def test_malformed_line_is_named_by_number_and_field(line, field):
    lines = schedule_to_jsonl(compile_schedule(qubit_config())).splitlines()
    assert json.loads(lines[1]).keys() == _LINE.keys()
    lines[1] = json.dumps(line)
    with pytest.raises(ValueError, match=f"^line 2: {field}"):
        schedule_from_jsonl("\n".join(lines) + "\n")
