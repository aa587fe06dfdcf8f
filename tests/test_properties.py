"""Invariants checked on generated inputs.

Under the default ``ci`` profile each property draws a modest, fixed
sequence of examples (``derandomize``), so the suite stays deterministic
and fast.  ``HYPOTHESIS_PROFILE=deep`` draws 20 times as many fresh
examples and keeps each failure in ``.hypothesis/``, where the next deep run
replays it first; a failure it finds becomes an ``@example`` row, or a plain
test through the property's check where the property draws through
``st.data()``.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.database import DirectoryBasedExampleDatabase
from hypothesis import strategies as st

from maqmsim import cli, detect, tomo
from maqmsim.cli import parse_experiment_config
from maqmsim.detect import CountsTable, Settings, coincidence_probabilities, tomography_settings
from maqmsim.memory import TIME_GRID_US, CellAddress, MemoryId, MemorySpec, RfGrid, survival
from maqmsim.protocol import (MAX_TIME_US, MIN_TAU_US, ProtocolConfig, bin_time, project_w,
                              run_protocol, storage_dwell)
from maqmsim.schedule import compile_schedule, schedule_from_jsonl, schedule_to_jsonl
import reference
from test_tomo import reference_objective, shipped_stage_table, stacked_problem

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "maqmsim" / "configs"
QUDIT = json.loads((CONFIG_DIR / "qudit_default.json").read_text())
QUBIT = json.loads((CONFIG_DIR / "qubit_default.json").read_text())
GRID1 = RfGrid(97.0, 1.5, 95.5, 1.5)
GRID2 = RfGrid(101.1, 1.2, 99.0, 1.2)
HALF_STEP = TIME_GRID_US / 2
# the longest storage a run reaches: d - 1 bins plus t2, each at most MAX_TIME_US
LONGEST_RUN_US = MAX_TIME_US * cli.MAX_DIMENSION

settings.register_profile("ci", max_examples=60, deadline=None, database=None,
                          derandomize=True)
settings.register_profile("deep", settings.get_profile("ci"), max_examples=20 * 60,
                          derandomize=False, database=DirectoryBasedExampleDatabase(
                              Path(__file__).resolve().parents[1] / ".hypothesis" / "deep"))
PROPERTY = settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
WIDE = settings(PROPERTY, max_examples=PROPERTY.max_examples * 5 // 2)   # 150 under ci


def times(low, exclude_low=False):
    """Times in [low, MAX_TIME_US]: any float, or a multiple of half a grid step,
    where snapping to the grid meets its ties."""
    k_low = max(1, math.ceil(low / HALF_STEP))
    return st.one_of(
        st.floats(low, MAX_TIME_US, exclude_min=exclude_low),
        st.integers(k_low, 4000).map(lambda k: k * HALF_STEP),
        st.integers(k_low, int(MAX_TIME_US / HALF_STEP)).map(lambda k: k * HALF_STEP),
    )


@PROPERTY
@given(d=st.sampled_from([2, 3, 4]), t1=times(0.0, exclude_low=True),
       tau=times(MIN_TAU_US), t2=times(0.0), data=st.data())
def test_compiled_schedules_round_trip_byte_for_byte(d, t1, tau, t2, data):
    phases = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))
    check_round_trip(round_trip_doc(d, t1, tau, t2, phases))


def round_trip_doc(d, t1, tau, t2, phases):
    cells = [[1, y] for y in range(d)]   # one column, so any write phases factor
    doc = copy.deepcopy(QUDIT)
    doc["protocol"] = {"dimension": d, "source_cells": cells, "target_cells": cells,
                       "t1": t1, "tau": tau, "t2": t2, "write_phases": phases}
    return doc


def check_round_trip(doc):
    """The schedule's text parses back to itself, and ``cli._compile``, whose memo
    the previous call left warm, gives the cold schedule's text and verdict."""
    cfg = parse_experiment_config(doc)
    cold = compile_schedule(cfg.protocol)
    text = schedule_to_jsonl(cold)
    assert schedule_to_jsonl(schedule_from_jsonl(text)) == text
    warm = cli._compile(cfg)
    assert (schedule_to_jsonl(warm), warm.violations) == (text, cold.violations)


def test_a_zero_write_phase_of_either_sign_compiles_its_own_schedule(monkeypatch):
    # -0.0 == 0.0, so only a key on the float's bits tells the two apart
    compiled = []
    monkeypatch.setattr(cli, "_last_compiled", [None, None])
    monkeypatch.setattr(cli, "compile_schedule",
                        lambda protocol: compiled.append(protocol) or compile_schedule(protocol))
    for zero in (0.0, -0.0):
        check_round_trip(round_trip_doc(4, 11.7, 3.9, 7.8, [0.3, zero, 0.0, 0.0]))
    assert [math.copysign(1.0, p.write_phases[1]) for p in compiled] == [1.0, -1.0]


# each time's bounds, as ProtocolConfig states them
TIME_BOUNDS = {"t1": lambda t: 0.0 < t <= MAX_TIME_US,
               "tau": lambda t: MIN_TAU_US <= t <= MAX_TIME_US,
               "t2": lambda t: 0.0 <= t <= MAX_TIME_US}
ANY_TIME = st.floats() | times(0.0) | st.floats(-MIN_TAU_US, 2 * MIN_TAU_US)


@WIDE
@given(t1=ANY_TIME, tau=ANY_TIME, t2=ANY_TIME)
@example(t1=MAX_TIME_US, tau=MAX_TIME_US, t2=MAX_TIME_US)
@example(t1=5e-324, tau=MIN_TAU_US, t2=0.0)
@example(t1=math.nan, tau=7.8, t2=7.8)
@example(t1=1e306, tau=7.8, t2=7.8)
@example(t1=15.6, tau=0.001, t2=7.8)
def test_a_protocol_config_from_any_times_round_trips_or_names_a_time(t1, tau, t2):
    # built directly, with no config reader in front of the type
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, 0.2, 65.0, 3.9, GRID1)
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0, 27.8, 1.3, GRID2, eta_eit=0.2)
    drawn = {"t1": t1, "tau": tau, "t2": t2}
    outside = [name for name, within in TIME_BOUNDS.items() if not within(drawn[name])]
    try:
        config = ProtocolConfig(4, spec1, spec2,
                                [CellAddress(MemoryId.MAQM1, 1, y) for y in range(4)],
                                [CellAddress(MemoryId.MAQM2, 1, y) for y in range(4)], **drawn)
    except ValueError as err:
        assert outside and str(err).startswith(f"{outside[0]}: "), (outside, err)
        return
    assert not outside
    text = schedule_to_jsonl(compile_schedule(config))
    assert schedule_to_jsonl(schedule_from_jsonl(text)) == text


@PROPERTY
@given(tau_mem=st.floats(0.0, 1e308, exclude_min=True),
       t_larmor=st.floats(TIME_GRID_US, 1e308),
       t=st.floats(0.0, LONGEST_RUN_US))
def test_survival_is_a_probability(tau_mem, t_larmor, t):
    # t_larmor >= TIME_GRID_US is MemorySpec's own bound
    spec = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, 0.2, tau_mem, t_larmor, GRID1)
    assert 0.0 <= survival(spec, t) <= 1.0


def qubit_config(eta_read, eta_eit, tau_mem, t_larmor, t1, tau, t2, phases, drifts):
    coords = [(1, 1), (1, 2)]
    read, eit = np.full((6, 5), 0.5), np.full((6, 5), 0.5)
    for (x, y), r, e in zip(coords, eta_read, eta_eit):
        read[y, x], eit[y, x] = r, e
    return ProtocolConfig(
        dimension=2,
        spec1=MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, read, tau_mem[0], t_larmor[0], GRID1),
        spec2=MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0, tau_mem[1], t_larmor[1], GRID2,
                         eta_eit=eit),
        source_cells=tuple(CellAddress(MemoryId.MAQM1, x, y) for x, y in coords),
        target_cells=tuple(CellAddress(MemoryId.MAQM2, x, y) for x, y in coords),
        t1=t1, tau=tau, t2=t2, write_phases=phases, drifts=drifts)


def pairs(elements):
    return st.tuples(elements, elements)


@PROPERTY
@given(eta_read=pairs(st.floats(0.0, 1.0)), eta_eit=pairs(st.floats(0.0, 1.0)),
       tau_mem=pairs(st.floats(1.0, 1e3)), t_larmor=pairs(st.floats(0.5, 20.0)),
       t1=st.floats(0.01, 100.0), tau=st.floats(0.01, 100.0), t2=st.floats(0.0, 100.0),
       phases=pairs(st.floats(-10.0, 10.0)), drifts=pairs(st.floats(-10.0, 10.0)),
       transfer=st.booleans())
def test_qubit_predicted_fidelity_closed_form(eta_read, eta_eit, tau_mem, t_larmor,
                                              t1, tau, t2, phases, drifts, transfer):
    cfg = qubit_config(eta_read, eta_eit, tau_mem, t_larmor, t1, tau, t2, phases, drifts)
    weights = []
    for k in range(2):
        w = eta_read[k] * survival(cfg.spec1, bin_time(cfg, k))
        if transfer:
            w *= eta_eit[k] * survival(cfg.spec2, storage_dwell(cfg, k))
        weights.append(w)
    a0, a1 = np.sqrt(weights)
    assume(a0 * a0 + a1 * a1 > 1e-100)
    delta = drifts[1] - drifts[0] if transfer else 0.0
    want = (a0**2 + a1**2 + 2 * a0 * a1 * math.cos(delta)) / (2 * (a0**2 + a1**2))
    got = run_protocol(cfg, transfer=transfer).predicted_fidelity
    assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)


def unit_rows(n, d):
    """(n, d) complex arrays with unit-norm rows."""
    parts = st.lists(st.floats(-1.0, 1.0), min_size=2 * d * n, max_size=2 * d * n)

    def build(values):
        rows = np.array(values).view(complex).reshape(n, d)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        assume(np.all(norms > 1e-3))
        return rows / norms

    return parts.map(build)


@PROPERTY
@given(d=st.integers(2, 5), n=st.integers(0, 8), eta_det=st.floats(0.0, 1.0, exclude_min=True),
       data=st.data())
def test_coincidence_probabilities_match_a_per_row_projection(d, n, eta_det, data):
    signal, atom = data.draw(unit_rows(n, d)), data.draw(unit_rows(n, d))
    amplitudes = data.draw(unit_rows(1, d))[0] * data.draw(st.floats(0.0, 1.0))
    block = Settings(tuple(f"row{i}" for i in range(n)), signal, atom)
    cells = tuple(CellAddress(MemoryId.MAQM1, x, 0) for x in range(d))
    config = ProtocolConfig(
        dimension=d,
        spec1=MemorySpec(MemoryId.MAQM1, 5, 1, 0.01, 1.0, 65.0, 3.9, GRID1),
        spec2=MemorySpec(MemoryId.MAQM2, 5, 1, 0.0, 0.0, 27.8, 1.3, GRID2, eta_eit=1.0),
        source_cells=cells,
        target_cells=tuple(dataclasses.replace(c, memory=MemoryId.MAQM2) for c in cells),
        t1=11.7, tau=3.9, t2=7.8)
    outcome = dataclasses.replace(run_protocol(config), branch_amplitudes=amplitudes)
    # the state sum_k v_k |k>|k> as a d^2 vector, projected row by row
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * (d + 1)] = amplitudes
    want = [abs(np.vdot(np.kron(s, a), psi)) ** 2 * eta_det for s, a in zip(signal, atom)]
    got = coincidence_probabilities(outcome, block, eta_det)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# rates of a bootstrap row: dark, small, and large enough for numpy's PTRS path
SUBSTREAM_RATES = np.array([0.0, 0.7, 3.0, 45.0, 2500.0])
# a derived seed is a uint64: one entropy word below 2**32, two above
derived_seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@PROPERTY
@given(seed=derived_seeds, count=st.integers(0, 300))
def test_substreams_are_numpys_seeded_streams(seed, count):
    states = detect.stream_states(seed, np.arange(count))
    assert states.dtype == np.uint64 and states.shape == (count, 4)
    assert states.tolist() == [
        np.random.SeedSequence([seed, r]).generate_state(4, np.uint64).tolist()
        for r in range(count)]
    taken = 0
    for r, rng in enumerate(detect._generators(states, count)):
        want = np.random.default_rng([seed, r])
        assert rng.binomial(5000, 0.3) == want.binomial(5000, 0.3)
        assert rng.binomial(40, 0.9) == want.binomial(40, 0.9)
        assert rng.poisson(SUBSTREAM_RATES).tolist() == want.poisson(SUBSTREAM_RATES).tolist()
        taken += 1
    assert taken == count


@PROPERTY
@given(seeds=st.lists(derived_seeds, max_size=30), shared=st.sampled_from(["", "seed", "index"]),
       data=st.data())
def test_one_pass_hash_is_numpys_seed_sequence(seeds, shared, data):
    # one pass over rows whose seeds are one and two entropy words long
    seeds += [data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(2**32, 2**64 - 1))]
    indices = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(seeds),
                                 max_size=len(seeds)))
    if shared == "seed":        # a scalar seed against an index array
        seeds = [seeds[0]] * len(seeds)
    elif shared == "index":     # a seed array against a scalar index
        indices = [indices[0]] * len(indices)
    got = detect.stream_states(seeds[0] if shared == "seed" else np.array(seeds, np.uint64),
                               indices[0] if shared == "index" else np.array(indices))
    assert got.dtype == np.uint64 and got.shape == (len(seeds), 4)
    assert got.tolist() == [np.random.SeedSequence([s, i]).generate_state(4, np.uint64).tolist()
                            for s, i in zip(seeds, indices)]


@PROPERTY
@given(seed=st.one_of(st.integers(0, 2**64), st.integers(0, 2**256)),
       n_settings=st.integers(0, 20), n_resamples=st.integers(2, 20))
def test_stream_plan_is_numpys_seed_sequence_tree(seed, n_settings, n_resamples):
    # a config seed of any length gives stage seeds (seed, s, k), each of
    # whose rows is the stream (stage seed, i)
    cfg = types.SimpleNamespace(seed=seed, n_resamples=n_resamples)
    plan, = cli._stream_plans([(cfg, n_settings)])
    want = []
    for s in (1, 2):
        for k, count in enumerate((n_settings, n_resamples)):
            stage_seed = np.random.SeedSequence([seed, s, k]).generate_state(1, np.uint64)[0]
            want.append([np.random.SeedSequence([stage_seed, i]).generate_state(4, np.uint64)
                         .tolist() for i in range(count)])
    assert [states.tolist() for states in plan] == want


@PROPERTY
@given(runs=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 20), st.integers(2, 20)),
                     min_size=1, max_size=4))
def test_a_plan_of_many_runs_is_each_runs_own_plan(runs):
    # a sweep hashes a group of points in one pass; each point's blocks must
    # be those it would hash alone
    pairs = [(types.SimpleNamespace(seed=seed, n_resamples=n_resamples), n_settings)
             for seed, n_settings, n_resamples in runs]
    plans = cli._stream_plans(pairs)
    assert len(plans) == len(pairs)
    for plan, pair in zip(plans, pairs):
        alone, = cli._stream_plans([pair])
        assert [states.tolist() for states in plan] == [states.tolist() for states in alone]


def tomography_rows(k):
    """k count vectors over the 16 tomography settings, some with dark settings."""
    counts = st.one_of(st.integers(0, 20), st.integers(0, 100_000))
    return st.lists(st.lists(counts, min_size=16, max_size=16), min_size=k, max_size=k)


@PROPERTY
@given(k=st.integers(1, 4), heralds=st.integers(1, 10**6),
       seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)), data=st.data())
def test_mle_is_a_density_matrix_and_a_stack_row_fits_as_alone(k, heralds, seed, data):
    # the rows are count vectors as a bootstrap draws them, free of the herald
    # cap; they start from one shared state, or (with a seed) each from its own
    table = CountsTable(tomography_settings().labels, [heralds] * 16, [0] * 16)
    projectors, _, exposures = tomo._aligned_projectors(table)
    observed = np.array(data.draw(tomography_rows(k)), dtype=float)
    if seed is None:
        init = np.eye(4) / 4
        starts = [init] * k
    else:
        g = np.random.default_rng(seed).normal(size=(2, k, 4, 4))
        g = g[0] + 1j * g[1]
        init = g @ g.conj().transpose(0, 2, 1)
        init /= np.trace(init, axis1=1, axis2=2).real[:, None, None]
        starts = init
    stack = tomo._fit_stack(projectors, observed, exposures, init, 1e-9, 1000)
    for r in range(k):
        alone = tomo._fit_stack(projectors, observed[r:r + 1], exposures, starts[r], 1e-9,
                                1000)
        assert stack.rho[r].tobytes() == alone.rho[0].tobytes()
        assert stack.log_likelihood[r] == alone.log_likelihood[0]
        assert stack.iterations[r] == alone.iterations[0]
        assert stack.converged[r] == alone.converged[0]
        assert stack.traces[r] == alone.traces[0]
        assert (stack.errors[r] is None) == (alone.errors[0] is None)
        rho = stack.rho[r]
        assert np.array_equal(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12


@PROPERTY
@given(seed=st.integers(0, 2**16), n_rows=st.integers(1, 4), shipped=st.booleans(),
       tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]), max_iter=st.integers(1, 1000))
def test_the_likelihood_gap_bound_is_never_below_the_gap(seed, n_rows, shipped, tol, max_iter):
    # a tol=1e-16 fit from the same start lies no higher than the optimum, so
    # its distance above a fit can only understate the true gap
    table = shipped_stage_table("qubit_default", 2)[1] if shipped else None
    projectors, stack, exposures = stacked_problem(n_rows, seed, table)
    fit = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, tol, max_iter)
    tight = tomo._fit_stack(projectors, stack, exposures, np.eye(4) / 4, 1e-16, 1000)
    for r in range(n_rows):
        gap = tight.log_likelihood[r] - fit.log_likelihood[r]
        bound = reference.likelihood_gap_bound(projectors, stack[r], exposures, fit.rho[r])
        assert bound >= gap - 1e-9


def check_stacked_objective(m, seed, heralds, random_projectors, zero_share, empty_rows,
                            pure, tiny, rows):
    """Each evaluated row of an m-row stack against the one-row reference, bit for bit."""
    rng = np.random.default_rng(seed)
    table = CountsTable(tomography_settings().labels, heralds, [0] * 16)
    projectors, _, exposures = tomo._aligned_projectors(table)
    if random_projectors:
        # random rank-1 projectors: unlike the tomography settings' sparse,
        # symmetric ones, their traces round differently in any other sum order
        kets = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
        projectors = kets[:, :, None] * kets.conj()[:, None, :]
    # random lower-triangular T, each row at its own scale
    x = rng.normal(size=(m, 16)) * 10.0 ** rng.uniform(-4, 3, size=(m, 1))
    # exact zeros of either sign: a fit from the maximally mixed state starts
    # with exact zero off-diagonals
    zeros = rng.random(size=(m, 16)) < zero_share
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    observed = rng.poisson(rng.uniform(0, 1000, size=(m, 1)), size=(m, 16)).astype(float)
    observed[empty_rows] = 0.0
    # T = |00><00| leaves the tomography settings dark to |00> at the Q_FLOOR
    # clip; a tiny T clips every trace and the normalization too
    x[pure] = np.eye(1, 16)[0]
    x[tiny] *= 1e-9
    objective = tomo._NegLogLikelihoods(projectors, observed, exposures)
    values, grads = objective(x[rows], np.array(rows))
    for i, r in enumerate(rows):
        value, gradient = reference_objective(projectors, observed[r], exposures)
        assert values[i].tobytes() == np.float64(value(x[r])).tobytes()
        assert grads[i].tobytes() == gradient(x[r]).tobytes()


@PROPERTY
@given(m=st.integers(1, 128), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stacked_objective_is_the_per_row_reference_bit_for_bit(m, seed, data):
    rows = data.draw(st.permutations(range(m)).map(lambda p: p[:max(1, m // 2)])
                     | st.just(list(range(m))))
    check_stacked_objective(
        m, seed, heralds=data.draw(st.lists(st.integers(1, 10**6), min_size=16, max_size=16)),
        random_projectors=data.draw(st.booleans()),
        zero_share=data.draw(st.sampled_from([0.0, 0.3, 0.8])),
        empty_rows=sorted(data.draw(st.sets(st.integers(0, m - 1)))),
        pure=data.draw(st.integers(0, m - 1)), tiny=data.draw(st.integers(0, m - 1)), rows=rows)


@pytest.mark.parametrize("random_projectors", [False, True])
@pytest.mark.parametrize("m", [102, tomo.MAX_STACK_ROWS])
def test_a_bootstrap_size_stack_is_the_per_row_reference_bit_for_bit(m, random_projectors):
    # a run fits its 100 resamples in one stack, and a block holds MAX_STACK_ROWS
    rows = np.random.default_rng(m).permutation(m)[:m - 3].tolist()
    check_stacked_objective(m, seed=m, heralds=[20_000] * 8 + [1] * 4 + [10**6] * 4,
                            random_projectors=random_projectors, zero_share=0.3,
                            empty_rows=[0, m // 2], pure=1, tiny=m - 1, rows=rows)


@PROPERTY
@given(k=st.integers(1, 4), d=st.integers(1, 6), data=st.data())
def test_unpack_inverts_pack_bit_for_bit(k, d, data):
    # any finite parts, signed zeros and infinities included; the diagonal
    # is real and the upper triangle +0
    parts = st.floats(allow_nan=False, width=64)
    lower, diag = np.tril_indices(d, -1), np.diag_indices(d)
    t_stack = np.zeros((k, d, d), dtype=complex)
    for t_mat in t_stack:
        t_mat.real[diag] = data.draw(st.lists(parts, min_size=d, max_size=d))
        for plane in (t_mat.real, t_mat.imag):
            plane[lower] = data.draw(st.lists(parts, min_size=d * (d - 1) // 2,
                                              max_size=d * (d - 1) // 2))
    objective = tomo._NegLogLikelihoods(np.zeros((1, d, d)), np.zeros((1, 1)), np.zeros(1))
    x = objective.pack(t_stack)
    assert x.shape == (k, d * d)
    assert objective.unpack(x).tobytes() == t_stack.tobytes()


# each sweepable field of the shipped qudit config: its documented range, and
# the values just past it; drift has no bound but finiteness
_HUGE = 1e300
SWEEP_BOUNDS = {
    "protocol.t1": (st.floats(0.0, MAX_TIME_US, exclude_min=True),
                    [0.0, np.nextafter(MAX_TIME_US, math.inf)]),
    "protocol.tau": (st.floats(MIN_TAU_US, MAX_TIME_US),
                     [np.nextafter(MIN_TAU_US, 0.0), np.nextafter(MAX_TIME_US, math.inf)]),
    "protocol.t2": (st.floats(0.0, MAX_TIME_US),
                    [-5e-324, np.nextafter(MAX_TIME_US, math.inf)]),
    "protocol.drift": (st.floats(-_HUGE, _HUGE), [math.inf, -math.inf, math.nan]),
    "detection.eta_det": (st.floats(0.0, 1.0, exclude_min=True),
                          [0.0, np.nextafter(1.0, 2.0)]),
    # the dark-rate ceiling (the largest coincidence probability) lies inside [0, 1]
    "detection.dark_rate": (st.floats(0.0, 1.0), [-5e-324, math.inf]),
    "detection.heralds_per_setting": (st.integers(1, cli.MAX_HERALDS),
                                      [0, cli.MAX_HERALDS + 1]),
    # small resample counts keep the property fast
    "estimation.n_resamples": (st.integers(2, 64), [1, cli.MAX_RESAMPLES + 1]),
    **{f"memories.{path}": (st.floats(0.0, 1.0), [-5e-324, np.nextafter(1.0, 2.0)])
       for path in ("MAQM1.eta_read", "MAQM1.eta_write", "MAQM2.eta_eit")},
    **{f"memories.{m}.tau_mem": (st.floats(0.0, _HUGE, exclude_min=True), [0.0, math.inf])
       for m in ("MAQM1", "MAQM2")},
    **{f"memories.{m}.t_larmor": (st.floats(TIME_GRID_US, _HUGE),
                                  [np.nextafter(TIME_GRID_US, 0.0), math.inf])
       for m in ("MAQM1", "MAQM2")},
}


def run_cli(argv, out: Path):
    """The exit code, output bytes (None if none was written) and stderr of one command."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


def run_once(doc, workdir):
    config = Path(workdir, "config.json")
    config.write_text(json.dumps(doc))
    return run_cli(["run", "--config", str(config)], Path(workdir, "report.json"))


@WIDE   # 15 fields, each inside and past its bound
@given(path=st.sampled_from(sorted(SWEEP_BOUNDS)), past=st.booleans(), data=st.data())
def test_a_sweepable_field_at_or_past_its_bound_runs_or_names_itself(path, past, data):
    assert set(SWEEP_BOUNDS) == cli._SWEEP_NUMERIC
    inside, outside = SWEEP_BOUNDS[path]
    value = data.draw(st.sampled_from(outside) if past else inside)
    doc = copy.deepcopy(QUDIT)
    *parents, key = path.split(".")
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    with tempfile.TemporaryDirectory() as workdir:
        code, report, err = run_once(doc, workdir)
        if code == 0:
            assert not past and err == ""
            assert run_once(doc, workdir) == (0, report, "")
        else:
            assert code == 2
            assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1, err


def grid_cells(d):
    """d distinct [x, y] cells of a 5x6 grid: anywhere, or filling an
    a x b rectangle (a b = d), the patterns the crossed deflectors factor."""
    anywhere = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                        min_size=d, max_size=d, unique=True)
    shapes = [(a, d // a) for a in range(1, 6) if d % a == 0 and d // a <= 6]
    rectangle = st.sampled_from(shapes).flatmap(lambda shape: st.tuples(
        st.lists(st.integers(0, 4), min_size=shape[0], max_size=shape[0], unique=True),
        st.lists(st.integers(0, 5), min_size=shape[1], max_size=shape[1], unique=True),
    )).flatmap(lambda axes: st.permutations([(x, y) for x in axes[0] for y in axes[1]]))
    return st.one_of(rectangle, rectangle, anywhere).map(lambda cells: [list(c) for c in cells])


def efficiency_maps():
    """One number for every cell, or a row-major list of one per cell."""
    values = st.floats(0.2, 1.0) | st.floats(0.0, 1.0)
    return values | st.lists(values, min_size=30, max_size=30)


@st.composite
def qudit_configs(draw, dimensions=st.integers(3, 6), n_resamples=st.integers(2, 50)):
    """Whole config documents with d drawn from ``dimensions``: 3..6, so no run
    fits an MLE, unless a caller asks for 2; ``n_resamples`` from its own."""
    d = draw(dimensions)

    def memory(grid, eit):
        entry = {"n_x": 5, "n_y": 6, "eta_write": draw(efficiency_maps()),
                 "eta_read": draw(efficiency_maps()),
                 "tau_mem": draw(st.floats(10.0, 1e3) | st.floats(0.0, _HUGE, exclude_min=True)),
                 "t_larmor": draw(st.floats(TIME_GRID_US, 100.0)), "rf_grid": grid}
        return {**entry, "eta_eit": draw(efficiency_maps())} if eit else entry

    drift = st.floats(-10.0, 10.0) | st.floats(-_HUGE, _HUGE)
    short = st.floats(MIN_TAU_US, 20.0)    # times a memory survives
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "memories": {"MAQM1": memory(QUDIT["memories"]["MAQM1"]["rf_grid"], False),
                     "MAQM2": memory(QUDIT["memories"]["MAQM2"]["rf_grid"], True)},
        "protocol": {"dimension": d, "source_cells": draw(grid_cells(d)),
                     "target_cells": draw(grid_cells(d)),
                     "t1": draw(short | times(0.0, exclude_low=True)),
                     "tau": draw(short | times(MIN_TAU_US)), "t2": draw(short | times(0.0)),
                     "drift": draw(drift | st.lists(drift, min_size=d, max_size=d))},
        "detection": {"eta_det": draw(st.floats(0.0, 1.0, exclude_min=True)),
                      "dark_rate": draw(st.just(0.0) | st.floats(0.0, 1e-3) | st.floats(0.0, 1.0)),
                      "heralds_per_setting": draw(st.integers(1000, 5000)
                                                   | st.integers(1, 5000))},
        "estimation": {"n_resamples": draw(n_resamples)},
    }


# few resamples keep a qubit run, which fits 2 (n_resamples + 1) tables, short
qubit_configs = qudit_configs(st.just(2), st.integers(2, 5))


def is_field(doc, path: str) -> bool:
    """Whether a dotted path with [i] indices, as config errors spell it, names a value of doc."""
    node = doc
    for part in path.replace("[", ".[").split("."):
        index = int(part[1:-1]) if part.startswith("[") else None
        if index is None and isinstance(node, dict) and part in node:
            node = node[part]
        elif index is not None and isinstance(node, list) and index < len(node):
            node = node[index]
        else:
            return False
    return True


@PROPERTY
@given(doc=st.one_of(qudit_configs(), qubit_configs))
def test_a_whole_qudit_config_runs_twice_alike_or_names_a_field(doc):
    # qubit configs run the MLE bootstrap through the CLI
    with tempfile.TemporaryDirectory() as workdir:
        code, report, err = run_once(doc, workdir)
        if code == 0:
            assert err == ""
            assert run_once(doc, workdir) == (0, report, "")
        else:
            assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1, err
            path = err.removeprefix("config error: ").split(": ", 1)[0]
            assert is_field(doc, path), err


@st.composite
def shipped_configs(draw):
    """A shipped qubit or qudit config at a drawn seed, drift, detection and few
    resamples; a dark rate of 0.999 fails the run's dark-rate check."""
    doc = copy.deepcopy(draw(st.sampled_from([QUBIT, QUDIT])))
    doc["seed"] = draw(st.integers(0, 2**32))
    doc["protocol"]["drift"] = draw(st.sampled_from([0.0, 0.3]))
    doc["detection"].update(eta_det=draw(st.sampled_from([0.5, 1.0])),
                            dark_rate=draw(st.sampled_from([1e-4, 0.0, 0.999])))
    doc["estimation"]["n_resamples"] = draw(st.integers(2, 4))
    return doc


@settings(PROPERTY, max_examples=PROPERTY.max_examples // 3)   # 20 under ci
@given(docs=st.lists(shipped_configs() | shipped_configs() | qudit_configs(st.integers(3, 4)),
                     min_size=1, max_size=2), data=st.data())
def test_a_warm_command_gives_the_cold_bytes(docs, data):
    # a step may write one of the documents to the one path, seedless or not
    # and in one of two layouts (the same document in other bytes), or keep
    # the file; it then runs a command with or without --seed, and the memos
    # the steps before it left must not change its exit code, output or message
    layouts = st.tuples(st.integers(0, len(docs) - 1), st.booleans(), st.sampled_from([None, 1]))
    steps = data.draw(st.lists(st.tuples(
        st.integers(0, 2).flatmap(lambda k: layouts if k == 2 else st.none()),   # keep 2 in 3
        st.sampled_from(["run", "run", "compile"]), st.none() | st.integers(0, 2**32),
    ), min_size=2, max_size=6))
    with tempfile.TemporaryDirectory() as workdir:
        config, out = Path(workdir, "config.json"), Path(workdir, "out")
        for i, (layout, command, seed) in enumerate(steps):
            if layout is not None or i == 0:
                index, seedless, indent = layout or (0, False, None)
                doc = {k: v for k, v in docs[index].items() if not (seedless and k == "seed")}
                config.write_text(json.dumps(doc, indent=indent))
            argv = [command, "--config", str(config),
                    *([] if seed is None else ["--seed", str(seed)])]
            warm = run_cli(argv, out)
            with pytest.MonkeyPatch.context() as mp:
                for name in ("_last_loaded", "_last_stages", "_last_compiled"):
                    mp.setattr(cli, name, [None, None])
                assert warm == run_cli(argv, out), argv


def check_predictions_match_the_reference(doc):
    """A config document's predictions against the kron-built state."""
    d = doc["protocol"]["dimension"]
    cfg = parse_experiment_config(doc)
    settings_block = tomography_settings() if d == 2 else detect.w_settings(d)
    for transfer in (False, True):
        outcome = run_protocol(cfg.protocol, transfer=transfer)
        psi = reference.state_vector(cfg.protocol, transfer)
        assert math.isclose(outcome.predicted_fidelity,
                            reference.predicted_fidelity(cfg.protocol, psi), abs_tol=1e-12)
        np.testing.assert_allclose(
            coincidence_probabilities(outcome, settings_block, cfg.eta_det),
            reference.coincidence_probabilities(psi, settings_block, cfg.eta_det),
            rtol=0.0, atol=1e-12)
        if np.vdot(psi, psi).real > 0.0:
            assert math.isclose(project_w(outcome), reference.w_fidelity(d, psi), abs_tol=1e-12)


@PROPERTY
@given(doc=st.one_of(qudit_configs(st.just(2)), qudit_configs()), data=st.data())
def test_predictions_match_the_full_state_vector_reference(doc, data):
    # qubit and qudit configs, with write phases
    d = doc["protocol"]["dimension"]
    doc["protocol"]["write_phases"] = data.draw(
        st.lists(st.floats(-10.0, 10.0) | st.floats(-1e3, 1e3), min_size=d, max_size=d))
    check_predictions_match_the_reference(doc)


def starved_qubit_doc(eta_read: float) -> dict:
    """A qubit config whose MAQM1 reads at ``eta_read``, everything else at 1."""
    memory = {"n_x": 5, "n_y": 6, "eta_write": 1.0, "eta_read": 1.0, "tau_mem": 10.0,
              "t_larmor": 1.0}
    cells = [[0, 0], [0, 1]]
    return {"seed": 0,
            "memories": {"MAQM1": {**memory, "eta_read": eta_read,
                                   "rf_grid": QUDIT["memories"]["MAQM1"]["rf_grid"]},
                         "MAQM2": {**memory, "eta_eit": 1.0,
                                   "rf_grid": QUDIT["memories"]["MAQM2"]["rf_grid"]}},
            "protocol": {"dimension": 2, "source_cells": cells, "target_cells": cells,
                         "t1": 1.0, "tau": 1.0, "t2": 1.0, "drift": 0.0,
                         "write_phases": [0.0, 0.0]},
            "detection": {"eta_det": 1.0, "dark_rate": 0.0, "heralds_per_setting": 1000},
            "estimation": {"n_resamples": 2}}


def test_a_state_with_a_subnormal_norm_matches_the_reference():
    # a draw of the property above: MAQM1's subnormal eta_read leaves branch
    # amplitudes of ~3.3e-155, and the reference once divided by their
    # subnormal squared norm and read NaN; the package reads 0.999943755272955
    doc = starved_qubit_doc(2.225073858507203e-309)
    protocol = parse_experiment_config(doc).protocol
    psi = reference.state_vector(protocol, False)
    assert 0.0 < np.vdot(psi, psi).real < sys.float_info.min
    assert run_protocol(protocol, transfer=False).predicted_fidelity == 0.999943755272955
    check_predictions_match_the_reference(doc)


def test_amplitudes_whose_squares_underflow_match_the_reference():
    # a deep-profile draw of the property above: at eta_read 5e-324 each
    # branch amplitude is ~1.6e-162, its square underflows to zero, and the
    # package once read a predicted fidelity of 0 against the reference's 1
    doc = starved_qubit_doc(5e-324)
    protocol = parse_experiment_config(doc).protocol
    assert protocol.spec1.eta_read.min() == 5e-324
    assert not np.sum(np.abs(run_protocol(protocol).branch_amplitudes) ** 2)
    check_predictions_match_the_reference(doc)


def test_a_qudit_with_a_subnormal_norm_matches_the_reference():
    # at eta_read 1e-320 the squared norm is subnormal: the package once read
    # predicted and W fidelities 2e-4 to 2e-3 off, and the reference's
    # unscaled W fidelity read 1.0
    doc = copy.deepcopy(QUDIT)
    doc["memories"]["MAQM1"]["eta_read"] = 1e-320
    check_predictions_match_the_reference(doc)


@PROPERTY
@given(d=st.integers(2, 6), n_resamples=st.integers(2, 12), seed=derived_seeds, data=st.data())
def test_w_bootstrap_point_is_w_fidelity_bit_for_bit(d, n_resamples, seed, data):
    # the stacked estimate's observed row gives the one-vector value and
    # warnings; low counts bring visibility and clip warnings
    counts = st.one_of(st.integers(0, 3), st.integers(0, 10**6))
    pops = data.draw(st.lists(counts, min_size=d, max_size=d).filter(any))
    pairs = data.draw(st.lists(counts, min_size=d * (d - 1), max_size=d * (d - 1)))
    heralds = max(pops + pairs)
    table = CountsTable(detect.w_labels(d), [heralds] * d * d, pops + pairs)
    streams = detect.stream_states(seed, np.arange(n_resamples))
    est = tomo.monte_carlo_w_fidelity(table, d, detect.poisson_resamples(table, streams))
    alone = tomo.w_fidelity(pops + pairs, d)
    assert est.value.hex() == alone.value.hex()
    assert est.n_resamples + est.n_failed == n_resamples
    # fewer than two good resamples, or no coherence count, give no sigma,
    # and the reasons come last
    assert (est.sigma is None) == (est.n_resamples < 2 or not any(pairs))
    spread = () if est.n_resamples >= 2 else (
        f"only {est.n_resamples} of {n_resamples} resamples succeeded",)
    flat = () if any(pairs) else (tomo._NO_COHERENCE,)
    assert est.warnings == alone.warnings + spread + flat
