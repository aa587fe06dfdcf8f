import inspect
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maqmsim.detect import (
    CountsTable,
    Settings,
    _fixed_state,
    _generators,
    coincidence_probabilities,
    poisson_resamples,
    sample_counts,
    stream_states,
    tomography_settings,
    w_labels,
    w_settings,
)
from maqmsim.memory import CellAddress, MemoryId, MemorySpec, RfGrid
from maqmsim.protocol import ProtocolConfig, run_protocol

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


def streams(seed, count):
    """The streams (seed, i), i < count, as ``stream_states`` rows."""
    return stream_states(seed, np.arange(count))


def resamples(table, seed, count):
    """``poisson_resamples`` of the table, row r from stream (seed, r)."""
    return poisson_resamples(table, streams(seed, count))


def draw_counts(outcome, settings, heralds, eta_det, dark_rate, seed):
    """``sample_counts`` on the outcome's probabilities, row i from stream (seed, i)."""
    return sample_counts(settings, coincidence_probabilities(outcome, settings, eta_det),
                         heralds, dark_rate, streams(seed, len(settings.labels)))


def bell_outcome(**kw):
    return run_protocol(make_config(2, **kw))


def rows(settings, *labels):
    """The named rows of a block, as a block of their own."""
    index = [settings.labels.index(label) for label in labels]
    return Settings(labels, settings.signal[index], settings.atom[index])


class TestSettings:
    def test_sixteen_settings(self):
        settings = tomography_settings()
        assert len(settings.labels) == 16
        assert len(set(settings.labels)) == 16
        assert settings.signal.shape == settings.atom.shape == (16, 2)

    def test_all_unit_norm(self):
        settings = tomography_settings()
        assert_allclose(np.linalg.norm(settings.signal, axis=1), 1.0, atol=1e-12)
        assert_allclose(np.linalg.norm(settings.atom, axis=1), 1.0, atol=1e-12)

    def test_design_matrix_full_rank(self):
        settings = tomography_settings()
        design = []
        for s, a in zip(settings.signal, settings.atom):
            ket = np.kron(s, a)
            design.append(np.outer(ket, ket.conj()).reshape(-1))
        assert np.linalg.matrix_rank(np.array(design)) == 16

    def test_non_unit_basis_rejected(self):
        with pytest.raises(ValueError, match="'bad': signal vector must be unit-norm"):
            Settings(("ok", "bad"), [(1.0, 0.0), (1.0, 1.0)], [(1.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="'bad': atom vector must be unit-norm"):
            Settings(("bad",), [(1.0, 0.0)], [(0.5, 0.0)])

    def test_w_settings_cover_populations_and_pairs(self):
        settings = w_settings(4)
        labels = list(settings.labels)
        assert len(labels) == 4 + 12
        assert labels[:4] == ["P0", "P1", "P2", "P3"]
        assert "C01+" in labels and "C23-" in labels
        assert_allclose(settings.signal, np.full((16, 4), 0.5), atol=1e-12)

    @pytest.mark.parametrize("build, dimension", [
        (tomography_settings, 2), (lambda: w_settings(4), 4), (lambda: w_settings(16), 16)])
    def test_settings_are_built_once(self, build, dimension):
        first = build()
        assert build() is first
        fresh = fresh_settings(dimension)
        assert first.labels == fresh.labels
        assert np.array_equal(first.signal, fresh.signal)
        assert np.array_equal(first.atom, fresh.atom)
        # the shared block cannot be edited in place
        for vectors in (first.signal, first.atom):
            with pytest.raises(ValueError, match="read-only"):
                vectors[0, 0] = 0.0

    def test_a_dimension_has_one_cache_key(self):
        # a cache keys f(4) and f(dimension=4) apart, so dimension is positional-only
        assert not inspect.signature(tomography_settings).parameters
        for build in (w_labels, w_settings):
            assert build(4) is build(4)
            with pytest.raises(TypeError):
                build(dimension=4)

    @pytest.mark.parametrize("dimension", [1, 0])
    def test_fewer_than_two_branches_have_no_w_labels(self, dimension):
        with pytest.raises(ValueError, match="need at least two branches"):
            w_labels(dimension)

    def test_block_copies_its_input(self):
        signal = np.array([[1.0, 0.0]], dtype=complex)
        block = Settings(("UU",), signal, signal)
        signal[0] = (0.0, 1.0)
        assert block.signal.tolist() == [[1.0, 0.0]]
        assert signal.flags.writeable


def probability(outcome, settings, eta_det):
    return float(coincidence_probabilities(outcome, settings, eta_det)[0])


class TestCoincidenceProbability:
    def test_bell_parallel_analyzers(self):
        out = bell_outcome()
        uu = rows(tomography_settings(), "UU")
        assert_allclose(probability(out, uu, 1.0), 0.5, rtol=0, atol=1e-12)

    def test_bell_orthogonal_superposition(self):
        out = bell_outcome()
        anti = Settings(("SA",), [_kets("S")], [np.array([1.0, -1.0]) / np.sqrt(2)])
        assert_allclose(probability(out, anti, 1.0), 0.0, rtol=0, atol=1e-12)

    def test_detection_efficiency_scales_linearly(self):
        out = bell_outcome()
        ss = rows(tomography_settings(), "SS")
        full = probability(out, ss, 1.0)
        half = probability(out, ss, 0.5)
        assert_allclose(half, full / 2.0, rtol=0, atol=1e-15)

    def test_family_sum_equals_survival_times_eta(self):
        # UU+UD+DU+DD exhausts an orthonormal product family, so the herald-
        # conditioned detection probability is the weighted norm
        for eta_read, eta_det in [(1.0, 1.0), (0.4, 1.0), (0.7, 0.33)]:
            out = bell_outcome(eta_read=eta_read)
            family = rows(tomography_settings(), "UU", "UD", "DU", "DD")
            total = sum(coincidence_probabilities(out, family, eta_det))
            assert_allclose(total, out.survival_probability * eta_det, rtol=0, atol=1e-12)
            assert total <= 1.0 + 1e-12

    def test_dimension_mismatch_rejected(self):
        out = run_protocol(make_config(4))
        with pytest.raises(ValueError, match="length 4"):
            coincidence_probabilities(out, rows(tomography_settings(), "UU"), 1.0)
        with pytest.raises(ValueError, match="length 4"):
            coincidence_probabilities(out, tomography_settings(), 1.0)

    def test_mixed_vector_lengths_rejected(self):
        w, t = w_settings(4), tomography_settings()
        with pytest.raises(ValueError):
            Settings(("P0", "UU"), [w.signal[0], t.signal[0]], [w.atom[0], t.atom[0]])
        with pytest.raises(ValueError, match="equal-length signal and atom vectors"):
            Settings(("P0",), w.signal[:1], t.atom[:1])
        with pytest.raises(ValueError, match="2 labels"):
            Settings(("P0", "P1"), w.signal[:1], w.atom[:1])

    def test_bad_eta_rejected(self):
        out = bell_outcome()
        uu = rows(tomography_settings(), "UU")
        for eta in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                coincidence_probabilities(out, [uu], eta)

    def test_w_population_probabilities(self):
        out = run_protocol(make_config(4))
        settings = w_settings(4)
        for i in range(4):
            p = probability(out, rows(settings, f"P{i}"), 1.0)
            assert_allclose(p, 1.0 / 16.0, rtol=0, atol=1e-12)
        assert_allclose(probability(out, rows(settings, "C01+"), 1.0), 1.0 / 8.0,
                        rtol=0, atol=1e-12)
        assert_allclose(probability(out, rows(settings, "C01-"), 1.0), 0.0,
                        rtol=0, atol=1e-12)

    def test_empty_settings_give_no_probabilities(self):
        empty = Settings((), np.empty((0, 2)), np.empty((0, 2)))
        assert coincidence_probabilities(bell_outcome(), empty, 1.0).shape == (0,)


def wide_outcome(transfer):
    """A d = 16 run on a 4 x 4 block of uneven cells with a phase drift."""
    coords = [(x, y) for y in range(1, 5) for x in range(1, 5)]
    rng = np.random.default_rng(16)
    spec1 = MemorySpec(MemoryId.MAQM1, 5, 6, 0.01, rng.uniform(0.1, 0.3, (6, 5)),
                       65.0, 3.9, GRID1)
    spec2 = MemorySpec(MemoryId.MAQM2, 5, 6, 0.0, 0.0, 27.8, 1.3, GRID2,
                       eta_eit=rng.uniform(0.1, 0.3, (6, 5)))
    config = ProtocolConfig(
        dimension=16, spec1=spec1, spec2=spec2,
        source_cells=tuple(CellAddress(MemoryId.MAQM1, x, y) for x, y in coords),
        target_cells=tuple(CellAddress(MemoryId.MAQM2, x, y) for x, y in coords),
        t1=11.7, tau=3.9, t2=7.8,
        drifts=tuple(np.linspace(0.0, 0.3, 16)),
    )
    return run_protocol(config, transfer=transfer)


def reference_probability(outcome, s, a, eta_det):
    """The per-setting scalar computation the array expression replaced."""
    amp = np.sum(np.conj(s) * np.conj(a) * outcome.branch_amplitudes)
    return float(abs(amp) ** 2 * eta_det)


def reference_counts(outcome, settings, heralds, eta_det, dark_rate, seed):
    counts = [int(np.random.default_rng([seed, i]).binomial(
        heralds, reference_probability(outcome, s, a, eta_det) + dark_rate))
        for i, (s, a) in enumerate(zip(settings.signal, settings.atom))]
    return CountsTable(settings.labels, [heralds] * len(counts), counts)


class TestArrayExpressionMatchesPerSettingLoop:
    CASES = [
        ("tomography", lambda: bell_outcome(eta_read=0.4), lambda: tomography_settings()),
        ("w4", lambda: run_protocol(make_config(4, eta_read=0.6)), lambda: w_settings(4)),
        ("w16-source", lambda: wide_outcome(False), lambda: w_settings(16)),
        ("w16-transfer", lambda: wide_outcome(True), lambda: w_settings(16)),
    ]

    @pytest.mark.parametrize("name, outcome, settings", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("dark_rate", [0.0, 1e-4])
    def test_bit_identical(self, name, outcome, settings, dark_rate):
        out, settings = outcome(), settings()
        for eta_det in (1.0, 0.37):
            got = coincidence_probabilities(out, settings, eta_det)
            want = [reference_probability(out, s, a, eta_det)
                    for s, a in zip(settings.signal, settings.atom)]
            assert got.tolist() == want
            table = draw_counts(out, settings, 5000, eta_det, dark_rate, seed=29)
            assert table == reference_counts(out, settings, 5000, eta_det, dark_rate, 29)


def fresh_settings(dimension):
    """The settings built from scratch, without the shared cache."""
    if dimension == 2:
        pairs = [(s, a) for s in "UDSR" for a in "UDSR"]
        return Settings(tuple(s + a for s, a in pairs),
                        [_kets(s) for s, _ in pairs], [_kets(a) for _, a in pairs])
    d = dimension
    h = 1.0 / np.sqrt(2.0)
    labels = [f"P{i}" for i in range(d)]
    atoms = list(np.eye(d))
    for i, j in combinations(range(d), 2):
        for tag, sign in (("+", 1.0), ("-", -1.0)):
            atom = np.zeros(d)
            atom[i], atom[j] = h, sign * h
            labels.append(f"C{i}{j}{tag}")
            atoms.append(atom)
    assert tuple(labels) == w_labels(d)
    return Settings(labels, np.full((d * d, d), 1.0 / np.sqrt(d)), atoms)


class TestSampleCounts:
    def test_certain_event_saturates(self):
        out = bell_outcome()
        uu = rows(tomography_settings(), "UU")
        table = draw_counts(out, uu, 500, eta_det=1.0, dark_rate=0.5, seed=1)
        assert table.coincidences[0] == 500

    def test_impossible_probability_rejected(self):
        out = bell_outcome()
        uu = rows(tomography_settings(), "UU")
        with pytest.raises(ValueError):
            draw_counts(out, uu, 100, eta_det=1.0, dark_rate=0.6, seed=1)

    @pytest.mark.parametrize("heralds, dark_rate, probabilities, message", [
        (0, 0.0, [0.5], "heralds_per_setting must be at least 1"),
        (10, -1e-9, [0.5], "dark_rate must be non-negative"),
        (10, 0.0, [0.5, 0.5], r"need one probability per setting, got \(2,\) for 1 settings"),
        (10, 0.0, 0.5, r"need one probability per setting, got \(\) for 1 settings"),
    ])
    def test_bad_draw_arguments_rejected(self, heralds, dark_rate, probabilities, message):
        uu = rows(tomography_settings(), "UU")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_counts(uu, probabilities, heralds, dark_rate, streams(1, 1))

    def test_binomial_moments(self):
        out = bell_outcome()
        uu = rows(tomography_settings(), "UU")
        table = draw_counts(out, uu, 10_000, eta_det=1.0, dark_rate=0.0, seed=7)
        c = table.coincidences[0]
        assert abs(c - 5000) < 5 * 50  # 5 sigma, sigma = sqrt(n p (1-p)) = 50

    def test_zero_probability_gives_zero_counts(self):
        out = bell_outcome()
        ud = rows(tomography_settings(), "UD")
        table = draw_counts(out, ud, 1000, eta_det=1.0, dark_rate=0.0, seed=3)
        assert table.coincidences[0] == 0

    def test_seed_reproducibility(self):
        out = bell_outcome()
        settings = tomography_settings()
        a = draw_counts(out, settings, 1000, 0.5, 1e-4, seed=11)
        b = draw_counts(out, settings, 1000, 0.5, 1e-4, seed=11)
        assert a == b

    def test_rows_independent_of_order(self):
        # substreams are keyed by setting index, not by a shared stream
        out = bell_outcome()
        settings = tomography_settings()
        full = draw_counts(out, settings, 1000, 0.5, 0.0, seed=11)
        prefix = draw_counts(out, rows(settings, *settings.labels[:4]), 1000, 0.5, 0.0,
                             seed=11)
        assert full.rows[:4] == prefix.rows

    def test_frequencies_converge_to_probability(self):
        out = bell_outcome()
        ss = rows(tomography_settings(), "SS")
        p = probability(out, ss, 1.0)
        for shots in (1_000, 100_000):
            table = draw_counts(out, ss, shots, 1.0, 0.0, seed=13)
            freq = table.coincidences[0] / shots
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(freq - p) < 5 * sigma

    @pytest.mark.parametrize("heralds, coincidences, message", [
        ([10, 10], [10, 11], "cannot exceed heralds"),
        ([10, -1], [0, 0], "non-negative"),
        ([10, 10], [-1, 0], "non-negative"),
        ([10], [1, 1], "one herald and one coincidence count per label"),
    ], ids=["over-heralds", "negative-heralds", "negative-coincidences", "short-column"])
    def test_count_invariants(self, heralds, coincidences, message):
        with pytest.raises(ValueError, match=message):
            CountsTable(("UU", "UD"), heralds, coincidences)

    def test_a_table_is_its_read_only_columns(self):
        table = CountsTable(["UU", "UD"], [10, 10], [3, 0])
        assert table.labels == ("UU", "UD")
        assert table.rows == (("UU", 10, 3), ("UD", 10, 0))
        assert table == CountsTable(("UU", "UD"), [10, 10], [3, 0]) and table != table.rows
        assert not table.heralds.flags.writeable and not table.coincidences.flags.writeable


class TestPoissonResamples:
    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_row_r_is_numpys_stream_r(self, seed):
        # dark, small, and rates large enough for numpy's PTRS path
        table = CountsTable(tuple("abcde"), [10**6] * 5, [0, 1, 3, 45, 2500])
        stack = resamples(table, seed, 30)
        assert stack.dtype == np.float64 and stack.shape == (30, 5)
        observed = table.coincidences.astype(float)
        for r, row in enumerate(stack):
            want = np.random.default_rng([seed, r]).poisson(observed)
            assert row.tolist() == want.tolist()


class TestSubstreams:
    # a seed of one and of two entropy words before the index word
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1])
    def test_edge_seeds_give_numpys_streams(self, seed):
        want = [np.random.SeedSequence([seed, r]).generate_state(4, np.uint64).tolist()
                for r in range(500)]
        assert streams(seed, 500).tolist() == want
        for r, rng in zip(range(20), _generators(streams(seed, 500), 500)):
            want = np.random.default_rng([seed, r])
            assert rng.binomial(1000, 0.25, size=3).tolist() == \
                want.binomial(1000, 0.25, size=3).tolist()

    @pytest.mark.parametrize("seeds, indices", [
        (-1, np.arange(4)), (0, np.array([3, -1])), (2**64, 0), (np.array([2**64 - 1]), 2**32),
        (0, np.array([1.0])), (1.0, 0), (0, np.zeros((2, 2), int)),
        (np.arange(2), np.arange(3))],
        ids=["negative-int", "negative-entry", "seed-2**64", "index-2**32", "float",
             "float-seed", "2-d", "lengths-differ"])
    def test_bad_parts_rejected(self, seeds, indices):
        with pytest.raises(ValueError):
            stream_states(seeds, indices)

    @pytest.mark.parametrize("seeds", [[2**63 + 5, 3], (3, 2**64 - 1, 2**32), []],
                             ids=["list", "tuple", "empty"])
    def test_seed_lists_past_2_63_read_exactly(self, seeds):
        # numpy reads such a list as float64; its entries are exact ints
        indices = np.arange(len(seeds))
        assert stream_states(seeds, indices).tolist() == \
            stream_states(np.array(seeds, dtype=np.uint64), indices).tolist()

    @pytest.mark.parametrize("seeds", [[2**64, 3], [1.5, 2], [-1, 2], [2**63 + 5, -3],
                                       [3, -2**70], [[1, 2]]],
                             ids=["2**64", "float", "negative", "negative-past-2**63",
                                  "negative-wide", "nested"])
    def test_bad_seed_lists_rejected(self, seeds):
        with pytest.raises(ValueError, match="seeds must be"):
            stream_states(seeds, 0)

    def test_rows_are_seeded_through_one_cached_seed_class(self):
        # each row gets a stand-in object of its own, holding its state
        from numpy.random.bit_generator import ISeedSequence
        cls = _fixed_state()
        assert cls is _fixed_state() and issubclass(cls, ISeedSequence)
        rows = streams(5, 3)
        seeds = [rng.bit_generator.seed_seq for rng in _generators(rows, 3)]
        assert all(type(seed) is cls for seed in seeds) and len(set(map(id, seeds))) == 3
        assert [seed.generate_state(4, np.uint64).tolist() for seed in seeds] == rows.tolist()
        with pytest.raises(ValueError, match="4 uint64 words, not 8"):
            seeds[0].generate_state(8)

    def test_states_must_match_the_rows(self):
        with pytest.raises(ValueError, match=r"\(3, 4\) uint64"):
            _generators(streams(0, 2), 3)
        with pytest.raises(ValueError, match=r"\(2, 4\) uint64"):
            _generators(streams(0, 2).astype(np.int64), 2)


def _kets(letter):
    from maqmsim.detect import _KETS
    return _KETS[letter]
