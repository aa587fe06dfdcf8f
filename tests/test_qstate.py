import numpy as np
import pytest
from numpy.testing import assert_allclose

from maqmsim import qstate
from maqmsim.qstate import DensityMatrix, fidelity, state_fidelity
from maqmsim.tomo import bell_target


def pure(vector):
    v = np.asarray(vector, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()))


def w_vector(d):
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def test_exports_only_arrays_and_fidelities():
    assert qstate.__all__ == ["DensityMatrix", "fidelity", "state_fidelity"]


class TestPureTarget:
    def test_normalization_enforced(self):
        # a pure target is a unit vector; fidelity checks it on every call
        rho = pure([1.0, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            fidelity(rho, [1.0, 1.0])
        assert fidelity(rho, [1.0, 0.0]) == 1.0

    def test_target_length_must_match(self):
        rho = pure(w_vector(4))
        for bad in (w_vector(3), w_vector(5), np.eye(4)[:2] / np.sqrt(2)):
            with pytest.raises(ValueError, match="length 4"):
                fidelity(rho, bad)


class TestDensityMatrix:
    def test_hermiticity_enforced(self):
        bad = np.array([[0.5, 0.1j], [0.1j, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        mat = np.array([[1.1, 0.0], [0.0, -0.1]])
        with pytest.raises(ValueError):
            DensityMatrix(mat)

    def test_square_matrix_required(self):
        for bad in (np.full(4, 0.25), np.full((2, 3), 0.5)):
            with pytest.raises(ValueError, match="square"):
                DensityMatrix(bad)

    def test_entries_are_a_read_only_copy(self):
        mat = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(mat)
        mat[0, 0] = 1.0
        assert rho.entries[0, 0] == 0.5
        assert rho.dimension == 2
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_pure_projection_round_trip(self):
        s = w_vector(4)
        assert_allclose(fidelity(pure(s), s), 1.0, rtol=0, atol=1e-12)


class TestEntangledPairs:
    def test_bell_pair_amplitudes(self):
        # logical basis index 2 s + b: only |00> and |11> carry amplitude
        s = bell_target(np.pi / 3)
        assert s.shape == (4,)
        assert_allclose(abs(s[0]), 1 / np.sqrt(2))
        assert_allclose(s[3] / s[0], np.exp(1j * np.pi / 3))
        assert s[1] == 0
        assert s[2] == 0


class TestWState:
    def test_one_dead_branch_overlap(self):
        # amplitude vector (1,1,1,0)/sqrt(3) against the uniform d=4 target:
        # |<W|v>|^2 = (3 / (2 sqrt(3)))^2 = 3/4, checked here by brute force
        target = w_vector(4)
        v = np.array([1.0, 1.0, 1.0, 0.0]) / np.sqrt(3.0)
        brute = abs(np.vdot(target, v)) ** 2
        assert_allclose(brute, 0.75, rtol=0, atol=1e-12)
        assert_allclose(fidelity(pure(v), target), 0.75, rtol=0, atol=1e-12)


class TestPhasesAndOverlaps:
    def test_overlap_requires_shared_basis(self):
        # on plain arrays a shared basis means equal dimension
        with pytest.raises(ValueError, match="dimensions differ"):
            state_fidelity(pure(w_vector(2)), pure(w_vector(3)))


class TestFidelities:
    def test_an_overlap_past_the_hermiticity_slack_is_refused(self):
        # rho passes the Hermiticity check (skew part 9.8e-11 <= HERM_ATOL), yet
        # gives this target an imaginary overlap of 1.2e-10, past HERM_ATOL
        skew = np.triu(np.ones((4, 4)), 1)
        skew -= skew.T
        rho = DensityMatrix(np.eye(4) / 4 + 4.9e-11 * skew)
        target = np.linalg.eigh(1j * skew)[1][:, -1]
        with pytest.raises(ValueError, match="fidelity came out complex"):
            fidelity(rho, target)

    def test_pure_state_fidelity_matches_overlap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert_allclose(fidelity(pure(a), b), abs(np.vdot(a, b)) ** 2,
                            rtol=0, atol=1e-12)

    def test_uhlmann_agrees_on_pure_inputs(self):
        s = bell_target(0.4)
        t = bell_target(1.1)
        f_direct = fidelity(pure(s), t)
        f_uhlmann = state_fidelity(pure(s), pure(t))
        assert_allclose(f_uhlmann, f_direct, rtol=0, atol=1e-8)

    def test_uhlmann_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho1 = a @ a.conj().T
            rho2 = b @ b.conj().T
            rho1 /= np.trace(rho1).real
            rho2 /= np.trace(rho2).real
            d1, d2 = DensityMatrix(rho1), DensityMatrix(rho2)
            f12 = state_fidelity(d1, d2)
            f21 = state_fidelity(d2, d1)
            assert_allclose(f12, f21, rtol=0, atol=1e-8)
            assert 0.0 <= f12 <= 1.0

    def test_uhlmann_identity_on_equal_states(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert_allclose(state_fidelity(rho, rho), 1.0, rtol=0, atol=1e-10)

    def test_mixed_with_pure_overlap(self):
        rho = DensityMatrix(np.eye(2) / 2)
        target = np.array([1.0, 0.0])
        assert_allclose(fidelity(rho, target), 0.5, rtol=0, atol=1e-12)
        assert_allclose(state_fidelity(rho, pure(target)), 0.5, rtol=0, atol=1e-8)


class TestStackFidelities:
    @staticmethod
    def one_by_one(mats, target):
        """The per-matrix loop the stacked form replaced."""
        out = []
        for mat in mats:
            try:
                out.append(fidelity(DensityMatrix(mat), target))
            except (ValueError, np.linalg.LinAlgError):
                pass
        return out

    def test_keeps_the_bits_and_skips_what_the_checks_reject(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
        mats = a @ a.conj().transpose(0, 2, 1)
        mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
        mats[3, 0, 1] += 2e-10                              # not Hermitian
        mats[4, 0, 1] += 5e-11                              # Hermitian within HERM_ATOL
        mats[7] *= 1.0 + 2e-10                              # trace off
        mats[9] = np.diag([0.6, 0.5, 0.0, -0.1])            # negative eigenvalue
        mats[11] = np.diag([0.5, 0.5, 1e-11, -1e-11])       # within PSD_ATOL
        mats[13, 2, 2] = np.nan
        mats[17, 1, 3] = mats[17, 3, 1] = np.inf
        for target in (bell_target(), w_vector(4), np.eye(4)[2]):
            with np.errstate(invalid="ignore"):     # the NaN and inf rows
                want = self.one_by_one(mats, target)
                got = qstate._stack_fidelities(mats, target)
            assert len(want) == 195
            assert got.tolist() == want

    def test_empty_stack(self):
        assert qstate._stack_fidelities(np.zeros((0, 4, 4), complex), bell_target()).size == 0
