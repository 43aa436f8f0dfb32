"""Contract tests for intlab.linalg."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlab.errors import DomainError, RangeError, StructureError
from intlab.linalg import _poly, _stencil, char_poly, hermitian_eigen

EPS = np.finfo(float).eps
DECADES = st.floats(-2.0, 2.0)  # root magnitudes 1e-2 to 1e2


def root_lists(root):
    return st.lists(root, min_size=1, max_size=20).map(np.array)


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2.0


class TestHermitianEigen:
    def test_identity(self):
        s = hermitian_eigen(np.eye(3))
        np.testing.assert_allclose(s.eigenvalues, [1, 1, 1])

    def test_sorting(self):
        s = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(s.eigenvalues, [1, 2, 3])

    def test_2x2_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, d = rng.normal(size=2)
            b = rng.normal() + 1j * rng.normal()
            M = np.array([[a, b], [np.conj(b), d]])
            mean = (a + d) / 2.0
            disc = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
            s = hermitian_eigen(M)
            np.testing.assert_allclose(
                s.eigenvalues, [mean - disc, mean + disc], atol=1e-12
            )

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(5)
        for n in range(2, 13):
            M = random_hermitian(rng, n)
            s = hermitian_eigen(M)
            U, scale = s.basis, np.linalg.norm(M)
            assert np.linalg.norm((U * s.eigenvalues) @ U.conj().T - M) <= 1e-11 * scale
            assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(n)) <= 1e-12 * n

    def test_degeneracy_flag(self):
        assert hermitian_eigen(np.eye(2)).near_degenerate
        assert not hermitian_eigen(np.diag([0.0, 1.0])).near_degenerate

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructureError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                hermitian_eigen(np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_rejects_a_non_square_matrix(self):
        for call in (hermitian_eigen, char_poly):
            with pytest.raises(StructureError, match="square"):
                call(np.ones((2, 3)))

    @pytest.mark.parametrize("call", [hermitian_eigen, char_poly])
    def test_rejects_an_empty_matrix(self, call):
        # char_poly raised a bare AttributeError (np.poly of no roots is the
        # float 1.0) and hermitian_eigen returned an empty spectrum
        with pytest.raises(StructureError, match="non-empty"):
            call(np.zeros((0, 0)))


class TestCharPoly:
    def test_rejects_non_finite(self):
        # numpy's eigvals raised its own LinAlgError here
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite"):
                char_poly(np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_coefficient_overflow_raises(self):
        # e_2 = 3e320 overflows; the coefficients came back [1, -3e160, nan, nan]
        with pytest.raises(RangeError, match="overflow"):
            char_poly(np.diag([1e160] * 3))

    def test_identity_2(self):
        cp = char_poly(np.eye(2))
        np.testing.assert_allclose(cp.coefficients, [1, -2, 1], atol=1e-14)

    def test_hyperbolic_diag(self):
        q = 0.73
        cp = char_poly(np.diag([np.exp(q), np.exp(-q)]))
        assert cp.coefficients[0] == pytest.approx(1.0)
        assert cp.coefficients[1] == pytest.approx(-2.0 * math.cosh(q), abs=1e-13)
        assert cp.coefficients[2] == pytest.approx(1.0, abs=1e-13)

    def test_matches_symmetric_functions_of_eigenvalues(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cp = char_poly(M)
        ref = np.poly(np.linalg.eigvals(M))
        np.testing.assert_allclose(cp.coefficients, ref, atol=1e-9)

    def test_large_matrix_route(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(20, 20)) / 5.0
        cp = char_poly(M)
        assert cp.coefficients.size - 1 == 20
        assert cp.coefficients[0] == pytest.approx(1.0)
        # det(M) = K_N up to the (-1)^N from the monic convention
        assert cp.coefficients[20] == pytest.approx(np.linalg.det(M), abs=1e-8)

    def test_palindromic_for_c_involutive_matrices(self):
        # If M C M = C with C the antidiagonal block swap and det M = 1,
        # the spectrum is closed under inversion, so K_{N-m} = K_m.
        rng = np.random.default_rng(13)
        for n in (2, 3):
            N = 2 * n
            C = np.block(
                [[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]]
            )
            V = np.eye(N) + 0.3 * (
                rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            )
            signs = np.ones(N)
            signs[:n] = -1.0  # det S = (-1)^n cancels det C
            S = V @ np.diag(signs) @ np.linalg.inv(V)
            M = C @ S
            assert abs(np.linalg.det(M) - 1.0) < 1e-8
            assert np.linalg.norm(M @ C @ M - C) < 1e-8
            K = char_poly(M).coefficients
            for m in range(N + 1):
                assert abs(K[N - m] - K[m]) <= 1e-9 * max(1.0, abs(K[m]))


class TestPoly:
    @settings(max_examples=300, deadline=None)
    @given(root_lists(st.tuples(st.sampled_from((1.0, -1.0)), DECADES).map(
        lambda sd: sd[0] * 10.0 ** sd[1]
    )))
    def test_real_roots_match_np_poly_bit_for_bit(self, roots):
        assert _poly(roots).tobytes() == np.poly(roots).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(root_lists(st.tuples(DECADES, st.floats(0.0, 2 * math.pi)).map(
        lambda dp: 10.0 ** dp[0] * complex(math.cos(dp[1]), math.sin(dp[1]))
    )))
    def test_complex_roots_match_mpmath(self, roots):
        with mp.workdps(40):
            want = [mp.mpc(1)]
            for r in roots.tolist():
                want = [a - r * b for a, b in zip(want + [0], [0] + want)]
            want = np.array([complex(w) for w in want])
        # first-order bound: each of the n steps rounds one complex product
        # (sqrt(5) eps/2) and one difference (eps/2) of terms that sum to at
        # most the coefficients of prod (x + |r|)
        bound = 2 * roots.size * EPS * np.prod(1 + np.abs(roots))
        assert np.max(np.abs(_poly(roots) - want)) <= bound


class TestStencil:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_rows_are_exact(self, n):
        # magnitudes over 16 decades: every row is one exact product per
        # nonzero entry, so T @ q is the plain difference or sum, bit for bit
        rng = np.random.default_rng(n)
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        j, k = np.triu_indices(n, 1)
        want = np.concatenate([q[j] - q[k], q[j] + q[k], q, 2 * q])
        assert (_stencil(n) @ q).tobytes() == want.tobytes()

    def test_cached_and_read_only(self):
        T = _stencil(5)
        assert T is _stencil(5)
        assert not T.flags.writeable
        with pytest.raises(ValueError):
            T[0, 0] = 2.0
