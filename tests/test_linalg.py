"""Contract tests for intlab.linalg."""

import math

import numpy as np
import pytest

from intlab.errors import StructureError
from intlab.linalg import _stencil, char_poly, hermitian_eigen


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
            with pytest.raises(StructureError):
                hermitian_eigen(np.array([[bad, 1.0], [1.0, 0.0]]))


class TestCharPoly:
    def test_identity_2(self):
        cp = char_poly(np.eye(2))
        np.testing.assert_allclose(cp.coefficients, [1, -2, 1], atol=1e-14)

    def test_hyperbolic_diag(self):
        q = 0.73
        cp = char_poly(np.diag([np.exp(q), np.exp(-q)]))
        assert cp[0] == pytest.approx(1.0)
        assert cp[1] == pytest.approx(-2.0 * math.cosh(q), abs=1e-13)
        assert cp[2] == pytest.approx(1.0, abs=1e-13)

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
        assert cp.degree == 20
        assert cp[0] == pytest.approx(1.0)
        # det(M) = K_N up to the (-1)^N from the monic convention
        assert cp[20] == pytest.approx(np.linalg.det(M), abs=1e-8)

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
