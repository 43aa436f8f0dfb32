"""Contract tests for intlab.linalg."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlab import linalg
from intlab.errors import ConvergenceError, DomainError, RangeError, StructureError
from intlab.linalg import _eigh, _poly, _stencil, char_poly, hermitian_eigen
from intlab.sutherland import BCnCouplings, family_lax

EPS = np.finfo(float).eps
DECADES = st.floats(-2.0, 2.0)  # root magnitudes 1e-2 to 1e2
COUP = BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)


def root_lists(root):
    return st.lists(root, min_size=1, max_size=20).map(np.array)


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2.0


def mp_coefficients(roots):
    """Monic coefficients of prod (x - r) at mpmath's working precision, K_0 = 1 first."""
    want = [mp.mpf(1)]
    for r in roots:
        want = [a - r * b for a, b in zip(want + [0], [0] + want)]
    return want


def hermitian_bound(lam):
    """2 N eps (e_k(|lam|) + rho e_{k-1}(|lam|)), rho = max |lam|: a first-order
    bound on the error of each coefficient built from the eigenvalues lam of a
    Hermitian matrix.  e_k(|lam|) bounds the cancellation in Vieta's sums; the
    second term carries the absolute error rho eps of a backward-stable
    eigensolver in each eigenvalue, which e_k(|lam|) alone misses wherever an
    eigenvalue sits near zero (up to 74 N eps e_k in 80 draws at N = 8)."""
    e = _poly(-np.abs(lam))
    return 2 * lam.size * EPS * (e + np.max(np.abs(lam)) * np.concatenate(([0.0], e[:-1])))


def off_hermitian(size, deviation):
    """A Hermitian matrix of norm size plus an anti-Hermitian part that puts
    ||M - M*|| at deviation * max(1, size); the two parts are orthogonal, so
    ||M|| stays size up to terms of order deviation^2."""
    rng = np.random.default_rng(31)
    H = random_hermitian(rng, 4)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = A - A.conj().T
    A *= deviation * max(1.0, size) / (2 * np.linalg.norm(A))
    return H * (size / np.linalg.norm(H)) + A


FRONT = [
    pytest.param(random_hermitian(np.random.default_rng(4), 6), None, id="hermitian"),
    pytest.param([[2.5]], None, id="1x1"),
    pytest.param([[1j]], StructureError, id="1x1-imaginary"),
    pytest.param([[1, 2e-12], [0, 1]], StructureError, id="upper-2e-12"),
    pytest.param(off_hermitian(0.1, 0.9e-12), None, id="0.9e-12-below-norm-1"),
    pytest.param(off_hermitian(0.1, 1.1e-12), StructureError, id="1.1e-12-below-norm-1"),
    pytest.param(off_hermitian(1e3, 0.9e-12), None, id="0.9e-12-at-norm-1e3"),
    pytest.param(off_hermitian(1e3, 1.1e-12), StructureError, id="1.1e-12-at-norm-1e3"),
    pytest.param(np.diag([1e200, 1.0]), RangeError, id="diag-1e200"),
    pytest.param([[1e200, 1e200], [0, 1]], RangeError, id="upper-1e200"),
    # the squares of 1e200 + 1e200j sum to nan, not inf: a StructureError
    # with ||M - M*|| = inf against 1e-12 * 1 was raised for this Hermitian matrix
    pytest.param(
        [[1, 1e200 + 1e200j], [1e200 - 1e200j, 1]], RangeError, id="hermitian-1e200-complex"
    ),
]


@pytest.mark.parametrize("M, rejected", FRONT)
def test_char_poly_accepts_exactly_what_hermitian_eigen_accepts(M, rejected):
    # one Hermitian front for both: eigh and eigvalsh of the Hermitian part
    # where it passes, the same error and message from both where it fails,
    # also where ||M|| overflows, and no warning either way
    M = np.asarray(M, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if rejected is None:
            H = (M + M.conj().T) / 2.0
            s, (w, U) = hermitian_eigen(M), np.linalg.eigh(H)
            assert s.eigenvalues.tobytes() == w.tobytes() and s.basis.tobytes() == U.tobytes()
            K = char_poly(M).coefficients
            assert K.dtype == float
            assert K.tobytes() == _poly(np.linalg.eigvalsh(H)).tobytes()
        else:
            with pytest.raises(rejected) as first:
                hermitian_eigen(M)
            with pytest.raises(rejected, match=re.escape(str(first.value))):
                char_poly(M)


class TestEigh:
    @pytest.mark.parametrize("n", [1, 2, 8, 20, 31, 32, 33, 40, 64])
    def test_numpy_bits(self, n):
        # zhetrd blocks above n = 32 only with a workspace of LAPACK's optimum;
        # with scipy's default of n + 1 the eigenvalues differed at n = 40 in
        # every draw.  A Fortran-ordered basis moved calogero's weights
        # q @ |U|^2 by an ulp at n = 2, so the basis is C-ordered, as numpy's
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            H = random_hermitian(rng, n)
            w, U = np.linalg.eigh(H)
            got_w, got_U = _eigh(H, vectors=True)
            assert np.array_equal(got_w, w) and np.array_equal(got_U, U)
            assert got_U.flags.c_contiguous
            assert np.array_equal(_eigh(H), np.linalg.eigvalsh(H))

    @pytest.mark.parametrize("call", [hermitian_eigen, char_poly])
    def test_no_convergence_raises(self, call, monkeypatch):
        # zheevd reports info > 0 where its divide and conquer fails; numpy
        # raised a bare LinAlgError there
        def stalled(a, compute_v=1, **kwargs):
            n = len(a)
            return np.zeros(n), np.zeros((n, n) if compute_v else (0, 0), complex), 1

        monkeypatch.setattr(linalg, "zheevd", stalled)
        with pytest.raises(ConvergenceError, match="info = 1"):
            call(random_hermitian(np.random.default_rng(6), 4))


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

    @pytest.mark.parametrize("N, draws", [(2, 20), (8, 20), (20, 5), (40, 2)])
    def test_hermitian_route_matches_mpmath(self, N, draws):
        # 40-digit eigenvalues of the same matrix, then their coefficients.
        # The constant 2 of hermitian_bound was fixed from 80 draws per N:
        # the largest ratio to N eps (e_k + rho e_{k-1}) read 0.66, 0.16,
        # 0.07 and 0.05 at N = 2, 8, 20 and 40.
        rng = np.random.default_rng(N)
        for _ in range(draws):
            M = random_hermitian(rng, N)
            K = char_poly(M).coefficients
            with mp.workdps(40):
                lam = mp.eighe(mp.matrix(M.tolist()), eigvals_only=True)
                want = np.array([float(k) for k in mp_coefficients(lam)])
            assert K.dtype == float
            assert np.all(np.abs(K - want) <= hermitian_bound(np.array([float(x) for x in lam])))

    def test_family_lax_at_n20_is_palindromic(self):
        # N = 40: the spectrum is 20 pairs (y, 1/y), so K_k = K_{N-k} up to
        # the coefficient errors of both
        n = 20
        rng = np.random.default_rng(42)
        lam = 0.1 + np.cumsum(rng.uniform(0.2, 2.0, n))[::-1]
        L = family_lax(lam, rng.uniform(-2.0, 2.0, n), COUP)
        K = char_poly(L).coefficients
        assert K.dtype == float
        bound = hermitian_bound(np.linalg.eigvalsh(L))
        assert np.all(np.abs(K - K[::-1]) <= bound + bound[::-1])


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
            want = np.array([complex(w) for w in mp_coefficients(roots.tolist())])
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
