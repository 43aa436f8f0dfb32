"""Tests for the BC_n Sutherland / rational dual module.

Frozen reference numbers come from tests/oracles/sutherland_reference.py
(mpmath at 50 digits) at couplings mu=0.8, nu=0.7, kappa=0.25.  The
local dual-matrix checks at n up to 40 and the rational-family checks at
n = 3, 4, 5, 8 and 20 import that module and evaluate its matrices, subset
sums, energies and characteristic coefficients at test time.
"""

import warnings
from itertools import combinations, product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from intlab.dynamics import PhasePoint, integrate_flow, poisson_bracket_fd
from intlab.errors import ChartError, DomainError, RangeError
from intlab.linalg import _stencil, char_poly
from intlab.sutherland import (
    BCnCouplings,
    DualPoint,
    SutherlandPoint,
    alcove_q,
    chart_gauge,
    dual_h_matrix,
    dual_hamiltonian,
    dual_lax_global,
    dual_lax_local,
    family_eval,
    family_lax,
    family_matrices,
    family_relation,
    lambda_of_z,
    lax_Y,
    make_dual_system,
    make_system,
    sutherland_H,
    transported_family,
)
from intlab.sutherland import (
    _cauchy_gaps,
    _cauchy_masks,
    _dual_grad,
    _family_lax,
    _root,
    _weights,
)
from hamilton import split
from oracles import sutherland_reference as oracle

COUP = BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)

# direct side at q=(0.9, 0.4), p=(0.3, -0.5)
FROZEN_H1 = 4.666879667746075742694658
FROZEN_H2 = 16.83825215743632395724608
FROZEN_LAM = np.array([2.848867242258680709013715, 1.10350114249037863206349])
# dual side at lam=(3.3, 1.1), theta=(0.35, -0.6)
FROZEN_H_DUAL = 1.108344551962598514728109
# rational family at lam=(2.1, 0.9), theta=(0.55, -0.35)
FROZEN_H_PU = 3.54891790309990313980525
FROZEN_H1_VD = 3.0978358061998062796105
FROZEN_H2_VD = 1.518939502261143781946537
FROZEN_K1 = -7.0978358061998062796105
FROZEN_K2 = 13.71461111466075634116754


def half_swap(n):
    C = np.zeros((2 * n, 2 * n))
    C[:n, n:] = np.eye(n)
    C[n:, :n] = np.eye(n)
    return C


def random_alcove_point(rng, n, min_gap=0.15):
    cuts = np.sort(rng.uniform(min_gap, np.pi / 2 - min_gap, n))
    while np.min(np.diff(np.concatenate([[0.0], cuts, [np.pi / 2]]))) < 0.08:
        cuts = np.sort(rng.uniform(min_gap, np.pi / 2 - min_gap, n))
    return SutherlandPoint(cuts[::-1], rng.normal(size=n))


def grid_alcove_point(rng, n):
    # jittered equal spacing: works at any n, where random cuts with a
    # minimum gap stop fitting into the alcove
    gap = (np.pi / 2) / (n + 1)
    grid = gap * np.arange(n, 0, -1)
    return SutherlandPoint(grid + rng.uniform(-0.2 * gap, 0.2 * gap, n), rng.normal(size=n))


def mp_vector(x):
    return [mp.mpf(float(v)) for v in x]


@st.composite
def family_points(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    gaps = draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
    theta = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return 0.1 + np.cumsum(gaps)[::-1], np.array(theta)


@st.composite
def near_wall_points(draw):
    # the n + 1 alcove slacks, each either tiny or moderate, scaled to fill
    # pi/2: draws come within 1e-4 of every kind of wall
    n = draw(st.integers(1, 20))
    slack = np.array(draw(st.lists(
        st.one_of(st.floats(1e-3, 1e-2), st.floats(0.1, 1.0)), min_size=n + 1, max_size=n + 1
    )))
    cuts = np.cumsum(slack[:n]) * (np.pi / 2) / slack.sum()
    p = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return SutherlandPoint(cuts[::-1], p)


def flat_lax_Y(x, c):
    """lax_Y's Y written with .flat fancy indexing: the reference for take/put."""
    q, p, n = x.q, x.p, x.n
    selves = _cauchy_masks(n).selves
    s = np.sin(_cauchy_gaps(q, n))
    s2 = s.flat[selves[n : 2 * n]]
    s.flat[selves[: 2 * n]] = np.inf
    Y = np.empty((2 * n, 2 * n), complex)
    a, b = -c.mu / s[:, :n], c.mu / s[:, n:]
    Y[:n, :n], Y[:n, n:], Y[n:, :n], Y[n:, n:] = a, b, -b, -a
    v = c.nu / s2 + c.kappa * np.cos(2 * q) / s2
    Y.flat[selves] = np.concatenate([1j * p, v - 1j * c.kappa, -1j * p, -v - 1j * c.kappa])
    return Y


def flat_family_lax(lam, theta, c):
    """_family_lax written with .flat fancy indexing: the reference for take/put."""
    n, mu, nu = lam.size, c.mu, c.nu
    X = _cauchy_gaps(lam)
    den = 1j * mu + X
    X.flat[_cauchy_masks(n).selves[: 2 * n]] = np.inf
    minus, plus = X[:n, :n], X[:n, n:]
    z = -(1 + 1j * nu / lam) * ((1 + 1j * mu / minus) * (1 + 1j * mu / plus)).prod(axis=1)
    f = np.exp(-theta / 2) * np.sqrt(np.abs(z))
    F = np.concatenate([f, np.conj(z) / f])
    num = 1j * mu * (F[:, None] * np.conj(F))
    num.flat[_cauchy_masks(n).selves.reshape(4, n)[1::2]] += 1j * (mu - 2 * nu)
    hinv = dual_h_matrix(lam, -1j * c.kappa)
    return hinv @ (num / den) @ hinv


def random_chamber_lam(rng, n, c):
    # gaps comfortably above 2*mu keep the product-form factors well away from 0
    gaps = 2 * c.mu + rng.uniform(0.3, 1.2, size=n)
    lam = c.nu + np.cumsum(gaps)[::-1]
    return lam


class TestCouplings:
    def test_potential_coupling_map(self):
        assert COUP.gamma == pytest.approx(0.64)
        assert COUP.gamma1 == pytest.approx(0.7 * 0.25 / 2)
        assert COUP.gamma2 == pytest.approx((0.7 - 0.25) ** 2 / 2)

    def test_admissible_cone_automatic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            kappa = rng.uniform(-1.0, 1.0)
            nu = abs(kappa) + rng.uniform(1e-3, 2.0)
            c = BCnCouplings(mu=rng.uniform(0.1, 3.0), nu=nu, kappa=kappa)
            assert c.gamma > 0 and c.gamma2 > 0
            assert 4 * c.gamma1 + c.gamma2 > 0

    def test_accepts_the_whole_window(self):
        # the sum 2*nu*kappa + (nu - kappa)^2 / 2 cancels to 0 next to
        # kappa = -nu; the window nu > |kappa| still holds there
        for kappa in (np.nextafter(-0.7, 0.0), -0.7 + 1e-14, np.nextafter(0.7, 0.0)):
            c = BCnCouplings(mu=0.8, nu=0.7, kappa=kappa)
            assert c.gamma2 > 0
        with pytest.raises(DomainError, match="cone"):
            BCnCouplings(mu=1.0, nu=1e-200, kappa=0.0)  # gamma2 underflows

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            BCnCouplings(mu=0.0, nu=1.0, kappa=0.0)
        with pytest.raises(DomainError):
            BCnCouplings(mu=1.0, nu=0.3, kappa=0.5)
        with pytest.raises(DomainError):
            BCnCouplings(mu=1.0, nu=0.3, kappa=-0.3)


class TestPoints:
    def test_alcove_enforced(self):
        with pytest.raises(DomainError):
            SutherlandPoint([0.4, 0.9], [0.0, 0.0])
        with pytest.raises(DomainError):
            SutherlandPoint([1.6, 0.4], [0.0, 0.0])
        with pytest.raises(DomainError):
            SutherlandPoint([0.9, -0.1], [0.0, 0.0])

    def test_dual_ordering_enforced(self):
        with pytest.raises(DomainError):
            DualPoint([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            DualPoint([2.0, -1.0], [0.0, 0.0])


class TestSutherlandH:
    def test_single_particle_formula(self):
        x = SutherlandPoint([0.6], [1.4])
        expected = (
            1.4**2 / 2
            + COUP.gamma1 / np.sin(0.6) ** 2
            + COUP.gamma2 / np.sin(1.2) ** 2
        )
        assert sutherland_H(x, COUP) == pytest.approx(expected, abs=1e-14)

    def test_frozen_values(self):
        x = SutherlandPoint([0.9, 0.4], [0.3, -0.5])
        _, fam = lax_Y(x, COUP)
        assert sutherland_H(x, COUP) == pytest.approx(FROZEN_H1, abs=1e-12)
        assert fam[1] == pytest.approx(FROZEN_H2, abs=1e-12)

    def test_quarter_trace_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = random_alcove_point(rng, 3)
            Y, _ = lax_Y(x, COUP)
            quarter = np.trace((-1j * Y) @ (-1j * Y)).real / 4
            assert abs(quarter - sutherland_H(x, COUP)) < 1e-12

    def test_matches_mpmath_at_benchmark_sizes(self):
        rng = np.random.default_rng(30)
        for n in (1, 3, 8, 20):
            x = grid_alcove_point(rng, n)
            want = float(oracle.sutherland_direct(mp_vector(x.q), mp_vector(x.p)))
            assert sutherland_H(x, COUP) == pytest.approx(want, rel=1e-12)

    def test_boundary_blowup_monotone(self):
        values = [
            sutherland_H(SutherlandPoint([1.2, 0.7, qn], [0.0, 0.0, 0.0]), COUP)
            for qn in (0.2, 0.02, 0.002)
        ]
        assert values[0] < values[1] < values[2]


class TestLaxY:
    def test_single_particle(self):
        c = BCnCouplings(mu=1.1, nu=0.9, kappa=0.0)
        x = SutherlandPoint([0.5], [0.8])
        Y, fam = lax_Y(x, c)
        assert Y.shape == (2, 2)
        assert fam[0] == pytest.approx(sutherland_H(x, c), abs=1e-13)

    def test_odd_traces_vanish(self):
        rng = np.random.default_rng(2)
        x = random_alcove_point(rng, 3)
        Y, _ = lax_Y(x, COUP)
        iY = -1j * Y
        np.testing.assert_allclose(iY, iY.conj().T, atol=1e-12)
        power = iY.copy()
        for _ in range(3):
            assert abs(np.trace(power)) < 1e-11
            power = power @ iY @ iY

    def test_spectrum_symmetric(self):
        rng = np.random.default_rng(3)
        x = random_alcove_point(rng, 3)
        Y, _ = lax_Y(x, COUP)
        ev = np.sort(np.linalg.eigvalsh(-1j * Y))
        np.testing.assert_allclose(ev, -ev[::-1], atol=1e-11)

    def test_frozen_spectrum(self):
        x = SutherlandPoint([0.9, 0.4], [0.3, -0.5])
        Y, _ = lax_Y(x, COUP)
        ev = np.sort(np.linalg.eigvalsh(-1j * Y))[::-1]
        np.testing.assert_allclose(ev[:2], FROZEN_LAM, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 20])
    def test_layout_writes_match_flat_indexing(self, n):
        # take/put on the Cauchy layout give the bits .flat indexing gave
        rng = np.random.default_rng(40 + n)
        for c in (COUP, BCnCouplings(mu=1.1, nu=0.9, kappa=0.0)):
            x = grid_alcove_point(rng, n)
            assert np.array_equal(lax_Y(x, c)[0], flat_lax_Y(x, c))
            lam = 0.1 + np.cumsum(rng.uniform(0.3, 1.2, n))[::-1]
            theta = rng.uniform(-2.0, 2.0, n)
            assert np.array_equal(_family_lax(lam, theta, c), flat_family_lax(lam, theta, c))

    def test_square_overflow_raises(self):
        # a valid alcove point: sin 2q_2 = 2e-160 puts 4e159 on the diagonal,
        # and (-iY)^2 overflowed into numpy's LinAlgError inside eigvalsh
        with pytest.raises(RangeError, match="overflow"):
            lax_Y(SutherlandPoint([1.0, 1e-160], [0.0, 0.0]), COUP)

    @pytest.mark.parametrize("n", [3, 8, 20, 40])
    def test_matrix_matches_mpmath_entrywise(self, n):
        x = grid_alcove_point(np.random.default_rng(33), n)
        Y, _ = lax_Y(x, COUP)
        want = oracle.first_order_matrix(mp_vector(x.q), mp_vector(x.p))
        want = np.array(want.tolist(), dtype=complex)
        assert np.max(np.abs(Y - want)) <= 1e-14 * np.max(np.abs(want))

    def test_trace_family_matches_mpmath_at_n8(self):
        x = grid_alcove_point(np.random.default_rng(31), 8)
        want = []
        with mp.workdps(oracle.DPS):
            M = mp.mpc(0, -1) * oracle.first_order_matrix(mp_vector(x.q), mp_vector(x.p))
            M2 = M * M
            power = M2
            for k in range(1, 9):
                want.append(float(mp.re(oracle.trace(power))) / (4 * k))
                power = power * M2
        _, fam = lax_Y(x, COUP)
        np.testing.assert_allclose(fam, want, rtol=1e-12)

    def test_trace_family_matches_matrix_powers(self):
        # the definition tr((-iY)^(2k)) / (4k), by repeated products, as
        # the float reference for the spectral route
        rng = np.random.default_rng(32)
        for n in (2, 8, 20):
            for scale in (1.0, 4.0):
                x = grid_alcove_point(rng, n)
                x = SutherlandPoint(x.q, scale * x.p)
                Y, fam = lax_Y(x, COUP)
                m2 = (-1j * Y) @ (-1j * Y)
                power, want = m2, []
                for k in range(1, n + 1):
                    want.append(np.trace(power).real / (4 * k))
                    power = power @ m2
                np.testing.assert_allclose(fam, want, rtol=1e-13)

    def test_commuting_family_brackets(self):
        # bracket values are pure finite-difference noise; tame points keep
        # the higher derivatives small enough for the 1e-6 budget
        cases = [
            ([1.0, 0.45], [0.3, -0.7]),
            ([1.37, 0.83, 0.30], [0.1, -0.05, 0.08]),
        ]
        for q0, p0 in cases:
            n = len(q0)

            def observable(k):
                def f(pt):
                    return lax_Y(SutherlandPoint(pt.q, pt.p), COUP)[1][k]

                return f

            x = PhasePoint(q0, p0)
            for j in range(n):
                for k in range(j + 1, n):
                    assert abs(poisson_bracket_fd(observable(j), observable(k), x)) < 1e-6


class TestDirectSystem:
    def test_gradient_matches_differences(self):
        rng = np.random.default_rng(4)
        for n in (3, 8, 20):
            x = grid_alcove_point(rng, n)
            dq, dp = split(make_system(n, COUP), x.q, x.p)
            step = 1e-6
            for j in range(n):
                qp, qm = x.q.copy(), x.q.copy()
                qp[j] += step
                qm[j] -= step
                fd = (
                    sutherland_H(SutherlandPoint(qp, x.p), COUP)
                    - sutherland_H(SutherlandPoint(qm, x.p), COUP)
                ) / (2 * step)
                assert dq[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)
            np.testing.assert_allclose(dp, x.p)

    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_gradient_matches_mpmath(self, n):
        x = grid_alcove_point(np.random.default_rng(50 + n), n)
        dq, dp = split(make_system(n, COUP), x.q, x.p)
        want_q, want_p = oracle.sutherland_gradient(mp_vector(x.q), mp_vector(x.p))
        want = np.array([float(v) for v in want_q + want_p])
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(np.concatenate([dq, dp]), want, rtol=0, atol=1e-13 * scale)

    def test_gradient_matches_mpmath_at_n40(self):
        # each 50-digit partial costs about 0.17 s at n = 40, so take those
        # of the first, middle and last positions and two momenta
        n = 40
        x = grid_alcove_point(np.random.default_rng(50 + n), n)
        coords = [0, 1, n // 2, n - 1, n, 2 * n - 1]
        want = np.array([
            float(oracle.sutherland_partial(mp_vector(x.q), mp_vector(x.p), i)) for i in coords
        ])
        got = np.concatenate(split(make_system(n, COUP), x.q, x.p))[coords]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(near_wall_points())
    def test_gradient_matches_differences_near_walls(self, x):
        sys = make_system(x.n, COUP)
        dq, dp = split(sys, x.q, x.p)
        step = 1e-4 * min(1.0, sys.boundary_margin(x.q))
        fd = np.empty(x.n)
        for j in range(x.n):
            e = np.zeros(x.n)
            e[j] = step
            fd[j] = (
                sutherland_H(SutherlandPoint(x.q + e, x.p), COUP)
                - sutherland_H(SutherlandPoint(x.q - e, x.p), COUP)
            ) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(fd))))
        np.testing.assert_allclose(dq, fd, rtol=0, atol=1e-6 * scale)
        np.testing.assert_array_equal(dp, x.p)

    def test_margin_and_domain(self):
        sys = make_system(2, COUP)
        inside = PhasePoint([1.0, 0.4], [0.0, 0.0])
        outside = PhasePoint([0.4, 1.0], [0.0, 0.0])
        assert sys.contains(inside) and not sys.contains(outside)
        assert sys.boundary_margin(inside.q) > 0


class TestDualH:
    def test_kappa_zero_is_identity(self):
        h = dual_h_matrix([2.0, 1.0], 0.0)
        assert np.array_equal(h, np.eye(4))

    def test_conjugation_identity(self):
        rng = np.random.default_rng(6)
        lam = np.sort(rng.uniform(0.5, 4.0, 3))[::-1]
        Lam = np.diag(np.concatenate([lam, -lam]))
        # an imaginary kappa is the rational family's rotation
        for kappa in (0.3, -0.3j):
            h = dual_h_matrix(lam, kappa)
            d = np.sqrt(lam**2 - kappa**2)
            target = np.diag(np.concatenate([d, -d])) - kappa * half_swap(3)
            np.testing.assert_allclose(h @ Lam @ np.linalg.inv(h), target, atol=1e-12)

    def test_orthogonal(self):
        rng = np.random.default_rng(7)
        lam = np.sort(rng.uniform(0.6, 5.0, 4))[::-1]
        h = dual_h_matrix(lam, 0.45)
        np.testing.assert_allclose(h @ h.T, np.eye(8), atol=1e-12)

    def test_rejects_small_lambda(self):
        # kappa = 0 skips the rotation, not the lam_j > 0 check
        cases = (([0.2, 0.1], 0.3), ([-1.0, -2.0], 0.3), ([1.0, -0.5], -0.3j), ([-1.0, -2.0], 0.0))
        for lam, kappa in cases:
            with pytest.raises(DomainError):
                dual_h_matrix(lam, kappa)

    def test_rejects_non_finite_kappa(self):
        # a nan kappa came back as an all-nan rotation
        for kappa in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(DomainError, match="finite kappa"):
                dual_h_matrix([2.0, 1.0], kappa)


class TestDualHamiltonian:
    def test_matches_mpmath_at_n6(self):
        rng = np.random.default_rng(32)
        lam = random_chamber_lam(rng, 6, COUP)
        # |theta| < 1 keeps every cosine positive, so no term cancels
        theta = rng.uniform(-1.0, 1.0, 6)
        want = float(oracle.dual_direct(mp_vector(lam), mp_vector(theta)))
        assert dual_hamiltonian(DualPoint(lam, theta), COUP) == pytest.approx(want, rel=1e-12)

    def test_oracle_pins_its_precision(self, monkeypatch):
        # the oracle runs at its own 50 digits whatever the caller's precision,
        # so it gives the value it computed at import bit for bit
        seen, sqrt = [], mp.sqrt
        monkeypatch.setattr(mp, "sqrt", lambda x: seen.append(mp.mp.dps) or sqrt(x))
        with mp.workdps(15):
            value = oracle.dual_direct(oracle.LAM, oracle.THETA)
        assert seen and set(seen) == {oracle.DPS}
        assert value == oracle.H_DUAL

    def test_root_checks_each_factor(self):
        # two negative factors multiply to a positive number; each must
        # be rejected on its own
        with pytest.raises(DomainError, match="lost positivity"):
            _root(np.array([-2.0, -3.0]))
        np.testing.assert_allclose(_root(np.array([4.0, 9.0])), [2.0, 3.0])


class TestDualLaxLocal:
    def test_unitary_with_swap_symmetry(self):
        rng = np.random.default_rng(10)
        lam = random_chamber_lam(rng, 2, COUP)
        d = DualPoint(lam, rng.uniform(-np.pi, np.pi, 2))
        A, _ = dual_lax_local(d, COUP)
        C = half_swap(2)
        np.testing.assert_allclose(A @ A.conj().T, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(A.conj().T, C @ A @ C, atol=1e-10)

    def test_trace_value_matches_direct_form(self):
        rng = np.random.default_rng(11)
        for kappa in (0.0, 0.25, -0.4):
            c = BCnCouplings(mu=COUP.mu, nu=COUP.nu, kappa=kappa)
            for n in (2, 6, 12):
                lam = random_chamber_lam(rng, n, c)
                d = DualPoint(lam, rng.uniform(-np.pi, np.pi, n))
                A, value = dual_lax_local(d, c)
                h = dual_h_matrix(lam, kappa)
                tol = 1e-13 * max(1.0, abs(value))
                assert abs(value - dual_hamiltonian(d, c)) < tol
                assert abs(value - 0.5 * np.trace(h @ A @ h).real) < tol

    def test_matches_mpmath(self):
        # the oracle builds the matrix from the square-root vector f of
        # the local chart, independently of the global-chart route
        rng = np.random.default_rng(16)
        for n in (1, 2, 6, 12, 20, 40):
            lam = random_chamber_lam(rng, n, COUP)
            theta = rng.uniform(-np.pi, np.pi, n)
            A, _ = dual_lax_local(DualPoint(lam, theta), COUP)
            want = oracle.dual_local_matrix(mp_vector(lam), mp_vector(theta))
            want = np.array(want.tolist(), dtype=complex)
            np.testing.assert_allclose(A, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_frozen_value(self):
        d = DualPoint([3.3, 1.1], [0.35, -0.6])
        _, value = dual_lax_local(d, COUP)
        assert value == pytest.approx(FROZEN_H_DUAL, abs=1e-12)

    def test_equilibrium_limit_monotone(self):
        n = 3
        lam0 = COUP.nu + 2 * COUP.mu * np.arange(n - 1, -1, -1.0)
        direction = np.array([3.0, 2.0, 1.0])
        values = []
        for eps in (0.5, 0.1, 0.02, 0.004):
            d = DualPoint(lam0 + eps * direction, np.zeros(n))
            _, v = dual_lax_local(d, COUP)
            values.append(v)
        glob = dual_lax_global(np.zeros(n, dtype=complex), COUP)
        h = dual_h_matrix(glob.lam, COUP.kappa)
        limit = 0.5 * float(np.trace(h @ glob.lax @ h).real)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > limit for v in values)
        assert values[-1] - limit < 0.1

    def test_corner_switch_continuous(self):
        # lam_n crossing mu: the corner entry is the cancelled form at every
        # lam, so it stays continuous through the crossing, keeps the matrix
        # unitary, and matches the 50-digit quotient wherever that is defined
        theta = np.array([0.2, -0.4])
        reference = None
        for eps in (3e-6, 1e-7, 0.0, -1e-7, -3e-6):
            d = DualPoint([3.5, COUP.mu + eps], theta)
            A, _ = dual_lax_local(d, COUP)
            np.testing.assert_allclose(A @ A.conj().T, np.eye(4), atol=1e-9)
            if reference is None:
                reference = A[1, 3]
            assert abs(A[1, 3] - reference) < 1e-5
        for eps in (1.001e-6, -1.001e-6, 1e-5, 1e-4):
            lam = np.array([3.5, COUP.mu + eps])
            A, _ = dual_lax_local(DualPoint(lam, theta), COUP)
            want = oracle.dual_local_matrix(mp_vector(lam), mp_vector(theta))[1, 3]
            assert abs(A[1, 3] - complex(want)) < 1e-14, f"eps = {eps}"

    def test_outside_chamber_rejected(self):
        with pytest.raises(DomainError):
            dual_lax_local(DualPoint([2.0, 1.0], [0.0, 0.0]), COUP)  # gap 1.0 < 2*mu
        with pytest.raises(DomainError):
            dual_lax_local(DualPoint([3.0, 0.5], [0.0, 0.0]), COUP)  # lam_n < nu

    def test_corner_overflow_raises(self):
        # lam_1^2 overflows in the corner series, which raised Python's OverflowError
        with pytest.raises(RangeError, match="corner series"):
            dual_lax_local(DualPoint([1e160, 5.0], [0.0, 0.0]), COUP)

    def test_former_regularity_margins(self):
        # within 1e-9 of lam_n = nu, of a gap 2*mu and of |2*mu - nu|: the
        # weights divided by these, the matrix does not
        mu, nu = COUP.mu, COUP.nu
        edge = abs(2 * mu - nu)
        for lam in ([3.0, nu + 1e-9], [1.1 + 2 * mu + 1e-9, 1.1], [4.0, edge], [4.0, edge + 1e-9]):
            d = DualPoint(lam, [0.3, -0.2])
            A, value = dual_lax_local(d, COUP)
            np.testing.assert_allclose(A @ A.conj().T, np.eye(4), atol=1e-14)
            # sqrt(lam_n - nu) in the product form turns rounding of 1e-16
            # into about 1e-16 / sqrt(1e-9) = 3e-12
            assert value == pytest.approx(dual_hamiltonian(d, COUP), abs=1e-11)


class TestDualLaxGlobal:
    def test_rejects_bad_z(self):
        calls = (
            lambda z: lambda_of_z(z, COUP),
            lambda z: transported_family(z, COUP),
            chart_gauge,
            lambda z: dual_lax_global(z, COUP),
            lambda z: alcove_q(z, COUP),
        )
        for call in calls:
            for z in ([], [[0.5, 1.0], [1.0, 0.5]], [np.nan, 1.0], [0.5, np.inf]):
                with pytest.raises(DomainError):
                    call(z)

    def test_lambda_of_z(self):
        z = np.array([0.5 + 0.5j, -0.3j, 1.0])
        lam = lambda_of_z(z, COUP)
        mods = np.abs(z) ** 2
        for k in range(3):
            expected = COUP.nu + 2 * COUP.mu * (2 - k) + np.sum(mods[k:])
            assert lam[k] == pytest.approx(expected, abs=1e-14)

    def test_origin_gives_equilibrium_lambda(self):
        c = BCnCouplings(mu=1.0, nu=0.5, kappa=0.0)
        glob = dual_lax_global(np.zeros(3, dtype=complex), c)
        np.testing.assert_allclose(glob.lam, [4.5, 2.5, 0.5], atol=1e-14)

    def test_unitary_everywhere(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            glob = dual_lax_global(z, COUP)
            np.testing.assert_allclose(
                glob.lax @ glob.lax.conj().T, np.eye(6), atol=1e-10
            )

    @pytest.mark.parametrize("zeros", [None, (1, -1)])
    @pytest.mark.parametrize("n", [8, 20])
    def test_unitary_where_gaps_saturate(self, n, zeros):
        # z = 0 saturates every chamber inequality, zeros = (1, -1) the gap
        # after lam_2 and lam_n = nu.  Couplings, moduli and phases are exact
        # in binary, so those gaps are exactly 2*mu and their raw quotients
        # 0/0; masked before the division, they raise no RuntimeWarning
        c = BCnCouplings(mu=1.0, nu=0.5, kappa=0.25)
        rng = np.random.default_rng(n)
        z = np.zeros(n, complex)
        if zeros is not None:
            z = rng.choice([0.5, 0.75, 1.0], n) * rng.choice([1, -1, 1j, -1j], n)
            z[list(zeros)] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            A = dual_lax_global(z, c).lax
        assert np.all(np.isfinite(A))
        np.testing.assert_allclose(A @ A.conj().T, np.eye(2 * n), rtol=0, atol=1e-13)

    def test_cached_masks_read_only(self):
        # every cached layout array is shared by all callers at that n
        assert _cauchy_masks(5)._fields == ("selves", "gaps", "chart", "ends", "eye")
        for n in (1, 5):
            for idx in _cauchy_masks(n):
                assert not idx.flags.writeable
        for idx in _cauchy_masks(5):
            with pytest.raises(ValueError):
                idx[0] = 0

    def test_chart_consistency(self):
        # n = 1 has no gap entries and only the corner off the diagonal
        rng = np.random.default_rng(13)
        for n, kappa in product((1, 2, 6, 20, 40), (0.0, 0.25, -0.25)):
            c = couplings_with(kappa)
            for _ in range(3):
                z = rng.uniform(0.5, 1.2, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
                glob = dual_lax_global(z, c)
                d = DualPoint(lambda_of_z(z, c), np.diff(np.angle(z), prepend=0.0))
                local, _ = dual_lax_local(d, c)
                m = chart_gauge(z)
                # the matrices are unitary, so their entries are O(1)
                np.testing.assert_allclose(
                    glob.lax, m @ local @ m.conj().T, rtol=0, atol=1e-13, err_msg=f"n={n}"
                )

    def test_equilibrium_positions_critical(self):
        for c in (BCnCouplings(mu=1.0, nu=0.5, kappa=0.0), COUP):
            q = alcove_q(np.zeros(3), c)
            assert q[-1] > 0 and q[0] < np.pi / 2 and np.all(np.diff(q) < 0)
            dq, _ = split(make_system(3, c), q, np.zeros(3))
            assert np.max(np.abs(dq)) < 1e-8

    def test_equilibrium_minimizes_first_invariant(self):
        rng = np.random.default_rng(14)
        lam0 = COUP.nu + 2 * COUP.mu * np.arange(2, -1, -1.0)
        floor = 0.5 * np.sum(lam0**2)
        for _ in range(100):
            lam = random_chamber_lam(rng, 3, COUP)
            assert 0.5 * np.sum(lam**2) > floor

    JACOBI_COUPLINGS = [(0.6, 1.1, 0.0), (0.6, 1.1, 0.25), (1.0, 2.5, -0.7), (0.5, 0.9, 0.3)]
    # the last set has kappa < 0 and nu < 2 mu
    EQUILIBRIUM_COUPLINGS = JACOBI_COUPLINGS + [(1.0, 0.5, -0.3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40])
    @pytest.mark.parametrize("mu, nu, kappa", JACOBI_COUPLINGS)
    def test_equilibrium_is_jacobi_zeros(self, n, mu, nu, kappa):
        # cos 2q at the equilibrium are the zeros of P_n^(a, b) with
        # a = (nu + kappa)/(2 mu) - 1 and b = (nu - kappa)/(2 mu) - 1
        c = BCnCouplings(mu, nu, kappa)
        x, _ = roots_jacobi(n, (nu + kappa) / (2 * mu) - 1, (nu - kappa) / (2 * mu) - 1)
        q = alcove_q(np.zeros(n), c)
        assert np.max(np.abs(q - np.arccos(x) / 2)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40])
    @pytest.mark.parametrize("mu, nu, kappa", JACOBI_COUPLINGS)
    def test_equilibrium_cosine_sum(self, n, mu, nu, kappa):
        # sum_j cos 2q_j = -n kappa / lam_1 at z = 0, lam_1 = nu + 2 mu (n - 1)
        c = BCnCouplings(mu, nu, kappa)
        lam_1 = lambda_of_z(np.zeros(n), c)[0]
        total = np.cos(2 * alcove_q(np.zeros(n), c)).sum()
        assert abs(total + n * kappa / lam_1) <= 2e-15 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40])
    @pytest.mark.parametrize("mu, nu, kappa", EQUILIBRIUM_COUPLINGS)
    def test_equilibrium_frequencies(self, n, mu, nu, kappa):
        # the Hessian of w . sin^-2(T q) at the equilibrium is
        # T^T diag(w 2(3 - 2 sin^2 x)/sin^4 x) T at x = T q_eq; its
        # eigenvalues are omega_j^2 with omega_j = 2 sum_{k <= j} lam_k(0)
        c = BCnCouplings(mu, nu, kappa)
        T, w = _stencil(n), _weights(n, c)
        s2 = np.sin(T @ alcove_q(np.zeros(n), c)) ** 2
        hessian = T.T @ ((w * 2 * (3 - 2 * s2) / s2**2)[:, None] * T)
        omega = 2 * np.cumsum(lambda_of_z(np.zeros(n), c))
        np.testing.assert_allclose(np.linalg.eigvalsh(hessian), np.sort(omega**2), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40])
    @pytest.mark.parametrize("mu, nu, kappa", EQUILIBRIUM_COUPLINGS)
    def test_equilibrium_stationary(self, n, mu, nu, kappa):
        # each force component against the sum of the force sizes 2|w|/|sin x|^3
        # that enter it: the force terms themselves vanish at n = 1, kappa = 0
        c = BCnCouplings(mu, nu, kappa)
        q = alcove_q(np.zeros(n), c)
        T, w = _stencil(n), _weights(n, c)
        scale = np.abs(T).T @ (2 * np.abs(w) / np.abs(np.sin(T @ q)) ** 3)
        force, _ = split(make_system(n, c), q, np.zeros(n))
        assert np.all(np.abs(force) <= 1e-11 * scale)

    @pytest.mark.parametrize("call", [dual_lax_global, alcove_q])
    def test_overflow_raises(self, call):
        # at 1e150 lam_1^2 overflows in the corner series, which raised Python's
        # OverflowError; at 1e160 |z|^2 overflows, with a RuntimeWarning
        for v, match in ((1e150, "corner series"), (1e160, r"\|z\|\^2")):
            with pytest.raises(RangeError, match=match):
                call(np.full(3, v + 0j), COUP)

    def test_lambda_of_z_overflow_raises(self):
        # |z|^2 = 1e320 came back as inf with a RuntimeWarning
        with pytest.raises(RangeError, match=r"\|z\|\^2"):
            lambda_of_z(np.full(3, 1e160 + 0j), COUP)

    def test_chart_gauge_needs_nonzero_components(self):
        with pytest.raises(ChartError):
            chart_gauge([0.5 + 0.1j, 0.0, 0.3j])

    def test_transported_family_overflow_raises(self):
        # lam_1^(2k) overflows from k = 34 on at 30 (lam_1 about 3.6e4),
        # lam_1^2 at 1e150 and |z|^2 at 1e160; the last two leaked a
        # RuntimeWarning before the RangeError
        for n, v in ((40, 30.0), (3, 1e150), (3, 1e160)):
            with pytest.raises(RangeError, match="overflow"):
                transported_family(np.full(n, v + 0j), COUP)

    def test_transported_family_ignores_phases(self):
        rng = np.random.default_rng(15)
        mods = rng.uniform(0.4, 1.3, 3)
        base = transported_family(mods * np.exp(1j * rng.uniform(-np.pi, np.pi, 3)), COUP)
        for _ in range(5):
            z = mods * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
            np.testing.assert_allclose(transported_family(z, COUP), base, atol=1e-10)
            np.testing.assert_allclose(lambda_of_z(z, COUP), lambda_of_z(mods, COUP), atol=1e-10)


class TestFamilyEval:
    def test_order_zero_normalization(self):
        rng = np.random.default_rng(17)
        lam = np.sort(rng.uniform(0.3, 3.0, 2))[::-1]
        tab = family_eval(lam, rng.normal(size=2), COUP)
        assert tab.subset_values[0] == 1.0
        assert tab.char_coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_values(self):
        tab = family_eval([2.1, 0.9], [0.55, -0.35], COUP)
        assert tab.energy == pytest.approx(FROZEN_H_PU, abs=1e-12)
        assert tab.subset_values[1] == pytest.approx(FROZEN_H1_VD, abs=1e-12)
        assert tab.subset_values[2] == pytest.approx(FROZEN_H2_VD, abs=1e-12)
        assert tab.char_coefficients[1] == pytest.approx(FROZEN_K1, abs=1e-11)
        assert tab.char_coefficients[2] == pytest.approx(FROZEN_K2, abs=1e-11)

    def test_first_member_energy_relation(self):
        rng = np.random.default_rng(18)
        lam = np.sort(rng.uniform(0.4, 3.0, 2))[::-1]
        tab = family_eval(lam, rng.normal(size=2), COUP)
        assert abs(tab.subset_values[1] - 2 * (tab.energy - 2)) < 1e-11

    def test_palindromic_coefficients(self):
        rng = np.random.default_rng(19)
        for n in (3, 5, 8):
            lam = np.sort(rng.uniform(0.4, 3.5, n))[::-1]
            K = family_eval(lam, rng.normal(size=n), COUP).char_coefficients
            np.testing.assert_allclose(
                K, K[::-1], atol=1e-10 * np.max(np.abs(K)), err_msg=f"n = {n}"
            )

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(family_points())
    def test_pair_condition_property(self, point):
        # family_eval reads one member of each pair (y, 1/y) off the top half
        lam, theta = point
        y = np.linalg.eigvalsh(family_lax(lam, theta, COUP))[lam.size:]
        assert y.min() >= 1.0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(family_points())
    def test_palindromic_property(self, point):
        lam, theta = point
        K = char_poly(family_lax(lam, theta, COUP)).coefficients
        assert np.max(np.abs(K - K[::-1])) <= 1e-10 * np.max(np.abs(K))

    def test_subset_values_match_definition(self):
        # 50-digit subset sums straight from the definition
        for lam, theta in (
            (["3.1", "1.9", "0.7"], ["0.3", "-0.5", "0.2"]),
            (["3.6", "2.5", "1.5", "0.5"], ["0.45", "-0.2", "0.35", "-0.6"]),
        ):
            lam_mp = [mp.mpf(v) for v in lam]
            theta_mp = [mp.mpf(v) for v in theta]
            want = np.array([
                float(oracle.family_hamiltonian(el, lam_mp, theta_mp))
                for el in range(len(lam) + 1)
            ])
            tab = family_eval(np.array(lam, float), np.array(theta, float), COUP)
            np.testing.assert_allclose(tab.subset_values, want, rtol=1e-12)

    @pytest.mark.parametrize("n, seed", [(8, 40), (20, 41)])
    def test_matches_mpmath_at_large_n(self, n, seed):
        # 40-digit eigenvalues, their characteristic coefficients and the
        # exact integer map with alternating signs: no step is shared with
        # the eigenvalue-pair route of family_eval.  At n = 20 the map's
        # cancellation leaves the reference within 1e-32 of a 60-digit run.
        rng = np.random.default_rng(seed)
        lam = 0.1 + np.cumsum(rng.uniform(0.2, 2.0, n))[::-1]
        theta = rng.uniform(-2.0, 2.0, n)
        M = family_matrices(n).subset_from_char
        with mp.workdps(40):
            L = oracle.rational_lax(mp_vector(lam), mp_vector(theta))
            K = [mp.re(k) for k in oracle.char_coeffs(mp.eighe(L, eigvals_only=True))]
            want = np.array([
                float((-1) ** l * mp.fsum(int(M[l, m]) * K[m] for m in range(l + 1)))
                for l in range(n + 1)
            ])
        tab = family_eval(lam, theta, COUP)
        np.testing.assert_allclose(tab.subset_values, want, rtol=1e-12)
        K = np.array([float(k) for k in K])
        assert np.max(np.abs(tab.char_coefficients - K)) <= 1e-12 * np.max(np.abs(K))

    def test_beyond_the_int64_map(self):
        # n = 40: the integer map no longer fits in int64, the pair route needs none
        n = 40
        rng = np.random.default_rng(42)
        lam = 0.1 + np.cumsum(rng.uniform(0.2, 2.0, n))[::-1]
        tab = family_eval(lam, rng.uniform(-2.0, 2.0, n), COUP)
        K = tab.char_coefficients
        assert np.all(np.isfinite(tab.subset_values)) and np.all(np.isfinite(K))
        h1 = tab.subset_values[1]
        assert abs(h1 - 2 * (tab.energy - n)) <= 1e-12 * abs(h1)
        assert np.max(np.abs(K - K[::-1])) <= 1e-12 * np.max(np.abs(K))

    def test_energy_matches_mpmath(self):
        for lam, theta in (
            (["4.4", "3.3", "2.1", "1.2", "0.5"], ["0.3", "-0.5", "0.2", "0.6", "-0.1"]),
            (
                ["7.3", "6.1", "5.2", "4.0", "3.1", "2.2", "1.4", "0.6"],
                ["0.4", "-0.3", "0.15", "-0.6", "0.25", "0.5", "-0.45", "0.1"],
            ),
        ):
            want = float(oracle.pusztai_hamiltonian(
                [mp.mpf(v) for v in lam], [mp.mpf(v) for v in theta]
            ))
            tab = family_eval(np.array(lam, float), np.array(theta, float), COUP)
            assert tab.energy == pytest.approx(want, rel=1e-12), f"n = {len(lam)}"

    def test_char_poly_matches_mpmath_at_n8(self):
        lam = ["7.3", "6.1", "5.2", "4.0", "3.1", "2.2", "1.4", "0.6"]
        theta = ["0.4", "-0.3", "0.15", "-0.6", "0.25", "0.5", "-0.45", "0.1"]
        with mp.workdps(oracle.DPS):
            L = oracle.rational_lax([mp.mpf(v) for v in lam], [mp.mpf(v) for v in theta])
            eigs = mp.eighe(L, eigvals_only=True)
        want = np.array([float(mp.re(k)) for k in oracle.char_coeffs(eigs)])
        K = char_poly(family_lax(np.array(lam, float), np.array(theta, float), COUP))
        err = np.max(np.abs(K.coefficients - want))
        assert err <= 1e-12 * np.max(np.abs(want))

    def test_lax_structure(self):
        rng = np.random.default_rng(20)
        lam = np.sort(rng.uniform(0.4, 3.0, 3))[::-1]
        L = family_lax(lam, rng.normal(size=3), COUP)
        C = half_swap(3)
        np.testing.assert_allclose(L, L.conj().T, atol=1e-11)
        np.testing.assert_allclose(C @ L @ C, np.linalg.inv(L), atol=1e-9)
        assert np.linalg.det(L).real == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unordered(self):
        with pytest.raises(DomainError):
            family_eval([1.0, 2.0], [0.0, 0.0], COUP)

    @pytest.mark.parametrize("theta", [600.0, -600.0, 700.0, -700.0])
    def test_value_overflow_raises(self, theta):
        # the matrix is finite, but (y - 1)^2 / y overflows: the subset values
        # came back [1, inf, inf] with only a RuntimeWarning
        with pytest.raises(RangeError, match="values overflow"):
            family_eval([3.0, 1.0], [theta, 0.0], COUP)

    @pytest.mark.parametrize("theta", [720.0, -720.0])
    def test_matrix_overflow_raises(self, theta):
        # e^(|theta|/2) squared overflows in the matrix; eigvalsh raised
        # numpy's LinAlgError
        for call in (family_eval, family_lax):
            with pytest.raises(RangeError, match="matrix overflows"):
                call([3.0, 1.0], [theta, 0.0], COUP)


class TestFamilyRelation:
    def test_two_particle_first_order_both_routes(self):
        q = np.array([0.8, -0.3])
        rel = family_relation(q)
        direct = 2 * np.cosh(q[0]) + 2 * np.cosh(q[1]) - 4
        assert rel.subset_values[1] == pytest.approx(direct, abs=1e-12)
        symmetric = 4 * (np.sinh(q[0] / 2) ** 2 + np.sinh(q[1] / 2) ** 2)
        assert rel.subset_values[1] == pytest.approx(symmetric, abs=1e-12)

    def test_residuals_vanish(self):
        rng = np.random.default_rng(21)
        q = rng.uniform(-1.2, 1.2, 4)
        rel = family_relation(q)
        assert rel.residual_direct < 1e-10
        assert rel.residual_inverse < 1e-10
        assert rel.residual_symmetric < 1e-10
        # cosh sums over k-subsets and all sign choices, term by term
        brute = [
            sum(
                np.cosh(np.dot(eps, q[list(sub)]))
                for sub in combinations(range(4), k)
                for eps in product((1.0, -1.0), repeat=k)
            )
            for k in range(5)
        ]
        np.testing.assert_allclose(rel.cosh_values, brute, rtol=1e-13)

    def test_triangular_maps_invert_exactly(self):
        for n in range(1, 6):
            mats = family_matrices(n)
            D = np.diag((-1) ** np.arange(n + 1)).astype(np.int64)
            composition = D @ mats.subset_from_char @ D @ mats.char_from_subset
            assert np.array_equal(composition, np.eye(n + 1, dtype=np.int64))
            assert np.array_equal(
                D @ mats.to_subset, mats.subset_from_char @ mats.to_char
            )
            assert np.all(np.diag(mats.subset_from_char) == 1)
            assert np.all(np.abs(np.diag(mats.to_char)) == 1)
            # the matrices are cached per n and shared, so they are read-only
            for M in (mats.to_subset, mats.to_char, mats.subset_from_char, mats.char_from_subset):
                with pytest.raises(ValueError):
                    M[0, 0] = 7

    def test_subset_values_match_mpmath_at_n20(self):
        # the reference is the alternating integer expansion of the
        # subset-cosh sums at 60 digits; in double that expansion is off by
        # up to 1e10 relative here
        rng = np.random.default_rng(22)
        q = rng.uniform(-1.2, 1.2, 20)
        to_subset = family_matrices(20).to_subset
        with mp.workdps(60):
            elem = oracle.char_coeffs([mp.cosh(v) for v in mp_vector(q)])
            cosh = [(-2) ** k * e for k, e in enumerate(elem)]
            want = [
                float(sum(int(to_subset[l, k]) * cosh[k] for k in range(l + 1)))
                for l in range(21)
            ]
        np.testing.assert_allclose(family_relation(q).subset_values, want, rtol=1e-12)

    def test_overflow_raises(self):
        # cosh 710 = 1.1e308: the values and the residuals came back nan
        with pytest.raises(RangeError, match="overflow"):
            family_relation([710.0, 1.0])

    def test_int64_limit_raises_range_error(self):
        family_matrices(33)  # C(66, 33) still fits
        for _ in range(2):  # a failed build is not cached: every call raises
            with pytest.raises(RangeError, match="n = 34"):
                family_matrices(34)
            with pytest.raises(DomainError):
                family_matrices(0)


class TestDualSystem:
    def test_flow_data(self):
        sys = make_dual_system(2, COUP)
        inside = PhasePoint([4.0, 1.5], [0.1, -0.2])
        outside = PhasePoint([2.5, 1.5], [0.0, 0.0])
        assert sys.contains(inside) and not sys.contains(outside)
        assert sys.boundary_margin(inside.q) > 0
        assert sys.energy(inside) == pytest.approx(
            dual_hamiltonian(DualPoint([4.0, 1.5], [0.1, -0.2]), COUP)
        )
        # the flow's energy keeps the chamber check of dual_hamiltonian
        with pytest.raises(DomainError):
            sys.hamiltonian(outside)

    def test_flow_follows_the_gradient(self):
        # q' = dH/dp and p' = -dH/dq: lam moves along +dH/dtheta and theta
        # along -dH/dlam over a short step
        lam, theta = np.array([6.1, 3.9, 1.3]), np.array([0.7, -1.9, 2.6])
        dlam, dtheta = _dual_grad(lam, theta, COUP)
        t = 1e-4
        traj = integrate_flow(
            make_dual_system(3, COUP), PhasePoint(lam, theta), (0.0, t), tol=1e-12, n_samples=2
        )
        np.testing.assert_allclose((traj.final.q - lam) / t, dtheta, rtol=1e-3, atol=1e-8)
        np.testing.assert_allclose((traj.final.p - theta) / t, -dlam, rtol=1e-3, atol=1e-8)

    @staticmethod
    def _flow_drift(lam, theta, t1, tol):
        sys = make_dual_system(lam.size, COUP)
        traj = integrate_flow(sys, PhasePoint(lam, theta), (0.0, t1), tol=tol)
        assert traj.status == "completed" and traj.times[-1] == t1
        energy = traj.invariants["energy"]
        return np.max(np.abs(energy - energy[0])) / max(1.0, abs(energy[0]))

    def test_n20_flow_conserves_energy(self):
        # chamber excess about 1 per gap and angles within 0.5, the range
        # of the benchmark's dual flow, here at n = 20
        rng = np.random.default_rng(20)
        lam = lambda_of_z(np.sqrt(1.0 + 0.1 * rng.uniform(-1.0, 1.0, 20)), COUP)
        assert self._flow_drift(lam, rng.uniform(-0.5, 0.5, 20), 1.0, 1e-9) <= 1e-9

    def test_drift_follows_the_tolerance(self):
        # the difference stencil's truncation error put a floor of
        # 6e-11 to 7e-10 under this drift; the closed form has none
        rng = np.random.default_rng(0)
        lam = lambda_of_z(np.sqrt(0.7 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, 6))), COUP)
        assert self._flow_drift(lam, rng.uniform(-0.5, 0.5, 6), 3.0, 1e-12) <= 1e-11

    def test_n20_flow_with_full_circle_angles(self):
        # angles over the whole circle; the difference stencil drifted by
        # 7e-4 here, RK45 on the closed-form gradient stays near its tolerance
        rng = np.random.default_rng(1)
        lam = random_chamber_lam(rng, 20, COUP)
        assert self._flow_drift(lam, rng.uniform(-np.pi, np.pi, 20), 1.0, 1e-9) <= 1e-7


def couplings_with(kappa):
    return BCnCouplings(mu=COUP.mu, nu=COUP.nu, kappa=kappa)


def oracle_gradient(lam, theta, c):
    dlam, dtheta = oracle.dual_gradient(
        mp_vector(lam), mp_vector(theta), mp.mpf(c.mu), mp.mpf(c.nu), mp.mpf(c.kappa)
    )
    return np.array([float(v) for v in dlam + dtheta])


@st.composite
def dual_points(draw):
    n = draw(st.integers(2, 20))
    kappa = draw(st.floats(-COUP.nu, COUP.nu, exclude_min=True, exclude_max=True))
    excess = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    theta = draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))
    return lambda_of_z(np.sqrt(excess), COUP), np.array(theta), couplings_with(kappa)


    def test_far_chamber_overflow_raises(self):
        # (2 lam_1)^3 overflows from lam_1 = 2.8e102 on; at lam_1 = 1e150 the
        # gradient, and at 1e160 the energy, leaked an overflow RuntimeWarning
        with pytest.raises(RangeError, match="lam_1"):
            _dual_grad(np.array([1e150, 5.0]), np.array([0.3, -0.1]), COUP)
        with pytest.raises(RangeError, match="lam_1"):
            dual_hamiltonian(DualPoint([1e160, 5.0], [0.0, 0.0]), COUP)
        _dual_grad(np.array([2.8e102, 5.0]), np.array([0.3, -0.1]), COUP)

class TestDualGradient:
    def assert_matches_oracle(self, lam, theta, c):
        want = oracle_gradient(lam, theta, c)
        got = np.concatenate(_dual_grad(np.asarray(lam, float), np.asarray(theta, float), c))
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_matches_mpmath_at_oracle_point(self):
        self.assert_matches_oracle(
            [float(v) for v in oracle.LAM], [float(v) for v in oracle.THETA], COUP
        )

    @pytest.mark.parametrize("kappa", [0.0, 0.25, -0.25])
    @pytest.mark.parametrize("n", [6, 12, 20])
    def test_matches_mpmath_at_large_n(self, n, kappa):
        c = couplings_with(kappa)
        rng = np.random.default_rng(n)
        lam = random_chamber_lam(rng, n, c)
        self.assert_matches_oracle(lam, rng.uniform(-np.pi, np.pi, n), c)

    def test_matches_mpmath_at_n40(self):
        # each 50-digit partial costs about 0.15 s at n = 40, so take those
        # of the first, middle and last two particles, in lam and in theta
        n = 40
        rng = np.random.default_rng(n)
        lam = random_chamber_lam(rng, n, COUP)
        theta = rng.uniform(-np.pi, np.pi, n)
        coords = [i + shift for shift in (0, n) for i in (0, 1, n // 2, n - 2, n - 1)]
        want = np.array([
            float(oracle.dual_partial(mp_vector(lam), mp_vector(theta), i)) for i in coords
        ])
        got = np.concatenate(_dual_grad(lam, theta, COUP))[coords]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))

    def test_finite_where_a_product_factor_vanishes(self):
        # 1 - 4 mu^2 / lam_n^2 = 0 at lam_n = 2 mu, inside the chamber as nu < 2 mu
        assert COUP.nu < 2 * COUP.mu
        lam = np.array([2 * COUP.mu + 4.5, 2 * COUP.mu + 2.1, 2 * COUP.mu])
        self.assert_matches_oracle(lam, np.array([0.4, -1.2, 2.0]), COUP)

    def test_bracket_orientation(self):
        # {lam_j, H} = dH/dtheta_j and {theta_j, H} = -dH/dlam_j
        sys = make_dual_system(3, COUP)
        x = PhasePoint([6.1, 3.9, 1.3], [0.7, -1.9, 2.6])
        dlam, dtheta = split(sys, x.q, x.p)
        for j in range(3):
            lam_j = lambda y, j=j: y.q[j]
            theta_j = lambda y, j=j: y.p[j]
            assert poisson_bracket_fd(lam_j, sys.hamiltonian, x) == pytest.approx(
                dtheta[j], rel=1e-6, abs=1e-8
            )
            assert poisson_bracket_fd(theta_j, sys.hamiltonian, x) == pytest.approx(
                -dlam[j], rel=1e-6, abs=1e-8
            )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(dual_points())
    def test_gradient_matches_differences(self, point):
        lam, theta, c = point
        dlam, dtheta = _dual_grad(lam, theta, c)

        def energy(lam, theta):
            return dual_hamiltonian(DualPoint(lam, theta), c)

        step = 1e-6
        for j in range(lam.size):
            e = np.zeros(lam.size)
            e[j] = step
            fd_lam = (energy(lam + e, theta) - energy(lam - e, theta)) / (2 * step)
            fd_theta = (energy(lam, theta + e) - energy(lam, theta - e)) / (2 * step)
            assert dlam[j] == pytest.approx(fd_lam, rel=1e-6, abs=1e-6)
            assert dtheta[j] == pytest.approx(fd_theta, rel=1e-6, abs=1e-6)
