"""Tests for the rational Calogero-Moser module.

The 3-particle scattering spectrum below is frozen from
tests/oracles/calogero_reference.py (mpmath at 40 digits); the gradient
tests evaluate that module's exact pair sum at test time.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlab.calogero import (
    RatCMPoint,
    acd_functions,
    hamiltonian,
    lax_LQ,
    make_system,
    moser_B,
    sklyanin_coords,
)
from intlab.calogero import _lax_weights
from intlab.dynamics import PhasePoint, extract_scattering, integrate_flow, invariant_drift
from intlab.errors import ConvergenceError, DegeneracyError, DomainError
from hamilton import bracket, differences, split
from oracles import calogero_reference as cm_oracle

# sorted spectrum of L at q=(1,0,-1), p=(1,-1,1), g=1
SCATTER_SPECTRUM = np.array(
    [-1.7516538173274882557, 0.80753581290578253247, 1.9441180044217057232]
)


PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def random_point(rng, n, g, min_gap=0.35):
    gaps = min_gap + rng.uniform(0.0, 1.0, size=n - 1)
    q = np.concatenate([[0.0], -np.cumsum(gaps)]) + rng.normal()
    p = rng.normal(size=n)
    return RatCMPoint(q, p, g)


@st.composite
def cm_points(draw, max_n=12, close=False):
    # close=True mixes gaps down to 1e-3 in: draws near collisions
    n = draw(st.integers(1, max_n))
    g = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.2, 2.0))
    gap = st.floats(0.35, 2.0)
    if close:
        gap = st.one_of(st.floats(1e-3, 1e-2), gap)
    gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
    p = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    return RatCMPoint(np.concatenate([[0.0], -np.cumsum(gaps)]), p, g)


def a_poly_derivatives(lam, z):
    """A, A', A'' at z from the factored form A(z) = prod (z - lam_k)."""
    lam = np.asarray(lam)
    diffs = z - lam
    A = np.prod(diffs)
    n = len(lam)
    Ap = sum(np.prod(np.delete(diffs, j)) for j in range(n))
    App = 2.0 * sum(
        np.prod(np.delete(diffs, [j, k]))
        for j in range(n)
        for k in range(j + 1, n)
    )
    return complex(A), complex(Ap), complex(App)


class TestRatCMPoint:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            RatCMPoint([0.0, 1.0], [0.0, 0.0], 1.0)
        with pytest.raises(DomainError):
            RatCMPoint([1.0, 1.0], [0.0, 0.0], 1.0)

    def test_non_finite_rejected(self):
        for q, p in (
            ([1.0, 0.0], [np.nan, 0.2]),
            ([np.nan, 0.0], [0.1, 0.2]),
            ([np.inf, 0.0], [0.1, 0.2]),
            ([1.0, 0.0], [0.1, -np.inf]),
        ):
            with pytest.raises(DomainError):
                RatCMPoint(q, p, 1.0)

    def test_shape_rejected(self):
        for q, p in (
            ([[1.0, 0.0]], [[0.1, 0.2]]),  # 2-D, one row
            ([], []),
            (0.5, 0.1),  # 0-D
        ):
            with pytest.raises(DomainError):
                RatCMPoint(q, p, 1.0)

    def test_non_finite_coupling_rejected(self):
        # a nan g gave nan Lax entries, an infinite one an infinite energy
        for g in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="g must be finite"):
                RatCMPoint([1.0, 0.0], [0.1, 0.2], g)
            with pytest.raises(DomainError, match="g must be finite"):
                make_system(2, g)

    def test_free_coupling_allowed(self):
        x = RatCMPoint([1.0, 0.0], [0.0, 0.0], 0.0)
        L, _, _ = lax_LQ(x)
        np.testing.assert_allclose(L, np.zeros((2, 2)))


class TestLaxLQ:
    def test_single_particle(self):
        L, Q, v = lax_LQ(RatCMPoint([0.7], [1.3], 2.0))
        np.testing.assert_allclose(L, [[1.3]])
        np.testing.assert_allclose(Q, [[0.7]])
        np.testing.assert_allclose(v, [1.0])

    def test_symmetric_pair_spectrum(self):
        d, g = 0.8, 1.4
        L, _, _ = lax_LQ(RatCMPoint([d, -d], [0.0, 0.0], g))
        lam = np.linalg.eigvalsh(L)
        np.testing.assert_allclose(lam, [-g / (2 * d), g / (2 * d)], atol=1e-13)

    def test_commutator_identity(self):
        # [zI - L, Q] = i g (vv* - I) for every z
        rng = np.random.default_rng(14)
        x = random_point(rng, 5, g=0.7)
        L, Q, v = lax_LQ(x)
        for z in (0.0, 1.7, -2.3 + 0.4j):
            lhs = (z * np.eye(5) - L) @ Q - Q @ (z * np.eye(5) - L)
            rhs = 1j * x.g * (np.outer(v, v) - np.eye(5))
            assert np.linalg.norm(lhs - rhs) <= 1e-12


class TestMoserB:
    def test_free_limit(self):
        B = moser_B(RatCMPoint([1.0, 0.0, -1.0], [0.1, 0.2, 0.3], 0.0))
        np.testing.assert_allclose(B, np.zeros((3, 3)))

    def test_symmetric_pair_hand_formula(self):
        d, g = 0.6, 1.1
        B = moser_B(RatCMPoint([d, -d], [0.0, 0.0], g))
        w = g / (2 * d) ** 2
        want = 1j * np.array([[w, -w], [-w, w]])
        np.testing.assert_allclose(B, want, atol=1e-14)

    def test_anti_hermitian(self):
        rng = np.random.default_rng(2)
        B = moser_B(random_point(rng, 4, g=1.0))
        assert np.linalg.norm(B + B.conj().T) <= 1e-13

    def test_lax_equation_along_flow(self):
        sys = make_system(3, 1.0)
        x0 = PhasePoint([1.0, 0.0, -1.0], [1.0, -1.0, 1.0])
        traj = integrate_flow(sys, x0, (0.0, 3.0), tol=1e-12, n_samples=6001)
        dt = traj.times[1] - traj.times[0]

        def lax_at(k):
            s = traj.states[k]
            return lax_LQ(RatCMPoint(s.q, s.p, 1.0))[0]

        for k in np.linspace(400, 5600, 10, dtype=int):
            # five-point stencil keeps the truncation error below the noise
            dL = (
                -lax_at(k + 2) + 8 * lax_at(k + 1) - 8 * lax_at(k - 1) + lax_at(k - 2)
            ) / (12 * dt)
            L = lax_at(k)
            s = traj.states[k]
            B = moser_B(RatCMPoint(s.q, s.p, 1.0))
            assert np.linalg.norm(dL - (L @ B - B @ L)) <= 1e-6


class TestAcdFunctions:
    def test_single_particle(self):
        x = RatCMPoint([0.9], [0.4], 1.0)
        A, C, D = acd_functions(x, 2.0)
        assert A == pytest.approx(2.0 - 0.4)
        assert C == pytest.approx(0.9)
        assert D == pytest.approx(0.9)

    def test_theorem_identity_random(self):
        rng = np.random.default_rng(25)
        x = random_point(rng, 4, g=0.5)
        L, _, _ = lax_LQ(x)
        lam = np.linalg.eigvalsh(L)
        for z in (0.3, -1.1 + 0.8j, 2.4j):
            A, C, D = acd_functions(x, z)
            _, _, App = a_poly_derivatives(lam, z)
            resid = abs(C - (D + 0.5j * x.g * App))
            assert resid <= 1e-10 * (1.0 + abs(A))

    def test_theorem_identity_sweep(self):
        # 5 points for each (n, g) pair: 100 configurations total
        rng = np.random.default_rng(77)
        for n in range(2, 7):
            for g in (1.0, -1.0, 0.3, -0.3):
                for _ in range(5):
                    x = random_point(rng, n, g)
                    L, _, _ = lax_LQ(x)
                    lam = np.linalg.eigvalsh(L)
                    z = rng.normal() + 1j * rng.normal()
                    A, C, D = acd_functions(x, z)
                    _, _, App = a_poly_derivatives(lam, z)
                    assert abs(C - D - 0.5j * g * App) <= 1e-10 * (1.0 + abs(A))

    @PROPERTY
    @given(cm_points(), st.complex_numbers(max_magnitude=5.0))
    def test_theorem_identity_property(self, x, z):
        lam = np.linalg.eigvalsh(lax_LQ(x)[0])
        A, C, D = acd_functions(x, z)
        _, _, App = a_poly_derivatives(lam, z)
        scale = (1.0 + np.max(np.abs(x.q))) * np.prod(1.0 + np.abs(z - lam))
        assert abs(C - D - 0.5j * x.g * App) <= 1e-12 * scale

    def test_rejects_non_finite_z(self):
        # a nan z came back as nan for A, C and D
        x = RatCMPoint([0.9, -0.2], [0.4, 0.1], 1.0)
        for z in (np.nan, np.inf, complex(1.0, np.nan)):
            with pytest.raises(DomainError, match="z must be finite"):
                acd_functions(x, z)

    def test_diagonal_gauge_quotient_gives_angles(self):
        # with L diagonal the D/A' quotient at lambda_k returns the
        # conjugate coordinate phi_k directly
        lam = np.array([1.9, 0.3, -1.2])
        phi = np.array([0.5, -0.7, 1.1])
        g = 0.8
        Qt = np.diag(phi.astype(complex))
        for j in range(3):
            for k in range(3):
                if j != k:
                    Qt[j, k] = -1j * g / (lam[j] - lam[k])
        for k in range(3):
            # adjugate of the diagonal matrix lam_k I - diag(lam)
            diffs = lam[k] - lam
            adj = np.diag([np.prod(np.delete(diffs, j)) for j in range(3)])
            Dval = np.trace(Qt @ adj)
            _, Ap, _ = a_poly_derivatives(lam, lam[k])
            assert Dval / Ap == pytest.approx(phi[k], abs=1e-12)


class TestSklyaninCoords:
    def test_single_particle(self):
        coords = sklyanin_coords(RatCMPoint([0.6], [1.7], 1.0))
        np.testing.assert_allclose(coords.lam, [1.7])
        np.testing.assert_allclose(coords.theta, [0.6])
        np.testing.assert_allclose(coords.f, [0.0])

    def test_theta_splits_into_mu_plus_f(self):
        rng = np.random.default_rng(8)
        for n in (4, 20, 40):
            c = sklyanin_coords(random_point(rng, n, g=1.2))
            scale = np.max(np.abs(c.mu) + np.abs(c.f))
            err = np.max(np.abs(c.theta - c.mu - c.f))
            assert err <= 1e-12 * scale, f"n = {n}: {err:.2e} against scale {scale:.2e}"
            # mu is real, f imaginary
            assert np.isrealobj(c.mu)
            assert np.max(np.abs(c.f.real)) <= 1e-12 * scale

    def test_degenerate_spectrum_raises(self):
        # at g = 0 with equal momenta, L = 0.4 I has one eigenvalue n times
        x = RatCMPoint([1.0, 0.0, -1.0], [0.4, 0.4, 0.4], 0.0)
        with pytest.raises(DegeneracyError):
            sklyanin_coords(x)

    def test_degeneracy_gap_boundary(self):
        # at g = 0, L = diag(p): momenta 5e-10 apart sit inside the 1e-9 gap and
        # raise, momenta 2e-9 apart do not
        q = [1.0, 0.0, -1.0]
        with pytest.raises(DegeneracyError, match="closer than 1e-09"):
            sklyanin_coords(RatCMPoint(q, [0.4, 0.4 + 5e-10, 1.0], 0.0))
        c = sklyanin_coords(RatCMPoint(q, [0.4, 0.4 + 2e-9, 1.0], 0.0))
        np.testing.assert_array_equal(c.lam, [0.4, 0.4 + 2e-9, 1.0])

    @pytest.mark.parametrize("n, seed", [(8, 80), (20, 81)])
    def test_matches_mpmath_at_large_n(self, n, seed):
        # lam, Re theta and mu against a 30-digit eigendecomposition of the same
        # L, relative to max(1, |.|).  Over 100 such points per n the errors
        # reached 2.5e-15, 2.6e-14 and 1.9e-14, with L sent to zheevd directly
        # or through linalg's outside-matrix front
        rng = np.random.default_rng(seed)
        for g in (0.7, -1.3):
            x = random_point(rng, n, g)
            c = sklyanin_coords(x)
            want = cm_oracle.spectral_coords(x.q, x.p, g)
            for got, ref, bound in zip((c.lam, c.theta.real, c.mu), want, (1e-14, 1e-13, 1e-13)):
                assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= bound

    @PROPERTY
    @given(cm_points())
    def test_theta_splits_into_mu_plus_f_property(self, x):
        c = sklyanin_coords(x)
        scale = np.max(np.abs(c.mu) + np.abs(c.f))
        assert np.max(np.abs(c.theta - c.mu - c.f)) <= 1e-12 * scale
        assert np.isrealobj(c.mu)
        assert np.max(np.abs(c.f.real)) <= 1e-12 * scale

    def test_eigenvalue_brackets_vanish(self):
        g = 0.9
        x0 = PhasePoint([1.1, 0.0, -1.3], [0.4, -0.2, 0.6])

        def lam_k(k):
            def obs(y):
                return sklyanin_coords(RatCMPoint(y.q, y.p, g)).lam[k]

            return obs

        for j in range(3):
            for k in range(3):
                val = bracket(lam_k(j), lam_k(k), x0)
                assert val == pytest.approx(0.0, abs=1e-6)

    def test_conjugate_brackets(self):
        g = 0.9
        x0 = PhasePoint([1.1, 0.0, -1.3], [0.4, -0.2, 0.6])

        def lam_k(k):
            return lambda y: sklyanin_coords(RatCMPoint(y.q, y.p, g)).lam[k]

        def theta_re_j(j):
            return lambda y: sklyanin_coords(RatCMPoint(y.q, y.p, g)).theta[j].real

        for j in range(3):
            for k in range(3):
                val = bracket(theta_re_j(j), lam_k(k), x0)
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-6)


class TestGradient:
    def test_gradient_matches_differences(self):
        rng = np.random.default_rng(5)
        x = random_point(rng, 8, 1.0)
        dq, dp = split(make_system(8, 1.0), x.q, x.p)
        fd = differences(lambda q: hamiltonian(RatCMPoint(q, x.p, 1.0)), x.q, 1e-6)
        assert dq == pytest.approx(fd, rel=1e-6, abs=1e-6)
        np.testing.assert_allclose(dp, x.p)

    @pytest.mark.parametrize("n", [1, 3, 8, 20, 40])
    def test_gradient_matches_exact_sum(self, n):
        x = random_point(np.random.default_rng(40 + n), n, 1.3)
        dq, dp = split(make_system(n, x.g), x.q, x.p)
        want = cm_oracle.cm_gradient([mp.mpf(float(v)) for v in x.q], mp.mpf(x.g))
        want = np.array([float(v) for v in want])
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(dq, want, rtol=0, atol=1e-13 * scale)
        np.testing.assert_array_equal(dp, x.p)

    def test_oracle_pins_its_precision(self, monkeypatch):
        # the oracle runs at its own 40 digits whatever the caller's precision
        seen, fsum = [], mp.fsum
        monkeypatch.setattr(mp, "fsum", lambda terms: seen.append(mp.mp.dps) or fsum(terms))
        with mp.workdps(15):
            cm_oracle.cm_gradient([mp.mpf(1), mp.mpf(0), mp.mpf(-1)], mp.mpf(1))
        assert seen == [cm_oracle.DPS] * 3

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cm_points(max_n=20, close=True))
    def test_gradient_matches_differences_near_collisions(self, x):
        dq, dp = split(make_system(x.n, x.g), x.q, x.p)
        step = 1e-4 * min(1.0, float(np.min(-np.diff(x.q), initial=1.0)))
        fd = differences(lambda q: hamiltonian(RatCMPoint(q, x.p, x.g)), x.q, step)
        scale = max(1.0, float(np.max(np.abs(fd))))
        np.testing.assert_allclose(dq, fd, rtol=0, atol=1e-6 * scale)
        np.testing.assert_array_equal(dp, x.p)


class TestFlow:
    def setup_method(self):
        self.sys = make_system(3, 1.0)
        self.x0 = PhasePoint([1.0, 0.0, -1.0], [1.0, -1.0, 1.0])

    def lax_spectrum(self, y):
        L, _, _ = lax_LQ(RatCMPoint(y.q, y.p, 1.0))
        return np.linalg.eigvalsh(L)

    def test_ordering_preserved(self):
        traj = integrate_flow(self.sys, self.x0, (0.0, 10.0), tol=1e-10)
        for x in traj.states:
            assert x.q[0] > x.q[1] > x.q[2]
        assert traj.status == "completed"

    def test_isospectral_drift(self):
        traj = integrate_flow(
            self.sys,
            self.x0,
            (0.0, 10.0),
            tol=1e-10,
            invariant_family={"lax": self.lax_spectrum},
        )
        assert invariant_drift(traj)["lax"] <= 1e-8
        assert invariant_drift(traj)["energy"] <= 100 * 1e-10

    def test_scattering_momenta_are_lax_eigenvalues(self):
        fwd = integrate_flow(self.sys, self.x0, (0.0, 120.0), tol=1e-11)
        bwd = integrate_flow(self.sys, self.x0, (0.0, -120.0), tol=1e-11)
        data = extract_scattering(fwd, bwd)
        np.testing.assert_allclose(
            data.theta_plus, SCATTER_SPECTRUM[::-1], atol=1e-4
        )
        # time reversal hands the same momentum set to the far past
        np.testing.assert_allclose(data.theta_minus, SCATTER_SPECTRUM, atol=1e-4)

    def test_hamiltonian_value(self):
        x = RatCMPoint([1.0, 0.0, -1.0], [1.0, -1.0, 1.0], 1.0)
        want = 1.5 + 1.0 + 1.0 + 0.25
        assert hamiltonian(x) == pytest.approx(want, abs=1e-14)


def exact_flow(x0, g, times):
    """(q, p) of the rational CM flow from x0 at each time, one row each, by
    self-duality: L(x0) has spectrum lam and weights d = u_k^* Q u_k, and
    _lax_weights at the point (lam, d + t lam) returns the positions at time t
    as its spectrum and the momenta as its weights."""
    lam, _, d = _lax_weights(RatCMPoint(x0.q, x0.p, g))
    lam, d = lam[::-1], d[::-1]
    rows = []
    for t in times:
        q, _, p = _lax_weights(RatCMPoint(lam, d + t * lam, g))
        rows.append(np.concatenate([q[::-1], p[::-1]]))
    return np.array(rows)


class TestTrueError:
    TOLS = (1e-8, 1e-10, 1e-12)

    @pytest.mark.parametrize("n", [4, 8])
    def test_dop853_error_falls_with_tol(self, n):
        # DOP853 against the exact flow over t <= 20, relative to max(1, |state|).
        # In 260 draws per n the largest errors were 2.5e-7, 1.8e-9 and 4.5e-11
        # at the three tolerances, and the smallest fall by a factor 100 in tol
        # was 3.4
        rng = np.random.default_rng(24 + n)
        for draw in range(20):
            g = (0.7, 1.3)[draw % 2]
            x0 = random_point(rng, n, g).as_phase()
            sys = make_system(n, g)
            errors = []
            for tol in self.TOLS:
                traj = integrate_flow(sys, x0, (0.0, 20.0), tol=tol, n_samples=21)
                exact = exact_flow(x0, g, traj.times)
                flow = np.hstack([traj.states.q, traj.states.p])
                errors.append(np.max(np.abs(flow - exact) / np.maximum(1.0, np.abs(exact))))
            assert all(err <= 200 * tol for err, tol in zip(errors, self.TOLS)), errors
            assert errors[0] > 2 * errors[1] and errors[1] > 2 * errors[2], errors


class TestScattering:
    """theta^+- are the eigenvalues of L, and the forward intercepts approach
    the weights d_k = u_k^* diag(q) u_k of its eigenvectors."""

    @staticmethod
    def lax_data(x):
        diff = x.q[:, None] - x.q
        np.fill_diagonal(diff, 1.0)
        L = 1j * x.g / diff  # built here, not by lax_LQ
        np.fill_diagonal(L, x.p)
        lam, U = np.linalg.eigh(L)
        return lam, x.q @ np.abs(U) ** 2

    @staticmethod
    def flows(x0, g, T):
        sys = make_system(x0.dim, g)
        fwd = integrate_flow(sys, x0, (0.0, T), tol=1e-10)
        bwd = integrate_flow(sys, x0, (0.0, -T), tol=1e-10)
        return fwd, bwd

    @pytest.mark.parametrize("n, seed", [(4, 31), (8, 32), (8, 33)])
    def test_errors_fall_with_the_span(self, n, seed):
        # the benchmark's points and span; the momenta converge as 1/T^2
        # (ratio (120/500)^2 = 0.058) and the intercepts as 1/T (0.24)
        x = random_point(np.random.default_rng(seed), n, 1.0)
        lam, d = self.lax_data(x)
        errors = []
        for T in (120.0, 500.0):
            data = extract_scattering(*self.flows(x.as_phase(), x.g, T))
            theta = max(
                np.max(np.abs(data.theta_plus - lam[::-1])),
                np.max(np.abs(data.theta_minus - lam)),
            )
            errors.append((theta, np.max(np.abs(data.lambda_plus - d[::-1]))))
        (theta_120, d_120), (theta_500, d_500) = errors
        assert theta_500 <= 0.1 * theta_120
        assert d_500 <= 0.3 * d_120
        assert theta_500 <= 1e-4 * np.max(np.abs(lam))

    def test_short_flow_rejected(self):
        # at T = 5 the positions stay within 1.9e-3 of the free line, inside
        # its bound, but the momenta still move by 3.5e-3
        fwd, bwd = self.flows(PhasePoint([0.5, -0.5], [0.1, -0.1]), 1.0, 5.0)
        with pytest.raises(ConvergenceError, match="momenta moved by 3.5"):
            extract_scattering(fwd, bwd)
