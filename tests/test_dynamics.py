"""Tests for the generic flow/scattering layer and the test-side bracket of tests/hamilton.py."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlab import calogero, sutherland
from intlab.dynamics import (
    HamiltonianSystem,
    PhasePoint,
    Trajectory,
    extract_scattering,
    integrate_flow,
    invariant_drift,
    pair_system,
)
from intlab.errors import ConvergenceError, DomainError, StiffnessError
from intlab.linalg import _stencil
from hamilton import bracket, differences, energy, everywhere, first, kinetic
from test_dopri import oracle

COUP = sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)


def free_system(n):
    return HamiltonianSystem(
        dim=n,
        hamiltonian=energy(lambda q: 0.0),
        grad=kinetic(np.zeros_like),
        boundary_margin=everywhere,
        name="free",
    )


class TestPhasePoint:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            PhasePoint(np.zeros(2), np.zeros(3))

    def test_vector_roundtrip(self):
        x = PhasePoint([1.0, 2.0], [3.0, 4.0])
        y = PhasePoint.from_vector(x.to_vector())
        np.testing.assert_allclose(y.q, x.q)
        np.testing.assert_allclose(y.p, x.p)

    def test_odd_length_vector_rejected(self):
        with pytest.raises(DomainError):
            PhasePoint.from_vector(np.zeros(5))

    def test_a_block_holds_one_point_per_row(self):
        y = np.arange(12.0).reshape(3, 4)
        block = PhasePoint.from_vector(y)
        assert block.dim == 2 and block.q.shape == (3, 2)
        assert np.array_equal(block.to_vector(), y)
        for k in range(3):
            assert np.array_equal(block[k].to_vector(), y[k])
        assert np.array_equal(block[1:].to_vector(), y[1:])
        with pytest.raises(DomainError):
            PhasePoint(np.zeros((3, 2)), np.zeros((2, 2)))


class TestIntegrateFlow:
    def test_free_motion_is_linear(self):
        x0 = PhasePoint([1.0, -0.5], [0.3, 0.8])
        traj = integrate_flow(free_system(2), x0, (0.0, 5.0), tol=1e-10)
        for t, x in zip(traj.times, traj.states):
            np.testing.assert_allclose(x.q, x0.q + t * x0.p, atol=1e-9)
            np.testing.assert_allclose(x.p, x0.p, atol=1e-12)
        assert traj.status == "completed"

    def test_energy_recorded(self):
        x0 = PhasePoint([0.0], [2.0])
        traj = integrate_flow(free_system(1), x0, (0.0, 1.0), tol=1e-10)
        np.testing.assert_allclose(traj.invariants["energy"], 2.0, atol=1e-12)
        assert invariant_drift(traj)["energy"] < 1e-12

    def test_backward_span_gives_increasing_times(self):
        x0 = PhasePoint([1.0], [1.0])
        traj = integrate_flow(free_system(1), x0, (0.0, -3.0), tol=1e-10)
        assert traj.times[0] == pytest.approx(-3.0)
        assert traj.times[-1] == pytest.approx(0.0)
        assert np.all(np.diff(traj.times) > 0)
        # earliest sample is the far past of the flow
        np.testing.assert_allclose(traj.initial.q, x0.q - 3.0 * x0.p, atol=1e-9)

    def test_truncates_on_domain_exit(self):
        sys = HamiltonianSystem(
            dim=1,
            hamiltonian=energy(lambda q: 0.0),
            grad=kinetic(np.zeros_like),
            boundary_margin=first,
            name="half-line",
        )
        traj = integrate_flow(sys, PhasePoint([1.0], [-1.0]), (0.0, 3.0), tol=1e-10)
        assert traj.status == "truncated"
        assert traj.times[-1] <= 1.0 + 1e-6
        assert np.all(traj.states.q > 0)

    def test_stiff_singularity_raises(self):
        # 1-d Kepler infall: the particle reaches the origin in finite time
        sys = HamiltonianSystem(
            dim=1,
            hamiltonian=energy(lambda q: -1.0 / abs(first(q))),
            grad=kinetic(lambda q: -np.sign(q) / q**2),
            boundary_margin=everywhere,
            name="kepler-infall",
        )
        with pytest.raises((StiffnessError, DomainError)):
            integrate_flow(sys, PhasePoint([1.0], [0.0]), (0.0, 3.0), tol=1e-10)

    def test_rejects_bad_tolerance(self):
        # non-finite tol or t_span used to hang the integrator; the flow
        # inputs are checked before any step is taken
        x0 = PhasePoint([0.0], [1.0])
        for tol in (0.0, -1e-9, np.nan, np.inf):
            with pytest.raises(DomainError):
                integrate_flow(free_system(1), x0, (0, 1), tol=tol)
        for span in ((0, np.inf), (0, np.nan), (-np.inf, 0), (1, 1)):
            with pytest.raises(DomainError):
                integrate_flow(free_system(1), x0, span, tol=1e-9)
        for n_samples in (1, 0):
            with pytest.raises(DomainError):
                integrate_flow(free_system(1), x0, (0, 1), tol=1e-9, n_samples=n_samples)

    def test_rejects_a_malformed_span_or_tolerance(self):
        # t_span = 1.0 raised a bare TypeError, a third entry was dropped
        # and a one-entry array tol was accepted
        x0 = PhasePoint([0.0], [1.0])
        for span in (1.0, (0, 1, 2), (1,), [[0, 1]]):
            with pytest.raises(DomainError, match="t_span"):
                integrate_flow(free_system(1), x0, span, tol=1e-9)
        for tol in (np.array([1e-8]), [1e-8, 1e-8]):
            with pytest.raises(DomainError, match="tol"):
                integrate_flow(free_system(1), x0, (0, 1), tol=tol)
        traj = integrate_flow(free_system(1), x0, np.array([0, 1]), tol=np.float64(1e-9))
        assert traj.status == "completed"

    def test_rejects_non_integer_samples(self):
        # a float count used to fail inside np.linspace with a TypeError
        x0 = PhasePoint([0.0], [1.0])
        for n_samples in (2.5, 3.0, "3", None):
            with pytest.raises(DomainError, match="integer"):
                integrate_flow(free_system(1), x0, (0, 1), tol=1e-9, n_samples=n_samples)
        traj = integrate_flow(free_system(1), x0, (0, 1), tol=1e-9, n_samples=np.int64(3))
        assert len(traj.times) == 3

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_a_point_of_another_dimension(self, n):
        # at n = 2 the dual system used to integrate the short point and
        # report "completed"; the others failed inside numpy
        c = sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
        cases = [
            (sutherland.make_system(3, c), np.linspace(1.2, 0.3, n)),
            (sutherland.make_dual_system(3, c), 5.0 + 2.5 * np.arange(n, 0, -1)),
            (calogero.make_system(3, 1.0), np.arange(n, 0.0, -1.0)),
        ]
        for sys, q in cases:
            with pytest.raises(DomainError, match="dimension"):
                integrate_flow(sys, PhasePoint(q, np.zeros(n)), (0.0, 0.1), tol=1e-9)

    @pytest.mark.parametrize(
        "build, q, p, span, tol, t_stop",
        [
            # free particles 1.5e-8 apart and closing at speed 2 reach the 1e-8
            # boundary margin at t = 2.5e-9, before the second sample at t = 0.005
            (lambda: calogero.make_system(2, 0.0), [1.5e-8, 0.0], [-1.0, 1.0], 1.0, 1e-9, 2.5e-9),
            # test_dopri's dual orbit 0.005 before its below-margin point (margin
            # 3.3e-6): the event stops it at t = 0.0049, before the sample at 0.025
            (
                lambda: sutherland.make_dual_system(3, COUP),
                [5.540725885306691, 3.9407225544602635, 2.2834823906148753],
                [1.7888801972892483, 0.8303487605286722, 1.4298147367996152],
                5.0,
                1e-6,
                0.0049,
            ),
        ],
        ids=["ratcm", "dual"],
    )
    def test_a_flow_that_leaves_at_once_is_one_sample(self, build, q, p, span, tol, t_stop):
        # the start keeps its sample; this raised DomainError("...immediately")
        sys, x0 = build(), PhasePoint(q, p)
        sol = oracle(sys, x0, (0.0, span), tol)
        traj = integrate_flow(sys, x0, (0.0, span), tol)
        assert sol.status == 1 and traj.status == "truncated"
        assert np.array_equal(traj.times, sol.t) and traj.times.tolist() == [0.0]
        assert np.array_equal(traj.states.to_vector().T, sol.y)
        assert traj.diagnostics["nfev"] == sol.nfev
        assert traj.diagnostics["t_stop"] == sol.t_events[0][0] == pytest.approx(t_stop, rel=1e-2)
        assert traj.diagnostics["stop_margin"] == pytest.approx(1e-8, abs=1e-12)
        assert invariant_drift(traj) == {"energy": 0.0}
        with pytest.raises(ConvergenceError, match="one-sample"):
            extract_scattering(traj, traj)

    @pytest.mark.parametrize("q0", [[0.9, -0.2], [1e200, -0.2]])
    def test_gaps_of_1e200_flow_quietly(self, q0):
        # beyond a gap of about 5.6e102 the cube of the gap overflowed in the
        # force, with a RuntimeWarning; the force is 0 there
        sys = calogero.make_system(2, 1.0)
        traj = integrate_flow(sys, PhasePoint(q0, [0.4, 0.1]), (0.0, 1e200), tol=1e-8)
        assert traj.status == "completed"
        assert np.isfinite(traj.final.q).all()

    def test_self_convergence(self):
        # against a tol-1e-13 reference the endpoint error stays within ten
        # tolerances and falls with them; it need not halve when tol halves
        # (1.8e-8 at tol 1e-7, 2.9e-8 at 5e-8)
        from intlab.calogero import make_system

        sys = make_system(3, 1.0)
        x0 = PhasePoint([1.0, 0.0, -1.0], [1.0, -1.0, 1.0])
        ref = integrate_flow(sys, x0, (0.0, 4.0), tol=1e-13, n_samples=2)
        end_ref = ref.final.to_vector()

        def endpoint_error(tol):
            traj = integrate_flow(sys, x0, (0.0, 4.0), tol=tol, n_samples=2)
            return np.max(np.abs(traj.final.to_vector() - end_ref))

        tols = [1e-6, 1e-8, 1e-10]
        errors = [endpoint_error(tol) for tol in tols]
        assert all(e <= 10 * tol for e, tol in zip(errors, tols))
        assert errors[0] > errors[1] > errors[2]


class TestContains:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_margin_decides_membership(self, q):
        sys = HamiltonianSystem(
            dim=1,
            hamiltonian=lambda x: 0.0,
            grad=kinetic(np.zeros_like),
            boundary_margin=first,
        )
        assert sys.contains(PhasePoint([q], [0.0])) is bool(q > 0)

    def test_no_domain_contains_every_point(self):
        for q in ([0.0, 0.0], [-1e300, 1e300], [np.inf, np.nan]):
            assert free_system(2).contains(PhasePoint(q, [0.0, 0.0]))


class TestRaiseSites:
    def test_energy_rejects_a_non_finite_hamiltonian(self):
        sys = dataclasses.replace(free_system(1), hamiltonian=lambda x: np.nan)
        with pytest.raises(DomainError, match="Hamiltonian"):
            sys.energy(PhasePoint([0.0], [0.0]))

    def test_energy_needs_one_value_per_sample(self):
        # a Hamiltonian written for one point folds a block into one number
        sys = dataclasses.replace(
            free_system(1), hamiltonian=lambda x: 0.5 * float(np.sum(x.p**2))
        )
        assert sys.energy(PhasePoint([0.0], [2.0])) == 2.0
        with pytest.raises(DomainError, match="one energy per sample"):
            integrate_flow(sys, PhasePoint([0.0], [2.0]), (0.0, 1.0), tol=1e-9)

    def test_rejects_a_start_outside_the_domain(self):
        sys = calogero.make_system(2, 1.0)
        with pytest.raises(DomainError, match="outside domain"):
            integrate_flow(sys, PhasePoint([0.0, 1.0], [0.0, 0.0]), (0.0, 1.0), tol=1e-9)


def pair_rhs(T, w, q, p, f=None, df=None):
    """(p, -dV/dq) of pair_system's potential, with dV/dq the chain rule
    (-2 w f'(x) / f(x)^3) @ T at x = T q written out: grad folds the sign
    into its force instead, and a negation is exact."""
    x = T @ q
    s = x if f is None else f(x)
    slope = -2.0 * w
    top = slope if df is None else slope * df(x)
    return np.concatenate([p, -((top / s / s / s) @ T)])


def direct_case(n, rng):
    grid = (np.pi / 2) * np.arange(n, 0, -1) / (n + 1)
    q = grid + rng.uniform(-0.1, 0.1, size=n) / (n + 1)
    p = rng.normal(size=n)
    want = pair_rhs(_stencil(n), sutherland._weights(n, COUP), q, p, np.sin, np.cos)
    return sutherland.make_system(n, COUP), q, p, want


def cm_case(n, rng):
    q = -np.cumsum(0.35 + rng.uniform(0.0, 1.0, size=n))
    p = rng.normal(size=n)
    T = _stencil(n)[: n * (n - 1) // 2]
    return calogero.make_system(n, 1.3), q, p, pair_rhs(T, np.full(len(T), 1.3**2), q, p)


def far_cm_case(n, rng):
    # gaps of 1e200, beyond the 5.6e102 where the cube of a gap overflows: the
    # force underflows to 0 quietly
    q = -1e200 * np.arange(n)
    p = rng.normal(size=n)
    return calogero.make_system(n, 1.3), q, p, np.concatenate([p, np.zeros(n)])


def dual_case(n, rng):
    gaps = 2 * COUP.mu + rng.uniform(0.8, 1.2, size=n)
    lam = COUP.nu + np.cumsum(gaps[::-1])[::-1]
    theta = rng.uniform(-0.3, 0.3, size=n)
    dlam, dtheta = sutherland._dual_grad(lam, theta, COUP)
    return sutherland.make_dual_system(n, COUP), lam, theta, np.concatenate([dtheta, -dlam])


@pytest.mark.parametrize("n", [1, 3, 8, 20])
@pytest.mark.parametrize(
    "case",
    [direct_case, cm_case, far_cm_case, dual_case],
    ids=["sutherland", "ratcm", "ratcm-far", "dual"],
)
def test_grad_writes_the_right_hand_side_in_place(case, n):
    sys, q, p, want = case(n, np.random.default_rng(n))
    y = np.concatenate([q, p])
    y0, out = y.copy(), np.full_like(y, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sys.grad(y, out) is out
    assert np.array_equal(y, y0)
    assert np.array_equal(out, want)  # bit for bit, the sign of a zero aside


def test_pair_system_takes_array_likes():
    # a list w failed in 2.0 * w with an untyped TypeError, and a list T on .shape
    T = np.array([[1.0, -1.0]])
    sys = pair_system(T, np.array([1.0]), calogero._order_margin, "pair")
    listed = pair_system(T.tolist(), [1.0], calogero._order_margin, "pair")
    y = np.array([0.9, -0.2, 0.4, 0.1])
    assert np.array_equal(listed.grad(y, np.empty(4)), sys.grad(y, np.empty(4)))
    x = PhasePoint(y[:2], y[2:])
    assert listed.hamiltonian(x) == sys.hamiltonian(x)


def test_pair_system_needs_one_weight_per_row():
    # a 1-D T raised a bare IndexError, and a short w built a system whose
    # first energy raised numpy's ValueError
    T = np.array([[1.0, -1.0], [1.0, 1.0]])
    for bad_T, bad_w in ((T[0], [1.0]), (T, [1.0]), (T, [1.0, 2.0, 3.0]), (T, [[1.0, 2.0]])):
        with pytest.raises(DomainError, match="weight per row"):
            pair_system(bad_T, bad_w, calogero._order_margin, "pair")


# A configuration outside each domain, made from one inside it; the line of
# a single particle has no outside.
OUTSIDE = {
    direct_case: lambda q: np.concatenate([[np.pi / 2 + 0.1], q[1:]]),
    cm_case: lambda q: q[::-1] if q.size > 1 else None,
    dual_case: lambda q: np.concatenate([q[:-1], [COUP.nu / 2]]),
}


@pytest.mark.parametrize("m", [1, 2, 201])
@pytest.mark.parametrize("n", [1, 3, 8, 20])
@pytest.mark.parametrize(
    "case", [direct_case, cm_case, dual_case], ids=["sutherland", "ratcm", "dual"]
)
def test_a_block_audits_as_its_samples(case, n, m):
    # integrate_flow audits its samples as the rows of one block, as _dopri
    # writes them: each row must read as the point does, margins bit for
    # bit and energies too
    rng = np.random.default_rng([n, m])
    cases = [case(n, rng) for _ in range(m)]
    sys = cases[0][0]
    ys = np.array([np.concatenate([q, p]) for _, q, p, _ in cases])
    block = PhasePoint.from_vector(ys)
    points = [PhasePoint(q, p) for _, q, p, _ in cases]

    margins = np.array([sys.boundary_margin(x.q) for x in points])
    assert sys.boundary_margin(block.q).tobytes() == margins.tobytes()
    energies = np.array([sys.energy(x) for x in points])
    assert sys.energy(block).tobytes() == energies.tobytes()
    assert sys.contains(block).tolist() == [True] * m

    k = m // 2
    for bad in (OUTSIDE[case](ys[k, :n]), np.full(n, np.nan)):
        if bad is None:
            continue
        spoiled = ys.copy()
        spoiled[k, :n] = bad
        inside = sys.contains(PhasePoint.from_vector(spoiled))
        assert inside.tolist() == [j != k for j in range(m)]


class TestPoissonBracketFd:
    def test_canonical_pairs(self):
        x = PhasePoint([0.4, -1.2], [0.9, 2.0])
        for i in range(2):
            for j in range(2):
                val = bracket(lambda y, i=i: y.q[i], lambda y, j=j: y.p[j], x)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_antisymmetry_on_same_observable(self):
        H = lambda y: 0.5 * float(np.dot(y.p, y.p)) + float(np.sum(np.cos(y.q)))
        x = PhasePoint([0.3, 0.7], [1.0, -0.2])
        assert bracket(H, H, x) == pytest.approx(0.0, abs=1e-8)

    def test_polynomial_hand_value(self):
        # f = q1^2 p2, g = q2 p1: {f, g} = 2 q1 q2 p2 - q1^2 p1
        f = lambda y: y.q[0] ** 2 * y.p[1]
        g = lambda y: y.q[1] * y.p[0]
        x = PhasePoint([1.3, -0.6], [0.4, 2.1])
        want = 2 * 1.3 * (-0.6) * 2.1 - 1.3 ** 2 * 0.4
        assert bracket(f, g, x) == pytest.approx(want, abs=1e-7)

    def test_canonical_matrix(self):
        rng = np.random.default_rng(6)
        x = PhasePoint(rng.normal(size=3), rng.normal(size=3))
        coords = [(lambda y, i=i: y.q[i]) for i in range(3)]
        coords += [(lambda y, i=i: y.p[i]) for i in range(3)]
        J = np.zeros((6, 6))
        for a in range(6):
            for b in range(6):
                J[a, b] = bracket(coords[a], coords[b], x)
        want = np.block(
            [[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]]
        )
        np.testing.assert_allclose(J, want, atol=1e-8)


@pytest.mark.parametrize("h", [1e-3, [1e-3, 2e-3, 5e-4]], ids=["one-step", "per-entry"])
def test_differences_of_a_cubic_carry_h_squared(h):
    # the central difference of y^3 is 3 y^2 + h^2 exactly, up to rounding
    y = np.array([0.7, -1.3, 2.2])
    got = differences(lambda v: np.sum(v**3), y, h)
    np.testing.assert_allclose(got, 3 * y**2 + np.square(h), rtol=1e-10, atol=0)


class TestExtractScattering:
    def run_free(self, q0, p0, T=40.0):
        sys = free_system(len(q0))
        x0 = PhasePoint(q0, p0)
        fwd = integrate_flow(sys, x0, (0.0, T), tol=1e-12)
        bwd = integrate_flow(sys, x0, (0.0, -T), tol=1e-12)
        return extract_scattering(fwd, bwd)

    def test_free_system_momenta(self):
        data = self.run_free([1.0, 0.0, -1.0], [0.5, -0.3, 1.2])
        np.testing.assert_allclose(data.theta_plus, [1.2, 0.5, -0.3], atol=1e-9)
        np.testing.assert_allclose(data.theta_minus, [-0.3, 0.5, 1.2], atol=1e-9)

    def test_free_system_phases(self):
        data = self.run_free([2.0, -2.0], [1.0, -1.0])
        np.testing.assert_allclose(data.lambda_plus, [2.0, -2.0], atol=1e-8)

    def test_not_asymptotic_rejected(self):
        # an oscillator never becomes free
        sys = HamiltonianSystem(
            dim=1,
            hamiltonian=energy(lambda q: 12.5 * first(q) ** 2),
            grad=kinetic(lambda q: -25.0 * q),
            boundary_margin=everywhere,
            name="oscillator",
        )
        x0 = PhasePoint([1.0], [0.0])
        fwd = integrate_flow(sys, x0, (0.0, 20.0), tol=1e-10)
        bwd = integrate_flow(sys, x0, (0.0, -20.0), tol=1e-10)
        with pytest.raises(ConvergenceError):
            extract_scattering(fwd, bwd)

    def test_slow_oscillator_rejected(self):
        # omega = 0.003: over the last quarter of t in [0, 400] the momenta move
        # by only 4.4e-4, under the 1e-3 bound, but the positions leave the
        # free line through the last sample by 1.95e-2
        w2 = 0.003**2
        sys = HamiltonianSystem(
            dim=1,
            hamiltonian=energy(lambda q: 0.5 * w2 * first(q) ** 2),
            grad=kinetic(lambda q: -w2 * q),
            boundary_margin=everywhere,
            name="slow oscillator",
        )
        x0 = PhasePoint([1.0], [0.0])
        fwd = integrate_flow(sys, x0, (0.0, 400.0), tol=1e-10)
        bwd = integrate_flow(sys, x0, (0.0, -400.0), tol=1e-10)
        with pytest.raises(ConvergenceError, match="off the free line"):
            extract_scattering(fwd, bwd)

    def test_read_off_the_outermost_samples(self):
        sys = free_system(3)
        x0 = PhasePoint([1.0, 0.0, -1.0], [0.5, -0.3, 1.2])
        fwd = integrate_flow(sys, x0, (0.0, 40.0), tol=1e-12)
        bwd = integrate_flow(sys, x0, (0.0, -40.0), tol=1e-12)
        data = extract_scattering(fwd, bwd)
        order = np.argsort(fwd.final.p)[::-1]
        assert np.array_equal(data.theta_plus, fwd.final.p[order])
        assert np.array_equal(data.lambda_plus, (fwd.final.q - fwd.final.p * 40.0)[order])
        assert np.array_equal(data.theta_minus, np.sort(bwd.initial.p))

    def test_trajectories_of_different_dimensions_raise(self):
        # theta^+ and theta^- pair up componentwise; this returned 2 and 3 momenta
        pair = PhasePoint([1.0, -1.0], [0.5, -0.5])
        fwd = integrate_flow(free_system(2), pair, (0.0, 40.0), tol=1e-12)
        trio = PhasePoint([1.0, 0.0, -1.0], [0.5, -0.3, 1.2])
        bwd = integrate_flow(free_system(3), trio, (0.0, -40.0), tol=1e-12)
        with pytest.raises(DomainError, match="one dimension"):
            extract_scattering(fwd, bwd)


class TestInvariantDrift:
    def test_constant_family(self):
        traj = integrate_flow(
            free_system(1),
            PhasePoint([0.0], [1.0]),
            (0.0, 2.0),
            tol=1e-10,
            invariant_family={"const": lambda x: 1.0},
        )
        drift = invariant_drift(traj)
        assert drift["const"] == 0.0

    def test_position_is_not_conserved(self):
        traj = integrate_flow(
            free_system(1),
            PhasePoint([0.0], [1.0]),
            (0.0, 2.0),
            tol=1e-10,
            invariant_family={"q1": lambda x: x.q[0]},
        )
        drift = invariant_drift(traj)
        assert drift["q1"] == pytest.approx(2.0, abs=1e-8)

    def test_uses_stored_invariants(self):
        traj = integrate_flow(
            free_system(2),
            PhasePoint([1.0, 0.0], [0.2, -0.4]),
            (0.0, 3.0),
            tol=1e-10,
            invariant_family={"psum": lambda x: float(np.sum(x.p))},
        )
        drift = invariant_drift(traj)
        assert drift["psum"] <= 1e-12
        assert "energy" in drift


def test_trajectory_requires_increasing_times():
    x = PhasePoint([[0.0], [0.0]], [[0.0], [0.0]])
    with pytest.raises(DomainError):
        Trajectory(times=np.array([0.0, 0.0]), states=x)


def test_trajectory_needs_one_sample_per_time():
    x = PhasePoint([[0.0], [1.0]], [[0.0], [0.0]])
    Trajectory(times=[0.0, 1.0], states=x)
    for times in ([0.0, 1.0, 2.0], [0.0]):
        with pytest.raises(DomainError, match="one sample per time"):
            Trajectory(times=times, states=x)
    for states in (x[0], (x[0], x[1])):
        with pytest.raises(DomainError, match="one sample per time"):
            Trajectory(times=[0.0, 1.0], states=states)
    with pytest.raises(DomainError, match="one sample per time"):
        Trajectory(times=0.0, states=x[0])  # failed in np.diff with a ValueError


def test_point_entry_points_reject_a_block():
    # integrate_flow's start is one point
    block = PhasePoint([[0.9, -0.2], [1.9, -1.2]], [[0.4, 0.1], [0.4, 0.1]])
    with pytest.raises(DomainError, match="dimension"):
        integrate_flow(calogero.make_system(2, 1.0), block, (0.0, 0.1), tol=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
@pytest.mark.parametrize(
    "case", [direct_case, cm_case, dual_case], ids=["sutherland", "ratcm", "dual"]
)
def test_a_trajectory_stores_its_audited_block(case, sign):
    # the stored block is the audited one: its energies are the invariant,
    # and row k, its energy and what an invariant_family observable sees at
    # times[k] are those of sample k alone
    sys, q, p, _ = case(3, np.random.default_rng(3))
    traj = integrate_flow(
        sys,
        PhasePoint(q, p),
        (0.0, 0.5 * sign),
        tol=1e-9,
        n_samples=11,
        invariant_family={"y": PhasePoint.to_vector},
    )
    energy = traj.invariants["energy"]
    assert sys.energy(traj.states).tobytes() == energy.tobytes()
    assert [sys.energy(traj.states[k]) for k in range(11)] == energy.tolist()
    rows = traj.states.to_vector()
    assert rows.shape == (11, 6) and np.array_equal(traj.invariants["y"], rows)
    for k in range(11):
        assert np.array_equal(traj.states[k].to_vector(), rows[k])
    assert np.array_equal(traj.initial.to_vector(), rows[0])
    assert np.array_equal(traj.final.to_vector(), rows[-1])


def test_system_requires_gradient():
    # the flows have no difference fallback
    with pytest.raises(TypeError, match="grad"):
        HamiltonianSystem(dim=1, hamiltonian=lambda x: 0.0, boundary_margin=everywhere)


@pytest.mark.parametrize(
    "sys, x0",
    [
        (
            sutherland.make_system(2, sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)),
            sutherland.SutherlandPoint([1.0, 0.4], [0.1, 0.2]),
        ),
        (calogero.make_system(2, 1.0), calogero.RatCMPoint([1.0, 0.0], [0.1, 0.2], 1.0)),
    ],
    ids=["sutherland", "ratcm"],
)
def test_domain_point_is_not_a_phase_point(sys, x0):
    # the domain points carry n, not dim; this used to fail with AttributeError
    with pytest.raises(DomainError, match="PhasePoint"):
        integrate_flow(sys, x0, (0.0, 0.1), tol=1e-9)


# every public callable that takes a particle count n
COUNTED = (
    lambda n: sutherland.make_system(n, COUP),
    lambda n: sutherland.make_dual_system(n, COUP),
    lambda n: calogero.make_system(n, 1.0),
    sutherland.family_matrices,
)


@pytest.mark.parametrize(
    "n",
    [2.5, 2.0, "2", None, pytest.param([2], id="list"), pytest.param(np.array([2]), id="1-d")],
)
def test_builders_reject_a_non_integer_particle_count(n):
    # make_dual_system(2.5, c) built a system of dimension 2.5, and the
    # stencil builders failed with an untyped TypeError; a list or an array
    # failed so in the cache that hashes n
    for build in COUNTED:
        with pytest.raises(DomainError, match="n must be an integer"):
            build(n)


def test_builders_take_a_zero_d_integer_array():
    for build in COUNTED[:3]:
        sys = build(np.array(2))
        assert sys.dim == 2 and sys.name == build(2).name
    assert sutherland.family_matrices(np.array(2)) is sutherland.family_matrices(2)


@pytest.mark.parametrize("n", [0, -1])
def test_builders_reject_fewer_than_one_particle(n):
    # at n = 0 the direct and dual builders made dimension-0 systems and the
    # CM one a system that completed a 0-particle flow
    for build in COUNTED:
        with pytest.raises(DomainError, match="n >= 1"):
            build(n)
