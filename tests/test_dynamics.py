"""Tests for the generic flow/bracket/scattering layer."""

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
    poisson_bracket_fd,
)
from intlab.errors import ConvergenceError, DomainError, StiffnessError
from intlab.linalg import _stencil
from hamilton import energy, first, kinetic

COUP = sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
EPS = np.finfo(float).eps


def free_system(n):
    return HamiltonianSystem(
        dim=n,
        hamiltonian=energy(lambda q: 0.0),
        grad=kinetic(np.zeros_like),
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
        # the solver's own vectors skip the checks; public ones keep them
        with pytest.raises(DomainError):
            PhasePoint.from_vector(np.zeros(5))


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
            domain_check=lambda x: first(x.q) > 0,
            boundary_margin=first,
            name="half-line",
        )
        traj = integrate_flow(sys, PhasePoint([1.0], [-1.0]), (0.0, 3.0), tol=1e-10)
        assert traj.status == "truncated"
        assert traj.times[-1] <= 1.0 + 1e-6
        assert all(x.q[0] > 0 for x in traj.states)

    def test_stiff_singularity_raises(self):
        # 1-d Kepler infall: the particle reaches the origin in finite time
        sys = HamiltonianSystem(
            dim=1,
            hamiltonian=energy(lambda q: -1.0 / abs(first(q))),
            grad=kinetic(lambda q: -np.sign(q) / q**2),
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

    def test_self_convergence(self):
        # halving the tolerance should at least halve the endpoint error
        from intlab.calogero import make_system

        sys = make_system(3, 1.0)
        x0 = PhasePoint([1.0, 0.0, -1.0], [1.0, -1.0, 1.0])
        ref = integrate_flow(sys, x0, (0.0, 4.0), tol=2.5e-8, n_samples=2)
        end_ref = ref.final.to_vector()

        def endpoint_error(tol):
            traj = integrate_flow(sys, x0, (0.0, 4.0), tol=tol, n_samples=2)
            return np.max(np.abs(traj.final.to_vector() - end_ref))

        assert endpoint_error(1e-7) >= 2.0 * endpoint_error(5e-8)


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

    def test_domain_check_overrides_margin(self):
        sys = HamiltonianSystem(
            dim=1,
            hamiltonian=lambda x: 0.0,
            grad=kinetic(np.zeros_like),
            domain_check=lambda x: first(x.q) < 0,
            boundary_margin=first,
        )
        assert not sys.contains(PhasePoint([1.0], [0.0]))
        assert sys.contains(PhasePoint([-1.0], [0.0]))


class TestRaiseSites:
    def test_energy_rejects_a_non_finite_hamiltonian(self):
        sys = HamiltonianSystem(dim=1, hamiltonian=lambda x: np.nan, grad=free_system(1).grad)
        with pytest.raises(DomainError, match="Hamiltonian"):
            sys.energy(PhasePoint([0.0], [0.0]))

    def test_energy_needs_one_value_per_sample(self):
        # a Hamiltonian written for one point folds a block into one number
        sys = HamiltonianSystem(
            dim=1, hamiltonian=lambda x: 0.5 * float(np.sum(x.p**2)), grad=free_system(1).grad
        )
        assert sys.energy(PhasePoint([0.0], [2.0])) == 2.0
        with pytest.raises(DomainError, match="one energy per sample"):
            integrate_flow(sys, PhasePoint([0.0], [2.0]), (0.0, 1.0), tol=1e-9)

    def test_rejects_a_start_outside_the_domain(self):
        sys = calogero.make_system(2, 1.0)
        with pytest.raises(DomainError, match="outside domain"):
            integrate_flow(sys, PhasePoint([0.0, 1.0], [0.0, 0.0]), (0.0, 1.0), tol=1e-9)

    def test_a_flow_that_leaves_at_once_raises(self):
        # free particles 1.5e-8 apart and closing at speed 2 reach the 1e-8
        # boundary margin at t = 2.5e-9, before the second sample at t = 0.005
        sys = calogero.make_system(2, 0.0)
        x0 = PhasePoint([1.5e-8, 0.0], [-1.0, 1.0])
        with pytest.raises(DomainError, match="immediately"):
            integrate_flow(sys, x0, (0.0, 1.0), tol=1e-9)


def pair_rhs(T, w, q, p, f=None, df=None):
    """(p, -dV/dq) of pair_system's potential, with dV/dq the chain rule
    (-2 w f'(x) / f(x)^3) @ T at x = T q written out: grad folds the sign
    into its force instead, and a negation is exact."""
    x = T @ q
    s = x if f is None else f(x)
    slope = -2.0 * w
    top = slope if df is None else slope * df(x)
    return np.concatenate([p, -((top / (s * s * s)) @ T)])


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


def dual_case(n, rng):
    gaps = 2 * COUP.mu + rng.uniform(0.8, 1.2, size=n)
    lam = COUP.nu + np.cumsum(gaps[::-1])[::-1]
    theta = rng.uniform(-0.3, 0.3, size=n)
    dlam, dtheta = sutherland._dual_grad(lam, theta, COUP)
    return sutherland.make_dual_system(n, COUP), lam, theta, np.concatenate([dtheta, -dlam])


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize(
    "case", [direct_case, cm_case, dual_case], ids=["sutherland", "ratcm", "dual"]
)
def test_grad_writes_the_right_hand_side_in_place(case, n):
    sys, q, p, want = case(n, np.random.default_rng(n))
    y = np.concatenate([q, p])
    y0, out = y.copy(), np.full_like(y, np.nan)
    assert sys.grad(y, out) is out
    assert np.array_equal(y, y0)
    assert np.array_equal(out, want)  # bit for bit, the sign of a zero aside


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
    # integrate_flow audits its samples as the rows of one block, stored as
    # _dopri leaves them, one column per sample: each row must read as the
    # point does, margins bit for bit and energies to 2 ulp
    rng = np.random.default_rng([n, m])
    cases = [case(n, rng) for _ in range(m)]
    sys = cases[0][0]
    ys = np.array([np.concatenate([q, p]) for _, q, p, _ in cases]).T
    block = PhasePoint._view(ys.T, n)
    points = [PhasePoint(q, p) for _, q, p, _ in cases]

    margins = np.array([sys.boundary_margin(x.q) for x in points])
    assert sys.boundary_margin(block.q).tobytes() == margins.tobytes()
    energies = np.array([sys.energy(x) for x in points])
    assert np.all(np.abs(sys.energy(block) - energies) <= 2 * EPS * np.abs(energies))
    assert sys.contains(block).tolist() == [True] * m

    k = m // 2
    for bad in (OUTSIDE[case](ys[:n, k]), np.full(n, np.nan)):
        if bad is None:
            continue
        spoiled = ys.copy()
        spoiled[:n, k] = bad
        inside = sys.contains(PhasePoint._view(spoiled.T, n))
        assert inside.tolist() == [j != k for j in range(m)]


class TestPoissonBracketFd:
    def test_canonical_pairs(self):
        x = PhasePoint([0.4, -1.2], [0.9, 2.0])
        for i in range(2):
            for j in range(2):
                val = poisson_bracket_fd(
                    lambda y, i=i: y.q[i], lambda y, j=j: y.p[j], x
                )
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_antisymmetry_on_same_observable(self):
        H = lambda y: 0.5 * float(np.dot(y.p, y.p)) + float(np.sum(np.cos(y.q)))
        x = PhasePoint([0.3, 0.7], [1.0, -0.2])
        assert poisson_bracket_fd(H, H, x) == pytest.approx(0.0, abs=1e-8)

    def test_polynomial_hand_value(self):
        # f = q1^2 p2, g = q2 p1: {f, g} = 2 q1 q2 p2 - q1^2 p1
        f = lambda y: y.q[0] ** 2 * y.p[1]
        g = lambda y: y.q[1] * y.p[0]
        x = PhasePoint([1.3, -0.6], [0.4, 2.1])
        want = 2 * 1.3 * (-0.6) * 2.1 - 1.3 ** 2 * 0.4
        assert poisson_bracket_fd(f, g, x) == pytest.approx(want, abs=1e-7)

    def test_canonical_matrix(self):
        rng = np.random.default_rng(6)
        x = PhasePoint(rng.normal(size=3), rng.normal(size=3))
        coords = [(lambda y, i=i: y.q[i]) for i in range(3)]
        coords += [(lambda y, i=i: y.p[i]) for i in range(3)]
        J = np.zeros((6, 6))
        for a in range(6):
            for b in range(6):
                J[a, b] = poisson_bracket_fd(coords[a], coords[b], x)
        want = np.block(
            [[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]]
        )
        np.testing.assert_allclose(J, want, atol=1e-8)

    def test_retry_then_error(self):
        def spiky(y):
            if abs(y.q[0]) > 1e-12:
                raise DomainError("off the point")
            return 0.0

        with pytest.raises(DomainError):
            poisson_bracket_fd(spiky, lambda y: y.p[0], PhasePoint([0.0], [0.0]))


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
    x = PhasePoint([0.0], [0.0])
    with pytest.raises(DomainError):
        Trajectory(times=np.array([0.0, 0.0]), states=(x, x))


def test_system_requires_gradient():
    # the flows have no difference fallback; the stencil serves only brackets
    with pytest.raises(TypeError, match="grad"):
        HamiltonianSystem(dim=1, hamiltonian=lambda x: 0.0)


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


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
def test_builders_reject_a_non_integer_particle_count(n):
    # make_dual_system(2.5, c) built a system of dimension 2.5, and the
    # stencil builders failed with an untyped TypeError
    c = sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
    for build in (
        lambda: sutherland.make_system(n, c),
        lambda: sutherland.make_dual_system(n, c),
        lambda: calogero.make_system(n, 1.0),
        lambda: sutherland.family_matrices(n),
    ):
        with pytest.raises(DomainError, match="n must be an integer"):
            build()


@pytest.mark.parametrize("n", [0, -1])
def test_builders_reject_fewer_than_one_particle(n):
    # at n = 0 the direct and dual builders made dimension-0 systems and the
    # CM one a system that completed a 0-particle flow
    c = sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
    for build in (
        lambda: sutherland.make_system(n, c),
        lambda: sutherland.make_dual_system(n, c),
        lambda: calogero.make_system(n, 1.0),
    ):
        with pytest.raises(DomainError, match="n >= 1"):
            build()
