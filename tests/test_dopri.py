"""integrate_flow against scipy's solve_ivp(method="RK45") as the oracle.

The in-house Dormand-Prince driver reproduces RK45 step for step, so the
samples, their times and the status must be equal bit for bit, and the
evaluation count must match solve_ivp's nfev.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from intlab import calogero, sutherland
from intlab.dynamics import HamiltonianSystem, PhasePoint, integrate_flow
from intlab.errors import StiffnessError
from hamilton import energy, first, kinetic

COUP = sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
BOUNDARY = 1e-8  # the margin at which integrate_flow stops a flow


def oracle(sys, x0, t_span, tol, n_samples=201):
    """solve_ivp on Hamilton's equations, the boundary margin as a terminal event."""
    n = x0.dim

    def rhs(t, y):
        return sys.grad(y, np.empty_like(y))

    events = None
    if sys.boundary_margin is not None:
        def boundary(t, y):
            return float(sys.boundary_margin(y[:n])) - BOUNDARY

        boundary.terminal = True
        boundary.direction = -1
        events = [boundary]
    return solve_ivp(
        rhs,
        t_span,
        x0.to_vector(),
        method="RK45",
        rtol=tol,
        atol=tol,
        t_eval=np.linspace(t_span[0], t_span[1], n_samples),
        events=events,
    )


def assert_matches_oracle(sys, x0, t_span, tol):
    sol = oracle(sys, x0, t_span, tol)
    traj = integrate_flow(sys, x0, t_span, tol)
    times = traj.times
    states = np.array([x.to_vector() for x in traj.states]).T
    if t_span[1] < t_span[0]:
        times, states = times[::-1], states[:, ::-1]
    assert np.array_equal(times, sol.t)
    assert np.array_equal(states, sol.y)
    assert traj.status == ("truncated" if sol.status == 1 else "completed")
    assert traj.diagnostics["nfev"] == sol.nfev
    return sol, traj


def direct_point(n, rng):
    grid = (np.pi / 2) * np.arange(n, 0, -1) / (n + 1)
    q = grid + rng.uniform(-0.1, 0.1, size=n) * (grid[0] - grid[-1]) / n
    return PhasePoint(q, rng.normal(size=n))


def dual_point(n, rng):
    gaps = 2 * COUP.mu + rng.uniform(0.8, 1.2, size=n)
    lam = COUP.nu + np.cumsum(gaps[::-1])[::-1]
    return PhasePoint(lam, rng.uniform(-0.3, 0.3, size=n))


def cm_point(n, rng):
    q = -np.cumsum(0.35 + rng.uniform(0.0, 1.0, size=n))
    return PhasePoint(q, rng.normal(size=n))


CASES = [
    pytest.param(lambda n: sutherland.make_system(n, COUP), direct_point, 3, 0.5, 1e-9, id="direct-3"),
    pytest.param(lambda n: sutherland.make_system(n, COUP), direct_point, 8, 0.5, 1e-9, id="direct-8"),
    pytest.param(lambda n: sutherland.make_dual_system(n, COUP), dual_point, 6, 3.0, 1e-9, id="dual-6"),
    pytest.param(lambda n: calogero.make_system(n, 1.0), cm_point, 4, 100.0, 1e-10, id="cm-4"),
    pytest.param(lambda n: calogero.make_system(n, 1.0), cm_point, 8, 100.0, 1e-10, id="cm-8"),
]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
@pytest.mark.parametrize("build, point, n, span, tol", CASES)
def test_flows_match_solve_ivp(build, point, n, span, tol, sign):
    sys = build(n)
    x0 = point(n, np.random.default_rng(n))
    sol, traj = assert_matches_oracle(sys, x0, (0.0, sign * span), tol)
    assert sol.status == 0
    assert traj.diagnostics["t_stop"] == sign * span
    end = traj.states[-1 if sign > 0 else 0]
    assert traj.diagnostics["stop_margin"] == pytest.approx(sys.boundary_margin(end.q), rel=1e-9)


def falling():
    # constant force towards the wall q = 0: q(t) = 1 + p t - t^2 / 2 meets
    # it along a curve, so the event root is not a plain secant step
    return HamiltonianSystem(
        dim=1,
        hamiltonian=energy(first),
        grad=kinetic(lambda q: -np.ones(1)),
        boundary_margin=first,
        name="falling",
    )


@pytest.mark.parametrize("t_span", [(0.0, 3.0), (0.0, -3.0)], ids=["forward", "backward"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.55, 0.9])
def test_truncation_matches_the_event_root(t_span, p):
    sol, traj = assert_matches_oracle(falling(), PhasePoint([1.0], [p]), t_span, 1e-10)
    assert sol.status == 1
    diag = traj.diagnostics
    assert diag["t_stop"] == sol.t_events[0][0]
    assert diag["stop_margin"] == pytest.approx(BOUNDARY, abs=1e-12)
    assert diag["accepted"] >= 1 and diag["nfev"] == 2 + 6 * (diag["accepted"] + diag["rejected"])


def test_stiff_failure_matches_solve_ivp():
    # 1-d Kepler infall: the particle reaches the origin in finite time
    sys = HamiltonianSystem(
        dim=1,
        hamiltonian=energy(lambda q: -1.0 / abs(first(q))),
        grad=kinetic(lambda q: -np.sign(q) / q**2),
        name="kepler-infall",
    )
    x0 = PhasePoint([1.0], [0.0])
    assert oracle(sys, x0, (0.0, 3.0), 1e-10).status == -1
    with pytest.raises(StiffnessError):
        integrate_flow(sys, x0, (0.0, 3.0), tol=1e-10)


def test_rejections_are_counted():
    # a large first step on a fast oscillator has to be cut back at least once
    sys = HamiltonianSystem(
        dim=1,
        hamiltonian=energy(lambda q: 200.0 * first(q) ** 2),
        grad=kinetic(lambda q: -400.0 * q),
        name="oscillator",
    )
    _, traj = assert_matches_oracle(sys, PhasePoint([1.0], [0.0]), (0.0, 2.0), 1e-8)
    assert traj.diagnostics["rejected"] > 0
    assert traj.diagnostics["stop_margin"] is None
