"""integrate_flow against scipy's solve_ivp(method="DOP853") as the oracle.

integrate_flow takes its start from scipy's DOP853 and runs the steps in-house
(`dynamics._dopri`), so the samples, their times and the status must be equal
bit for bit, and the evaluation count must match solve_ivp's nfev.  Both run
quietly under np.errstate, where a trial stage with a non-finite entry fails
the error test.  The one departure is where scipy's error norm is 0/0: there
integrate_flow takes a zero error, as Hairer's Fortran DOP853 does, and
solve_ivp fails.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from intlab import calogero, dynamics, sutherland
from intlab.dynamics import HamiltonianSystem, PhasePoint, integrate_flow
from intlab.errors import StiffnessError
from hamilton import energy, everywhere, first, kinetic

COUP = sutherland.BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
BOUNDARY = 1e-8  # the margin at which integrate_flow stops a flow


def oracle(sys, x0, t_span, tol, n_samples=201):
    """solve_ivp on Hamilton's equations, the boundary margin as a terminal event."""
    n = x0.dim

    def rhs(t, y):
        return sys.grad(y, np.empty_like(y))

    def boundary(t, y):
        return float(sys.boundary_margin(y[:n])) - BOUNDARY

    boundary.terminal = True
    boundary.direction = -1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return solve_ivp(
            rhs,
            t_span,
            x0.to_vector(),
            method="DOP853",
            rtol=tol,
            atol=tol,
            t_eval=np.linspace(t_span[0], t_span[1], n_samples),
            events=[boundary],
        )


def assert_matches_oracle(sys, x0, t_span, tol, n_samples=201):
    sol = oracle(sys, x0, t_span, tol, n_samples)
    traj = integrate_flow(sys, x0, t_span, tol, n_samples=n_samples)
    times = traj.times
    states = traj.states.to_vector().T
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
    # cm-scattering's setting: long free spans where the step grows
    pytest.param(lambda n: calogero.make_system(n, 1.0), cm_point, 8, 500.0, 1e-10, id="cm-8-500"),
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
    assert diag["accepted"] >= 1
    assert diag["nfev"] == 2 + 12 * (diag["accepted"] + diag["rejected"]) + 3 * diag["dense"]


def brackets(monkeypatch):
    """The (t_old, t) step that each margin crossing's brentq searches."""
    seen, search = [], dynamics.brentq

    def brentq(f, a, b, **kw):
        seen.append((a, b))
        return search(f, a, b, **kw)

    monkeypatch.setattr(dynamics, "brentq", brentq)
    return seen


# the sample rows are evaluated in one pass after the step loop, so a step
# that holds many samples, a margin stop inside such a step and a backward
# span each get a flow of 2001 samples
ROWS = [
    # about 40 steps: every step holds dozens of samples
    pytest.param(lambda: calogero.make_system(4, 1.0), cm_point(4, np.random.default_rng(4)),
                 (0.0, 2.0), id="cm-4-many"),
    pytest.param(lambda: calogero.make_system(4, 1.0), cm_point(4, np.random.default_rng(4)),
                 (0.0, -2.0), id="cm-4-many-backward"),
    # the constant force takes a few long steps, and the wall is met within
    # the last one after samples of its own
    pytest.param(falling, PhasePoint([1.0], [0.3]), (0.0, 3.0), id="margin-stop"),
    pytest.param(falling, PhasePoint([1.0], [-0.3]), (0.0, -3.0), id="margin-stop-backward"),
]


@pytest.mark.parametrize("build, x0, t_span", ROWS)
def test_sample_rows_match_solve_ivp(build, x0, t_span, monkeypatch):
    seen = brackets(monkeypatch)
    sol, traj = assert_matches_oracle(build(), x0, t_span, 1e-10, n_samples=2001)
    assert traj.diagnostics["dense"] * 20 < len(traj.times)
    assert traj.status == ("truncated" if seen else "completed")
    if seen:  # samples strictly inside the step before the crossing
        (a, _), t_stop = seen[0], traj.diagnostics["t_stop"]
        inside = np.sign(t_span[1] - t_span[0]) * (sol.t - a) > 0
        assert np.count_nonzero(inside) > 1 and t_stop == sol.t_events[0][0]


def norm_inputs():
    rng = np.random.default_rng(2024)
    for _ in range(20000):
        size = int(rng.integers(1, 41))
        yield rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)
    for size in (1, 2, 7, 16, 40):
        yield np.zeros(size)
        yield np.full(size, 5e-324)
        yield rng.uniform(0.5, 1.0, size=size) * 2.0**-1030 * rng.choice([-1, 1], size=size)


def test_error_norms_are_numpys_bit_for_bit():
    # the E5 and E3 norms differ from their plain forms in about one draw in a
    # thousand: np.sqrt(d) ** 2 is not r * r for r = sqrt(d)
    for x in norm_inputs():
        assert dynamics._square_norm(x) == np.linalg.norm(x) ** 2


def test_stiff_failure_matches_solve_ivp():
    # 1-d Kepler infall: the particle reaches the origin in finite time
    sys = HamiltonianSystem(
        dim=1,
        hamiltonian=energy(lambda q: -1.0 / abs(first(q))),
        grad=kinetic(lambda q: -np.sign(q) / q**2),
        boundary_margin=everywhere,
        name="kepler-infall",
    )
    x0 = PhasePoint([1.0], [0.0])
    assert oracle(sys, x0, (0.0, 3.0), 1e-10).status == -1
    with pytest.raises(StiffnessError):
        integrate_flow(sys, x0, (0.0, 3.0), tol=1e-10)


def test_rejections_are_counted():
    # a fast oscillator at a loose tolerance has its steps cut back
    sys = HamiltonianSystem(
        dim=1,
        hamiltonian=energy(lambda q: 2000.0 * first(q) ** 2),
        grad=kinetic(lambda q: -4000.0 * q),
        boundary_margin=everywhere,
        name="oscillator",
    )
    _, traj = assert_matches_oracle(sys, PhasePoint([1.0], [0.0]), (0.0, 2.0), 1e-6)
    assert traj.diagnostics["rejected"] > 0
    assert traj.diagnostics["stop_margin"] == 1.0


def test_a_vanishing_error_estimate_accepts_the_step():
    # far out on this free flow err5 is 0 and 0.01 err3^2 underflows: scipy's
    # error norm is 0/0 and solve_ivp fails, where Hairer's guard takes error 0
    sys = calogero.make_system(2, 1.0)
    x0 = PhasePoint([0.9, -0.2], [0.4, 0.1])
    assert oracle(sys, x0, (0.0, 1e200), 1e-8).status == -1
    traj = integrate_flow(sys, x0, (0.0, 1e200), tol=1e-8)
    assert traj.status == "completed" and traj.diagnostics["t_stop"] == 1e200


# dual starts near a chamber wall whose rejected trial stages land outside
# it; the dual gradient there is nan, which fails the error test as in scipy
NEAR_WALL = [
    pytest.param(
        [5.622982775494901, 3.9798416709084403, 2.332477702519401],
        [-0.7888076230546033, 0.5213525198801734, -2.0527074256505555],
        1e-6, 5.0, "completed", id="completes",
    ),
    pytest.param(
        [5.571763010912798, 3.945194335470662, 2.3381242046420256],
        [1.66804436169049, 1.407221041946551, 0.9643035658553001],
        1e-6, 5.0, "truncated", id="truncates",
    ),
    pytest.param(  # the initial-step probe lands outside
        [3.9230745086853744, 2.3006420933827947],
        [0.8566623531451381, -2.2777112230608276],
        1e-9, 1.0, "completed", id="probe-outside",
    ),
]


@pytest.mark.parametrize("lam, theta, tol, span, status", NEAR_WALL)
def test_trial_stages_outside_the_chamber_are_rejected(lam, theta, tol, span, status):
    sys = sutherland.make_dual_system(len(lam), COUP)
    _, traj = assert_matches_oracle(sys, PhasePoint(lam, theta), (0.0, span), tol)
    assert traj.status == status and traj.diagnostics["rejected"] > 0
    if status == "truncated":
        assert traj.diagnostics["stop_margin"] == pytest.approx(BOUNDARY, abs=1e-12)


# a start within _BOUNDARY_MARGIN of the wall: the margin event needs a
# downward crossing, as scipy's terminal event of direction -1 does, so it
# never stops such a flow, and only the sample audit can truncate it
def test_a_dual_start_below_the_margin_is_not_stopped_by_the_event():
    sys = sutherland.make_dual_system(3, COUP)
    x0 = PhasePoint(
        [5.540721630599606, 3.940721625599606, 2.2824725634748466],
        [2.422090225604701, 0.1959618296077304, 1.4311098437656378],
    )
    assert sys.boundary_margin(x0.q) == pytest.approx(5.0e-9, rel=1e-8)
    sol, traj = assert_matches_oracle(sys, x0, (0.0, 5.0), 1e-6)
    assert sol.status == 0 and traj.status == "completed"
    # 0.05 earlier on the same orbit the margin is above 1e-8 and falls through it
    earlier = integrate_flow(sys, x0, (0.0, -0.05), 1e-6, n_samples=2).initial
    assert sys.boundary_margin(earlier.q) > BOUNDARY
    _, traj = assert_matches_oracle(sys, earlier, (0.0, 5.0), 1e-6)
    assert traj.status == "truncated"
    assert traj.diagnostics["stop_margin"] == pytest.approx(BOUNDARY, abs=1e-12)


def test_a_half_line_start_below_the_margin_is_truncated_by_its_samples():
    # q(t) = 9e-9 - 1e-7 t reaches the wall at the 19th sample, t = 0.09
    sys = HamiltonianSystem(
        dim=1,
        hamiltonian=energy(lambda q: 0.0),
        grad=kinetic(np.zeros_like),
        boundary_margin=first,
        name="free half-line",
    )
    x0 = PhasePoint([9e-9], [-1e-7])
    sol = oracle(sys, x0, (0.0, 1.0), 1e-9)
    traj = integrate_flow(sys, x0, (0.0, 1.0), tol=1e-9)
    assert sol.status == 0 and traj.status == "truncated"
    assert len(traj.times) == 18
    assert np.array_equal(traj.states.to_vector().T, sol.y[:, :18])
    assert traj.diagnostics["t_stop"] == 1.0 and traj.diagnostics["stop_margin"] < 0
