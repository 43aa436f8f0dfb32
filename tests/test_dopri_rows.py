"""Pins of the parts of integrate_flow's DOP853 steps that test_dopri.py's flows
reach only now and then, bit for bit against numpy and solve_ivp.

The error norms differ from their plain forms in about one draw in a thousand,
and the sample rows are evaluated in one pass after the step loop, so a step
that holds many samples, a margin stop inside such a step and a backward span
each get a flow of their own.
"""

import numpy as np
import pytest

from intlab import calogero, dynamics
from intlab.dynamics import PhasePoint, integrate_flow
from test_dopri import cm_point, falling, oracle


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
    # np.sqrt(d) ** 2 is not r * r for r = sqrt(d): about 1 draw in 1000 differs
    for x in norm_inputs():
        assert dynamics._square_norm(x) == np.linalg.norm(x) ** 2
        assert dynamics._rms(x) == np.linalg.norm(x) / np.sqrt(x.size)


def brackets(monkeypatch):
    """The (t_old, t) step that each margin crossing's brentq searches."""
    seen, search = [], dynamics.brentq

    def brentq(f, a, b, **kw):
        seen.append((a, b))
        return search(f, a, b, **kw)

    monkeypatch.setattr(dynamics, "brentq", brentq)
    return seen


ROWS = [
    # about 40 steps over 2001 samples: every step holds dozens of them
    pytest.param(lambda: calogero.make_system(4, 1.0), cm_point(4, np.random.default_rng(4)),
                 (0.0, 2.0), 1e-10, id="cm-4-many"),
    pytest.param(lambda: calogero.make_system(4, 1.0), cm_point(4, np.random.default_rng(4)),
                 (0.0, -2.0), 1e-10, id="cm-4-many-backward"),
    # the constant force takes a few long steps, and the wall is met within
    # the last one after samples of its own
    pytest.param(falling, PhasePoint([1.0], [0.3]), (0.0, 3.0), 1e-10, id="margin-stop"),
    pytest.param(falling, PhasePoint([1.0], [-0.3]), (0.0, -3.0), 1e-10, id="margin-stop-backward"),
]


@pytest.mark.parametrize("build, x0, t_span, tol", ROWS)
def test_sample_rows_match_solve_ivp(build, x0, t_span, tol, monkeypatch):
    seen = brackets(monkeypatch)
    sys = build()
    sol = oracle(sys, x0, t_span, tol, n_samples=2001)
    traj = integrate_flow(sys, x0, t_span, tol, n_samples=2001)
    times, states = traj.times, traj.states.to_vector().T
    if t_span[1] < t_span[0]:
        times, states = times[::-1], states[:, ::-1]
    assert np.array_equal(times, sol.t)
    assert np.array_equal(states, sol.y)
    assert traj.diagnostics["nfev"] == sol.nfev
    assert traj.diagnostics["dense"] * 20 < len(times)
    assert traj.status == ("truncated" if seen else "completed")
    if seen:  # samples strictly inside the step before the crossing
        (a, _), t_stop = seen[0], traj.diagnostics["t_stop"]
        inside = np.sign(t_span[1] - t_span[0]) * (sol.t - a) > 0
        assert np.count_nonzero(inside) > 1 and t_stop == sol.t_events[0][0]
