"""Hamiltonian flows on canonical coordinates, plus the audit tooling.

The integrator is a plain adaptive Runge-Kutta pair (scipy's RK45); no
symplectic structure is imposed.  Conservation is checked after the
fact: every trajectory carries its invariant samples, and callers are
expected to look at the drift numbers rather than trust the scheme.

Conventions used throughout the package:
  * a phase point is a pair of real vectors (q, p) of equal length,
  * forward trajectories become asymptotically free as t -> +infinity,
    backward ones as t -> -infinity (times are stored increasing in
    both cases),
  * scattering momenta theta^+ are reported in decreasing order and
    theta^- in increasing order, which pairs them up componentwise.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError, StiffnessError

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Residual above which a scattering fit is rejected as not yet free.
_FIT_RESIDUAL_LIMIT = 1e-2

_BOUNDARY_MARGIN = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """Canonical coordinates: q positions (or actions), p momenta."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, float)))
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise DomainError("q and p must be real vectors of equal length")

    @property
    def dim(self):
        return len(self.q)

    def to_vector(self):
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_vector(y):
        n = len(y) // 2
        return PhasePoint(q=y[:n], p=y[n:])


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian plus the metadata the integrator needs.

    grad, when given, must return (dH/dq, dH/dp); otherwise central
    differences are used.  domain_check marks the open set the flow
    must not leave.  boundary_margin, when given, returns a smooth
    distance-like quantity that is positive inside the domain; it
    drives event-based truncation near the boundary.
    """

    dim: int
    hamiltonian: object
    grad: object = None
    domain_check: object = None
    boundary_margin: object = None
    name: str = "system"

    def contains(self, x):
        return True if self.domain_check is None else bool(self.domain_check(x))

    def energy(self, x):
        value = float(self.hamiltonian(x))
        if not np.isfinite(value):
            raise DomainError(f"{self.name}: Hamiltonian not finite at {x}")
        return value


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple
    invariants: dict = field(default_factory=dict)
    status: str = "completed"

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, float))
        object.__setattr__(self, "states", tuple(self.states))
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("trajectory times must be strictly increasing")

    @property
    def initial(self):
        return self.states[0]

    @property
    def final(self):
        return self.states[-1]

    def energy_drift(self):
        e = self.invariants["energy"]
        return float(np.max(np.abs(e - e[0])))


@dataclass(frozen=True)
class ScatteringData:
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    lambda_plus: np.ndarray


def _fd_gradient(f, x, step=_FD_STEP):
    """Central-difference gradient of a scalar observable, split (q, p).

    The step along each coordinate is step * (1 + |coordinate|).
    """
    n = x.dim
    dq = np.empty(n)
    dp = np.empty(n)
    for j in range(n):
        hq = step * (1.0 + abs(x.q[j]))
        qp, qm = x.q.copy(), x.q.copy()
        qp[j] += hq
        qm[j] -= hq
        dq[j] = (float(f(PhasePoint(qp, x.p))) - float(f(PhasePoint(qm, x.p)))) / (2 * hq)
        hp = step * (1.0 + abs(x.p[j]))
        pp, pm = x.p.copy(), x.p.copy()
        pp[j] += hp
        pm[j] -= hp
        dp[j] = (float(f(PhasePoint(x.q, pp))) - float(f(PhasePoint(x.q, pm)))) / (2 * hp)
    return dq, dp


def integrate_flow(sys, x0, t_span, tol, invariant_family=None, n_samples=201):
    """Integrate Hamilton's equations q' = dH/dp, p' = -dH/dq.

    t_span may run backward (t1 < t0); the returned trajectory always
    stores increasing times.  invariant_family is a dict of named
    observables sampled along the way; the energy is always included.
    Leaving the domain truncates the trajectory and sets status
    'truncated' instead of raising.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if not sys.contains(x0):
        raise DomainError(f"{sys.name}: initial point outside domain")
    sys.energy(x0)

    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise DomainError("empty time span")

    def rhs(t, y):
        x = PhasePoint.from_vector(y)
        if sys.grad is not None:
            dq, dp = sys.grad(x)
        else:
            dq, dp = _fd_gradient(sys.hamiltonian, x)
        return np.concatenate([dp, -np.asarray(dq, float)])

    events = None
    if sys.boundary_margin is not None:
        def boundary_event(t, y):
            return float(sys.boundary_margin(PhasePoint.from_vector(y))) - _BOUNDARY_MARGIN

        boundary_event.terminal = True
        boundary_event.direction = -1
        events = [boundary_event]

    t_eval = np.linspace(t0, t1, n_samples)
    sol = solve_ivp(
        rhs,
        (t0, t1),
        x0.to_vector(),
        method="RK45",
        rtol=tol,
        atol=tol,
        t_eval=t_eval,
        events=events,
        dense_output=False,
    )
    if sol.status == -1:
        raise StiffnessError(f"{sys.name}: integrator failed: {sol.message}")

    times = sol.t
    states = [PhasePoint.from_vector(sol.y[:, k]) for k in range(sol.y.shape[1])]
    status = "completed"
    if sol.status == 1:  # boundary event fired
        status = "truncated"

    # drop any samples that slipped outside the open domain
    keep = len(states)
    for k, x in enumerate(states):
        if not sys.contains(x):
            keep = k
            status = "truncated"
            break
    times, states = times[:keep], states[:keep]
    if len(states) < 2:
        raise DomainError(f"{sys.name}: flow left the domain immediately")

    backward = t1 < t0
    if backward:
        times, states = times[::-1], states[::-1]

    invariants = {"energy": np.array([sys.energy(x) for x in states])}
    for label, func in (invariant_family or {}).items():
        invariants[label] = np.array([np.atleast_1d(func(x)) for x in states])

    return Trajectory(
        times=np.ascontiguousarray(times),
        states=tuple(states),
        invariants=invariants,
        status=status,
    )


def poisson_bracket_fd(f, g, x, h=None):
    """Central-difference canonical Poisson bracket {f, g} at x.

    The step is h * (1 + |coordinate|) per direction; on evaluation
    failure (observable raises, or returns a non-finite number) the
    step is reduced up to three times before giving up.
    """
    base = _FD_STEP if h is None else float(h)
    if base <= 0:
        raise DomainError("step must be positive")
    for attempt in range(4):
        step = base / 4.0 ** attempt
        try:
            fq, fp = _fd_gradient(f, x, step)
            gq, gp = _fd_gradient(g, x, step)
        except (DomainError, FloatingPointError, ValueError):
            continue
        if all(np.all(np.isfinite(v)) for v in (fq, fp, gq, gp)):
            return float(np.dot(fq, gp) - np.dot(fp, gq))
    raise DomainError("observable not evaluable near the requested point")


def _fit_window_slice(traj, fit_window, at_end):
    if fit_window is None:
        m = len(traj.times)
        count = max(m // 4, 2)
        return slice(m - count, m) if at_end else slice(0, count)
    lo, hi = fit_window
    mask = (traj.times >= lo) & (traj.times <= hi)
    if np.count_nonzero(mask) < 2:
        raise DomainError("fit window contains fewer than two samples")
    idx = np.nonzero(mask)[0]
    return slice(idx[0], idx[-1] + 1)


def _fit_asymptote(traj, window, slope_transform):
    ts = traj.times[window]
    qs = np.array([x.q for x in traj.states[window]])
    design = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(design, qs, rcond=None)
    slopes, intercepts = coef[0], coef[1]
    resid = float(np.max(np.abs(design @ coef - qs)))
    scale = max(1.0, float(np.max(np.abs(qs))))
    if resid > _FIT_RESIDUAL_LIMIT * scale:
        raise ConvergenceError(
            f"trajectory not asymptotically free yet (fit residual {resid:.2e})"
        )
    thetas = slopes if slope_transform is None else slope_transform(slopes)
    return np.asarray(thetas, float), intercepts


def extract_scattering(traj_fwd, traj_bwd, fit_window=None, slope_transform=None):
    """Read asymptotic momenta from a forward and a backward trajectory.

    Positions are fit as q_a(t) ~ slope_a * t + intercept_a over the
    window (the late part of traj_fwd, the early part of traj_bwd).
    slope_transform maps fitted slopes to momenta; identity by default,
    arcsinh for systems whose free motion is q ~ t sinh(theta).  The
    transformed slopes are cross-checked against the momentum
    coordinates at the window edge and must agree to 1e-3.
    """
    th_plus, lam_plus = _fit_asymptote(
        traj_fwd, _fit_window_slice(traj_fwd, fit_window, at_end=True), slope_transform
    )
    # the same window, mirrored onto the negative-time half-axis
    bw_window = None if fit_window is None else (-fit_window[1], -fit_window[0])
    th_minus, _ = _fit_asymptote(
        traj_bwd, _fit_window_slice(traj_bwd, bw_window, at_end=False), slope_transform
    )

    edge_plus = traj_fwd.final.p
    edge_minus = traj_bwd.initial.p
    for fitted, edge, tag in ((th_plus, edge_plus, "+"), (th_minus, edge_minus, "-")):
        dev = float(np.max(np.abs(np.sort(fitted) - np.sort(edge))))
        if dev > 1e-3:
            raise ConvergenceError(
                f"theta^{tag} fit disagrees with momentum coordinates by {dev:.2e}"
            )

    order = np.argsort(th_plus)[::-1]
    return ScatteringData(
        theta_plus=th_plus[order],
        theta_minus=np.sort(th_minus),
        lambda_plus=lam_plus[order],
    )


def invariant_drift(traj, family=None):
    """Max |I_k(x(t)) - I_k(x(0))| per named invariant.

    With family=None the drift of the samples already stored on the
    trajectory is reported.
    """
    if family is None:
        table = traj.invariants
    else:
        table = {
            label: np.array([np.atleast_1d(func(x)) for x in traj.states])
            for label, func in family.items()
        }
    return {
        label: float(np.max(np.abs(values - values[0])))
        for label, values in table.items()
    }
