"""Hamiltonian flows on canonical coordinates, plus the audit tooling.

The integrator is a plain adaptive Runge-Kutta pair (scipy's RK45); no
symplectic structure is imposed.  Conservation is checked after the
fact: every trajectory carries its invariant samples, and callers are
expected to look at the drift numbers rather than trust the scheme.
Every system supplies its analytic gradient; the central-difference
stencil serves only poisson_bracket_fd.

Conventions used throughout the package:
  * a phase point is a pair of real vectors (q, p) of equal length,
  * forward trajectories become asymptotically free as t -> +infinity,
    backward ones as t -> -infinity (times are stored increasing in
    both cases),
  * scattering momenta theta^+ are reported in decreasing order and
    theta^- in increasing order, which pairs them up componentwise.
"""

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError, StiffnessError

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Residual above which a scattering fit is rejected as not yet free.
_FIT_RESIDUAL_LIMIT = 1e-2

_BOUNDARY_MARGIN = 1e-8


def _vec(x, name):
    """A non-empty, finite 1-D float array, or DomainError naming the input."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


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

    @classmethod
    def _view(cls, y, n):
        """Unchecked view of a float vector of length 2n; from_vector checks."""
        x = object.__new__(cls)
        object.__setattr__(x, "q", y[:n])
        object.__setattr__(x, "p", y[n:])
        return x


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian plus the metadata the integrator needs.

    grad must return the analytic (dH/dq, dH/dp): every system supplies
    one, and the central-difference stencil serves only
    poisson_bracket_fd.  boundary_margin, when given, returns a smooth
    distance-like quantity that is positive exactly inside the open
    domain the flow must not leave; it drives event-based truncation
    near the boundary, and contains reads membership off it.
    domain_check, when given, overrides that membership test.  No
    system of the package sets it; it stays because the benchmark's
    tracer wraps it by field name.
    """

    dim: int
    hamiltonian: object
    grad: object
    domain_check: object = None
    boundary_margin: object = None
    name: str = "system"

    def contains(self, x):
        if self.domain_check is not None:
            return bool(self.domain_check(x))
        return self.boundary_margin is None or bool(self.boundary_margin(x) > 0)

    def energy(self, x):
        value = float(self.hamiltonian(x))
        if not np.isfinite(value):
            raise DomainError(f"{self.name}: Hamiltonian not finite at {x}")
        return value


def pair_energy(q, p, T, w, f=None):
    """|p|^2 / 2 + sum_r w_r / f(x_r)^2 at x = T q; f = None is the identity."""
    x = T @ q
    s = x if f is None else f(x)
    return 0.5 * float(p @ p) + float(w @ (1.0 / (s * s)))


def pair_system(T, w, margin, name, f=None, df=None):
    """HamiltonianSystem of an inverse-square pair potential.

    H = |p|^2 / 2 + V(q) with V = sum_r w_r / f(x_r)^2 over the linear
    arguments x = T q; f = None is the identity, so V is rational, and
    otherwise df is the derivative of f.  The gradient is the chain rule
    through the same matrix, grad V = T^T (-2 w * f'(x) / f(x)^3), with
    -2 w folded once here.  margin(q) is the configuration domain's
    boundary margin, positive exactly inside it.
    """
    slope = -2.0 * w

    def H(point):
        return pair_energy(point.q, point.p, T, w, f)

    def grad(point):
        x = T @ point.q
        s = x if f is None else f(x)
        top = slope if df is None else slope * df(x)
        return (top / (s * s * s)) @ T, np.array(point.p, dtype=float)

    return HamiltonianSystem(
        dim=T.shape[1],
        hamiltonian=H,
        grad=grad,
        boundary_margin=lambda point: margin(point.q),
        name=name,
    )


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


@dataclass(frozen=True)
class ScatteringData:
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    lambda_plus: np.ndarray


def _fd_gradient(f, x, step):
    """Central-difference gradient of a scalar observable, split (q, p).

    The step along each coordinate is step * (1 + |coordinate|); the
    stencil serves poisson_bracket_fd, not the flows.
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
    'truncated' instead of raising.  x0 must have the system's
    dimension, tol must be finite and positive, both ends of t_span
    finite and distinct, and n_samples an integer of at least 2.
    """
    if not 0 < tol < np.inf:
        raise DomainError("tol must be finite and positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not np.isfinite([t0, t1]).all() or t0 == t1:
        raise DomainError("t_span needs two finite, distinct ends")
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise DomainError("n_samples must be an integer") from None
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    if x0.dim != sys.dim:
        raise DomainError(f"{sys.name}: initial point has dimension {x0.dim}, not {sys.dim}")
    if not sys.contains(x0):
        raise DomainError(f"{sys.name}: initial point outside domain")
    sys.energy(x0)

    n = x0.dim

    def rhs(t, y):
        dq, dp = sys.grad(PhasePoint._view(y, n))
        return np.concatenate([dp, -np.asarray(dq, float)])

    events = None
    if sys.boundary_margin is not None:
        def boundary_event(t, y):
            return float(sys.boundary_margin(PhasePoint._view(y, n))) - _BOUNDARY_MARGIN

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


def poisson_bracket_fd(f, g, x):
    """Central-difference canonical Poisson bracket {f, g} at x.

    The step is _FD_STEP * (1 + |coordinate|) per direction; on
    evaluation failure (observable raises, or returns a non-finite
    number) the step is divided by 4, up to three times, before giving up.
    """
    for attempt in range(4):
        step = _FD_STEP / 4.0 ** attempt
        try:
            fq, fp = _fd_gradient(f, x, step)
            gq, gp = _fd_gradient(g, x, step)
        except (DomainError, FloatingPointError, ValueError):
            continue
        if all(np.all(np.isfinite(v)) for v in (fq, fp, gq, gp)):
            return float(np.dot(fq, gp) - np.dot(fp, gq))
    raise DomainError("observable not evaluable near the requested point")


def _fit_asymptote(traj, at_end):
    m = len(traj.times)
    count = max(m // 4, 2)
    window = slice(m - count, m) if at_end else slice(0, count)
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
    return slopes, intercepts


def extract_scattering(traj_fwd, traj_bwd):
    """Read asymptotic momenta from a forward and a backward trajectory.

    Positions are fit as q_a(t) ~ theta_a * t + intercept_a over a fixed
    window: the last quarter of the samples of traj_fwd and the first
    quarter of traj_bwd (at least two samples each).  The fitted slopes
    are cross-checked against the momentum coordinates at the window
    edge and must agree to 1e-3.
    """
    th_plus, lam_plus = _fit_asymptote(traj_fwd, at_end=True)
    th_minus, _ = _fit_asymptote(traj_bwd, at_end=False)

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


def invariant_drift(traj):
    """Max |I_k(x(t)) - I_k(x(0))| per invariant stored on the trajectory."""
    return {
        label: float(np.max(np.abs(values - values[0])))
        for label, values in traj.invariants.items()
    }
