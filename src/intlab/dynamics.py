"""Hamiltonian flows on canonical coordinates, plus the audit tooling.

The integrator is a plain adaptive Runge-Kutta pair: scipy's RK45
(Dormand-Prince 5(4)) reproduced step for step by `_dopri`, which differs
only in running without scipy's initial-value driver and its per-step
wrappers.  No symplectic structure is imposed.  Conservation is checked
after the fact: every trajectory carries its invariant samples, and
callers are expected to look at the drift numbers rather than trust the
scheme.
Every system supplies its analytic right-hand side, written in place:
grad(y, out) fills out with (dH/dp, -dH/dq) at the flat phase vector
y = (q, p), so `_dopri` calls it on its stage rows directly.  The
central-difference stencil serves only poisson_bracket_fd.
The audit runs over a leading sample axis: a PhasePoint may hold one
point or an (m, n) block of samples, the Hamiltonian maps a block to its
m energies, and boundary_margin(q) reads the configuration alone, so
integrate_flow checks all of a flow's samples with one call of each.

Conventions used throughout the package:
  * a phase point is a pair of real vectors (q, p) of equal length,
  * forward trajectories become asymptotically free as t -> +infinity,
    backward ones as t -> -infinity (times are stored increasing in
    both cases),
  * scattering momenta theta^+ are reported in decreasing order and
    theta^- in increasing order, which pairs them up componentwise.
"""

import bisect
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError, RangeError, StiffnessError

_EPS = float(np.finfo(float).eps)
_FD_STEP = _EPS ** (1.0 / 3.0)

# Distance from the free line above which a flow is not yet free.
_FREE_LINE_LIMIT = 1e-2

_BOUNDARY_MARGIN = 1e-8


def _count(value, name, least):
    """value as an int of at least `least`, or DomainError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer") from None
    if value < least:
        raise DomainError(f"need {name} >= {least}")
    return value


def _all_finite(values):
    """Whether every entry of values is finite; a float scalar skips numpy."""
    return math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()


def _finite(value, name):
    """value itself, or DomainError naming it unless every entry is finite."""
    if not _all_finite(value):
        raise DomainError(f"{name} must be finite")
    return value


def _in_range(values, what):
    """values itself, or RangeError naming what overflowed unless every entry is finite."""
    if not _all_finite(values):
        raise RangeError(f"{what} double precision")
    return values


def _vec(x, name, dtype=float):
    """A non-empty, finite 1-D array of dtype, or DomainError naming the input."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-D vector")
    return _finite(arr, name)


def _pair(point, names, vec=_vec):
    """Check and store a frozen point's two vectors with vec(value, name); return the first."""
    a, b = [vec(getattr(point, name), name) for name in names]
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError(f"{names[0]} and {names[1]} must be 1-D vectors of equal length")
    for name, value in zip(names, (a, b)):
        object.__setattr__(point, name, value)
    return a


@dataclass(frozen=True)
class PhasePoint:
    """Canonical coordinates: q positions (or actions), p momenta; nan is allowed."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        _pair(self, ("q", "p"), lambda x, _: np.atleast_1d(np.asarray(x, float)))

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
        """Unchecked view of the last axis of y, of length 2n: one point, or one
        row per sample of a block; from_vector checks."""
        x = object.__new__(cls)
        object.__setattr__(x, "q", y[..., :n])
        object.__setattr__(x, "p", y[..., n:])
        return x


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian plus the metadata the integrator needs.

    grad(y, out) writes Hamilton's right-hand side (dH/dp, -dH/dq) at
    the flat phase vector y = (q, p) into out, a float vector of the
    same length, and returns out; y must not change.  Every system
    supplies it analytically, and the central-difference stencil serves
    only poisson_bracket_fd.  hamiltonian(x) takes a PhasePoint over a
    leading sample axis: one energy for a point, m for an (m, n) block.
    boundary_margin(q), when given, takes the configuration alone, a
    point or a block, and returns a smooth distance-like quantity per
    sample that is positive exactly inside the open domain the flow must
    not leave; it drives event-based truncation near the boundary, and
    contains reads membership off it.  domain_check, when given,
    overrides that membership test and takes a PhasePoint the same way.
    No system of the package sets it; it stays because the benchmark's
    tracer wraps it by field name.
    """

    dim: int
    hamiltonian: object
    grad: object
    domain_check: object = None
    boundary_margin: object = None
    name: str = "system"

    def contains(self, x):
        """Whether x is inside: a bool for a point, a bool array for a block."""
        if self.domain_check is not None:
            inside = self.domain_check(x)
        elif self.boundary_margin is None:
            inside = np.ones(x.q.shape[:-1], bool)
        else:
            inside = self.boundary_margin(x.q) > 0
        return _per_sample(np.asarray(inside, bool))

    def energy(self, x):
        """The Hamiltonian at x: a float for a point, a finite array for a block."""
        values = np.asarray(self.hamiltonian(x), float)
        if values.shape != x.q.shape[:-1]:
            raise DomainError(f"{self.name}: the Hamiltonian must give one energy per sample")
        return _per_sample(_finite(values, f"{self.name}: the Hamiltonian"))


def _per_sample(values):
    """A 0-d array as its Python scalar; a block's array as it is."""
    return values if values.ndim else values.item()


def _pair_energy(q, p, T, w, f=None):
    """|p|^2 / 2 + sum_r w_r / f(x_r)^2 at x = T q over the last axis; f = None is
    the identity.  A row of a block rounds as the point does.  RangeError where
    it overflows."""
    with np.errstate(all="ignore"):  # a huge p or q, or a tiny f(x), overflows
        x = np.dot(q, T.T)
        s = x if f is None else f(x)
        energy = 0.5 * np.vecdot(p, p) + np.vecdot(1.0 / (s * s), w)
    return _in_range(energy, "energy overflows")


def pair_system(T, w, margin, name, f=None, df=None):
    """HamiltonianSystem of an inverse-square pair potential.

    H = |p|^2 / 2 + V(q) with V = sum_r w_r / f(x_r)^2 over the linear
    arguments x = T q; f = None is the identity, so V is rational, and
    otherwise df is the derivative of f.  The gradient is the chain rule
    through the same matrix, -grad V = T^T (2 w * f'(x) / f(x)^3), with
    the force 2 w folded once here, so grad writes -dH/dq with no
    negation.  margin(q) is the configuration domain's boundary margin,
    positive exactly inside it, and serves as boundary_margin as it is;
    it and the energy take a leading sample axis.  T, w finite.
    """
    T, force = _finite(T, "T"), 2.0 * _finite(w, "w")
    n = T.shape[1]

    def H(point):
        return _pair_energy(point.q, point.p, T, w, f)

    def grad(y, out):
        x = T.dot(y[:n])
        s = x if f is None else f(x)
        top = force if df is None else force * df(x)
        np.dot(top / (s * s * s), T, out=out[n:])
        out[:n] = y[n:]
        return out

    return HamiltonianSystem(
        dim=n,
        hamiltonian=H,
        grad=grad,
        boundary_margin=margin,
        name=name,
    )


@dataclass(frozen=True)
class Trajectory:
    """Samples of a flow at increasing times.  integrate_flow's diagnostics:
    nfev, accepted and rejected steps, t_stop (where the flow stopped) and
    stop_margin (the boundary margin there, None without one)."""

    times: np.ndarray
    states: tuple
    invariants: dict = field(default_factory=dict)
    status: str = "completed"
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "times", _finite(np.asarray(self.times, float), "times"))
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
    """extract_scattering's theta_plus (decreasing) and lambda_plus, off the forward
    flow's last sample, and theta_minus (increasing), off the backward flow's first."""

    theta_plus: np.ndarray
    theta_minus: np.ndarray
    lambda_plus: np.ndarray


def _fd_gradient(f, x, step):
    """Central-difference gradient of a scalar observable, split (q, p).

    The step along each coordinate is step * (1 + |coordinate|); the
    stencil serves poisson_bracket_fd, not the flows.
    """
    y = x.to_vector()
    h = step * (1.0 + np.abs(y))
    grad = np.array([  # the rows of diag(h) are the probes h_j e_j
        float(f(PhasePoint.from_vector(y + e))) - float(f(PhasePoint.from_vector(y - e)))
        for e in np.diag(h)
    ]) / (2 * h)
    return grad[: x.dim], grad[x.dim :]


def _dense(Q, y_old, t_old, h, t):
    """scipy's RkDenseOutput on the step of size h from (t_old, y_old):
    the state at a float t, or one column per entry of a 1-D array t."""
    x = (np.asarray(t) - t_old) / h
    p = np.cumprod(np.tile(x, (Q.shape[1], 1) if x.ndim else Q.shape[1]), axis=0)
    return h * np.dot(Q, p) + (y_old[:, None] if x.ndim else y_old)


def _rms(x):
    """scipy's error norm, np.linalg.norm(x) / sqrt(x.size), bit for bit."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _dopri(rhs, y, t, t1, tol, samples, margin, name):
    """scipy's RK45 from (t, y) to t1, step for step: the Dormand-Prince
    5(4) pair (J. Comput. Appl. Math. 6, 1980) with the step control of
    Hairer-Norsett-Wanner, Solving ODEs I, II.4.

    Same tableau, atol = tol and rtol = max(tol, 100 eps), initial step,
    error norm, step control, and StiffnessError below ten float spacings;
    rhs(y, out) is a system's grad: it writes the derivative into out (a
    stage row) and returns it; it is autonomous, so the nodes RK45.C
    never enter.  margin, a system's boundary_margin, reads the positions
    y[:n]; when it falls to _BOUNDARY_MARGIN within a step,
    brentq finds the crossing on the dense output as scipy's terminal
    events do, and the samples stop there.  Returns the sample times, the states as columns, whether
    the margin stopped the flow, and the diagnostics.  Driving scipy's own
    RK45 stepper (step() and dense_output()) instead costs about 15 % of
    cm-scattering's throughput, so the loop stays in-house.
    """
    rtol, atol, direction = max(tol, 100 * _EPS), tol, 1.0 if t1 > t else -1.0
    n = y.size // 2
    exponent, span = -1 / (RK45.error_estimator_order + 1), abs(t1 - t)
    f = rhs(y, np.empty_like(y))
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((rhs(y + h0 * direction * f, np.empty_like(y)) - f) / scale) / h0
    tiny = d1 <= 1e-15 and d2 <= 1e-15
    h1 = max(1e-6, h0 * 1e-3) if tiny else (0.01 / max(d1, d2)) ** -exponent
    h_abs = min(100 * h0, h1, span)

    K = np.empty((RK45.n_stages + 1, y.size))
    stages = [(K[:s].T, RK45.A[s, :s]) for s in range(1, RK45.n_stages)]
    KB, KE = K[:-1].T, K.T
    # samples up to and including t, in the direction of time, as bisect keys
    keys, i, times, states = (direction * samples).tolist(), 0, [], []
    accepted = rejected = 0
    g, hit = margin(y[:n]) if margin else None, False
    while not hit and t != t1:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs, retried = max(h_abs, min_step), False
        K[0] = f  # once per step: no attempt writes K[0], and f may be the row K[-1]
        while True:
            if h_abs < min_step:
                raise StiffnessError(f"{name}: step size fell below the float spacing at t = {t}")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            for s, (Ks, a) in enumerate(stages, start=1):
                rhs(y + np.dot(Ks, a) * h, K[s])
            y_new = y + h * np.dot(KB, RK45.B)
            rhs(y_new, K[-1])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(KE, RK45.E) * h / scale)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error**exponent)
                h_abs *= min(1, factor) if retried else factor
                break
            h_abs *= max(0.2, 0.9 * error**exponent)
            rejected, retried = rejected + 1, True
        accepted += 1
        t_old, y_old, t, y, f, Q = t, y, t_new, y_new, K[-1], None
        if margin:
            g_new = margin(y[:n])
            if g >= _BOUNDARY_MARGIN >= g_new:
                Q, seen = KE.dot(RK45.P), {}

                def excess(s):
                    seen[s] = margin(_dense(Q, y_old, t_old, h, s)[:n])
                    return seen[s] - _BOUNDARY_MARGIN

                t = brentq(excess, t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
                g_new, hit = seen[t], True
            g = g_new
        j = bisect.bisect_right(keys, direction * t, i)
        if j > i:
            Q = KE.dot(RK45.P) if Q is None else Q
            times.append(samples[i:j])
            states.append(_dense(Q, y_old, t_old, h, samples[i:j]))
            i = j
    nfev = 2 + 6 * (accepted + rejected)
    stop_margin = None if g is None else float(g)
    diagnostics = dict(
        nfev=nfev, accepted=accepted, rejected=rejected, t_stop=t, stop_margin=stop_margin
    )
    return np.hstack(times), np.hstack(states), hit, diagnostics


def integrate_flow(sys, x0, t_span, tol, invariant_family=None, n_samples=201):
    """Integrate Hamilton's equations q' = dH/dp, p' = -dH/dq.

    The steps are scipy's RK45 at rtol = atol = tol, reproduced bit for
    bit by `_dopri`, without scipy's initial-value driver, which calls
    sys.grad as its right-hand side; diagnostics carry its statistics.
    t_span may run backward (t1 < t0); the returned trajectory always
    stores increasing times.  invariant_family is a dict of named
    observables sampled along the way; the energy is always included.
    The samples are audited as one block: one boundary_margin call
    truncates the trajectory at the first sample outside the domain
    (status 'truncated' instead of raising), and one sys.energy call
    takes the energies of the rest.  x0 must be a finite PhasePoint of
    the system's dimension, tol must be finite and positive, both ends of
    t_span finite and distinct, and n_samples an integer of at least 2.
    """
    if not _finite(tol, "tol") > 0:
        raise DomainError("tol must be positive")
    t0, t1 = _finite(np.array([t_span[0], t_span[1]], float), "t_span").tolist()
    if t0 == t1:
        raise DomainError("t_span needs two distinct ends")
    n_samples = _count(n_samples, "n_samples", 2)
    if not isinstance(x0, PhasePoint):
        raise DomainError(f"{sys.name}: x0 must be a PhasePoint, not {type(x0).__name__}")
    if x0.dim != sys.dim:
        raise DomainError(f"{sys.name}: initial point has dimension {x0.dim}, not {sys.dim}")
    y0 = _finite(x0.to_vector(), f"{sys.name}: initial point")
    if not sys.contains(x0):
        raise DomainError(f"{sys.name}: initial point outside domain")
    sys.energy(x0)

    times, ys, hit, diagnostics = _dopri(
        sys.grad, y0, t0, t1, tol, np.linspace(t0, t1, n_samples), sys.boundary_margin, sys.name
    )
    block, n = ys.T, x0.dim  # one row per sample

    # drop the samples from the first one that slipped outside the open domain
    inside = sys.contains(PhasePoint._view(block, n))
    keep = len(times) if inside.all() else int(inside.argmin())
    status = "truncated" if hit or keep < len(times) else "completed"
    times, block = times[:keep], block[:keep]
    if keep < 2:
        raise DomainError(f"{sys.name}: flow left the domain immediately")

    if t1 < t0:
        times, block = times[::-1], block[::-1]

    invariants = {"energy": sys.energy(PhasePoint._view(block, n))}
    states = [PhasePoint._view(y, n) for y in block]
    for label, func in (invariant_family or {}).items():
        invariants[label] = np.array([np.atleast_1d(func(x)) for x in states])

    return Trajectory(
        times=np.ascontiguousarray(times),
        states=tuple(states),
        invariants=invariants,
        status=status,
        diagnostics=diagnostics,
    )


def poisson_bracket_fd(f, g, x):
    """Central-difference canonical Poisson bracket {f, g} at a finite x.

    The step is _FD_STEP * (1 + |coordinate|) per direction; on
    evaluation failure (observable raises, or returns a non-finite
    number) the step is divided by 4, up to three times, before giving up.
    """
    _finite(x.to_vector(), "x")
    for attempt in range(4):
        step = _FD_STEP / 4.0 ** attempt
        try:
            fq, fp = _fd_gradient(f, x, step)
            gq, gp = _fd_gradient(g, x, step)
        except (DomainError, FloatingPointError, ValueError):
            continue
        if _all_finite((fq, fp, gq, gp)):
            return float(np.dot(fq, gp) - np.dot(fp, gq))
    raise DomainError("observable not evaluable near the requested point")


def _asymptote(traj, at_end):
    """(p, q - p t) of the outermost sample, after extract_scattering's checks."""
    count = max(len(traj.times) // 4, 2)
    k, window = (-1, slice(-count, None)) if at_end else (0, slice(0, count))
    qs, ps = _finite(np.array([(x.q, x.p) for x in traj.states[window]]), "q, p").transpose(1, 0, 2)
    edge = traj.states[k]
    intercepts = edge.q - edge.p * traj.times[k]
    drift = float(np.max(np.abs(qs - intercepts - traj.times[window, None] * edge.p)))
    kick = float(np.max(np.abs(ps - edge.p)))
    if drift > _FREE_LINE_LIMIT * max(1.0, float(np.max(np.abs(qs)))) or kick > 1e-3:
        raise ConvergenceError(
            f"trajectory not asymptotically free yet: {drift:.2e} off the free line, "
            f"momenta moved by {kick:.2e}"
        )
    return edge.p, intercepts


def extract_scattering(traj_fwd, traj_bwd):
    """Asymptotic momenta and intercepts read off a flow's outermost samples.

    theta^+ and lambda^+ are the momenta p and the intercepts q - p t of the
    last sample of traj_fwd, theta^- the momenta of the first sample of
    traj_bwd.  Over the outer quarter of each trajectory (at least two
    samples) the flow must already be free, or ConvergenceError: positions
    within _FREE_LINE_LIMIT * max(1, max |q|) of the free line through
    the outermost sample, momenta within 1e-3 of its momenta.
    """
    th_plus, lam_plus = _asymptote(traj_fwd, at_end=True)
    th_minus, _ = _asymptote(traj_bwd, at_end=False)
    order = np.argsort(th_plus)[::-1]
    return ScatteringData(
        theta_plus=th_plus[order],
        theta_minus=np.sort(th_minus),
        lambda_plus=lam_plus[order],
    )


def invariant_drift(traj):
    """Max |I_k(x(t)) - I_k(x(0))| per invariant stored on the trajectory."""
    return {
        label: float(np.max(np.abs(_finite(values, label) - values[0])))
        for label, values in traj.invariants.items()
    }
