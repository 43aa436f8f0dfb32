"""Hamiltonian flows on canonical coordinates, plus the audit tooling.

The integrator is scipy's adaptive Runge-Kutta pair DOP853 (Dormand-Prince
8(5,3)), run step for step by `_dopri`, whose docstring says which parts are
scipy's own and which are in-house.  No symplectic structure is imposed.
Conservation is checked after the fact: every trajectory carries its
invariant samples, and callers are expected to look at the drift numbers
rather than trust the scheme.
Every system supplies its analytic right-hand side, written in place:
grad(y, out) fills out with (dH/dp, -dH/dq) at the flat phase vector
y = (q, p), so `_dopri` calls it on its stage rows directly.
A flow's samples are one block: `_dopri` writes them as the rows of one
(m, 2n) array, which the Trajectory holds as a PhasePoint of (m, n) q and
p.  The Hamiltonian maps a block to its m energies and boundary_margin(q)
reads the configuration alone, so integrate_flow audits all of a flow's
samples with one call of each.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError, RangeError, StiffnessError

_EPS = float(np.finfo(float).eps)

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


def _scalar(value, name):
    """value itself if it is one finite number, or DomainError naming it."""
    if np.ndim(value):
        raise DomainError(f"{name} must be a scalar")
    return _finite(value, name)


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


def _pair(point, names, a, b, vec=_vec):
    """Check a and b with vec(value, name), store them on an immutable point
    under names and return the checked a."""
    a, b = vec(a, names[0]), vec(b, names[1])
    if a.shape != b.shape:
        raise DomainError(f"{names[0]} and {names[1]} must have equal shapes")
    object.__setattr__(point, names[0], a)
    object.__setattr__(point, names[1], b)
    return a


class _Record:
    """Base of the checked records: __slots__ fields that __init__ sets once,
    through object.__setattr__, and that are read-only after it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not by assignment
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class PhasePoint(_Record):
    """Canonical coordinates q (positions or actions) and p (momenta), nan allowed:
    one point of two length-n vectors, or a block of two (m, n) arrays, a row
    per sample.  dim, to_vector and from_vector work on the last axis; x[k] is
    sample k of a block, or a sub-block, unchecked since the block was checked."""

    __slots__ = ("q", "p")

    def __init__(self, q, p):
        _pair(self, ("q", "p"), q, p, lambda x, _: np.atleast_1d(np.asarray(x, float)))

    @property
    def dim(self):
        return self.q.shape[-1]

    def to_vector(self):
        return np.concatenate([self.q, self.p], axis=-1)

    @staticmethod
    def from_vector(y):
        q, p = np.split(np.asarray(y, float), [np.shape(y)[-1] // 2], axis=-1)
        return PhasePoint(q, p)

    def __getitem__(self, k):
        x = object.__new__(PhasePoint)
        object.__setattr__(x, "q", self.q[k])
        object.__setattr__(x, "p", self.p[k])
        return x


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian plus the metadata the integrator needs.

    grad(y, out) writes Hamilton's right-hand side (dH/dp, -dH/dq) at
    the flat phase vector y = (q, p) into out, a float vector of the
    same length, and returns out; y must not change.  y is the
    integrator's scratch buffer, valid only during the call: it is
    overwritten by the next stage, so grad must not keep it.  Every system
    supplies it analytically.  grad is defined inside the domain; outside
    it, or past the float range, it may write non-finite entries, and the
    integrator's error test rejects that trial stage.  hamiltonian(x)
    takes a PhasePoint over a leading sample axis: one energy for a point,
    m for an (m, n) block.  boundary_margin(q) takes the configuration
    alone, a point or a block, and returns a smooth distance-like quantity
    per sample that is positive exactly inside the open domain the flow
    must not leave; it drives event-based truncation near the boundary,
    and contains reads membership off it.  A system defined everywhere
    gives a positive constant.
    """

    dim: int
    hamiltonian: object
    grad: object
    boundary_margin: object
    name: str = "system"
    domain_check = None  # not a field; perfbench's tracer reads it until ROADMAP item 5

    def contains(self, x):
        """Whether x is inside: a bool for a point, a bool array for a block."""
        return _per_sample(np.asarray(self.boundary_margin(x.q) > 0, bool))

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
    negation; it divides by f(x) three times, not by the cube, so beyond a
    gap of about 5.6e102 it underflows to 0 instead of overflowing.  The
    force r = 2 w f'(x) / f(x) / f(x) / f(x) is formed in place in one
    array, and T^T r is written straight into out.
    margin(q) is the configuration domain's boundary margin, positive
    exactly inside it, and serves as boundary_margin as it is; it and the
    energy take a leading sample axis.  T is a finite 2-D array-like, w
    holds one finite weight per row of T and f comes with df, or DomainError.
    """
    T, w = _finite(np.asarray(T, float), "T"), _finite(np.asarray(w, float), "w")
    if T.ndim != 2 or w.shape != T.shape[:1] or (f is None) != (df is None):
        raise DomainError(f"{name}: need a 2-D T, one weight per row of T and f with df")
    force, n = 2.0 * w, T.shape[1]

    def H(point):
        return _pair_energy(point.q, point.p, T, w, f)

    def grad(y, out):
        x = T.dot(y[:n])
        s = x if f is None else f(x)
        if df is None:
            r = force / s
        else:
            r = force * df(x)
            r /= s
        r /= s
        r /= s
        r.dot(T, out=out[n:])
        out[:n] = y[n:]
        return out

    return HamiltonianSystem(
        dim=n,
        hamiltonian=H,
        grad=grad,
        boundary_margin=margin,
        name=name,
    )


class Trajectory(_Record):
    """Samples of a flow at increasing times: states is a PhasePoint block whose
    row k is the sample at times[k], and each invariant has one value per
    sample.  integrate_flow's diagnostics: nfev, accepted and rejected steps,
    dense (interpolants built), t_stop (where the flow stopped) and
    stop_margin (the boundary margin there, a float).  invariants and
    diagnostics default to new empty dicts."""

    __slots__ = ("times", "states", "invariants", "status", "diagnostics")

    def __init__(self, times, states, invariants=None, status="completed", diagnostics=None):
        times = _finite(np.array(times, float, ndmin=1), "times")
        if not isinstance(states, PhasePoint) or states.q.shape[:-1] != times.shape:
            raise DomainError("trajectory states must be a PhasePoint block of one sample per time")
        if np.any(np.diff(times) <= 0):
            raise DomainError("trajectory times must be strictly increasing")
        invariants = {} if invariants is None else invariants
        diagnostics = {} if diagnostics is None else diagnostics
        for name, value in zip(self.__slots__, (times, states, invariants, status, diagnostics)):
            object.__setattr__(self, name, value)

    @property
    def initial(self):
        return self.states[0]

    @property
    def final(self):
        return self.states[-1]


class ScatteringData(NamedTuple):
    """extract_scattering's theta_plus (decreasing) and lambda_plus, off the forward
    flow's last sample, and theta_minus (increasing), off the backward flow's first."""

    theta_plus: np.ndarray
    theta_minus: np.ndarray
    lambda_plus: np.ndarray


def _dense(F, y_old, t_old, h, t):
    """scipy's Dop853DenseOutput on the step of size h from (t_old, y_old):
    the state at a float t, or one row per entry of a 1-D array t.  Stacked,
    F of shape (7, m, N), y_old (m, N) and t_old and h (m, 1) columns, row k
    is t[k] on its own step, rounded as that step alone rounds it."""
    x = (np.asarray(t)[..., None] - t_old) / h
    rest, y = 1 - x, 0.0
    for k, f in enumerate(F[::-1]):
        y = (y + f) * (rest if k % 2 else x)
    return y + y_old


def _square_norm(x):
    """np.linalg.norm(x) ** 2 as scipy's DOP853 rounds it: not x.dot(x)."""
    return np.sqrt(x.dot(x)) ** 2


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _dopri(rhs, y, t, t1, tol, samples, margin, name):
    """scipy's DOP853 from (t, y) to t1, step for step: the Dormand-Prince
    8(5,3) pair (Prince-Dormand, J. Comput. Appl. Math. 7, 1981) with the
    step control and dense output of Hairer-Norsett-Wanner, Solving ODEs I,
    II.10, at atol = tol and rtol = max(tol, 100 eps).

    Times, states, status, the margin stop and nfev are those of
    solve_ivp(method="DOP853"), bit for bit (tests/test_dopri.py).  The start
    is scipy's: a DOP853 object evaluates f0 and picks the first step with
    its own selector (II.4).  The step loop, the dense pass and the margin
    crossing are in-house, because driving scipy's stepper (step() and
    dense_output()) costs about a quarter of cm-scattering's throughput.
    They read scipy's tableau and do scipy's operations in scipy's order,
    12 stages an attempt, the E5/E3 error norm with step exponent -1/8 and
    StiffnessError below ten float spacings, but into reused rows: one row
    for every stage argument, y_new, the error scale and the E5 and E3
    vectors in place, and y, y_new and their magnitudes swapped on
    acceptance.  One guard departs from scipy, as Hairer's Fortran DOP853
    does: where err5 = 0 and 0.01 err3^2 underflows, scipy's norm is 0/0 and
    its solver fails, and here the error is 0.  A nan error still rejects
    the step.
    rhs(y, out) is a system's grad: it writes the derivative into out (a
    stage row) and returns it; it is autonomous, so the nodes DOP853.C
    never enter.  It runs under one np.errstate, the start included, so a
    non-finite trial stage fails the error test quietly, as in scipy.  The
    7th-order interpolant costs three more stages, built once for a step
    that holds a sample or a margin crossing and for no other.  margin, a
    system's boundary_margin, reads the positions y[:n]; when it falls to
    _BOUNDARY_MARGIN within a step, brentq finds the crossing on that step's
    interpolant as scipy's terminal events do, and the samples stop there.
    Steps that hold samples leave their interpolants pending, and one pass
    of _dense after the loop evaluates every sample row.  Returns the states
    at the samples reached, one row each, whether the margin stopped the
    flow, and the diagnostics, dense counting the interpolants built.
    """
    rtol, atol, direction = max(tol, 100 * _EPS), tol, 1.0 if t1 > t else -1.0
    start = DOP853(lambda _, v: rhs(v, np.empty_like(v)), t, y, t1, rtol=rtol, atol=atol)
    f, h_abs, exponent, n = start.f, start.h_abs, start.error_exponent, y.size // 2

    # rows: the 12 stages, the derivative at the step's end, the 3 dense stages;
    # each stage s is formed from the rows before it with the weights a
    K, last = np.empty((DOP853.D.shape[1], y.size)), DOP853.n_stages
    trial = [(s, K[:s].T, DOP853.A[s, :s]) for s in range(1, last)]
    extra = [(s, K[:s].T, a[:s]) for s, a in enumerate(DOP853.A_EXTRA, start=last + 1)]
    KB, KE = K[:last].T, K[: last + 1].T
    # reused rows: y and y_new swap on acceptance, as do their magnitudes
    y, y_new, arg, scale, err = y.copy(), *np.empty((4, y.size))
    abs_y, abs_new = np.abs(y), np.empty_like(y)

    def stages(rows, base, h, arg=arg):  # a parameter: arg *= h rebinds a closure's name
        """K[s] = rhs(base + (Ks . a) h) for each (s, Ks, a) of rows, as scipy rounds it."""
        for s, Ks, a in rows:
            Ks.dot(a, out=arg)
            arg *= h
            arg += base
            rhs(arg, K[s])

    def interpolant(y_old, y, h):
        """Dop853DenseOutput's F on the step from y_old to y."""
        stages(extra, y_old, h)
        F, delta = np.empty((DOP853.D.shape[0] + 3, y.size)), y - y_old
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (K[last] + K[0])
        F[3:] = h * np.dot(DOP853.D, K)
        return F

    # samples up to and including t, in the direction of time, as bisect keys;
    # each step that holds samples leaves (F, y_old, t_old, h, count) pending
    keys, i, pending = (direction * samples).tolist(), 0, []
    accepted = rejected = dense = 0
    g, hit = margin(y[:n]), False
    while not hit and t != t1:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs, retried = max(h_abs, min_step), False
        K[0] = f  # once per step: no attempt writes K[0], and f may be the row K[last]
        while True:
            if h_abs < min_step:
                raise StiffnessError(f"{name}: step size fell below the float spacing at t = {t}")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            stages(trial, y, h)
            KB.dot(DOP853.B, out=y_new)
            y_new *= h
            y_new += y
            rhs(y_new, K[last])
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            err5 = _square_norm(np.divide(KE.dot(DOP853.E5, out=err), scale, out=err))
            err3 = _square_norm(np.divide(KE.dot(DOP853.E3, out=err), scale, out=err))
            denom = err5 + 0.01 * err3
            error = 0.0 if denom == 0 else h_abs * err5 / np.sqrt(denom * y.size)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error**exponent)
                h_abs *= min(1, factor) if retried else factor
                break
            h_abs *= max(0.2, 0.9 * error**exponent)
            rejected, retried = rejected + 1, True
        accepted += 1
        t_old, y_old, t, y, y_new, f, F = t, y, t_new, y_new, y, K[last], None
        abs_y, abs_new = abs_new, abs_y
        g_new = margin(y[:n])
        if g >= _BOUNDARY_MARGIN >= g_new:
            F, seen, dense = interpolant(y_old, y, h), {}, dense + 1

            def excess(s):
                seen[s] = margin(_dense(F, y_old, t_old, h, s)[:n])
                return seen[s] - _BOUNDARY_MARGIN

            t = brentq(excess, t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
            g_new, hit = seen[t], True
        g = g_new
        j = bisect.bisect_right(keys, direction * t, i)
        if j > i:
            if F is None:
                F, dense = interpolant(y_old, y, h), dense + 1
            pending.append((F, y_old.copy(), t_old, h, j - i))
            i = j
    # one pass of _dense over every sample row, each on its own step; the
    # first step always holds the sample at t0
    Fs, y_olds, t_olds, hs, counts = zip(*pending)
    step = np.repeat(np.arange(len(counts)), counts)
    t_olds, hs = np.array(t_olds)[step, None], np.array(hs)[step, None]
    rows = _dense(np.stack(Fs, axis=1)[:, step], np.array(y_olds)[step], t_olds, hs, samples[:i])
    diagnostics = dict(
        nfev=2 + 12 * (accepted + rejected) + 3 * dense,
        accepted=accepted,
        rejected=rejected,
        dense=dense,
        t_stop=t,
        stop_margin=float(g),
    )
    return rows, hit, diagnostics


def integrate_flow(sys, x0, t_span, tol, invariant_family=None, n_samples=201):
    """Integrate Hamilton's equations q' = dH/dp, p' = -dH/dq.

    The steps are scipy's DOP853 at tolerance tol, bit for bit (see
    `_dopri`), with sys.grad as the right-hand side; diagnostics carry its
    statistics: nfev = 2 + 12 (accepted + rejected) + 3 dense, dense
    counting the interpolants built for the samples and the margin
    crossing.  A trial
    stage where sys.grad is not finite fails the error test.  The flow stops
    where boundary_margin falls through _BOUNDARY_MARGIN (1e-8), a downward
    crossing as scipy's terminal event of direction -1 sees it, so a start
    below 1e-8 is stopped only by the sample audit.  t_span may run backward
    (t1 < t0); the returned trajectory always stores increasing times.  The
    samples at np.linspace(t0, t1, n_samples) are one block, audited as such:
    one boundary_margin call truncates it at the first sample outside the
    domain (status 'truncated', not an error), and one sys.energy call takes
    the energies of the rest.  A start inside the domain keeps its first
    sample, which is the start itself unless the first step's interpolant
    overflows (RangeError, as at |t0| = 1e200).  So a flow whose margin stops
    it before the second sample is a one-sample 'truncated' trajectory, with
    the usual t_stop and stop_margin: invariant_drift reads 0 on it, and
    extract_scattering, which has no free line to check on one sample,
    raises ConvergenceError.  invariant_family's observables take one
    sample's point at a time; the energy is always included.  x0 must be one
    finite PhasePoint of the system's dimension, tol a finite positive scalar,
    t_span two finite and distinct numbers, n_samples an integer >= 2.
    """
    if not float(_scalar(tol, "tol")) > 0:
        raise DomainError("tol must be a positive scalar")
    span = np.asarray(t_span, float)
    if span.shape != (2,):
        raise DomainError("t_span must be two numbers (t0, t1)")
    t0, t1 = _finite(span, "t_span").tolist()
    if t0 == t1:
        raise DomainError("t_span needs two distinct ends")
    n_samples = _count(n_samples, "n_samples", 2)
    if not isinstance(x0, PhasePoint):
        raise DomainError(f"{sys.name}: x0 must be a PhasePoint, not {type(x0).__name__}")
    if x0.q.shape != (sys.dim,):
        raise DomainError(f"{sys.name}: need one point of dimension {sys.dim}, not {x0.q.shape}")
    y0 = _finite(x0.to_vector(), f"{sys.name}: initial point")
    if not sys.contains(x0):
        raise DomainError(f"{sys.name}: initial point outside domain")
    sys.energy(x0)

    samples = np.linspace(t0, t1, n_samples)
    ys, hit, diagnostics = _dopri(sys.grad, y0, t0, t1, tol, samples, sys.boundary_margin, sys.name)
    # a finite first sample equals the start: _dense at x = 0
    _in_range(ys[0], f"{sys.name}: the first step's interpolant overflows")
    block = PhasePoint.from_vector(ys)

    # drop the samples from the first one that slipped outside the open domain
    inside = sys.contains(block)
    keep = len(ys) if inside.all() else int(inside.argmin())
    status = "truncated" if hit or keep < len(ys) else "completed"
    kept = slice(keep - 1, None, -1) if t1 < t0 else slice(keep)  # increasing times
    states = block[kept]

    invariants = {"energy": sys.energy(states)}
    for label, func in (invariant_family or {}).items():
        invariants[label] = np.array([np.atleast_1d(func(states[k])) for k in range(keep)])

    return Trajectory(
        times=samples[kept],
        states=states,
        invariants=invariants,
        status=status,
        diagnostics=diagnostics,
    )


def _asymptote(traj, at_end):
    """(p, q - p t) of the outermost sample, after extract_scattering's checks."""
    if len(traj.times) < 2:
        raise ConvergenceError("a one-sample trajectory cannot show that it is free")
    count = max(len(traj.times) // 4, 2)
    k, window = (-1, slice(-count, None)) if at_end else (0, slice(0, count))
    outer, edge = traj.states[window], traj.states[k]
    qs, ps = _finite(outer.q, "q"), _finite(outer.p, "p")
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

    theta^+ and lambda^+ are the momenta p and the intercepts q - p t of the last
    sample of traj_fwd, theta^- the momenta of the first sample of traj_bwd, which
    must have traj_fwd's dimension (DomainError).  Over the outer quarter of each
    trajectory (at least two samples, so a one-sample trajectory raises) the
    flow must already be free, or
    ConvergenceError: positions within _FREE_LINE_LIMIT * max(1, max |q|) of the
    free line through the outermost sample, momenta within 1e-3 of its momenta.
    """
    if traj_fwd.states.dim != traj_bwd.states.dim:
        raise DomainError("forward and backward trajectories must have one dimension")
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
