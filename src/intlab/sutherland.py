"""Trigonometric BC_n Sutherland system and its rational dual.

The direct side lives on the alcove pi/2 > q_1 > ... > q_n > 0 with a
three-coupling trigonometric potential.  The dual side is a rational
system of Ruijsenaars type whose positions fill the shifted chamber
lam_a - lam_{a+1} > 2*mu, lam_n > nu; its angles are genuine angles.

Chart conventions for the dual side:

  * the local chart is (lam, theta) on the open chamber;
  * the global chart is z in C^n, with |z_j|^2 measuring the excess of
    the j-th chamber inequality and the phases of z carrying the angles.

The two charts are glued by a diagonal unitary built from cumulative
phases; `dual_lax_global` is defined on all of C^n, including z = 0,
where the chamber inequalities saturate and the local chart dies.  The
commuting invariants of the direct side, transported to the dual side,
are symmetric functions of lam(z) alone, so they only see the moduli
|z_j|; the dual energy, by contrast, sees the phases as well.

The last third of the module treats a *rational* deformed family on the
plain positive chamber (no 2*mu gaps): subset-sum Hamiltonians with
hyperbolic rapidities, a Hermitian first-order matrix whose
characteristic polynomial is palindromic, and the integer triangular
maps that translate between the asymptotic forms of the two families.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .dynamics import HamiltonianSystem
from .errors import ChartError, DomainError, RegularityError
from .linalg import char_poly

# Slack below which a weight denominator counts as degenerate.
_REG_MARGIN = 1e-8
# |lam_n - mu| below which the cancelled corner form replaces the raw quotient.
_CANCEL_SWITCH = 1e-6


def _vec(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class BCnCouplings:
    """Coupling triple (mu, nu, kappa) with mu > 0 and nu > |kappa| >= 0.

    The equivalent potential couplings gamma = mu^2, gamma1 = nu*kappa/2,
    gamma2 = (nu - kappa)^2 / 2 are exposed as properties.  The window
    nu > |kappa| keeps gamma2 and 4*gamma1 + gamma2 positive, which is
    what confines the flow to the open alcove.
    """

    mu: float
    nu: float
    kappa: float = 0.0

    def __post_init__(self):
        for label in ("mu", "nu", "kappa"):
            val = float(getattr(self, label))
            if not np.isfinite(val):
                raise DomainError(f"{label} must be finite")
            object.__setattr__(self, label, val)
        if self.mu <= 0:
            raise DomainError("mu must be positive")
        if self.nu <= abs(self.kappa):
            raise DomainError("need nu > |kappa| >= 0")
        # implied by the window above; kept as a tripwire
        if self.gamma2 <= 0 or 4 * self.gamma1 + self.gamma2 <= 0:
            raise DomainError("potential couplings left their admissible cone")

    @property
    def gamma(self):
        return self.mu**2

    @property
    def gamma1(self):
        return self.nu * self.kappa / 2.0

    @property
    def gamma2(self):
        return (self.nu - self.kappa) ** 2 / 2.0


@dataclass(frozen=True)
class SutherlandPoint:
    """Phase-space point of the direct system; q strictly inside the alcove."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _vec(self.q, "q")
        p = _vec(self.p, "p")
        if q.shape != p.shape:
            raise DomainError("q and p must have matching shapes")
        if q[-1] <= 0 or q[0] >= np.pi / 2 or np.any(np.diff(q) >= 0):
            raise DomainError("q must satisfy pi/2 > q_1 > ... > q_n > 0")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self):
        return self.q.size


@dataclass(frozen=True)
class DualPoint:
    """Dual-side point (lam, theta) with an optional global representative z.

    Chamber membership depends on the couplings, so the operations check
    it; construction only enforces ordering, positivity and shape.
    """

    lam: np.ndarray
    theta: np.ndarray
    z: np.ndarray = None

    def __post_init__(self):
        lam = _vec(self.lam, "lam")
        theta = _vec(self.theta, "theta")
        if lam.shape != theta.shape:
            raise DomainError("lam and theta must have matching shapes")
        if np.any(np.diff(lam) >= 0) or lam[-1] <= 0:
            raise DomainError("lam must be strictly decreasing and positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)
        if self.z is not None:
            z = np.asarray(self.z, dtype=complex)
            if z.shape != lam.shape:
                raise DomainError("z must match lam in shape")
            object.__setattr__(self, "z", z)

    @property
    def n(self):
        return self.lam.size

    @classmethod
    def from_global(cls, z, c):
        """Lift a global-chart point; requires every component nonzero."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        if np.any(np.abs(z) == 0.0):
            raise ChartError("the angle chart needs all z components nonzero")
        lam = lambda_of_z(z, c)
        args = np.angle(z)
        theta = np.diff(np.concatenate(([0.0], args)))
        return cls(lam, theta, z=z)


def _require_chamber(lam, c):
    if lam[-1] <= c.nu or np.any(-np.diff(lam) <= 2 * c.mu):
        raise DomainError(
            "lam outside the open dual chamber (gaps > 2*mu, lam_n > nu)"
        )


def _require_strongly_regular(lam, c):
    """Margins for every denominator the weight formulas divide by."""
    n = lam.size
    edge = abs(2 * c.mu - c.nu)
    for a in range(n):
        if abs(lam[a] - c.nu) <= _REG_MARGIN or abs(lam[a] - edge) <= _REG_MARGIN:
            raise RegularityError(f"lam[{a}] too close to a coupling threshold")
        for b in range(a + 1, n):
            for s in (lam[a] - lam[b], lam[a] + lam[b]):
                if abs(abs(s) - 2 * c.mu) <= _REG_MARGIN:
                    raise RegularityError(
                        f"|lam[{a}] +/- lam[{b}]| within margin of 2*mu"
                    )


# ---------------------------------------------------------------------------
# direct side


def _energy(q, p, c):
    value = 0.5 * float(p @ p)
    for j in range(q.size):
        for k in range(j + 1, q.size):
            value += c.gamma / np.sin(q[j] - q[k]) ** 2
            value += c.gamma / np.sin(q[j] + q[k]) ** 2
    value += float(np.sum(c.gamma1 / np.sin(q) ** 2))
    value += float(np.sum(c.gamma2 / np.sin(2 * q) ** 2))
    return value


def sutherland_H(x, c):
    """Kinetic energy plus the three-coupling trigonometric potential."""
    return _energy(x.q, x.p, c)


def lax_Y(x, c):
    """First-order matrix of the direct flow and its commuting trace family.

    Returns (Y, H) with Y the 2n x 2n anti-Hermitian matrix and
    H[k-1] = tr((-iY)^(2k)) / (4k) for k = 1..n.  Odd trace powers of
    -iY vanish, and H[0] reproduces sutherland_H.
    """
    q, p, n = x.q, x.p, x.n
    a = np.diag(1j * p)
    s2 = np.sin(2 * q)
    b = np.diag(c.nu / s2 + c.kappa * np.cos(2 * q) / s2).astype(complex)
    for j in range(n):
        for k in range(n):
            if k != j:
                a[j, k] = -c.mu / np.sin(q[j] - q[k])
                b[j, k] = c.mu / np.sin(q[j] + q[k])
    Y = np.block([[a, b], [-b, -a]])
    eye = np.eye(n)
    Y[:n, n:] -= 1j * c.kappa * eye
    Y[n:, :n] -= 1j * c.kappa * eye
    m2 = (-1j * Y) @ (-1j * Y)
    values = np.empty(n)
    power = m2
    for k in range(1, n + 1):
        values[k - 1] = float(np.trace(power).real) / (4 * k)
        if k < n:
            power = power @ m2
    return Y, values


def make_system(n, c):
    """HamiltonianSystem wrapper for the direct flow (analytic gradient)."""

    def H(point):
        return _energy(point.q, point.p, c)

    def grad(point):
        q = point.q
        dq = np.zeros(n)
        for j in range(n):
            for k in range(n):
                if k != j:
                    dq[j] -= 2 * c.gamma * np.cos(q[j] - q[k]) / np.sin(q[j] - q[k]) ** 3
                    dq[j] -= 2 * c.gamma * np.cos(q[j] + q[k]) / np.sin(q[j] + q[k]) ** 3
            dq[j] -= 2 * c.gamma1 * np.cos(q[j]) / np.sin(q[j]) ** 3
            dq[j] -= 4 * c.gamma2 * np.cos(2 * q[j]) / np.sin(2 * q[j]) ** 3
        return dq, np.array(point.p, dtype=float)

    def inside(point):
        q = point.q
        return bool(q[-1] > 0 and q[0] < np.pi / 2 and np.all(np.diff(q) < 0))

    def margin(point):
        q = point.q
        vals = [np.pi / 2 - q[0], q[-1]]
        if n > 1:
            vals.append(float(np.min(-np.diff(q))))
        return float(min(vals))

    return HamiltonianSystem(
        dim=n,
        hamiltonian=H,
        grad=grad,
        domain_check=inside,
        boundary_margin=margin,
        name=f"sutherland-bc(n={n})",
    )


# ---------------------------------------------------------------------------
# dual side, local chart


def dual_h_matrix(lam, kappa):
    """Real block rotation diagonalising the kappa-coupled asymptotic matrix.

    Conjugating diag(lam, -lam) with it gives diag(d, -d) - kappa*C where
    d_j = sqrt(lam_j^2 - kappa^2) and C is the half-swap; the matrix is
    orthogonal and reduces to the identity at kappa = 0.
    """
    lam = _vec(lam, "lam")
    kappa = float(kappa)
    n = lam.size
    if kappa == 0.0:
        return np.eye(2 * n)
    if np.any(lam < abs(kappa)):
        raise DomainError("need lam_j >= |kappa| for the rotation to exist")
    root = np.sqrt(lam + np.sqrt(lam**2 - kappa**2))
    alpha = np.diag(root / np.sqrt(2 * lam))
    beta = np.diag(kappa / (np.sqrt(2 * lam) * root))
    return np.block([[alpha, beta], [-beta, alpha]])


@dataclass(frozen=True)
class DualState:
    """Square-root vector f, chamber weights, and the two solution branches
    of the quadratic constraints satisfied by the weighted moduli."""

    f: np.ndarray
    weights: np.ndarray
    cf_plus: np.ndarray
    cf_minus: np.ndarray


def _root(value):
    if value <= 0:
        raise DomainError("square-root factor lost positivity: lam left the chamber")
    return np.sqrt(value)


def dual_state(d, c):
    """Vector data of the local-chart dual matrix.

    The first half of f is real, the second half carries e^(i*theta);
    cf_plus sums to +2n and cf_minus to -2n, which pins the branch of
    every square root at once.
    """
    lam, th, n = d.lam, d.theta, d.n
    _require_chamber(lam, c)
    _require_strongly_regular(lam, c)
    mu, nu = c.mu, c.nu
    f = np.zeros(2 * n, dtype=complex)
    for a in range(n):
        low = _root(1 - nu / lam[a])
        high = _root(1 + nu / lam[a])
        for b in range(n):
            if b != a:
                low *= _root(1 - 2 * mu / (lam[a] - lam[b]))
                low *= _root(1 - 2 * mu / (lam[a] + lam[b]))
                high *= _root(1 + 2 * mu / (lam[a] - lam[b]))
                high *= _root(1 + 2 * mu / (lam[a] + lam[b]))
        f[a] = low
        f[n + a] = np.exp(1j * th[a]) * high
    weights = np.zeros(2 * n)
    for a in range(n):
        down = 1.0
        up = 1.0
        for b in range(n):
            if b != a:
                num = (lam[a] - lam[b]) * (lam[a] + lam[b])
                down *= num / ((2 * mu - lam[a] + lam[b]) * (2 * mu - lam[a] - lam[b]))
                up *= num / ((2 * mu + lam[a] - lam[b]) * (2 * mu + lam[a] + lam[b]))
        weights[a] = down
        weights[n + a] = up
    cf_plus = np.concatenate([(1 - nu / lam) / weights[:n], (1 + nu / lam) / weights[n:]])
    shift = (2 * mu - nu) / lam
    cf_minus = np.concatenate([(-1 + shift) / weights[:n], (-1 - shift) / weights[n:]])
    return DualState(f=f, weights=weights, cf_plus=cf_plus, cf_minus=cf_minus)


def dual_hamiltonian(d, c):
    """Dual energy through the explicit square-root product form."""
    lam, th, n = d.lam, d.theta, d.n
    _require_chamber(lam, c)
    mu, nu, kap = c.mu, c.nu, c.kappa
    total = 0.0
    for j in range(n):
        term = np.cos(th[j])
        term *= _root(1 - nu**2 / lam[j] ** 2) * _root(1 - kap**2 / lam[j] ** 2)
        for k in range(n):
            if k != j:
                term *= _root(1 - 4 * mu**2 / (lam[j] - lam[k]) ** 2)
                term *= _root(1 - 4 * mu**2 / (lam[j] + lam[k]) ** 2)
        total += term
    const = nu * kap / (4 * mu**2)
    return total - const * float(np.prod(1 - 4 * mu**2 / lam**2)) + const


def _cancelled_corner(lam, mu, nu):
    """Corner entry with the lam_n = mu pole removed.

    The raw quotient [mu*f_n^2 - (mu - nu)] / (mu - lam_n) is 0/0 at the
    crossing; expanding f_n^2 factor by factor telescopes it into the
    series below, regular through lam_n = mu.
    """
    x = lam[-1]
    acc = 0.0
    run = 1.0
    for la in lam[:-1]:
        acc += run / (x**2 - la**2)
        run *= ((x - 2 * mu) ** 2 - la**2) / (x**2 - la**2)
    return (4 * mu**2 * (x - nu) * acc - nu) / x


def _half_swap(n):
    C = np.zeros((2 * n, 2 * n))
    C[:n, n:] = np.eye(n)
    C[n:, :n] = np.eye(n)
    return C


def dual_lax_local(d, c):
    """Unitary local-chart dual matrix and the energy read off its trace.

    Returns (A, value) with value = Re tr(h A h) / 2, which agrees with
    dual_hamiltonian.  The (n, 2n) entry is evaluated by the cancelled
    form whenever lam_n is within _CANCEL_SWITCH of mu.
    """
    state = dual_state(d, c)
    lam, n = d.lam, d.n
    mu, nu = c.mu, c.nu
    f = state.f
    cf = np.concatenate([f[n:], f[:n]])
    big = np.concatenate([lam, -lam])
    num = 2 * mu * np.outer(f, np.conj(cf)) - 2 * (mu - nu) * _half_swap(n)
    den = 2 * mu + big[None, :] - big[:, None]
    corner = abs(lam[-1] - mu) < _CANCEL_SWITCH
    if corner:
        den[n - 1, 2 * n - 1] = 1.0  # placeholder, entry rewritten below
    A = num / den
    if corner:
        A[n - 1, 2 * n - 1] = _cancelled_corner(lam, mu, nu)
    h = dual_h_matrix(lam, c.kappa)
    value = 0.5 * float(np.trace(h @ A @ h).real)
    return A, value


# ---------------------------------------------------------------------------
# dual side, global chart


def lambda_of_z(z, c):
    """Positions on the closed chamber: lam_k = nu + 2*mu*(n-k) + sum_{j>=k} |z_j|^2."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    mods = np.abs(z) ** 2
    n = z.size
    tails = np.cumsum(mods[::-1])[::-1]
    return c.nu + 2 * c.mu * (n - 1 - np.arange(n)) + tails


def _chart_g(lam, c):
    """The 2n positive square-root combinations smooth on the closed chamber.

    Each is the corresponding f-factor with the single chamber-gap factor
    that vanishes on the boundary divided out.
    """
    n = lam.size
    mu, nu = c.mu, c.nu
    g = np.zeros(2 * n)
    for a in range(n):
        if a < n - 1:
            val = (1 - nu / lam[a]) / (lam[a] - lam[a + 1])
            skip = a + 1
        else:
            val = 1.0 / lam[a]
            skip = -1
        for b in range(n):
            if b != a and b != skip:
                val *= 1 - 2 * mu / (lam[a] - lam[b])
            if b != a:
                val *= 1 - 2 * mu / (lam[a] + lam[b])
        g[a] = np.sqrt(val)
    for a in range(n):
        if a > 0:
            val = (1 + nu / lam[a]) / (lam[a - 1] - lam[a])
            skip = a - 1
        else:
            val = 1 + nu / lam[a]
            skip = -1
        for b in range(n):
            if b != a and b != skip:
                val *= 1 + 2 * mu / (lam[a] - lam[b])
            if b != a:
                val *= 1 + 2 * mu / (lam[a] + lam[b])
        g[n + a] = np.sqrt(val)
    return g


@dataclass(frozen=True)
class DualGlobal:
    """Global-chart data: positions lam(z), the unitary dual matrix, and the
    alcove positions recovered from its spectrum."""

    lam: np.ndarray
    lax: np.ndarray
    alcove_q: np.ndarray


def dual_lax_global(z, c):
    """Global-chart dual matrix, defined on all of C^n including z = 0.

    The entries adjacent to the diagonal of the two square blocks, and
    the corner entry of the off-diagonal block, are evaluated by their
    cancelled forms, so the matrix stays smooth where chamber gaps
    saturate.  alcove_q holds the direct-side positions encoded in the
    spectrum of the conjugated matrix; at z = 0 they are the equilibrium
    configuration of the direct flow.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.size == 0 or not np.all(np.isfinite(z)):
        raise DomainError("z must be a finite complex vector")
    n = z.size
    mu, nu = c.mu, c.nu
    lam = lambda_of_z(z, c)
    g = _chart_g(lam, c)
    zl = np.concatenate([[1.0 + 0.0j], z])  # zl[a] = z_(a-1) with z_0 = 1
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            if b == a + 1:
                A[a, b] = -2 * mu * g[a] * g[n + b]
            else:
                A[a, b] = (
                    -2 * mu * np.conj(z[a]) * zl[b] * g[a] * g[n + b]
                    / (lam[a] - lam[b] - 2 * mu)
                )
            if b == a - 1:
                A[n + a, n + b] = -2 * mu * g[b] * g[n + a]
            else:
                A[n + a, n + b] = (
                    2 * mu * np.conj(zl[a]) * z[b] * g[n + a] * g[b]
                    / (lam[a] - lam[b] + 2 * mu)
                )
            if a == b == n - 1 and abs(lam[a] - mu) < _CANCEL_SWITCH:
                A[a, n + b] = _cancelled_corner(lam, mu, nu)
            else:
                val = (
                    -2 * mu * np.conj(z[a]) * z[b] * g[a] * g[b]
                    / (lam[a] + lam[b] - 2 * mu)
                )
                if a == b:
                    val += (mu - nu) / (lam[a] - mu)
                A[a, n + b] = val
            val = (
                2 * mu * np.conj(zl[a]) * zl[b] * g[n + a] * g[n + b]
                / (lam[a] + lam[b] + 2 * mu)
            )
            if a == b:
                val -= (mu - nu) / (lam[a] + mu)
            A[n + a, b] = val
    h = dual_h_matrix(lam, c.kappa)
    spun = h @ A @ h
    args = np.angle(np.linalg.eigvals(-spun.conj().T))
    q = np.sort(args)[::-1][:n] / 2.0
    return DualGlobal(lam=lam, lax=A, alcove_q=q)


def transported_family(z, c):
    """Commuting direct-side invariants read off on the global dual chart.

    The k-th value is sum_j lam_j(z)^(2k) / (2k), matching the k-th trace
    invariant of the direct flow.  Only the moduli |z_j| enter, so the
    whole family is blind to the phases that the dual energy sees.
    """
    lam = lambda_of_z(z, c)
    return np.array(
        [float(np.sum(lam ** (2 * k))) / (2 * k) for k in range(1, lam.size + 1)]
    )


def chart_gauge(z):
    """Diagonal unitary gluing the two dual charts on nonvanishing z."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if np.any(np.abs(z) == 0.0):
        raise ChartError("gauge between charts needs all z components nonzero")
    half = np.conj(z) / np.abs(z)
    return np.diag(np.concatenate([half, half]))


def make_dual_system(n, c):
    """HamiltonianSystem for the dual flow on (lam, theta) coordinates.

    Positions are lam, momenta the angles theta; the gradient is left to
    central differences because the product form differentiates messily.
    """

    def H(point):
        return dual_hamiltonian(DualPoint(point.q, point.p), c)

    def inside(point):
        lam = point.q
        if np.any(np.diff(lam) >= 0) or lam[-1] <= c.nu:
            return False
        return bool(np.all(-np.diff(lam) > 2 * c.mu))

    def margin(point):
        lam = point.q
        vals = [lam[-1] - c.nu]
        if n > 1:
            vals.append(float(np.min(-np.diff(lam) - 2 * c.mu)))
        return float(min(vals))

    return HamiltonianSystem(
        dim=n,
        hamiltonian=H,
        domain_check=inside,
        boundary_margin=margin,
        name=f"sutherland-bc-dual(n={n})",
    )


# ---------------------------------------------------------------------------
# direct-side equilibrium and the position part of the duality map


def dual_action_jacobian(q):
    """Sine matrix of the alcove-position map and its determinant.

    X[a, b] = (-1)^(a+1) * 2 * sin(2*(a+1)... rows are indexed from 1, so
    X_{a,b} = (-1)^(a+1) * 2 * sin(2*a*q_b).  The determinant factors into
    sin(2 q_b) terms and pairwise cos(2 q) differences, hence never
    vanishes on the open alcove; tests pin the closed form.
    """
    q = _vec(q, "q")
    if q[-1] <= 0 or q[0] >= np.pi / 2 or np.any(np.diff(q) >= 0):
        raise DomainError("q must lie in the open alcove")
    n = q.size
    rows = np.arange(1, n + 1)[:, None]
    X = (-1.0) ** (rows + 1) * 2.0 * np.sin(2.0 * rows * q[None, :])
    return X, float(np.linalg.det(X))


# ---------------------------------------------------------------------------
# rational deformed family on the plain positive chamber


def _check_family_point(lam, theta):
    lam = _vec(lam, "lam")
    theta = _vec(theta, "theta")
    if lam.shape != theta.shape:
        raise DomainError("lam and theta must have matching shapes")
    if np.any(np.diff(lam) >= 0) or lam[-1] <= 0:
        raise DomainError("lam must be strictly decreasing and positive")
    return lam, theta


def family_lax(lam, theta, c):
    """Hermitian first-order matrix of the rational deformed system.

    Satisfies C L C = L^(-1) and det L = 1, which makes the coefficients
    of its characteristic polynomial palindromic.
    """
    lam, theta = _check_family_point(lam, theta)
    mu, nu, kap = c.mu, c.nu, c.kappa
    n = lam.size
    z = np.zeros(n, dtype=complex)
    for l in range(n):
        val = -(1 + 1j * nu / lam[l])
        for m in range(n):
            if m != l:
                val *= 1 + 1j * mu / (lam[l] - lam[m])
                val *= 1 + 1j * mu / (lam[l] + lam[m])
        z[l] = val
    F = np.zeros(2 * n, dtype=complex)
    F[:n] = np.exp(-theta / 2) * np.sqrt(np.abs(z))
    F[n:] = np.conj(z) / F[:n]
    big = np.concatenate([lam, -lam])
    num = 1j * mu * np.outer(F, np.conj(F)) + 1j * (mu - 2 * nu) * _half_swap(n)
    A = num / (1j * mu + big[:, None] - big[None, :])
    root = np.sqrt(lam + np.sqrt(lam**2 + kap**2))
    aval = np.diag(root / np.sqrt(2 * lam))
    bval = np.diag(kap / (np.sqrt(2 * lam) * root))
    hinv = np.block([[aval, -1j * bval], [1j * bval, aval]])  # C h C
    return hinv @ A @ hinv


@dataclass(frozen=True)
class FamilyTable:
    """Values of the two rational commuting families at one phase point."""

    subset_values: np.ndarray  # subset-sum family, orders 0..n
    energy: float  # explicit square-root form; subset_values[1] = 2*(energy - n)
    char_coefficients: np.ndarray  # characteristic coefficients K_0..K_2n


def family_eval(lam, theta, c):
    """Evaluate both commuting families of the rational deformed system.

    The subset-sum values are read off the characteristic coefficients
    through the integer map family_matrices(n).subset_from_char.
    """
    lam, theta = _check_family_point(lam, theta)
    n = lam.size
    coeffs = char_poly(family_lax(lam, theta, c)).coefficients.real.astype(float)
    signs = (-1.0) ** np.arange(n + 1)
    subset = signs * (family_matrices(n).subset_from_char @ coeffs[: n + 1])
    mu, nu, kap = c.mu, c.nu, c.kappa
    total = 0.0
    for j in range(n):
        term = np.cosh(theta[j])
        term *= np.sqrt(1 + nu**2 / lam[j] ** 2) * np.sqrt(1 + kap**2 / lam[j] ** 2)
        for k in range(n):
            if k != j:
                term *= np.sqrt(1 + mu**2 / (lam[j] - lam[k]) ** 2)
                term *= np.sqrt(1 + mu**2 / (lam[j] + lam[k]) ** 2)
        total += term
    ratio = nu * kap / mu**2
    energy = total + ratio * float(np.prod(1 + mu**2 / lam**2)) - ratio
    return FamilyTable(
        subset_values=subset,
        energy=float(energy),
        char_coefficients=coeffs,
    )


# ---------------------------------------------------------------------------
# asymptotic (position-only) family forms and the integer maps between them


@dataclass(frozen=True)
class FamilyMatrices:
    """Integer triangular matrices linking the asymptotic families.

    to_subset and to_char expand each family over the plain subset-cosh
    sums; subset_from_char and char_from_subset translate directly
    between the families (alternating signs worked in), and are mutually
    inverse in exact integer arithmetic.
    """

    to_subset: np.ndarray
    to_char: np.ndarray
    subset_from_char: np.ndarray
    char_from_subset: np.ndarray


def family_matrices(n):
    if n < 1:
        raise DomainError("need n >= 1")
    size = n + 1
    to_subset = np.zeros((size, size), dtype=np.int64)
    to_char = np.zeros((size, size), dtype=np.int64)
    subset_from_char = np.zeros((size, size), dtype=np.int64)
    char_from_subset = np.zeros((size, size), dtype=np.int64)
    for l in range(size):
        for k in range(l + 1):
            to_subset[l, k] = (-2) ** (l - k) * comb(n - k, l - k)
    for m in range(size):
        for a in range(m // 2 + 1):
            to_char[m, m - 2 * a] = (-1) ** m * comb(n - (m - 2 * a), a)
    for l in range(size):
        for m in range(l + 1):
            top = 2 * n - l - m
            step = l - m
            # (top + step)/top * C(top, step), an integer by Pascal splitting
            entry = comb(top, step)
            if step >= 1:
                entry += comb(top - 1, step - 1)
            subset_from_char[l, m] = entry
    for m in range(size):
        for l in range(m + 1):
            char_from_subset[m, l] = comb(2 * (n - l), m - l)
    return FamilyMatrices(to_subset, to_char, subset_from_char, char_from_subset)


def _subset_cosh(q, k):
    """Plain sign-symmetrized cosh sum over k-element subsets."""
    if k == 0:
        return 1.0
    total = 0.0
    for sub in combinations(range(q.size), k):
        for eps in product((1.0, -1.0), repeat=k):
            total += np.cosh(sum(e * q[i] for i, e in zip(sub, eps)))
    return total


def _elementary_symmetric(vals, k):
    acc = np.zeros(k + 1)
    acc[0] = 1.0
    for v in vals:
        for j in range(k, 0, -1):
            acc[j] += v * acc[j - 1]
    return acc[k]


@dataclass(frozen=True)
class FamilyRelation:
    """Asymptotic family values at q together with the translation residuals."""

    subset_values: np.ndarray
    char_values: np.ndarray
    cosh_values: np.ndarray
    residual_direct: float
    residual_inverse: float
    residual_symmetric: float


def family_relation(q, n=None):
    """Position-only forms of both families and the residuals of their links.

    residual_direct measures the subset family against the integer map of
    the char family, residual_inverse the other direction, and
    residual_symmetric the subset family against the scaled elementary
    symmetric polynomials in sinh^2(q/2).
    """
    q = _vec(q, "q")
    if n is None:
        n = q.size
    elif n != q.size:
        raise DomainError("n must match len(q)")
    mats = family_matrices(n)
    cosh_vals = np.array([_subset_cosh(q, k) for k in range(n + 1)])
    subset_vals = mats.to_subset @ cosh_vals
    char_vals = mats.to_char @ cosh_vals
    signs = (-1.0) ** np.arange(n + 1)
    residual_direct = float(
        np.max(np.abs(signs * subset_vals - mats.subset_from_char @ char_vals))
    )
    residual_inverse = float(
        np.max(np.abs(signs * char_vals - mats.char_from_subset @ subset_vals))
    )
    sh = np.sinh(q / 2) ** 2
    elem = np.array(
        [4.0**el * _elementary_symmetric(sh, el) for el in range(n + 1)]
    )
    residual_symmetric = float(np.max(np.abs(subset_vals - elem)))
    return FamilyRelation(
        subset_values=subset_vals,
        char_values=char_vals,
        cosh_values=cosh_vals,
        residual_direct=residual_direct,
        residual_inverse=residual_inverse,
        residual_symmetric=residual_symmetric,
    )
