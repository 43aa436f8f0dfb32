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
from functools import lru_cache
from math import comb

import numpy as np

from .dynamics import HamiltonianSystem
from .errors import ChartError, DomainError, RangeError, RegularityError
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


def _pairs(x, diagonal=None):
    """Pair matrices x_j - x_k and x_j + x_k, diagonals set to `diagonal` if given."""
    d = x[:, None] - x[None, :]
    s = x[:, None] + x[None, :]
    if diagonal is not None:
        np.fill_diagonal(d, diagonal)
        np.fill_diagonal(s, diagonal)
    return d, s


@lru_cache(maxsize=None)
def _upper(n):
    """Index pairs j < k; cached, as np.triu_indices costs more than the sums."""
    j, k = np.triu_indices(n, 1)
    j.flags.writeable = k.flags.writeable = False  # shared by every caller
    return j, k


def _in_alcove(q):
    return bool(q[-1] > 0 and q[0] < np.pi / 2 and (q[1:] < q[:-1]).all())


def _in_chamber(lam, c):
    return bool(lam[-1] > c.nu and (lam[:-1] - lam[1:] > 2 * c.mu).all())


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
        if not _in_alcove(q):
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
    it; construction only enforces ordering, positivity and shape, which
    is all the rational deformed family asks of its (lam, theta).
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
    if not _in_chamber(lam, c):
        raise DomainError(
            "lam outside the open dual chamber (gaps > 2*mu, lam_n > nu)"
        )


def _require_strongly_regular(lam, c):
    """Margins for every denominator the weight formulas divide by."""
    edge = abs(2 * c.mu - c.nu)
    near = (np.abs(lam - c.nu) <= _REG_MARGIN) | (np.abs(lam - edge) <= _REG_MARGIN)
    if np.any(near):
        raise RegularityError(f"lam[{np.argmax(near)}] too close to a coupling threshold")
    a, b = _upper(lam.size)
    near = np.abs(np.abs([lam[a] - lam[b], lam[a] + lam[b]]) - 2 * c.mu) <= _REG_MARGIN
    if np.any(near):
        k = np.argmax(near.any(axis=0))
        raise RegularityError(f"|lam[{a[k]}] +/- lam[{b[k]}]| within margin of 2*mu")


# ---------------------------------------------------------------------------
# direct side


def _cos_over_sin3(x):
    sn = np.sin(x)
    return np.cos(x) / (sn * sn * sn)  # sn**3 takes numpy's slow general power


def _energy(q, p, c):
    j, k = _upper(q.size)
    pair = c.gamma / np.sin(q[j] - q[k]) ** 2 + c.gamma / np.sin(q[j] + q[k]) ** 2
    value = 0.5 * float(p @ p) + float(pair.sum())
    value += float((c.gamma1 / np.sin(q) ** 2).sum())
    value += float((c.gamma2 / np.sin(2 * q) ** 2).sum())
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
    d, s = _pairs(q, np.pi / 2)  # diagonals are overwritten below
    a = (-c.mu / np.sin(d)).astype(complex)
    np.fill_diagonal(a, 1j * p)
    b = c.mu / np.sin(s)
    s2 = np.sin(2 * q)
    np.fill_diagonal(b, c.nu / s2 + c.kappa * np.cos(2 * q) / s2)
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
        d, s = _pairs(q, np.pi / 2)
        pair = _cos_over_sin3(d) + _cos_over_sin3(s)
        np.fill_diagonal(pair, 0.0)  # cos(pi/2) is not exactly zero
        dq = -2 * c.gamma * pair.sum(axis=1)
        dq -= 2 * c.gamma1 * _cos_over_sin3(q)
        dq -= 4 * c.gamma2 * _cos_over_sin3(2 * q)
        return dq, np.array(point.p, dtype=float)

    def inside(point):
        return _in_alcove(point.q)

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

    An imaginary kappa = -i*k is the continuation to the rational deformed
    family: d_j = sqrt(lam_j^2 + k^2) and the result is the complex
    Hermitian block [[a, -i*b], [i*b, a]] that family_lax conjugates with.
    """
    lam = _vec(lam, "lam")
    n = lam.size
    if kappa == 0:
        return np.eye(2 * n)
    disc = lam**2 - kappa**2
    if np.any(lam <= 0) or np.any(disc.real < 0):
        raise DomainError("need lam_j > 0 and Re(lam_j^2 - kappa^2) >= 0 for the rotation")
    root = np.sqrt(lam + np.sqrt(disc))
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
    """Elementwise square root; every factor must be positive on its own."""
    if (value <= 0).any():
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
    minus, plus = _pairs(lam, np.inf)  # diagonal factors are 1
    low_m, low_p = 1 - 2 * mu / minus, 1 - 2 * mu / plus
    high_m, high_p = 1 + 2 * mu / minus, 1 + 2 * mu / plus
    f = np.concatenate([
        _root(1 - nu / lam) * (_root(low_m) * _root(low_p)).prod(axis=1),
        np.exp(1j * th) * _root(1 + nu / lam) * (_root(high_m) * _root(high_p)).prod(axis=1),
    ])
    # prod_b (lam_a^2 - lam_b^2) / ((lam_a -+ 2*mu)^2 - lam_b^2) is the
    # product of the same factors, inverted
    weights = 1.0 / np.concatenate([
        (low_m * low_p).prod(axis=1),
        (high_m * high_p).prod(axis=1),
    ])
    cf_plus = np.concatenate([(1 - nu / lam) / weights[:n], (1 + nu / lam) / weights[n:]])
    shift = (2 * mu - nu) / lam
    cf_minus = np.concatenate([(-1 + shift) / weights[:n], (-1 - shift) / weights[n:]])
    return DualState(f=f, weights=weights, cf_plus=cf_plus, cf_minus=cf_minus)


def _product_energy(lam, wave, mu2, nu2, kap2, nu_kap):
    """Square-root product form shared by the dual energy and the rational family.

    sum_j wave_j sqrt((1 - nu2/lam_j^2)(1 - kap2/lam_j^2))
    prod_{k != j} sqrt((1 - mu2/(lam_j - lam_k)^2)(1 - mu2/(lam_j + lam_k)^2)),
    plus const * (1 - prod_j (1 - mu2/lam_j^2)) with const = nu_kap/mu2.
    The dual energy takes (mu2, nu2, kap2, wave) = (4 mu^2, nu^2, kappa^2,
    cos theta); the rational family takes (-mu^2, -nu^2, -kappa^2,
    cosh theta), under which const turns from nu*kappa/(4 mu^2) into
    -nu*kappa/mu^2.
    """
    minus, plus = _pairs(lam, np.inf)  # diagonal factors are 1
    pair = _root(1 - mu2 / minus**2) * _root(1 - mu2 / plus**2)
    terms = wave * _root(1 - nu2 / lam**2) * _root(1 - kap2 / lam**2)
    total = float((terms * pair.prod(axis=1)).sum())
    const = nu_kap / mu2
    return total - const * float((1 - mu2 / lam**2).prod()) + const


def _dual_energy(lam, theta, c):
    _require_chamber(lam, c)
    return _product_energy(
        lam, np.cos(theta), 4 * c.mu**2, c.nu**2, c.kappa**2, c.nu * c.kappa
    )


def dual_hamiltonian(d, c):
    """Dual energy through the explicit square-root product form."""
    return _dual_energy(d.lam, d.theta, c)


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
    mu, nu = c.mu, c.nu
    d, s = _pairs(lam, np.inf)  # diagonal factors are 1
    low, high = 1 - 2 * mu / d, 1 + 2 * mu / d
    e = np.arange(lam.size - 1)
    low[e, e + 1] = high[e + 1, e] = 1.0  # the gap factor divided out
    gaps = -np.diff(lam)
    lead_low = np.append((1 - nu / lam[:-1]) / gaps, 1.0 / lam[-1])
    lead_high = np.insert((1 + nu / lam[1:]) / gaps, 0, 1 + nu / lam[0])
    return np.sqrt(np.concatenate([
        lead_low * (low * (1 - 2 * mu / s)).prod(axis=1),
        lead_high * (high * (1 + 2 * mu / s)).prod(axis=1),
    ]))


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
    lo = np.conj(z) * g[:n]
    hi = np.concatenate([[1.0], z[:-1]]) * g[n:]  # z_(a-1) * g_(n+a), z_(-1) = 1
    d, s = _pairs(lam)
    # b = a + 1 (top left) and b = a - 1 (bottom right) are 0/0 where a
    # chamber gap saturates; |z_a|^2 cancels and the entry is -2*mu*g*g.
    e = np.arange(n - 1)
    tl_den, br_den = d - 2 * mu, d + 2 * mu
    tl_den[e, e + 1] = br_den[e + 1, e] = np.inf
    tl = -2 * mu * np.outer(lo, hi) / tl_den
    br = 2 * mu * np.outer(np.conj(hi), np.conj(lo)) / br_den
    tl[e, e + 1] = br[e + 1, e] = -2 * mu * g[e] * g[n + e + 1]
    corner = abs(lam[-1] - mu) < _CANCEL_SWITCH
    tr_den, shift = s - 2 * mu, lam - mu
    if corner:
        tr_den[-1, -1] = shift[-1] = np.inf  # entry rewritten below
    tr = -2 * mu * np.outer(lo, np.conj(lo)) / tr_den + np.diag((mu - nu) / shift)
    if corner:
        tr[-1, -1] = _cancelled_corner(lam, mu, nu)
    bl = 2 * mu * np.outer(np.conj(hi), hi) / (s + 2 * mu) - np.diag((mu - nu) / (lam + mu))
    A = np.block([[tl, tr], [bl, br]])
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
        return _dual_energy(point.q, point.p, c)

    def inside(point):
        return _in_chamber(point.q, c)

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

    With rows a and columns b both indexed from 1,
    X_{a,b} = (-1)^(a+1) * 2 * sin(2*a*q_b).  The determinant factors into
    sin(2 q_b) terms and pairwise cos(2 q) differences, hence never
    vanishes on the open alcove; tests pin the closed form.
    """
    q = _vec(q, "q")
    if not _in_alcove(q):
        raise DomainError("q must lie in the open alcove")
    n = q.size
    rows = np.arange(1, n + 1)[:, None]
    X = (-1.0) ** (rows + 1) * 2.0 * np.sin(2.0 * rows * q[None, :])
    return X, float(np.linalg.det(X))


# ---------------------------------------------------------------------------
# rational deformed family on the plain positive chamber


def family_lax(lam, theta, c):
    """Hermitian first-order matrix of the rational deformed system.

    Satisfies C L C = L^(-1) and det L = 1, which makes the coefficients
    of its characteristic polynomial palindromic.
    """
    d = DualPoint(lam, theta)
    lam, theta, n = d.lam, d.theta, d.n
    mu, nu = c.mu, c.nu
    minus, plus = _pairs(lam, np.inf)  # diagonal factors are 1
    z = -(1 + 1j * nu / lam) * ((1 + 1j * mu / minus) * (1 + 1j * mu / plus)).prod(axis=1)
    F = np.zeros(2 * n, dtype=complex)
    F[:n] = np.exp(-theta / 2) * np.sqrt(np.abs(z))
    F[n:] = np.conj(z) / F[:n]
    big = np.concatenate([lam, -lam])
    num = 1j * mu * np.outer(F, np.conj(F)) + 1j * (mu - 2 * nu) * _half_swap(n)
    A = num / (1j * mu + big[:, None] - big[None, :])
    hinv = dual_h_matrix(lam, -1j * c.kappa)  # C h C
    return hinv @ A @ hinv


@dataclass(frozen=True)
class FamilyTable:
    """Values of the two rational commuting families at one phase point."""

    subset_values: np.ndarray  # subset-sum family, orders 0..n
    energy: float  # square-root product form; subset_values[1] = 2*(energy - n)
    char_coefficients: np.ndarray  # characteristic coefficients K_0..K_2n


def family_eval(lam, theta, c):
    """Evaluate both commuting families of the rational deformed system.

    The subset-sum values are read off the characteristic coefficients
    through the integer map family_matrices(n).subset_from_char.
    """
    d = DualPoint(lam, theta)
    lam, theta, n = d.lam, d.theta, d.n
    coeffs = char_poly(family_lax(lam, theta, c)).coefficients.real.astype(float)
    signs = (-1.0) ** np.arange(n + 1)
    subset = signs * (family_matrices(n).subset_from_char @ coeffs[: n + 1])
    energy = _product_energy(
        lam, np.cosh(theta), -c.mu**2, -c.nu**2, -c.kappa**2, c.nu * c.kappa
    )
    return FamilyTable(subset_values=subset, energy=energy, char_coefficients=coeffs)


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
    # the largest entry is char_from_subset[n, 0] = C(2n, n)
    limit = np.iinfo(np.int64).max
    if comb(2 * n, n) > limit:
        raise RangeError(f"n = {n}: C(2n, n) exceeds the int64 limit {limit}")
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
    orders = np.arange(n + 1)
    # the cosh sum over k-subsets and signs is 2^k e_k(cosh q), and np.poly
    # of the negated values lists e_0..e_n
    cosh_vals = 2.0**orders * np.poly(-np.cosh(q))
    subset_vals = mats.to_subset @ cosh_vals
    char_vals = mats.to_char @ cosh_vals
    signs = (-1.0) ** orders
    residual_direct = float(
        np.max(np.abs(signs * subset_vals - mats.subset_from_char @ char_vals))
    )
    residual_inverse = float(
        np.max(np.abs(signs * char_vals - mats.char_from_subset @ subset_vals))
    )
    elem = 4.0**orders * np.poly(-np.sinh(q / 2) ** 2)
    residual_symmetric = float(np.max(np.abs(subset_vals - elem)))
    return FamilyRelation(
        subset_values=subset_vals,
        char_values=char_vals,
        cosh_values=cosh_vals,
        residual_direct=residual_direct,
        residual_inverse=residual_inverse,
        residual_symmetric=residual_symmetric,
    )
