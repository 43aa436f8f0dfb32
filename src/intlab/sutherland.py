"""Trigonometric BC_n Sutherland system and its rational dual.

The direct side lives on the alcove pi/2 > q_1 > ... > q_n > 0 with a
three-coupling trigonometric potential.  The dual side is a rational
system of Ruijsenaars type whose positions fill the shifted chamber
lam_a - lam_{a+1} > 2*mu, lam_n > nu; its angles are genuine angles.

The direct potential is a weighted sum of sin^-2 over the fixed linear
arguments q_j - q_k, q_j + q_k (j < k), q_j and 2 q_j: the rows of the
constant stencil T of `linalg._stencil`, with weights
w = (gamma per pair row, gamma1, gamma2).  `dynamics.pair_system` builds
its flow and states the gradient's chain rule through T, and the
first-order matrix lax_Y reads its pair entries off the same sines.

Chart conventions for the dual side:

  * the local chart is (lam, theta) on the open chamber;
  * the global chart is z in C^n, with |z_j|^2 the slack of the j-th
    chamber inequality (`_chamber_slack`) and the phases of z carrying
    the angles.

Each domain's inequalities are written once, as a slack vector with one
entry per inequality: a point is inside when every entry is positive,
and the smallest entry is its boundary margin.

One routine writes the unitary dual matrix, in the global chart, which
covers all of C^n, including z = 0, where the chamber inequalities
saturate and the local chart dies; the local-chart matrix is its gauge
by the diagonal unitary `chart_gauge`.  It is a Cauchy matrix, a
rank-one numerator over X - 2*mu with X_ab = x_a - x_b the gaps of
x = (lam, -lam), and the same gaps give its chart weights and the pair
factors of the product-form energy.  Three sets of entries are written
in place: those beside the diagonal of the square blocks, 0/0 where a
gap saturates; the corner, 0/0 at lam_n = mu; and the diagonals of the
off-diagonal blocks, which carry the (mu - nu) boundary terms.  The
0/0 denominators are masked to inf before the division, so a saturated
gap divides nothing by zero.  The commuting invariants of the direct
side, transported to the dual side, are symmetric functions of lam(z)
alone, so they only see the moduli |z_j|; the dual energy, by
contrast, sees the phases as well.

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

from .dynamics import HamiltonianSystem, _vec, pair_energy, pair_system
from .errors import ChartError, DomainError, RangeError
from .linalg import _stencil


def _cauchy_gaps(lam, rows=None):
    """x_a - x_b for x = (lam, -lam), its top `rows` rows only if given; one rounding each."""
    x = np.concatenate([lam, -lam])
    return x[:rows, None] - x


@lru_cache(maxsize=None)
def _cauchy_masks(n):
    """Flat indices into 2n x 2n matrices; cached per n, so read-only.

    selves: the block diagonals (a, a), (a, n+a), (n+a, n+a), (n+a, a); the
    first 2n lie in the top rows and index an n x 2n slice too.  gaps:
    (a, a+1) and (n+a+1, n+a), a < n - 1, where X - 2*mu is the a-th slack.
    """
    a, e, m = np.arange(n), np.arange(n - 1), 2 * n
    selves = np.concatenate([a * (m + 1), a * (m + 1) + n, (a + n) * (m + 1), (a + n) * m + a])
    gaps = np.concatenate([e * (m + 1) + 1, (e + n + 1) * m + n + e])
    selves.flags.writeable = gaps.flags.writeable = False
    return selves, gaps


def _power_sums(lam2):
    """Trace family sum_j lam2_j^k / (2k), k = 1..n, of squared dual positions."""
    k = np.arange(1, lam2.size + 1)
    return (lam2[None, :] ** k[:, None]).sum(axis=1) / (2 * k)


def _zvec(z):
    """Complex twin of dynamics._vec for global-chart points."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise DomainError("z must be a non-empty 1-D complex vector")
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    return z


def _chamber_slack(x, gap, floor):
    """Slack of the chamber x_j - x_(j+1) > gap (j < n), x_n > floor.

    The dual chamber is (gap, floor) = (2*mu, nu), and there the slack is
    |z|^2 of the global chart; lambda_of_z is its inverse.  The plain
    positive chamber of the rational family is (0, 0).
    """
    return np.concatenate([x[:-1] - x[1:] - gap, [x[-1] - floor]])


def _alcove_margin(q):
    """Smallest slack of the alcove pi/2 > q_1 > ... > q_n > 0."""
    return float(np.concatenate([[np.pi / 2 - q[0]], _chamber_slack(q, 0.0, 0.0)]).min())


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
        # implied by the window above unless a square underflows; the cone
        # 4*gamma1 + gamma2 is written as (nu + kappa)^2 / 2, since its sum
        # form cancels to 0 for kappa within 2e-14 of -nu
        if self.gamma2 <= 0 or (self.nu + self.kappa) ** 2 / 2 <= 0:
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
        if not _alcove_margin(q) > 0:
            raise DomainError("q must satisfy pi/2 > q_1 > ... > q_n > 0")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self):
        return self.q.size


@dataclass(frozen=True)
class DualPoint:
    """Dual-side point (lam, theta) in the local chart.

    The dual chamber depends on the couplings, so the operations check
    it; construction only enforces shape and the plain positive chamber
    lam_1 > ... > lam_n > 0 (`_chamber_slack` at (0, 0)), which is all
    the rational deformed family asks of its (lam, theta).
    """

    lam: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        lam = _vec(self.lam, "lam")
        theta = _vec(self.theta, "theta")
        if lam.shape != theta.shape:
            raise DomainError("lam and theta must have matching shapes")
        if not _chamber_slack(lam, 0.0, 0.0).min() > 0:
            raise DomainError("lam must be strictly decreasing and positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self):
        return self.lam.size

    @classmethod
    def from_global(cls, z, c):
        """Lift a global-chart point; requires every component nonzero."""
        z = _zvec(z)
        if np.any(np.abs(z) == 0.0):
            raise ChartError("the angle chart needs all z components nonzero")
        return cls(lambda_of_z(z, c), np.diff(np.angle(z), prepend=0.0))


def _require_chamber(lam, c):
    """Dual-chamber slack of lam; DomainError unless every entry is positive."""
    slack = _chamber_slack(lam, 2 * c.mu, c.nu)
    if not slack.min() > 0:
        raise DomainError(
            "lam outside the open dual chamber (gaps > 2*mu, lam_n > nu)"
        )
    return slack


# ---------------------------------------------------------------------------
# direct side


def _weights(n, c):
    """Weights w of the potential w . sin^-2(T q), T = _stencil(n).

    gamma on the pair rows q_j -+ q_k, then gamma1 on q and gamma2 on 2q.
    """
    return np.repeat([c.gamma, c.gamma1, c.gamma2], [n * (n - 1), n, n])


def sutherland_H(x, c):
    """Kinetic energy plus the three-coupling trigonometric potential."""
    return pair_energy(x.q, x.p, _stencil(x.n), _weights(x.n, c), np.sin)


def lax_Y(x, c):
    """First-order matrix of the direct flow and its commuting trace family.

    Returns (Y, H) with Y the 2n x 2n anti-Hermitian matrix and
    H[k-1] = tr((-iY)^(2k)) / (4k) for k = 1..n.  The spectrum of (-iY)^2
    holds each squared dual position lam_j^2 twice, so H is the power sum
    of transported_family; squaring before the power halves the rounding
    it amplifies.  Odd trace powers of -iY vanish, and H[0] reproduces
    sutherland_H.
    """
    q, p, n = x.q, x.p, x.n
    T = _stencil(n)
    m = n * (n - 1) // 2
    s = np.sin(T @ q)
    # scatter the pair rows r = (j, k) into n x n blocks: add^T diag(v) diff
    # holds -v_r at (j, k) and v_r at (k, j), add^T diag(v) add holds v_r
    # at both; each off-diagonal entry is one exact product, and the
    # diagonals are overwritten
    diff, add = T[:m], T[m : 2 * m]
    a = (add.T * (c.mu / s[:m])) @ diff  # -mu / sin(q_j - q_k)
    b = (add.T * (c.mu / s[m : 2 * m])) @ add  # mu / sin(q_j + q_k)
    s2 = s[2 * m + n :]
    np.fill_diagonal(b, c.nu / s2 + c.kappa * np.cos(2 * q) / s2)
    Y = np.empty((2 * n, 2 * n), complex)
    Y[:n, :n], Y[:n, n:], Y[n:, :n], Y[n:, n:] = a, b, -b, -a
    e = np.arange(n)
    Y[e, e], Y[e + n, e + n] = 1j * p, -1j * p
    Y[e, e + n] -= 1j * c.kappa
    Y[e + n, e] -= 1j * c.kappa
    X = -1j * Y
    lam2 = np.linalg.eigvalsh(X @ X).reshape(n, 2).mean(axis=1)  # each lam_j^2 twice
    return Y, _power_sums(lam2)


def make_system(n, c):
    """`pair_system` with f = sin on the whole stencil and w = _weights(n, c)."""
    T = _stencil(n)
    return pair_system(T, _weights(n, c), _alcove_margin, f"sutherland-bc(n={n})", np.sin, np.cos)


# ---------------------------------------------------------------------------
# dual side: the block rotation and the product-form energy


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
    alpha, beta = root / np.sqrt(2 * lam), kappa / (np.sqrt(2 * lam) * root)
    h = np.zeros((2 * n, 2 * n), np.result_type(alpha, beta))
    h.flat[_cauchy_masks(n)[0]] = np.concatenate([alpha, beta, alpha, -beta])  # selves order
    return h


def _root(value):
    """Elementwise square root; every factor must be positive on its own."""
    if (value <= 0).any():
        raise DomainError("square-root factor lost positivity: lam left the chamber")
    return np.sqrt(value)


def _root_terms(lam, mu2, nu2, kap2):
    """Square-root product terms V_j of the product form, and the pair matrix.

    V_j = sqrt((1 - nu2/lam_j^2)(1 - kap2/lam_j^2))
    prod_{k != j} sqrt((1 - mu2/(lam_j - lam_k)^2)(1 - mu2/(lam_j + lam_k)^2)).
    Returns (V, x), x the top rows of the Cauchy gaps with self entries inf.
    """
    n = lam.size
    x = _cauchy_gaps(lam, n)
    x.flat[_cauchy_masks(n)[0][: 2 * n]] = np.inf
    pair = _root(1 - mu2 / x**2)
    lead = _root(1 - nu2 / lam**2) * _root(1 - kap2 / lam**2)
    return lead * (pair[:, :n] * pair[:, n:]).prod(axis=1), x


def _product_energy(lam, wave, mu2, nu2, kap2, nu_kap):
    """Square-root product form shared by the dual energy and the rational family.

    sum_j wave_j V_j with V_j the terms of `_root_terms`, plus
    const * (1 - prod_j (1 - mu2/lam_j^2)) with const = nu_kap/mu2.
    The dual energy takes (mu2, nu2, kap2, wave) = (4 mu^2, nu^2, kappa^2,
    cos theta); the rational family takes (-mu^2, -nu^2, -kappa^2,
    cosh theta), under which const turns from nu*kappa/(4 mu^2) into
    -nu*kappa/mu^2.
    """
    terms, _ = _root_terms(lam, mu2, nu2, kap2)
    total = float((wave * terms).sum())
    const = nu_kap / mu2
    return total - const * float((1 - mu2 / lam**2).prod()) + const


def _log_slope(x, a):
    """d/dx log sqrt(1 - a/x^2) = a / (x (x^2 - a)); 0 at x = inf."""
    return a / (x * (x * x - a))


def _dual_energy(lam, theta, c):
    _require_chamber(lam, c)
    return _product_energy(
        lam, np.cos(theta), 4 * c.mu**2, c.nu**2, c.kappa**2, c.nu * c.kappa
    )


def dual_hamiltonian(d, c):
    """Dual energy through the explicit square-root product form."""
    return _dual_energy(d.lam, d.theta, c)


def _dual_grad(lam, theta, c):
    """(dH/dlam, dH/dtheta) of the dual energy, by logarithmic derivatives.

    With V the product terms and T = cos(theta) V, every root factor
    sqrt(1 - a/x^2) contributes its log-slope a/(x(x^2 - a)) at x = lam_j,
    lam_j - lam_k or lam_j + lam_k.  For the pair matrices D and S of these
    slopes at the differences and sums (zero diagonals), D odd and S
    symmetric, both read off the top rows of the Cauchy gaps in one call,
      dH/dlam = T (slope_nu + slope_kappa + rowsum(D + S)) + (D + S) T
                - (nu kappa / 4 mu^2) prod_{k != j} (1 - 4 mu^2/lam_k^2) 8 mu^2/lam_j^3,
      dH/dtheta = -sin(theta) V.
    The last product leaves out lam_j's own factor instead of dividing it
    out, as that factor vanishes at lam_j = 2 mu, inside the chamber when
    nu < 2 mu.
    """
    _require_chamber(lam, c)
    n, mu2, nu2, kap2 = lam.size, 4 * c.mu**2, c.nu**2, c.kappa**2
    terms, x = _root_terms(lam, mu2, nu2, kap2)
    t = np.cos(theta) * terms
    pair = _log_slope(x, mu2)
    slope = pair[:, :n] + pair[:, n:]  # D + S
    lead = _log_slope(lam, nu2) + _log_slope(lam, kap2)
    dlam = t * (lead + slope.sum(axis=1)) + slope @ t
    others = np.tile(1 - mu2 / lam**2, (n, 1))
    np.fill_diagonal(others, 1.0)
    dlam -= c.nu * c.kappa * 2 * others.prod(axis=1) / lam**3
    return dlam, -np.sin(theta) * terms


# ---------------------------------------------------------------------------
# dual side: one dual matrix, built in the global chart and gauged to the local


def lambda_of_z(z, c):
    """Positions on the closed chamber: lam_k = nu + 2*mu*(n-k) + sum_{j>=k} |z_j|^2.

    The inverse of the dual-chamber slack: _chamber_slack(lam, 2*mu, nu)
    gives back |z|^2, up to rounding.
    """
    z = _zvec(z)
    mods = np.abs(z) ** 2
    n = z.size
    tails = np.cumsum(mods[::-1])[::-1]
    return c.nu + 2 * c.mu * (n - 1 - np.arange(n)) + tails


def _chart_g(X, lam, c):
    """The 2n positive square-root combinations smooth on the closed chamber.

    Each is a square-root product of chamber factors 1 - 2*mu/X over a row
    of the Cauchy gaps X, low weights from the top rows and high from the
    bottom.  The self entries, and the one gap factor per row that vanishes
    on the boundary and is divided out, are masked to factor 1.
    """
    n, nu = lam.size, c.nu
    masked = X.copy()
    masked.flat[np.concatenate(_cauchy_masks(n))] = np.inf
    f = 1 - 2 * c.mu / masked
    gaps = lam[:-1] - lam[1:]
    lead = np.concatenate([  # low, then high
        (1 - nu / lam[:-1]) / gaps, [1.0 / lam[-1], 1 + nu / lam[0]], (1 + nu / lam[1:]) / gaps
    ])
    return np.sqrt(lead * (f[:, :n] * f[:, n:]).prod(axis=1))


def _cancelled_corner(lam, mu, nu):
    """Corner entry with the lam_n = mu pole removed.

    The raw quotient [mu*|z_n g_n|^2 - (mu - nu)] / (mu - lam_n) is 0/0 at
    the crossing; expanding |z_n g_n|^2 factor by factor telescopes it
    into the series below, regular through lam_n = mu.
    """
    *rest, x = lam.tolist()  # Python floats: numpy scalar arithmetic is slower
    acc = 0.0
    run = 1.0
    for la in rest:
        acc += run / (x**2 - la**2)
        run *= ((x - 2 * mu) ** 2 - la**2) / (x**2 - la**2)
    return (4 * mu**2 * (x - nu) * acc - nu) / x


def _dual_matrix(lam, z, c):
    """The unitary dual matrix at global-chart z, with lam = lambda_of_z(z).

    A = -2*mu (u v^T) / (X - 2*mu) on the Cauchy gaps X, u = (lo, conj hi) and
    v = (hi, conj lo), with three sets of entries written in place: (a, a+1)
    and (n+a+1, n+a), where X - 2*mu = |z_a|^2 cancels to -2*mu*g_a*g_(n+a+1);
    the diagonals of the off-diagonal blocks, which gain (mu - nu)/(lam - mu)
    top right and -(mu - nu)/(lam + mu) bottom left; and the corner (n, 2n),
    by its cancelled form.  The quotients of the first and last set are 0/0
    where a gap saturates or lam_n = mu, so their denominators are set to inf
    before the division.
    """
    n = z.size
    mu, nu = c.mu, c.nu
    selves, gaps = _cauchy_masks(n)
    X = _cauchy_gaps(lam)
    g = _chart_g(X, lam, c)
    lo = np.conj(z) * g[:n]
    hi = np.concatenate([[1.0], z[:-1]]) * g[n:]  # z_(a-1) * g_(n+a), z_(-1) = 1
    u, v = np.concatenate([lo, np.conj(hi)]), np.concatenate([hi, np.conj(lo)])
    den, corner = X - 2 * mu, selves[2 * n - 1]
    den.flat[gaps] = den.flat[corner] = np.inf
    A = -2 * mu * (u[:, None] * v) / den
    cancelled = -2 * mu * g[: n - 1] * g[n + 1 :]
    A.flat[gaps] = np.concatenate([cancelled, cancelled])
    A.flat[selves[n : 2 * n - 1]] += (mu - nu) / (lam[:-1] - mu)
    A.flat[selves[3 * n :]] -= (mu - nu) / (lam + mu)
    A.flat[corner] = _cancelled_corner(lam, mu, nu)
    return A


@dataclass(frozen=True)
class DualGlobal:
    """Global-chart data: the positions lam(z) and the unitary dual matrix."""

    lam: np.ndarray
    lax: np.ndarray


def dual_lax_global(z, c):
    """Global-chart dual matrix, defined on all of C^n including z = 0.

    It stays smooth where chamber gaps saturate; the local-chart matrix
    of dual_lax_local is its gauge, and alcove_q reads the direct-side
    positions off its spectrum.
    """
    z = _zvec(z)
    lam = lambda_of_z(z, c)
    return DualGlobal(lam=lam, lax=_dual_matrix(lam, z, c))


def alcove_q(z, c):
    """Direct-side alcove positions encoded in the dual matrix at z.

    They are half the n largest eigenphases of -(h A h)^*, with A the
    global-chart matrix and h = dual_h_matrix(lam(z), kappa).  At z = 0
    they are the equilibrium configuration of the direct flow.
    """
    glob = dual_lax_global(z, c)
    h = dual_h_matrix(glob.lam, c.kappa)
    spun = h @ glob.lax @ h
    args = np.angle(np.linalg.eigvals(-spun.conj().T))
    return np.sort(args)[::-1][: glob.lam.size] / 2.0


def transported_family(z, c):
    """Commuting direct-side invariants read off on the global dual chart.

    The k-th value is sum_j lam_j(z)^(2k) / (2k), matching the k-th trace
    invariant of the direct flow.  Only the moduli |z_j| enter, so the
    whole family is blind to the phases that the dual energy sees.
    """
    return _power_sums(lambda_of_z(z, c) ** 2)


def chart_gauge(z):
    """Diagonal unitary gluing the two dual charts on nonvanishing z."""
    z = _zvec(z)
    if np.any(np.abs(z) == 0.0):
        raise ChartError("gauge between charts needs all z components nonzero")
    half = np.conj(z) / np.abs(z)
    return np.diag(np.concatenate([half, half]))


def dual_lax_local(d, c):
    """Unitary local-chart dual matrix and the energy read off its trace.

    The matrix is G* A G, with A the global-chart matrix at
    z_j = sqrt(slack_j) * e^(i*(theta_1 + ... + theta_j)), slack_j that
    of the j-th chamber inequality, and G = chart_gauge(z), the diagonal
    of the conjugate phases, taken twice.
    Returns (G* A G, value) with value = Re tr(h A h) / 2 for
    h = dual_h_matrix(lam, kappa), which agrees with dual_hamiltonian.
    In n x n blocks h^2 = lam^-1 [[d, kappa], [-kappa, d]] with
    d = sqrt(lam^2 - kappa^2), so the value needs only the diagonals of
    the four blocks, which the gauge leaves alone.
    """
    lam, n = d.lam, d.n
    phase = np.exp(1j * np.cumsum(d.theta))
    z = np.sqrt(_require_chamber(lam, c)) * phase
    gauge = np.concatenate([phase, phase])  # G = diag(conj(gauge))
    A = gauge[:, None] * _dual_matrix(lam, z, c) * np.conj(gauge)[None, :]
    tl, tr, br, bl = A.flat[_cauchy_masks(n)[0]].reshape(4, n)  # the block diagonals
    trace = (np.sqrt(lam**2 - c.kappa**2) * (tl + br) + c.kappa * (bl - tr)) / lam
    return A, 0.5 * float(trace.sum().real)


def make_dual_system(n, c):
    """HamiltonianSystem for the dual flow on (lam, theta) coordinates.

    Positions are lam, momenta the angles theta, the gradient is
    `_dual_grad`, and the boundary margin is the smallest chamber slack,
    min |z_j|^2 in the global chart.
    """
    gap = 2 * c.mu

    def H(point):
        return _dual_energy(point.q, point.p, c)

    def grad(point):
        return _dual_grad(point.q, point.p, c)

    def margin(point):
        return float(_chamber_slack(point.q, gap, c.nu).min())

    return HamiltonianSystem(
        dim=n,
        hamiltonian=H,
        grad=grad,
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
    if not _alcove_margin(q) > 0:
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
    return _family_lax(d.lam, d.theta, c)


def _family_lax(lam, theta, c):
    n = lam.size
    mu, nu = c.mu, c.nu
    X = _cauchy_gaps(lam)
    den = 1j * mu + X
    X.flat[_cauchy_masks(n)[0][: 2 * n]] = np.inf  # self factors are 1
    minus, plus = X[:n, :n], X[:n, n:]
    z = -(1 + 1j * nu / lam) * ((1 + 1j * mu / minus) * (1 + 1j * mu / plus)).prod(axis=1)
    f = np.exp(-theta / 2) * np.sqrt(np.abs(z))
    F = np.concatenate([f, np.conj(z) / f])
    half_swap = np.eye(2 * n, k=n) + np.eye(2 * n, k=-n)
    num = 1j * mu * (F[:, None] * np.conj(F)) + 1j * (mu - 2 * nu) * half_swap
    A = num / den
    hinv = dual_h_matrix(lam, -1j * c.kappa)  # C h C
    return hinv @ A @ hinv


@dataclass(frozen=True)
class FamilyTable:
    """Values of the two rational commuting families at one phase point."""

    subset_values: np.ndarray  # e_l((y - 1)^2 / y) over the eigenvalue pairs, l = 0..n
    energy: float  # independent product form; subset_values[1] = 2*(energy - n)
    char_coefficients: np.ndarray  # K_0..K_2n of the eigenvalue pairs, palindromic


def family_eval(lam, theta, c):
    """Evaluate both commuting families of the rational deformed system.

    family_lax is Hermitian positive definite with C L C = L^(-1), so its
    spectrum is n pairs (y, 1/y) and its n largest eigenvalues satisfy
    y >= 1, one from each pair.  The subset-sum values are the elementary
    symmetric polynomials e_l((y - 1)^2 / y) of these nonnegative numbers,
    so nothing cancels at any n; the characteristic coefficients are
    those of prod (x - y)(x - 1/y), palindromic by construction.
    """
    d = DualPoint(lam, theta)
    lam, theta, n = d.lam, d.theta, d.n
    y = np.linalg.eigvalsh(_family_lax(lam, theta, c))[n:]
    # np.poly of the negated values lists e_0..e_n
    subset = np.poly(-((y - 1) ** 2) / y)
    coeffs = np.poly(np.concatenate([y, 1 / y]))
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


@lru_cache(maxsize=None)
def family_matrices(n):
    """The maps for n particles; cached per n, so the arrays are read-only."""
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
    for M in (to_subset, to_char, subset_from_char, char_from_subset):
        M.flags.writeable = False  # shared by every caller
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


def family_relation(q):
    """Position-only forms of both families and the residuals of their links.

    residual_direct measures the subset family against the integer map of
    the char family, residual_inverse the other direction, and
    residual_symmetric the subset family against the scaled elementary
    symmetric polynomials in sinh^2(q/2).
    """
    q = _vec(q, "q")
    n = q.size
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
