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
first-order matrix lax_Y reads its pair entries off the Cauchy gaps of
(q, -q), on the layout that every 2n x 2n matrix here shares.

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
by the phases of z, taken twice.  It is a Cauchy matrix, a
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

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .dynamics import HamiltonianSystem, _count, _finite, _in_range, _pair, _pair_energy
from .dynamics import _vec, pair_system
from .errors import ChartError, DomainError, RangeError
from .linalg import _stencil


def _cauchy_gaps(lam, rows=None):
    """x_a - x_b for x = (lam, -lam) over the last axis of lam, its top `rows` rows
    only if given; one rounding each."""
    x = np.concatenate([lam, -lam], axis=-1)
    return x[..., :rows, None] - x[..., None, :]


_Layout = namedtuple("_Layout", "selves gaps chart ends eye")


@lru_cache(maxsize=None)
def _cauchy_masks(n):
    """Flat indices into every 2n x 2n matrix here; cached per n, so read-only.

    selves: the block diagonals (a, a), (a, n+a), (n+a, n+a), (n+a, a); the
    first 2n lie in the top rows and index an n x 2n slice too.  gaps:
    (a, a+1) and (n+a+1, n+a), a < n - 1, where X - 2*mu is the a-th slack.
    chart: selves then gaps, the factors _chart_g leaves out.  ends: the
    (mu - nu) entries of the dual matrix, selves[n:2n-1] then selves[3n:].
    eye: the n x n boolean identity.
    """
    a, e, m = np.arange(n), np.arange(n - 1), 2 * n
    selves = np.concatenate([a * (m + 1), a * (m + 1) + n, (a + n) * (m + 1), (a + n) * m + a])
    gaps = np.concatenate([e * (m + 1) + 1, (e + n + 1) * m + n + e])
    ends = np.concatenate([selves[n : 2 * n - 1], selves[3 * n :]])
    layout = _Layout(selves, gaps, np.concatenate([selves, gaps]), ends, np.eye(n, dtype=bool))
    for idx in layout:
        idx.flags.writeable = False
    return layout


def _power_sums(lam2):
    """Trace family sum_j lam2_j^k / (2k), k = 1..n, of lam2 = lam^2; RangeError on overflow."""
    k = np.arange(1, lam2.size + 1)
    with np.errstate(over="ignore"):
        sums = (lam2[None, :] ** k[:, None]).sum(axis=1) / (2 * k)
    return _in_range(sums, "power sums of lam^2 overflow")


def _chamber_slack(x, gap, floor):
    """Slack of the chamber x_j - x_(j+1) > gap (j < n), x_n > floor, over the
    last axis of x.

    The dual chamber is (gap, floor) = (2*mu, nu), and there the slack is
    |z|^2 of the global chart; lambda_of_z is its inverse.  The plain
    positive chamber of the rational family is (0, 0).  Written in place,
    it rounds as [x[:-1] - x[1:] - gap, x[-1] - floor]; a nan stays a nan.
    """
    slack = np.empty(x.shape)
    head = np.subtract(x[..., :-1], x[..., 1:], out=slack[..., :-1])
    np.subtract(head, gap, out=head)
    slack[..., -1] = x[..., -1] - floor
    return slack


def _alcove_margin(q):
    """Smallest slack of the alcove pi/2 > q_1 > ... > q_n > 0 over the last axis
    of q; nan if q has one.  The slacks are the gaps of (pi/2, q, 0)."""
    walls = np.empty(q.shape[:-1] + (q.shape[-1] + 2,))
    walls[..., 0], walls[..., 1:-1], walls[..., -1] = np.pi / 2, q, 0.0
    return (walls[..., :-1] - walls[..., 1:]).min(axis=-1)


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
            object.__setattr__(self, label, _finite(float(getattr(self, label)), label))
        if self.mu <= 0:
            raise DomainError("mu must be positive")
        if self.nu <= abs(self.kappa):
            raise DomainError("need nu > |kappa| >= 0")
        # Python float squares overflow to inf without a warning; the cone gamma2,
        # 4*gamma1 + gamma2 = (nu + kappa)^2 / 2 > 0 (its sum form cancels to 0 for
        # kappa within 2e-14 of -nu) follows from the window unless one underflows
        squares = [v * v for v in (self.mu, self.nu - self.kappa, self.nu + self.kappa)]
        if not min(_in_range(squares, "coupling squares overflow")[1:]) / 2 > 0:
            raise DomainError("potential couplings left their admissible cone")
        # the product-form energies divide nu*kappa by mu^2 (by 4 mu^2 on the dual side)
        ratio = self.nu * self.kappa / squares[0] if squares[0] > 0 else np.inf
        _in_range(ratio, "mu^2 underflows or nu*kappa/mu^2 overflows")

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
        q = _pair(self, ("q", "p"))
        if not _alcove_margin(q) > 0:
            raise DomainError("q must satisfy pi/2 > q_1 > ... > q_n > 0")

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
        lam = _pair(self, ("lam", "theta"))
        if not _chamber_slack(lam, 0.0, 0.0).min() > 0:
            raise DomainError("lam must be strictly decreasing and positive")

    @property
    def n(self):
        return self.lam.size


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
    return _pair_energy(x.q, x.p, _stencil(x.n), _weights(x.n, c), np.sin)


def lax_Y(x, c):
    """First-order matrix of the direct flow and its commuting trace family.

    Returns (Y, H) with Y the 2n x 2n anti-Hermitian matrix and
    H[k-1] = tr((-iY)^(2k)) / (4k) for k = 1..n.  The spectrum of (-iY)^2
    holds each squared dual position lam_j^2 twice, so H is the power sum
    of transported_family; squaring before the power halves the rounding
    it amplifies.  Odd trace powers of -iY vanish, and H[0] reproduces
    sutherland_H.  RangeError where (-iY)^2 overflows.
    """
    q, p, n = x.q, x.p, x.n
    selves = _cauchy_masks(n).selves
    s = np.sin(_cauchy_gaps(q, n))  # sin(q_j - q_k) | sin(q_j + q_k)
    s2 = s.take(selves[n : 2 * n])  # sin 2q_j
    s.put(selves[: 2 * n], np.inf)  # the block diagonals are written below
    Y = np.empty((2 * n, 2 * n), complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal sine overflows too
        a, b = -c.mu / s[:, :n], c.mu / s[:, n:]
        Y[:n, :n], Y[:n, n:], Y[n:, :n], Y[n:, n:] = a, b, -b, -a
        v = c.nu / s2 + c.kappa * np.cos(2 * q) / s2
        Y.put(selves, np.concatenate([1j * p, v - 1j * c.kappa, -1j * p, -v - 1j * c.kappa]))
        X = -1j * Y
        X2 = _in_range(X @ X, "(-iY)^2 overflows")
    lam2 = np.linalg.eigvalsh(X2).reshape(n, 2).mean(axis=1)  # each lam_j^2 twice
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
    if not lam.min() > 0:
        raise DomainError("need lam_j > 0")
    top = float(lam.max())  # a Python float: its square overflows to inf without a warning
    _in_range(top * top, "lam^2 overflows")
    try:  # as a Python scalar, kappa**2 raises OverflowError instead of returning inf
        disc = lam**2 - np.asarray(kappa).item() ** 2
    except OverflowError:
        _in_range(np.inf, "kappa^2 overflows")
    if not (disc.real >= 0).all():  # a nan kappa fails it
        raise DomainError("need finite kappa and Re(lam_j^2 - kappa^2) >= 0")
    if kappa == 0:
        alpha, beta = np.ones(n), np.zeros(n)
    else:
        root = np.sqrt(lam + np.sqrt(disc))
        alpha, beta = root / np.sqrt(2 * lam), kappa / (np.sqrt(2 * lam) * root)
    h = np.zeros((2 * n, 2 * n), np.result_type(alpha, beta))
    h.put(_cauchy_masks(n).selves, np.concatenate([alpha, beta, alpha, -beta]))  # selves order
    return h


def _root(value):
    """Elementwise square root; every factor must be positive on its own."""
    if value.min() <= 0:  # nan-free: 1 - a/x^2 over finite lam, or x = inf
        raise DomainError("square-root factor lost positivity: lam left the chamber")
    return np.sqrt(value)


def _root_terms(lam, mu2, lead2):
    """Square-root product terms V_j of the product form, and the squares behind them,
    over the last axis of lam.

    V_j = sqrt((1 - nu2/lam_j^2)(1 - kap2/lam_j^2))
    prod_{k != j} sqrt((1 - mu2/(lam_j - lam_k)^2)(1 - mu2/(lam_j + lam_k)^2)),
    with lead2 the pair [nu2, kap2], rooted as one stack on a new last axis.
    Returns (V, x, x^2, lam^2), x the top Cauchy-gap rows, self entries inf.
    """
    n = lam.shape[-1]
    x = _cauchy_gaps(lam, n)
    x.reshape(*x.shape[:-2], -1)[..., _cauchy_masks(n).selves[: 2 * n]] = np.inf
    x2, lam2 = x * x, lam * lam
    pair = _root(1 - mu2 / x2)
    lead = _root(1 - lead2 / lam2[..., None])
    return lead[..., 0] * lead[..., 1] * (pair[..., :n] * pair[..., n:]).prod(axis=-1), x, x2, lam2


def _product_energy(lam, wave, mu2, lead2, nu_kap):
    """Square-root product form shared by the dual energy and the rational family,
    over the last axis of lam and wave.

    sum_j wave_j V_j with V_j the terms of `_root_terms`, plus
    const * (1 - prod_j (1 - mu2/lam_j^2)) with const = nu_kap/mu2.
    The dual energy takes (mu2, lead2, wave) = (4 mu^2, [nu^2, kappa^2],
    cos theta); the rational family takes (-mu^2, [-nu^2, -kappa^2],
    cosh theta), under which const turns from nu*kappa/(4 mu^2) into
    -nu*kappa/mu^2.
    """
    terms, _, _, lam2 = _root_terms(lam, mu2, lead2)
    total = (wave * terms).sum(axis=-1)
    const = nu_kap / mu2
    return total - const * (1 - mu2 / lam2).prod(axis=-1) + const


def _require_dual(lam, c):
    """_require_chamber for the dual energy and gradient, over the last axis of lam, and
    their (mu2, lead2); RangeError where (2 lam_1)^3, which bounds every square and cube
    they form, overflows."""
    _require_chamber(lam, c)
    top = 2.0 * float(lam[..., 0].max())  # a Python float overflows to inf without a warning
    _in_range(top * top * top, "(2 lam_1)^3 overflows")
    return 4 * c.mu**2, np.array([c.nu**2, c.kappa**2])


def _dual_energy(lam, theta, c):
    return _product_energy(lam, np.cos(theta), *_require_dual(lam, c), c.nu * c.kappa)


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
    nu < 2 mu; row j of the leave-one-out matrix holds 1 on its diagonal.
    """
    (mu2, lead2), n = _require_dual(lam, c), lam.size
    terms, x, x2, lam2 = _root_terms(lam, mu2, lead2)
    t = np.cos(theta) * terms
    pair = mu2 / (x * (x2 - mu2))  # 0 at x = inf
    slope = pair[:, :n] + pair[:, n:]  # D + S
    slope_nu, slope_kap = lead2[:, None] / (lam * (lam2 - lead2[:, None]))
    dlam = t * (slope_nu + slope_kap + slope.sum(axis=1)) + slope.dot(t)
    others = np.where(_cauchy_masks(n).eye, 1.0, 1 - mu2 / lam2)
    dlam -= c.nu * c.kappa * 2 * others.prod(axis=1) / lam**3
    return dlam, -np.sin(theta) * terms


# ---------------------------------------------------------------------------
# dual side: one dual matrix, built in the global chart and gauged to the local


def lambda_of_z(z, c):
    """Positions on the closed chamber: lam_k = nu + 2*mu*(n-k) + sum_{j>=k} |z_j|^2.

    The inverse of the dual-chamber slack: _chamber_slack(lam, 2*mu, nu)
    gives back |z|^2, up to rounding.
    """
    return _lam_of_z(_vec(z, "z", complex), c)


def _lam_of_z(z, c):
    """lambda_of_z of a z that _vec has already checked; RangeError on overflow."""
    with np.errstate(over="ignore"):
        tails = np.cumsum((np.abs(z) ** 2)[::-1])[::-1]
    _in_range(tails[0], "|z|^2 overflows")  # the largest tail
    return c.nu + 2 * c.mu * np.arange(z.size - 1, -1, -1.0) + tails


def _chart_g(X, lam, c):
    """The 2n positive square-root combinations smooth on the closed chamber.

    Each is a square-root product of chamber factors 1 - 2*mu/X over a row
    of the Cauchy gaps X, low weights from the top rows and high from the
    bottom.  The self entries, and the one gap factor per row that vanishes
    on the boundary and is divided out, are masked to factor 1.  The
    factors overwrite X.
    """
    n = lam.size
    gaps = lam[:-1] - lam[1:]
    X.put(_cauchy_masks(n).chart, np.inf)
    f = np.subtract(1.0, np.divide(2 * c.mu, X, out=X), out=X)
    ratio = c.nu / lam
    lead = np.concatenate([1.0 - ratio, 1.0 + ratio])  # low, then high; 2n - 2 over gaps
    np.divide(lead[: n - 1], gaps, out=lead[: n - 1])
    np.divide(lead[n + 1 :], gaps, out=lead[n + 1 :])
    lead[n - 1] = 1.0 / lam[-1]
    lead *= (f[:, :n] * f[:, n:]).prod(axis=1)
    return np.sqrt(lead, out=lead)


def _cancelled_corner(lam, mu, nu):
    """Corner entry with the lam_n = mu pole removed.

    The raw quotient [mu*|z_n g_n|^2 - (mu - nu)] / (mu - lam_n) is 0/0 at
    the crossing; expanding |z_n g_n|^2 factor by factor telescopes it
    into the series below, regular through lam_n = mu.
    """
    *rest, x = lam.tolist()  # Python floats: numpy scalar arithmetic is slower
    acc = 0.0
    run = 1.0
    try:  # a Python float square raises OverflowError instead of returning inf
        for la in rest:
            acc += run / (x**2 - la**2)
            run *= ((x - 2 * mu) ** 2 - la**2) / (x**2 - la**2)
    except OverflowError:
        _in_range(np.inf, "corner series of the dual matrix overflows")
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
    before the division.  On the second set X - 2*mu is exactly 2*(lam - mu)
    and -2*(lam + mu), and its terms, negated, are subtracted, so that the
    imaginary parts keep their signed zeros.
    """
    n = z.size
    mu, nu = c.mu, c.nu
    layout = _cauchy_masks(n)
    X = _cauchy_gaps(lam)
    den = X - 2 * mu
    den.put(layout.gaps, np.inf)
    den[n - 1, -1] = np.inf  # the corner
    g = _chart_g(X, lam, c)
    uv = np.empty((2, 2 * n), complex)  # rows u = (lo, conj hi) and v = (hi, conj lo)
    lohi = uv[:, :n]
    np.conjugate(z, out=lohi[0])
    lohi[1, 0], lohi[1, 1:] = 1.0, z[:-1]  # z_(a-1) * g_(n+a), z_(-1) = 1
    np.multiply(lohi, g.reshape(2, n), out=lohi)
    np.conjugate(lohi[::-1], out=uv[:, n:])
    A = -2 * mu * (uv[0, :, None] * uv[1]) / den
    A.put(layout.gaps, -2 * mu * g[: n - 1] * g[n + 1 :])  # put repeats it for both sets
    A.put(layout.ends, A.take(layout.ends) - 2 * (nu - mu) / den.take(layout.ends))
    A[n - 1, -1] = _cancelled_corner(lam, mu, nu)
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
    z = _vec(z, "z", complex)
    lam = _lam_of_z(z, c)
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
    with np.errstate(over="ignore"):  # _power_sums raises RangeError on an inf square
        return _power_sums(lambda_of_z(z, c) ** 2)


def chart_gauge(z):
    """Diagonal unitary gluing the two dual charts on nonvanishing z."""
    z = _vec(z, "z", complex)
    mods = np.abs(z)
    if not mods.all():
        raise ChartError("gauge between charts needs all z components nonzero")
    G = np.zeros((2 * z.size, 2 * z.size), complex)
    G.flat[:: 2 * z.size + 1] = np.conj(z) / mods  # flat assignment repeats it: (half, half)
    return G


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
    A = _dual_matrix(lam, z, c)
    blocks = A.reshape(2, n, 2, n)  # G* A G in place: rows by the phases, columns by their conjugates
    np.multiply(phase[:, None, None], blocks, out=blocks)
    np.multiply(blocks, np.conj(phase), out=blocks)
    tl, tr, br, bl = A.take(_cauchy_masks(n).selves).reshape(4, n)  # the block diagonals
    trace = (np.sqrt(lam**2 - c.kappa**2) * (tl + br) + c.kappa * (bl - tr)) / lam
    return A, 0.5 * float(trace.sum().real)


def make_dual_system(n, c):
    """HamiltonianSystem for the dual flow on (lam, theta) coordinates.

    Positions are lam, momenta the angles theta, the right-hand side is
    `_dual_grad`'s two halves written in place as (dH/dtheta, -dH/dlam),
    and the boundary margin of lam is the smallest chamber slack,
    min |z_j|^2 in the global chart.  The energy and the margin take a
    leading sample axis.  DomainError unless n is an integer >= 1.
    """
    n = _count(n, "n", 1)
    gap = 2 * c.mu

    def H(point):
        return _dual_energy(point.q, point.p, c)

    def grad(y, out):
        dlam, out[:n] = _dual_grad(y[:n], y[n:], c)
        np.negative(dlam, out=out[n:])
        return out

    def margin(lam):
        return _chamber_slack(lam, gap, c.nu).min(axis=-1)

    return HamiltonianSystem(
        dim=n,
        hamiltonian=H,
        grad=grad,
        boundary_margin=margin,
        name=f"sutherland-bc-dual(n={n})",
    )


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
    """family_lax of a checked (lam, theta); RangeError where an entry overflows."""
    n = lam.size
    mu, nu = c.mu, c.nu
    selves = _cauchy_masks(n).selves
    X = _cauchy_gaps(lam)
    den = 1j * mu + X
    X.put(selves[: 2 * n], np.inf)  # self factors are 1
    minus, plus = X[:n, :n], X[:n, n:]
    z = -(1 + 1j * nu / lam) * ((1 + 1j * mu / minus) * (1 + 1j * mu / plus)).prod(axis=1)
    hinv = dual_h_matrix(lam, -1j * c.kappa)  # C h C
    swap = selves.reshape(4, n)[1::2]  # the half swap
    with np.errstate(all="ignore"):  # e^(-theta/2) and its inverse scale F
        f = np.exp(-theta / 2) * np.sqrt(np.abs(z))
        F = np.concatenate([f, np.conj(z) / f])
        num = 1j * mu * (F[:, None] * np.conj(F))
        num.put(swap, num.take(swap) + 1j * (mu - 2 * nu))
        return _in_range(hinv @ (num / den) @ hinv, "family matrix overflows")


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
    RangeError where the matrix or a value overflows.
    """
    d = DualPoint(lam, theta)
    lam, theta, n = d.lam, d.theta, d.n
    y = np.linalg.eigvalsh(_family_lax(lam, theta, c))[n:]
    with np.errstate(all="ignore"):
        # np.poly of the negated values lists e_0..e_n
        subset = np.poly(-((y - 1) ** 2) / y)
        coeffs = np.poly(np.concatenate([y, 1 / y]))
        energy = _product_energy(
            lam, np.cosh(theta), -c.mu**2, np.array([-c.nu**2, -c.kappa**2]), c.nu * c.kappa
        )
    _in_range(np.append(subset, [*coeffs, energy]), "family values overflow")
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
    n = _count(n, "n", 1)
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

    The subset values are 4^l e_l(sinh^2(q/2)), sums of positive terms, so
    they keep full relative accuracy at any n.  residual_direct measures
    them against the integer map of the char family, residual_inverse the
    other direction, and residual_symmetric against their expansion
    to_subset @ cosh_values over the subset-cosh sums.  The residuals
    measure the cancellation of the alternating integer maps, which grows
    with n.  RangeError where a value overflows.
    """
    q = _vec(q, "q")
    n = q.size
    mats = family_matrices(n)
    orders = np.arange(n + 1)
    signs = (-1.0) ** orders
    with np.errstate(all="ignore"):
        # the cosh sum over k-subsets and signs is 2^k e_k(cosh q), and np.poly
        # of the negated values lists e_0..e_n
        cosh_vals = 2.0**orders * np.poly(-np.cosh(q))
        subset_vals = 4.0**orders * np.poly(-np.sinh(q / 2) ** 2)
        char_vals = mats.to_char @ cosh_vals
        residual_direct = float(
            np.max(np.abs(signs * subset_vals - mats.subset_from_char @ char_vals))
        )
        residual_inverse = float(
            np.max(np.abs(signs * char_vals - mats.char_from_subset @ subset_vals))
        )
        residual_symmetric = float(np.max(np.abs(mats.to_subset @ cosh_vals - subset_vals)))
    # every value enters a residual, and inf or nan anywhere leaves one non-finite
    _in_range([residual_direct, residual_inverse, residual_symmetric], "family values overflow")
    return FamilyRelation(
        subset_values=subset_vals,
        char_values=char_vals,
        cosh_values=cosh_vals,
        residual_direct=residual_direct,
        residual_inverse=residual_inverse,
        residual_symmetric=residual_symmetric,
    )
