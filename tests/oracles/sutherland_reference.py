"""High-precision reference values for the BC-type Sutherland module.

Run manually:

    python3 tests/oracles/sutherland_reference.py

Everything here is computed with mpmath at DPS = 50 digits, via routes
that are as direct as possible.  Each function runs at no less than that
precision (`pinned`), and importing the module leaves the global
precision alone:

  * the Sutherland commuting values come from an explicitly assembled
    2n x 2n first-order matrix and its trace powers, cross-checked in situ
    against the plain potential sum, and the direct gradient from mp.diff
    of that sum;
  * the dual Hamiltonian comes from the explicit square-root product form,
    for any couplings, and its gradient from mp.diff of that form;
  * the local-chart dual matrix comes from its square-root vector f and
    the quotient [2 mu f_j conj(f'_k) - 2 (mu - nu) C_jk] / (2 mu + L_k - L_j),
    with the branch identities of f and the trace identity for the
    dual Hamiltonian asserted in situ;
  * the deformed-family values come from the combinatorial subset sums and,
    independently, from the eigenvalues of the rational first-order matrix.

The printed numbers are frozen into tests/test_sutherland.py, which also
imports family_hamiltonian, rational_lax and char_coeffs to check the
rational family at larger n.
"""

from functools import wraps
from itertools import combinations, product

import mpmath as mp

DPS = 50


def pinned(f):
    """Run f at DPS digits, or at the caller's precision where that is higher.

    mp.diff raises the precision to difference the energies below, and
    must keep it inside them.
    """

    @wraps(f)
    def run(*args, **kwargs):
        with mp.workdps(max(DPS, mp.mp.dps)):
            return f(*args, **kwargs)

    return run


with mp.workdps(DPS):
    MU = mp.mpf("0.8")
    NU = mp.mpf("0.7")
    KAPPA = mp.mpf("0.25")


# ---------------------------------------------------------------------------
# Sutherland side: n = 2 point.

with mp.workdps(DPS):
    Q = [mp.mpf("0.9"), mp.mpf("0.4")]
    P = [mp.mpf("0.3"), mp.mpf("-0.5")]


@pinned
def sutherland_direct(q, p):
    gamma = MU**2
    gamma1 = NU * KAPPA / 2
    gamma2 = (NU - KAPPA) ** 2 / 2
    n = len(q)
    h = sum(pj**2 for pj in p) / 2
    for j in range(n):
        for k in range(j + 1, n):
            h += gamma / mp.sin(q[j] - q[k]) ** 2
            h += gamma / mp.sin(q[j] + q[k]) ** 2
    for j in range(n):
        h += gamma1 / mp.sin(q[j]) ** 2
        h += gamma2 / mp.sin(2 * q[j]) ** 2
    return h


@pinned
def sutherland_gradient(q, p):
    """(dH/dq, dH/dp) of sutherland_direct, one mp.diff partial per coordinate."""
    n = len(q)
    point = list(q) + list(p)

    def energy(*x):
        return sutherland_direct(x[:n], x[n:])

    grad = []
    for i in range(2 * n):
        order = [0] * (2 * n)
        order[i] = 1
        grad.append(mp.diff(energy, point, order))
    return grad[:n], grad[n:]


@pinned
def first_order_matrix(q, p):
    n = len(q)
    a = mp.zeros(n)
    b = mp.zeros(n)
    for j in range(n):
        a[j, j] = mp.mpc(0, 1) * p[j]
        b[j, j] = NU / mp.sin(2 * q[j]) + KAPPA * mp.cos(2 * q[j]) / mp.sin(2 * q[j])
        for k in range(n):
            if k != j:
                a[j, k] = -MU / mp.sin(q[j] - q[k])
                b[j, k] = MU / mp.sin(q[j] + q[k])
    y = mp.zeros(2 * n)
    for j in range(n):
        for k in range(n):
            y[j, k] = a[j, k]
            y[j, n + k] = b[j, k]
            y[n + j, k] = -b[j, k]
            y[n + j, n + k] = -a[j, k]
    for j in range(n):
        y[j, n + j] += -mp.mpc(0, 1) * KAPPA
        y[n + j, j] += -mp.mpc(0, 1) * KAPPA
    return y


@pinned
def trace(m):
    return mp.fsum(m[i, i] for i in range(m.rows))


with mp.workdps(DPS):
    Y = first_order_matrix(Q, P)
    M = mp.mpc(0, -1) * Y
    H1 = trace(M * M) / 4
    H2 = trace(M * M * M * M) / 8
    assert abs(mp.im(H1)) < mp.mpf("1e-40")
    assert abs(H1 - sutherland_direct(Q, P)) < mp.mpf("1e-40")
    EIGS = sorted(mp.eighe(M, eigvals_only=True))
    assert abs(EIGS[0] + EIGS[3]) < mp.mpf("1e-40")  # spectrum symmetric about 0


# ---------------------------------------------------------------------------
# Dual side: n = 2 point, explicit product form of the dual Hamiltonian.

with mp.workdps(DPS):
    LAM = [mp.mpf("3.3"), mp.mpf("1.1")]
    THETA = [mp.mpf("0.35"), mp.mpf("-0.6")]


@pinned
def dual_direct(lam, theta, mu=MU, nu=NU, kappa=KAPPA):
    n = len(lam)
    total = mp.mpf(0)
    for j in range(n):
        term = mp.cos(theta[j])
        term *= mp.sqrt(1 - nu**2 / lam[j] ** 2)
        term *= mp.sqrt(1 - kappa**2 / lam[j] ** 2)
        for k in range(n):
            if k != j:
                term *= mp.sqrt(1 - 4 * mu**2 / (lam[j] - lam[k]) ** 2)
                term *= mp.sqrt(1 - 4 * mu**2 / (lam[j] + lam[k]) ** 2)
        total += term
    prod = mp.mpf(1)
    for j in range(n):
        prod *= 1 - 4 * mu**2 / lam[j] ** 2
    c = nu * kappa / (4 * mu**2)
    return total - c * prod + c


@pinned
def dual_partial(lam, theta, i, mu=MU, nu=NU, kappa=KAPPA):
    """mp.diff partial of dual_direct by coordinate i of (lam, theta)."""
    n = len(lam)
    order = [0] * (2 * n)
    order[i] = 1

    def energy(*x):
        return dual_direct(x[:n], x[n:], mu, nu, kappa)

    return mp.diff(energy, list(lam) + list(theta), order)


@pinned
def dual_gradient(lam, theta, mu=MU, nu=NU, kappa=KAPPA):
    """(dH/dlam, dH/dtheta) of dual_direct, one dual_partial per coordinate."""
    n = len(lam)
    grad = [dual_partial(lam, theta, i, mu, nu, kappa) for i in range(2 * n)]
    return grad[:n], grad[n:]


with mp.workdps(DPS):
    H_DUAL = dual_direct(LAM, THETA)


@pinned
def dual_chamber_products(lam, sign):
    """prod_{b != a} (1 + 2 sign mu/(lam_a - lam_b))(1 + 2 sign mu/(lam_a + lam_b)), per a."""
    n = len(lam)
    out = []
    for a in range(n):
        prod = mp.mpf(1)
        for b in range(n):
            if b != a:
                prod *= 1 + sign * 2 * MU / (lam[a] - lam[b])
                prod *= 1 + sign * 2 * MU / (lam[a] + lam[b])
        out.append(prod)
    return out


@pinned
def dual_f(lam, theta):
    """Square-root vector of the local chart; each factor is rooted on its own."""
    n = len(lam)
    f = []
    for sign in (-1, 1):
        for a in range(n):
            val = mp.sqrt(1 + sign * NU / lam[a])
            for b in range(n):
                if b != a:
                    val *= mp.sqrt(1 + sign * 2 * MU / (lam[a] - lam[b]))
                    val *= mp.sqrt(1 + sign * 2 * MU / (lam[a] + lam[b]))
            f.append(val if sign < 0 else mp.expj(theta[a]) * val)
    return f


@pinned
def dual_local_matrix(lam, theta):
    """Unitary local-chart dual matrix; the (n, 2n) quotient is 0/0 at lam_n = mu."""
    n = len(lam)
    f = dual_f(lam, theta)
    swapped = f[n:] + f[:n]
    big = list(lam) + [-x for x in lam]
    amat = mp.zeros(2 * n)
    for j in range(2 * n):
        for k in range(2 * n):
            num = 2 * MU * f[j] * mp.conj(swapped[k])
            if abs(j - k) == n:
                num -= 2 * (MU - NU)
            amat[j, k] = num / (2 * MU + big[k] - big[j])
    return amat


@pinned
def dual_rotation(lam):
    """Block rotation [[alpha, beta], [-beta, alpha]] of the kappa coupling."""
    n = len(lam)
    h = mp.zeros(2 * n)
    for j in range(n):
        x = lam[j]
        root = mp.sqrt(x + mp.sqrt(x**2 - KAPPA**2))
        h[j, j] = h[n + j, n + j] = root / mp.sqrt(2 * x)
        h[j, n + j] = KAPPA / (mp.sqrt(2 * x) * root)
        h[n + j, j] = -h[j, n + j]
    return h


@pinned
def check_dual_branches(lam, theta):
    """Branch identities of f: with the weights w = 1 / dual_chamber_products,
    |f|^2 = cf+, the branches cf+ and cf- sum to +2n and -2n, and both solve
    the linear and quadratic constraints of the weighted moduli."""
    n = len(lam)
    w = [1 / x for x in dual_chamber_products(lam, -1) + dual_chamber_products(lam, 1)]
    cf_plus = [(1 - NU / x) / wa for x, wa in zip(lam, w[:n])]
    cf_plus += [(1 + NU / x) / wa for x, wa in zip(lam, w[n:])]
    cf_minus = [(-1 + (2 * MU - NU) / x) / wa for x, wa in zip(lam, w[:n])]
    cf_minus += [(-1 - (2 * MU - NU) / x) / wa for x, wa in zip(lam, w[n:])]
    f = dual_f(lam, theta)
    assert max(abs(abs(v) ** 2 - cf) for v, cf in zip(f, cf_plus)) < mp.mpf("1e-40")
    assert abs(mp.fsum(cf_plus) - 2 * n) < mp.mpf("1e-40")
    assert abs(mp.fsum(cf_minus) + 2 * n) < mp.mpf("1e-40")
    for branch in (cf_plus, cf_minus):
        for a in range(n):
            wc = w[a] * branch[a]
            wn = w[n + a] * branch[n + a]
            x = lam[a]
            linear = (MU + x) * wc + (MU - x) * wn - 2 * (MU - NU)
            quad = x**2 * wc * wn - MU * (MU - NU) * (wc + wn) + (MU - NU) ** 2 + MU**2 - x**2
            assert abs(linear) < mp.mpf("1e-40") and abs(quad) < mp.mpf("1e-40")


with mp.workdps(DPS):
    check_dual_branches(LAM, THETA)
    check_dual_branches(
        [mp.mpf("6.1"), mp.mpf("3.9"), mp.mpf("1.3")], [mp.mpf("0.7"), mp.mpf("-1.9"), mp.mpf("2.6")]
    )

    # The local matrix is unitary and Re tr(h A h) / 2 is the dual Hamiltonian.
    A_DUAL = dual_local_matrix(LAM, THETA)
    assert mp.mnorm(A_DUAL * A_DUAL.H - mp.eye(4), 1) < mp.mpf("1e-40")
    H_ROT = dual_rotation(LAM)
    assert abs(mp.re(trace(H_ROT * A_DUAL * H_ROT)) / 2 - H_DUAL) < mp.mpf("1e-40")


# ---------------------------------------------------------------------------
# Rational family: n = 2 point in the open positive chamber.

with mp.workdps(DPS):
    FLAM = [mp.mpf("2.1"), mp.mpf("0.9")]
    FTH = [mp.mpf("0.55"), mp.mpf("-0.35")]


@pinned
def v_pot(x):
    return (x + mp.mpc(0, 1) * MU) / x


@pinned
def w_pot(x):
    return ((x + mp.mpc(0, 1) * NU) / x) * ((x + mp.mpc(0, 1) * KAPPA) / x)


@pinned
def u_sum(rest, p, lam):
    if p == 0:
        return mp.mpf(1)
    total = mp.mpc(0)
    for sub in combinations(rest, p):
        for eps in product((1, -1), repeat=p):
            term = mp.mpc(1)
            for i, e in zip(sub, eps):
                term *= w_pot(e * lam[i])
            for (i1, e1), (i2, e2) in combinations(tuple(zip(sub, eps)), 2):
                x = e1 * lam[i1] + e2 * lam[i2]
                term *= v_pot(x) * v_pot(-x)
            for i, e in zip(sub, eps):
                for k in rest:
                    if k not in sub:
                        term *= v_pot(e * lam[i] + lam[k])
                        term *= v_pot(e * lam[i] - lam[k])
            total += term
    assert abs(mp.im(total)) < mp.mpf("1e-40")
    return (-1) ** p * mp.re(total)


@pinned
def family_hamiltonian(el, lam, theta):
    n = len(lam)
    total = mp.mpf(0)
    for size in range(el + 1):
        for sub in combinations(range(n), size):
            rest = tuple(k for k in range(n) if k not in sub)
            for eps in product((1, -1), repeat=size):
                angle = mp.fsum(e * theta[i] for i, e in zip(sub, eps))
                vv = mp.mpc(1)
                for i, e in zip(sub, eps):
                    vv *= w_pot(e * lam[i])
                for (i1, e1), (i2, e2) in combinations(tuple(zip(sub, eps)), 2):
                    vv *= v_pot(e1 * lam[i1] + e2 * lam[i2]) ** 2
                for i, e in zip(sub, eps):
                    for k in rest:
                        vv *= v_pot(e * lam[i] + lam[k])
                        vv *= v_pot(e * lam[i] - lam[k])
                total += mp.cosh(angle) * abs(vv) * u_sum(rest, el - size, lam)
    return total


@pinned
def pusztai_hamiltonian(lam, theta):
    n = len(lam)
    total = mp.mpf(0)
    for j in range(n):
        term = mp.cosh(theta[j])
        term *= mp.sqrt(1 + NU**2 / lam[j] ** 2)
        term *= mp.sqrt(1 + KAPPA**2 / lam[j] ** 2)
        for k in range(n):
            if k != j:
                term *= mp.sqrt(1 + MU**2 / (lam[j] - lam[k]) ** 2)
                term *= mp.sqrt(1 + MU**2 / (lam[j] + lam[k]) ** 2)
        total += term
    prod = mp.mpf(1)
    for j in range(n):
        prod *= 1 + MU**2 / lam[j] ** 2
    return total + NU * KAPPA / MU**2 * prod - NU * KAPPA / MU**2


@pinned
def rational_lax(lam, theta):
    n = len(lam)
    z = []
    for l in range(n):
        val = -(1 + mp.mpc(0, 1) * NU / lam[l])
        for m in range(n):
            if m != l:
                val *= 1 + mp.mpc(0, 1) * MU / (lam[l] - lam[m])
                val *= 1 + mp.mpc(0, 1) * MU / (lam[l] + lam[m])
        z.append(val)
    f = [mp.exp(-theta[l] / 2) * mp.sqrt(abs(z[l])) for l in range(n)]
    f += [mp.conj(z[l]) / f[l] for l in range(n)]
    big = [lam[l] for l in range(n)] + [-lam[l] for l in range(n)]
    amat = mp.zeros(2 * n)
    for j in range(2 * n):
        for k in range(2 * n):
            cjk = 1 if abs(j - k) == n else 0
            num = mp.mpc(0, 1) * MU * f[j] * mp.conj(f[k])
            num += mp.mpc(0, 1) * (MU - 2 * NU) * cjk
            amat[j, k] = num / (mp.mpc(0, 1) * MU + big[j] - big[k])
    aval = mp.zeros(2 * n)
    bval = mp.zeros(2 * n)
    for j in range(n):
        x = lam[j]
        root = mp.sqrt(x + mp.sqrt(x**2 + KAPPA**2))
        aval[j, j] = aval[n + j, n + j] = root / mp.sqrt(2 * x)
        bval[j, j] = bval[n + j, n + j] = KAPPA / (mp.sqrt(2 * x) * root)
    h = mp.zeros(2 * n)
    for j in range(n):
        for k in range(n):
            h[j, k] = aval[j, k]
            h[j, n + k] = mp.mpc(0, 1) * bval[j, k]
            h[n + j, k] = -mp.mpc(0, 1) * bval[j, k]
            h[n + j, n + k] = aval[j, k]
    hinv = h**-1
    return hinv * amat * hinv


@pinned
def char_coeffs(eigs):
    # coefficients of prod (x - e_i), leading first
    coeffs = [mp.mpf(1)]
    for e in eigs:
        nxt = [mp.mpf(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * e
        coeffs = nxt
    return coeffs


with mp.workdps(DPS):
    LAX = rational_lax(FLAM, FTH)
    herm = max(abs(LAX[i, j] - mp.conj(LAX[j, i])) for i in range(4) for j in range(4))
    assert herm < mp.mpf("1e-40")
    FEIGS = mp.eighe(LAX, eigvals_only=True)
    KCOEF = char_coeffs(FEIGS)  # det(L - x) = sum_m K_m x^(2n-m) with K_0 = 1
    H_PU = pusztai_hamiltonian(FLAM, FTH)
    H1_VD = family_hamiltonian(1, FLAM, FTH)
    H2_VD = family_hamiltonian(2, FLAM, FTH)
    assert abs(KCOEF[1] + 2 * H_PU) < mp.mpf("1e-38")
    assert abs(H1_VD - 2 * (H_PU - 2)) < mp.mpf("1e-38")
    assert abs(KCOEF[0] - 1) < mp.mpf("1e-40") and abs(KCOEF[4] - 1) < mp.mpf("1e-38")
    assert abs(KCOEF[3] - KCOEF[1]) < mp.mpf("1e-38")  # palindromic


def report(label, value):
    print(f"{label} = {mp.nstr(value, 25)}")


if __name__ == "__main__":
    mp.mp.dps = DPS
    print("# couplings mu=0.8 nu=0.7 kappa=0.25")
    print("# Sutherland n=2 point q=(0.9,0.4) p=(0.3,-0.5)")
    report("H1", H1)
    report("H2", mp.re(H2))
    report("lambda_1", EIGS[3])
    report("lambda_2", EIGS[2])
    print("# dual n=2 point lam=(3.3,1.1) theta=(0.35,-0.6)")
    report("H_dual", H_DUAL)
    print("# rational family n=2 point lam=(2.1,0.9) theta=(0.55,-0.35)")
    report("H_Pu", H_PU)
    report("H1_vD", H1_VD)
    report("H2_vD", H2_VD)
    report("K_1", mp.re(KCOEF[1]))
    report("K_2", mp.re(KCOEF[2]))
