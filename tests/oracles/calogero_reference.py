"""Reference values for the rational Calogero-Moser module.

Run manually:

    python3 tests/oracles/calogero_reference.py

Hand-built Lax matrix at q = (1, 0, -1), p = (1, -1, 1), g = 1; the
eigenvalues are the asymptotic momenta the scattering tests compare
against.  cm_gradient is the exact pair sum of the potential gradient,
and spectral_coords the spectral coordinates off a 30-digit
eigendecomposition; tests/test_calogero.py evaluates both at test time.
"""

import mpmath as mp
import numpy as np

DPS = 40


@mp.workdps(DPS)
def cm_gradient(q, g):
    """dV/dq_j = sum_{k != j} -2 g^2 / (q_j - q_k)^3 of V = sum_{j<k} g^2 / (q_j - q_k)^2."""
    n = len(q)
    return [
        mp.fsum(-2 * g**2 / (q[j] - q[k]) ** 3 for k in range(n) if k != j)
        for j in range(n)
    ]


@mp.workdps(30)
def spectral_coords(q, p, g):
    """(lam, Re theta, mu) of calogero.sklyanin_coords at the point (q, p, g), as
    floats: lam ascending, theta_k = (q . u_k)(sum_j conj u_jk) and
    mu_k = sum_j q_j |u_jk|^2 over the eigenvectors u_k of L = diag(p) + ig/(q_j - q_k)."""
    n = len(q)
    q, p, g = [mp.mpf(v) for v in q], [mp.mpf(v) for v in p], mp.mpf(g)
    L = mp.matrix(n, n)
    for j in range(n):
        L[j, j] = p[j]
        for k in range(n):
            if j != k:
                L[j, k] = mp.mpc(0, g) / (q[j] - q[k])
    E, U = mp.eighe(L)
    rows = []
    for k in sorted(range(n), key=lambda k: E[k]):
        u = [U[j, k] for j in range(n)]
        theta = mp.fsum(qj * uj for qj, uj in zip(q, u)) * mp.fsum(mp.conj(uj) for uj in u)
        mu = mp.fsum(qj * abs(uj) ** 2 for qj, uj in zip(q, u))
        rows.append((float(mp.re(E[k])), float(mp.re(theta)), float(mu)))
    return tuple(np.array(col) for col in zip(*rows))


with mp.workdps(DPS):
    L = mp.matrix(3, 3)
    q = [1, 0, -1]
    p = [1, -1, 1]
    for j in range(3):
        L[j, j] = p[j]
        for k in range(3):
            if j != k:
                L[j, k] = mp.mpc(0, 1) / (q[j] - q[k])

    E = mp.eighe(L, eigvals_only=True)

if __name__ == "__main__":
    mp.mp.dps = DPS
    print("spectrum:", [mp.nstr(e, 20) for e in E])
