"""Reference values for the rational Calogero-Moser module.

Run manually:

    python3 tests/oracles/calogero_reference.py

Hand-built Lax matrix at q = (1, 0, -1), p = (1, -1, 1), g = 1; the
eigenvalues are the asymptotic momenta the scattering tests compare
against.  cm_gradient is the exact pair sum of the potential gradient,
which tests/test_calogero.py evaluates at test time.
"""

import mpmath as mp

DPS = 40


@mp.workdps(DPS)
def cm_gradient(q, g):
    """dV/dq_j = sum_{k != j} -2 g^2 / (q_j - q_k)^3 of V = sum_{j<k} g^2 / (q_j - q_k)^2."""
    n = len(q)
    return [
        mp.fsum(-2 * g**2 / (q[j] - q[k]) ** 3 for k in range(n) if k != j)
        for j in range(n)
    ]


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
