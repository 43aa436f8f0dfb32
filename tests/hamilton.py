"""Hamilton's right-hand side in the in-place form of HamiltonianSystem.grad.

grad(y, out) writes (dH/dp, -dH/dq) at the flat phase vector y = (q, p)
into out.  `kinetic` builds one for a hand-made system, and `split` reads
the partial derivatives back off a system's right-hand side.
"""

import numpy as np


def kinetic(force):
    """grad(y, out) of H = |p|^2 / 2 + V(q), given force(q) = -dV/dq."""

    def grad(y, out):
        n = y.size // 2
        out[:n] = y[n:]
        out[n:] = force(y[:n])
        return out

    return grad


def split(sys, q, p):
    """(dH/dq, dH/dp) of sys at (q, p); the negation of -dH/dq is exact."""
    y = np.concatenate([np.asarray(q, float), np.asarray(p, float)])
    out = sys.grad(y, np.empty_like(y))
    n = y.size // 2
    return -out[n:], out[:n]
