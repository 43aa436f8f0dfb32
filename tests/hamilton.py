"""Hand-made systems in the form HamiltonianSystem takes.

grad(y, out) writes (dH/dp, -dH/dq) at the flat phase vector y = (q, p)
into out.  `kinetic` builds one for a hand-made system, and `split` reads
the partial derivatives back off a system's right-hand side.  `energy`
builds the matching hamiltonian(x), which maps a block of samples (q and
p of shape (m, n)) to m energies, as integrate_flow's audit asks.
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


def energy(potential):
    """hamiltonian(x) of H = |p|^2 / 2 + potential(q), over a leading sample axis."""

    def hamiltonian(x):
        return 0.5 * np.sum(x.p * x.p, axis=-1) + potential(x.q)

    return hamiltonian


def first(q):
    """q_1 over a leading sample axis: the margin of the half-line q_1 > 0."""
    return q[..., 0]


def split(sys, q, p):
    """(dH/dq, dH/dp) of sys at (q, p); the negation of -dH/dq is exact."""
    y = np.concatenate([np.asarray(q, float), np.asarray(p, float)])
    out = sys.grad(y, np.empty_like(y))
    n = y.size // 2
    return -out[n:], out[:n]
