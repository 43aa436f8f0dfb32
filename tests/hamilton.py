"""Hand-made systems in the form HamiltonianSystem takes.

grad(y, out) writes (dH/dp, -dH/dq) at the flat phase vector y = (q, p)
into out.  `kinetic` builds one for a hand-made system, and `split` reads
the partial derivatives back off a system's right-hand side.  `energy`
builds the matching hamiltonian(x), which maps a block of samples (q and
p of shape (m, n)) to m energies, as integrate_flow's audit asks.  `first`
and `everywhere` are boundary margins, which every system states.

`differences` is the one central-difference stencil, for gradients a test
checks against.  `gradient` takes an observable's gradient on it, and
`bracket` builds the canonical Poisson bracket from two such gradients.
"""

import numpy as np

from intlab.dynamics import PhasePoint

# cbrt(eps): the central difference's truncation and rounding errors balance
STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


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


def everywhere(q):
    """1 over a leading sample axis: the margin of a system defined everywhere."""
    return np.ones(np.shape(q)[:-1])


def split(sys, q, p):
    """(dH/dq, dH/dp) of sys at (q, p); the negation of -dH/dq is exact."""
    y = np.concatenate([np.asarray(q, float), np.asarray(p, float)])
    out = sys.grad(y, np.empty_like(y))
    n = y.size // 2
    return -out[n:], out[:n]


def differences(f, y, h):
    """(f(y + h_j e_j) - f(y - h_j e_j)) / (2 h_j) over the entries j of the 1-D
    array y, for a scalar f of such a vector; h is one step or one per entry."""
    h = np.broadcast_to(h, y.shape)
    return np.array([float(f(y + e)) - float(f(y - e)) for e in np.diag(h)]) / (2 * h)


def gradient(f, x):
    """(df/dq, df/dp) of an observable at one PhasePoint x, as one vector, by
    differences of step STEP (1 + |y_j|) along each coordinate y_j of (q, p)."""
    y = x.to_vector()
    return differences(lambda v: f(PhasePoint.from_vector(v)), y, STEP * (1.0 + np.abs(y)))


def bracket(f, g, x):
    """Canonical Poisson bracket {f, g} of two observables at one PhasePoint x,
    on their `gradient`s."""
    fq, fp = np.split(gradient(f, x), 2)
    gq, gp = np.split(gradient(g, x), 2)
    return float(np.dot(fq, gp) - np.dot(fp, gq))
