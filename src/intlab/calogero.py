"""Rational Calogero-Moser system: Lax pair and spectral coordinates.

The model is n particles on the line with pair potential g^2/r^2 on the
ordered configuration domain q_1 > ... > q_n.  Everything downstream
(flows, scattering, canonical spectral coordinates) is driven by the
Hermitian Lax matrix L and the diagonal position matrix Q.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSystem, PhasePoint
from .errors import DegeneracyError, DomainError
from .linalg import _DEGENERACY_GAP, hermitian_eigen


@dataclass(frozen=True)
class RatCMPoint:
    """Phase-space point (q, p) with coupling g; q strictly decreasing."""

    q: np.ndarray
    p: np.ndarray
    g: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, float)))
        if self.q.shape != self.p.shape:
            raise DomainError("q and p must have equal length")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise DomainError("q and p must be finite")
        if len(self.q) > 1 and np.min(-np.diff(self.q)) <= 0:
            raise DomainError("configuration must satisfy q_1 > ... > q_n")

    @property
    def n(self):
        return len(self.q)

    def as_phase(self):
        return PhasePoint(self.q, self.p)


@dataclass(frozen=True)
class SpectralCoords:
    """Eigenvalues of L with their canonically conjugate partners.

    theta = mu + f componentwise: mu is the real (angle-variable) part,
    f the purely imaginary correction depending on the eigenvalues only.
    """

    lam: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    f: np.ndarray


def _gaps(x):
    """Pairwise differences x_j - x_k with an infinite diagonal, so that
    every quotient by them vanishes there."""
    gaps = x[:, None] - x[None, :]
    np.fill_diagonal(gaps, np.inf)
    return gaps


def lax_LQ(x):
    """Lax matrix L, position matrix Q = diag(q), and the vector of ones."""
    L = 1j * x.g / _gaps(x.q)
    np.fill_diagonal(L, x.p)
    return L, np.diag(x.q.astype(complex)), np.ones(x.n)


def moser_B(x):
    """Second Lax-pair matrix; dL/dt = [L, B] along the flow."""
    inv2 = 1.0 / _gaps(x.q) ** 2
    B = -1j * x.g * inv2
    np.fill_diagonal(B, 1j * x.g * np.sum(inv2, axis=1))
    return B


def _lax_weights(x):
    """Spectrum of L and the weights of Q along its eigenvectors u_k.

    c_k = (v^T Q u_k)(u_k^* v) and d_k = u_k^* Q u_k; both are independent
    of the phase of u_k.
    """
    L, _, _ = lax_LQ(x)
    spec = hermitian_eigen(L)
    U = spec.basis
    c = (x.q @ U) * U.conj().sum(axis=0)
    d = x.q @ np.abs(U) ** 2
    return spec, c, d


def acd_functions(x, z):
    """The spectral trio A(z) = det(zI - L), C(z), D(z).

    C and D trace the adjugate of (zI - L) against Q, with and without
    the rank-one projector onto the all-ones vector.  The adjugate is
    sum_k prod_{l != k} (z - lam_l) u_k u_k^*, valid for every z.
    """
    spec, c, d = _lax_weights(x)
    diffs = z - spec.eigenvalues
    cof = np.prod(np.where(np.eye(x.n, dtype=bool), 1.0, diffs), axis=1)
    return complex(np.prod(diffs)), complex(cof @ c), complex(cof @ d)


def sklyanin_coords(x):
    """Canonical spectral coordinates: theta_k = C/A' and mu_k = D/A' at lam_k.

    At z = lam_k only the k-th term of the adjugate survives, so the
    quotients reduce to the weights c_k and d_k.
    """
    spec, c, d = _lax_weights(x)
    if spec.near_degenerate:
        raise DegeneracyError(
            f"Lax eigenvalues closer than {_DEGENERACY_GAP:.0e}; "
            "eigenvector weights unreliable"
        )
    lam = spec.eigenvalues
    f = 1j * x.g * np.sum(1.0 / _gaps(lam), axis=1)
    return SpectralCoords(lam=lam, theta=c, mu=d, f=f)


def _energy(q, p, g):
    gaps = _gaps(q)  # each pair appears twice in the full sum
    return float(0.5 * (p @ p) + 0.5 * (g**2 / (gaps * gaps)).sum())


def hamiltonian(x):
    """H = p^2/2 + sum of pair potentials g^2 / (q_j - q_k)^2."""
    return _energy(x.q, x.p, x.g)


def make_system(n, g):
    """HamiltonianSystem wrapper for the dynamics module."""

    def H(point):
        return _energy(point.q, point.p, g)

    def grad(point):
        gaps = _gaps(point.q)  # gaps**3 takes numpy's slow general power
        return (-2.0 * g**2 / (gaps * gaps * gaps)).sum(axis=1), point.p.copy()

    def inside(point):
        return n == 1 or bool(np.min(-np.diff(point.q)) > 0)

    def margin(point):
        return 1.0 if n == 1 else float(np.min(-np.diff(point.q)))

    return HamiltonianSystem(
        dim=n,
        hamiltonian=H,
        grad=grad,
        domain_check=inside,
        boundary_margin=margin,
        name=f"ratcm(n={n}, g={g})",
    )
