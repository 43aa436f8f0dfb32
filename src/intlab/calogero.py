"""Rational Calogero-Moser system: Lax pair and spectral coordinates.

The model is n particles on the line with pair potential g^2/r^2 on the
ordered configuration domain q_1 > ... > q_n.  Everything downstream
(flows, scattering, canonical spectral coordinates) is driven by the
Hermitian Lax matrix L and the diagonal position matrix Q.
"""

from typing import NamedTuple

import numpy as np

from .dynamics import PhasePoint, _count, _finite, _in_range, _pair, _pair_energy, _Record
from .dynamics import pair_system
from .errors import DegeneracyError, DomainError
from .linalg import _DEGENERACY_GAP, _stencil, hermitian_eigen


def _order_margin(q):
    """Smallest gap q_j - q_(j+1) of the ordered line over the last axis of q,
    1.0 for one particle (nan for a nan q).

    q lies on the open domain q_1 > ... > q_n exactly when it is positive.
    """
    gaps = q[..., :-1] - q[..., 1:] if q.shape[-1] > 1 else q - q + 1.0
    return gaps.min(axis=-1)


def _coupling(g):
    """g itself: DomainError unless finite, RangeError where g^2 (of Python floats) overflows."""
    _in_range(float(_finite(g, "g")) * float(g), "g^2 overflows")
    return g


class RatCMPoint(_Record):
    """Phase-space point (q, p) with coupling g; q strictly decreasing."""

    __slots__ = ("q", "p", "g")

    def __init__(self, q, p, g):
        if not _order_margin(_pair(self, ("q", "p"), q, p)) > 0:
            raise DomainError("configuration must satisfy q_1 > ... > q_n")
        object.__setattr__(self, "g", _coupling(g))

    @property
    def n(self):
        return len(self.q)

    def as_phase(self):
        return PhasePoint(self.q, self.p)


class SpectralCoords(NamedTuple):
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
    return _lax_L(x), np.diag(x.q.astype(complex)), np.ones(x.n)


def _lax_L(x):
    """The Lax matrix alone; RangeError where a tiny gap overflows g/gap."""
    with np.errstate(over="ignore", invalid="ignore"):  # complex division meets inf
        L = 1j * x.g / _gaps(x.q)
    np.fill_diagonal(L, x.p)
    return _in_range(L, "entries of L overflow")


def moser_B(x):
    """Second Lax-pair matrix; dL/dt = [L, B] along the flow.  RangeError where
    a squared gap or an entry overflows."""
    span = x.q.item(0) - x.q.item(-1)  # the largest gap; Python floats overflow quietly
    _in_range(span * span, "squared gaps overflow")
    with np.errstate(all="ignore"):  # a tiny gap overflows 1/gap^2
        inv2 = 1.0 / _gaps(x.q) ** 2
        B = -1j * x.g * inv2
        np.fill_diagonal(B, 1j * x.g * np.sum(inv2, axis=1))
    return _in_range(B, "entries of B overflow")


def _lax_weights(x):
    """Spectrum of L and the weights of Q along its eigenvectors u_k.

    c_k = (v^T Q u_k)(u_k^* v) and d_k = u_k^* Q u_k; both are independent
    of the phase of u_k.
    """
    spec = hermitian_eigen(_lax_L(x))
    U = spec.basis
    c = (x.q @ U) * U.conj().sum(axis=0)
    d = x.q @ np.abs(U) ** 2
    return spec, c, d


def acd_functions(x, z):
    """The spectral trio A(z) = det(zI - L), C(z), D(z).

    C and D trace the adjugate of (zI - L) against Q, with and without
    the rank-one projector onto the all-ones vector.  The adjugate is
    sum_k prod_{l != k} (z - lam_l) u_k u_k^*, valid for every finite z.
    RangeError where a value overflows.
    """
    spec, c, d = _lax_weights(x)
    with np.errstate(all="ignore"):  # a huge z overflows the products
        diffs = _finite(z, "z") - spec.eigenvalues
        cof = np.prod(np.where(np.eye(x.n, dtype=bool), 1.0, diffs), axis=1)
        values = np.array([np.prod(diffs), cof @ c, cof @ d])
    return tuple(_in_range(values, "A, C, D overflow").tolist())


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


def _differences(n):
    """Rows q_j - q_k (j < k) of the pair stencil, the CM potential's T."""
    return _stencil(n)[: n * (n - 1) // 2]


def hamiltonian(x):
    """H = p^2/2 + sum of pair potentials g^2 / (q_j - q_k)^2."""
    T = _differences(x.n)
    return _pair_energy(x.q, x.p, T, np.full(T.shape[0], x.g**2))


def make_system(n, g):
    """`pair_system` on the pair-difference rows of the stencil, with w = g^2
    on every row and f the identity.  DomainError unless n is an integer >= 1."""
    n = _count(n, "n", 1)
    T, g = _differences(n), _coupling(g)
    return pair_system(T, np.full(T.shape[0], g**2), _order_margin, f"ratcm(n={n}, g={g})")
