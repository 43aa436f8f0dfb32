"""Dense complex linear-algebra contracts shared by the system modules.

Hermitian eigendecompositions, characteristic polynomials, and the
linear stencil of the pair potentials.  Everything here is plain numpy
on small dense matrices, except `_poly`, the one route from roots to
monic coefficients, a Vieta loop over Python numbers; the value added is
the fixed conventions (sorting, degeneracy flag, monic coefficients,
stencil row order) that the rest of the package relies on.

One Hermitian test, `_hermitian_part`, picks the eigensolver: `hermitian_eigen`
requires it, and `char_poly` takes `eigvalsh` where it passes, `eigvals` elsewhere.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dynamics import _finite, _in_range
from .errors import StructureError

# Gap below which a Hermitian spectrum is flagged as near-degenerate.
# Downstream code decides what to do with the flag.
_DEGENERACY_GAP = 1e-9


def _as_square(M):
    """M as a non-empty square complex matrix, or StructureError; DomainError unless finite."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise StructureError(f"expected a non-empty square matrix, got shape {M.shape}")
    return _finite(M, "M")


class HermitianSpectrum(NamedTuple):
    """Sorted eigenvalues and aligned orthonormal basis of a Hermitian matrix.

    eigenvalues are ascending; column j of basis belongs to eigenvalues[j].
    near_degenerate is set when two eigenvalues sit closer than 1e-9, a
    regime where individual eigenvectors stop being well defined.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    near_degenerate: bool


class CharPoly(NamedTuple):
    """Coefficients K_0..K_N of det(y I - M) = sum_m K_{N-m} y^m, K_0 = 1;
    real for a Hermitian M, complex otherwise."""

    coefficients: np.ndarray


@lru_cache(maxsize=None)
def _stencil(n):
    """Incidence matrix T of the pair-potential arguments of n positions.

    T @ q stacks q_j - q_k and then q_j + q_k over the pairs j < k (in
    np.triu_indices order), then q, then 2q; each row has at most two
    nonzero entries, +-1 or a single 2, so every entry of T @ q is exact
    up to one rounding.  `dynamics.pair_system` builds the pair
    potentials and their gradients on it.  Cached and read-only, as every
    caller shares it.  n is an int >= 1, as the system builders check.
    """
    j, k = np.triu_indices(n, 1)
    eye = np.eye(n)
    T = np.vstack([eye[j] - eye[k], eye[j] + eye[k], eye, 2 * eye])
    T.flags.writeable = False
    return T


def _hermitian_part(M):
    """(H, ||M||, ||M - M*||): H = (M + M*) / 2 where ||M|| is finite and
    ||M - M*|| <= 1e-12 max(1, ||M||), else None; ||M - M*|| is inf where
    ||M|| is not finite."""
    norm = math.sqrt(np.vdot(M, M).real)
    # explicit: inf <= 1e-12 * inf would pass a non-Hermitian M
    if not math.isfinite(norm):
        return None, norm, math.inf
    Mh = M.conj().T
    D = M - Mh  # a finite ||M|| keeps every entry below 1.4e154: no overflow
    dev = math.sqrt(np.vdot(D, D).real)
    return (M + Mh) / 2.0 if dev <= 1e-12 * max(1.0, norm) else None, norm, dev


def hermitian_eigen(M):
    """Eigendecomposition with the package-wide sorting convention.

    StructureError unless M is Hermitian to 1e-12 of max(1, ||M||), and
    RangeError where ||M||, and with it that test, overflows.
    """
    M = _as_square(M)
    H, norm, dev = _hermitian_part(M)
    if H is None:
        scale = _in_range(max(1.0, norm), "matrix norm overflows")
        raise StructureError(
            f"matrix is not Hermitian: ||M - M*|| = {dev:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    w, U = np.linalg.eigh(H)
    flagged = bool(len(w) > 1 and np.min(np.diff(w)) < _DEGENERACY_GAP)
    return HermitianSpectrum(eigenvalues=w, basis=U, near_degenerate=flagged)


def _poly(roots):
    """Monic coefficients of prod (x - r) over the 1-D array roots, K_0 = 1 first.

    Vieta's recursion in place: the bits np.poly gives on real roots,
    without its convolve call per root.  Python products overflow to inf
    or nan quietly, so callers pass the result through _in_range.
    """
    a = [1.0]
    for r in roots.tolist():
        a.append(-r * a[-1])
        for k in range(len(a) - 2, 0, -1):
            a[k] -= r * a[k - 1]
    return np.array(a)


def char_poly(M):
    """Characteristic coefficients from the eigenvalues of M; RangeError on overflow.
    Real, from eigvalsh, where M passes _hermitian_part; complex, from eigvals, elsewhere."""
    M = _as_square(M)
    H, _, _ = _hermitian_part(M)
    roots = np.linalg.eigvals(M) if H is None else np.linalg.eigvalsh(H)
    return CharPoly(coefficients=_in_range(_poly(roots), "characteristic coefficients overflow"))

