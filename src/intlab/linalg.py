"""Dense complex linear-algebra contracts shared by the system modules.

Hermitian eigendecompositions, characteristic polynomials, and the
linear stencil of the pair potentials.  Everything here is plain numpy
on small dense matrices, except `_eigh`, the one LAPACK call behind every
spectrum in the package, and `_poly`, a Vieta loop over Python numbers
from roots to monic coefficients; the value added is the fixed
conventions (sorting, degeneracy flag, monic coefficients, stencil row
order) that the rest of the package relies on.

Every matrix whose spectrum the package reads is Hermitian, so both
spectral entry points take their matrix through one front,
`_hermitian_part`, and raise the same error where it fails.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zheevd

from .dynamics import _finite, _in_range
from .errors import ConvergenceError, StructureError

# Gap below which a Hermitian spectrum is flagged as near-degenerate.
# Downstream code decides what to do with the flag.
_DEGENERACY_GAP = 1e-9


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
    """Real coefficients K_0..K_N of det(y I - M) = sum_m K_{N-m} y^m, K_0 = 1."""

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
    """(M + M*) / 2 for a non-empty, square, finite M with ||M - M*|| at most
    1e-12 max(1, ||M||).  Else, in this order: StructureError for the shape,
    DomainError for a non-finite entry, RangeError where ||M|| overflows, and
    StructureError for the deviation."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise StructureError(f"expected a non-empty square matrix, got shape {M.shape}")
    norm = math.sqrt(np.vdot(M, M).real)  # inf or nan for a non-finite entry or on overflow
    if not math.isfinite(norm):
        _finite(M, "M")
        _in_range(norm, "matrix norm overflows")
    scale = max(1.0, norm)
    Mh = M.conj().T
    D = M - Mh  # a finite ||M|| keeps every entry below 1.4e154: no overflow
    dev = math.sqrt(np.vdot(D, D).real)
    if not dev <= 1e-12 * scale:  # a nan deviation, from overflowing squares, fails too
        raise StructureError(
            f"matrix is not Hermitian: ||M - M*|| = {dev:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    return (M + Mh) / 2.0


def _eigh(H, vectors=False):
    """np.linalg.eigvalsh(H), or eigh(H), bit for bit and without numpy's gufunc overhead:
    one zheevd call on the lower triangle of the complex H with at least LAPACK's optimal
    workspace (on less, zhetrd runs unblocked above n = 32); ConvergenceError on failure."""
    n = len(H)
    w, U, info = zheevd(H, compute_v=vectors, lower=1, lwork=max(n * n + 2 * n, 33 * n))
    if info:
        raise ConvergenceError(f"zheevd did not converge: info = {info}")
    return (w, np.ascontiguousarray(U)) if vectors else w  # numpy's basis is C-ordered


def hermitian_eigen(M):
    """Sorted eigendecomposition of the Hermitian M; the errors of `_hermitian_part` and `_eigh`."""
    w, U = _eigh(_hermitian_part(M), vectors=True)
    flagged = bool(np.diff(w).min(initial=np.inf) < _DEGENERACY_GAP)
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
    """Characteristic coefficients from the eigenvalues of the Hermitian M; the errors
    of `_hermitian_part` and `_eigh`, and RangeError where a coefficient overflows."""
    roots = _eigh(_hermitian_part(M))
    return CharPoly(coefficients=_in_range(_poly(roots), "characteristic coefficients overflow"))
