"""Dense complex linear-algebra contracts shared by the system modules.

Hermitian eigendecompositions, characteristic polynomials,
unitary-times-triangular factorization with a positive diagonal, and
spectra of exponential products.  Everything here is plain numpy on
small dense matrices; the value added is the fixed conventions
(sorting, normalization, phase choices) that the rest of the package
relies on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationError, RangeError, StructureError

# Gap below which a Hermitian spectrum is flagged as near-degenerate.
# Downstream code decides what to do with the flag.
_DEGENERACY_GAP = 1e-9

# exp() overflows float64 just above 709.
_EXP_ARG_LIMIT = 700.0


def _as_square(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {M.shape}")
    return M


def _require_hermitian(M, tol=1e-12, what="matrix"):
    if not np.all(np.isfinite(M)):
        raise StructureError(f"{what} has non-finite entries")
    scale = max(1.0, np.linalg.norm(M))
    dev = np.linalg.norm(M - M.conj().T)
    if dev > tol * scale:
        raise StructureError(
            f"{what} is not Hermitian: ||M - M*|| = {dev:.3e} "
            f"exceeds {tol:.1e} * {scale:.3e}"
        )


@dataclass(frozen=True)
class HermitianSpectrum:
    """Sorted eigenvalues and aligned orthonormal basis of a Hermitian matrix.

    eigenvalues are ascending; column j of basis belongs to eigenvalues[j].
    near_degenerate is set when two eigenvalues sit closer than 1e-9, a
    regime where individual eigenvectors stop being well defined.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    near_degenerate: bool = field(default=False)

    def reconstruct(self):
        U = self.basis
        return (U * self.eigenvalues) @ U.conj().T


@dataclass(frozen=True)
class CharPoly:
    """Coefficients K_0..K_N of det(y I - M) = sum_m K_{N-m} y^m, K_0 = 1."""

    coefficients: np.ndarray

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __getitem__(self, m):
        return self.coefficients[m]


def hermitian_eigen(M):
    """Eigendecomposition with the package-wide sorting convention."""
    M = _as_square(M)
    _require_hermitian(M)
    w, U = np.linalg.eigh((M + M.conj().T) / 2.0)
    flagged = bool(len(w) > 1 and np.min(np.diff(w)) < _DEGENERACY_GAP)
    return HermitianSpectrum(eigenvalues=w, basis=U, near_degenerate=flagged)


def char_poly(M):
    """Characteristic coefficients from the eigenvalues of M."""
    M = _as_square(M)
    return CharPoly(coefficients=np.poly(np.linalg.eigvals(M)).astype(complex))


def iwasawa_qr(K):
    """Split K = g_L b_R^{-1} with g_L unitary and b_R upper triangular.

    The diagonal of b_R is strictly positive, which makes the pair unique.
    For det(K) = 1 both factors land in the det-1 subgroups automatically.
    """
    K = _as_square(K)
    Q, R = np.linalg.qr(K)
    d = np.diagonal(R).copy()
    if np.min(np.abs(d)) < 1e-13 * max(1.0, np.linalg.norm(K)):
        raise FactorizationError("matrix is singular to working precision")
    phases = d / np.abs(d)
    g_L = Q * phases  # scales column j by phases[j]
    R_pos = R / phases[:, None]
    b_R = np.linalg.inv(R_pos)
    return g_L, b_R


def spectral_flow(lambda0, X, t):
    """Descending spectrum of exp(L0) exp(tX) exp(L0) for diagonal L0.

    lambda0 holds the diagonal entries of L0.  The product is congruent
    to a positive matrix, so the result is positive; sorting is
    descending to match the ordered-coordinate conventions used by the
    system modules.
    """
    lambda0 = np.asarray(lambda0, dtype=float)
    if lambda0.ndim != 1:
        raise StructureError("lambda0 must be a 1-d array of diagonal entries")
    X = _as_square(X)
    _require_hermitian(X, what="flow generator")
    w, U = np.linalg.eigh((X + X.conj().T) / 2.0)
    peak = 2.0 * np.max(np.abs(lambda0)) + abs(t) * np.max(np.abs(w))
    if peak > _EXP_ARG_LIMIT:
        raise RangeError(
            f"exponent magnitude {peak:.1f} exceeds the float64 range"
        )
    e0 = np.exp(lambda0)
    core = (U * np.exp(t * w)) @ U.conj().T
    A = e0[:, None] * core * e0[None, :]
    A = (A + A.conj().T) / 2.0
    return np.linalg.eigvalsh(A)[::-1]
