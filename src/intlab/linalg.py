"""Dense complex linear-algebra contracts shared by the system modules.

Hermitian eigendecompositions and characteristic polynomials.  Everything
here is plain numpy on small dense matrices; the value added is the
fixed conventions (sorting, degeneracy flag, monic coefficients) that
the rest of the package relies on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StructureError

# Gap below which a Hermitian spectrum is flagged as near-degenerate.
# Downstream code decides what to do with the flag.
_DEGENERACY_GAP = 1e-9


def _as_square(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class HermitianSpectrum:
    """Sorted eigenvalues and aligned orthonormal basis of a Hermitian matrix.

    eigenvalues are ascending; column j of basis belongs to eigenvalues[j].
    near_degenerate is set when two eigenvalues sit closer than 1e-9, a
    regime where individual eigenvectors stop being well defined.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    near_degenerate: bool

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
    if not np.all(np.isfinite(M)):
        raise StructureError("matrix has non-finite entries")
    scale = max(1.0, np.linalg.norm(M))
    dev = np.linalg.norm(M - M.conj().T)
    if dev > 1e-12 * scale:
        raise StructureError(
            f"matrix is not Hermitian: ||M - M*|| = {dev:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    w, U = np.linalg.eigh((M + M.conj().T) / 2.0)
    flagged = bool(len(w) > 1 and np.min(np.diff(w)) < _DEGENERACY_GAP)
    return HermitianSpectrum(eigenvalues=w, basis=U, near_degenerate=flagged)


def char_poly(M):
    """Characteristic coefficients from the eigenvalues of M."""
    M = _as_square(M)
    return CharPoly(coefficients=np.poly(np.linalg.eigvals(M)).astype(complex))

