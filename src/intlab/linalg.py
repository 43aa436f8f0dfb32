"""Dense complex linear-algebra contracts shared by the system modules.

Hermitian eigendecompositions, characteristic polynomials, and the
linear stencil of the pair potentials.  Everything here is plain numpy
on small dense matrices; the value added is the fixed conventions
(sorting, degeneracy flag, monic coefficients, stencil row order) that
the rest of the package relies on.
"""

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class CharPoly:
    """Coefficients K_0..K_N of det(y I - M) = sum_m K_{N-m} y^m, K_0 = 1."""

    coefficients: np.ndarray

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __getitem__(self, m):
        return self.coefficients[m]


@lru_cache(maxsize=None)
def _stencil(n):
    """Incidence matrix T of the pair-potential arguments of n positions.

    T @ q stacks q_j - q_k and then q_j + q_k over the pairs j < k (in
    np.triu_indices order), then q, then 2q; each row has at most two
    nonzero entries, +-1 or a single 2, so every entry of T @ q is exact
    up to one rounding.  `dynamics.pair_system` builds the pair
    potentials and their gradients on it.  Cached and read-only, as every
    caller shares it.
    """
    j, k = np.triu_indices(n, 1)
    eye = np.eye(n)
    T = np.vstack([eye[j] - eye[k], eye[j] + eye[k], eye, 2 * eye])
    T.flags.writeable = False
    return T


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

