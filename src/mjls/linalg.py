"""Small dense real linear algebra kernels.

Checked entry points to numpy's LAPACK for the synthesis and model
layers: symmetric eigendecomposition, pseudo-inverse, condition number,
and the Kronecker sum.  All operations are pure functions over float64
ndarrays and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NonSquare, NonSymmetric

__all__ = [
    "SymEig",
    "sym_eig",
    "pinv",
    "cond",
    "kron_sum",
    "as_matrix",
    "require_finite",
]

_SYM_TOL = 1e-12
_PINV_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D float64 array without copying when possible."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise NonSquare(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def require_finite(a: np.ndarray, what: str = "matrix") -> None:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{what} contains NaN or Inf entries")


def _require_square(a: np.ndarray, what: str = "matrix") -> None:
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{what} must be square, got shape {a.shape}")


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns, so ``V @ diag(w) @ V.T``
    reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


def sym_eig(m) -> SymEig:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Raises NonSymmetric if ``m`` deviates from symmetry by more than
    ``_SYM_TOL`` (absolute) and NonFinite on NaN/Inf input.  The input is
    symmetrised before the decomposition, so both triangles count.
    """
    a = as_matrix(m)
    require_finite(a, "sym_eig input")
    _require_square(a, "sym_eig input")
    if a.size and np.max(np.abs(a - a.T)) > _SYM_TOL:
        raise NonSymmetric(
            f"matrix is not symmetric within {_SYM_TOL:g} "
            f"(deviation {np.max(np.abs(a - a.T)):.3e})"
        )
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return SymEig(w, v)


def pinv(m, tol: float = _PINV_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values <= tol*sigma_max drop."""
    a = as_matrix(m)
    require_finite(a, "pinv input")
    if a.size == 0:
        raise NonSquare("pinv input must be nonempty")
    if tol < 0.0:
        raise ValueError("pinv tolerance must be nonnegative")
    return np.linalg.pinv(a, rcond=tol)


def cond(m) -> float:
    """2-norm condition number; inf for an exactly singular matrix."""
    a = as_matrix(m)
    require_finite(a, "cond input")
    return float(np.linalg.cond(a))


def kron_sum(g1, g2) -> np.ndarray:
    """Kronecker sum g1 (x) I + I (x) g2 of two square matrices."""
    a = as_matrix(g1)
    b = as_matrix(g2)
    _require_square(a, "kron_sum first operand")
    _require_square(b, "kron_sum second operand")
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)
