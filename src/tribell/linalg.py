"""Dense complex linear algebra helpers shared by the rest of the package.

Everything here operates on plain numpy arrays.  Structural wrappers
(density matrices, observables, bases) live in :mod:`tribell.states`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_FLOOR = -1e-12
# Relative spectral cutoff used by psd_sqrt: eigenvalues below
# 64 * eps * lambda_max are rounding debris of exact zeros, and taking
# sqrt would amplify them from ~1e-16 to ~1e-8.
SPECTRAL_CUTOFF_FACTOR = 64.0


class NotHermitianError(ValueError):
    """Raised when a matrix expected to be Hermitian is not."""


class NotPSDError(ValueError):
    """Raised when a matrix expected to be positive semidefinite is not."""


class DimensionMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


class NoConvergenceError(RuntimeError):
    """Raised when an iterative eigensolve fails to converge."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a finite 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return _require_finite(m)


def _require_finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return _kron(as_complex_matrix(a), as_complex_matrix(b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked np.kron of each pair of matrices in broadcast (..., m, n) stacks: the same one product per entry, so the same bits."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], out.shape[-4] * out.shape[-3], -1)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(a).conj().T


def commutator(a, b) -> np.ndarray:
    """Matrix commutator a @ b - b @ a."""
    ma = _require_square(as_complex_matrix(a))
    mb = _require_square(as_complex_matrix(b))
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes differ: {ma.shape} vs {mb.shape}")
    return ma @ mb - mb @ ma


def hermiticity_defect(a) -> float:
    """Largest entrywise deviation of a from its own adjoint."""
    return _hermiticity_defect(_require_square(as_complex_matrix(a)))


def _hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from the adjoint over a square (..., n, n) stack."""
    return float(np.max(np.abs(m - _adjoint(m)))) if m.size else 0.0


@dataclass(frozen=True)
class HermEigen:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors[:, k] is the unit eigenvector
    for eigenvalues[k], with its global phase fixed so that the component
    of largest modulus (first such index on ties) is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each unit column (of each stacked matrix) so its largest-modulus component, first on ties, is real positive."""
    v = vectors.reshape(-1, *vectors.shape[-2:])
    moduli = np.abs(v)
    stack, idx, cols = np.arange(len(v))[:, None], np.argmax(moduli, axis=1), np.arange(v.shape[-1])
    return (v * (np.conj(v[stack, idx, cols]) / moduli[stack, idx, cols])[:, None, :]).reshape(vectors.shape)


def herm_eig(a, tol: float = HERMITICITY_TOL) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    Raises NotHermitianError if the hermiticity defect exceeds tol, and
    NoConvergenceError if the underlying solver fails.
    """
    return HermEigen(*_herm_eigh(_require_square(as_complex_matrix(a)), tol))


def _herm_eigh(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """herm_eig's check, eigensolve and phase convention on each matrix of a square (..., n, n) stack."""
    defect = _hermiticity_defect(m)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
    try:
        values, vectors = np.linalg.eigh(0.5 * (m + _adjoint(m)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolve did not converge: {exc}") from exc
    return values, _fix_phases(vectors)


def psd_sqrt(a) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix, or of each in a (..., n, n) stack.

    Eigenvalues in [PSD_FLOOR, 0) are treated as exact zeros, as are
    nonnegative eigenvalues below each matrix's relative spectral cutoff.
    Anything below PSD_FLOOR raises NotPSDError.
    """
    m = np.asarray(a, dtype=complex)
    m = _require_finite(m) if m.ndim > 2 else as_complex_matrix(m)
    values, vectors = _herm_eigh(_require_square(m), HERMITICITY_TOL)
    lowest = float(np.min(values, initial=0.0))
    if lowest < PSD_FLOOR:
        raise NotPSDError(f"minimum eigenvalue {lowest:.3e} is below {PSD_FLOOR:.1e}")
    top = np.max(values, axis=-1, keepdims=True, initial=0.0)
    clean = np.where(values < SPECTRAL_CUTOFF_FACTOR * np.finfo(float).eps * top, 0.0, values)
    root = (vectors * np.sqrt(clean)[..., None, :]) @ _adjoint(vectors)
    return 0.5 * (root + _adjoint(root))
