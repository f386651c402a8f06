"""Basis-dependent coherence quantifiers and skew information.

Entropies are in bits (log base 2).  Basis arguments accept a
ProductBasis, a sequence of orthonormal Kets, or a unitary ndarray whose
columns are the basis kets.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .linalg import (
    DimensionMismatchError,
    HERMITICITY_TOL,
    NotHermitianError,
    as_complex_matrix,
    hermiticity_defect,
    psd_sqrt,
)
from .states import DensityMatrix, Ket, ProductBasis

ENTROPY_FLOOR = 1e-14
UNITARITY_TOL = 1e-10

BasisLike = ProductBasis | Sequence[Ket] | np.ndarray


def basis_unitary(basis: BasisLike, dim: int) -> np.ndarray:
    """Coerce any accepted basis form into a dim x dim unitary of columns."""
    if isinstance(basis, ProductBasis):
        u = basis.unitary()
    elif isinstance(basis, np.ndarray):
        u = as_complex_matrix(basis)
    else:
        kets = list(basis)
        if not kets or not all(isinstance(k, Ket) for k in kets):
            raise TypeError("basis must be a ProductBasis, a sequence of Kets, or an ndarray")
        u = np.column_stack([k.amplitudes for k in kets])
    if u.shape != (dim, dim):
        raise DimensionMismatchError(f"basis shape {u.shape} does not match state dimension {dim}")
    gram_defect = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if gram_defect > UNITARITY_TOL:
        raise ValueError(f"basis columns deviate from orthonormality by {gram_defect:.3e}")
    return u


def l1_coherence(rho: DensityMatrix, basis: BasisLike) -> float:
    """Sum of moduli of all matrix entries in the given basis, minus one.

    Equals the usual sum over off-diagonal moduli because the diagonal
    moduli of a density matrix add up to one.
    """
    u = basis_unitary(basis, rho.dim)
    rep = u.conj().T @ rho.matrix @ u
    return float(np.sum(np.abs(rep)) - 1.0)


def _prob_entropy(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis (length at most 8), entries at or below ENTROPY_FLOOR dropped.

    Bit for bit np.sum over the kept entries alone, which adds 8 pairwise and fewer in order (the
    zeros left by dropped entries do not change an in-order sum); a row with nothing kept is 0.0.
    """
    kept = p > ENTROPY_FLOOR
    terms = p * np.log2(np.where(kept, p, 1.0))
    total = np.add.accumulate(terms, axis=-1)[..., -1]
    total = np.where(kept.all(axis=-1), np.add.reduce(terms, axis=-1), total)
    return np.where(kept.any(axis=-1), -total, 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy -sum lam log2 lam with tiny eigenvalues dropped."""
    return float(_prob_entropy(np.linalg.eigvalsh(rho.matrix)))


def dephase(rho: DensityMatrix, basis: BasisLike) -> DensityMatrix:
    """Projection onto the diagonal of the given basis."""
    u = basis_unitary(basis, rho.dim)
    rep = u.conj().T @ rho.matrix @ u
    diag = np.diag(np.diag(rep).real.clip(min=0.0).astype(complex))
    out = u @ diag @ u.conj().T
    return DensityMatrix(out / np.trace(out).real)


def relative_entropy_coherence(rho: DensityMatrix, basis: BasisLike) -> float:
    """Entropy of the dephased state minus entropy of the state itself."""
    value = von_neumann_entropy(dephase(rho, basis)) - von_neumann_entropy(rho)
    return max(0.0, value)


def _check_observable_matrix(rho: DensityMatrix, x) -> np.ndarray:
    m = as_complex_matrix(x)
    if m.shape != (rho.dim, rho.dim):
        raise DimensionMismatchError(f"observable shape {m.shape} does not match state dimension {rho.dim}")
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"observable hermiticity defect {defect:.3e}")
    return m


def _skew_from_root(root: np.ndarray, m: np.ndarray) -> np.ndarray:
    """-1/2 Tr [root, m]^2, clamped at 0, over broadcast (..., n, n) stacks of roots and observables."""
    c = root @ m - m @ root
    return _clamp_at_zero((-0.5 * np.trace(c @ c, axis1=-2, axis2=-1)).real)


def _clamp_at_zero(x):
    """max(0.0, x) elementwise for finite x; adding 0.0 turns a -0.0 that np.maximum may keep into 0.0."""
    return np.maximum(x, 0.0) + 0.0


def skew_information(rho: DensityMatrix, x) -> float:
    """Wigner-Yanase skew information -1/2 Tr [sqrt(rho), X]^2."""
    m = _check_observable_matrix(rho, x)
    return float(_skew_from_root(psd_sqrt(rho.matrix), m))


def variance(rho: DensityMatrix, x) -> float:
    """Ordinary variance Tr rho X^2 - (Tr rho X)^2."""
    m = _check_observable_matrix(rho, x)
    mean = float(np.trace(rho.matrix @ m).real)
    second = float(np.trace(rho.matrix @ m @ m).real)
    return max(0.0, second - mean * mean)
