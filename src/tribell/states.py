"""State vectors, density matrices, observables and product eigenbases.

Qubit ordering for three-party states is |abc> with index 4a + 2b + c,
party A owning the most significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionMismatchError,
    HERMITICITY_TOL,
    NotHermitianError,
    _adjoint,
    _hermiticity_defect,
    _kron,
    _require_finite,
    as_complex_matrix,
    herm_eig,
    hermiticity_defect,
)

NORM_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-12
DICHOTOMIC_TOL = 1e-9

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


class ParameterOutOfRangeError(ValueError):
    """Raised when a family parameter falls outside its closed domain."""


def _require_unit_trace(m: np.ndarray) -> np.ndarray:
    traces = np.atleast_1d(np.trace(m, axis1=-2, axis2=-1))
    off = traces[np.abs(traces - 1.0) > TRACE_TOL]
    if off.size:
        raise ValueError(f"density matrix trace {complex(off[0])!r} deviates from 1")
    return m


def _checked_density(m: np.ndarray) -> np.ndarray:
    """Symmetrised copy of a complex (..., d, d) stack whose every member passes the density-matrix checks.

    In order: finite entries, d of 2 or 8, hermiticity, unit trace, no eigenvalue below EIGENVALUE_FLOOR.
    """
    _require_finite(m)
    if m.shape[-2:] not in ((2, 2), (8, 8)):
        raise DimensionMismatchError(f"density matrix must be 2x2 or 8x8, got {m.shape}")
    defect = _hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"density matrix hermiticity defect {defect:.3e}")
    _require_unit_trace(m)
    sym = _symmetrised(m)
    lowest = float(np.linalg.eigvalsh(sym).min())
    if lowest < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has eigenvalue {lowest:.3e} below {EIGENVALUE_FLOOR:.1e}")
    return sym


def _symmetrised(m: np.ndarray) -> np.ndarray:
    """0.5 (m + m^dagger) of each matrix in a (..., d, d) stack: what a DensityMatrix stores."""
    return 0.5 * (m + _adjoint(m))


def _frozen_array(obj, name: str, value: np.ndarray) -> None:
    value = value.copy()
    value.setflags(write=False)
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Ket:
    """A unit-norm complex state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.ndim != 1:
            raise DimensionMismatchError(f"ket must be 1-D, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ket contains non-finite amplitudes")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"ket norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        _frozen_array(self, "amplitudes", arr)

    @classmethod
    def _trusted(cls, amp: np.ndarray) -> "Ket":
        """Unchecked ket from complex amplitudes that are unit-norm by construction."""
        ket = object.__new__(cls)
        _frozen_array(ket, "amplitudes", amp)
        return ket

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix on one or three qubits."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        _frozen_array(self, "matrix", _checked_density(as_complex_matrix(self.matrix)))

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "DensityMatrix":
        """Unchecked density matrix from a complex 2x2 or 8x8 the package built; same symmetrisation."""
        rho = object.__new__(cls)
        _frozen_array(rho, "matrix", _symmetrised(m))
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Observable:
    """A single-qubit Hermitian observable, dichotomic (M @ M = I) by default."""

    matrix: np.ndarray
    dichotomic: bool = True

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix)
        if m.shape != (2, 2):
            raise DimensionMismatchError(f"observable must be 2x2, got {m.shape}")
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise NotHermitianError(f"observable hermiticity defect {defect:.3e}")
        if self.dichotomic:
            unit_defect = float(np.max(np.abs(m @ m - np.eye(2))))
            if unit_defect > DICHOTOMIC_TOL:
                raise ValueError(f"observable squared deviates from identity by {unit_defect:.3e}")
        _frozen_array(self, "matrix", m)

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "Observable":
        """Unchecked observable, for n . sigma with a unit n that the package built."""
        obs = object.__new__(cls)
        _frozen_array(obs, "matrix", m)
        object.__setattr__(obs, "dichotomic", True)
        return obs


@dataclass(frozen=True)
class ProductBasis:
    """Orthonormal 8-dim product basis with (i, j, k) setting labels.

    kets are ordered lexicographically by label, (1,1,1) through (2,2,2),
    and each ket is the Kronecker product of one eigenvector per party.
    """

    kets: tuple[Ket, ...]
    labels: tuple[tuple[int, int, int], ...] = field(
        default=tuple((i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2))
    )

    def __post_init__(self) -> None:
        kets = tuple(self.kets)
        if len(kets) != 8 or any(ket.dim != 8 for ket in kets):
            raise DimensionMismatchError("product basis needs eight 8-dim kets")
        u = np.column_stack([ket.amplitudes for ket in kets])
        gram_defect = float(np.max(np.abs(u.conj().T @ u - np.eye(8))))
        if gram_defect > NORM_TOL:
            raise ValueError(f"basis kets deviate from orthonormality by {gram_defect:.3e}")
        labels = tuple(tuple(int(x) for x in lab) for lab in self.labels)
        if len(labels) != 8 or any(len(lab) != 3 for lab in labels):
            raise ValueError("labels must be eight (i, j, k) triples")
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "labels", labels)

    def unitary(self) -> np.ndarray:
        """Basis kets stacked as the columns of an 8x8 unitary."""
        return np.column_stack([ket.amplitudes for ket in self.kets])


def pauli(axis: str) -> np.ndarray:
    """One of the Pauli matrices, selected by axis name 'x', 'y' or 'z'."""
    table = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z, "i": IDENTITY_2}
    key = axis.lower()
    if key not in table:
        raise ValueError(f"unknown axis {axis!r}, expected one of x, y, z, i")
    return table[key].copy()


def bloch_observable(theta: float, phi: float) -> Observable:
    """Dichotomic observable n . sigma for the Bloch direction (theta, phi); angles must be finite."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"Bloch angles must be finite, got ({theta!r}, {phi!r})")
    return Observable._trusted(_bloch_matrices(theta, phi))


def _bloch_matrices(theta, phi) -> np.ndarray:
    """n . sigma for Bloch directions (theta, phi), (..., 2, 2) for like-shaped angle arrays."""
    n = [v[..., None, None] for v in (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))]
    return n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z


def w_class_pure(theta: float, phi: float) -> Ket:
    """Three-qubit W-class pure state cos(t)cos(f)|001> + cos(t)sin(f)|010> + sin(t)|100>."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"W-class angles must be finite, got ({theta!r}, {phi!r})")
    return Ket._trusted(_w_amplitudes(theta, phi))


def _w_amplitudes(theta, phi) -> np.ndarray:
    """w_class_pure's amplitudes, (..., 8) for like-shaped angle arrays."""
    a1, a2, a4 = np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), np.sin(theta)
    amp = np.zeros(a1.shape + (8,), dtype=complex)
    amp[..., 1], amp[..., 2], amp[..., 4] = a1, a2, a4
    return amp


def ghz_class_pure(theta: float) -> Ket:
    """Three-qubit GHZ-class pure state cos(t)|000> + sin(t)|111>."""
    if not math.isfinite(theta):
        raise ValueError(f"GHZ-class angle must be finite, got {theta!r}")
    return Ket._trusted(_ghz_amplitudes(theta))


def _ghz_amplitudes(theta) -> np.ndarray:
    """ghz_class_pure's amplitudes, (..., 8) for an angle array."""
    a0, a7 = np.cos(theta), np.sin(theta)
    amp = np.zeros(a0.shape + (8,), dtype=complex)
    amp[..., 0], amp[..., 7] = a0, a7
    return amp


def w_state() -> Ket:
    """The symmetric W state, w_class_pure at theta = arcsin(1/sqrt(3)), phi = pi/4."""
    amp = np.zeros(8, dtype=complex)
    amp[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return Ket(amp)


def ghz_state() -> Ket:
    """The GHZ state, ghz_class_pure at theta = pi/4."""
    amp = np.zeros(8, dtype=complex)
    amp[[0, 7]] = 1.0 / np.sqrt(2.0)
    return Ket(amp)


def pure_density(ket: Ket) -> DensityMatrix:
    """Rank-one projector onto a ket: PSD by construction, but a norm within NORM_TOL can miss TRACE_TOL."""
    v = ket.amplitudes
    if v.shape[0] not in (2, 8):
        raise DimensionMismatchError(f"density matrix must be 2x2 or 8x8, got a {v.shape[0]}-dim ket")
    return DensityMatrix._trusted(_projectors(v))


def _projectors(amps: np.ndarray) -> np.ndarray:
    """np.outer(v, v.conj()) for each ket v of a (..., d) stack; a trace off 1 by more than TRACE_TOL raises."""
    return _require_unit_trace(amps[..., :, None] * amps.conj()[..., None, :])


def werner_mix(rho: DensityMatrix, p: float) -> DensityMatrix:
    """White-noise mixture (p / dim) I + (1 - p) rho for p in [0, 1]; convex, so valid unchecked."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRangeError(f"mixing weight p={p!r} outside [0, 1]")
    return DensityMatrix._trusted(_werner_matrix(rho.matrix, p))


def _werner_matrix(m: np.ndarray, p) -> np.ndarray:
    """(p / d) I + (1 - p) m, for a float p or a (..., 1, 1) array of them."""
    return (p / m.shape[-1]) * np.eye(m.shape[-1]) + (1.0 - p) * m


def product_state(a: DensityMatrix, b: DensityMatrix, c: DensityMatrix) -> DensityMatrix:
    """Tensor product of three single-qubit density matrices."""
    for part in (a, b, c):
        if part.dim != 2:
            raise DimensionMismatchError("product_state expects three single-qubit factors")
    return DensityMatrix(_kron(_kron(a.matrix, b.matrix), c.matrix))


def eigenbasis(m: Observable) -> tuple[Ket, Ket]:
    """Eigenvectors of a single-qubit observable, ascending by eigenvalue."""
    eig = herm_eig(m.matrix)
    return (Ket(eig.eigenvectors[:, 0]), Ket(eig.eigenvectors[:, 1]))


def product_basis(ma: Observable, mb: Observable, mc: Observable) -> ProductBasis:
    """Joint eigenbasis of three local observables, labelled by setting triple.

    Label component 1 picks the lower eigenvector of that party's
    observable and 2 the upper one; kets come out in lexicographic label
    order so column (i-1)*4 + (j-1)*2 + (k-1) of the unitary carries
    label (i, j, k).
    """
    basis_a = eigenbasis(ma)
    basis_b = eigenbasis(mb)
    basis_c = eigenbasis(mc)
    kets = []
    labels = []
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                vec = np.kron(
                    basis_a[i - 1].amplitudes,
                    np.kron(basis_b[j - 1].amplitudes, basis_c[k - 1].amplitudes),
                )
                kets.append(Ket(vec))
                labels.append((i, j, k))
    return ProductBasis(kets=tuple(kets), labels=tuple(labels))


def collective_observable(x: Observable, y: Observable, z: Observable) -> np.ndarray:
    """Sum of one local observable per party, X (x) I (x) I + I (x) Y (x) I + I (x) I (x) Z."""
    return _collective_matrices(x.matrix, y.matrix, z.matrix)


def _collective_matrices(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """collective_observable of each triple of 2x2 matrices in broadcast (..., 2, 2) stacks."""
    return (
        _kron(_kron(x, IDENTITY_2), IDENTITY_2)
        + _kron(_kron(IDENTITY_2, y), IDENTITY_2)
        + _kron(_kron(IDENTITY_2, IDENTITY_2), z)
    )


def computational_kets(dim: int) -> tuple[Ket, ...]:
    """Standard basis kets of the given dimension."""
    eye = np.eye(dim, dtype=complex)
    return tuple(Ket(eye[:, k]) for k in range(dim))


def random_single_qubit_state(seed: int) -> DensityMatrix:
    """Deterministic random single-qubit state from a seed.

    Draws a direction from three normals (normalized), then a Bloch
    radius uniform on [0, 1), in that order, from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    n = rng.normal(size=3)
    norm = float(np.linalg.norm(n))
    while norm < 1e-12:
        n = rng.normal(size=3)
        norm = float(np.linalg.norm(n))
    n = n / norm
    r = float(rng.uniform())
    bloch = r * (n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)
    return DensityMatrix._trusted(0.5 * (IDENTITY_2 + bloch))
