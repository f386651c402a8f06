from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import random_hermitian, random_psd
from tribell import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    adjoint,
    commutator,
    herm_eig,
    kron,
    pauli,
    psd_sqrt,
)
from tribell.linalg import _fix_phases, _kron


def test_kron_known_product():
    got = kron(pauli("x"), pauli("z"))
    want = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_kron_shape_growth():
    a = np.eye(2)
    assert kron(a, a).shape == (4, 4)
    assert kron(a, kron(a, a)).shape == (8, 8)


def test_adjoint_conjugates_and_transposes():
    m = np.array([[1.0, 2.0j], [3.0, 4.0]])
    np.testing.assert_allclose(adjoint(m), np.array([[1.0, 3.0], [-2.0j, 4.0]]), atol=0)


def test_commutator_pauli_algebra():
    np.testing.assert_allclose(commutator(pauli("x"), pauli("y")), 2j * pauli("z"), atol=1e-15)
    np.testing.assert_allclose(commutator(pauli("z"), pauli("z")), np.zeros((2, 2)), atol=0)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(7)
    a, b = random_hermitian(rng, 8), random_hermitian(rng, 8)
    np.testing.assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-12)


def test_commutator_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatchError):
        commutator(np.eye(2), np.eye(4))


def test_herm_eig_reconstructs_many_random_matrices():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        a = random_hermitian(rng, 8)
        eig = herm_eig(a)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        worst = max(worst, float(np.max(np.abs(rebuilt - a))))
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
    assert worst <= 1e-10


def test_herm_eig_phase_convention():
    rng = np.random.default_rng(1)
    for _ in range(200):
        eig = herm_eig(random_hermitian(rng, 8))
        for k in range(8):
            col = eig.eigenvectors[:, k]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real > 0.0


def test_herm_eig_columns_orthonormal():
    rng = np.random.default_rng(2)
    eig = herm_eig(random_hermitian(rng, 8))
    v = eig.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-12)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_tolerance_is_adjustable():
    a = np.array([[1.0, 1e-8], [0.0, 2.0]])
    with pytest.raises(NotHermitianError):
        herm_eig(a)
    eig = herm_eig(a, tol=1e-6)
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0], atol=1e-7)


def test_psd_sqrt_squares_back_on_many_random_inputs():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        a = random_psd(rng, 8)
        root = psd_sqrt(a)
        worst = max(worst, float(np.max(np.abs(root @ root - a))))
    assert worst <= 1e-10


def test_psd_sqrt_of_projector_is_projector():
    rng = np.random.default_rng(4)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v = v / np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    np.testing.assert_allclose(psd_sqrt(proj), proj, atol=1e-13)


def test_psd_sqrt_known_diagonal():
    got = psd_sqrt(np.diag([0.75, 0.25]))
    np.testing.assert_allclose(got, np.diag([math.sqrt(3.0) / 2.0, 0.5]), atol=1e-15)


def test_psd_sqrt_is_hermitian():
    rng = np.random.default_rng(5)
    root = psd_sqrt(random_psd(rng, 8))
    np.testing.assert_allclose(root, root.conj().T, atol=0)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(pauli("z"))


def test_psd_sqrt_tolerates_tiny_negative_eigenvalues():
    root = psd_sqrt(np.diag([1.0, -5e-13]))
    np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12)


def test_matrix_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        herm_eig(np.ones(4))


@given(st.integers(min_value=0, max_value=10**6))
def test_herm_eig_spectrum_matches_numpy(seed):
    a = random_hermitian(np.random.default_rng(seed), 4)
    eig = herm_eig(a)
    np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(a), atol=1e-10)


def test_unchecked_kron_matches_numpy_bits():
    rng = np.random.default_rng(18)
    for dim_a, dim_b in ((2, 2), (4, 4), (2, 4), (4, 2)):
        for _ in range(50):
            a = rng.normal(size=(dim_a, dim_a)) + 1j * rng.normal(size=(dim_a, dim_a))
            b = rng.normal(size=(dim_b, dim_b)) + 1j * rng.normal(size=(dim_b, dim_b))
            assert np.array_equal(_kron(a, b), np.kron(a, b))
            assert _kron(a, b).tobytes() == np.kron(a, b).tobytes()


def _fix_phases_loop(vectors):
    """Column-by-column reference for the vectorised _fix_phases."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if np.abs(pivot) > 0.0:
            out[:, k] = col * (np.conj(pivot) / np.abs(pivot))
    return out


def test_fix_phases_matches_loop_reference():
    rng = np.random.default_rng(18)
    for dim in (2, 8):
        for _ in range(100):
            _, vectors = np.linalg.eigh(random_hermitian(rng, dim))
            assert _fix_phases(vectors).tobytes() == _fix_phases_loop(vectors).tobytes()
        # v and 1j * v have bit-equal moduli: a tie, which the first index wins
        _, vectors = np.linalg.eigh(random_hermitian(rng, dim))
        v = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) / math.sqrt(2.0)
        vectors[:, 0] = 0.0
        vectors[0, 0], vectors[1, 0] = v, 1j * v
        assert np.abs(vectors[0, 0]) == np.abs(vectors[1, 0])
        fixed = _fix_phases(vectors)
        assert fixed.tobytes() == _fix_phases_loop(vectors).tobytes()
        np.testing.assert_allclose(fixed[:2, 0], np.array([1.0, 1j]) / math.sqrt(2.0), atol=1e-15)
