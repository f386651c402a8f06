from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tribell import (
    DensityMatrix,
    DimensionMismatchError,
    Ket,
    NotHermitianError,
    Observable,
    ParameterOutOfRangeError,
    ProductBasis,
    bloch_observable,
    collective_observable,
    computational_kets,
    eigenbasis,
    ghz_class_pure,
    ghz_state,
    herm_eig,
    pauli,
    product_basis,
    product_state,
    psd_sqrt,
    pure_density,
    random_single_qubit_state,
    w_class_pure,
    w_state,
    werner_mix,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_pauli_algebra():
    for axis in "xyz":
        np.testing.assert_allclose(pauli(axis) @ pauli(axis), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(pauli("x") @ pauli("y"), 1j * pauli("z"), atol=1e-15)
    np.testing.assert_allclose(pauli("x") @ pauli("y") + pauli("y") @ pauli("x"), np.zeros((2, 2)), atol=1e-15)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_bloch_observable_axis_directions():
    np.testing.assert_allclose(bloch_observable(0.0, 0.0).matrix, pauli("z"), atol=1e-15)
    np.testing.assert_allclose(bloch_observable(math.pi / 2.0, 0.0).matrix, pauli("x"), atol=1e-15)
    np.testing.assert_allclose(bloch_observable(math.pi / 2.0, math.pi / 2.0).matrix, pauli("y"), atol=1e-15)


@given(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
def test_bloch_observable_is_dichotomic(theta, phi):
    m = bloch_observable(theta, phi).matrix
    np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(m)), [-1.0, 1.0], atol=1e-12)


def test_w_class_pure_amplitude_layout():
    ket = w_class_pure(0.3, 0.7)
    amp = ket.amplitudes
    assert abs(amp[1] - math.cos(0.3) * math.cos(0.7)) < 1e-15
    assert abs(amp[2] - math.cos(0.3) * math.sin(0.7)) < 1e-15
    assert abs(amp[4] - math.sin(0.3)) < 1e-15
    assert np.all(amp[[0, 3, 5, 6, 7]] == 0.0)


def test_w_state_is_symmetric_point():
    special = w_class_pure(math.asin(1.0 / math.sqrt(3.0)), math.pi / 4.0)
    np.testing.assert_allclose(special.amplitudes, w_state().amplitudes, atol=1e-12)
    np.testing.assert_allclose(w_state().amplitudes[[1, 2, 4]], [1 / math.sqrt(3.0)] * 3, atol=1e-15)


def test_ghz_state_layout():
    np.testing.assert_allclose(ghz_class_pure(math.pi / 4.0).amplitudes, ghz_state().amplitudes, atol=1e-15)
    amp = ghz_state().amplitudes
    assert abs(amp[0] - INV_SQRT2) < 1e-15 and abs(amp[7] - INV_SQRT2) < 1e-15


def test_ket_rejects_unnormalized_and_bad_input():
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Ket(np.array([np.inf, 0.0]))
    with pytest.raises(DimensionMismatchError):
        Ket(np.eye(2))


def test_pure_density_is_rank_one_projector():
    rho = pure_density(w_state())
    m = rho.matrix
    np.testing.assert_allclose(m @ m, m, atol=1e-12)
    assert abs(np.trace(m) - 1.0) < 1e-12
    lam = np.linalg.eigvalsh(m)
    np.testing.assert_allclose(lam[-1], 1.0, atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(NotHermitianError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(4) / 4.0)


def test_observable_validation():
    with pytest.raises(NotHermitianError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Observable(pauli("x") + np.eye(2))
    ob = Observable(pauli("x") + np.eye(2), dichotomic=False)
    assert not ob.dichotomic


def test_werner_mix_endpoints_and_spectrum():
    rho = pure_density(w_state())
    np.testing.assert_allclose(werner_mix(rho, 0.0).matrix, rho.matrix, atol=1e-15)
    np.testing.assert_allclose(werner_mix(rho, 1.0).matrix, np.eye(8) / 8.0, atol=1e-15)
    p = 0.37
    lam = np.sort(np.linalg.eigvalsh(werner_mix(rho, p).matrix))
    np.testing.assert_allclose(lam[:7], [p / 8.0] * 7, atol=1e-12)
    np.testing.assert_allclose(lam[7], 1.0 - 7.0 * p / 8.0, atol=1e-12)


def test_werner_mix_half_entries():
    m = werner_mix(pure_density(w_state()), 0.5).matrix
    assert abs(m[1, 1] - (1.0 / 16.0 + 1.0 / 6.0)) < 1e-12
    assert abs(m[1, 2] - 1.0 / 6.0) < 1e-12
    assert abs(m[0, 0] - 1.0 / 16.0) < 1e-12
    assert abs(m[1, 0]) < 1e-15


def test_werner_mix_rejects_out_of_range():
    rho = pure_density(w_state())
    for p in (-0.01, 1.01):
        with pytest.raises(ParameterOutOfRangeError):
            werner_mix(rho, p)


def test_product_state_structure():
    a = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    c = DensityMatrix((np.eye(2) + pauli("x")) / 2.0)
    rho = product_state(a, b, c)
    want = np.kron(a.matrix, np.kron(b.matrix, c.matrix))
    np.testing.assert_allclose(rho.matrix, want, atol=1e-15)
    with pytest.raises(DimensionMismatchError):
        product_state(a, b, pure_density(w_state()))


def test_eigenbasis_orders_and_phases():
    low, high = eigenbasis(Observable(pauli("z")))
    np.testing.assert_allclose(low.amplitudes, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(high.amplitudes, [1.0, 0.0], atol=1e-12)

    low, high = eigenbasis(Observable(pauli("x")))
    np.testing.assert_allclose(low.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=1e-12)
    np.testing.assert_allclose(high.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    low, high = eigenbasis(Observable(-pauli("y")))
    np.testing.assert_allclose(low.amplitudes, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-12)
    np.testing.assert_allclose(high.amplitudes, [INV_SQRT2, -1j * INV_SQRT2], atol=1e-12)


def test_eigenbasis_satisfies_eigen_equation():
    ob = bloch_observable(1.1, 2.3)
    eig = herm_eig(ob.matrix)
    for ket, lam in zip(eigenbasis(ob), eig.eigenvalues):
        np.testing.assert_allclose(ob.matrix @ ket.amplitudes, lam * ket.amplitudes, atol=1e-12)


def test_product_basis_labels_and_columns():
    basis = product_basis(Observable(pauli("x")), Observable(-pauli("y")), Observable(pauli("z")))
    assert basis.labels == tuple((i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2))
    a = eigenbasis(Observable(pauli("x")))
    b = eigenbasis(Observable(-pauli("y")))
    c = eigenbasis(Observable(pauli("z")))
    u = basis.unitary()
    for idx, (i, j, k) in enumerate(basis.labels):
        want = np.kron(a[i - 1].amplitudes, np.kron(b[j - 1].amplitudes, c[k - 1].amplitudes))
        np.testing.assert_allclose(u[:, idx], want, atol=1e-12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


def test_product_basis_rejects_non_orthonormal():
    kets = computational_kets(8)
    with pytest.raises(ValueError):
        ProductBasis(kets=(kets[0],) * 8)


def test_collective_observable_diagonal_case():
    z = Observable(pauli("z"))
    got = collective_observable(z, z, z)
    np.testing.assert_allclose(got, np.diag([3, 1, 1, -1, 1, -1, -1, -3]).astype(complex), atol=1e-15)


def test_computational_kets():
    kets = computational_kets(8)
    assert len(kets) == 8
    np.testing.assert_allclose(np.column_stack([k.amplitudes for k in kets]), np.eye(8), atol=0)


def test_random_single_qubit_state_is_deterministic_and_valid():
    first = random_single_qubit_state(42)
    second = random_single_qubit_state(42)
    np.testing.assert_allclose(first.matrix, second.matrix, atol=0)
    other = random_single_qubit_state(43)
    assert float(np.max(np.abs(first.matrix - other.matrix))) > 1e-3
    for seed in range(200):
        lam = np.linalg.eigvalsh(random_single_qubit_state(seed).matrix)
        assert lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12


@given(st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_werner_mix_preserves_validity(p, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = pure_density(Ket(v / np.linalg.norm(v)))
    mixed = werner_mix(rho, p)
    assert abs(np.trace(mixed.matrix) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(mixed.matrix).min() >= -1e-12


def test_bloch_observable_rejects_non_finite_angles():
    for theta, phi in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            bloch_observable(theta, phi)


def test_bloch_observable_matches_checked_constructor():
    rng = np.random.default_rng(18)
    for theta, phi in rng.uniform(-10.0, 10.0, size=(200, 2)):
        n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
        checked = Observable(n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z"))
        trusted = bloch_observable(theta, phi)
        assert np.array_equal(trusted.matrix, checked.matrix)
        assert trusted.dichotomic and not trusted.matrix.flags.writeable


def test_density_root_is_cached_and_read_only():
    rho = werner_mix(pure_density(w_state()), 0.3)
    assert rho.root is rho.root
    assert np.array_equal(rho.root, psd_sqrt(rho.matrix))
    with pytest.raises(ValueError):
        rho.root[0, 0] = 0.0


def test_density_matrix_trace_and_eigenvalue_boundaries():
    for delta in (2e-10, -2e-10):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5 + delta, 0.5]))
    for delta in (5e-11, -5e-11):
        DensityMatrix(np.diag([0.5 + delta, 0.5]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.0 + 2e-12, -2e-12]))
    DensityMatrix(np.diag([1.0 + 5e-13, -5e-13]))


def test_ket_norm_boundary():
    with pytest.raises(ValueError):
        Ket(np.array([1.0 + 2e-10, 0.0]))
    Ket(np.array([1.0 + 5e-11, 0.0]))


def test_pure_density_checks_the_trace_a_ket_within_norm_tol_can_miss():
    amp = np.zeros(8)
    amp[0] = 1.0 + 0.6e-10
    with pytest.raises(ValueError):
        pure_density(Ket(amp))
    amp[0] = 1.0 + 0.4e-10
    assert abs(np.trace(pure_density(Ket(amp)).matrix) - 1.0) <= 1e-10
    with pytest.raises(DimensionMismatchError):
        pure_density(computational_kets(4)[0])


def _raw_single_qubit_state(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = rng.normal(size=3)
    while np.linalg.norm(n) < 1e-12:
        n = rng.normal(size=3)
    n = n / float(np.linalg.norm(n))
    r = float(rng.uniform())
    return 0.5 * (np.eye(2) + r * (n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z")))


def test_trusted_builders_match_the_checked_constructors():
    rng = np.random.default_rng(23)
    bases = []
    for theta, phi in rng.uniform(0.0, 1.0, size=(200, 2)) * (math.pi, 2.0 * math.pi):
        raw_w = np.zeros(8, dtype=complex)
        raw_w[[1, 2, 4]] = np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), np.sin(theta)
        raw_ghz = np.zeros(8, dtype=complex)
        raw_ghz[[0, 7]] = np.cos(theta), np.sin(theta)
        for trusted, raw in ((w_class_pure(theta, phi), raw_w), (ghz_class_pure(theta), raw_ghz)):
            assert trusted.amplitudes.tobytes() == Ket(raw).amplitudes.tobytes()
            v = trusted.amplitudes
            rho = pure_density(trusted)
            assert rho.matrix.tobytes() == DensityMatrix(np.outer(v, v.conj())).matrix.tobytes()
            bases.append(rho)
    for p in [0.0, 1.0, *rng.uniform(0.0, 1.0, size=50)]:
        for rho in (bases[0], bases[1], pure_density(w_state()), pure_density(ghz_state())):
            raw = (p / 8) * np.eye(8) + (1.0 - p) * rho.matrix
            assert werner_mix(rho, p).matrix.tobytes() == DensityMatrix(raw).matrix.tobytes()
    for seed in range(200):
        raw = _raw_single_qubit_state(seed)
        assert random_single_qubit_state(seed).matrix.tobytes() == DensityMatrix(raw).matrix.tobytes()


def test_family_kets_reject_non_finite_angles():
    for bad in (math.nan, math.inf, -math.inf):
        for theta, phi in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError):
                w_class_pure(theta, phi)
        with pytest.raises(ValueError):
            ghz_class_pure(bad)
