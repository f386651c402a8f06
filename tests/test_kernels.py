"""Array kernels and the product-state ensemble evaluated one settings object at a time.

A stack of states must give, state by state, the same bits as the scalar
evaluators, and both must give the bits of the per-term loop the kernels
replaced.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from tribell import (
    DensityMatrix,
    FunctionalKind,
    NotHermitianError,
    evaluate,
    example1_settings,
    example2_settings,
    ghz_state,
    product_state,
    psd_sqrt,
    pure_density,
    random_settings,
    random_single_qubit_state,
    w_state,
    werner_mix,
)
from tribell import bell, verify
from tribell.bell import TERM_SIGNS
from tribell.measures import ENTROPY_FLOOR, _prob_entropy, _skew_from_root, von_neumann_entropy
from tribell.states import _checked_density


def _compressed_entropy(p: np.ndarray) -> float:
    """The entropy as the scalar code first defined it: drop, then np.sum what is kept."""
    p = p[p > ENTROPY_FLOOR]
    return float(-np.sum(p * np.log2(p))) if p.size else 0.0


def _loop_reference(kind: FunctionalKind, rho: DensityMatrix, s) -> float:
    """One term at a time on 8x8 matrices, summed from 0.0 with TERM_SIGNS."""
    entropy = _compressed_entropy(np.linalg.eigvalsh(rho.matrix))
    root = psd_sqrt(rho.matrix)
    total = 0.0
    for k, sign in enumerate(TERM_SIGNS):
        operand = s.term_operands(kind)[k]
        if kind is FunctionalKind.MABK:
            term = float(np.trace(rho.matrix @ operand).real)
        elif kind is FunctionalKind.L1:
            term = float(np.sum(np.abs(operand.conj().T @ rho.matrix @ operand))) - 1.0
        elif kind is FunctionalKind.REL_ENT:
            populations = np.einsum("ij,jk,ki->i", operand.conj().T, rho.matrix, operand).real
            term = max(0.0, _compressed_entropy(populations) - entropy)
        else:
            c = root @ operand - operand @ root
            term = max(0.0, float(-0.5 * np.trace(c @ c).real))
        total += sign * term
    return abs(total) if kind is FunctionalKind.MABK else total


def _stacked_values(rhos, roots, spectra, s) -> dict:
    """Each kind on an (N, 8, 8) stack, broadcast as (N, 1, 8, 8) against the (4, 8, 8) operands."""
    rhos, roots, spectra = rhos[:, None], roots[:, None], spectra[:, None]
    return {
        FunctionalKind.MABK: abs(bell._signed_sum(*bell._mabk_terms(rhos, s.term_operands(FunctionalKind.MABK)).T)),
        FunctionalKind.L1: bell._signed_sum(*bell._l1_terms(rhos, s.term_operands(FunctionalKind.L1)).T),
        FunctionalKind.REL_ENT: bell._signed_sum(
            *bell._rel_ent_terms((rhos, spectra), s.term_operands(FunctionalKind.REL_ENT)).T
        ),
        FunctionalKind.SKEW: bell._signed_sum(*_skew_from_root(roots, s.term_operands(FunctionalKind.SKEW)).T),
    }


def _panel() -> list[DensityMatrix]:
    """Ginibre states of rank 1-8, W and GHZ Werner mixtures at p = 0, 0.5, 1, and a product state."""
    rng = np.random.default_rng(24)
    states = []
    for rank in range(1, 9):
        g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
        m = g @ g.conj().T
        states.append(DensityMatrix(m / np.trace(m).real))
    for ket in (w_state(), ghz_state()):
        states.extend(werner_mix(pure_density(ket), p) for p in (0.0, 0.5, 1.0))
    states.append(product_state(*(random_single_qubit_state(seed) for seed in (7, 8, 9))))
    return states


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize(
    "s",
    [example1_settings(), example2_settings(), random_settings(10024)],
    ids=["example1", "example2", "random"],
)
def test_stacked_kernels_match_scalar_evaluators_bit_for_bit(s):
    states = _panel()
    rhos = np.array([rho.matrix for rho in states])
    roots = psd_sqrt(rhos)
    spectra = np.linalg.eigvalsh(rhos)
    stacked = _stacked_values(rhos, roots, spectra, s)
    for n, rho in enumerate(states):
        assert roots[n].tobytes() == psd_sqrt(rho.matrix).tobytes()
        assert _bits(_prob_entropy(spectra)[n]) == _bits(von_neumann_entropy(rho))
        for kind in FunctionalKind:
            scalar = evaluate(kind, rho, s)
            assert _bits(stacked[kind][n]) == _bits(scalar), (kind, n)
            assert _bits(scalar) == _bits(_loop_reference(kind, rho, s)), (kind, n)


def test_masked_entropy_matches_the_compressed_sum_bit_for_bit():
    rng = np.random.default_rng(24)
    rows = []
    for dropped in (0, 1, 7, 8):
        for _ in range(250):
            p = rng.random(8) * rng.choice([1e-3, 1.0, 10.0])
            p[rng.choice(8, dropped, replace=False)] = rng.choice([0.0, -1e-13, 1e-15, ENTROPY_FLOOR], dropped)
            rows.append(p)
    rows.append(np.array([1.0] + [0.0] * 7))  # one kept entry whose term is 0.0: the sum negates to -0.0
    rows.append(np.zeros(8))  # nothing kept: 0.0, where negating the zero sum would give -0.0
    got = _prob_entropy(np.array(rows))
    for row, value in zip(rows, got):
        want = _compressed_entropy(row)
        assert _bits(value) == _bits(want), row
        assert _bits(_prob_entropy(row)) == _bits(want), row
    assert math.copysign(1.0, got[-2]) == -1.0
    assert math.copysign(1.0, got[-1]) == 1.0


def test_stack_checks_raise_what_density_matrix_raises():
    factors = [random_single_qubit_state(seed).matrix for seed in range(3)]
    good = np.array([np.kron(np.kron(*factors[:2]), factors[2])] * 4)
    assert _checked_density(good).tobytes() == np.array([DensityMatrix(m).matrix for m in good]).tobytes()
    nan, skewed, heavy = good[2].copy(), good[2].copy(), good[2] + 1e-9 * np.eye(8)
    nan[0, 1] = np.nan
    skewed[0, 1] += 0.1j
    negative = np.diag([0.5, -1e-6, 0.5 + 1e-6, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    cases = [
        (nan, ValueError, "non-finite"),
        (skewed, NotHermitianError, "hermiticity"),
        (heavy, ValueError, "trace"),
        (negative, ValueError, "eigenvalue"),
    ]
    for member, error, what in cases:
        stack = good.copy()
        stack[2] = member
        with pytest.raises(error, match=what):
            _checked_density(stack)
        with pytest.raises(error, match=what):
            DensityMatrix(member)


def test_grouped_ensemble_matches_scalar_evaluation_state_by_state():
    values = verify._ensemble_values(n_states=200, n_settings=100)
    pool = [random_settings(10000 + j) for j in range(100)]
    for i in range(200):
        rho = product_state(*(random_single_qubit_state(3 * i + k) for k in range(3)))
        for kind in FunctionalKind:
            assert values[kind][i] == evaluate(kind, rho, pool[i % 100]), (kind, i)


def test_verify_run_evaluates_the_full_ensemble(monkeypatch):
    factor_seeds, settings_seeds = [], []
    factor, settings = verify.random_single_qubit_state, verify.random_settings
    monkeypatch.setattr(verify, "random_single_qubit_state", lambda seed: factor_seeds.append(seed) or factor(seed))
    monkeypatch.setattr(verify, "random_settings", lambda seed: settings_seeds.append(seed) or settings(seed))
    assert verify.run(stream=io.StringIO()) == 0
    assert len(factor_seeds) == 3000
    assert sorted(set(settings_seeds)) == list(range(10000, 10100))
