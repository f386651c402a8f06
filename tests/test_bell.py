from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from helpers import random_density, random_ket, reference_coordinate_ascent
from tribell import (
    BellSettings,
    DensityMatrix,
    Family,
    FamilyCurve,
    FunctionalKind,
    NoSignChangeError,
    NotMonotoneError,
    Observable,
    ParameterOutOfRangeError,
    bell_l1,
    bell_rel_ent,
    bell_skew,
    collective_observable,
    computational_kets,
    evaluate,
    evaluate_family,
    example1_settings,
    example2_settings,
    ghz_state,
    l1_coherence,
    mabk,
    optimize,
    optimize_settings,
    pauli,
    product_basis,
    product_bound,
    product_state,
    pure_density,
    random_settings,
    random_single_qubit_state,
    relative_entropy_coherence,
    settings_from_angles,
    skew_information,
    threshold_bisect,
    w_class_pure,
    w_state,
    werner_mix,
)
import tribell.bell as bell_module
from tribell.bell import TERMS, TERM_SIGNS
from tribell.verify import werner_root_scale

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

W_L1_AXIS = (25.0 + 16.0 * SQRT2) / 3.0
W_REL_ENT_AXIS = 10.0 / 3.0 + 2.0 * math.log2(3.0)
W_SKEW_ROTATED = 10.0 * (1.0 - 2.0 * SQRT3) / 9.0


def pauli_settings(axes: str) -> BellSettings:
    return BellSettings(*(Observable(pauli(a)) for a in axes))


def test_product_bound_table():
    assert product_bound(FunctionalKind.MABK) == 2.0
    assert product_bound(FunctionalKind.L1) == 14.0
    assert product_bound(FunctionalKind.REL_ENT) == 6.0
    assert product_bound(FunctionalKind.SKEW) == 6.0


def test_settings_validation():
    with pytest.raises(TypeError):
        BellSettings(pauli("x"), *(Observable(pauli("z")) for _ in range(5)))
    soft = Observable(pauli("x") + np.eye(2), dichotomic=False)
    with pytest.raises(ValueError):
        BellSettings(soft, *(Observable(pauli("z")) for _ in range(5)))


def test_example1_settings_matrices(ex1):
    np.testing.assert_allclose(ex1.m_a1.matrix, pauli("x"), atol=1e-15)
    np.testing.assert_allclose(ex1.m_a2.matrix, pauli("z"), atol=1e-15)
    np.testing.assert_allclose(ex1.m_b1.matrix, -pauli("y"), atol=1e-15)
    np.testing.assert_allclose(ex1.m_b2.matrix, pauli("z"), atol=1e-15)
    np.testing.assert_allclose(ex1.m_c1.matrix, pauli("x"), atol=1e-15)
    np.testing.assert_allclose(ex1.m_c2.matrix, pauli("z"), atol=1e-15)


def test_example2_settings_structure(ex2):
    np.testing.assert_allclose(ex2.m_a1.matrix, pauli("z"), atol=1e-15)
    np.testing.assert_allclose(ex2.m_a2.matrix, pauli("x"), atol=1e-15)
    for alpha, first, second in (
        (math.pi / 6.0, ex2.m_b1.matrix, ex2.m_b2.matrix),
        (math.pi / 3.0, ex2.m_c1.matrix, ex2.m_c2.matrix),
    ):
        np.testing.assert_allclose(
            first, math.cos(alpha) * pauli("z") - math.sin(alpha) * pauli("x"), atol=1e-15
        )
        np.testing.assert_allclose(
            second, math.sin(alpha) * pauli("z") + math.cos(alpha) * pauli("x"), atol=1e-15
        )
        anti = first @ second + second @ first
        np.testing.assert_allclose(anti, np.zeros((2, 2)), atol=1e-12)


def test_for_term_selects_by_index(ex1):
    a, b, c = ex1.for_term((1, 2, 1))
    np.testing.assert_allclose(a.matrix, pauli("x"), atol=0)
    np.testing.assert_allclose(b.matrix, pauli("z"), atol=0)
    np.testing.assert_allclose(c.matrix, pauli("x"), atol=0)


def test_headline_values_w_state(rho_w, ex1, ex2):
    assert abs(bell_l1(rho_w, ex1) - W_L1_AXIS) <= 1e-9
    assert abs(bell_rel_ent(rho_w, ex1) - W_REL_ENT_AXIS) <= 1e-9
    assert abs(bell_skew(rho_w, ex1) - 10.0) <= 1e-9
    assert abs(bell_skew(rho_w, ex2) - W_SKEW_ROTATED) <= 1e-9


def test_headline_values_ghz_state(rho_ghz, ex1, ex2):
    assert abs(bell_l1(rho_ghz, ex1) - 20.0) <= 1e-9
    assert abs(bell_rel_ent(rho_ghz, ex1) - 8.0) <= 1e-9
    assert abs(bell_skew(rho_ghz, ex2) - (10.0 + 2.0 * SQRT3)) <= 1e-9
    assert abs(bell_skew(rho_ghz, ex1)) <= 1e-9


def test_basis_state_value(ex1):
    rho = pure_density(computational_kets(8)[0])
    assert abs(bell_l1(rho, ex1) - 9.0) <= 1e-9
    assert abs(mabk(rho, ex1) - 1.0) <= 1e-9


def test_mabk_special_settings(rho_ghz, ex1):
    assert abs(mabk(rho_ghz, pauli_settings("xyxyxy"))) <= 1e-9
    assert abs(mabk(rho_ghz, pauli_settings("yxyxyx")) - 4.0) <= 1e-9
    mixed = DensityMatrix(np.eye(8) / 8.0)
    assert abs(mabk(mixed, ex1)) <= 1e-12


def test_functionals_match_their_definitions():
    """The combined evaluators must equal the per-term measure sums exactly."""
    rng = np.random.default_rng(21)
    for trial in range(25):
        rho = random_density(rng, 8)
        s = random_settings(trial)
        by_terms_l1 = sum(
            sign * l1_coherence(rho, product_basis(*s.for_term(term)))
            for sign, term in zip(TERM_SIGNS, TERMS)
        )
        assert abs(bell_l1(rho, s) - by_terms_l1) < 1e-10
        by_terms_rel = sum(
            sign * relative_entropy_coherence(rho, product_basis(*s.for_term(term)))
            for sign, term in zip(TERM_SIGNS, TERMS)
        )
        assert abs(bell_rel_ent(rho, s) - by_terms_rel) < 1e-10
        by_terms_skew = sum(
            sign * skew_information(rho, collective_observable(*s.for_term(term)))
            for sign, term in zip(TERM_SIGNS, TERMS)
        )
        assert abs(bell_skew(rho, s) - by_terms_skew) < 1e-10


@pytest.mark.parametrize(
    "s",
    [example1_settings(), example2_settings(), random_settings(5), random_settings(6)],
    ids=["example1", "example2", "random5", "random6"],
)
def test_werner_scaling_laws(s):
    """On (p/8) I + (1 - p) rho: l1 and mabk scale by 1 - p, and for pure rho skew by werner_root_scale(p)."""
    rng = np.random.default_rng(27)
    for rho in [pure_density(w_state()), pure_density(ghz_state())] + [pure_density(random_ket(rng, 8)) for _ in range(3)]:
        for p in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
            noisy = werner_mix(rho, p)
            assert abs(bell_l1(noisy, s) - (1.0 - p) * bell_l1(rho, s)) <= 1e-12
            assert abs(mabk(noisy, s) - (1.0 - p) * mabk(rho, s)) <= 1e-12
            assert abs(bell_skew(noisy, s) - werner_root_scale(p) * bell_skew(rho, s)) <= 1e-12


def test_biseparable_state_violates_three_product_bounds(ex1):
    """|0>_A (x) Psi+_BC, w_class_pure(0, pi/4), exceeds the l1, rel-ent and skew product bounds under example1."""
    rho = pure_density(w_class_pure(0.0, math.pi / 4.0))
    assert abs(bell_l1(rho, ex1) - 16.0) <= 1e-9
    assert abs(bell_rel_ent(rho, ex1) - 7.0) <= 1e-9
    assert abs(bell_skew(rho, ex1) - 8.0) <= 1e-9


def test_separable_mixture_exceeds_the_skew_product_bound():
    """1/2 |+++><+++| + 1/2 |a,a,-a><a,a,-a| at a = pi/3, |a> = (|0> + e^{ia}|1>)/sqrt2, under z/-z, z/-z, z/z."""

    def product_ket(*phases):
        kets = [np.array([1.0, np.exp(1j * a)]) / SQRT2 for a in phases]
        return np.kron(kets[0], np.kron(kets[1], kets[2]))

    first, second = product_ket(0.0, 0.0, 0.0), product_ket(math.pi / 3.0, math.pi / 3.0, -math.pi / 3.0)
    rho = DensityMatrix(0.5 * np.outer(first, first.conj()) + 0.5 * np.outer(second, second.conj()))
    z, minus_z = Observable(pauli("z")), Observable(-pauli("z"))
    s = BellSettings(z, minus_z, z, minus_z, z, z)
    by_terms = sum(
        sign * skew_information(rho, collective_observable(*s.for_term(term))) for sign, term in zip(TERM_SIGNS, TERMS)
    )
    assert abs(bell_skew(rho, s) - 7.109693164311151) <= 1e-12
    assert abs(by_terms - bell_skew(rho, s)) <= 1e-12
    assert bell_skew(rho, s) > product_bound(FunctionalKind.SKEW)


def test_evaluate_dispatch(rho_w, ex1):
    assert evaluate(FunctionalKind.L1, rho_w, ex1) == bell_l1(rho_w, ex1)
    assert evaluate(FunctionalKind.MABK, rho_w, ex1) == mabk(rho_w, ex1)


def test_family_state_special_points(rho_w, rho_ghz, ex1):
    curve = FamilyCurve(Family.W_PURE, FunctionalKind.L1, ex1)
    at_symmetric = evaluate_family(curve, (math.asin(1.0 / math.sqrt(3.0)), math.pi / 4.0))
    assert abs(at_symmetric - bell_l1(rho_w, ex1)) < 1e-12
    ghz_curve = FamilyCurve(Family.GHZ_PURE, FunctionalKind.L1, ex1)
    assert abs(evaluate_family(ghz_curve, math.pi / 4.0) - bell_l1(rho_ghz, ex1)) < 1e-12


def test_settings_operands_are_built_once_per_settings_object(monkeypatch):
    """A scan under one settings object builds its settings side once, not per point; l1 and rel-ent share it."""
    builds, eigensolved = [], []
    herm_eigh = bell_module._herm_eigh
    monkeypatch.setattr(bell_module, "_herm_eigh", lambda m, tol: eigensolved.append(len(m)) or herm_eigh(m, tol))
    counted = {}
    for kind, recipe in list(bell_module._KINDS.items()):
        build = recipe.term_operand
        counted.setdefault(build, lambda *abc, build=build: builds.append(build) or build(*abc))
        monkeypatch.setitem(bell_module._KINDS, kind, dataclasses.replace(recipe, term_operand=counted[build]))

    settings = example1_settings()
    points = np.linspace(0.0, 1.0, 50)
    for kind in (FunctionalKind.L1, FunctionalKind.REL_ENT):
        for p in points:
            evaluate_family(FamilyCurve(Family.W_WERNER, kind, settings), p)
    assert eigensolved == [6]
    assert len(builds) == 1
    for p in points:
        evaluate_family(FamilyCurve(Family.W_WERNER, FunctionalKind.SKEW, settings), p)
    assert len(builds) == 2

    mabk(pure_density(w_state()), settings)
    assert len(builds) == 3 and eigensolved == [6]
    for kind in FunctionalKind:
        operands = settings.term_operands(kind)
        assert operands.shape == (4, 8, 8)
        for arr in operands:
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


def test_family_domain_enforcement(ex1):
    werner = FamilyCurve(Family.W_WERNER, FunctionalKind.L1, ex1)
    for bad in (-0.1, 1.5):
        with pytest.raises(ParameterOutOfRangeError):
            evaluate_family(werner, bad)
    two_param = FamilyCurve(Family.W_PURE, FunctionalKind.L1, ex1)
    with pytest.raises(ParameterOutOfRangeError):
        evaluate_family(two_param, (0.3,))
    with pytest.raises(ParameterOutOfRangeError):
        evaluate_family(two_param, (0.3, 7.0))


def test_threshold_values(ex1, ex2):
    cases = [
        (Family.W_WERNER, FunctionalKind.L1, ex1, (0.0, 1.0), (16.0 * SQRT2 - 17.0) / (25.0 + 16.0 * SQRT2)),
        (Family.GHZ_WERNER, FunctionalKind.L1, ex1, (0.0, 1.0), 0.3),
        (Family.W_WERNER, FunctionalKind.SKEW, ex1, (0.0, 1.0), (11.0 - math.sqrt(57.0)) / 20.0),
        (Family.GHZ_WERNER, FunctionalKind.SKEW, ex2, (0.0, 1.0), (5.0 - SQRT3) / 11.0),
        (Family.GHZ_PURE, FunctionalKind.L1, ex1, (0.05, math.pi / 4.0), 0.5 * math.asin(5.0 / 11.0)),
    ]
    for family, kind, s, bracket, want in cases:
        got = threshold_bisect(FamilyCurve(family, kind, s), bracket)
        assert abs(got - want) <= 2e-9, (family, kind, got, want)


def test_threshold_rejects_bracket_without_crossing(ex1):
    curve = FamilyCurve(Family.GHZ_PURE, FunctionalKind.REL_ENT, ex1)
    with pytest.raises(NoSignChangeError):
        threshold_bisect(curve, (0.1, 0.7))


def test_threshold_rejects_non_monotone_bracket(ex1):
    curve = FamilyCurve(Family.GHZ_PURE, FunctionalKind.L1, ex1)
    with pytest.raises(NotMonotoneError):
        threshold_bisect(curve, (0.2, 0.9))


@pytest.mark.parametrize("rise", [0.0, 1e-9])
def test_threshold_precheck_catches_a_small_rise(monkeypatch, ex1, rise):
    """A curve flat, falling through the bound at 0.5, then flat; 1e-9 added at one of the 16 samples."""
    bound = product_bound(FunctionalKind.L1)
    bumped = 0.0 + (1.0 - 0.0) * 3 / 17.0  # threshold_bisect's third interior sample point

    def curve_value(curve, t):
        return bound + min(max(0.5 - t, -0.1), 0.1) + (rise if t == bumped else 0.0)

    monkeypatch.setattr(bell_module, "evaluate_family", curve_value)
    curve = FamilyCurve(Family.GHZ_WERNER, FunctionalKind.L1, ex1)
    if rise:
        with pytest.raises(NotMonotoneError):
            threshold_bisect(curve, (0.0, 1.0))
    else:
        assert threshold_bisect(curve, (0.0, 1.0)) == 0.5


def test_threshold_rejects_two_parameter_family(ex1):
    with pytest.raises(ValueError):
        threshold_bisect(FamilyCurve(Family.W_PURE, FunctionalKind.L1, ex1), (0.0, 1.0))


def test_settings_from_angles_layout():
    angles = [0.0, 0.0, math.pi / 2.0, 0.0] * 3
    s = settings_from_angles(angles)
    np.testing.assert_allclose(s.m_a1.matrix, pauli("z"), atol=1e-15)
    np.testing.assert_allclose(s.m_a2.matrix, pauli("x"), atol=1e-15)
    np.testing.assert_allclose(s.m_c1.matrix, pauli("z"), atol=1e-15)
    with pytest.raises(ValueError):
        settings_from_angles([0.0] * 11)


def test_random_settings_deterministic():
    a = random_settings(9)
    b = random_settings(9)
    np.testing.assert_allclose(a.m_b2.matrix, b.m_b2.matrix, atol=0)
    c = random_settings(10)
    assert float(np.max(np.abs(a.m_b2.matrix - c.m_b2.matrix))) > 1e-3


def test_optimizer_is_deterministic(rho_ghz):
    first = optimize_settings(rho_ghz, FunctionalKind.L1, restarts=2, iterations=30, seed=5)
    second = optimize_settings(rho_ghz, FunctionalKind.L1, restarts=2, iterations=30, seed=5)
    assert first[1] == second[1]
    np.testing.assert_allclose(first[0].m_a1.matrix, second[0].m_a1.matrix, atol=0)


def test_optimizer_never_violates_on_product_states():
    rho = product_state(
        random_single_qubit_state(11),
        random_single_qubit_state(12),
        random_single_qubit_state(13),
    )
    bound = product_bound(FunctionalKind.L1)
    for seed in range(50):
        _, value = optimize_settings(rho, FunctionalKind.L1, restarts=1, iterations=8, seed=seed)
        assert value <= bound + 1e-9


def _plain_search(rho, kind, restarts, iterations, seed):
    """optimize_settings without probe reuse: every probe evaluated from fresh settings."""

    def objective(points):
        return [evaluate(kind, rho, settings_from_angles(a)) for a in points]

    best_angles, best_value = None, -math.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        start = np.empty(12)
        for i in range(6):
            start[2 * i] = rng.uniform(0.0, math.pi)
            start[2 * i + 1] = rng.uniform(0.0, 2.0 * math.pi)
        angles, value = bell_module._coordinate_ascent(
            objective, start, iterations, step0=math.pi / 8.0, floor=1e-9
        )
        if value > best_value:
            best_angles, best_value = angles, value
    return settings_from_angles(best_angles), best_value


@pytest.mark.parametrize("kind", list(FunctionalKind))
def test_optimizer_matches_plain_search_bit_for_bit(kind, rho_w, rho_ghz):
    """Reusing unchanged observables and terms between probes changes no bit of the search."""
    for rho in (rho_ghz, rho_w, bell_module.family_state(Family.W_WERNER, (0.05,))):
        settings, value = optimize_settings(rho, kind, restarts=2, iterations=6, seed=4)
        ref_settings, ref_value = _plain_search(rho, kind, restarts=2, iterations=6, seed=4)
        assert value == ref_value
        for name in ("m_a1", "m_a2", "m_b1", "m_b2", "m_c1", "m_c2"):
            assert getattr(settings, name).matrix.tobytes() == getattr(ref_settings, name).matrix.tobytes()


def _tie_heavy(x):
    """Rounded to 1e-3, so probes often tie the best value."""
    return round(math.sin(3.0 * x[0]) + math.cos(2.0 * x[1] - x[2]) + 0.5 * math.sin(x[0] * x[3]), 3)


def _ramp(x):
    """A far peak, so walks run on for many steps, over several walk blocks."""
    return -sum(abs(v - 7.0 * (n + 1)) for n, v in enumerate(x))


def _holey(x):
    """NaN on part of the space: a NaN probe never improves and a NaN start never moves."""
    value = math.sin(x[0]) * math.cos(x[1]) + 0.3 * math.sin(x[2] + x[3])
    return math.nan if math.sin(5.0 * sum(x)) > 0.7 else value


@pytest.mark.parametrize("f", [_tie_heavy, _ramp, _holey])
def test_batched_ascent_takes_the_one_probe_path(f):
    """bell._coordinate_ascent's lookahead and walk blocks reach the frozen reference's point and value."""
    for seed in range(50):
        start = np.random.default_rng(seed).uniform(0.0, 4.0, 4)
        ref_x, ref_best = reference_coordinate_ascent(f, start, 25, step0=math.pi / 8.0, floor=1e-3)
        x, best = bell_module._coordinate_ascent(
            lambda points: [f(p) for p in points], start, 25, step0=math.pi / 8.0, floor=1e-3
        )
        assert np.asarray(x).tobytes() == ref_x.tobytes()
        assert best == ref_best or (math.isnan(best) and math.isnan(ref_best))


def _count_eigensolves(monkeypatch):
    """Counts of probe rows the optimizer evaluates and of matrices it eigensolves.

    bell's one eigensolver route is _herm_eigh, counted by its stack size.
    """
    assert not hasattr(bell_module, "herm_eig")
    counts = {"probes": 0, "eigensolved": 0}
    ascent, herm_eigh = bell_module._coordinate_ascent, bell_module._herm_eigh

    def counted_ascent(objective, *args, **kwargs):
        def counted_objective(points):
            counts["probes"] += len(points)
            return objective(points)

        return ascent(counted_objective, *args, **kwargs)

    def counted_herm_eigh(m, *args, **kwargs):
        counts["eigensolved"] += len(m)
        return herm_eigh(m, *args, **kwargs)

    monkeypatch.setattr(bell_module, "_coordinate_ascent", counted_ascent)
    monkeypatch.setattr(bell_module, "_herm_eigh", counted_herm_eigh)
    return counts


def test_optimizer_probe_eigensolves_only_the_moved_observable(rho_ghz, monkeypatch):
    counts = _count_eigensolves(monkeypatch)
    optimize_settings(rho_ghz, FunctionalKind.L1, restarts=1, iterations=30, seed=0)
    assert counts["probes"] > 100
    assert 0 < counts["eigensolved"] <= counts["probes"] + 12


def test_optimizer_mabk_and_skew_searches_never_eigensolve(rho_ghz, rho_w, monkeypatch):
    counts = _count_eigensolves(monkeypatch)
    optimize_settings(rho_ghz, FunctionalKind.MABK, restarts=1, iterations=20, seed=0)
    optimize_settings(rho_w, FunctionalKind.SKEW, restarts=1, iterations=20, seed=0)
    assert counts["probes"] > 100
    assert counts["eigensolved"] == 0


def test_optimizer_step_floor_decides_a_ghz_l1_search(rho_ghz):
    """1 restart x 200 from seed 0 reaches 19.999999984; a step floor of 1e-6 instead of 1e-9 stops at 19.9999976."""
    _, value = optimize_settings(rho_ghz, FunctionalKind.L1, restarts=1, iterations=200, seed=0)
    assert value >= 20.0 - 1e-7


@pytest.mark.parametrize("kind", list(FunctionalKind))
def test_optimize_result_reproduces_its_value(kind, rho_w):
    result = optimize(rho_w, kind, restarts=2, iterations=10, seed=6)
    assert len(result.angles) == 12 and all(type(a) is float for a in result.angles)
    rebuilt = settings_from_angles(result.angles)
    for name in ("m_a1", "m_a2", "m_b1", "m_b2", "m_c1", "m_c2"):
        assert getattr(rebuilt, name).matrix.tobytes() == getattr(result.settings, name).matrix.tobytes()
    assert evaluate(kind, rho_w, result.settings) == result.value
    settings, value = optimize_settings(rho_w, kind, restarts=2, iterations=10, seed=6)
    assert value == result.value
    assert settings.m_c2.matrix.tobytes() == result.settings.m_c2.matrix.tobytes()


def test_optimizer_argument_validation(rho_ghz):
    with pytest.raises(ValueError):
        optimize_settings(rho_ghz, FunctionalKind.L1, restarts=0)
    with pytest.raises(ValueError):
        optimize_settings(rho_ghz, FunctionalKind.L1, iterations=0)


@hyp_settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_product_states_respect_all_bounds(seed):
    rho = product_state(
        random_single_qubit_state(3 * seed),
        random_single_qubit_state(3 * seed + 1),
        random_single_qubit_state(3 * seed + 2),
    )
    s = random_settings(seed)
    for kind in FunctionalKind:
        assert evaluate(kind, rho, s) <= product_bound(kind) + 1e-9
