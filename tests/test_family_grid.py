"""Family grids as stacks: the stack builder and evaluate_family_grid against the scalar path.

family_states must give the bytes of family_state's matrix at every point,
and evaluate_family_grid the bits of evaluate_family, across chunk
boundaries; bad points raise the scalar path's error.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tribell import (
    Family,
    FamilyCurve,
    FunctionalKind,
    ParameterOutOfRangeError,
    evaluate_family,
    evaluate_family_grid,
    example1_settings,
    example2_settings,
    random_settings,
)
from tribell import bell, verify
from tribell.bell import FAMILY_DOMAINS, GRID_CHUNK, family_state, family_states


def _points(family: Family, n: int, seed: int) -> np.ndarray:
    """n points of the family: every corner of its domain first, then uniform interior draws."""
    domain = np.array(FAMILY_DOMAINS[family])
    corners = np.array(np.meshgrid(*domain, indexing="ij")).reshape(len(domain), -1).T
    rng = np.random.default_rng(seed)
    interior = domain[:, 0] + (domain[:, 1] - domain[:, 0]) * rng.uniform(size=(n, len(domain)))
    return np.concatenate([corners, interior])[:n]


@pytest.mark.parametrize("family", list(Family))
def test_stack_builder_matches_family_state_bytes(family):
    points = _points(family, 300, seed=25)
    stack = family_states(family, points)
    assert stack.shape == (300, 8, 8)
    for point, member in zip(points, stack):
        assert member.tobytes() == family_state(family, tuple(float(v) for v in point)).matrix.tobytes()


@pytest.mark.parametrize("family", [Family.GHZ_PURE, Family.W_WERNER, Family.GHZ_WERNER])
def test_stack_builder_takes_scalars_one_tuples_or_an_array(family):
    points = _points(family, 40, seed=28)
    stack = family_states(family, points).tobytes()
    scalars = points[:, 0].tolist()
    assert family_states(family, scalars).tobytes() == stack
    assert family_states(family, points[:, 0]).tobytes() == stack
    assert family_states(family, [(p,) for p in scalars]).tobytes() == stack


def test_two_parameter_stack_builder_takes_tuples_or_an_array():
    points = _points(Family.W_PURE, 40, seed=28)
    tuples = [tuple(point) for point in points.tolist()]
    assert family_states(Family.W_PURE, tuples).tobytes() == family_states(Family.W_PURE, points).tobytes()


@pytest.mark.parametrize("family", list(Family))
def test_stack_builder_of_zero_points_is_empty(family):
    for points in ([], np.empty((0, len(FAMILY_DOMAINS[family])))):
        stack = family_states(family, points)
        assert stack.shape == (0, 8, 8) and stack.dtype == complex


@pytest.mark.parametrize("family", list(Family))
def test_grid_equals_scalar_evaluation_across_chunks(family):
    """N = 1, GRID_CHUNK, GRID_CHUNK + 1 and 2500 (a partial last chunk), every kind, three settings."""
    assert GRID_CHUNK == 128
    points = _points(family, 2500, seed=7)
    for settings in (example1_settings(), example2_settings(), random_settings(25)):
        for kind in FunctionalKind:
            curve = FamilyCurve(family, kind, settings)
            scalar = np.array([evaluate_family(curve, tuple(point)) for point in points])
            for n in (1, 128, 129, 2500):
                grid = evaluate_family_grid(curve, points[:n])
                assert grid.shape == (n,)
                assert np.array_equal(grid, scalar[:n]), (kind, n)


def test_grid_takes_scalars_for_one_parameter_families():
    curve = FamilyCurve(Family.GHZ_WERNER, FunctionalKind.SKEW, example2_settings())
    ps = [k / 100.0 for k in range(1, 100)]
    assert evaluate_family_grid(curve, ps).tolist() == [evaluate_family(curve, p) for p in ps]


def _scalar_error(family: Family, point) -> str:
    with pytest.raises(ParameterOutOfRangeError) as scalar:
        family_state(family, tuple(float(v) for v in point))
    return str(scalar.value)


@pytest.mark.parametrize(
    "family, bad",
    [
        (Family.GHZ_WERNER, (1.0 + 1e-12,)),
        (Family.W_WERNER, (-1e-300,)),
        (Family.GHZ_PURE, (math.nan,)),
        (Family.W_PURE, (1.0, 2.0 * math.pi + 1e-9)),
        (Family.W_PURE, (math.nan, 1.0)),
        (Family.W_PURE, (1.0, math.inf)),
    ],
)
def test_grid_raises_the_scalar_error_for_the_first_bad_point(family, bad):
    curve = FamilyCurve(family, FunctionalKind.L1, example1_settings())
    good = _points(family, 200, seed=3)
    points = np.concatenate([good[:150], [bad], good[150:], [np.full(len(bad), -5.0)]])
    message = _scalar_error(family, bad)
    with pytest.raises(ParameterOutOfRangeError) as grid:
        evaluate_family_grid(curve, points)
    assert str(grid.value) == message
    with pytest.raises(ParameterOutOfRangeError) as stack:
        family_states(family, points)
    assert str(stack.value) == message


@pytest.mark.parametrize("family, width", [(Family.GHZ_PURE, 2), (Family.W_PURE, 1), (Family.W_WERNER, 3)])
def test_grid_rejects_the_wrong_number_of_parameters(family, width):
    points = np.full((5, width), 0.5)
    message = _scalar_error(family, points[0])
    assert "parameter(s)" in message
    with pytest.raises(ParameterOutOfRangeError) as grid:
        evaluate_family_grid(FamilyCurve(family, FunctionalKind.MABK, example1_settings()), points)
    assert str(grid.value) == message


def test_grid_of_zero_points_is_empty():
    curve = FamilyCurve(Family.W_PURE, FunctionalKind.REL_ENT, example1_settings())
    for points in ([], np.empty((0, 2))):
        values = evaluate_family_grid(curve, points)
        assert values.shape == (0,) and values.dtype == float


def test_grid_of_mixed_length_points_reads_each_as_evaluate_family_does():
    """A ragged list raises the scalar error of its first bad point; scalars and 1-tuples mix on one-parameter curves."""
    curve = FamilyCurve(Family.W_PURE, FunctionalKind.L1, example1_settings())
    for points, bad in (([(0.1, 0.2), (0.3,), (0.4, 0.5, 0.6)], (0.3,)), ([(0.1, 0.2), 0.3], (0.3,))):
        message = _scalar_error(Family.W_PURE, bad)
        with pytest.raises(ParameterOutOfRangeError) as grid:
            evaluate_family_grid(curve, points)
        assert str(grid.value) == message
    ghz = FamilyCurve(Family.GHZ_WERNER, FunctionalKind.REL_ENT, example2_settings())
    mixed = [0.25, (0.5,), [0.75]]
    assert evaluate_family_grid(ghz, mixed).tolist() == [evaluate_family(ghz, p) for p in mixed]
    with pytest.raises(ParameterOutOfRangeError) as grid:
        evaluate_family_grid(ghz, [0.25, (0.5, 0.5)])
    assert str(grid.value) == _scalar_error(Family.GHZ_WERNER, (0.5, 0.5))


def test_verify_grid_rows_make_one_grid_call_each(monkeypatch):
    """The eleven witness and closed-form rows each evaluate their whole grid in one call."""
    calls = []
    grid = bell.evaluate_family_grid

    def counted(curve, points):
        calls.append(len(points))
        return grid(curve, points)

    monkeypatch.setattr(verify, "evaluate_family_grid", counted)
    rows = verify.checks(ensemble_states=10)
    assert sorted(calls) == sorted([2500] + [100] * 4 + [99] * 6)
    assert len(rows) == 39
