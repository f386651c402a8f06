"""The decimals printed in README's value tables, checked against evaluation to their printed digits.

A decimal ending in "..." is rounded to its printed places; any other number is exact and is checked
to 1e-9.  A crossing is checked by a sign change of the curve's gap to its product bound across the
printed value's rounding interval.
"""

from __future__ import annotations

import re
from pathlib import Path

from tribell import (
    Family,
    FamilyCurve,
    FunctionalKind,
    evaluate,
    evaluate_family,
    example1_settings,
    example2_settings,
    ghz_state,
    product_bound,
    pure_density,
    w_state,
)

README = Path(__file__).resolve().parents[1] / "README.md"
SETTINGS = {"example1": example1_settings(), "example2": example2_settings()}
DECIMAL = re.compile(r"(-?\d+(?:\.(\d+))?)(\.\.\.)?$")


def _table(heading: str) -> list[list[str]]:
    """The body rows of the first table under a README heading, cells stripped of spaces."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")][2:]
    assert lines, heading
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines]


def _printed(cell: str) -> tuple[float, float]:
    """The decimal its first code span ends with (after its last '=') and the half-width of its printed interval."""
    match = DECIMAL.search(re.search(r"`([^`]*)`", cell).group(1).rsplit("=", 1)[-1].strip())
    assert match, cell
    return float(match.group(1)), 0.5 * 10.0 ** -len(match.group(2) or "") if match.group(3) else 1e-9


def test_headline_values_match_evaluation():
    states = {"W": pure_density(w_state()), "GHZ": pure_density(ghz_state())}
    kinds = (FunctionalKind.L1, FunctionalKind.REL_ENT, FunctionalKind.SKEW)
    checked = 0
    for state, settings, *cells in _table("Headline values"):
        for kind, cell in zip(kinds, cells):
            if cell:
                value, half_width = _printed(cell)
                assert abs(evaluate(kind, states[state], SETTINGS[settings]) - value) <= half_width, (state, kind, cell)
                checked += 1
    assert checked == 8


def test_printed_crossings_bracket_the_bound():
    checked = 0
    for curve_cell, settings, _, crossing in _table("Verified closed forms and thresholds"):
        if "=" not in crossing:
            continue
        family, kind = re.fullmatch(r"(\S+) `(\S+)`", curve_cell).groups()
        curve = FamilyCurve(Family(family), FunctionalKind(kind), SETTINGS[settings])
        value, half_width = _printed(crossing)
        gaps = [evaluate_family(curve, value + d) - product_bound(curve.kind) for d in (-half_width, half_width)]
        assert gaps[0] * gaps[1] < 0.0, (curve_cell, crossing, gaps)
        checked += 1
    assert checked == 7
