"""Self-check suite tying the implementation to its reference values.

Two layers:

* ``checks()`` returns pass/fail rows for everything the implementation
  is expected to reproduce.  ``run()`` prints them and reports failure if
  any row fails.
* ``adjudications()`` returns informational verdicts on reference
  formulas that disagree with direct evaluation.  These are printed for
  the record but do not gate, because the direct evaluation is taken as
  ground truth; the corrected identities they rely on are themselves
  gated rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bell import (
    BellSettings,
    Family,
    FamilyCurve,
    FunctionalKind,
    VIOLATION_MARGIN,
    bell_l1,
    bell_rel_ent,
    bell_skew,
    evaluate_family,
    evaluate_family_grid,
    example1_settings,
    example2_settings,
    mabk,
    product_bound,
    random_settings,
    threshold_bisect,
)
from .bell import _evaluate_stack
from .linalg import _kron
from .states import (
    DensityMatrix,
    Observable,
    _checked_density,
    ghz_state,
    pauli,
    product_state,
    pure_density,
    random_single_qubit_state,
    w_state,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT57 = math.sqrt(57.0)

W_L1_AXIS = (25.0 + 16.0 * SQRT2) / 3.0
W_REL_ENT_AXIS = 10.0 / 3.0 + 2.0 * math.log2(3.0)
GHZ_L1_AXIS = 20.0
GHZ_REL_ENT_AXIS = 8.0
W_SKEW_AXIS = 10.0
W_SKEW_ROTATED = 10.0 * (1.0 - 2.0 * SQRT3) / 9.0
GHZ_SKEW_ROTATED = 10.0 + 2.0 * SQRT3

W_WERNER_L1_PSTAR = (16.0 * SQRT2 - 17.0) / (25.0 + 16.0 * SQRT2)
GHZ_WERNER_L1_PSTAR = 0.3
W_WERNER_SKEW_PSTAR = (11.0 - SQRT57) / 20.0
GHZ_WERNER_SKEW_PSTAR = (5.0 - SQRT3) / 11.0
GHZ_PURE_L1_THETA_STAR = 0.5 * math.asin(5.0 / 11.0)
# Numerically determined bound crossings of the direct rel-ent curves.
W_WERNER_REL_ENT_PSTAR = 0.026020307003426
GHZ_WERNER_REL_ENT_PSTAR = 0.110272233293930

GHZ_WERNER_REL_ENT_AT_HALF = 2.0173706859271996


def _binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def ghz_pure_l1_curve(theta: float) -> float:
    """Verified closed form for the GHZ-family l1 functional, axis settings."""
    return 9.0 + 11.0 * abs(math.sin(2.0 * theta))


def ghz_pure_l1_variant(theta: float) -> float:
    """Rejected variant with constant term 11; exceeds the curve by 2."""
    return 11.0 + 11.0 * abs(math.sin(2.0 * theta))


def ghz_pure_rel_ent_curve(theta: float) -> float:
    """Verified closed form for the GHZ-family rel-ent functional, axis settings."""
    return 6.0 + 2.0 * _binary_entropy(math.cos(theta) ** 2)


def ghz_pure_skew_curve(theta: float) -> float:
    """Verified closed form for the GHZ-family skew functional, rotated settings."""
    return 6.0 + SQRT3 - (4.0 + SQRT3) * math.cos(4.0 * theta)


def w_werner_l1_curve(p: float) -> float:
    """Verified linear noise decay of the W-family l1 functional."""
    return (1.0 - p) * W_L1_AXIS


def w_werner_l1_variant(p: float) -> float:
    """Rejected variant with prefactor (31+16*sqrt2)/3; exceeds by 2(1-p)."""
    return (1.0 - p) * (31.0 + 16.0 * SQRT2) / 3.0


def ghz_werner_l1_curve(p: float) -> float:
    """Verified linear noise decay of the GHZ-family l1 functional."""
    return 20.0 * (1.0 - p)


def ghz_werner_l1_variant(p: float) -> float:
    """Rejected variant with prefactor 22; exceeds by 2(1-p)."""
    return 22.0 * (1.0 - p)


def werner_root_scale(p: float) -> float:
    """Verified skew scaling factor of white-noise mixing.

    Equals (sqrt(1 - 7p/8) - sqrt(p/8))^2, expanded so the misprintable
    surd is explicit: 1 - 3p/4 - sqrt(8p - 7p^2)/4.
    """
    return 1.0 - 0.75 * p - math.sqrt(max(0.0, 8.0 * p - 7.0 * p * p)) / 4.0


def werner_root_scale_variant(p: float) -> float:
    """Rejected variant with surd sqrt(8p - p^2)."""
    return 1.0 - 0.75 * p - math.sqrt(max(0.0, 8.0 * p - p * p)) / 4.0


def w_werner_skew_curve(p: float) -> float:
    """Verified W-family skew decay under the axis-aligned settings."""
    return W_SKEW_AXIS * werner_root_scale(p)


def ghz_werner_skew_curve(p: float) -> float:
    """Verified GHZ-family skew decay under the rotated settings."""
    return GHZ_SKEW_ROTATED * werner_root_scale(p)


def werner_spectrum_entropy(p: float) -> float:
    """Entropy of the white-noise mixture of any pure three-qubit state."""
    lam = np.array([1.0 - 7.0 * p / 8.0] + [p / 8.0] * 7)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def w_werner_rel_ent_reported(p: float) -> float:
    """Reported closed form for the W-family rel-ent curve, axis settings.

    Disagrees with direct evaluation by exactly twice the state entropy;
    see w_werner_rel_ent_corrected.
    """
    if p <= 0.0:
        return W_REL_ENT_AXIS
    return (
        (8.0 - 5.0 * p) / 24.0 * math.log2((8.0 - 5.0 * p) / 24.0)
        - (4.0 - p) / 3.0 * math.log2((4.0 - p) / 24.0)
        + 3.0 * p / 8.0 * math.log2(p / 8.0)
        - (2.0 + p) / 2.0 * math.log2((2.0 + p) / 24.0)
    )


def ghz_werner_rel_ent_reported(p: float) -> float:
    """Reported closed form for the GHZ-family rel-ent curve, axis settings.

    Same defect as the W-family form: high by twice the state entropy.
    """
    if p <= 0.0:
        return GHZ_REL_ENT_AXIS
    return 6.0 + (1.0 - 3.0 * p / 4.0) * math.log2(4.0 - 3.0 * p) + (3.0 * p / 4.0) * math.log2(p)


def w_werner_rel_ent_corrected(p: float) -> float:
    """Reported W-family form minus twice the state entropy; matches direct."""
    return w_werner_rel_ent_reported(p) - 2.0 * werner_spectrum_entropy(p)


def ghz_werner_rel_ent_corrected(p: float) -> float:
    """Reported GHZ-family form minus twice the state entropy; matches direct."""
    return ghz_werner_rel_ent_reported(p) - 2.0 * werner_spectrum_entropy(p)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _close(name: str, got: float, want: float, tol: float) -> CheckResult:
    dev = abs(got - want)
    return CheckResult(
        name=name,
        passed=dev <= tol,
        detail=f"got {got!r}, expected {want!r}, |dev| {dev:.3e} (tol {tol:.1e})",
    )


def _ensemble_values(n_states: int = 1000, n_settings: int = 100) -> dict:
    """Functional values of random product states, one array of n_states per kind.

    State i pairs with settings i mod n_settings; single-qubit factors of
    state i use seeds 3i, 3i+1, 3i+2 and settings j uses seed 10000 + j.
    Settings object j builds, checks and evaluates its states as one stack.
    """
    values = {kind: np.empty(n_states) for kind in FunctionalKind}
    for j in range(min(n_settings, n_states)):
        s, g = random_settings(10000 + j), slice(j, n_states, n_settings)
        factors = ([random_single_qubit_state(3 * i + k).matrix for k in range(3)] for i in range(n_states)[g])
        rhos = _checked_density(np.array([_kron(_kron(a, b), c) for a, b, c in factors]))
        for kind, v in values.items():
            v[g] = _evaluate_stack(kind, rhos, s)
    return values


def _ensemble_margins(n_states: int = 1000, n_settings: int = 100):
    """Largest functional values over random product states (see _ensemble_values)."""
    return {kind: float(np.max(v, initial=-math.inf)) for kind, v in _ensemble_values(n_states, n_settings).items()}


def checks(ensemble_states: int = 1000) -> list[CheckResult]:
    """All gating rows, recomputed from scratch on each call."""
    ex1 = example1_settings()
    ex2 = example2_settings()
    rho_w = pure_density(w_state())
    rho_ghz = pure_density(ghz_state())
    rows: list[CheckResult] = []

    for kind, bound in zip(FunctionalKind, (2.0, 14.0, 6.0, 6.0)):
        rows.append(_close(f"product bound ({kind.value}) = {bound:g}", product_bound(kind), bound, 0.0))

    rows.append(_close("W state l1, axis settings = (25+16*sqrt2)/3", bell_l1(rho_w, ex1), W_L1_AXIS, 1e-9))
    rows.append(_close("W state rel-ent, axis settings = 10/3 + 2*log2(3)", bell_rel_ent(rho_w, ex1), W_REL_ENT_AXIS, 1e-9))
    rows.append(_close("GHZ state l1, axis settings = 20", bell_l1(rho_ghz, ex1), GHZ_L1_AXIS, 1e-9))
    rows.append(_close("GHZ state rel-ent, axis settings = 8", bell_rel_ent(rho_ghz, ex1), GHZ_REL_ENT_AXIS, 1e-9))
    rows.append(_close("W state skew, axis settings = 10", bell_skew(rho_w, ex1), W_SKEW_AXIS, 1e-9))
    rows.append(_close("W state skew, rotated settings = 10(1-2*sqrt3)/9", bell_skew(rho_w, ex2), W_SKEW_ROTATED, 1e-9))
    rows.append(_close("GHZ state skew, rotated settings = 10 + 2*sqrt3", bell_skew(rho_ghz, ex2), GHZ_SKEW_ROTATED, 1e-9))

    plus = DensityMatrix(0.5 * (np.eye(2) + pauli("x")))
    saturating = product_state(plus, plus, plus)
    zy = BellSettings(*(Observable(pauli(a)) for a in "zyzyzy"))
    rows.append(_close("saturation: |+++> with z/y settings, l1 = 14", bell_l1(saturating, zy), 14.0, 1e-9))
    rows.append(_close("saturation: |+++> with z/y settings, rel-ent = 6", bell_rel_ent(saturating, zy), 6.0, 1e-9))
    rows.append(_close("saturation: |+++> with z/y settings, skew = 6", bell_skew(saturating, zy), 6.0, 1e-9))

    yx = BellSettings(*(Observable(pauli(a)) for a in "yxyxyx"))
    mixed = DensityMatrix(np.eye(8) / 8.0)
    rows.append(_close("mabk: GHZ with y/x settings = 4", mabk(rho_ghz, yx), 4.0, 1e-9))
    rows.append(_close("mabk: maximally mixed state = 0", mabk(mixed, ex1), 0.0, 1e-9))

    l1, rel_ent, skew = FunctionalKind.L1, FunctionalKind.REL_ENT, FunctionalKind.SKEW
    # (name, curve, bracket, crossing): threshold_bisect's product-bound crossing within 1e-6 of crossing.
    crossings = (
        ("threshold: w-werner l1 crosses at p = (16*sqrt2-17)/(25+16*sqrt2)",
         FamilyCurve(Family.W_WERNER, l1, ex1), (0.0, 1.0), W_WERNER_L1_PSTAR),
        ("threshold: ghz-werner l1 crosses at p = 0.3",
         FamilyCurve(Family.GHZ_WERNER, l1, ex1), (0.0, 1.0), GHZ_WERNER_L1_PSTAR),
        ("threshold: w-werner skew crosses at p = (11-sqrt57)/20, axis settings",
         FamilyCurve(Family.W_WERNER, skew, ex1), (0.0, 1.0), W_WERNER_SKEW_PSTAR),
        ("threshold: ghz-werner skew crosses at p = (5-sqrt3)/11, rotated settings",
         FamilyCurve(Family.GHZ_WERNER, skew, ex2), (0.0, 1.0), GHZ_WERNER_SKEW_PSTAR),
        ("threshold: ghz-pure l1 crosses at theta = arcsin(5/11)/2",
         FamilyCurve(Family.GHZ_PURE, l1, ex1), (0.05, math.pi / 4.0), GHZ_PURE_L1_THETA_STAR),
        ("true crossing: w-werner rel-ent falls through 6 near p = 0.02602",
         FamilyCurve(Family.W_WERNER, rel_ent, ex1), (0.0, 1.0), W_WERNER_REL_ENT_PSTAR),
        ("true crossing: ghz-werner rel-ent falls through 6 near p = 0.11027",
         FamilyCurve(Family.GHZ_WERNER, rel_ent, ex1), (0.0, 1.0), GHZ_WERNER_REL_ENT_PSTAR),
    )
    for name, curve, bracket, crossing in crossings:
        rows.append(_close(name, threshold_bisect(curve, bracket), crossing, 1e-6))

    thetas = [k * math.pi / 101.0 for k in range(1, 101)]
    ps = [k / 100.0 for k in range(1, 100)]
    w_grid = [(k * math.pi / 51.0, 2.0 * math.pi * m / 51.0) for k in range(1, 51) for m in range(1, 51)]
    # (name, curve, points, reference, tol): a witness row (no reference) asks for a grid minimum
    # above the product bound, a closed-form row for max |value - reference(point)| <= tol.
    grids = (
        ("witness: w-pure rel-ent > 6 on interior 50x50 grid",
         FamilyCurve(Family.W_PURE, rel_ent, ex1), w_grid, None, None),
        ("witness: ghz-pure rel-ent > 6 on interior 100-point grid",
         FamilyCurve(Family.GHZ_PURE, rel_ent, ex1), thetas, None, None),
        ("closed form: ghz-pure l1 = 9 + 11|sin 2theta|",
         FamilyCurve(Family.GHZ_PURE, l1, ex1), thetas, ghz_pure_l1_curve, 1e-9),
        ("closed form: ghz-pure rel-ent = 6 + 2h(cos^2 theta)",
         FamilyCurve(Family.GHZ_PURE, rel_ent, ex1), thetas, ghz_pure_rel_ent_curve, 1e-9),
        ("closed form: ghz-pure skew = 6 + sqrt3 - (4+sqrt3)cos 4theta, rotated settings",
         FamilyCurve(Family.GHZ_PURE, skew, ex2), thetas, ghz_pure_skew_curve, 1e-9),
        ("closed form: w-werner l1 = (1-p)(25+16*sqrt2)/3",
         FamilyCurve(Family.W_WERNER, l1, ex1), ps, w_werner_l1_curve, 1e-9),
        ("closed form: ghz-werner l1 = 20(1-p)",
         FamilyCurve(Family.GHZ_WERNER, l1, ex1), ps, ghz_werner_l1_curve, 1e-9),
        ("closed form: w-werner skew = 10(1 - 3p/4 - sqrt(8p-7p^2)/4), axis settings",
         FamilyCurve(Family.W_WERNER, skew, ex1), ps, w_werner_skew_curve, 1e-9),
        ("closed form: ghz-werner skew = (10+2*sqrt3)(1 - 3p/4 - sqrt(8p-7p^2)/4), rotated settings",
         FamilyCurve(Family.GHZ_WERNER, skew, ex2), ps, ghz_werner_skew_curve, 1e-9),
        ("corrected identity: w-werner rel-ent = reported form - 2 * state entropy",
         FamilyCurve(Family.W_WERNER, rel_ent, ex1), ps, w_werner_rel_ent_corrected, 1e-9),
        ("corrected identity: ghz-werner rel-ent = reported form - 2 * state entropy",
         FamilyCurve(Family.GHZ_WERNER, rel_ent, ex1), ps, ghz_werner_rel_ent_corrected, 1e-9),
    )
    for name, curve, points, reference, tol in grids:
        values = evaluate_family_grid(curve, points).tolist()
        if reference is None:
            low = min(values)
            rows.append(CheckResult(name, low > product_bound(curve.kind), f"grid minimum {low!r}"))
        else:
            dev = max(abs(v - reference(t)) for t, v in zip(points, values))
            rows.append(CheckResult(name, dev <= tol, f"max |dev| {dev:.3e} over {len(points)} points (tol {tol:.1e})"))
    rows.append(_close(
        "spot value: ghz-werner rel-ent at p = 0.5",
        evaluate_family(FamilyCurve(Family.GHZ_WERNER, rel_ent, ex1), 0.5), GHZ_WERNER_REL_ENT_AT_HALF, 1e-9,
    ))

    worst = _ensemble_margins(n_states=ensemble_states)
    for kind in FunctionalKind:
        bound = product_bound(kind)
        rows.append(CheckResult(
            f"ensemble: product states stay within the {kind.value} bound",
            worst[kind] <= bound + VIOLATION_MARGIN,
            f"largest value {worst[kind]!r} vs bound {bound!r}",
        ))
    return rows


def adjudications() -> list[str]:
    """Informational verdicts where reference formulas disagree with direct evaluation."""
    ex1 = example1_settings()
    ex2 = example2_settings()
    rho_w = pure_density(w_state())
    skew_rot = bell_skew(rho_w, ex2)
    skew_axis = bell_skew(rho_w, ex1)
    reported_half = ghz_werner_rel_ent_reported(0.5)
    direct_half = evaluate_family(FamilyCurve(Family.GHZ_WERNER, FunctionalKind.REL_ENT, ex1), 0.5)
    return [
        (
            "W-state skew: the headline value 10 holds for the axis-aligned settings "
            f"(direct {skew_axis:.12f}); the rotated settings give 10(1-2*sqrt3)/9 = {skew_rot:.12f}, "
            "so the headline attributes the wrong settings to this value."
        ),
        (
            "Werner rel-ent reported closed forms are high by exactly 2*S(rho_p): "
            f"at p=0.5 the GHZ-family form gives {reported_half:.12f} while direct evaluation "
            f"gives {direct_half:.12f}; subtracting 2*S(rho_p) reconciles them to ~1e-12 "
            "(gated rows 'corrected identity: ...')."
        ),
        (
            "Because of that defect the Werner rel-ent curves are NOT everywhere above 6: "
            f"they cross near p = {W_WERNER_REL_ENT_PSTAR:.9f} (W family) and "
            f"p = {GHZ_WERNER_REL_ENT_PSTAR:.9f} (GHZ family); gated rows 'true crossing: ...'."
        ),
        (
            "GHZ-family pure l1 closed form: constant term is 9, not 11; the variant "
            "11 + 11|sin 2theta| exceeds direct evaluation by exactly 2 and would move the "
            "violation onset ratio from 5/11 to 3/11."
        ),
        (
            "W-family Werner l1 prefactor is (25+16*sqrt2)/3, not (31+16*sqrt2)/3, and the "
            "GHZ-family prefactor is 20, not 22; both variants exceed direct evaluation by 2(1-p)."
        ),
        (
            "Werner skew scaling surd is sqrt(8p-7p^2); the sqrt(8p-p^2) variant would put the "
            f"W-family crossing near 0.1600 instead of (11-sqrt57)/20 = {W_WERNER_SKEW_PSTAR:.9f}."
        ),
    ]


def run(stream=None) -> int:
    """Print the check table and adjudications; 0 if every row passed."""
    out = stream if stream is not None else sys.stdout
    rows = checks()
    failed = [row for row in rows if not row.passed]
    for row in rows:
        mark = "PASS" if row.passed else "FAIL"
        print(f"{mark}  {row.name}: {row.detail}", file=out)
    print(file=out)
    print("adjudications (informational):", file=out)
    for line in adjudications():
        print(f"  * {line}", file=out)
    print(file=out)
    print(f"{len(rows)} checks, {len(failed)} failed", file=out)
    return 0 if not failed else 1
