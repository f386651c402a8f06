"""Tripartite Bell-type functionals over two dichotomic settings per party.

Each functional combines the four setting triples (1,1,2), (1,2,1),
(2,1,1) and (2,2,2) with signs +, +, +, -.  The correlator variant takes
the absolute value of the signed combination; the coherence and
skew-information variants return the signed combination itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import _adjoint, _kron, herm_eig
from .measures import _clamp_at_zero, _prob_entropy, _skew_from_root
from .states import (
    DensityMatrix,
    Observable,
    ParameterOutOfRangeError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_observable,
    collective_observable,
    ghz_class_pure,
    pure_density,
    w_class_pure,
    werner_mix,
)

TERMS = ((1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2))
TERM_SIGNS = (1.0, 1.0, 1.0, -1.0)
VIOLATION_MARGIN = 1e-9


class FunctionalKind(Enum):
    MABK = "mabk"
    L1 = "l1"
    REL_ENT = "rel-ent"
    SKEW = "skew"


PRODUCT_BOUNDS: dict[FunctionalKind, float] = {
    FunctionalKind.MABK: 2.0,
    FunctionalKind.L1: 14.0,
    FunctionalKind.REL_ENT: 6.0,
    FunctionalKind.SKEW: 6.0,
}


def product_bound(kind: FunctionalKind) -> float:
    """Largest value attainable on fully product states."""
    return PRODUCT_BOUNDS[kind]


@dataclass(frozen=True)
class BellSettings:
    """Two dichotomic observables per party."""

    m_a1: Observable
    m_a2: Observable
    m_b1: Observable
    m_b2: Observable
    m_c1: Observable
    m_c2: Observable

    def __post_init__(self) -> None:
        for name in ("m_a1", "m_a2", "m_b1", "m_b2", "m_c1", "m_c2"):
            ob = getattr(self, name)
            if not isinstance(ob, Observable):
                raise TypeError(f"{name} must be an Observable")
            if not ob.dichotomic:
                raise ValueError(f"{name} must be dichotomic")

    def for_term(self, term: tuple[int, int, int]) -> tuple[Observable, Observable, Observable]:
        """The (A, B, C) observables selected by a setting triple."""
        i, j, k = term
        a = self.m_a1 if i == 1 else self.m_a2
        b = self.m_b1 if j == 1 else self.m_b2
        c = self.m_c1 if k == 1 else self.m_c2
        return (a, b, c)

    # Settings-side operands, built on first use and kept on the instance
    # (cached_property writes the instance __dict__, which a frozen
    # dataclass allows); reuse one settings object across states.
    @functools.cached_property
    def term_unitaries(self) -> np.ndarray:
        """The four terms' 8x8 product-basis unitaries, stacked (4, 8, 8).

        The Kronecker product of the three party eigenvector matrices
        stacks the product kets in the same lexicographic column order that
        product_basis uses, so each unitary equals the corresponding
        ProductBasis.unitary() exactly.
        """
        vecs = {
            name: herm_eig(getattr(self, name).matrix).eigenvectors
            for name in ("m_a1", "m_a2", "m_b1", "m_b2", "m_c1", "m_c2")
        }
        return _read_only(
            _term_unitary(vecs[f"m_a{i}"], vecs[f"m_b{j}"], vecs[f"m_c{k}"])
            for i, j, k in TERMS
        )

    @functools.cached_property
    def mabk_operators(self) -> np.ndarray:
        """The four joint correlator operators A (x) B (x) C, stacked (4, 8, 8)."""
        return _read_only(_mabk_operator(*self.for_term(term)) for term in TERMS)

    @functools.cached_property
    def collective_observables(self) -> np.ndarray:
        """The four collective observables A + B + C of the skew terms, stacked (4, 8, 8)."""
        return _read_only(collective_observable(*self.for_term(term)) for term in TERMS)


def _term_unitary(va: np.ndarray, vb: np.ndarray, vc: np.ndarray) -> np.ndarray:
    return _kron(va, _kron(vb, vc))


def _mabk_operator(a: Observable, b: Observable, c: Observable) -> np.ndarray:
    return _kron(_kron(a.matrix, b.matrix), c.matrix)


def _read_only(arrays) -> np.ndarray:
    out = np.stack(tuple(arrays))
    out.setflags(write=False)
    return out


def example1_settings() -> BellSettings:
    """Axis-aligned settings: A uses x/z, B uses -y/z, C uses x/z."""
    return BellSettings(
        m_a1=Observable(PAULI_X),
        m_a2=Observable(PAULI_Z),
        m_b1=Observable(-PAULI_Y),
        m_b2=Observable(PAULI_Z),
        m_c1=Observable(PAULI_X),
        m_c2=Observable(PAULI_Z),
    )


def example2_settings() -> BellSettings:
    """Rotated settings in the xz plane, party pairs staying orthogonal.

    Party A measures z/x; parties B and C measure the same pair rotated
    by pi/6 and pi/3 respectively.
    """

    def rotated_pair(alpha: float) -> tuple[Observable, Observable]:
        first = math.cos(alpha) * PAULI_Z - math.sin(alpha) * PAULI_X
        second = math.sin(alpha) * PAULI_Z + math.cos(alpha) * PAULI_X
        return (Observable(first), Observable(second))

    b1, b2 = rotated_pair(math.pi / 6)
    c1, c2 = rotated_pair(math.pi / 3)
    return BellSettings(
        m_a1=Observable(PAULI_Z),
        m_a2=Observable(PAULI_X),
        m_b1=b1,
        m_b2=b2,
        m_c1=c1,
        m_c2=c2,
    )


# Array kernels: states (..., 8, 8) and term operands (..., 8, 8) broadcast against each other
# (one state under a settings object's (4, 8, 8) operands gives (4,), an (N, 1, 8, 8) stack gives
# (N, 4), one state and one operand a scalar), and each value gets the arithmetic of one term on
# one state, so its bits do not depend on the stacking.  measures._skew_from_root is the skew kernel.
def _mabk_terms(rhos: np.ndarray, joints: np.ndarray) -> np.ndarray:
    return np.trace(rhos @ joints, axis1=-2, axis2=-1).real


def _l1_terms(rhos: np.ndarray, us: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.abs(_adjoint(us) @ rhos @ us), axis=(-2, -1)) - 1.0


def _rel_ent_terms(rhos: np.ndarray, us: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Also takes the states' eigenvalues, (..., 8) like rhos; one entropy call serves populations and spectra."""
    populations = np.einsum("...ij,...jk,...ki->...i", _adjoint(us), rhos, us).real
    entropies = _prob_entropy(np.concatenate([populations.reshape(-1, 8), spectra.reshape(-1, 8)]))
    n = populations.size // 8
    gain = entropies[:n].reshape(populations.shape[:-1]) - entropies[n:].reshape(spectra.shape[:-1])
    return _clamp_at_zero(gain)


def _signed_sum(t0, t1, t2, t3):
    """The TERM_SIGNS combination of four terms (floats or like-shaped arrays), added from 0.0 in order."""
    return 0.0 + t0 + t1 + t2 - t3


def mabk(rho: DensityMatrix, settings: BellSettings) -> float:
    """Absolute value of the signed combination of product correlators."""
    return float(abs(_signed_sum(*_mabk_terms(rho.matrix, settings.mabk_operators))))


def bell_l1(rho: DensityMatrix, settings: BellSettings) -> float:
    """Signed combination of l1 coherences in the term product bases."""
    return float(_signed_sum(*_l1_terms(rho.matrix, settings.term_unitaries)))


def bell_rel_ent(rho: DensityMatrix, settings: BellSettings) -> float:
    """Signed combination of relative-entropy coherences in the term bases."""
    return float(_signed_sum(*_rel_ent_terms(rho.matrix, settings.term_unitaries, np.linalg.eigvalsh(rho.matrix))))


def bell_skew(rho: DensityMatrix, settings: BellSettings) -> float:
    """Signed combination of skew informations of collective observables."""
    return float(_signed_sum(*_skew_from_root(rho.root, settings.collective_observables)))


_EVALUATORS = {
    FunctionalKind.MABK: mabk,
    FunctionalKind.L1: bell_l1,
    FunctionalKind.REL_ENT: bell_rel_ent,
    FunctionalKind.SKEW: bell_skew,
}


def evaluate(kind: FunctionalKind, rho: DensityMatrix, settings: BellSettings) -> float:
    """Evaluate one functional kind on a state with given settings."""
    return _EVALUATORS[kind](rho, settings)


class Family(Enum):
    W_PURE = "w-pure"
    GHZ_PURE = "ghz-pure"
    W_WERNER = "w-werner"
    GHZ_WERNER = "ghz-werner"


FAMILY_DOMAINS: dict[Family, tuple[tuple[float, float], ...]] = {
    Family.W_PURE: ((0.0, math.pi), (0.0, 2.0 * math.pi)),
    Family.GHZ_PURE: ((0.0, math.pi),),
    Family.W_WERNER: ((0.0, 1.0),),
    Family.GHZ_WERNER: ((0.0, 1.0),),
}


def family_param_count(family: Family) -> int:
    return len(FAMILY_DOMAINS[family])


def family_state(family: Family, params: tuple[float, ...]) -> DensityMatrix:
    """Construct the parametrized family member, validating the domain."""
    domain = FAMILY_DOMAINS[family]
    if len(params) != len(domain):
        raise ParameterOutOfRangeError(
            f"family {family.value} takes {len(domain)} parameter(s), got {len(params)}"
        )
    for value, (lo, hi) in zip(params, domain):
        if not lo <= value <= hi:
            raise ParameterOutOfRangeError(
                f"parameter {value!r} outside [{lo:.6g}, {hi:.6g}] for family {family.value}"
            )
    if family is Family.W_PURE:
        return pure_density(w_class_pure(params[0], params[1]))
    if family is Family.GHZ_PURE:
        return pure_density(ghz_class_pure(params[0]))
    return werner_mix(_werner_base(family), params[0])


@functools.cache
def _werner_base(family: Family) -> DensityMatrix:
    """The fixed pure state a Werner family mixes with white noise."""
    if family is Family.GHZ_WERNER:
        return pure_density(ghz_class_pure(math.pi / 4.0))
    return pure_density(w_class_pure(math.asin(1.0 / math.sqrt(3.0)), math.pi / 4.0))


@dataclass(frozen=True)
class FamilyCurve:
    """One functional kind traced along one state family at fixed settings."""

    family: Family
    kind: FunctionalKind
    settings: BellSettings


def evaluate_family(curve: FamilyCurve, params) -> float:
    """Evaluate the curve at a parameter point (scalar or tuple)."""
    if np.isscalar(params):
        point = (float(params),)
    else:
        point = tuple(float(v) for v in params)
    rho = family_state(curve.family, point)
    return evaluate(curve.kind, rho, curve.settings)


class NoSignChangeError(RuntimeError):
    """Raised when a bisection bracket does not straddle the bound."""


class NotMonotoneError(RuntimeError):
    """Raised when the curve is not monotone across the bracket."""


def threshold_bisect(curve: FamilyCurve, bracket: tuple[float, float], tol: float = 1e-9) -> float:
    """Parameter where a one-parameter curve crosses its product bound.

    Checks that the bracket endpoints straddle the bound and that the
    curve is monotone on a 16-point interior sample before bisecting.
    """
    if family_param_count(curve.family) != 1:
        raise ValueError("threshold_bisect needs a one-parameter family")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"invalid bracket ({lo!r}, {hi!r})")
    bound = product_bound(curve.kind)

    def gap(t: float) -> float:
        return evaluate_family(curve, t) - bound

    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_lo == 0.0:
        return lo
    if gap_hi == 0.0:
        return hi
    if math.copysign(1.0, gap_lo) == math.copysign(1.0, gap_hi):
        raise NoSignChangeError(
            f"no crossing of {bound:g} on [{lo:.6g}, {hi:.6g}]: endpoint gaps {gap_lo:.3e}, {gap_hi:.3e}"
        )
    samples = [gap_lo] + [gap(lo + (hi - lo) * k / 17.0) for k in range(1, 17)] + [gap_hi]
    diffs = np.diff(samples)
    if not (np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)):
        raise NotMonotoneError(f"curve is not monotone on [{lo:.6g}, {hi:.6g}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if gap_mid == 0.0:
            return mid
        if math.copysign(1.0, gap_mid) == math.copysign(1.0, gap_lo):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def settings_from_angles(angles) -> BellSettings:
    """Build settings from 12 Bloch angles, (theta, phi) per observable.

    Order: A1, A2, B1, B2, C1, C2.
    """
    values = [float(v) for v in np.asarray(angles, dtype=float).ravel()]
    if len(values) != 12:
        raise ValueError(f"expected 12 angles, got {len(values)}")
    obs = [bloch_observable(values[2 * i], values[2 * i + 1]) for i in range(6)]
    return BellSettings(*obs)


def random_settings(seed: int) -> BellSettings:
    """Six independent uniform Bloch directions from a seed."""
    rng = np.random.default_rng(seed)
    angles = []
    for _ in range(6):
        u, v = rng.uniform(), rng.uniform()
        angles.extend([math.acos(1.0 - 2.0 * u), 2.0 * math.pi * v])
    return settings_from_angles(angles)


def _coordinate_ascent(objective, start, iterations: int, step0: float, floor: float):
    """Greedy per-coordinate ascent with step halving.

    After a successful probe the search keeps walking in the same
    direction while the value improves, which matters near the kinks of
    the l1 functional.
    """
    x = np.array(start, dtype=float)
    best = objective(x)
    step = step0
    for _ in range(iterations):
        improved = False
        for i in range(x.size):
            for delta in (step, -step):
                trial = x.copy()
                trial[i] += delta
                value = objective(trial)
                if value > best:
                    x, best, improved = trial, value, True
                    while True:
                        trial = x.copy()
                        trial[i] += delta
                        value = objective(trial)
                        if value > best:
                            x, best = trial, value
                        else:
                            break
                    break
        if not improved:
            step *= 0.5
            if step < floor:
                break
    return x, best


def optimize_settings(
    rho: DensityMatrix,
    kind: FunctionalKind,
    restarts: int = 8,
    iterations: int = 200,
    seed: int = 0,
) -> tuple[BellSettings, float]:
    """Search over all 12 Bloch angles for settings maximizing a functional.

    Deterministic for fixed arguments: restart r draws its start point
    from default_rng([seed, r]).  Returns the best settings found and
    their value.
    """
    if restarts < 1 or iterations < 1:
        raise ValueError("restarts and iterations must be positive")
    # A probe moves one angle, changing one observable and the two terms
    # that use it.  Keys are exact angles (the search never makes -0.0), so
    # a hit is bit-identical to a fresh evaluation; bounded for ~10^4 probes.
    needs_vectors = kind in (FunctionalKind.L1, FunctionalKind.REL_ENT)
    spectrum = np.linalg.eigvalsh(rho.matrix)
    term_value = {
        FunctionalKind.MABK: lambda obs, vecs: _mabk_terms(rho.matrix, _mabk_operator(*obs)),
        FunctionalKind.L1: lambda obs, vecs: _l1_terms(rho.matrix, _term_unitary(*vecs)),
        FunctionalKind.REL_ENT: lambda obs, vecs: _rel_ent_terms(rho.matrix, _term_unitary(*vecs), spectrum),
        FunctionalKind.SKEW: lambda obs, vecs: _skew_from_root(rho.root, collective_observable(*obs)),
    }[kind]

    @functools.lru_cache(maxsize=64)
    def party(theta: float, phi: float) -> tuple[Observable, np.ndarray | None]:
        obs = bloch_observable(theta, phi)
        return obs, herm_eig(obs.matrix).eigenvectors if needs_vectors else None

    @functools.lru_cache(maxsize=64)
    def term(*pairs: tuple[float, float]) -> float:
        return float(term_value(*zip(*(party(*pair) for pair in pairs))))

    def objective(angles: np.ndarray) -> float:
        pairs = [(float(angles[2 * n]), float(angles[2 * n + 1])) for n in range(6)]
        total = _signed_sum(*[term(pairs[i - 1], pairs[j + 1], pairs[k + 3]) for i, j, k in TERMS])
        return abs(total) if kind is FunctionalKind.MABK else total

    best_angles = None
    best_value = -math.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        start = np.empty(12)
        for i in range(6):
            start[2 * i] = rng.uniform(0.0, math.pi)
            start[2 * i + 1] = rng.uniform(0.0, 2.0 * math.pi)
        angles, value = _coordinate_ascent(
            objective, start, iterations, step0=math.pi / 8.0, floor=1e-9
        )
        if value > best_value:
            best_angles, best_value = angles, value
    return settings_from_angles(best_angles), best_value
