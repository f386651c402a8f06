"""Output checks for every benchmark operation.

``attach_references`` computes what each operation must produce, before
any pass runs, so no reference work lands in a timed region.  ``check``
then judges one operation's exit code and captured stdout and returns a
failure message, or None when the output is right.

References come from the closed forms and constants in
``tribell.verify`` and from the slow per-term definitions in
``tribell.measures`` (l1 coherence, relative entropy of coherence, skew
information over ``product_basis``).  Settings, term triples and family
states are rebuilt here from their definitions rather than taken from
``tribell.bell``, so the references do not share the evaluation path
being measured.
"""

from __future__ import annotations

import json
import math

import numpy as np

TERMS = ((1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2))
SIGNS = (1.0, 1.0, 1.0, -1.0)
BOUNDS = {"mabk": 2.0, "l1": 14.0, "rel-ent": 6.0, "skew": 6.0}
VIOLATION_MARGIN = 1e-9

SCAN_TOL = 1e-9  # closed form or per-term reference vs a scan row
THRESHOLD_TOL = 1e-6  # bisection result vs the verify constant
TARGET_TOL = 1e-6  # optimize value may fall this far below its target
CAP_ROUNDING = 1e-9  # a cap is exceeded only by more than rounding
EVAL_TOL = 1e-9  # eval result vs the per-term reference
SCAN_SAMPLES = 40  # sampled rows per scan without a closed form
VERIFY_LINE = "39 checks, 0 failed"

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def named_settings(name: str) -> list[np.ndarray]:
    """The six observables A1, A2, B1, B2, C1, C2 of a built-in settings name."""
    if name == "example1":
        return [X, Z, -Y, Z, X, Z]

    def pair(alpha: float) -> list[np.ndarray]:
        return [math.cos(alpha) * Z - math.sin(alpha) * X, math.sin(alpha) * Z + math.cos(alpha) * X]

    return [Z, X, *pair(math.pi / 6), *pair(math.pi / 3)]


def angle_settings(angles) -> list[np.ndarray]:
    """n . sigma for six (theta, phi) Bloch directions."""
    out = []
    for theta, phi in zip(angles[0::2], angles[1::2]):
        n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        out.append(n[0] * X + n[1] * Y + n[2] * Z)
    return out


def per_term_reference(kind: str, rho_matrix: np.ndarray, mats: list[np.ndarray]) -> float:
    """Signed four-term combination from the definitions in tribell.measures."""
    from tribell.measures import l1_coherence, relative_entropy_coherence, skew_information
    from tribell.states import DensityMatrix, Observable, product_basis

    rho = DensityMatrix(rho_matrix)
    total = 0.0
    for sign, (i, j, k) in zip(SIGNS, TERMS):
        a, b, c = mats[i - 1], mats[1 + j], mats[3 + k]
        if kind == "mabk":
            term = float(np.trace(rho.matrix @ np.kron(np.kron(a, b), c)).real)
        elif kind == "skew":
            collective = np.kron(np.kron(a, I2), I2) + np.kron(np.kron(I2, b), I2) + np.kron(np.kron(I2, I2), c)
            term = skew_information(rho, collective)
        else:
            basis = product_basis(Observable(a), Observable(b), Observable(c))
            quantifier = l1_coherence if kind == "l1" else relative_entropy_coherence
            term = quantifier(rho, basis)
        total += sign * term
    return abs(total) if kind == "mabk" else total


def w_pure_matrix(theta: float, phi: float) -> np.ndarray:
    amp = np.zeros(8, dtype=complex)
    amp[1] = math.cos(theta) * math.cos(phi)
    amp[2] = math.cos(theta) * math.sin(phi)
    amp[4] = math.sin(theta)
    return np.outer(amp, amp.conj())


def _closed_forms():
    from tribell import verify as v

    return {
        ("ghz-pure", "l1", "example1"): v.ghz_pure_l1_curve,
        ("ghz-pure", "rel-ent", "example1"): v.ghz_pure_rel_ent_curve,
        ("ghz-pure", "skew", "example2"): v.ghz_pure_skew_curve,
        ("w-werner", "l1", "example1"): v.w_werner_l1_curve,
        ("w-werner", "rel-ent", "example1"): v.w_werner_rel_ent_corrected,
        ("w-werner", "skew", "example1"): v.w_werner_skew_curve,
        ("ghz-werner", "l1", "example1"): v.ghz_werner_l1_curve,
        ("ghz-werner", "rel-ent", "example1"): v.ghz_werner_rel_ent_corrected,
        ("ghz-werner", "skew", "example2"): v.ghz_werner_skew_curve,
    }


def _crossings():
    from tribell import verify as v

    return {
        ("w-werner", "l1", "example1"): v.W_WERNER_L1_PSTAR,
        ("ghz-werner", "l1", "example1"): v.GHZ_WERNER_L1_PSTAR,
        ("w-werner", "skew", "example1"): v.W_WERNER_SKEW_PSTAR,
        ("ghz-werner", "skew", "example2"): v.GHZ_WERNER_SKEW_PSTAR,
        ("w-werner", "rel-ent", "example1"): v.W_WERNER_REL_ENT_PSTAR,
        ("ghz-werner", "rel-ent", "example1"): v.GHZ_WERNER_REL_ENT_PSTAR,
        ("ghz-pure", "l1", "example1"): v.GHZ_PURE_L1_THETA_STAR,
    }


def _scan_expectation(chk: dict, closed_forms: dict) -> dict:
    grids = [np.linspace(lo, hi, n) for lo, hi, n in chk["axes"]]
    if len(grids) == 1:
        params = [(float(t), None) for t in grids[0]]
    else:
        params = [(float(t), float(u)) for t in grids[0] for u in grids[1]]
    key = (chk["family"], chk["kind"], chk["settings"])
    if key in closed_forms:
        form = closed_forms[key]
        refs = {i: form(p[0]) for i, p in enumerate(params)}
    else:
        rng = np.random.default_rng([chk["sample_seed"], 2])
        mats = named_settings(chk["settings"])
        rows = sorted(int(i) for i in rng.choice(len(params), size=SCAN_SAMPLES, replace=False))
        refs = {i: per_term_reference(chk["kind"], w_pure_matrix(*params[i]), mats) for i in rows}
    return {"params": params, "refs": refs}


def attach_references(ops: list[dict]) -> None:
    """Fill in each operation's ``expect`` entry."""
    closed_forms = crossings = None
    for op in ops:
        chk = op["check"]
        kind = chk["op"]
        if kind == "scan":
            closed_forms = closed_forms or _closed_forms()
            op["expect"] = _scan_expectation(chk, closed_forms)
        elif kind == "threshold":
            crossings = crossings or _crossings()
            op["expect"] = {"p_star": crossings[(chk["family"], chk["kind"], chk["settings"])]}
        elif kind == "eval":
            with open(chk["state_file"], encoding="utf-8") as fh:
                entries = json.load(fh)["entries"]
            rho = np.array([complex(re, im) for re, im in entries]).reshape(8, 8)
            op["expect"] = {"value": per_term_reference(chk["kind"], rho, angle_settings(chk["angles"]))}
        else:
            op["expect"] = {}


def _check_value_row(value: float, bound: float, violated: bool, want_bound: float) -> str | None:
    if bound != want_bound:
        return f"bound {bound!r} != {want_bound!r}"
    if violated != (value > want_bound + VIOLATION_MARGIN):
        return f"violated flag {violated!r} inconsistent with value {value!r}"
    return None


def _check_scan(chk: dict, expect: dict, out: str) -> str | None:
    lines = out.split("\n")
    if lines[0] != "param1,param2,value,bound,violated" or lines[-1] != "":
        return "scan output is not the expected CSV"
    rows = lines[1:-1]
    params = expect["params"]
    if len(rows) != len(params):
        return f"scan has {len(rows)} rows, expected {len(params)}"
    want_bound = BOUNDS[chk["kind"]]
    refs = expect["refs"]
    for i, (line, (p1, p2)) in enumerate(zip(rows, params)):
        f1, f2, fv, fb, fflag = line.split(",")
        if float(f1) != p1 or (f2 != "" if p2 is None else float(f2) != p2):
            return f"row {i}: parameters {f1},{f2} != {p1!r},{p2!r}"
        value = float(fv)
        if fflag not in ("true", "false"):
            return f"row {i}: violated flag {fflag!r}"
        problem = _check_value_row(value, float(fb), fflag == "true", want_bound)
        if problem:
            return f"row {i}: {problem}"
        if i in refs and not abs(value - refs[i]) <= SCAN_TOL:
            return f"row {i}: value {value!r} vs reference {refs[i]!r}"
    return None


def check(op: dict, rc: int, out: str) -> str | None:
    """None when the operation exited 0 and its output is right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    chk, expect = op["check"], op["expect"]
    kind = chk["op"]
    try:
        if kind == "scan":
            return _check_scan(chk, expect, out)
        if kind == "verify":
            return None if VERIFY_LINE in out.splitlines() else f"verify did not print {VERIFY_LINE!r}"
        payload = json.loads(out)
        if kind == "threshold":
            got = payload["p_star"]
            return None if abs(got - expect["p_star"]) <= THRESHOLD_TOL else f"p_star {got!r} vs {expect['p_star']!r}"
        if kind == "optimize":
            value = payload["value"]
            if not chk["target"] - TARGET_TOL <= value <= chk["cap"] + CAP_ROUNDING:
                return f"optimize value {value!r} outside [{chk['target']} - {TARGET_TOL}, {chk['cap']}]"
            return None
        if kind == "eval":
            value = payload["value"]
            if payload["kind"] != chk["kind"]:
                return f"kind {payload['kind']!r} != {chk['kind']!r}"
            problem = _check_value_row(value, payload["bound"], payload["violated"], BOUNDS[chk["kind"]])
            if problem:
                return problem
            want = expect["value"]
            return None if abs(value - want) <= EVAL_TOL else f"eval value {value!r} vs reference {want!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable {kind} output: {exc!r}"
    return f"unknown operation {kind!r}"
