"""Command-line interface.

Subcommands: eval, scan, threshold, optimize, verify.  Exit codes:
0 success, 1 verification failure, 2 argument or spec parse error,
3 invalid state input, 4 output I/O error, 5 threshold bracket failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bell import (
    FAMILY_DOMAINS,
    Family,
    FamilyCurve,
    FunctionalKind,
    NoSignChangeError,
    NotMonotoneError,
    VIOLATION_MARGIN,
    evaluate,
    evaluate_family,
    example1_settings,
    example2_settings,
    family_param_count,
    family_state,
    optimize,
    product_bound,
    settings_from_angles,
    threshold_bisect,
)
from .states import DensityMatrix, ParameterOutOfRangeError, ghz_state, pure_density, w_state
from . import verify as verify_module


class CliInputError(Exception):
    """A malformed command-line spec (exit code 2)."""


class StateInputError(Exception):
    """A state that cannot be constructed or loaded (exit code 3)."""


EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_BAD_STATE = 3
EXIT_IO = 4
EXIT_BRACKET = 5
# The exit code of each error a command may raise, the first matching entry in order.
_EXIT_CODES = {
    CliInputError: EXIT_PARSE,
    StateInputError: EXIT_BAD_STATE,
    NoSignChangeError: EXIT_BRACKET,
    NotMonotoneError: EXIT_BRACKET,
    ParameterOutOfRangeError: EXIT_PARSE,
    OSError: EXIT_IO,
}


def _floats(text: str, expected: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise CliInputError(f"{what} needs {expected} comma-separated numbers, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise CliInputError(f"{what} has a non-numeric entry: {exc}") from exc


def load_state_file(path: str) -> DensityMatrix:
    """Load a density matrix from a JSON file.

    Format: {"dim": d, "entries": [[re, im], ...]} with d*d entries in
    row-major order and d either 2 or 8.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StateInputError(f"cannot read state file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int_max_str_digits
        raise StateInputError(f"state file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise StateInputError(f"state file {path!r} must be an object with 'dim' and 'entries'")
    dim = data["dim"]
    entries = data["entries"]
    if dim not in (2, 8):
        raise StateInputError(f"state file {path!r}: dim must be 2 or 8, got {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise StateInputError(f"state file {path!r}: expected {dim * dim} entries")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateInputError(f"state file {path!r}: entries must be [re, im] pairs: {exc}") from exc
    try:
        return DensityMatrix(flat.reshape(dim, dim))
    except (ValueError, TypeError) as exc:
        raise StateInputError(f"state file {path!r} is not a valid density matrix: {exc}") from exc


def parse_state(spec: str) -> tuple[DensityMatrix, str]:
    """Resolve a --state spec into a density matrix and its description."""
    head, _, arg = spec.partition(":")
    try:
        if spec == "w":
            return pure_density(w_state()), spec
        if spec == "ghz":
            return pure_density(ghz_state()), spec
        if head == "file":
            if not arg:
                raise CliInputError("file state spec needs a path, e.g. file:rho.json")
            return load_state_file(arg), spec
        if head in [family.value for family in Family]:
            family = Family(head)
            count = family_param_count(family)
            return family_state(family, _floats(arg, count, f"{head} parameter" + "s" * (count > 1))), spec
    except ParameterOutOfRangeError as exc:
        raise StateInputError(str(exc)) from exc
    raise CliInputError(
        f"unknown state spec {spec!r}; expected w, ghz, w-pure:t,f, ghz-pure:t, "
        "w-werner:p, ghz-werner:p or file:path"
    )


def parse_settings(spec: str):
    """Resolve a --settings spec into settings and their description."""
    head, _, arg = spec.partition(":")
    if spec == "example1":
        return example1_settings(), spec
    if spec == "example2":
        return example2_settings(), spec
    if head == "angles":
        values = _floats(arg, 12, "angles settings spec")
        if not all(math.isfinite(v) for v in values):
            raise CliInputError(f"angles settings spec has a non-finite entry: {arg!r}")
        return settings_from_angles(values), spec
    raise CliInputError(f"unknown settings spec {spec!r}; expected example1, example2 or angles:12 numbers")


def parse_family(spec: str) -> Family:
    try:
        return Family(spec)
    except ValueError as exc:
        names = ", ".join(f.value for f in Family)
        raise CliInputError(f"unknown family {spec!r}; expected one of {names}") from exc


def _parse_axis(part: str, default: tuple[float, float]) -> np.ndarray:
    pieces = part.split(":")
    if len(pieces) == 1:
        lo, hi = default
        count_text = pieces[0]
    elif len(pieces) == 3:
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError as exc:
            raise CliInputError(f"grid bounds in {part!r} must be numbers") from exc
        count_text = pieces[2]
    else:
        raise CliInputError(f"grid axis {part!r} must be 'count' or 'lo:hi:count'")
    try:
        count = int(count_text)
    except ValueError as exc:
        raise CliInputError(f"grid count in {part!r} must be an integer") from exc
    if count < 2:
        raise CliInputError(f"grid count must be at least 2, got {count}")
    if not lo < hi:
        raise CliInputError(f"grid bounds must satisfy lo < hi, got {lo!r} >= {hi!r}")
    return np.linspace(lo, hi, count)


def parse_grid(spec: str, family: Family) -> list[np.ndarray]:
    """Resolve a --grid spec into one point array per family parameter.

    One-parameter families take 'count' or 'lo:hi:count'.  The
    two-parameter family also accepts 'NxM' or two comma-separated axis
    specs.  Bare counts span the family's full domain.
    """
    domains = FAMILY_DOMAINS[family]
    if len(domains) == 1:
        return [_parse_axis(spec, domains[0])]
    if "," in spec:
        parts = spec.split(",")
        if len(parts) != 2:
            raise CliInputError(f"grid {spec!r} must have two axes for family {family.value}")
        return [_parse_axis(part, dom) for part, dom in zip(parts, domains)]
    if "x" in spec:
        first, _, second = spec.partition("x")
        return [_parse_axis(first, domains[0]), _parse_axis(second, domains[1])]
    raise CliInputError(f"grid {spec!r} needs two axes (NxM or axis,axis) for family {family.value}")


def parse_bracket(spec: str) -> tuple[float, float]:
    pieces = spec.split(":")
    if len(pieces) != 2:
        raise CliInputError(f"bracket {spec!r} must be 'lo:hi'")
    try:
        lo, hi = float(pieces[0]), float(pieces[1])
    except ValueError as exc:
        raise CliInputError(f"bracket {spec!r} must contain numbers") from exc
    if not lo < hi:
        raise CliInputError(f"bracket must satisfy lo < hi, got {lo!r} >= {hi!r}")
    return lo, hi


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _require_three_qubits(rho: DensityMatrix, state_desc: str) -> None:
    if rho.dim != 8:
        raise StateInputError(
            f"state {state_desc!r} has dimension {rho.dim}; the functionals need a three-qubit state"
        )


def cmd_eval(args) -> int:
    rho, state_desc = parse_state(args.state)
    _require_three_qubits(rho, state_desc)
    settings, settings_desc = parse_settings(args.settings)
    kind = FunctionalKind(args.kind)
    value, bound = evaluate(kind, rho, settings), product_bound(kind)
    print(json.dumps({"kind": kind.value, "value": value, "bound": bound, "violated": value > bound + VIOLATION_MARGIN,
                      "state": state_desc, "settings": settings_desc}, indent=2))
    return EXIT_OK


def _scan_rows(family: Family, kind: FunctionalKind, settings, axes) -> list[dict]:
    curve = FamilyCurve(family=family, kind=kind, settings=settings)
    bound = product_bound(kind)
    rows = []
    for point in itertools.product(*(axis.tolist() for axis in axes)):
        value = evaluate_family(curve, point)
        rows.append(
            {
                "param1": point[0],
                "param2": point[1] if len(point) > 1 else None,
                "value": value,
                "bound": bound,
                "violated": value > bound + VIOLATION_MARGIN,
            }
        )
    return rows


def _write_scan(rows: list[dict], fmt: str, out_path: str) -> None:
    if fmt == "csv":
        lines = ["param1,param2,value,bound,violated"]
        for row in rows:
            p2 = "" if row["param2"] is None else _fmt(row["param2"])
            flag = "true" if row["violated"] else "false"
            lines.append(f"{_fmt(row['param1'])},{p2},{_fmt(row['value'])},{_fmt(row['bound'])},{flag}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"rows": rows}, indent=2) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_scan(args) -> int:
    family = parse_family(args.state)
    settings, _ = parse_settings(args.settings)
    kind = FunctionalKind(args.kind)
    axes = parse_grid(args.grid, family)
    try:
        rows = _scan_rows(family, kind, settings, axes)
    except ParameterOutOfRangeError as exc:
        raise CliInputError(f"grid leaves the family domain: {exc}") from exc
    _write_scan(rows, args.format, args.out)
    return EXIT_OK


def cmd_threshold(args) -> int:
    family = parse_family(args.state)
    if family_param_count(family) != 1:
        raise CliInputError(f"family {family.value} has two parameters; threshold needs one")
    settings, _ = parse_settings(args.settings)
    kind = FunctionalKind(args.kind)
    bracket = parse_bracket(args.bracket)
    curve = FamilyCurve(family=family, kind=kind, settings=settings)
    try:
        p_star = threshold_bisect(curve, bracket)
    except ParameterOutOfRangeError as exc:
        raise CliInputError(f"bracket leaves the family domain: {exc}") from exc
    print(json.dumps({"p_star": p_star, "value_at_p_star": evaluate_family(curve, p_star)}, indent=2))
    return EXIT_OK


def cmd_optimize(args) -> int:
    rho, state_desc = parse_state(args.state)
    _require_three_qubits(rho, state_desc)
    kind = FunctionalKind(args.kind)
    if args.restarts < 1 or args.iterations < 1:
        raise CliInputError("restarts and iterations must be positive")
    if args.seed < 0:
        raise CliInputError(f"seed must be non-negative, got {args.seed}")
    result = optimize(rho, kind, restarts=args.restarts, iterations=args.iterations, seed=args.seed)
    value, bound = result.value, product_bound(kind)
    print(json.dumps({"kind": kind.value, "state": state_desc, "value": value, "bound": bound,
                      "violated": value > bound + VIOLATION_MARGIN, "angles": result.angles,
                      "restarts": args.restarts, "iterations": args.iterations, "seed": args.seed}, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    rc = verify_module.run()
    return EXIT_OK if rc == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Evaluate tripartite Bell-type functionals built from coherence and skew information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in FunctionalKind]

    p_eval = sub.add_parser("eval", help="evaluate one functional on one state")
    p_eval.add_argument("--state", required=True)
    p_eval.add_argument("--settings", required=True)
    p_eval.add_argument("--kind", required=True, choices=kinds)
    p_eval.set_defaults(func=cmd_eval)

    p_scan = sub.add_parser("scan", help="trace a functional along a state family")
    p_scan.add_argument("--state", required=True, help="family name, e.g. ghz-werner")
    p_scan.add_argument("--kind", required=True, choices=kinds)
    p_scan.add_argument("--settings", default="example1")
    p_scan.add_argument("--grid", required=True)
    p_scan.add_argument("--out", default="-")
    p_scan.add_argument("--format", default="csv", choices=["csv", "json"])
    p_scan.set_defaults(func=cmd_scan)

    p_thr = sub.add_parser("threshold", help="bisect for the bound crossing of a family curve")
    p_thr.add_argument("--state", required=True, help="one-parameter family name")
    p_thr.add_argument("--kind", required=True, choices=kinds)
    p_thr.add_argument("--settings", default="example1")
    p_thr.add_argument("--bracket", required=True, help="lo:hi")
    p_thr.set_defaults(func=cmd_threshold)

    p_opt = sub.add_parser("optimize", help="search settings maximizing a functional on a state")
    p_opt.add_argument("--state", required=True)
    p_opt.add_argument("--kind", required=True, choices=kinds)
    p_opt.add_argument("--restarts", type=int, default=8)
    p_opt.add_argument("--iterations", type=int, default=200)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.set_defaults(func=cmd_optimize)

    p_ver = sub.add_parser("verify", help="run the built-in reference check suite")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
