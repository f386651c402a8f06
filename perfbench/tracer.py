"""Outside-in tracing of tribell's public functions.

``Tracer.install`` replaces each traced function at every binding site
inside the ``tribell`` package: the defining module, every module that
imported the name, module-level dicts that hold it (such as the
evaluator table in ``tribell.bell``) and, for ``__post_init__``, the
class.  No file of the program changes.  Spans (name, start, end,
parent, op id) are kept in flat arrays in memory; ``save`` writes them
out and ``layer_metrics`` reduces them to the per-layer metrics.

A function that no longer exists is recorded in ``missing``; metrics
built on it are left out rather than reported as 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

KIND_SPANS = ("bell.mabk", "bell.bell_l1", "bell.bell_rel_ent", "bell.bell_skew")


def _array_digest(args) -> int:
    return hash(np.asarray(args[0]).tobytes())


def _state_digest(args) -> int:
    return hash(args[0].matrix.tobytes())


# span name, module, attribute (Class.method for methods), digest of the
# inputs for distinct_frac.  cli.parse wraps build_parser and the
# parse_args of the parser it returns.
TARGETS = (
    ("cli.parse", "tribell.cli", "build_parser", None),
    ("cli.load_state_file", "tribell.cli", "load_state_file", None),
    ("verify.run", "tribell.verify", "run", None),
    ("verify.checks", "tribell.verify", "checks", None),
    ("bell.mabk", "tribell.bell", "mabk", None),
    ("bell.bell_l1", "tribell.bell", "bell_l1", None),
    ("bell.bell_rel_ent", "tribell.bell", "bell_rel_ent", None),
    ("bell.bell_skew", "tribell.bell", "bell_skew", None),
    ("bell.settings_from_angles", "tribell.bell", "settings_from_angles", None),
    ("bell.family_state", "tribell.bell", "family_state", None),
    ("bell.threshold_bisect", "tribell.bell", "threshold_bisect", None),
    ("bell.optimize_settings", "tribell.bell", "optimize_settings", None),
    ("states.DensityMatrix", "tribell.states", "DensityMatrix.__post_init__", None),
    ("states.Observable", "tribell.states", "Observable.__post_init__", None),
    ("states.collective_observable", "tribell.states", "collective_observable", None),
    ("linalg.herm_eig", "tribell.linalg", "herm_eig", _array_digest),
    ("linalg.psd_sqrt", "tribell.linalg", "psd_sqrt", _array_digest),
    ("linalg.kron", "tribell.linalg", "kron", None),
    ("measures.von_neumann_entropy", "tribell.measures", "von_neumann_entropy", _state_digest),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.digests: dict[str, set[int]] = {}
        self.kind_values: list[tuple[int, float]] = []  # (span index, value) of each evaluation
        self.missing: list[str] = []
        self.installed: list[str] = []
        self._main = self.wrap("cli.main", lambda fn, *args: fn(*args))

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn, digest=None):
        nid = len(self.names)
        self.names.append(name)
        seen = self.digests.setdefault(name, set()) if digest else None
        keep_value = name in KIND_SPANS
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(digest(args))
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if keep_value:
                self.kind_values.append((index, float(result)))
            return result

        return traced

    def _wrap_parser_factory(self, build_parser):
        """cli.parse covers building the argparse parser and parse_args."""
        traced_parse = self.wrap("cli.parse", lambda fn, *args: fn(*args))
        traced_build_only = self.wrap("cli.parse", build_parser)

        @functools.wraps(build_parser)
        def traced_build(*args, **kwargs):
            parser = traced_build_only(*args, **kwargs)
            parse_args = parser.parse_args
            parser.parse_args = lambda *args: traced_parse(parse_args, *args)
            return parser

        return traced_build

    # -- installation --------------------------------------------------
    @staticmethod
    def _rebind(original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tribell" or mod_name.startswith("tribell.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement

    def install(self) -> None:
        for name, mod_name, attr, digest in TARGETS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if owner_name and original is not None and method not in vars(owner):
                original = None  # inherited (e.g. no __post_init__ of its own)
            if original is None:
                self.missing.append(name)
                continue
            if name == "cli.parse":
                replacement = self._wrap_parser_factory(original)
            else:
                replacement = self.wrap(name, original, digest)
            if owner_name:
                setattr(owner, method, replacement)
            else:
                self._rebind(original, replacement)
            self.installed.append(name)

    def run_op(self, op: int, fn, *args):
        """Run one top-level operation under a ``cli.main`` span."""
        self.op = op
        return self._main(fn, *args)

    # -- output ----------------------------------------------------------
    def arrays(self):
        return tuple(np.array(a) for a in (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op))

    def save(self, path: str) -> None:
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start, end=end,
                            parent=parent, op=op)

    def layer_metrics(self, targets: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics of everything recorded.

        targets maps an op id to its optimize target, for evals_to_target.
        busy_s is a span's inclusive time and self_s that time minus its
        child spans.
        """
        name, start, end, parent, op = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        label = np.array(self.names)[name]
        present = set(self.installed) | {"cli.main"}
        kinds = [k for k in KIND_SPANS if k in present]
        is_kind = np.isin(label, kinds)
        evals = int(is_kind.sum())
        kind_index = np.flatnonzero(is_kind)
        value = np.full(len(name), np.nan)
        for index, v in self.kind_values:
            value[index] = v

        def inside(i: int) -> np.ndarray:
            # Spans are recorded in start order on one thread, so the
            # functional spans inside span i are those after it that start
            # before it ends.
            return kind_index[(kind_index > i) & (start[kind_index] <= end[i])]

        m: dict[str, float] = {}

        def add(span: str, *fields: str) -> None:
            if span not in present:
                return
            sel = label == span
            n = int(sel.sum())
            for field in fields:
                if field == "calls":
                    m[f"{span}.calls"] = n
                elif field == "busy_s":
                    m[f"{span}.busy_s"] = float(dur[sel].sum())
                elif field == "self_s":
                    m[f"{span}.self_s"] = float(self_time[sel].sum())
                elif field == "distinct_frac":
                    m[f"{span}.distinct_frac"] = len(self.digests[span]) / n if n else 0.0
                elif field == "per_eval" and kinds:
                    m[f"{span}.per_eval"] = n / evals if evals else 0.0

        m["cli.self_s"] = float(self_time[np.char.startswith(label, "cli.")].sum())
        add("cli.parse", "busy_s")
        add("cli.load_state_file", "busy_s")
        add("verify.checks", "busy_s")
        if {"verify.run", "verify.checks"} <= present:
            m["verify.self_s"] = float(self_time[np.isin(label, ["verify.run", "verify.checks"])].sum())
        for span in KIND_SPANS:
            add(span, "calls", "busy_s", "self_s")
        add("bell.settings_from_angles", "calls", "busy_s")
        add("bell.family_state", "calls", "busy_s")
        if "bell.threshold_bisect" in present and kinds:
            m["bell.threshold_bisect.evals"] = sum(
                len(inside(i)) for i in np.flatnonzero(label == "bell.threshold_bisect"))
        if "bell.optimize_settings" in present and kinds:
            total = to_target = 0
            for i in np.flatnonzero(label == "bell.optimize_settings"):
                values = value[inside(i)]
                reached = np.flatnonzero(np.fmax.accumulate(values) >= targets.get(int(op[i]), np.inf) - 1e-6)
                total += len(values)
                to_target += int(reached[0]) + 1 if reached.size else len(values)
            m["bell.optimize_settings.evals"] = total
            m["bell.optimize_settings.evals_to_target"] = to_target
            m["bell.optimize_settings.useful_frac"] = to_target / total if total else 0.0
        add("states.DensityMatrix", "calls", "busy_s", "per_eval")
        add("states.Observable", "calls", "busy_s")
        add("states.collective_observable", "calls", "busy_s")
        add("linalg.herm_eig", "calls", "busy_s", "distinct_frac", "per_eval")
        add("linalg.psd_sqrt", "calls", "busy_s", "distinct_frac")
        add("linalg.kron", "calls")
        add("measures.von_neumann_entropy", "calls", "busy_s", "distinct_frac")
        return m
