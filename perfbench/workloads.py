"""Seeded inputs for the four benchmark workloads.

Each workload is a list of CLI operations.  An operation is a dict with
``argv`` (what the worker passes to ``tribell.cli.main``), ``points``
(functional values it delivers: scan rows, eval and optimize results,
verify rows) and ``check`` (what checks.py needs to judge the output;
references are filled in there, before any pass runs).

Why these four:

* scan-datasets: fixed settings, varying states.  Settings-side work
  (term eigenbases, collective observables) is redone at every point;
  ``settings_from_angles`` never runs.
* optimize: fixed state, settings change on every probe.  State-side
  work (``psd_sqrt``, entropy of rho) is redone at every probe and state
  validation runs once.
* verify: states and settings both vary, so a saving on only one side
  cannot show.
* eval-files: one value per process-level command, nothing to batch or
  reuse; measures per-call overhead (parsing, file loading, validation).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("scan-datasets", "optimize", "verify", "eval-files")
KINDS = ("mabk", "l1", "rel-ent", "skew")

PI = math.pi
DOMAINS = {
    "ghz-pure": ((0.0, PI),),
    "w-werner": ((0.0, 1.0),),
    "ghz-werner": ((0.0, 1.0),),
    "w-pure": ((0.0, PI), (0.0, 2.0 * PI)),
}

# The ten curves of scripts/run_scans.py: family, kind, settings, points per axis.
SCANS = (
    ("ghz-pure", "l1", "example1", 201),
    ("ghz-pure", "rel-ent", "example1", 201),
    ("ghz-pure", "skew", "example2", 201),
    ("w-werner", "l1", "example1", 201),
    ("w-werner", "rel-ent", "example1", 201),
    ("w-werner", "skew", "example1", 201),
    ("ghz-werner", "l1", "example1", 201),
    ("ghz-werner", "rel-ent", "example1", 201),
    ("ghz-werner", "skew", "example2", 201),
    ("w-pure", "rel-ent", "example1", 51),
)

# The seven bisections of scripts/run_scans.py, with fixed brackets.
THRESHOLDS = (
    ("w-werner", "l1", "example1", (0.0, 1.0)),
    ("ghz-werner", "l1", "example1", (0.0, 1.0)),
    ("w-werner", "skew", "example1", (0.0, 1.0)),
    ("ghz-werner", "skew", "example2", (0.0, 1.0)),
    ("w-werner", "rel-ent", "example1", (0.0, 1.0)),
    ("ghz-werner", "rel-ent", "example1", (0.0, 1.0)),
    ("ghz-pure", "l1", "example1", (0.05, PI / 4.0)),
)

# Optimizer searches: state, kind, extra CLI arguments, target, cap.
# The skew target is the value the search reaches from every optimizer
# seed tried (0-65, 126-155, 186-215 and 100 random seeds below 10**6);
# the caps are the sound upper bounds listed in ROADMAP.md.
SEARCHES = (
    ("ghz", "l1", (), 20.0, 21.0),
    ("ghz", "mabk", ("--restarts", "2"), 4.0, 4.0),
    ("w", "skew", ("--restarts", "2"), 15.5734449, 27.0),
)

OPTIMIZE_VARIANTS = 6
EVAL_STATES = 500


def _scan_axes(rng: np.random.Generator | None, family: str, count: int) -> list[tuple[float, float, int]]:
    """Full domain when rng is None, else a random sub-interval per axis."""
    axes = []
    for lo, hi in DOMAINS[family]:
        if rng is not None:
            span = hi - lo
            lo, hi = lo + rng.uniform(0.0, 0.4) * span, hi - rng.uniform(0.0, 0.4) * span
        axes.append((lo, hi, count))
    return axes


def _grid_spec(seed: int, axes) -> str:
    if seed == 0:
        # The literal specs of scripts/run_scans.py.
        if len(axes) == 2:
            return f"{axes[0][2]}x{axes[1][2]}"
        _, hi, n = axes[0]
        return f"0:{repr(PI) if hi == PI else '1'}:{n}"
    return ",".join(f"{lo!r}:{hi!r}:{n}" for lo, hi, n in axes)


def scan_datasets(seed: int) -> list[dict]:
    """Ten family scans and seven threshold bisections.

    Seed 0 gives exactly the grids of scripts/run_scans.py; other seeds
    keep families, kinds, settings and point counts and draw the scan
    sub-intervals.  Threshold brackets never change.
    """
    rng = None if seed == 0 else np.random.default_rng([seed, 1])
    ops = []
    for family, kind, settings, count in SCANS:
        axes = _scan_axes(rng, family, count)
        argv = ["scan", "--state", family, "--kind", kind, "--settings", settings,
                "--grid", _grid_spec(seed, axes), "--out", "-"]
        ops.append({"argv": argv, "points": count ** len(axes),
                    "check": {"op": "scan", "family": family, "kind": kind, "settings": settings,
                              "axes": axes, "sample_seed": seed}})
    for family, kind, settings, (lo, hi) in THRESHOLDS:
        argv = ["threshold", "--state", family, "--kind", kind, "--settings", settings,
                "--bracket", f"{lo!r}:{hi!r}"]
        ops.append({"argv": argv, "points": 0,
                    "check": {"op": "threshold", "family": family, "kind": kind, "settings": settings}})
    return ops


def optimize(seed: int) -> list[dict]:
    """The three searches, all passed ``--seed seed``.

    Evaluation counts are exact for a seed but vary with it (13k-19k on
    GHZ/l1), so build() spreads a workload seed over OPTIMIZE_VARIANTS
    optimizer seeds.
    """
    ops = []
    for state, kind, extra, target, cap in SEARCHES:
        argv = ["optimize", "--state", state, "--kind", kind, *extra, "--seed", str(seed)]
        ops.append({"argv": argv, "points": 1, "check": {"op": "optimize", "target": target, "cap": cap}})
    return ops


def verify(seed: int) -> list[dict]:
    """``tribell verify``; the gate fixes its own inputs, so the seed is unused."""
    return [{"argv": ["verify"], "points": 39, "check": {"op": "verify"}}]


def ginibre_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random 8x8 density matrix G G^dagger / Tr of the given rank."""
    g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def write_state_file(path: Path, rho: np.ndarray) -> None:
    """The CLI's state-file format: dim plus row-major [re, im] pairs."""
    entries = [[float(z.real), float(z.imag)] for z in rho.ravel()]
    path.write_text(json.dumps({"dim": 8, "entries": entries}), encoding="utf-8")


def eval_files(seed: int, workdir: Path, root: Path) -> list[dict]:
    """2000 single evaluations: 500 Ginibre states of ranks 1-8, each once per kind.

    Every command gets its own 12 random Bloch angles.  State files are
    written under workdir; argv names them relative to the repo root,
    which is the worker's working directory.
    """
    rng = np.random.default_rng([seed, 4])
    ranks = rng.permutation(np.arange(EVAL_STATES) % 8 + 1)
    statedir = workdir / "states"
    statedir.mkdir(parents=True, exist_ok=True)
    ops = []
    for s, rank in enumerate(ranks):
        rho = ginibre_state(rng, int(rank))
        path = statedir / f"state_{s:03d}.json"
        write_state_file(path, rho)
        spec = "file:" + path.relative_to(root).as_posix()
        for kind in KINDS:
            angles = [v for _ in range(6) for v in (rng.uniform(0.0, PI), rng.uniform(0.0, 2.0 * PI))]
            argv = ["eval", "--state", spec, "--settings", "angles:" + ",".join(repr(a) for a in angles),
                    "--kind", kind]
            ops.append({"argv": argv, "points": 1,
                        "check": {"op": "eval", "kind": kind, "state_file": str(path), "angles": angles}})
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def build(workload: str, seed: int, workdir: Path, root: Path) -> list[list[dict]]:
    """The pass variants of a workload at a seed, each a list of operations.

    optimize has one variant per optimizer seed OPTIMIZE_VARIANTS * seed + k;
    the other workloads have one.
    """
    if workload == "scan-datasets":
        return [scan_datasets(seed)]
    if workload == "optimize":
        return [optimize(OPTIMIZE_VARIANTS * seed + k) for k in range(OPTIMIZE_VARIANTS)]
    if workload == "verify":
        return [verify(seed)]
    if workload == "eval-files":
        return [eval_files(seed, workdir, root)]
    raise ValueError(f"unknown workload {workload!r}")
