#!/usr/bin/env python3
"""Compare every number two source trees of tribell produce.

    python3 scripts/value_diff.py OLD_TREE NEW_TREE [--workdir DIR]

Each tree is a checkout of the repository, for example the parent
commit extracted with ``git worktree add`` or ``git archive``.  For each
tree, with ``PYTHONPATH=<tree>/src``, the script runs that tree's
``scripts/run_scans.py``, ``tribell verify`` and a fixed list of
``eval``, ``threshold`` and ``optimize`` commands.  It then pairs the
outputs: every number in a file or in stdout is compared with the number
at the same place in the other tree's output, and the text between the
numbers must match exactly.

Per output it prints the count of numbers, the largest absolute
difference and the largest distance in units in the last place (ulp).
Exit status 0 means every output is identical, 1 that something
differs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ANGLES = "angles:" + ",".join(
    ["0.3", "0.2", "1.1", "2.5", "0.7", "4.0", "2.9", "1.3", "1.6", "5.5", "0.9", "3.3"]
)

COMMANDS = [
    ("eval-w-l1", ["eval", "--state", "w", "--settings", "example1", "--kind", "l1"]),
    ("eval-ghz-rel-ent", ["eval", "--state", "ghz", "--settings", "example1", "--kind", "rel-ent"]),
    ("eval-w-skew-ex2", ["eval", "--state", "w", "--settings", "example2", "--kind", "skew"]),
    ("eval-ghz-mabk-ex2", ["eval", "--state", "ghz", "--settings", "example2", "--kind", "mabk"]),
    ("eval-w-werner-rel-ent", ["eval", "--state", "w-werner:0.1", "--settings", "example1", "--kind", "rel-ent"]),
    ("eval-ghz-werner-skew", ["eval", "--state", "ghz-werner:0.3", "--settings", "example2", "--kind", "skew"]),
    ("eval-w-pure-l1-angles", ["eval", "--state", "w-pure:0.4,1.1", "--settings", ANGLES, "--kind", "l1"]),
    ("eval-ghz-pure-skew-angles", ["eval", "--state", "ghz-pure:0.7", "--settings", ANGLES, "--kind", "skew"]),
    ("threshold-ghz-werner-skew", ["threshold", "--state", "ghz-werner", "--kind", "skew",
                                   "--settings", "example2", "--bracket", "0:1"]),
    ("optimize-ghz-l1", ["optimize", "--state", "ghz", "--kind", "l1",
                         "--restarts", "2", "--iterations", "40", "--seed", "0"]),
    ("optimize-ghz-mabk", ["optimize", "--state", "ghz", "--kind", "mabk",
                           "--restarts", "1", "--iterations", "40", "--seed", "1"]),
    ("optimize-w-skew", ["optimize", "--state", "w", "--kind", "skew",
                         "--restarts", "2", "--iterations", "60", "--seed", "3"]),
    ("optimize-w-werner-rel-ent", ["optimize", "--state", "w-werner:0.05", "--kind", "rel-ent",
                                   "--restarts", "1", "--iterations", "30", "--seed", "2"]),
    # The perfbench optimize searches at seed 0 and full budget, and W/l1 at
    # the default budget: long searches with many walks and step halvings.
    ("optimize-ghz-l1-full", ["optimize", "--state", "ghz", "--kind", "l1", "--seed", "0"]),
    ("optimize-w-l1-full", ["optimize", "--state", "w", "--kind", "l1", "--seed", "0"]),
    ("optimize-ghz-mabk-full", ["optimize", "--state", "ghz", "--kind", "mabk", "--restarts", "2", "--seed", "0"]),
    ("optimize-w-skew-full", ["optimize", "--state", "w", "--kind", "skew", "--restarts", "2", "--seed", "0"]),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def _run(tree: Path, argv: list[str], cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def collect(tree: Path, out: Path) -> dict[str, str]:
    """Run every command on one tree; return output name -> text."""
    tree = tree.resolve()
    scans = out / "scans"
    _run(tree, [str(tree / "scripts" / "run_scans.py"), "--outdir", str(scans)], out)
    outputs = {f"scans/{p.name}": p.read_text(encoding="utf-8") for p in sorted(scans.iterdir())}
    outputs["verify"] = _run(tree, ["-m", "tribell.cli", "verify"], out)
    for name, argv in COMMANDS:
        outputs[name] = _run(tree, ["-m", "tribell.cli", *argv], out)
    return outputs


def _ordered(x: float) -> int:
    """Map a double to an integer whose order and spacing follow the ulps."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def compare(old: str, new: str) -> tuple[int, float, int] | None:
    """(numbers, largest |difference|, largest ulp distance), or None if the text differs."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))]
    max_abs, max_ulp = 0.0, 0
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        max_abs = max(max_abs, abs(a - b))
        max_ulp = max(max_ulp, abs(_ordered(a) - _ordered(b)))
    return len(pairs), max_abs, max_ulp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="reference tree")
    parser.add_argument("new", type=Path, help="tree under test")
    parser.add_argument("--workdir", type=Path, help="where outputs go (default: a temporary directory)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir or Path(tmp)
        results = []
        for label, tree in (("old", args.old), ("new", args.new)):
            out = work / label
            out.mkdir(parents=True, exist_ok=True)
            results.append(collect(tree, out))
    old, new = results
    differs = []
    print(f"{'output':34} {'numbers':>8} {'max_abs':>10} {'max_ulp':>8}")
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            result, same = "only in one tree", False
        elif (found := compare(old[name], new[name])) is None:
            result, same = "text differs", False
        else:
            count, max_abs, max_ulp = found
            result, same = f"{count:8d} {max_abs:10.3g} {max_ulp:8d}", max_ulp == 0
        if not same:
            differs.append(name)
        print(f"{name:34} {result}")
    print(f"{len(differs)} of {len(set(old) | set(new))} outputs differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
