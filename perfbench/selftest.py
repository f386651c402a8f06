#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs real worker passes and checks that:

* every operation of a scan-datasets pass, an eval-files slice and the
  mabk optimize search passes its output check;
* the checker rejects a perturbed scan value (closed-form and sampled
  per-term rows), a perturbed eval value and optimize values below the
  target or above the cap;
* two scan-datasets passes at one seed print byte-identical output.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import workloads
from run import ROOT, WORK, Runner, clock

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'}  {what}")
    if not condition:
        FAILURES.append(what)


def run_pass(runner: Runner, ops: list[dict], name: str) -> list[str]:
    report, problem = runner.spawn(runner.write_job(name, {"ops": [op["argv"] for op in ops]}))
    if report is None:
        raise SystemExit(f"worker failed: {problem}")
    messages = [checks.check(op, rc, out) for op, (rc, _, out, _) in zip(ops, report["ops"])]
    expect(all(m is None for m in messages), f"{name}: all {len(ops)} operations pass their checks "
           f"({[m for m in messages if m][:3]})")
    return [out for _, _, out, _ in report["ops"]]


def perturb_scan_row(out: str, row: int, delta: float) -> str:
    lines = out.split("\n")
    fields = lines[1 + row].split(",")
    fields[2] = format(float(fields[2]) + delta, ".17g")
    lines[1 + row] = ",".join(fields)
    return "\n".join(lines)


def perturb_json_value(out: str, value: float) -> str:
    payload = json.loads(out)
    payload["value"] = value
    return json.dumps(payload)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, clock())

        scans = workloads.scan_datasets(5)
        checks.attach_references(scans)
        first = run_pass(runner, scans, "scan-datasets pass 1")
        second = run_pass(runner, scans, "scan-datasets pass 2")
        expect(first == second, "two scan-datasets passes at one seed give identical bytes")

        closed = 0  # ghz-pure l1: closed form on every row
        expect(checks.check(scans[closed], 0, perturb_scan_row(first[closed], 100, 1e-7)) is not None,
               "checker rejects a closed-form scan row perturbed by 1e-7")
        sampled = next(i for i, op in enumerate(scans) if op["check"]["family"] == "w-pure")
        row = min(scans[sampled]["expect"]["refs"])
        expect(checks.check(scans[sampled], 0, perturb_scan_row(first[sampled], row, 1e-7)) is not None,
               "checker rejects a sampled per-term scan row perturbed by 1e-7")

        evals = workloads.eval_files(5, workdir, ROOT)[:40]
        checks.attach_references(evals)
        outs = run_pass(runner, evals, "eval-files slice")
        value = json.loads(outs[0])["value"]
        expect(checks.check(evals[0], 0, perturb_json_value(outs[0], value + 1e-7)) is not None,
               "checker rejects an eval value perturbed by 1e-7")

        search = workloads.optimize(5)[1]  # GHZ mabk, the quickest search
        checks.attach_references([search])
        out = run_pass(runner, [search], "optimize ghz mabk")[0]
        target, cap = search["check"]["target"], search["check"]["cap"]
        expect(checks.check(search, 0, perturb_json_value(out, target - 1e-5)) is not None,
               "checker rejects an optimize value 1e-5 below its target")
        expect(checks.check(search, 0, perturb_json_value(out, cap + 1e-6)) is not None,
               "checker rejects an optimize value 1e-6 above its cap")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} self-test(s) failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
