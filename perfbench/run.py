#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for tribell.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (workloads.py): scan-datasets,
optimize, verify, eval-files.  Each pass runs the workload's CLI
commands through ``tribell.cli.main`` in a fresh interpreter
(worker.py), one pass at a time and with BLAS limited to one thread, so
the benchmark starts no extra threads.  A workload has one or more pass
variants (optimize has six, one per derived optimizer seed); passes
cycle through them in whole cycles until ``--seconds`` have gone by.  A
metric is the median over variants of its median over that variant's
passes.  Every operation's output is checked (checks.py) against
references computed before the first pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes of the first variant and reports the
per-layer metrics of the traced ones (tracer.py) plus the tracing
overhead; spans go to ``perfbench/_work/spans-<workload>.npz``.

The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it carries the environment,
sample counts and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

RUN_LIMIT_S = 170.0  # every pass must end by then, whatever --seconds says
SETUP_SAMPLES = 21  # set-up time is the median of at least this many interpreters
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
TAIL_MIN_OPS = 100  # below this a pass has no tail above p90; it reports its slowest op
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "points_per_s": "1/s",
    "ok_frac": "frac",
    "rss_peak_mb": "MB",
}


def clock() -> float:
    """CLOCK_MONOTONIC, which parent and worker processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".evals", ".evals_to_target")):
        return "count"
    return "ratio"


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "seed": seed,
        "src_lines": src_line_count(),
    }


class Runner:
    """Spawns worker interpreters and keeps their raw results."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ, **BLAS_ENV)
        # Installed packages import from cached bytecode; so does the worker.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.setup_s: list[float] = []

    def write_job(self, name: str, job: dict) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(job), encoding="utf-8")
        return path

    def spawn(self, job_path: Path, record_setup: bool = True) -> tuple[dict | None, str]:
        """Run one worker; its report, or None and the reason it gave none."""
        timeout = max(1.0, RUN_LIMIT_S - (clock() - self.started))
        spawned = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"worker exceeded {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return None, f"worker exited {proc.returncode} without a report: {proc.stderr.strip()[-400:]}"
        if record_setup:
            self.setup_s.append(report["ready"] - spawned)
        return report, ""


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    A pass of fewer than TAIL_MIN_OPS operations reports its slowest one.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_OPS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_pass(ops: list[dict], report: dict, first_out: dict, failures: list[str]) -> int:
    """Check every operation of one pass; the number that failed.

    first_out holds each scan's output from the first pass of its variant,
    which every later pass must repeat byte for byte.
    """
    failed = 0
    for index, (op, (rc, _, out, err)) in enumerate(zip(ops, report["ops"])):
        message = checks.check(op, rc, out)
        if message is None and op["check"]["op"] == "scan":
            if first_out.setdefault(id(op), out) != out:
                message = "scan output differs from the first pass at this seed"
        if message is not None:
            failed += 1
            failures.append(f"op {index} {' '.join(op['argv'][:3])}: {message} {err.strip()[-200:]}")
    return failed


def across_passes(groups: list[list[dict]], value) -> float:
    """Median over pass variants of the median over each variant's passes."""
    return statistics.median(statistics.median(value(p) for p in group) for group in groups if group)


def run(args: argparse.Namespace) -> int:
    started = clock()
    if not (ROOT / "src" / "tribell" / "cli.py").is_file():
        print(f"error: no tribell sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        variants = workloads.build(args.workload, args.seed, workdir, ROOT)
        if args.trace:
            variants = variants[:1]  # per-layer counts stay exact for a seed
        for ops in variants:
            checks.attach_references(ops)
        runner = Runner(workdir, started)
        jobs = []
        for v, ops in enumerate(variants):
            argvs = [op["argv"] for op in ops]
            jobs.append(runner.write_job(f"pass-{v}.json", {"ops": argvs}))
        traced_job = runner.write_job("traced.json", {
            "ops": [op["argv"] for op in variants[0]],
            "spans_out": str(WORK / f"spans-{args.workload}.npz"),
            "targets": {i: op["check"]["target"] for i, op in enumerate(variants[0]) if "target" in op["check"]},
        })
        setup_job = runner.write_job("setup.json", {"setup_only": True})
        runner.spawn(setup_job, record_setup=False)  # fills bytecode caches before timing

        plain: list[list[dict]] = [[] for _ in variants]
        traced: list[dict] = []
        failures: list[str] = []
        first_out: dict[int, str] = {}
        attempted = failed = passes = 0
        cycle = 2 if args.trace else len(variants)
        measuring = cycle_start = clock()
        while True:
            is_traced = bool(args.trace) and passes % 2 == 1
            v = 0 if args.trace else passes % len(variants)
            ops = variants[v]
            report, problem = runner.spawn(traced_job if is_traced else jobs[v])
            passes += 1
            attempted += len(ops)
            if report is None:
                failed += len(ops)
                failures.append(problem)
                break
            failed += check_pass(ops, report, first_out, failures)
            (traced if is_traced else plain[v]).append(report)
            # Stop on whole cycles: every variant equally often, traced passes
            # paired.  Also stop if another cycle would overrun RUN_LIMIT_S.
            if passes % cycle == 0:
                now = clock()
                if now - measuring >= args.seconds or now - started + (now - cycle_start) > RUN_LIMIT_S:
                    break
                cycle_start = now
        while len(runner.setup_s) < SETUP_SAMPLES and report is not None:
            runner.spawn(setup_job)

        info = {
            "workload": args.workload,
            "trace": args.trace,
            "passes": passes,
            "variants": len(variants),
            "setup_samples": len(runner.setup_s),
            "pass_wall_s": [[round(p["wall_s"], 4) for p in group] for group in plain],
            "env": environment(args.seed),
            "failures": failures[:20],
        }
        metrics: dict[str, dict] = {}
        if report is not None and not args.trace:
            points = [sum(op["points"] for op in ops) for ops in variants]
            for group, n in zip(plain, points):
                for p in group:
                    p["points_per_s"] = n / p["wall_s"]
            values = {
                "setup_s": statistics.median(runner.setup_s),
                "wall_s": across_passes(plain, lambda p: p["wall_s"]),
                "op_p50_ms": across_passes(plain, lambda p: statistics.median(op[1] for op in p["ops"])),
                "op_tail_ms": across_passes(plain, lambda p: tail([op[1] for op in p["ops"]])[0]),
                "points_per_s": across_passes(plain, lambda p: p["points_per_s"]),
                "ok_frac": 1.0 - failed / attempted,
                "rss_peak_mb": across_passes(plain, lambda p: p["rss_mb"]),
            }
            info["op_tail"] = {"percentile": tail([op[1] for op in plain[0][0]["ops"]])[1],
                               "samples_per_pass": len(variants[0])}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        elif report is not None:
            for name in sorted({k for t in traced for k in t["layers"]}):
                value = statistics.median(t["layers"][name] for t in traced if name in t["layers"])
                metrics[name] = {"value": value, "unit": layer_unit(name)}
            overhead = statistics.median(t["wall_s"] / p["wall_s"] for t, p in zip(traced, plain[0])) - 1.0
            metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
            info["missing"] = traced[-1]["missing"]
        for message in failures[:20]:
            print(f"check failed: {message}", file=sys.stderr)
        print(json.dumps({"info": info}))
        correct = failed == 0 and bool(metrics)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
