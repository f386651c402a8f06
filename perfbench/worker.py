"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

JOB.json holds ``argv`` lists for ``tribell.cli.main`` and options.  The
worker imports ``tribell.cli``, notes the monotonic clock (the parent
subtracts its own spawn time to get set-up time), then runs the
operations one after another in this process, capturing each one's
stdout and stderr.  With ``"setup_only"`` it stops after the import.
With ``"spans_out"`` set it traces the pass (tracer.py), writes the spans
there and adds the per-layer metrics.  The result is one JSON object on
the last line of stdout.
"""

import sys
import time


def main() -> int:
    import tribell.cli as cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import io
    import json
    import resource
    import traceback

    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    if job.get("setup_only"):
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if job.get("spans_out"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    real_out, real_err = sys.stdout, sys.stderr
    results = []
    begin = time.perf_counter()
    for index, argv in enumerate(job["ops"]):
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv) if tracer is None else tracer.run_op(index, cli.main, argv)
        except Exception:  # an escaped exception is a failed operation, not a dead pass
            traceback.print_exc()
            rc = -1
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = real_out, real_err
        results.append([rc, (t1 - t0) * 1e3, out.getvalue(), err.getvalue()])
    wall = time.perf_counter() - begin

    report = {
        "ready": ready,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        targets = {int(k): v for k, v in job.get("targets", {}).items()}
        report["layers"] = tracer.layer_metrics(targets)
        report["missing"] = tracer.missing
        tracer.save(job["spans_out"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
