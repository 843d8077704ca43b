"""One pass of a workload in a fresh interpreter.

Reads a JSON list of argv lists from the file named by ``--jobs``, runs
each as an in-process call to ``preqlat.cli.main(argv + ["--format",
"json"])`` one after another, and prints one JSON object: the per-job
exit codes, seconds and captured output, the pass wall time and the
peak RSS.  With ``--spans FILE`` the layers are traced (see tracer.py),
the spans are written to FILE at the end, and the per-layer metrics are
added to the result.

Run from the repository root with ``src`` on ``PYTHONPATH``; run.py
does this for every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    with open(args.jobs) as fh:
        argvs = json.load(fh)

    import preqlat.cli as cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    pass_start = time.perf_counter()
    for i, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_job(i)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv) + ["--format", "json"])
            except SystemExit as exc:       # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:               # a crash fails this job, not the pass
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_job()
        results.append({"code": code, "seconds": seconds,
                        "out": out.getvalue(), "err": err.getvalue()})
    wall = time.perf_counter() - pass_start
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    summary = {"jobs": results, "wall_s": wall, "peak_rss_mb": peak_kib / 1024}
    if tracer:
        summary["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    json.dump(summary, sys.stdout)


if __name__ == "__main__":
    main()
