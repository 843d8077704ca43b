"""Record the benchmark baseline of the current tree in bench/baseline.json.

    python3 bench/record.py

Run from the repository root.  For each workload it makes ten
untraced runs of bench/run.py on seeds 1..10, each of ``run_seconds``
from BENCHMARK.json, and records, per
end-to-end metric, the median, the quartiles and their distance as a
share of the median.  It then makes two traced runs of the default seed
per workload and checks that every call count and counter repeats
exactly, runs the held-out seed once per workload, runs ``--self-check``,
and writes everything with the machine description.  No result is
written when a run fails or a check does not hold.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as jobmod  # noqa: E402
from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402

RUNS = 10
OUT = os.path.join(HERE, "baseline.json")


def bench(*args):
    """Run bench/run.py, echo its report and return its last-line result."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *map(str, args)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr.strip()[-800:]}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def deterministic(metrics):
    """The per-layer values that must repeat exactly for one seed."""
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "s" and name != "trace.overhead"}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    seeds = list(range(1, RUNS + 1))
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "PREQLAT_THREADS": "unset (program default)",
        },
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED,
                  "end_to_end_runs": seeds},
        "end_to_end": {},
        "traced": {},
        "reference_counts": {},
        "held_out": {},
    }
    for workload in jobmod.WORKLOADS:
        results = []
        for seed in seeds:
            result = bench("--workload", workload, "--seed", seed,
                           "--seconds", seconds, "--trace", 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} jobs failed")
            results.append(result)
        record["end_to_end"][workload] = {
            name: {"unit": m["unit"],
                   **quartiles([r["metrics"][name]["value"] for r in results])}
            for name, m in results[0]["metrics"].items()
        }
        record["end_to_end"][workload]["fail_ratio"] = {
            "unit": "1", "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}

        traced = [bench("--workload", workload, "--seed", DEFAULT_SEED,
                        "--seconds", seconds, "--trace", 1) for _ in range(2)]
        counts = [deterministic(t["metrics"]) for t in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            sys.exit(f"{workload}: traced counts differ between two runs: {diff}")
        if not all(t["correct"] for t in traced):
            sys.exit(f"{workload}: a traced run failed its oracles")
        record["traced"][workload] = {
            "seed": DEFAULT_SEED,
            "trace_overhead": [t["metrics"]["trace.overhead"]["value"] for t in traced],
            "metrics": {name: m["value"] for name, m in traced[0]["metrics"].items()},
        }
        record["reference_counts"][workload] = counts[0]

        held = bench("--workload", workload, "--seed", HELD_OUT_SEED,
                     "--seconds", seconds, "--trace", 0)
        record["held_out"][workload] = {"attempted": held["attempted"], "failed": held["failed"]}
        if not held["correct"]:
            sys.exit(f"{workload}: held-out seed failed {held['failed']} jobs")

    check = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
                           capture_output=True, text=True, timeout=300)
    if check.returncode != 0:
        sys.exit(f"self-check failed: {check.stdout}{check.stderr}")
    record["self_check"] = json.loads(check.stdout.strip().splitlines()[-1])
    record["counter_determinism"] = ("two traced runs of the default seed gave identical "
                                     "call counts and counters on every workload")
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
