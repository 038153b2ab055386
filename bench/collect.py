#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 --seconds 20 [--workloads disk-cases,...]
                             [--trace-seed 1] [--out bench/baseline.json]

Runs ``run.py`` untraced once per seed and workload, reports for every
end-to-end metric (and for the pass time in seconds, which is not one)
its median, quartiles and spread (interquartile range over median), and,
with ``--trace-seed``, adds one traced run per workload for the
per-layer metrics.  Exits 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str((BENCH_DIR / "run.py").relative_to(ROOT)), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    detail = next((json.loads(x)["detail"] for x in lines if x.startswith('{"detail"')), {})
    final = json.loads(lines[-1])
    final["detail"] = detail
    final["returncode"] = proc.returncode
    return final


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        all_correct &= all(r["correct"] and r["returncode"] == 0 for r in runs)
        names = runs[0]["metrics"].keys()
        entry = {
            "end_to_end": {
                n: dict(spread([r["metrics"][n]["value"] for r in runs]),
                        unit=runs[0]["metrics"][n]["unit"]) for n in names},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "pass_s": spread([r["detail"]["pass_s"]["median"] for r in runs]),
            "passes_per_run": [r["detail"]["pass_s"]["n"] for r in runs],
            "provenance": runs[0]["detail"].get("provenance"),
        }
        for n, m in dict(entry["end_to_end"], pass_s=dict(entry["pass_s"], unit="s")).items():
            print(f"{workload:13s} {n:12s} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}",
                  flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            all_correct &= traced["correct"] and traced["returncode"] == 0
            entry["per_layer"] = {k: m for k, m in traced["metrics"].items()}
            entry["trace_seed"] = args.trace_seed
        report["workloads"][workload] = entry

    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print("all runs correct" if all_correct else "SOME RUNS INCORRECT")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
