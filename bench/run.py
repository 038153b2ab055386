#!/usr/bin/env python3
"""hermgeo benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload disk-cases --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; hermgeo is imported from its
``src/``.  Load model: closed loop, one caller.  Each workload runs in a
fresh single-threaded process (BLAS thread variables set to 1), one
untimed warm-up pass first, then passes back to back for ``--seconds``.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
fresh processes), the median pass time relative to a fixed reference
loop timed before each op (``worker.reference_loop``), peak RSS.  The
median pass time in seconds is printed too, but a shared host's speed
drifts too much for it to gate a change.  ``--trace 1`` prints
the per-layer metrics from traced passes.  The last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
Any failed op makes ``correct`` false and the exit code 1; a checkout
without hermgeo's sources exits 2 without a result.
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
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("disk-cases", "geodesic-io", "suites-small")
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 15         # fresh processes timed to "inputs ready"; median reported
EXIT_GRACE_S = 120      # a worker may overrun --seconds by its last pass and checks

# Metric names and units, as declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker_cmd(workdir: Path, args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workdir", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def _start(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and time it from launch to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=dict(os.environ, **THREAD_VARS))
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, elapsed


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args) -> dict:
    """Set up SETUP_RUNS fresh processes; the last one runs the passes."""
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        setup = []
        for _ in range(SETUP_RUNS - 1):
            proc, elapsed = _start(_worker_cmd(workdir, args, setup_only=True))
            _finish(proc, EXIT_GRACE_S)
            setup.append(elapsed)
        proc, elapsed = _start(_worker_cmd(workdir, args, setup_only=False))
        setup.append(elapsed)
        out = _finish(proc, args.seconds + EXIT_GRACE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_runs"] = setup
    return res


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(args, res: dict) -> dict:
    """The final JSON object, plus a detail block with provenance."""
    passes = res["passes"]                       # at least 3 (worker.MIN_PASSES)
    rel = [p / r for p, r in zip(passes, res["reference"])]
    # Traced passes run identical inputs, so their counts must agree exactly.
    correct = (res["failed"] == 0 and not res["warmup_failures"]
               and res.get("counts_repeat", True))
    if args.trace:
        values = res["layers"]
    else:
        values = {"setup_s": statistics.median(res["setup_runs"]),
                  "pass_rel": statistics.median(rel),
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_s": quartiles(passes),
        "pass_rel": quartiles(rel),
        "reference_s": statistics.median(res["reference"]),
        "setup_runs_s": res["setup_runs"],
        "failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "warmup_failures": res["warmup_failures"],
        "inputs": res["inputs"],
        "provenance": dict(res["provenance"], **{
            "nproc": os.cpu_count(),
            "threads": THREAD_VARS,
            "platform": platform.platform(),
            "git_commit": git_commit(ROOT),
            "argv": sys.argv,
        }),
    }
    if args.trace:
        detail["traced_pass_s"] = res["traced_passes"]
        detail["counts_repeat"] = res["counts_repeat"]
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "detail": detail}


def print_human(summary: dict) -> None:
    d = summary["detail"]
    print(f"# workload {d['workload']}  seed {d['seed']}  trace {d['trace']}")
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, unit in (("pass_s", "s"), ("pass_rel", UNITS["pass_rel"])):
        p = d[name]
        print(f"{name}: median {p['median']:.6g} {unit}, q1 {p['q1']:.6g}, "
              f"q3 {p['q3']:.6g}, n {p['n']} passes")
    print(f"failed_frac = {d['failed_frac']:.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} ops)")
    for msg in d["failures"] + d["warmup_failures"]:
        print(f"FAILED {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hermgeo benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    os.environ.update(THREAD_VARS)

    if not (ROOT / "src" / "hermgeo" / "__init__.py").is_file():
        print(f"error: no hermgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        try:
            summary = summarize(one, run_workload(one))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print_human(summary)
        print(json.dumps({"detail": summary.pop("detail")}))
        results[name] = summary

    if args.workload == "all":
        final = {
            "correct": all(s["correct"] for s in results.values()),
            "attempted": sum(s["attempted"] for s in results.values()),
            "failed": sum(s["failed"] for s in results.values()),
            "metrics": {f"{w}/{k}": m for w, s in results.items()
                        for k, m in s["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
