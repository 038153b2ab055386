"""One benchmark process: set up a workload, run its passes, report JSON.

Started by ``run.py`` with the BLAS thread variables already set to 1.
It prints ``ready`` once numpy and hermgeo are imported and the seeded
inputs are written; the parent times set-up up to that line.  With
``--setup-only`` it exits there.  Otherwise it runs one untimed warm-up
pass and then passes until ``--seconds`` have elapsed, checking every
op's output outside the timed region, and prints one JSON line.

Before every op of an untraced pass it times a fixed reference loop of
plain numpy (``reference_loop``).  The loop never calls hermgeo, so its
time tracks only how fast the machine runs this kind of code at that
moment; a pass's time over its reference time cancels the speed drift
of a shared host.

With ``--trace 1`` the passes alternate untraced and traced (same inputs
in each pair), and the JSON carries per-layer metrics from the traced
passes plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import tracer as tracer_mod
import workloads

MIN_PASSES = 3
MAX_REPORTED_FAILURES = 5
REFERENCE_REPS = 300        # about 60 ms a loop on a 2-vCPU KVM guest


def _reference_matrices() -> list[np.ndarray]:
    """Fixed Hermitian positive-definite matrices of ranks 1 to 8."""
    rng = np.random.default_rng(12345)
    mats = []
    for r in (1, 2, 2, 2, 4, 8):
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        mats.append(g @ g.conj().T + np.eye(r))
    return mats


REFERENCE_MATRICES = _reference_matrices()


def reference_loop() -> float:
    """Wall time of a fixed loop shaped like hermgeo's per-matrix work:
    validate, symmetrize, eigendecompose, take the matrix log."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REFERENCE_REPS):
        for m in REFERENCE_MATRICES:
            a = np.asarray(m, dtype=np.complex128)
            skew = (a - a.conj().T) / 2
            if np.abs(skew).max() > 1e-9 * max(1.0, float(np.abs(a).max())):
                raise ValueError("reference matrix is not Hermitian")
            w, u = np.linalg.eigh((a + a.conj().T) / 2)
            log_a = (u * np.log(w)) @ u.conj().T
            acc += float(np.trace(log_a).real) + sum(float(x) for x in w)
    if not math.isfinite(acc):
        raise ValueError("reference loop produced a non-finite sum")
    return time.perf_counter() - t0


def import_hermgeo(root: Path):
    """Import hermgeo from the checkout's source tree, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import hermgeo
    import hermgeo.cli  # noqa: F401  (the CLI is the benchmark's entry point)
    origin = Path(hermgeo.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"hermgeo imported from {origin}, not from {src}")
    return hermgeo


class Runner:
    def __init__(self, hermgeo, workload):
        self.cli = hermgeo.cli
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op) -> float:
        """Run one op; return its wall time.  Failures are recorded."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if error is None and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
        if error is None:
            try:
                op.check(out.getvalue())
            except Exception as exc:  # a check that cannot parse the output fails the op
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{op.name}: {error}")
        return elapsed

    def run_pass(self, reference: bool = True) -> tuple[float, float]:
        """One pass over the workload: the sum of its op wall times, and the
        sum of the reference loops timed just before each op (0 without)."""
        ops_s = ref_s = 0.0
        for op in self.workload.ops:
            if reference:
                ref_s += reference_loop()
            ops_s += self.run_op(op)
        return ops_s, ref_s


def csv_bytes(ops) -> int:
    """Bytes of the geodesic CSV traces the ops wrote."""
    return sum(os.path.getsize(op.argv[op.argv.index("--out") + 1])
               for op in ops if op.argv[0] == "geodesic")


def layer_metrics(traces, points: int, csv_size: int, overhead: float) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as the
    median over traced passes."""
    first = traces[0]

    def per_point(x):
        return x / points if points else 0.0

    def us_per_point(t, *names):
        n = t.points_of(*names)
        return t.incl_of(*names) / n * 1e6 if n else 0.0

    eig = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
    construct = ("sections.MetricSection.__post_init__",
                 "sections.TangentSection.__post_init__",
                 "sections.GaugeTransform.__post_init__")
    eig_calls = first.calls_of(*eig)
    counts = {
        "numpy.linalg.eig_calls": eig_calls,
        "numpy.linalg.eig_calls_per_point": per_point(eig_calls),
        "numpy.linalg.matrices_per_call":
            first.points_of(*eig) / eig_calls if eig_calls else 0.0,
        "linalg.hermitian.calls": first.calls_of("linalg.hermitian"),
        "linalg.hermitian.calls_per_point": per_point(first.calls_of("linalg.hermitian")),
        "linalg.posdef.calls": first.calls_of("linalg.posdef"),
        "linalg.relative_spectrum.calls": first.calls_of("linalg.relative_spectrum"),
        "fiber.fiber_distance.calls": first.calls_of("fiber.fiber_distance"),
        "fiber.log_map.calls": first.calls_of("fiber.log_map"),
        "fiber.log_map.calls_per_point": per_point(first.calls_of("fiber.log_map")),
        "fiber.geodesic_eval.calls": first.calls_of("fiber.geodesic_eval"),
        "sections.construct.calls": first.calls_of(*construct),
        "oracle.energy_evals": first.oracle_inv_calls,
        "sections.csv_write.bytes": csv_size,
    }
    timers = {
        "numpy.linalg.self_s": lambda t: t.self_of(*eig),
        "linalg.relative_spectrum.self_s": lambda t: t.self_of("linalg.relative_spectrum"),
        "linalg.self_s": lambda t: t.layer_self("linalg"),
        "linalg.us_per_call.r1": lambda t: t.linalg_median_us(1),
        "linalg.us_per_call.r2": lambda t: t.linalg_median_us(2),
        "linalg.us_per_call.r4": lambda t: t.linalg_median_us(4),
        "linalg.us_per_call.r8": lambda t: t.linalg_median_us(8),
        "fiber.fiber_distance.self_s": lambda t: t.self_of("fiber.fiber_distance"),
        "fiber.log_map.self_s": lambda t: t.self_of("fiber.log_map"),
        "fiber.geodesic_eval.self_s": lambda t: t.self_of("fiber.geodesic_eval"),
        "fiber.self_s": lambda t: t.layer_self("fiber"),
        "sections.construct.us_per_point": lambda t: us_per_point(t, *construct),
        "sections.section_distance.us_per_point":
            lambda t: us_per_point(t, "sections.section_distance"),
        "sections.section_geodesic.us_per_point":
            lambda t: us_per_point(t, "sections.section_geodesic"),
        "sections.self_s": lambda t: t.layer_self("sections"),
        "sections.wire_read.s": lambda t: t.incl_of("sections.load_section"),
        "sections.csv_write.self_s": lambda t: t.self_of("sections.write_geodesic_csv"),
        "completion.singular_construct.us_per_point":
            lambda t: us_per_point(t, "completion.SingularSection.__post_init__"),
        "completion.integrability_report.us_per_point":
            lambda t: us_per_point(t, "completion.integrability_report"),
        "completion.cauchy_experiment.s": lambda t: t.incl_of("completion.cauchy_experiment"),
        "completion.cat0.s":
            lambda t: t.incl_of("completion.cat0_check", "completion.cat0_comparison_slack"),
        "disk.raufi_integrability.s": lambda t: t.incl_of("disk.raufi_integrability"),
        "disk.psh_check.s": lambda t: t.incl_of("disk.psh_check"),
        "disk.self_s": lambda t: t.layer_self("disk"),
        "oracle.distance_oracle.s": lambda t: t.incl_of("oracle.distance_oracle"),
        "suites.invariants.s": lambda t: t.incl_of("suites.run_invariants"),
        "suites.cat0.s": lambda t: t.incl_of("suites.run_cat0"),
        "suites.oracle.s": lambda t: t.incl_of("suites.run_oracle"),
        "suites.appendix.s": lambda t: t.incl_of("suites.run_appendix"),
        "sampling.s": lambda t: t.layer_outer("sampling"),
        "cli.self_s": lambda t: t.layer_self("cli"),
    }
    out = dict(counts)
    out.update({name: statistics.median(fn(t) for t in traces) for name, fn in timers.items()})
    out["trace.overhead_frac"] = overhead
    return out


def count_signature(trace) -> list:
    """Everything a traced pass counted, for the repeat check."""
    return [trace.calls.tolist(), trace.points.tolist(), trace.oracle_inv_calls]


def provenance() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
        blas = {"name": "unknown", "version": "unknown"}
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    hermgeo = import_hermgeo(Path(args.root))
    workload = workloads.build(args.workload, args.seed, Path(args.workdir),
                               hermgeo, tiny=args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(hermgeo, workload)
    runner.run_pass()                                    # untimed warm-up
    warmup_failures = list(runner.failures)
    runner.attempted, runner.failures = 0, []

    tracer = tracer_mod.Tracer(hermgeo) if args.trace else None
    plain, refs, traced, traces = [], [], [], []
    start = time.perf_counter()
    while len(plain) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        ops_s, ref_s = runner.run_pass()
        plain.append(ops_s)
        refs.append(ref_s)
        if tracer is not None:
            tracer.reset()
            with tracer.installed():
                traced.append(runner.run_pass(reference=False)[0])
            traces.append(tracer.summarize())

    result = {
        "passes": plain,
        "reference": refs,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:MAX_REPORTED_FAILURES],
        "warmup_failures": warmup_failures[:MAX_REPORTED_FAILURES],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
        "inputs": workload.inputs,
    }
    if tracer is not None:
        signatures = [count_signature(t) for t in traces]
        result["counts_repeat"] = all(s == signatures[0] for s in signatures)
        result["traced_passes"] = traced
        result["layers"] = layer_metrics(
            traces, sum(op.points for op in workload.ops), csv_bytes(workload.ops),
            statistics.median(traced) / statistics.median(plain) - 1.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
