"""Command-line front door.

Subcommands: distance, geodesic, curvature, check, example,
integrability, completion-demo.  Inputs are the JSON wire formats of
the section and matrix types; outputs are JSON reports or CSV traces.
Identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import disk, fiber, linalg, sections, suites
from .completion import integrability_report
from .errors import HermGeoError, ParameterError, WireFormatError
from .sections import MetricSection, load_section, section_distance


def _write(out, write) -> None:
    """Call ``write`` on stdout, or, given an ``--out`` path, on a sibling
    file that moves over the path only once it is complete, so an error
    leaves the target as it was."""
    if not out:
        write(sys.stdout)
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            write(fh)
        os.replace(tmp, out)
    except BaseException:
        os.remove(tmp)
        raise


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    _write(args.out, lambda fh: fh.write(text))


def _load_metric(path: str) -> MetricSection:
    section = load_section(path)
    if not isinstance(section, MetricSection):
        raise WireFormatError(f"{path} holds a {type(section).__name__}, "
                              "not a metric section (matrix key h)")
    return section


def cmd_distance(args) -> int:
    h1 = _load_metric(args.h1)
    h2 = _load_metric(args.h2)
    print(f"{section_distance(h1, h2):.12g}")
    return 0


def cmd_geodesic(args) -> int:
    h1 = _load_metric(args.h1)
    h2 = _load_metric(args.h2)
    _write(args.out, lambda fh: sections.write_geodesic_csv(h1, h2, args.steps, fh))
    return 0


def cmd_curvature(args) -> int:
    h, u, v = (linalg.matrix_from_json(sections.read_json(path))
               for path in (args.h, args.u, args.v))
    sec = fiber.sectional_curvature(h, u, v, args.alpha)
    _emit(args, {"sectional_curvature": sec, "alpha": args.alpha})
    return 0


def cmd_check(args) -> int:
    fn = suites.SUITES[args.suite]
    report = fn(seed=args.seed, samples=args.samples)
    _emit(args, report)
    return 0 if report["passed"] else 1


def cmd_example(args) -> int:
    if args.name == "line-bundle" and args.alpha is not None:
        raise ParameterError("example line-bundle takes no --alpha")
    mesh = disk.DiskMesh(args.nr, args.ntheta)
    # the psh test runs on log det = 2 log|z|^2 (raufi) or phi = log|z|^2
    if args.name == "raufi":
        alpha = 0.0 if args.alpha is None else args.alpha
        report, key, scale = disk.raufi_integrability(mesh, alpha), "psh_log_det", 2.0
    else:
        report, key, scale = disk.line_bundle_norms(mesh), "psh_phi", 1.0
    u = disk.GridFunction.from_callable(mesh, lambda z: np.log(np.abs(z) ** 2) * scale)
    psh = disk.psh_check(u, radii=[0.05, 0.1])
    report[key] = {
        "max_violation": psh.max_violation, "passed": psh.passed,
        "n_centers": psh.n_centers, "n_skipped": psh.n_skipped,
    }
    _emit(args, report)
    return 0


def cmd_integrability(args) -> int:
    rep = asdict(integrability_report(_load_metric(args.sigma), _load_metric(args.h0)))
    del rep["refinement_trend"]  # a single report has no refinement family
    _emit(args, rep)
    return 0


def cmd_completion_demo(args) -> int:
    """Cauchy experiment: truncations of the unbounded profile log|z|^2
    converging to a non-smooth limit in the completion metric."""
    rep = disk.log_truncation_experiment(disk.DiskMesh(args.nr, args.ntheta),
                                         args.alpha, args.levels)
    _emit(args, {"alpha": args.alpha, "levels": args.levels, **asdict(rep)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermgeo",
        description="Geometry of positive-definite Hermitian metric sections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance between two section files")
    p.add_argument("h1")
    p.add_argument("h2")

    p = sub.add_parser("geodesic", help="CSV trace of the connecting geodesic")
    p.add_argument("h1")
    p.add_argument("h2")
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--out", default=None)

    p = sub.add_parser("curvature",
                       help="sectional curvature from matrix JSON files")
    p.add_argument("h")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="run a seeded property sweep")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", default=None)

    p = sub.add_parser("example", help="disk case studies")
    p.add_argument("name", choices=["raufi", "line-bundle"])
    p.add_argument("--nr", type=int, default=400)
    p.add_argument("--ntheta", type=int, default=64)
    p.add_argument("--alpha", type=float, default=None, help="raufi only (default 0.0)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("integrability",
                       help="integrability report for a section pair")
    p.add_argument("sigma")
    p.add_argument("h0")
    p.add_argument("--out", default=None)

    p = sub.add_parser("completion-demo",
                       help="Cauchy experiment toward a singular limit")
    p.add_argument("--nr", type=int, default=100)
    p.add_argument("--ntheta", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--out", default=None)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command.  The parser is built on the first call and kept;
    the command is looked up by name at each call, so a rebinding of a
    ``cmd_*`` function is seen by every later call."""
    args = _parser().parse_args(argv)
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(args)
    except (HermGeoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
