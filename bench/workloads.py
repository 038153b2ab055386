"""The benchmark's workloads: seeded inputs, the ops of one pass, and an
independent plain-numpy check of every op's output.

Each op is one in-process ``hermgeo.cli.main`` call.  Every check
recomputes the expected answer here, from the inputs the benchmark
generated, without calling into hermgeo.

- ``disk-cases``: the paper's headline disk numbers.  Polar meshes of
  thousands to tens of thousands of rank-2 and rank-1 points, where time
  goes to per-point validation and relative spectra; batching over mesh
  points shows most here.
- ``geodesic-io``: the section JSON wire format read, the geodesic CSV
  write, and full eigendecompositions in ``fiber``.  A rank-2 pair with
  many points (per-point overhead) and a rank-8 pair with few (LAPACK
  work).
- ``suites-small``: the ``check`` suites at reduced sample counts:
  thousands of single-matrix fiber calls at ranks 1-4 on meshes of 1-8
  points, plus the oracle's path descent.  Nothing batches over mesh
  points here, so a batching change should leave it unchanged.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DISK_REL_TOL = 0.02        # acceptance criterion 11: within 2% of 8*pi and 2*pi
CAUCHY_REL_TOL = 1e-10     # acceptance criterion 12: to_limit vs its closed form
QUADRATURE_REL_TOL = 1e-10
DISTANCE_REL_TOL = 1e-9
ENDPOINT_REL_TOL = 1e-9
GEODESIC_STEPS = 11


class CheckError(Exception):
    """An op's output disagrees with the benchmark's reference."""


@dataclass
class Op:
    """One CLI call: its argv, the mesh points it processes, and its check.

    ``check`` receives the captured stdout and raises CheckError."""

    name: str
    argv: list[str]
    points: int
    check: Callable[[str], None]


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict = field(default_factory=dict)


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# --- disk-cases ----------------------------------------------------------

def _polar_mesh(n_r: int, n_theta: int):
    """Cell-center radii, angles and area weights of the polar midpoint grid."""
    dr = 1.0 / n_r
    dth = 2.0 * math.pi / n_theta
    r = np.repeat((np.arange(n_r) + 0.5) * dr, n_theta)
    th = np.tile((np.arange(n_theta) + 0.5) * dth, n_r)
    return r, th, r * dr * dth


def _check_raufi(n_r, n_theta, alpha):
    r, th, w = _polar_mesh(n_r, n_theta)
    log_det = 2.0 * np.log(r**2)                       # log det = 2 log|z|^2
    want_logdet = float((w * log_det**2).sum())
    z = r * np.exp(1j * th)
    t = r**2
    mats = np.empty((z.size, 2, 2), dtype=complex)
    mats[:, 0, 0] = 1.0 + t
    mats[:, 0, 1] = z
    mats[:, 1, 0] = np.conj(z)
    mats[:, 1, 1] = t
    lam = np.linalg.eigvalsh(mats)
    # lam_lo from the determinant avoids the cancellation in the small root
    lam_lo = t**2 / lam[:, 1]
    logs = np.stack([np.log(lam_lo), np.log(lam[:, 1])], axis=1)
    want_dist = float((w * ((logs**2).sum(1) + alpha * log_det**2)).sum())

    def check(out: str) -> None:
        rep = json.loads(out)
        got = rep["log_det_sq_integral"]
        _require(_rel(got, want_logdet) <= QUADRATURE_REL_TOL,
                 f"raufi log_det_sq_integral {got!r} != reference {want_logdet!r}")
        _require(_rel(got, 8.0 * math.pi) <= DISK_REL_TOL,
                 f"raufi log_det_sq_integral {got!r} not within 2% of 8*pi")
        got = rep["distance_sq_integral"]
        _require(_rel(got, want_dist) <= DISTANCE_REL_TOL,
                 f"raufi distance_sq_integral {got!r} != reference {want_dist!r}")
        _require(rep["psh_log_det"]["passed"] is True, "raufi psh check failed")
    return check


def _check_line_bundle(n_r, n_theta):
    r, _, w = _polar_mesh(n_r, n_theta)
    want = float((w * np.log(r**2) ** 2).sum())

    def check(out: str) -> None:
        rep = json.loads(out)
        got = rep["phi_sq_integral"]
        _require(_rel(got, want) <= QUADRATURE_REL_TOL,
                 f"line-bundle phi_sq_integral {got!r} != reference {want!r}")
        _require(_rel(got, 2.0 * math.pi) <= DISK_REL_TOL,
                 f"line-bundle phi_sq_integral {got!r} not within 2% of 2*pi")
        _require(rep["psh_phi"]["passed"] is True, "line-bundle psh check failed")
    return check


def _check_completion(n_r, n_theta, alpha, levels):
    r, _, w = _polar_mesh(n_r, n_theta)
    phi = np.log(r**2)
    # rank 1, constant alpha: d(e^f h0, e^g h0) = sqrt(1 + alpha) ||f - g||_2
    want = [math.sqrt(1.0 + alpha) * math.sqrt(float((w * (np.maximum(phi, -k) - phi) ** 2).sum()))
            for k in range(1, levels + 1)]

    def check(out: str) -> None:
        rep = json.loads(out)
        _require(len(rep["to_limit"]) == levels, "completion-demo: wrong level count")
        for k, (d, f, ref) in enumerate(zip(rep["to_limit"], rep["to_limit_formula"], want)):
            _require(_rel(d, f) <= CAUCHY_REL_TOL,
                     f"completion-demo level {k + 1}: to_limit {d!r} vs formula {f!r}")
            _require(_rel(f, ref) <= CAUCHY_REL_TOL,
                     f"completion-demo level {k + 1}: formula {f!r} vs reference {ref!r}")
    return check


def disk_cases(seed: int, tiny: bool = False) -> Workload:
    raufi = (100, 8) if tiny else (100, 32)
    line = (100, 8) if tiny else (400, 64)
    demo = (8, 8, 3) if tiny else (32, 24, 8)
    rng = np.random.default_rng(seed)
    a_raufi = float(rng.uniform(0.0, 1.0))
    a_demo = float(rng.uniform(0.0, 1.0))
    ops = [
        Op("example raufi",
           ["example", "raufi", "--nr", str(raufi[0]), "--ntheta", str(raufi[1]),
            "--alpha", repr(a_raufi)],
           raufi[0] * raufi[1], _check_raufi(*raufi, a_raufi)),
        Op("example line-bundle",
           ["example", "line-bundle", "--nr", str(line[0]), "--ntheta", str(line[1])],
           line[0] * line[1], _check_line_bundle(*line)),
        Op("completion-demo",
           ["completion-demo", "--nr", str(demo[0]), "--ntheta", str(demo[1]),
            "--alpha", repr(a_demo), "--levels", str(demo[2])],
           demo[0] * demo[1], _check_completion(demo[0], demo[1], a_demo, demo[2])),
    ]
    return Workload(ops, {"alpha_raufi": a_raufi, "alpha_demo": a_demo})


# --- geodesic-io ---------------------------------------------------------

def _random_posdef(rng, n: int, r: int) -> np.ndarray:
    """n Hermitian positive-definite r x r matrices, log-eigenvalues in [-1.5, 1.5]."""
    g = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    u, _ = np.linalg.qr(g)
    s = np.exp(rng.uniform(-1.5, 1.5, (n, r)))
    m = (u * s[:, None, :]) @ np.swapaxes(u, -1, -2).conj()
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


def _write_pair(hermgeo, rng, n: int, r: int, workdir: Path, tag: str):
    """Write a seeded pair of metric sections with hermgeo's wire format."""
    weights = rng.uniform(0.1, 2.0, n)
    alphas = rng.uniform(-1.0 / r + 0.05, 1.0, n)
    p = _random_posdef(rng, n, r)
    q = _random_posdef(rng, n, r)
    sec = hermgeo.sections
    mesh = sec.QuadratureMesh(rank=r, ids=np.arange(n), weights=weights, alphas=alphas)
    paths = []
    for label, vals in (("a", p), ("b", q)):
        path = workdir / f"{tag}_{label}.json"
        sec.save_section(sec.MetricSection(mesh, vals), str(path))
        paths.append(str(path))
    return paths, weights, alphas, p, q


def _check_distance(weights, alphas, p, q):
    lam = np.linalg.eigvals(np.linalg.solve(p, q)).real
    logs = np.log(lam)
    want = math.sqrt(float((weights * ((logs**2).sum(1) + alphas * logs.sum(1) ** 2)).sum()))

    def check(out: str) -> None:
        got = float(out.strip())
        _require(_rel(got, want) <= DISTANCE_REL_TOL,
                 f"distance {got!r} != reference {want!r}")
    return check


def _check_geodesic_csv(path: str, p, q):
    n, r, _ = p.shape

    def check(out: str) -> None:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        _require(len(rows) == 1 + GEODESIC_STEPS * n,
                 f"geodesic CSV has {len(rows) - 1} rows, want {GEODESIC_STEPS * n}")
        _require(len(rows[0]) == 2 + 2 * r * r, "geodesic CSV header width")
        for block, want in ((rows[1:1 + n], p), (rows[-n:], q)):
            vals = np.array([[float(x) for x in row[2:]] for row in block])
            got = (vals[:, 0::2] + 1j * vals[:, 1::2]).reshape(n, r, r)
            err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
            _require(float(err.max()) <= ENDPOINT_REL_TOL,
                     f"geodesic CSV endpoint off by {float(err.max()):.3e} (t={block[0][0]})")
            _require([int(row[1]) for row in block] == list(range(n)),
                     "geodesic CSV point ids out of order")
    return check


def geodesic_io(seed: int, workdir: Path, hermgeo, tiny: bool = False) -> Workload:
    sizes = ((2, 8), (8, 2)) if tiny else ((2, 200), (8, 24))
    rng = np.random.default_rng(seed)
    ops = []
    for r, n in sizes:
        tag = f"rank{r}"
        (pa, pb), w, al, p, q = _write_pair(hermgeo, rng, n, r, workdir, tag)
        csv_path = str(workdir / f"{tag}_geodesic.csv")
        ops.append(Op(f"distance {tag}", ["distance", pa, pb], n,
                      _check_distance(w, al, p, q)))
        ops.append(Op(f"geodesic {tag}",
                      ["geodesic", pa, pb, "--steps", str(GEODESIC_STEPS), "--out", csv_path],
                      n, _check_geodesic_csv(csv_path, p, q)))
    return Workload(ops, {"sizes": [list(s) for s in sizes]})


# --- suites-small --------------------------------------------------------

def _check_suite(suite: str):
    def check(out: str) -> None:
        rep = json.loads(out)
        _require(rep.get("suite") == suite, f"check {suite}: wrong report")
        _require(rep.get("passed") is True, f"check {suite}: passed is not true")
    return check


def suites_small(seed: int, tiny: bool = False) -> Workload:
    # The oracle's path descent costs ~0.15 s a sample, so it gets few
    # samples and does not dominate the fiber-call suites.  cat0 gets
    # more: the ranks and mesh sizes of its samples follow its seed, so
    # the work of a pass varies from seed to seed (eigensolves vary by
    # 10% over ten seeds at 60 samples, by 2% at 240).
    samples = {"invariants": 2, "cat0": 2, "appendix": 2, "oracle": 1} if tiny else \
        {"invariants": 60, "cat0": 240, "appendix": 60, "oracle": 3}
    # cat0 samples from a suite seed drawn from the benchmark seed.  The
    # others keep the CLI's default seeds.  invariants and appendix: on
    # about one suite seed in six their verdict is false (the exp/log
    # roundtrip error exceeds 1e-8; the finite-difference singular value
    # drops below 1e-3), a defect of the package that must not make
    # benchmark runs fail at random; see README.md.  oracle: its descent
    # stops at a seed-dependent iteration, so a drawn seed would make the
    # work of a pass vary from run to run.
    seeds = {"invariants": 42, "appendix": 3, "oracle": 1,
             "cat0": int(np.random.default_rng(seed).integers(0, 2**31 - 1))}
    ops = [Op(f"check {suite}",
              ["check", suite, "--seed", str(seeds[suite]), "--samples", str(n)],
              n, _check_suite(suite))
           for suite, n in samples.items()]
    return Workload(ops, {"suite_seeds": seeds, "samples": samples})


def build(name: str, seed: int, workdir: Path, hermgeo, tiny: bool = False) -> Workload:
    if name == "disk-cases":
        return disk_cases(seed, tiny)
    if name == "geodesic-io":
        return geodesic_io(seed, workdir, hermgeo, tiny)
    if name == "suites-small":
        return suites_small(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
