"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They run the real ``run.py`` on tiny inputs, check the metric names and
units against BENCHMARK.json, and pin the per-point cost model of
``section_distance`` and ``section_geodesic`` to a hand count of the
current code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from run import SPEC, WORKLOADS  # noqa: E402
from worker import Runner, import_hermgeo  # noqa: E402

hermgeo = import_hermgeo(ROOT)


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


_cache: dict = {}


def tiny_run(workload: str, seed: int, trace: int) -> dict:
    key = (workload, seed, trace)
    if key not in _cache:
        rc, lines = bench("--workload", workload, "--seed", str(seed),
                          "--seconds", "0.2", "--trace", str(trace), "--tiny")
        assert rc == 0, lines
        _cache[key] = json.loads(lines[-1])
    return _cache[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_metric_with_its_unit(workload, trace):
    res = tiny_run(workload, 1, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_give_different_inputs_and_same_metric_names(workload):
    def inputs(seed):
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            wl = workloads.build(workload, seed, Path(tmp), hermgeo, tiny=True)
            files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
            argv = [[a.replace(tmp, "<dir>") for a in op.argv] for op in wl.ops]
            return argv, files

    a, b = inputs(1), inputs(2)
    assert a != b
    assert inputs(1) == a
    assert tiny_run(workload, 1, 0)["metrics"].keys() == tiny_run(workload, 2, 0)["metrics"].keys()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly_across_runs(workload):
    first = tiny_run(workload, 3, 1)["metrics"]
    rc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                      "--trace", "1", "--tiny")
    assert rc == 0
    second = json.loads(lines[-1])["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "1/point", "B")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def _mesh_pair(rank: int, n: int):
    sec = hermgeo.sections
    rng = np.random.default_rng(7)
    mesh = sec.QuadratureMesh(rank=rank, ids=np.arange(n), weights=rng.uniform(0.1, 2.0, n),
                              alphas=rng.uniform(0.0, 1.0, n))
    p = workloads._random_posdef(rng, n, rank)
    q = workloads._random_posdef(rng, n, rank)
    return sec.MetricSection(mesh, p), sec.MetricSection(mesh, q)


def _traced_counts(fn, *args) -> dict:
    tr = tracer_mod.Tracer(hermgeo)
    with tr.installed():
        fn(*args)
    t = tr.summarize()
    n = args[0].mesh.n_points
    return {
        "eig_calls_per_point": t.calls_of("numpy.linalg.eigh", "numpy.linalg.eigvalsh") / n,
        "hermitian_calls_per_point": t.calls_of("linalg.hermitian") / n,
        "posdef_calls_per_point": t.calls_of("linalg.posdef") / n,
        "log_map_calls_per_point": t.calls_of("fiber.log_map") / n,
    }


# Hand count of the current code, per mesh point.
# section_distance -> fiber_distance -> relative_spectrum(p, q):
#   posdef(p), posdef(q)            2 hermitian, 2 eigvalsh
#   invsqrtm_posdef(p): posdef(p)   1 hermitian, 1 eigvalsh
#     eig_hermitian                 1 hermitian, 1 eigh
#   eigvalsh of the whitened q      1 eigvalsh
SECTION_DISTANCE = {"eig_calls_per_point": 5, "hermitian_calls_per_point": 4,
                    "posdef_calls_per_point": 3, "log_map_calls_per_point": 0}
# section_geodesic(h1, h2, t != 0), per point:
#   log_map: posdef(p), posdef(q), sqrtm (posdef + eig_hermitian),
#     invsqrtm (posdef + eig_hermitian), logm (posdef + eigvalsh +
#     eig_hermitian)                        8 hermitian, 9 eig, 5 posdef
#   FiberGeodesic: posdef(start), hermitian(velocity)
#                                           2 hermitian, 1 eig, 1 posdef
#   geodesic_eval: sqrtm, invsqrtm, expm_hermitian (hermitian + eig_hermitian)
#                                           6 hermitian, 5 eig, 2 posdef
#   MetricSection of the result: posdef     1 hermitian, 1 eig, 1 posdef
SECTION_GEODESIC = {"eig_calls_per_point": 16, "hermitian_calls_per_point": 17,
                    "posdef_calls_per_point": 9, "log_map_calls_per_point": 1}


def test_cost_model_matches_hand_count_and_repeats():
    h1, h2 = _mesh_pair(rank=2, n=3)
    sec = hermgeo.sections
    first = _traced_counts(sec.section_distance, h1, h2)
    assert first == SECTION_DISTANCE
    assert _traced_counts(sec.section_distance, h1, h2) == first
    assert _traced_counts(sec.section_geodesic, h1, h2, 0.5) == SECTION_GEODESIC


def test_tracer_restores_every_binding():
    before = {m: dict(vars(getattr(hermgeo, m))) for m in tracer_mod.PACKAGE_MODULES}
    suites_before = dict(hermgeo.suites.SUITES)
    eigh, post_init = np.linalg.eigh, vars(hermgeo.sections.MetricSection)["__post_init__"]
    tr = tracer_mod.Tracer(hermgeo)
    with tr.installed():
        assert hermgeo.sections.fiber_distance is not before["fiber"]["fiber_distance"]
        assert hermgeo.sections.fiber_distance is hermgeo.fiber.fiber_distance
        assert hermgeo.suites.SUITES["cat0"] is not suites_before["cat0"]
    for m, ns in before.items():
        assert all(vars(getattr(hermgeo, m))[k] is v for k, v in ns.items()), m
    assert hermgeo.suites.SUITES == suites_before
    assert np.linalg.eigh is eigh
    assert vars(hermgeo.sections.MetricSection)["__post_init__"] is post_init


def test_self_time_excludes_children():
    tr = tracer_mod.Tracer(hermgeo)
    h1, h2 = _mesh_pair(rank=2, n=3)
    with tr.installed():
        hermgeo.sections.section_distance(h1, h2)
    t = tr.summarize()
    total = t.incl_of("sections.section_distance")
    layers = sum(t.layer_self(layer) for layer in tracer_mod.LAYERS)
    assert layers == pytest.approx(total, rel=1e-9)
    assert 0 < t.self_of("sections.section_distance") < total


def test_checks_reject_wrong_outputs():
    r, _, w = workloads._polar_mesh(100, 8)
    good = float((w * (2.0 * np.log(r**2)) ** 2).sum())
    check = workloads._check_raufi(100, 8, 0.0)
    bad = {"log_det_sq_integral": good * (1 + 1e-8), "distance_sq_integral": 0.0,
           "psh_log_det": {"passed": True}}
    with pytest.raises(workloads.CheckError):
        check(json.dumps(bad))
    with pytest.raises(workloads.CheckError):
        workloads._check_suite("cat0")(json.dumps({"suite": "cat0", "passed": False}))


def test_failed_op_is_counted():
    def failing_check(out):
        raise workloads.CheckError("wrong")

    ops = [workloads.Op("ok", ["check", "appendix", "--samples", "1"], 1,
                        workloads._check_suite("appendix")),
           workloads.Op("bad", ["check", "appendix", "--samples", "1"], 1, failing_check),
           workloads.Op("exit2", ["distance", "no-such-file.json", "x.json"], 1,
                        lambda out: None)]
    runner = Runner(hermgeo, workloads.Workload(ops))
    runner.run_pass()
    assert runner.attempted == 3
    assert [f.split(":")[0] for f in runner.failures] == ["bad", "exit2"]


def test_exits_nonzero_without_the_package_sources():
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench("--workload", "disk-cases", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
    assert rc != 0
    assert not any(line.startswith('{"correct"') for line in lines)
