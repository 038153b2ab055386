import json
import os

import numpy as np
import pytest

from hermgeo import cli, linalg, sampling, sections
from hermgeo.cli import main
from hermgeo.sections import GaugeTransform, MetricSection, QuadratureMesh, save_section


def write_matrix(path, mat):
    path.write_text(json.dumps(linalg.matrix_to_json(np.asarray(mat, dtype=complex))))


def conformal_pair(tmp_path):
    mesh = QuadratureMesh(rank=2, ids=[0], weights=[1.0], alphas=[0.0])
    h1 = MetricSection(mesh, np.eye(2, dtype=complex)[None])
    h2 = MetricSection(mesh, np.exp(2.0) * np.eye(2, dtype=complex)[None])
    f1, f2 = tmp_path / "h1.json", tmp_path / "h2.json"
    save_section(h1, str(f1))
    save_section(h2, str(f2))
    return f1, f2


def test_distance_identical(tmp_path, capsys):
    f1, _ = conformal_pair(tmp_path)
    assert main(["distance", str(f1), str(f1)]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_distance_conformal_pair(tmp_path, capsys):
    f1, f2 = conformal_pair(tmp_path)
    assert main(["distance", str(f1), str(f2)]) == 0
    assert capsys.readouterr().out.strip() == "2.82842712475"


def test_distance_two_point_fixture(tmp_path, capsys):
    mesh = QuadratureMesh(rank=1, ids=[0, 1], weights=[1.0, 1.0],
                          alphas=[0.0, 0.0])
    h1 = MetricSection(mesh, np.ones((2, 1, 1), dtype=complex))
    h2 = MetricSection(mesh, np.array([np.exp(3.0), np.exp(4.0)]
                                      ).reshape(2, 1, 1).astype(complex))
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    save_section(h1, str(f1))
    save_section(h2, str(f2))
    assert main(["distance", str(f1), str(f2)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(5.0, rel=1e-12)


def test_distance_mesh_mismatch(tmp_path, capsys):
    f1, _ = conformal_pair(tmp_path)
    mesh = QuadratureMesh(rank=2, ids=[0], weights=[2.0], alphas=[0.0])
    other = MetricSection(mesh, np.eye(2, dtype=complex)[None])
    f3 = tmp_path / "h3.json"
    save_section(other, str(f3))
    assert main(["distance", str(f1), str(f3)]) != 0


def test_geodesic_trace(tmp_path):
    f1, f2 = conformal_pair(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(["geodesic", str(f1), str(f2), "--steps", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 5  # one mesh point
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[2]) == pytest.approx(1.0, abs=1e-8)
    assert float(last[2]) == pytest.approx(np.exp(2.0), rel=1e-8)
    mid = lines[3].split(",")
    assert float(mid[2]) == pytest.approx(np.e, rel=1e-8)


def test_geodesic_error_leaves_out_file_as_it_was(tmp_path, capsys):
    f1, f2 = conformal_pair(tmp_path)
    heavier = QuadratureMesh(rank=2, ids=[0], weights=[2.0], alphas=[0.0])
    other, far = tmp_path / "other.json", tmp_path / "far.json"
    save_section(MetricSection(heavier, np.eye(2, dtype=complex)[None]), str(other))
    # the log of h1^{-1} far fails its condition guard after the header is out
    mesh = sections.load_section(str(f1)).mesh
    save_section(MetricSection(mesh, np.diag([1.0, 1e-15]).astype(complex)[None]), str(far))
    out = tmp_path / "trace.csv"
    out.write_bytes(b"one line\n")
    before = sorted(tmp_path.iterdir())
    for argv in (["geodesic", str(f1), str(f2), "--steps", "1"],
                 ["geodesic", str(f1), str(other)],
                 ["geodesic", str(f1), str(far)]):
        assert_input_error(capsys, [*argv, "--out", str(out)])
        assert out.read_bytes() == b"one line\n"
        assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["distance", "geodesic", "integrability"])
def test_non_metric_section_exits_2(tmp_path, capsys, command):
    # a gauge file read as a metric would be symmetrized without a word
    f1, _ = conformal_pair(tmp_path)
    mesh = sections.load_section(str(f1)).mesh
    gauge = tmp_path / "gauge.json"
    save_section(GaugeTransform(mesh, np.array([[[2.0, 1.0], [0.0, 1.0]]])), str(gauge))
    assert_input_error(capsys, [command, str(gauge), str(f1)])


def test_curvature_command(tmp_path, capsys):
    write_matrix(tmp_path / "h.json", np.eye(2))
    write_matrix(tmp_path / "u.json", np.diag([1, -1]) / np.sqrt(2))
    write_matrix(tmp_path / "v.json", np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    assert main(["curvature", str(tmp_path / "h.json"), str(tmp_path / "u.json"),
                 str(tmp_path / "v.json"), "--alpha", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["sectional_curvature"] == pytest.approx(-0.5, abs=1e-12)


def test_check_command(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["check", "appendix", "--seed", "3", "--samples", "5",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"]
    assert rep["tolerances"]["min_singular_value"] == 1e-3


@pytest.mark.parametrize("suite,samples", [
    ("invariants", 10), ("cat0", 10), ("appendix", 10), ("oracle", 1)])
def test_check_determinism(tmp_path, suite, samples):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["check", suite, "--seed", "5", "--samples", str(samples),
          "--out", str(o1)])
    main(["check", suite, "--seed", "5", "--samples", str(samples),
          "--out", str(o2)])
    assert o1.read_bytes() == o2.read_bytes()


def test_example_raufi_small(tmp_path):
    out = tmp_path / "raufi.json"
    assert main(["example", "raufi", "--nr", "80", "--ntheta", "32",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["is_l2"]
    assert rep["log_det_sq_integral"] == pytest.approx(8 * np.pi, rel=0.05)
    assert rep["psh_log_det"]["passed"]


def test_example_line_bundle(tmp_path):
    out = tmp_path / "lb.json"
    assert main(["example", "line-bundle", "--nr", "80", "--ntheta", "32",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["phi_sq_integral"] == pytest.approx(2 * np.pi, rel=0.05)


def test_integrability_command(tmp_path, capsys):
    rng = sampling.make_rng(70)
    mesh = sampling.random_mesh(rng, 2, 4)
    h0 = sampling.random_metric_section(rng, mesh)
    sig = sampling.random_metric_section(rng, mesh)
    fa, fb = tmp_path / "sig.json", tmp_path / "h0.json"
    save_section(sig, str(fa))
    save_section(h0, str(fb))
    assert main(["integrability", str(fa), str(fb)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["is_l2"]
    assert rep["l2_log_lambda_max"] > 0


def test_completion_demo(tmp_path):
    out = tmp_path / "demo.json"
    assert main(["completion-demo", "--nr", "40", "--ntheta", "16",
                 "--levels", "5", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["to_limit"]) == 5
    for direct, formula in zip(rep["to_limit"], rep["to_limit_formula"]):
        assert direct == pytest.approx(formula, rel=1e-10)
    # distances to the limit decrease as the truncation level rises
    assert rep["to_limit"][-1] < rep["to_limit"][0]


def test_fixture_roundtrip(tmp_path):
    f1, _ = conformal_pair(tmp_path)
    sec = sections.load_section(str(f1))
    f2 = tmp_path / "round.json"
    save_section(sec, str(f2))
    assert json.loads(f1.read_text()) == json.loads(f2.read_text())


def _section_obj(weights=(1.0, 2.0)):
    mesh = QuadratureMesh(rank=2, ids=np.arange(len(weights)), weights=list(weights),
                          alphas=[0.0] * len(weights))
    vals = np.broadcast_to(np.eye(2, dtype=complex), (len(weights), 2, 2))
    return sections.section_to_json(MetricSection(mesh, vals))


def _drop(key):
    def edit(obj):
        del obj["points"][1][key]
    return edit


def _drop_matrix_part(part):
    def edit(obj):
        del obj["points"][1]["h"][part]
    return edit


def _set(key, value):
    def edit(obj):
        obj["points"][1][key] = value
    return edit


def _set_rank(value):
    def edit(obj):
        obj["rank"] = value
    return edit


def _set_entry(part, value):
    def edit(obj):
        obj["points"][1]["h"][part][0][0] = value
    return edit


def _rename_matrix(obj):
    obj["points"][1]["v"] = obj["points"][1].pop("h")


def _grow_matrix(obj):
    obj["points"][1]["h"] = linalg.matrix_to_json(np.eye(3))


def _infinite_entry(obj):
    obj["points"][1]["h"]["re"][0][0] = float("inf")


MALFORMED_SECTIONS = {
    "no matrix key": _drop("h"),
    "no id": _drop("id"),
    "no weight": _drop("weight"),
    "no alpha": _drop("alpha"),
    "no re": _drop_matrix_part("re"),
    "no im": _drop_matrix_part("im"),
    "matrix keys disagree": _rename_matrix,
    "matrix shapes disagree": _grow_matrix,
    "negative weight": _set("weight", -1.0),
    "nan weight": _set("weight", float("nan")),
    "duplicate id": _set("id", 0),
    "inadmissible alpha": _set("alpha", -5.0),
    "infinite entry": _infinite_entry,
    # the wire read takes JSON integers and numbers as written, never coerced
    "id past 64 bits": _set("id", 10**30),
    "id past int64": _set("id", 2**63),
    "id near uint64 max": _set("id", 2**64 - 1),
    "fractional id": _set("id", 1.9),
    "string id": _set("id", "1"),
    "bool id": _set("id", True),
    "fractional rank": _set_rank(2.5),
    "float rank": _set_rank(2.0),
    "bool rank": _set_rank(True),
    "string entry": _set_entry("re", "2.5"),
    "null entry": _set_entry("im", None),
    "string weight": _set("weight", "2"),
    "string alpha": _set("alpha", "0"),
}


def assert_input_error(capsys, argv):
    """The CLI exits 2 with one error line and no traceback; the line."""
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("case", sorted(MALFORMED_SECTIONS))
def test_malformed_section_exits_2(tmp_path, capsys, case):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    obj = _section_obj()
    good.write_text(json.dumps(obj))
    MALFORMED_SECTIONS[case](obj)
    bad.write_text(json.dumps(obj))
    assert_input_error(capsys, ["distance", str(good), str(bad)])


@pytest.mark.parametrize("text", ["not json {", "[1, 2]", '{"rank": 2, "points": []}'])
def test_non_section_json_exits_2(tmp_path, capsys, text):
    f1, _ = conformal_pair(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert_input_error(capsys, ["distance", str(f1), str(bad)])
    assert_input_error(capsys, ["geodesic", str(bad), str(f1)])


def test_curvature_input_errors_exit_2(tmp_path, capsys):
    write_matrix(tmp_path / "h.json", np.eye(2))
    write_matrix(tmp_path / "u.json", np.diag([1, -1]) / np.sqrt(2))
    write_matrix(tmp_path / "v.json", np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    (tmp_path / "bad.json").write_text("{")
    args = [str(tmp_path / name) for name in ("h.json", "u.json", "v.json")]
    assert_input_error(capsys, ["curvature", *args, "--alpha", "-5"])
    assert_input_error(capsys, ["curvature", str(tmp_path / "bad.json"), *args[1:]])
    write_matrix(tmp_path / "h.json", [[np.inf, 0], [0, 1]])
    assert_input_error(capsys, ["curvature", *args])
    # Hermitian, so not refused for asymmetry: at this h the second
    # vector's norm is about 1e-308
    write_matrix(tmp_path / "h.json", np.diag([1e308, 1.0]))
    assert "asymmetry" not in assert_input_error(capsys, ["curvature", *args])


@pytest.mark.parametrize("command", ["distance", "integrability"])
def test_overflowing_section_sums_exit_2(tmp_path, capsys, command):
    mesh = QuadratureMesh(rank=1, ids=[0, 1], weights=[1e308, 1e308], alphas=[0.0, 0.0])
    paths = [str(tmp_path / f"h{k}.json") for k in range(2)]
    for path, h in zip(paths, (1.0, 10.0)):
        save_section(MetricSection(mesh, np.full((2, 1, 1), h, dtype=complex)), path)
    assert "overflows" in assert_input_error(capsys, [command, *paths])


def test_disk_example_alpha_errors_exit_2(capsys):
    # the rank-2 example needs alpha > -1/2, the rank-1 demo alpha > -1
    assert_input_error(capsys, ["example", "raufi", "--nr", "8", "--ntheta", "8",
                                "--alpha", "-0.5"])
    assert_input_error(capsys, ["completion-demo", "--nr", "8", "--ntheta", "8",
                                "--alpha", "-1"])
    # the line-bundle report has no alpha, so the option would do nothing
    for alpha in ("5", "0"):
        assert "no --alpha" in assert_input_error(
            capsys, ["example", "line-bundle", "--alpha", alpha])


@pytest.mark.parametrize("argv", [
    ["check", "cat0", "--samples", "2"],
    ["example", "line-bundle", "--nr", "80", "--ntheta", "32"],
    ["completion-demo", "--nr", "16", "--ntheta", "8", "--levels", "2"],
])
def test_out_moves_a_complete_file_over_the_target(tmp_path, monkeypatch, argv):
    out = tmp_path / "report.json"
    out.write_text("old")
    moves = []

    def replace(src, dst, real=os.replace):
        with open(src) as fh:
            moves.append((fh.read(), dst))
        real(src, dst)
    monkeypatch.setattr(cli.os, "replace", replace)
    assert main([*argv, "--out", str(out)]) == 0
    assert moves == [(out.read_text(), str(out))]
    assert json.loads(out.read_text())
    assert sorted(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("suite,samples", [
    ("cat0", "0"), ("appendix", "-3"), ("invariants", "0"), ("oracle", "0")])
def test_check_sample_count_errors_exit_2(capsys, suite, samples):
    assert_input_error(capsys, ["check", suite, "--samples", samples])


@pytest.mark.parametrize("suite", ["cat0", "appendix", "invariants", "oracle"])
def test_check_negative_seed_exits_2(capsys, suite):
    assert_input_error(capsys, ["check", suite, "--seed", "-1", "--samples", "1"])


@pytest.mark.parametrize("suite", ["cat0", "oracle"])
@pytest.mark.parametrize("seed", [2**63 - 1, 2**64 - 1])
def test_check_accepts_seeds_past_int64(capsys, suite, seed):
    # the oracle seeds its samples seed, seed + 1, ...: past 2**63 and 2**64
    assert main(["check", suite, "--seed", str(seed), "--samples", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed


def test_count_errors_exit_2(tmp_path, capsys):
    f1, f2 = conformal_pair(tmp_path)
    assert_input_error(capsys, ["geodesic", str(f1), str(f2), "--steps", "1"])
    assert_input_error(capsys, ["example", "raufi", "--nr", "0"])
    assert_input_error(capsys, ["example", "line-bundle", "--ntheta", "0"])
    # too coarse for the psh test: no test circle stays inside the mesh
    assert_input_error(capsys, ["example", "raufi", "--nr", "8", "--ntheta", "8"])
    assert_input_error(capsys, ["completion-demo", "--nr", "0"])
    assert_input_error(capsys, ["completion-demo", "--nr", "8", "--ntheta", "8",
                                "--levels", "0"])


# one argv per command; the stubbed commands never read the files
COMMAND_ARGVS = {
    "cmd_distance": ["distance", "a.json", "b.json"],
    "cmd_geodesic": ["geodesic", "a.json", "b.json"],
    "cmd_curvature": ["curvature", "h.json", "u.json", "v.json"],
    "cmd_check": ["check", "cat0"],
    "cmd_example": ["example", "raufi"],
    "cmd_integrability": ["integrability", "s.json", "h.json"],
    "cmd_completion_demo": ["completion-demo"],
}


def test_main_looks_commands_up_at_each_call(monkeypatch, capsys):
    # the parser is built once per process; a command rebound after that
    # (as a tracer or a test does) is still the one main runs
    assert main(["example", "line-bundle", "--nr", "60", "--ntheta", "16"]) == 0
    capsys.readouterr()
    assert set(COMMAND_ARGVS) == {name for name in vars(cli) if name.startswith("cmd_")}
    for name, argv in COMMAND_ARGVS.items():
        seen = []
        monkeypatch.setattr(cli, name, lambda args: seen.append(args.command) or 7)
        assert main(argv) == 7
        assert seen == [argv[0]]
    monkeypatch.undo()
    assert main(["example", "line-bundle", "--nr", "60", "--ntheta", "16"]) == 0


def test_back_to_back_calls_keep_their_own_defaults(monkeypatch, capsys):
    small = ["--nr", "100", "--ntheta", "32"]
    assert main(["example", "raufi", "--alpha", "0.3", *small]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.3
    assert main(["example", "line-bundle", *small]) == 0
    assert "psh_phi" in json.loads(capsys.readouterr().out)
    assert "no --alpha" in assert_input_error(capsys, ["example", "line-bundle", "--alpha", "1"])
    seen = []
    monkeypatch.setattr(cli, "cmd_example", lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "cmd_completion_demo", lambda args: seen.append(vars(args)) or 0)
    for argv in (["example", "raufi", "--alpha", "0.3", "--nr", "7", "--out", "x"],
                 ["example", "line-bundle"], ["completion-demo"]):
        assert main(argv) == 0
    assert seen == [
        {"command": "example", "name": "raufi", "nr": 7, "ntheta": 64, "alpha": 0.3, "out": "x"},
        {"command": "example", "name": "line-bundle", "nr": 400, "ntheta": 64, "alpha": None,
         "out": None},
        {"command": "completion-demo", "nr": 100, "ntheta": 32, "alpha": 0.0, "levels": 8,
         "out": None}]
