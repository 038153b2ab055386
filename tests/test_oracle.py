"""The path-energy oracle, and its lockstep descent against the
per-sample reference.

``distance_oracle`` descends a stack of samples in lockstep.  The
functions ``reference_*`` below are the per-sample form of the same
descent: one path at a time, a step accepted or rejected as that path
alone decides.  The descent is chaotic at rounding level, so every
sample of the lockstep run must reproduce them bit for bit (``==``).
"""

import numpy as np
import pytest

from hermgeo import fiber, linalg, oracle, sampling, suites
from hermgeo.cli import main
from hermgeo.errors import OracleFailureError
from hermgeo.oracle import discrete_length, distance_oracle

I2 = np.eye(2, dtype=complex)

_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def reference_energy_and_grad(path, alpha):
    n_seg = path.shape[0] - 1
    delta = path[1:] - path[:-1]
    base = path[:-1, None] + _GAUSS_T[None, :, None, None] * delta[:, None]
    binv = np.linalg.inv(base)
    m = binv @ delta[:, None]
    tr_mm = np.einsum("sgij,sgji->sg", m, m).real
    tr_m = np.einsum("sgii->sg", m).real
    energy = float(n_seg * (0.5 * (tr_mm + alpha * tr_m**2)).sum())

    mb = m @ binv
    mmb = m @ mb
    g_delta = 2.0 * mb + 2.0 * alpha * tr_m[..., None, None] * binv
    g_base = -2.0 * mmb - 2.0 * alpha * tr_m[..., None, None] * mb
    g_delta = (g_delta + np.swapaxes(g_delta, -1, -2).conj()) / 2
    g_base = (g_base + np.swapaxes(g_base, -1, -2).conj()) / 2

    w = 0.5 * n_seg
    seg_from_delta = w * g_delta.sum(axis=1)
    seg_from_base_lo = w * ((1.0 - _GAUSS_T)[None, :, None, None] * g_base).sum(axis=1)
    seg_from_base_hi = w * (_GAUSS_T[None, :, None, None] * g_base).sum(axis=1)
    grad = np.zeros_like(path)
    grad[:-1] += -seg_from_delta + seg_from_base_lo
    grad[1:] += seg_from_delta + seg_from_base_hi
    grad[0] = 0.0
    grad[-1] = 0.0
    return energy, grad


def reference_length(path, alpha):
    delta = path[1:] - path[:-1]
    base = path[:-1, None] + _GAUSS_T[None, :, None, None] * delta[:, None]
    m = np.linalg.inv(base) @ delta[:, None]
    tr_mm = np.einsum("sgij,sgji->sg", m, m).real
    tr_m = np.einsum("sgii->sg", m).real
    sq = np.maximum(tr_mm + alpha * tr_m**2, 0.0)
    return float((0.5 * np.sqrt(sq)).sum())


def _is_posdef(nodes):
    try:
        np.linalg.cholesky(nodes)
        return True
    except np.linalg.LinAlgError:
        return False


def reference_descend(path, alpha, iterations, events=None):
    """One path's descent; ``events`` collects "zero" (zero gradient, no
    step), "cone" (a step left the cone) and "break" (201 rejections)."""
    events = [] if events is None else events
    energy, grad = reference_energy_and_grad(path, alpha)
    gnorm = np.linalg.norm(grad)
    if gnorm == 0.0:
        events.append("zero")
        return path
    eta = 0.05 * np.linalg.norm(path) / (gnorm + 1e-30)
    prev_path = prev_grad = None
    rejects = 0
    for _ in range(iterations):
        if prev_path is not None:
            dx = path - prev_path
            dg = grad - prev_grad
            denom = np.vdot(dg, dg).real
            if denom > 1e-300:
                bb = abs(np.vdot(dx, dg).real) / denom
                if np.isfinite(bb) and bb > 0:
                    eta = bb
        trial = path - eta * grad
        if not _is_posdef(trial[1:-1]):
            events.append("cone")
            eta *= 0.5
            prev_path = prev_grad = None
            rejects += 1
            if rejects > 200:
                raise OracleFailureError("descent could not stay inside the positive cone")
            continue
        e_trial, g_trial = reference_energy_and_grad(trial, alpha)
        if e_trial < energy:
            prev_path, prev_grad = path, grad
            path, energy, grad = trial, e_trial, g_trial
            rejects = 0
        else:
            eta *= 0.5
            prev_path = prev_grad = None
            rejects += 1
            if rejects > 200:
                events.append("break")
                break
    return path


def reference_oracle(p, q, alpha, segments=64, iterations=500, seed=0):
    p = linalg.posdef(p)
    q = linalg.posdef(q)
    levels = [segments]
    while levels[-1] > 8 and levels[-1] % 2 == 0:
        levels.append(levels[-1] // 2)
    levels.reverse()

    t = np.linspace(0.0, 1.0, levels[0] + 1)
    path = oracle._clamp_posdef(p[None] + t[:, None, None] * (q - p)[None])
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal(path.shape) + 1j * rng.standard_normal(path.shape)
    noise = (noise + np.swapaxes(noise, -1, -2).conj()) / 2
    scale = 1e-8 * max(np.linalg.norm(p), np.linalg.norm(q))
    path[1:-1] += scale * noise[1:-1]

    per_level = max(50, iterations // len(levels))
    for i, n_seg in enumerate(levels):
        if path.shape[0] - 1 != n_seg:
            refined = np.empty((n_seg + 1,) + path.shape[1:], dtype=path.dtype)
            refined[0::2] = path
            refined[1::2] = (path[:-1] + path[1:]) / 2
            path = refined
        budget = iterations - (len(levels) - 1) * per_level \
            if i == len(levels) - 1 else per_level
        path = reference_descend(path, alpha, max(budget, per_level))
    return reference_length(path, alpha)


def reference_samples(seed, samples):
    """Each sample's (closed form, oracle) of ``run_oracle``, one at a time."""
    rng = sampling.make_rng(seed)
    out = []
    for k in range(samples):
        alpha = [0.0, 1.0, -0.4][k % 3]
        p = sampling.random_posdef(rng, 2, spread=1.2)
        q = sampling.random_posdef(rng, 2, spread=1.2)
        out.append((fiber.fiber_distance(p, q, alpha),
                    reference_oracle(p, q, alpha, seed=seed + k)))
    return out


def test_equal_endpoints():
    p = np.diag([2.0, 3.0])
    assert distance_oracle(p, p, 0.0, segments=8, iterations=20) \
        == pytest.approx(0.0, abs=1e-6)


def test_conformal_pair():
    d = distance_oracle(I2, np.exp(2.0) * I2, 0.0, segments=64, iterations=500,
                        seed=3)
    assert d == pytest.approx(2.0 * np.sqrt(2.0), rel=0.01)


def test_random_pairs_match_closed_form():
    rng = sampling.make_rng(40)
    for alpha in (0.0, 0.5):
        p = sampling.random_posdef(rng, 2, spread=1.2)
        q = sampling.random_posdef(rng, 2, spread=1.2)
        d = fiber.fiber_distance(p, q, alpha)
        o = distance_oracle(p, q, alpha, segments=64, iterations=500, seed=41)
        assert abs(o - d) / d < 0.01
        assert o >= d - 1e-6


def test_deterministic_given_seed():
    rng = sampling.make_rng(42)
    p = sampling.random_posdef(rng, 2)
    q = sampling.random_posdef(rng, 2)
    a = distance_oracle(p, q, 0.0, segments=16, iterations=50, seed=9)
    b = distance_oracle(p, q, 0.0, segments=16, iterations=50, seed=9)
    assert a == b


def test_segment_floor():
    with pytest.raises(ValueError):
        distance_oracle(I2, 2.0 * I2, 0.0, segments=4)


def test_discrete_length_straight_commuting():
    # for commuting (scalar) metrics in rank 1, any monotone path has the
    # same length, so even the unoptimized straight path is near-exact
    path = np.linspace(1.0, np.exp(2.0), 65)[:, None, None].astype(complex)
    assert discrete_length(path, 0.0) == pytest.approx(2.0, rel=1e-4)


# --- the lockstep descent against the reference ---------------------------

@pytest.fixture(scope="module")
def seed1_reference():
    return reference_samples(1, 10)


def reference_report(pairs):
    gaps = [abs(o - d) / max(d, 1e-12) for d, o in pairs]
    return max([0.0, *gaps]), max([0.0, *(d - o for d, o in pairs)])


def oracle_report(seed, samples):
    rep = suites.run_oracle(seed, samples)
    return rep["max_rel_gap"], rep["max_below"]


@pytest.mark.parametrize("samples", [1, 3, 10])
def test_run_oracle_matches_reference_bitwise(seed1_reference, samples):
    assert oracle_report(1, samples) == reference_report(seed1_reference[:samples])


@pytest.mark.parametrize("seed", [2, 5])
def test_run_oracle_matches_reference_at_other_seeds(seed):
    assert oracle_report(seed, 3) == reference_report(reference_samples(seed, 3))


def test_stacked_oracle_matches_scalar_calls():
    rng = sampling.make_rng(11)
    p = np.array([sampling.random_posdef(rng, 3, spread=1.5) for _ in range(3)])
    q = np.array([sampling.random_posdef(rng, 3, spread=1.5) for _ in range(3)])
    alphas, seeds = [0.0, 1.0, -0.3], [4, 5, 6]
    stacked = distance_oracle(p, q, alphas, segments=16, iterations=120, seed=seeds)
    assert stacked.shape == (3,)
    for k in range(3):
        one = distance_oracle(p[k], q[k], alphas[k], segments=16, iterations=120,
                              seed=seeds[k])
        assert isinstance(one, float)
        assert stacked[k] == one == reference_oracle(
            p[k], q[k], alphas[k], segments=16, iterations=120, seed=seeds[k])


def mixed_batch():
    """Four level-8 paths: constant (zero gradient), one whose steps leave
    the cone, a scalar path that stops after 201 rejections, a plain one."""
    rng = sampling.make_rng(3)
    sampling.random_posdef(rng, 2, spread=3.0)
    sampling.random_posdef(rng, 2, spread=3.0)
    steep = (sampling.random_posdef(rng, 2, spread=3.0),
             sampling.random_posdef(rng, 2, spread=3.0))
    plain = (sampling.random_posdef(rng, 2), sampling.random_posdef(rng, 2))
    ends = [(np.diag([2.0, 3.0]) + 0j,) * 2, steep, (I2, 1.1 * I2), plain]
    return np.concatenate([oracle._initial_paths(p[None], q[None], 8)
                           for p, q in ends])


def test_mixed_batch_matches_reference_per_sample():
    paths = mixed_batch()
    alphas = np.array([0.0, 1.0, -0.4, 1.0])
    events = [[] for _ in paths]
    expected = [reference_descend(path, alpha, 300, log)
                for path, alpha, log in zip(paths, alphas, events)]
    # the batch holds each case the lockstep bookkeeping must get right
    assert events[0] == ["zero"]
    assert "cone" in events[1] and "break" not in events[1]
    assert events[2][-1] == "break" and len(events[2]) < 300
    assert "break" not in events[3]

    out = oracle._descend(paths, alphas, 300)
    for k in range(len(paths)):
        assert np.array_equal(out[k], expected[k]), k
    assert np.array_equal(out[0], paths[0])


def test_per_sample_alphas_in_one_stack():
    paths = np.repeat(mixed_batch()[3:], 3, axis=0)
    alphas = np.array([0.0, 1.0, -0.4])
    out = oracle._descend(paths, alphas, 60)
    lengths = discrete_length(out, alphas)
    for k, alpha in enumerate(alphas):
        path = reference_descend(paths[k], alpha, 60)
        assert np.array_equal(out[k], path)
        assert lengths[k] == reference_length(path, alpha) == discrete_length(path, alpha)
    assert len(set(lengths)) == 3


# --- cost model and failures -------------------------------------------------

@pytest.fixture
def inv_calls(monkeypatch):
    """Count np.linalg.inv calls: one per stacked path-energy evaluation."""
    seen = []
    inv = np.linalg.inv

    def counted(*args, **kwargs):
        seen.append(1)
        return inv(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "inv", counted)
    return seen


def test_energy_evaluations_do_not_grow_with_samples(inv_calls):
    # 4 levels of (8, 16, 32, 64) segments: one evaluation at the start
    # of a level and one per iteration of its budget (125 each), then
    # one for the final lengths; per sample the count would be 1,515
    suites.run_oracle(1, 3)
    assert len(inv_calls) == 4 * (1 + 125) + 1
    inv_calls.clear()
    suites.run_oracle(1, 1)
    assert len(inv_calls) == 4 * (1 + 125) + 1


def test_failing_sample_is_named():
    paths = mixed_batch()[[0, 3, 3]].copy()
    paths[1, 4] = np.diag([1.0, -1.0])          # an interior node off the cone
    with pytest.raises(OracleFailureError) as err:
        oracle._descend(paths, np.zeros(3), 300)
    assert err.value.index == 1
    with pytest.raises(OracleFailureError):
        reference_descend(paths[1], 0.0, 300)


def test_check_oracle_names_the_failing_sample(monkeypatch, capsys):
    in_cone = oracle._in_cone

    # sample 1 is rejected from the first step, so it fails at step 201,
    # before any other sample can have stopped
    def second_sample_never_inside(nodes):
        inside = in_cone(nodes)
        inside[1] = False
        return inside
    monkeypatch.setattr(oracle, "_in_cone", second_sample_never_inside)
    # 201 rejections in a row need a level budget above the default 125
    monkeypatch.setitem(suites.SUITES, "oracle", lambda seed, samples: suites.run_oracle(
        seed, samples, segments=8, iterations=300))
    assert main(["check", "oracle", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: at index 1: descent could not stay inside the positive cone"]
