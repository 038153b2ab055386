"""The path-energy oracle, and its lockstep descent against the
per-sample reference.

``distance_oracle`` descends a stack of samples in lockstep.  The
functions ``reference_*`` below are the per-sample form of the same
descent: one path at a time through the oracle's kernel, a step
accepted or rejected as that path alone decides.  The descent is
chaotic at rounding level, so every sample of the lockstep run must
reproduce them bit for bit (``==``).

``inv_energy_and_grad``, ``inv_length`` and ``inv_metric_grad`` are the
independent route to the kernel's arithmetic: per-matrix
``np.linalg.inv`` and ``@``.  The kernel must agree with them to within
10 * eps * kappa, kappa the largest condition number of the path's
Gauss-point bases, relative to the size of each quantity (for the
metric gradient hGh - ch, that of G times the largest ||h||^2).
"""

import numpy as np
import pytest

from hermgeo import fiber, linalg, oracle, sampling, suites
from hermgeo.cli import main
from hermgeo.errors import OracleFailureError, ParameterError
from hermgeo.oracle import discrete_length, distance_oracle

I2 = np.eye(2, dtype=complex)

_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _bases(path):
    delta = path[1:] - path[:-1]
    return delta, path[:-1, None] + _GAUSS_T[None, :, None, None] * delta[:, None]


def inv_energy_and_grad(path, alpha):
    n_seg = path.shape[0] - 1
    delta, base = _bases(path)
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


def inv_metric_grad(path, grad, alpha):
    """The metric gradient X = h G h - alpha / (1 + r alpha) tr(h G) h at
    each node h of a path, of its Euclidean gradient G."""
    r = path.shape[-1]
    hg = path @ grad
    c = alpha / (1.0 + r * alpha) * np.einsum("nii->n", hg).real
    return hg @ path - c[:, None, None] * path


def inv_metric(h, x, a, alpha):
    """g_h(x, a) = tr(h^-1 x h^-1 a) + alpha tr(h^-1 x) tr(h^-1 a) at each
    node of a stack."""
    hinv = np.linalg.inv(h)
    hx, ha = hinv @ x, hinv @ a
    return (np.einsum("nij,nji->n", hx, ha)
            + alpha * np.einsum("nii->n", hx) * np.einsum("nii->n", ha)).real


def inv_length(path, alpha):
    delta, base = _bases(path)
    m = np.linalg.inv(base) @ delta[:, None]
    tr_mm = np.einsum("sgij,sgji->sg", m, m).real
    tr_m = np.einsum("sgii->sg", m).real
    sq = np.maximum(tr_mm + alpha * tr_m**2, 0.0)
    return float((0.5 * np.sqrt(sq)).sum())


def reference_energy_and_grad(path, alpha):
    energy, grad = oracle._energy_and_grad(path[None], np.array([alpha]))
    return energy[0], grad[0]


def reference_length(path, alpha):
    return discrete_length(path, alpha)


def _is_posdef(nodes):
    try:
        np.linalg.cholesky(nodes)
        return True
    except np.linalg.LinAlgError:
        return False


def reference_descend(path, alpha, iterations, events=None):
    """One path's descent; ``events`` collects "zero" (zero gradient, no
    step), "cone" (a step left the cone), "stop" (the energy stalled)
    and "break" (201 rejections)."""
    events = [] if events is None else events
    energy, grad = reference_energy_and_grad(path, alpha)
    gnorm = np.linalg.norm(grad)
    if gnorm == 0.0:
        events.append("zero")
        return path
    eta = 0.05 * np.linalg.norm(path) / (gnorm + 1e-30)
    prev_path = prev_grad = None
    rejects = 0
    moved = cone_last = False
    past = []                      # the energy before each accepted step
    for _ in range(iterations):
        if prev_path is not None:
            dx = path - prev_path
            dg = grad - prev_grad
            # the lockstep descent's reduction, on a stack of one
            denom = oracle._dots(dg[None], dg[None])[0]
            if denom > 1e-300:
                bb = abs(oracle._dots(dx[None], dg[None])[0]) / denom
                if np.isfinite(bb) and bb > 0:
                    eta = bb
        trial = path - eta * grad
        if not _is_posdef(trial[1:-1]):
            events.append("cone")
            eta *= 0.5
            prev_path = prev_grad = None
            rejects += 1
            cone_last = True
            if rejects > 200:
                raise OracleFailureError("descent could not stay inside the positive cone")
            continue
        e_trial, g_trial = reference_energy_and_grad(trial, alpha)
        if e_trial < energy:
            past.append(energy)
            prev_path, prev_grad = path, grad
            path, energy, grad = trial, e_trial, g_trial
            rejects = 0
            moved = True
            if len(past) >= oracle.STOP_WIN \
                    and past[-oracle.STOP_WIN] - energy < oracle.STOP_TOL * energy:
                events.append("stop")
                break
        else:
            eta *= 0.5
            prev_path = prev_grad = None
            rejects += 1
            cone_last = False
            if rejects > 200:
                events.append("break")
                break
    if not moved and cone_last:
        raise OracleFailureError("descent could not stay inside the positive cone")
    return path


def reference_oracle(p, q, alpha, segments=64, iterations=500, seed=0):
    p, q = linalg.hermitian(p), linalg.hermitian(q)
    assert _is_posdef(p) and _is_posdef(q)
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

    # the cap split evenly across the levels, the remainder to the last
    budgets = [iterations // len(levels)] * len(levels)
    budgets[-1] += iterations % len(levels)
    for n_seg, budget in zip(levels, budgets):
        if path.shape[0] - 1 != n_seg:
            refined = np.empty((n_seg + 1,) + path.shape[1:], dtype=path.dtype)
            refined[0::2] = path
            refined[1::2] = (path[:-1] + path[1:]) / 2
            path = refined
        path = reference_descend(path, alpha, budget)
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
    the cone before its energy stalls, a geometric scalar path (a
    geodesic's nodes) that stops after 201 rejections, a plain one."""
    rng = sampling.make_rng(3)
    steep = (sampling.random_posdef(rng, 2, spread=3.0),
             sampling.random_posdef(rng, 2, spread=3.0))
    plain = (sampling.random_posdef(rng, 2), sampling.random_posdef(rng, 2))
    ends = [(np.diag([2.0, 3.0]) + 0j,) * 2, steep, plain]
    paths = [oracle._initial_paths(p[None], q[None], 8)[0] for p, q in ends]
    paths.insert(2, np.geomspace(1.0, 1.1, 9)[:, None, None] * I2)
    return np.array(paths)


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
def kernel_calls(monkeypatch):
    """Count calls of the oracle's kernel: one per stacked evaluation of
    the path energies or lengths."""
    seen = []
    whitened = oracle._whitened

    def counted(*args, **kwargs):
        seen.append(1)
        return whitened(*args, **kwargs)
    monkeypatch.setattr(oracle, "_whitened", counted)
    return seen


def test_energy_evaluations_do_not_grow_with_samples(kernel_calls):
    # 4 levels of (8, 16, 32, 64) segments: one evaluation at the start
    # of a level and one per iteration until its last sample stalls
    # (44, 46, 35, 26 iterations for 3 samples; 40, 35, 35, 25 for 1),
    # then one for the final lengths
    old = 4 * (1 + 125) + 1            # every level ran its whole share
    suites.run_oracle(1, 3)
    assert len(kernel_calls) == 156 <= old // 2
    kernel_calls.clear()
    suites.run_oracle(1, 1)
    assert len(kernel_calls) == 140 <= old // 2


def test_iterations_cap_the_total():
    rng = sampling.make_rng(42)
    p, q = sampling.random_posdef(rng, 2), sampling.random_posdef(rng, 2)
    steps = []
    descend = oracle._descend

    def counted(paths, alpha, iterations):
        steps.append(iterations)
        return descend(paths, alpha, iterations)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_descend", counted)
        for segments, iterations, shares in ((16, 50, [25, 25]), (64, 2003, [500] * 3 + [503]),
                                             (64, 4, [1] * 4), (8, 1, [1])):
            steps.clear()
            distance_oracle(p, q, 0.0, segments=segments, iterations=iterations)
            assert steps == shares
    for iterations in (0, -5, 3, 2.5, True):
        with pytest.raises(ParameterError, match="need an integer of at least 4$"):
            distance_oracle(p, q, 0.0, segments=64, iterations=iterations)


def test_seeds_keep_their_integer_type():
    rng = sampling.make_rng(42)
    p = np.array([sampling.random_posdef(rng, 2) for _ in range(2)])
    q = np.array([sampling.random_posdef(rng, 2) for _ in range(2)])
    for seeds in ([1, 2**63], [2**63, 2**64 + 5], np.array([1, 2**63 - 1], dtype=object)):
        out = distance_oracle(p, q, 0.0, segments=8, iterations=20, seed=seeds)
        for k in range(2):
            assert out[k] == distance_oracle(p[k], q[k], 0.0, segments=8, iterations=20,
                                             seed=int(seeds[k]))
    with pytest.raises(ParameterError, match="seed=1.5"):
        distance_oracle(p, q, 0.0, segments=8, iterations=20, seed=[1, 1.5])


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
    # no sample may stall and leave the stack, so position 1 stays sample 1
    monkeypatch.setattr(oracle, "STOP_TOL", 0.0)
    # 201 rejections in a row need a level budget above the default 125
    monkeypatch.setitem(suites.SUITES, "oracle", lambda seed, samples: suites.run_oracle(
        seed, samples, segments=8, iterations=300))
    assert main(["check", "oracle", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: at index 1: descent could not stay inside the positive cone"]


def test_sample_that_never_moves_is_named_at_the_default_budget():
    # a node off the cone: every step of sample 1 is a cone rejection,
    # and a level of the default budget (125) ends before rejection 201
    paths = mixed_batch()[[0, 3, 3]].copy()
    paths[1, 4] = np.diag([1.0, -1.0])
    with pytest.raises(OracleFailureError) as err:
        oracle._descend(paths, np.zeros(3), 125)
    assert err.value.index == 1
    with pytest.raises(OracleFailureError):
        reference_descend(paths[1], 0.0, 125)
    # the others alone descend without error
    oracle._descend(paths[[0, 2]], np.zeros(2), 125)


def test_sample_whose_last_rejection_raised_the_energy_does_not_fail(monkeypatch):
    # the first step leaves the cone and every later one raises the
    # energy: the path never moves, but its last rejection was no cone one
    in_cone, energy_and_grad = oracle._in_cone, oracle._energy_and_grad
    cone_calls, energy_calls = [], []

    def first_step_outside(nodes):
        cone_calls.append(1)
        return in_cone(nodes) & (len(cone_calls) > 1)

    def uphill_after_start(paths, alpha):
        energy_calls.append(1)
        energy, grad = energy_and_grad(paths, alpha)
        return energy + (len(energy_calls) > 1), grad
    monkeypatch.setattr(oracle, "_in_cone", first_step_outside)
    monkeypatch.setattr(oracle, "_energy_and_grad", uphill_after_start)
    paths = mixed_batch()[3:]
    out = oracle._descend(paths, np.array([1.0]), 125)
    assert np.array_equal(out, paths) and len(energy_calls) == 125


def test_check_oracle_names_a_sample_that_never_moves(monkeypatch, capsys):
    in_cone = oracle._in_cone

    def second_sample_never_inside(nodes):
        inside = in_cone(nodes)
        inside[1] = False
        return inside
    monkeypatch.setattr(oracle, "_in_cone", second_sample_never_inside)
    # no sample may stall and leave the stack, so position 1 stays sample 1
    monkeypatch.setattr(oracle, "STOP_TOL", 0.0)
    assert main(["check", "oracle", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: at index 1: descent could not stay inside the positive cone"]


def test_oracle_gap_over_seeds():
    reports = [suites.run_oracle(seed, 10) for seed in range(1, 31)]
    assert all(rep["passed"] for rep in reports)
    assert max(rep["max_rel_gap"] for rep in reports) <= 2e-4
    assert max(rep["max_below"] for rep in reports) <= 1e-6


# --- the kernel against the per-matrix inv route ------------------------------

def seeded_path(seed, r, log_cond, near_boundary=False, n_seg=16):
    """A perturbed straight path between two matrices with eigenvalues
    from 10**-log_cond to 1, in eigenbases 10**(-log_cond / 2) apart, so
    that the bases' condition numbers reach about 10**log_cond.  With
    ``near_boundary``, the middle node's smallest eigenvalue is set to
    1e-9 of its largest."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((2, r, r)) + 1j * rng.standard_normal((2, r, r))
    u = np.linalg.qr(gauss[0])[0]
    v = u @ np.linalg.qr(np.eye(r) + 10.0 ** (-log_cond / 2) * gauss[1])[0]
    w = 10.0 ** np.linspace(0.0, -log_cond, r)
    p = (u * w) @ u.conj().T
    q = (v * (w * np.exp(rng.uniform(-1.0, 1.0, r)))) @ v.conj().T
    path = oracle._initial_paths(p[None], q[None], n_seg)[0]
    noise = rng.standard_normal(path.shape) + 1j * rng.standard_normal(path.shape)
    noise = linalg.hermitian_part(noise[1:-1])
    lam = np.linalg.eigvalsh(path[1:-1])[:, :1, None]
    path[1:-1] += 0.1 * lam * noise / linalg._norm(noise)[:, None, None]
    if near_boundary:
        w, u = np.linalg.eigh(path[n_seg // 2])
        w[0] = 1e-9 * w[-1]
        path[n_seg // 2] = linalg.hermitian_part((u * w) @ u.conj().T)
    return path


@pytest.mark.parametrize("r", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("log_cond, near_boundary", [(0, False), (3, False), (6.5, False),
                                                     (1, True)])
def test_kernel_matches_inv_route(r, log_cond, near_boundary):
    eps = np.finfo(float).eps
    for seed in range(3):
        path = seeded_path(seed, r, log_cond, near_boundary)
        kappa = np.linalg.cond(_bases(path)[1]).max()
        h_sq = np.linalg.norm(path, 2, axis=(-2, -1)).max() ** 2
        if r > 1 and log_cond > 6:
            assert kappa >= 1e6
        for alpha in (0.0, 0.7, -0.5 / r):
            e_ref, g_ref = inv_energy_and_grad(path, alpha)
            x_ref = inv_metric_grad(path, g_ref, alpha)
            energy, grad = reference_energy_and_grad(path, alpha)
            length = discrete_length(path, alpha)
            # the metric gradient carries G's error through h G h - c h,
            # whose size these alphas keep below 2 max ||h||^2 ||G||
            gaps = (abs(energy - e_ref) / e_ref,
                    np.linalg.norm(grad[1:-1] - x_ref[1:-1])
                    / (h_sq * np.linalg.norm(g_ref)),
                    abs(length - inv_length(path, alpha)) / length)
            assert max(gaps) <= 10 * eps * kappa, (seed, alpha, gaps, kappa)
            assert not grad[[0, -1]].any()
            # the step keeps the path Hermitian, bit for bit
            assert np.array_equal(grad, np.swapaxes(grad, -1, -2).conj())


@pytest.mark.parametrize("r", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("log_cond", [0, 3, 6.5])
def test_metric_gradient_represents_the_euclidean_one(r, log_cond):
    # g_h(X, A) = Re tr(G A) for every Hermitian A at every interior node,
    # up to G's own error (eps * the bases' kappa) and the rounding of
    # h^-1 in g_h (eps * the nodes' kappa)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    for seed in range(3):
        path = seeded_path(seed, r, log_cond)
        h = path[1:-1]
        kappa = max(np.linalg.cond(_bases(path)[1]).max(), np.linalg.cond(h).max())
        if r > 1:
            assert kappa >= 0.5 * 10.0 ** log_cond
        for alpha in (0.0, 0.7, -0.5 / r):
            g = inv_energy_and_grad(path, alpha)[1][1:-1]
            x = reference_energy_and_grad(path, alpha)[1][1:-1]
            assert np.array_equal(x, np.swapaxes(x, -1, -2).conj())
            for _ in range(3):
                a = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
                a = linalg.hermitian_part(a)
                gap = inv_metric(h, x, a, alpha) - np.einsum("nij,nji->n", g, a).real
                bound = 10 * eps * kappa * np.linalg.norm(g) * np.linalg.norm(a, axis=(-2, -1))
                assert (np.abs(gap) <= bound).all(), (seed, alpha, gap / bound)


def test_descent_calls_no_eigensolver_and_no_closed_form(monkeypatch):
    paths = mixed_batch()          # the initial clamp may use eigh
    alphas = np.array([0.0, 1.0, -0.4, 1.0])

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached an eigensolver or a closed form")
    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(linalg, "_log", forbidden)
    monkeypatch.setattr(linalg, "_exp", forbidden)
    monkeypatch.setattr(fiber, "_distance", forbidden)
    out = oracle._descend(paths, alphas, 60)
    assert np.isfinite(discrete_length(out, alphas)).all()
