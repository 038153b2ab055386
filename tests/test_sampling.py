"""Stacked random draws against the per-draw formulas they replace.

``random_hermitians`` and ``random_gauge`` draw one matrix after another
and normalise the stack afterwards.  The functions ``reference_*`` draw
and normalise one matrix at a time; the stream and every bit of the
result must match them.
"""

import numpy as np
import pytest

from hermgeo import fiber, linalg, sampling
from hermgeo.sections import QuadratureMesh


def reference_hermitian(rng, r, scale=1.0):
    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    a = linalg.hermitian_part(a)
    norm = np.linalg.norm(a)
    if norm == 0:
        return a
    return a * (scale * rng.uniform(0.2, 1.0) / norm * np.sqrt(r))


def reference_gauge(rng, r, n):
    vals = []
    for _ in range(n):
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        vals.append(np.eye(r) + 0.5 * g / max(np.linalg.norm(g), 1e-12))
    return np.stack(vals)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_norm_sums_as_numpy_norm(r):
    a = sampling.make_rng(r).standard_normal((50, r, r, 2)) @ [1.0, 1j]
    assert np.array_equal(linalg._norm(a), [np.linalg.norm(x) for x in a])


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_random_hermitians_match_per_draw_reference(r):
    scales = np.linspace(0.3, 3.0, 7)
    rng, ref = sampling.make_rng(100 + r), sampling.make_rng(100 + r)
    assert np.array_equal(sampling.random_hermitians(rng, r, 7, 1.5),
                          [reference_hermitian(ref, r, 1.5) for _ in range(7)])
    assert np.array_equal(sampling.random_hermitians(rng, r, 7, scales),
                          [reference_hermitian(ref, r, s) for s in scales])
    assert np.array_equal(sampling.random_hermitian(rng, r, 0.7),
                          reference_hermitian(ref, r, 0.7))
    # both streams are at the same place
    assert rng.uniform() == ref.uniform()


class StubGenerator:
    """Hands out the given normal matrices and uniforms, counting calls."""

    def __init__(self, normals, uniforms):
        self.normals, self.uniforms = list(normals), list(uniforms)
        self.calls = []

    def standard_normal(self, shape):
        self.calls.append("normal")
        return np.asarray(self.normals.pop(0), dtype=float).reshape(shape)

    def uniform(self, low, high):
        self.calls.append("uniform")
        return self.uniforms.pop(0)


def test_zero_hermitian_part_stays_zero_and_skips_its_uniform():
    draws = [
        ([[1.0, 2.0], [3.0, 4.0]], [[0.5, 0.0], [1.0, -2.0]]),
        # real part antisymmetric, imaginary part symmetric: zero part
        ([[0.0, 1.0], [-1.0, 0.0]], [[1.0, 2.0], [2.0, 3.0]]),
        # a zero (0, 0) entry with a nonzero part still draws its factor
        ([[0.0, 1.0], [2.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]),
        # a part so small its norm underflows to 0 is kept unscaled
        ([[1e-170, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
    ]
    normals = [m for pair in draws for m in pair]
    stub = StubGenerator(normals, [0.25, 0.75, 0.5])
    ref = StubGenerator(normals, [0.25, 0.75, 0.5])
    out = sampling.random_hermitians(stub, 2, 4, 2.0)
    expected = [reference_hermitian(ref, 2, 2.0) for _ in range(4)]
    assert stub.calls == ref.calls == ["normal", "normal", "uniform",
                                       "normal", "normal",
                                       "normal", "normal", "uniform",
                                       "normal", "normal"]
    assert np.array_equal(out, expected)
    assert not out[1].any()
    assert out[3][0, 0] == 1e-170
    assert stub.uniforms == [0.5]


@pytest.mark.parametrize("alpha", [None, 0.0, 0.4])
@pytest.mark.parametrize("r", [1, 3])
def test_mesh_fields_follow_the_random_mesh_stream(r, alpha):
    rng, ref = sampling.make_rng(50 + r), sampling.make_rng(50 + r)
    weights, alphas = sampling._mesh_fields(rng, r, 6, alpha)
    mesh = sampling.random_mesh(ref, r, 6, alpha)
    assert weights.tolist() == mesh.weights.tolist()
    assert alphas.tolist() == mesh.alphas.tolist()
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_random_gauge_matches_per_point_reference(r):
    mesh = QuadratureMesh(rank=r, ids=np.arange(6), weights=np.ones(6),
                          alphas=np.zeros(6))
    rng, ref = sampling.make_rng(7 * r), sampling.make_rng(7 * r)
    assert np.array_equal(sampling.random_gauge(rng, mesh).values,
                          reference_gauge(ref, r, 6))
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("r", [2, 3])
def test_random_orthonormal_pair_matches_two_draws(r):
    h = np.diag(np.arange(1.0, r + 1.0)) + 0j
    rng, ref = sampling.make_rng(30 + r), sampling.make_rng(30 + r)
    pair = sampling.random_orthonormal_pair(rng, h, 0.3)
    expected = fiber._gram_schmidt_pair(h, reference_hermitian(ref, r),
                                        reference_hermitian(ref, r), 0.3)
    assert all(np.array_equal(a, b) for a, b in zip(pair, expected))
    assert rng.uniform() == ref.uniform()
