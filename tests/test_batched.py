"""A stack of points evaluates to exactly the stacked single-point results.

Every scenario field, conformal field and embedding is called once with a
(B, dim) stack and once per point; the arrays must be equal bit for bit, and
a stack with one bad point must raise what the call at that point raises.
"""

import numpy as np
import pytest

from traplab.conformal import (
    BumpProfile,
    bump_field,
    coordinate_scalar_field,
    product_field,
    quadratic_scalar_field,
    rescaled_metric_field,
    scaled_field,
)
from traplab.errors import ImmersionFailure, NotSpacelike, SingularMetric
from traplab.geometry import MetricJet2, Signature, christoffel, riemann
from traplab.scenarios import build_scenario
from traplab.submanifold import EmbeddingJet2, extrinsic_data

SCENARIOS = [
    ("minkowski", {}),
    ("minkowski_torus_quotient", {}),
    ("einstein_cylinder", {"n": 2}),
    ("einstein_cylinder", {"n": 3}),
    ("schwarzschild_slice_isotropic", {}),
    ("flrw_dust", {}),
]
IDS = [f"{name}{params.get('n', '')}" for name, params in SCENARIOS]


def _fields(sc):
    """(label, metric field, points) for the spacetime and the slice."""
    out = []
    if sc.metric is not None:
        points = list(sc.energy_points)
        points += [emb.chart(u) for emb in sc.embeddings.values() for u in emb.sample_set[:5]]
        out.append(("metric", sc.metric, np.array(points)))
    if sc.initial_data is not None and sc.slice_surfaces:
        points = [s.embedding.chart(u) for s in sc.slice_surfaces.values()
                  for u in s.embedding.sample_set[:7]]
        out.append(("h_field", sc.initial_data.h_field, np.array(points)))
    return out


def _embeddings(sc):
    """(embedding, metric field) for every spacetime and slice surface."""
    out = [(emb, sc.metric) for emb in sc.embeddings.values()]
    out += [(s.embedding, sc.initial_data.h_field) for s in sc.slice_surfaces.values()]
    return out


def _assert_stacked(batch, singles):
    assert np.array_equal(batch, np.stack(singles))


def _assert_jets(field, points):
    batch = field(points)
    singles = [field(p) for p in points]
    for attr in ("g", "dg", "ddg", "cond"):
        _assert_stacked(getattr(batch, attr), [getattr(m, attr) for m in singles])
    _assert_stacked(batch.inverse(), [m.inverse() for m in singles])
    _assert_stacked(christoffel(batch), [christoffel(m) for m in singles])
    r = riemann(batch)
    _assert_stacked(r.R, [riemann(m).R for m in singles])
    _assert_stacked(r.symmetry_residual, [riemann(m).symmetry_residual for m in singles])


@pytest.mark.parametrize("name,params", SCENARIOS, ids=IDS)
def test_metric_fields(name, params):
    sc = build_scenario(name, params)
    for _label, field, points in _fields(sc):
        _assert_jets(field, points)


@pytest.mark.parametrize("name,params", SCENARIOS, ids=IDS)
def test_extrinsic_data(name, params):
    sc = build_scenario(name, params)
    for emb, field in _embeddings(sc):
        samples = emb.sample_set
        batch = extrinsic_data(emb, field, samples)
        singles = [extrinsic_data(emb, field, u) for u in samples]
        for attr in ("induced", "induced_inv", "tangent", "II", "normal_projector"):
            _assert_stacked(getattr(batch, attr), [getattr(e, attr) for e in singles])
        _assert_stacked(batch.H.base, [e.H.base for e in singles])
        _assert_stacked(batch.H.components, [e.H.components for e in singles])
        _assert_stacked(batch.metric.g, [e.metric.g for e in singles])
        _assert_stacked(batch.H.aux_norm(), [e.H.aux_norm() for e in singles])
        for stacked_vectors, *vectors in zip(batch.normal_basis, *(e.normal_basis for e in singles)):
            _assert_stacked(stacked_vectors, vectors)
        for f in (emb.chart, emb.d_chart, emb.dd_chart, emb.outward):
            _assert_stacked(f(samples), [f(u) for u in samples])


def test_conformal_fields():
    sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 8})
    tau = coordinate_scalar_field(0, 4, scale=-1.0)
    profile = BumpProfile(0.2, 0.45, np.zeros(4), axes=(0, 1), periods=(None, 1.0))
    rng = np.random.default_rng(3)
    quadratic = quadratic_scalar_field(0.2, rng.normal(size=4), 0.1 * rng.normal(size=(4, 4)))
    # points inside, across and outside the bump band, and on the periodic wrap
    points = np.concatenate((
        rng.uniform(-0.6, 0.6, (40, 4)),
        [[0.0, 0.0, 0.3, 0.6], [0.3, 0.0, 0.1, 0.2], [0.0, 0.9, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]],
    ))
    for f in (tau, bump_field(profile), quadratic,
              scaled_field(product_field(bump_field(profile), tau), 1.0 / 3)):
        batch = f(points)
        singles = [f(p) for p in points]
        for attr in ("value", "grad", "hess"):
            _assert_stacked(getattr(batch, attr), [getattr(j, attr) for j in singles])
    f_field = scaled_field(product_field(bump_field(profile), tau), 0.5)
    for g_field in (rescaled_metric_field(sc.metric, f_field),
                    rescaled_metric_field(sc.metric, quadratic)):
        _assert_jets(g_field, points)
        emb = sc.embeddings["Sigma"]
        batch = extrinsic_data(emb, g_field, emb.sample_set)
        _assert_stacked(batch.H.components,
                        [extrinsic_data(emb, g_field, u).H.components for u in emb.sample_set])


# --- one bad point in a stack ------------------------------------------------

def _raises_like_the_point(call, stack, bad):
    """``call`` on the stack raises the exception class of ``call`` at the bad point."""
    with pytest.raises(Exception) as single:
        call(stack[bad])
    with pytest.raises(single.type):
        call(stack)
    for i, point in enumerate(stack):
        if i != bad:
            call(point)


def test_singular_point():
    g = np.tile(np.diag([-1.0, 1.0, 1.0, 1.0]), (3, 1, 1))
    g[1, 3, 3] = 1e-13

    def inverse(gs):
        return MetricJet2.constant(gs).inverse()

    _raises_like_the_point(inverse, g, 1)
    with pytest.raises(SingularMetric):
        christoffel(MetricJet2.constant(g))


def test_signature_point():
    g = np.tile(np.diag([-1.0, 1.0, 1.0]), (4, 1, 1))
    g[2, 0, 0] = 1.0
    _raises_like_the_point(MetricJet2.constant, g, 2)
    with pytest.raises(ValueError):
        MetricJet2.constant(g)
    h = np.tile(np.eye(3), (4, 1, 1))
    h[1, 0, 0] = -1.0
    _raises_like_the_point(lambda gs: MetricJet2.constant(gs, Signature.RIEMANNIAN), h, 1)


def _curve(chart, d_chart):
    """A curve in 4-d Minkowski space from vectorised chart maps of u[..., 0]."""
    return EmbeddingJet2(
        sigma_dim=1,
        ambient_dim=4,
        chart=lambda u: chart(np.asarray(u)[..., 0]),
        d_chart=lambda u: d_chart(np.asarray(u)[..., 0])[..., None],
        dd_chart=lambda u: np.zeros(np.shape(u)[:-1] + (4, 1, 1)),
        sample_set=np.array([[0.0], [0.25], [1.0]]),
    )


def test_not_spacelike_point():
    # tangent (2u, 1, 0, 0) turns timelike at u = 1
    emb = _curve(lambda u: np.stack([u * u, u, 0 * u, 0 * u], axis=-1),
                 lambda u: np.stack([2 * u, 1 + 0 * u, 0 * u, 0 * u], axis=-1))
    flat = build_scenario("minkowski").metric
    _raises_like_the_point(lambda u: extrinsic_data(emb, flat, u), emb.sample_set, 2)
    with pytest.raises(NotSpacelike):
        extrinsic_data(emb, flat, emb.sample_set)


def test_immersion_failure_point():
    # tangent (0, 3u^2, 0, 0) vanishes at u = 0
    emb = _curve(lambda u: np.stack([0 * u, u**3, 0 * u, 0 * u], axis=-1),
                 lambda u: np.stack([0 * u, 3 * u**2, 0 * u, 0 * u], axis=-1))
    flat = build_scenario("minkowski").metric
    _raises_like_the_point(lambda u: extrinsic_data(emb, flat, u), emb.sample_set, 0)
    with pytest.raises(ImmersionFailure):
        extrinsic_data(emb, flat, emb.sample_set)
