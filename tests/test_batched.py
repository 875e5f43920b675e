"""A stack of points evaluates to exactly the stacked single-point results.

Every scenario field, conformal field and embedding is called once with a
(B, dim) stack and once per point; the arrays must be equal bit for bit, and
a stack with one bad point must raise what the call at that point raises.
The same holds for the initial-data expansions and the trapping
classification, which evaluate whole sample sets, for the frames, causal
signs, tidal operators and curvature forms of a stack of cone directions, for
the cone directions and tidal operators of a stack of energy points, for
conformal fields and formulas with one coefficient set per point, for the
expansions of a stack of displacements, for ``riemann`` of a group of
random jets, and for the deformation cases of several resolutions built from
one geometry pass over their distinct nodes.
"""

import dataclasses
import math

import numpy as np
import pytest

from traplab.conformal import (
    BumpProfile,
    conformal_H_normsq,
    conformal_mean_curvature,
    bump_field,
    coordinate_scalar_field,
    product_field,
    quadratic_scalar_field,
    rescaled_metric_field,
    scaled_field,
    trapping_perturbation,
)
from traplab.energy import sample_cone, tidal_operator
from traplab.errors import (
    CollinearPair,
    ImmersionFailure,
    NonTimelikeOrientation,
    NotSpacelike,
    NotUnitNormal,
    SingularMetric,
    ZeroVector,
)
from traplab.geometry import (
    MetricJet2,
    Signature,
    TangentVector,
    christoffel,
    lorentz_frame,
    riem_quadform,
    riemann,
)
from traplab.initial_data import initial_data_expansions
from traplab.scenarios import build_scenario
from traplab.stability import (
    _nodal_curve_embedding,
    circle_grid,
    equator_deformation_case,
    equator_deformation_cases,
    flat_torus_degenerate_case,
)
from traplab.submanifold import (
    CLASSIFY_TOL,
    EmbeddingJet2,
    TrappingLabel,
    _trapping_bands,
    _trapping_label,
    extrinsic_data,
    null_frame,
    trapping_classify,
)

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
        points += [emb.jet(u)[0] for emb in sc.embeddings.values() for u in emb.sample_set[:5]]
        out.append(("metric", sc.metric, np.array(points)))
    if sc.initial_data is not None and sc.slice_surfaces:
        points = [s.embedding.jet(u)[0] for s in sc.slice_surfaces.values()
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
        for i, array in enumerate(emb.jet(samples)):
            _assert_stacked(array, [emb.jet(u)[i] for u in samples])
        _assert_stacked(emb.outward(samples), [emb.outward(u) for u in samples])


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
    with pytest.raises(SingularMetric):
        MetricJet2.constant(g)
    h = np.tile(np.eye(3), (4, 1, 1))
    h[1, 0, 0] = -1.0
    _raises_like_the_point(lambda gs: MetricJet2.constant(gs, Signature.RIEMANNIAN), h, 1)


def _curve(chart, d_chart):
    """A curve in 4-d Minkowski space from vectorised chart maps of u[..., 0]."""
    def jet(u):
        s = np.asarray(u)[..., 0]
        return chart(s), d_chart(s)[..., None], np.zeros(np.shape(u)[:-1] + (4, 1, 1))

    return EmbeddingJet2(
        sigma_dim=1, ambient_dim=4, jet=jet, sample_set=np.array([[0.0], [0.25], [1.0]])
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


def test_unit_normal_point():
    sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4})
    surf = sc.slice_surfaces["Sigma"]
    samples = surf.embedding.sample_set
    e = np.eye(3)

    def nu_bad_at(bad, wrong):
        def nu(u):
            at_bad = np.all(np.asarray(u) == samples[bad], axis=-1)[..., None]
            return np.where(at_bad, wrong, e[0])
        return nu

    # not h-unit at sample 5; unit but tangent to the surface at sample 9
    for bad, wrong in ((5, 2.0 * e[0]), (9, (e[0] + e[1]) / math.sqrt(2.0))):
        nu = nu_bad_at(bad, wrong)
        _raises_like_the_point(
            lambda u: initial_data_expansions(sc.initial_data, surf.embedding, nu, u), samples, bad
        )
        with pytest.raises(NotUnitNormal):
            initial_data_expansions(sc.initial_data, surf.embedding, nu, samples)


def test_non_timelike_orientation_point():
    sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4})
    emb = sc.embeddings["Sigma"]
    bad = 6
    bad_point = emb.jet(emb.sample_set[bad])[0]

    def x_field(p):
        # the outward direction e1 instead of e0 at one sample
        p = np.asarray(p, dtype=float)
        at_bad = np.all(p == bad_point, axis=-1)[..., None]
        return TangentVector(p, np.where(at_bad, np.eye(4)[1], np.eye(4)[0]))

    def frame(u):
        data = extrinsic_data(emb, sc.metric, u)
        return null_frame(emb, data, x_field(data.H.base), u)

    _raises_like_the_point(frame, emb.sample_set, bad)
    with pytest.raises(NonTimelikeOrientation):
        trapping_classify(emb, sc.metric, x_field)


# --- whole sample sets against per-sample calls ------------------------------

def _slice_surfaces():
    out = []
    for (name, params), label in zip(SCENARIOS, IDS):
        sc = build_scenario(name, params)
        out += [(f"{label}-{key}", sc.initial_data, surf.embedding, surf.nu)
                for key, surf in sc.slice_surfaces.items()]
    # a displaced equator with a non-constant profile, as the deformation check builds it
    grid = circle_grid(32)
    s = grid.nodes[:, 0]
    emb, nu = _nodal_curve_embedding(grid, 0.5 * math.pi + 0.05 * (1.0 + 0.3 * np.cos(s)))
    out.append(("displaced-equator", build_scenario("einstein_cylinder", {"n": 2}).initial_data,
                emb, nu))
    return out


SLICE_SURFACES = _slice_surfaces()


@pytest.mark.parametrize("label,data,emb,nu", SLICE_SURFACES, ids=[s[0] for s in SLICE_SURFACES])
def test_initial_data_expansions(label, data, emb, nu):
    samples = emb.sample_set
    plus, minus = initial_data_expansions(data, emb, nu, samples)
    singles = [initial_data_expansions(data, emb, nu, u) for u in samples]
    _assert_stacked(plus, [tp for tp, _ in singles])
    _assert_stacked(minus, [tm for _, tm in singles])


def _classify_surfaces():
    torus = build_scenario("minkowski_torus_quotient", {})
    mink = build_scenario("minkowski", {})
    cyl = build_scenario("einstein_cylinder", {"n": 2})
    sigma = torus.embeddings["Sigma"]
    tau = coordinate_scalar_field(0, 4, scale=-1.0)
    profile = BumpProfile(0.2, 0.45, np.zeros(4), axes=(0, 1), periods=(None, 1.0))
    perturbed = trapping_perturbation(torus.metric, sigma, torus.time_orientation, tau, profile, 1)
    return [
        ("torus-Sigma", sigma, torus.metric, torus.time_orientation),
        ("minkowski-sphere", mink.embeddings["sphere"], mink.metric, mink.time_orientation),
        ("cylinder-equator", cyl.embeddings["equator"], cyl.metric, cyl.time_orientation),
        ("perturbed-torus", sigma, perturbed.metric_field, torus.time_orientation),
    ]


CLASSIFY_SURFACES = _classify_surfaces()


@pytest.mark.parametrize("label,emb,m_field,x_field", CLASSIFY_SURFACES,
                         ids=[s[0] for s in CLASSIFY_SURFACES])
def test_trapping_classify_records(label, emb, m_field, x_field):
    out = trapping_classify(emb, m_field, x_field)
    assert len(out.per_point) == len(emb.sample_set)
    for rec, u in zip(out.per_point, emb.sample_set):
        data = extrinsic_data(emb, m_field, u)
        m, h = data.metric, data.H.components
        assert np.array_equal(rec.u, u)
        assert rec.g_H_H == m.inner(h, h)
        assert rec.g_H_X == m.inner(h, x_field(data.H.base).components)
        assert rec.H_aux == data.H.aux_norm()
        frame, oriented = null_frame(emb, data, x_field(data.H.base), u)
        assert oriented and rec.theta_plus == -m.inner(h, frame.l_plus.components)


def test_degenerate_outward_samples():
    sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4})
    emb = sc.embeddings["Sigma"]
    bad = [0, 7, 13]
    at_bad = [i in bad for i in range(len(emb.sample_set))]

    def outward(u):
        # e2 is tangent to Sigma, so its normal projection vanishes
        u = np.asarray(u, dtype=float)
        hit = (u[..., None, :] == emb.sample_set[bad]).all(axis=-1).any(axis=-1)
        return np.where(hit[..., None], np.eye(4)[2], np.eye(4)[1])

    odd = dataclasses.replace(emb, outward=outward)
    out = trapping_classify(odd, sc.metric, sc.time_orientation)
    assert [r.theta_plus is None for r in out.per_point] == at_bad

    def oriented(u):
        data = extrinsic_data(odd, sc.metric, u)
        return null_frame(odd, data, sc.time_orientation(data.H.base), u)[1]

    assert [not oriented(u) for u in emb.sample_set] == at_bad
    assert (~oriented(emb.sample_set)).tolist() == at_bad


# --- cone directions at one point against per-direction calls -----------------

def _cones():
    """(label, jet, cone sample, orientation) at two energy points of every
    scenario, in 2-d Minkowski space and at a random polynomial jet."""
    from _oracles import random_polynomial_metric_jet

    out = []
    cases = [(build_scenario(name, params), label) for (name, params), label in zip(SCENARIOS, IDS)]
    cases.append((build_scenario("minkowski", {"dim": 2}), "minkowski2"))
    for sc, label in cases:
        for k, p in enumerate(sc.energy_points[:2]):
            m, x = sc.metric(p), sc.time_orientation(p)
            out.append((f"{label}-{k}", m, sample_cone(m, p, x, count=24, seed=k), x))
    jet = random_polynomial_metric_jet(np.random.default_rng(3), 4)
    x = TangentVector(np.zeros(4), np.array([1.0, 0.05, -0.1, 0.02]))
    out.append(("polynomial", jet, sample_cone(jet, np.zeros(4), x, count=24, seed=3), x))
    return out


CONES = _cones()


def _single(cone, i):
    return TangentVector(cone.base[i], cone.components[i])


def _assert_tidal_stacks(stacked, singles):
    # every form A_v equals its single-vector call's; each kind's mask puts
    # every v where its single call puts it, and the kind's stack holds those
    # calls' one matrix each, bitwise and in order
    forms, kinds = stacked
    _assert_stacked(forms.reshape((-1,) + forms.shape[-2:]), [a for a, _ in singles])
    for _, ((t, _), (n, _)) in singles:
        assert t.shape == n.shape == () and t != n
    for kind, (mask, mats) in enumerate(kinds):
        placed = [single_kinds[kind] for _, single_kinds in singles]
        assert mask.reshape(-1).tolist() == [bool(one_mask) for one_mask, _ in placed]
        assert [len(one) for _, one in placed] == [int(one_mask) for one_mask, _ in placed]
        expected = [one[0] for one_mask, one in placed if one_mask]
        assert len(mats) == len(expected)
        for mat, one in zip(mats, expected):
            assert mat.shape == one.shape and np.array_equal(mat, one)


@pytest.mark.parametrize("label,m,cone,x", CONES, ids=[c[0] for c in CONES])
def test_cone_stack(label, m, cone, x):
    r = riemann(m)
    count = len(cone.components)
    # each direction's causal type and time direction: the signs of g(v, v) and g(v, X)
    v, xc = cone.components, x.components
    _assert_stacked(np.sign([m.inner(v, v), m.inner(v, xc)]).T,
                    [np.sign([m.inner(u, u), m.inner(u, xc)]) for u in v])
    _assert_tidal_stacks(tidal_operator(m, r, cone),
                         [tidal_operator(m, r, _single(cone, i)) for i in range(count)])
    q = m.inner(cone.components, cone.components)
    timelike = TangentVector(cone.base[q < -1e-9], cone.components[q < -1e-9])
    _assert_stacked(lorentz_frame(m, timelike),
                    [lorentz_frame(m, _single(timelike, i)) for i in range(len(timelike.base))])
    w = TangentVector(cone.base, np.random.default_rng(7).normal(size=cone.components.shape))
    _assert_stacked(riem_quadform(r, m, w, cone),
                    [riem_quadform(r, m, _single(w, i), _single(cone, i)) for i in range(count)])


@pytest.mark.parametrize("name,params", SCENARIOS, ids=IDS)
def test_cone_over_energy_points(name, params):
    # the (P, count) cone and tidal stacks over a scenario's energy points
    # against one sample_cone call per point and one tidal_operator call per
    # direction, with the jet and curvature of its point
    sc = build_scenario(name, params)
    p = np.array(sc.energy_points)[:, None]
    m = sc.metric(p)
    cone = sample_cone(m, p, sc.time_orientation(p), count=24, seed=5)
    stacked = tidal_operator(m, riemann(m), cone)
    singles, expected = [], []
    for q in sc.energy_points:
        mq = sc.metric(q)
        singles.append(sample_cone(mq, q, sc.time_orientation(q), count=24, seed=5))
        expected += [tidal_operator(mq, riemann(mq), _single(singles[-1], i)) for i in range(24)]
    _assert_stacked(cone.components, [c.components for c in singles])
    _assert_stacked(cone.base, [c.base for c in singles])
    _assert_tidal_stacks(stacked, expected)


def test_take_selects_points():
    sc = build_scenario("schwarzschild_slice_isotropic", {})
    points = np.array(sc.energy_points)
    index = [2, 0, 2]
    taken, direct = sc.metric(points[:, None]).take(index), sc.metric(points[index])
    for attr in ("g", "dg", "ddg", "cond"):
        assert np.array_equal(getattr(taken, attr), getattr(direct, attr))
    assert np.array_equal(taken.inverse(), direct.inverse())


def test_bad_direction_in_cone_stack():
    m = build_scenario("einstein_cylinder", {"n": 3}).metric(np.array([0.0, 1.1, 0.4, 0.3]))
    r = riemann(m)
    at = np.zeros((4, 4))
    e = np.eye(4)
    causal = np.array([e[0], e[0] + e[1], 2.0 * e[0] - e[2], e[0] - e[3]])

    def quadform(stack):
        base = np.zeros(stack.shape[:-2] + (4,))
        return riem_quadform(r, m, TangentVector(base, stack[..., 0, :]),
                             TangentVector(base, stack[..., 1, :]))

    collinear = np.stack([causal[[1, 2, 3, 0]], causal], axis=-2)
    collinear[2, 0] = 3.0 * causal[2]
    _raises_like_the_point(quadform, collinear, 2)
    with pytest.raises(CollinearPair):
        quadform(collinear)
    zero = np.stack([causal[[1, 2, 3, 0]], causal], axis=-2)
    zero[1, 0] = 0.0
    _raises_like_the_point(quadform, zero, 1)

    def tidal(stack):
        return tidal_operator(m, r, TangentVector(np.zeros_like(stack), stack))

    spacelike = causal.copy()
    spacelike[3] = e[3]
    _raises_like_the_point(tidal, spacelike, 3)
    with pytest.raises(ZeroVector):
        tidal(spacelike)

    def frame(stack):
        return lorentz_frame(m, TangentVector(np.zeros_like(stack), stack))

    seeds = np.array([e[0], 2.0 * e[0] + 0.1 * e[1], e[0] - 0.2 * e[3]])
    seeds[1] = e[1]
    _raises_like_the_point(frame, seeds, 1)
    with pytest.raises(NonTimelikeOrientation):
        frame(seeds)


# --- per-point coefficients, displacement stacks and jet groups -----------------

def _coefficient_stacks(rng, count, dim):
    return rng.normal(size=count), rng.normal(size=(count, dim)), rng.normal(size=(count, dim, dim))


def test_quadratic_field_coefficient_stacks():
    rng = np.random.default_rng(7)
    c0, b, c = _coefficient_stacks(rng, 12, 4)
    points = rng.normal(size=(12, 4))
    batch = quadratic_scalar_field(c0, b, c)(points)
    singles = [quadratic_scalar_field(c0[i], b[i], c[i])(p) for i, p in enumerate(points)]
    for attr in ("value", "grad", "hess"):
        _assert_stacked(getattr(batch, attr), [getattr(j, attr) for j in singles])


@pytest.mark.parametrize("name,params,surface", [
    ("minkowski", {}, "sphere"),
    ("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4}, "Sigma"),
    ("einstein_cylinder", {"n": 2}, "equator"),
])
def test_conformal_formulas_on_stacks(name, params, surface):
    # the dual-path suite's formulas, one coefficient set per sample
    sc = build_scenario(name, params)
    emb = sc.embeddings[surface]
    samples = emb.sample_set
    c0, b, c = _coefficient_stacks(np.random.default_rng(11), len(samples), emb.ambient_dim)

    def formulas(data, f_field):
        args = (data.H, f_field(data.H.base), emb.sigma_dim, data.metric, data.normal_projector)
        return conformal_mean_curvature(*args).components, conformal_H_normsq(*args)

    h, sq = formulas(extrinsic_data(emb, sc.metric, samples), quadratic_scalar_field(c0, b, c))
    singles = [formulas(extrinsic_data(emb, sc.metric, u), quadratic_scalar_field(c0[i], b[i], c[i]))
               for i, u in enumerate(samples)]
    _assert_stacked(h, [hi for hi, _ in singles])
    _assert_stacked(sq, [sqi for _, sqi in singles])


def test_theta_of_displacement_stack():
    case = equator_deformation_case(32, q_offset=2.0)
    s = case.grid.nodes[:, 0]
    phi = 1.0 + 0.3 * np.cos(s)
    ts = [1e-4, -1e-4, -0.05]
    _assert_stacked(case.theta_of(np.array(ts), phi), [case.theta_of(t, phi) for t in ts])
    flat = flat_torus_degenerate_case(32)
    _assert_stacked(flat.theta_of(np.array(ts), phi), [flat.theta_of(t, phi) for t in ts])


@pytest.mark.parametrize("resolutions", [(32, 64, 128), (8, 15, 30), (513, 1026, 2053)])
def test_deformation_cases_from_one_geometry_pass(resolutions):
    # nested and non-nested node sets: each case is bitwise its own build's
    for case, r in zip(equator_deformation_cases(resolutions), resolutions):
        alone = equator_deformation_case(r)
        for attr in ("nodes", "metric_diag", "weights"):
            assert np.array_equal(getattr(case.grid, attr), getattr(alone.grid, attr))
        for attr in ("Q", "X", "divX", "normX_sq"):
            assert np.array_equal(getattr(case.coefficients, attr), getattr(alone.coefficients, attr))
        phi = 1.0 + 0.3 * np.cos(case.grid.nodes[:, 0])
        ts = np.array([1e-4, -1e-4, -0.05])
        assert np.array_equal(case.theta_of(ts, phi), alone.theta_of(ts, phi))


def test_shifted_case_is_the_offset_case():
    # the offset enters the potential and theta_of where equator_deformation_case adds it
    base, offset = equator_deformation_cases([64])[0].shifted(2.0), equator_deformation_case(64, 2.0)
    assert offset.coefficients.Q.tobytes() == base.coefficients.Q.tobytes()
    phi = 1.0 + 0.3 * np.cos(base.grid.nodes[:, 0])
    ts = np.array([1e-4, -1e-4, -0.05])
    shifted = base.theta_of(ts, phi)
    assert shifted.tobytes() == offset.theta_of(ts, phi).tobytes()
    for t, row in zip(ts, shifted):
        assert row.tobytes() == offset.theta_of(t, phi).tobytes()


def test_grouped_riemann_residuals():
    # the curvature-axioms suite's groups: one jet stack per (dim, signature)
    from traplab.verify import _random_jet_arrays

    rng = np.random.default_rng(5)
    for dim in (2, 3, 4):
        for sig in Signature:
            jets = [_random_jet_arrays(rng, dim, sig) for _ in range(9)]
            batch = riemann(MetricJet2(dim, *map(np.array, zip(*jets)), sig))
            singles = [riemann(MetricJet2(dim, *jet, sig)) for jet in jets]
            _assert_stacked(batch.R, [r.R for r in singles])
            _assert_stacked(batch.symmetry_residual, [r.symmetry_residual for r in singles])


@pytest.mark.parametrize("hh, hx, strict", [
    (-CLASSIFY_TOL, 1.0, False),
    (-1.0, CLASSIFY_TOL, False),
    (np.nextafter(-CLASSIFY_TOL, -1.0), np.nextafter(CLASSIFY_TOL, 1.0), True),
])
def test_strictly_trapped_band_edge(hh, hx, strict):
    # a value on the band edge is not strict, as in the per-sample rule
    hh, hx, aux = np.array([-1.0, hh, -1.0]), np.array([1.0, hx, 1.0]), np.ones(3)
    tol = CLASSIFY_TOL
    assert all(a < -tol and b > tol for a, b in zip(hh, hx)) is strict
    assert bool(np.all(_trapping_bands(hh, hx, aux)[0])) is strict
    assert (_trapping_label(hh, hx, aux, lambda: None) is TrappingLabel.TRAPPED) is strict
