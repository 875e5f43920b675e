import dataclasses

import numpy as np
import pytest

from traplab.energy import (
    Condition,
    Verdict,
    condition_suite,
    inclusion_chain_holds,
    sample_cone,
    tidal_operator,
    tidal_psd,
)
from traplab.errors import NonTimelikeOrientation, ZeroVector
from traplab.geometry import (
    CausalClass,
    MetricJet2,
    TangentVector,
    causal_classify,
    ricci_from_riemann,
    riemann,
)
from traplab.scenarios import build_scenario, scenario_names

from _oracles import reference_condition_suite, reference_tidal_basis

MINK = build_scenario("minkowski", {})
TORUS = build_scenario("minkowski_torus_quotient", {"m": 3})
CYL = build_scenario("einstein_cylinder", {"n": 2})
FLRW = build_scenario("flrw_dust", {})
SCHW = build_scenario("schwarzschild_slice_isotropic", {})


def _with_points(sc, points):
    # the scenario with its energy points replaced
    return dataclasses.replace(sc, energy_points=list(points))


def _vectors(cone):
    # the directions of a cone sample, one TangentVector each
    return [TangentVector(p, v) for p, v in zip(cone.base, cone.components)]


class TestSampleCone:
    def test_count_and_null_content(self):
        m = MetricJet2.flat(4)
        x = TangentVector(np.zeros(4), np.eye(4)[0])
        cone = sample_cone(m, np.zeros(4), x, count=8, seed=0)
        assert cone.components.shape == (8, 4)
        nulls = sum(
            1 for v in _vectors(cone) if abs(m.inner(v.components, v.components)) < 1e-12
        )
        assert nulls >= 2

    def test_determinism(self):
        m = MetricJet2.flat(4)
        x = TangentVector(np.zeros(4), np.eye(4)[0])
        a = sample_cone(m, np.zeros(4), x, count=16, seed=3)
        b = sample_cone(m, np.zeros(4), x, count=16, seed=3)
        for va, vb in zip(_vectors(a), _vectors(b)):
            assert np.array_equal(va.components, vb.components)

    def test_all_causal_and_unit_aux(self):
        m = CYL.metric(np.array([0.0, 1.2, 0.4]))
        p = np.array([0.0, 1.2, 0.4])
        x = CYL.time_orientation(p)
        cone = sample_cone(m, p, x, count=32, seed=5)
        for v in _vectors(cone):
            assert m.inner(v.components, v.components) <= 1e-10
            assert v.aux_norm() == pytest.approx(1.0, rel=1e-12)
            assert causal_classify(m, v, x) in (
                CausalClass.TIMELIKE_FUTURE,
                CausalClass.TIMELIKE_PAST,
                CausalClass.NULL_FUTURE,
                CausalClass.NULL_PAST,
            )

    def test_rejects_spacelike_orientation(self):
        m = MetricJet2.flat(4)
        with pytest.raises(NonTimelikeOrientation):
            sample_cone(m, np.zeros(4), TangentVector(np.zeros(4), np.eye(4)[1]), 8, 0)


class TestRicciCondition:
    def test_flat_quotient(self):
        weak = condition_suite(
            TORUS.metric, TORUS.energy_points, TORUS.time_orientation, seed=1
        )[Condition.RICCI_WEAK]
        strict = condition_suite(
            TORUS.metric, TORUS.energy_points, TORUS.time_orientation, seed=1
        )[Condition.RICCI_STRICT]
        assert weak.verdict is Verdict.SATISFIED_ON_SAMPLES
        assert weak.min_value == 0.0
        assert strict.verdict is Verdict.VIOLATED
        assert strict.witness is not None and strict.witness.value == 0.0

    def test_einstein_cylinder(self):
        weak = condition_suite(
            CYL.metric, CYL.energy_points, CYL.time_orientation, seed=1
        )[Condition.RICCI_WEAK]
        strict = condition_suite(
            CYL.metric, CYL.energy_points, CYL.time_orientation, seed=1
        )[Condition.RICCI_STRICT]
        assert weak.satisfied
        assert not strict.satisfied
        # pure time direction annihilates the product Ricci form
        assert abs(strict.witness.value) < 1e-9

    def test_positive_ricci_scenario(self):
        strict = condition_suite(
            FLRW.metric, FLRW.energy_points, FLRW.time_orientation, seed=1
        )[Condition.RICCI_STRICT]
        assert strict.satisfied
        assert strict.min_value > 0.1


class TestRiemCondition:
    def test_flat(self):
        weak = condition_suite(
            TORUS.metric, TORUS.energy_points, TORUS.time_orientation, seed=2
        )[Condition.PLANE_WEAK]
        strict = condition_suite(
            TORUS.metric, TORUS.energy_points, TORUS.time_orientation, seed=2
        )[Condition.PLANE_STRICT]
        assert weak.satisfied
        assert not strict.satisfied
        assert strict.witness.value == 0.0

    def test_cylinder(self):
        weak = condition_suite(
            CYL.metric, CYL.energy_points, CYL.time_orientation, seed=2
        )[Condition.PLANE_WEAK]
        assert weak.satisfied

    def test_perturbed_flat_violates_weak_form(self):
        # rescaled flat metric with the timelike-direction profile: the
        # curvature form turns negative at the origin
        from traplab.conformal import CurvatureCase, curvature_perturbation

        value = curvature_perturbation(CurvatureCase.TIMELIKE_V, 2)
        assert value == pytest.approx(-np.exp(1.0) / 2.0, rel=1e-9)


def _tidal(m, r, v):
    """The tidal matrix of one v, from the stack of its kind."""
    _, ((timelike, t_mats), (null, n_mats)) = tidal_operator(m, r, v)
    assert timelike.shape == null.shape == () and timelike != null
    mats = t_mats if timelike else n_mats
    assert len(mats) == 1 and len(t_mats if null else n_mats) == 0
    return mats[0]


class TestTidalOperator:
    def test_flat_zero(self):
        m = MetricJet2.flat(4)
        r = riemann(m)
        for comps in ([1.0, 0, 0, 0], [1.0, 1.0, 0, 0]):
            mat = _tidal(m, r, TangentVector(np.zeros(4), np.array(comps)))
            assert np.abs(mat).max() == 0.0
            assert tidal_psd(mat)

    def test_dimensions(self):
        m = MetricJet2.flat(4)
        r = riemann(m)
        v = TangentVector(np.zeros((2, 4)), np.array([[1.0, 0, 0, 0], [1.0, 1, 0, 0]]))
        forms, ((timelike, t_mats), (null, n_mats)) = tidal_operator(m, r, v)
        assert forms.shape == (2, 4, 4)
        assert timelike.tolist() == [True, False] and null.tolist() == [False, True]
        assert t_mats.shape == (1, 3, 3) and n_mats.shape == (1, 2, 2)

    def test_cylinder_time_direction(self):
        p = np.array([0.0, 1.0, 0.7])
        m = CYL.metric(p)
        r = riemann(m)
        mat = _tidal(m, r, TangentVector(p, np.array([1.0, 0, 0])))
        assert np.abs(mat).max() < 1e-12

    def test_cylinder_null_trace_nonnegative(self):
        p = np.array([0.0, 1.1, 0.4])
        m = CYL.metric(p)
        r = riemann(m)
        v = np.array([1.0, 1.0, 0.0])  # dt + unit theta direction
        mat = _tidal(m, r, TangentVector(p, v))
        ric = ricci_from_riemann(r, m)
        # screen trace of the tidal operator equals the Ricci form on v
        assert np.trace(mat) == pytest.approx(float(v @ ric @ v), abs=1e-10)
        assert np.trace(mat) >= 0.0

    def test_empty_screen_is_psd(self):
        # a null v in dimension 2 has no screen space: the operator is 0x0,
        # and positive semidefinite vacuously
        m = MetricJet2.flat(2)
        mat = _tidal(m, riemann(m), TangentVector(np.zeros(2), np.array([1.0, 1.0])))
        assert mat.shape == (0, 0)
        assert tidal_psd(mat)

    def test_rejects_spacelike(self):
        m = MetricJet2.flat(4)
        r = riemann(m)
        with pytest.raises(ZeroVector):
            _tidal(m, r, TangentVector(np.zeros(4), np.eye(4)[1]))

    def test_symmetric_in_induced_inner_product(self, rng):
        from traplab.verify import random_polynomial_metric_jet

        for _ in range(10):
            jet = random_polynomial_metric_jet(rng, 4)
            r = riemann(jet)
            x = TangentVector(np.zeros(4), np.array([1.0, 0.05, -0.1, 0.02]))
            mat = _tidal(jet, r, x)
            assert np.abs(mat - mat.T).max() < 1e-9

    @pytest.mark.parametrize("name", scenario_names())
    def test_contractions_match_five_operand_einsum(self, name):
        # the forms A_v of tidal_operator against the five-operand einsum
        # R(w, v, v, u), for the plane values and every tidal matrix entry over
        # the scenario's energy points; v and w are unit vectors, and each tidal
        # entry is compared in units of its two basis norms (the frame legs of a
        # boosted v reach cosh 4 = 27)
        sc = build_scenario(name, {})
        p = np.array(sc.energy_points)[:, None]
        m = sc.metric(p)
        r = riemann(m)
        cone = sample_cone(m, p, sc.time_orientation(p), count=24, seed=3)
        v = cone.components
        a, kinds = tidal_operator(m, r, cone)
        tol = 1e-14 * max(1.0, np.abs(r.R).max())
        w = np.random.default_rng(4).normal(size=v.shape)
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
        einsum = np.einsum("...ijkl,...i,...j,...k,...l->...", r.R, w, v, v, w)
        assert np.abs(np.vecdot(np.vecmat(w, a), w) - einsum).max() <= tol
        point = np.repeat(np.arange(len(p)), v.shape[1])
        for kind, mats in kinds:
            assert len(mats) == np.count_nonzero(kind)
            for i, mat in zip(np.flatnonzero(kind), mats):
                vi, rows = v.reshape(-1, m.dim)[i], r.R[point[i], 0]
                basis = reference_tidal_basis(m.take(point[i]), vi)
                expected = np.array([[np.einsum("ijkl,i,j,k,l->", rows, bi, vi, vi, bj)
                                      for bi in basis] for bj in basis])
                scale = np.outer(*2 * [np.linalg.norm(basis, axis=-1)])
                assert mat.shape == expected.shape
                assert (np.abs(mat - expected) <= tol * scale).all(), (name, i)


class TestConditionSuite:
    @pytest.mark.parametrize("sc", [MINK, TORUS, CYL, FLRW, SCHW], ids=lambda s: s.name)
    def test_inclusion_chain(self, sc):
        reports = condition_suite(
            sc.metric, sc.energy_points, sc.time_orientation, seed=17, count=24
        )
        assert inclusion_chain_holds(reports)

    def test_schwarzschild_violates_weak_plane_condition(self):
        reports = condition_suite(
            SCHW.metric, SCHW.energy_points, SCHW.time_orientation, seed=17, count=24
        )
        assert not reports[Condition.PLANE_WEAK].satisfied
        assert reports[Condition.PLANE_WEAK].witness.value < -1e-3
        assert reports[Condition.RICCI_WEAK].satisfied
        assert not reports[Condition.TIDAL_PSD].satisfied

    def test_one_curvature_and_cone_sample_per_point(self, monkeypatch):
        import sys

        from traplab import energy, geometry

        # (calls, evaluated points or directions) of each stage
        counts = {}

        def counted(name, original, units=lambda *args: 0):
            def wrapper(*args, **kwargs):
                calls, total = counts.get(name, (0, 0))
                counts[name] = (calls + 1, total + units(*args))
                return original(*args, **kwargs)

            return wrapper

        def points(m, *args):
            return np.size(m.cond)

        def directions(m, r, v):
            return v.components.size // v.dim

        for name, units in (("riemann", points), ("sample_cone", points),
                            ("tidal_operator", directions)):
            monkeypatch.setattr(energy, name, counted(name, getattr(energy, name), units))
        # lorentz_frame under every name a traplab module binds it to
        original = geometry.lorentz_frame
        frame = counted("lorentz_frame", original)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("traplab") and getattr(
                module, "lorentz_frame", None
            ) is original:
                monkeypatch.setattr(module, "lorentz_frame", frame)
        assert len(SCHW.energy_points) == 3
        condition_suite(SCHW.metric, SCHW.energy_points, SCHW.time_orientation, seed=7, count=8)
        assert counts.pop("lorentz_frame")[0] == 2
        assert counts == {"riemann": (1, 3), "sample_cone": (1, 3), "tidal_operator": (1, 24)}

    def test_non_timelike_orientation_at_last_point(self):
        # the stacked pass raises what a loop over the points raises at the last one
        points = SCHW.energy_points

        def x_field(p):
            x = SCHW.time_orientation(p)
            last = (np.asarray(p) == points[-1]).all(axis=-1)[..., None]
            return TangentVector(x.base, np.where(last, np.eye(x.dim)[1], x.components))

        for p in points[:-1]:
            condition_suite(SCHW.metric, [p], x_field, count=8)
        with pytest.raises(Exception) as single:
            condition_suite(SCHW.metric, [points[-1]], x_field, count=8)
        assert single.type is NonTimelikeOrientation
        with pytest.raises(single.type):
            condition_suite(SCHW.metric, points, x_field, count=8)

    @pytest.mark.parametrize("points, count", [([], 8), (None, 0)], ids=["no-points", "count-0"])
    def test_empty_sample_is_rejected(self, points, count):
        # zero samples would report every condition as satisfied on samples
        points = MINK.energy_points if points is None else points
        with pytest.raises(ValueError, match="no causal directions sampled"):
            condition_suite(MINK.metric, points, MINK.time_orientation, count=count)

    def test_two_dimensional_null_directions_have_no_tidal_sample(self):
        # count 8 includes exact null directions, whose screen space is empty
        # in dimension 2: they give Ricci samples but no tidal sample
        flat2 = build_scenario("minkowski", {"dim": 2})
        reports = condition_suite(
            flat2.metric, flat2.energy_points, flat2.time_orientation, count=8
        )
        assert reports[Condition.RICCI_WEAK].samples_used == 16
        assert 0 < reports[Condition.TIDAL_PSD].samples_used < 16
        assert reports[Condition.TIDAL_PSD].satisfied

    @pytest.mark.parametrize(
        "sc, seed, count",
        [(sc, seed, count) for sc in (MINK, TORUS, CYL, FLRW, SCHW)
         for seed, count in ((0, 64), (17, 24), (5, 9))]
        + [pytest.param(build_scenario("minkowski", {"dim": 2}), 0, 8, id="minkowski2-0-8"),
           pytest.param(_with_points(SCHW, SCHW.energy_points[::-1]), 17, 24,
                        id="schwarzschild-reversed-17-24"),
           pytest.param(_with_points(FLRW, FLRW.energy_points[-1:]), 5, 9,
                        id="flrw-single-point-5-9"),
           pytest.param(_with_points(CYL, [CYL.energy_points[0], CYL.energy_points[1],
                                           CYL.energy_points[0]]), 0, 64,
                        id="cylinder-repeated-point-0-64")],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_equals_per_direction_loop(self, sc, seed, count):
        # stacking the points and their directions changes no bit of any report
        stacked = condition_suite(
            sc.metric, sc.energy_points, sc.time_orientation, seed=seed, count=count
        )
        looped = reference_condition_suite(
            sc.metric, sc.energy_points, sc.time_orientation, seed=seed, count=count
        )

        def bits(rep):
            w = rep.witness
            fields = () if w is None else (w.point, w.vector, w.value, w.partner)
            return (rep.verdict, np.float64(rep.min_value).tobytes(), rep.samples_used,
                    tuple(None if f is None else np.asarray(f).tobytes() for f in fields))

        assert stacked.keys() == looped.keys()
        for cond in stacked:
            assert bits(stacked[cond]) == bits(looped[cond]), cond

    def test_tidal_verdict_implies_weak_plane_on_same_samples(self):
        for sc in (MINK, CYL, FLRW):
            reports = condition_suite(
                sc.metric, sc.energy_points, sc.time_orientation, seed=8, count=24
            )
            if reports[Condition.TIDAL_PSD].satisfied:
                assert reports[Condition.PLANE_WEAK].satisfied

    def test_null_limit_of_boosted_directions(self):
        # Ricci values along aux-normalized boosts converge to the null value
        p = np.array([0.0, 1.2, 0.8])
        m = CYL.metric(p)
        ric = ricci_from_riemann(riemann(m), m)
        e0 = np.array([1.0, 0, 0])
        u = np.array([0.0, 1.0, 0])
        null_dir = (e0 + u) / np.linalg.norm(e0 + u)
        limit = float(null_dir @ ric @ null_dir)
        errors = []
        for chi in (1.0, 2.0, 4.0, 8.0):
            v = np.cosh(chi) * e0 + np.sinh(chi) * u
            v = v / np.linalg.norm(v)
            errors.append(abs(float(v @ ric @ v) - limit))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-5
