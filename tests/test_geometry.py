import math
import re

import numpy as np
import pytest

from traplab.errors import CollinearPair, NonTimelikeOrientation, SingularMetric
from traplab.geometry import (
    MetricJet2,
    Signature,
    TangentVector,
    check_time_orientation,
    christoffel,
    lorentz_frame,
    ricci,
    ricci_from_riemann,
    riemann,
    riem_quadform,
    scalar_curvature,
)
from traplab.scenarios import build_scenario

from _oracles import constant_curvature_riemann, random_polynomial_metric_jet, static_product_riemann

CYL = build_scenario("einstein_cylinder", {"n": 2})
SPHERE_POINT = np.array([0.0, math.pi / 4, 0.3])


def sphere_jet(theta, phi=0.3):
    """Unit round 2-sphere chart jet, from the cylinder slice field."""
    return CYL.initial_data.h_field(np.array([theta, phi]))


class TestChristoffel:
    def test_flat_jet_gives_zero(self):
        assert np.abs(christoffel(MetricJet2.flat(4))).max() == 0.0

    def test_round_sphere_value(self):
        # oracle: Gamma^theta_phiphi = -sin(theta) cos(theta), frozen at pi/4
        gam = christoffel(sphere_jet(math.pi / 4))
        assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_constant_rescaling_stays_flat(self):
        m = MetricJet2.constant(math.exp(2.0 * 0.7) * np.diag([-1.0, 1, 1, 1]))
        assert np.abs(christoffel(m)).max() == 0.0

    def test_symmetry_in_lower_indices(self, rng):
        jet = random_polynomial_metric_jet(rng, 4)
        gam = christoffel(jet)
        assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-12

    def test_metric_compatibility(self, rng):
        for _ in range(20):
            jet = random_polynomial_metric_jet(rng, 3)
            gam = christoffel(jet)
            lhs = jet.dg
            rhs = np.einsum("lki,lj->kij", gam, jet.g) + np.einsum(
                "lkj,il->kij", gam, jet.g
            )
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_metric_compatibility_on_shipped_scenarios(self):
        for name in ("minkowski", "minkowski_torus_quotient", "einstein_cylinder",
                     "schwarzschild_slice_isotropic", "flrw_dust"):
            sc = build_scenario(name, {})
            for p in sc.energy_points:
                jet = sc.metric(np.asarray(p))
                gam = christoffel(jet)
                rhs = np.einsum("lki,lj->kij", gam, jet.g) + np.einsum(
                    "lkj,il->kij", gam, jet.g
                )
                scale = max(1.0, np.abs(jet.dg).max())
                assert np.abs(jet.dg - rhs).max() / scale < 1e-9

    def test_singular_metric_rejected(self):
        g = np.diag([-1.0, 1.0, 1.0, 1e-13])
        m = MetricJet2(4, g, np.zeros((4,) * 3), np.zeros((4,) * 4))
        with pytest.raises(SingularMetric):
            christoffel(m)

    def test_singular_metric_rejected_on_every_call(self):
        m = MetricJet2.constant(np.diag([-1.0, 1.0, 1.0, 1e-13]))
        for _ in range(3):
            with pytest.raises(SingularMetric):
                m.inverse()

    def test_condition_just_inside_the_limit_inverts(self):
        m = MetricJet2.constant(np.diag([-1.0, 1.0, 1.0, 1e-11]))
        assert m.cond == pytest.approx(1e11, rel=1e-12)
        assert np.array_equal(m.inverse(), np.diag([-1.0, 1.0, 1.0, 1e11]))

    def test_inverse_is_cached_and_read_only(self):
        m = sphere_jet(1.1)
        ginv = m.inverse()
        assert m.inverse() is ginv
        assert np.abs(ginv @ m.g - np.eye(2)).max() < 1e-14
        with pytest.raises(ValueError):
            ginv[0, 0] = 1.0

    def test_one_inversion_per_jet_through_the_curvature_chain(self, monkeypatch):
        jet = CYL.metric(SPHERE_POINT)
        calls = {"inv": 0, "cond": 0}

        def counted(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        christoffel(jet)
        ricci_from_riemann(riemann(jet), jet)
        scalar_curvature(jet)
        assert calls == {"inv": 1, "cond": 0}


class TestRiemann:
    def test_flat(self):
        assert riemann(MetricJet2.flat(4)).max_abs() < 1e-10

    def test_unit_sphere_matches_constant_curvature_oracle(self):
        m = sphere_jet(1.1)
        r = riemann(m)
        expected = constant_curvature_riemann(m.g, 1.0)
        assert np.abs(r.R - expected).max() < 1e-12

    def test_cylinder_matches_product_oracle(self):
        m = CYL.metric(SPHERE_POINT)
        r = riemann(m)
        spatial = constant_curvature_riemann(m.g[1:, 1:], 1.0)
        assert np.abs(r.R - static_product_riemann(spatial, 3)).max() < 1e-12

    def test_symmetries_on_random_jets(self, rng):
        # the four curvature-like identities, 100 randomized analytic jets
        for k in range(100):
            dim = int(rng.integers(2, 5))
            sig = Signature.LORENTZIAN if k % 2 else Signature.RIEMANNIAN
            r = riemann(random_polynomial_metric_jet(rng, dim, sig))
            assert r.symmetry_residual < 1e-9


class TestRicci:
    def test_flat(self):
        assert np.abs(ricci(MetricJet2.flat(4))).max() == 0.0

    def test_einstein_cylinder(self):
        # product oracle: Ric(dt, dt) = 0 and Ric(u, u) = n - 1 = 1
        m = CYL.metric(SPHERE_POINT)
        ric = ricci(m)
        assert abs(ric[0, 0]) < 1e-12
        u = np.array([0.0, 1.0, 0.0])
        assert u @ ric @ u == pytest.approx(1.0, abs=1e-12)

    def test_unit_sphere_ricci_equals_metric(self):
        m = sphere_jet(0.9)
        assert np.abs(ricci(m) - m.g).max() < 1e-12
        assert scalar_curvature(m) == pytest.approx(2.0, abs=1e-12)

    def test_contraction_consistency(self, rng):
        for _ in range(15):
            jet = random_polynomial_metric_jet(rng, 4)
            direct = ricci(jet)
            contracted = ricci_from_riemann(riemann(jet), jet)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(direct - contracted).max() / scale < 1e-9

    def test_contraction_consistency_on_shipped_scenarios(self):
        for name in ("einstein_cylinder", "schwarzschild_slice_isotropic", "flrw_dust"):
            sc = build_scenario(name, {})
            for p in sc.energy_points:
                jet = sc.metric(np.asarray(p))
                direct = ricci(jet)
                contracted = ricci_from_riemann(riemann(jet), jet)
                scale = max(1.0, np.abs(direct).max())
                assert np.abs(direct - contracted).max() / scale < 1e-9


class TestCausalSigns:
    FLAT = MetricJet2.flat(4)
    X = TangentVector(np.zeros(4), np.array([1.0, 0, 0, 0]))

    def tv(self, *comps):
        return TangentVector(np.zeros(4), np.array(comps, dtype=float))

    def test_requires_timelike_orientation(self):
        with pytest.raises(NonTimelikeOrientation):
            check_time_orientation(self.FLAT, self.tv(0, 1, 0, 0))
        check_time_orientation(self.FLAT, self.X)

    def test_conformal_invariance(self, rng):
        # the signs of g(v, v) and g(v, X) give the causal type and the time
        # direction: rescaling cannot change them, and keeps null vectors null
        from traplab.conformal import ScalarJet2, rescale_metric

        for _ in range(25):
            comps = rng.normal(size=4)
            kind = rng.integers(0, 3)
            if kind == 1:  # exactly null
                space = comps[1:] / np.linalg.norm(comps[1:])
                comps = np.concatenate(([1.0], space)) * rng.choice([-1.0, 1.0])
            f = ScalarJet2(rng.normal(), rng.normal(size=4), np.zeros((4, 4)))
            hat = rescale_metric(self.FLAT, f)
            before, after = (np.array([m.inner(comps, comps), m.inner(comps, self.X.components)])
                             for m in (self.FLAT, hat))
            if kind == 1:
                assert abs(after[0]) <= 1e-10 * np.exp(2.0 * f.value) * comps @ comps
                before, after = before[1:], after[1:]
            assert np.array_equal(np.sign(before), np.sign(after))


class TestQuadform:
    def test_flat_zero(self):
        m = MetricJet2.flat(4)
        r = riemann(m)
        w = TangentVector(np.zeros(4), np.array([0.0, 1, 0, 0]))
        v = TangentVector(np.zeros(4), np.array([1.0, 0, 0, 0]))
        assert riem_quadform(r, m, w, v) == 0.0

    def test_unit_sphere_orthonormal_pair(self):
        m = sphere_jet(math.pi / 4)
        r = riemann(m)
        p = np.array([math.pi / 4, 0.3])
        v = TangentVector(p, np.array([1.0, 0.0]))
        w = TangentVector(p, np.array([0.0, 1.0 / math.sin(math.pi / 4)]))
        assert riem_quadform(r, m, w, v) == pytest.approx(1.0, abs=1e-12)

    def test_cylinder_mixed_plane_vanishes(self):
        m = CYL.metric(SPHERE_POINT)
        r = riemann(m)
        v = TangentVector(SPHERE_POINT, np.array([1.0, 0, 0]))
        w = TangentVector(SPHERE_POINT, np.array([0.0, 1, 0]))
        assert abs(riem_quadform(r, m, w, v)) < 1e-12

    def test_collinear_rejected(self):
        m = MetricJet2.flat(4)
        r = riemann(m)
        v = TangentVector(np.zeros(4), np.array([1.0, 2, 0, 0]))
        w = TangentVector(np.zeros(4), 3.0 * v.components)
        with pytest.raises(CollinearPair):
            riem_quadform(r, m, w, v)

    def test_invariant_under_adding_multiples_of_v(self, rng):
        for _ in range(10):
            jet = random_polynomial_metric_jet(rng, 4)
            r = riemann(jet)
            v = TangentVector(np.zeros(4), rng.normal(size=4))
            w = TangentVector(np.zeros(4), rng.normal(size=4))
            alpha = rng.normal()
            shifted = TangentVector(np.zeros(4), w.components + alpha * v.components)
            a = riem_quadform(r, jet, w, v)
            b = riem_quadform(r, jet, shifted, v)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


class TestLorentzFrame:
    def test_gram_matrix(self, rng):
        for _ in range(10):
            jet = random_polynomial_metric_jet(rng, 4)
            x = TangentVector(np.zeros(4), np.array([1.0, 0.1, -0.05, 0.0]))
            frame = lorentz_frame(jet, x)
            gram = frame.T @ jet.g @ frame
            assert np.abs(gram - np.diag([-1.0, 1, 1, 1])).max() < 1e-9


class TestJetValidation:
    def test_asymmetric_metric_rejected(self):
        g = np.diag([-1.0, 1, 1, 1])
        g[0, 1] = 0.2
        with pytest.raises(ValueError):
            MetricJet2(4, g, np.zeros((4,) * 3), np.zeros((4,) * 4))

    def test_asymmetric_first_derivatives_rejected(self):
        dg = np.zeros((3,) * 3)
        dg[0, 1, 2] = 1.0
        with pytest.raises(ValueError):
            MetricJet2(3, np.diag([-1.0, 1, 1]), dg, np.zeros((3,) * 4))

    def test_deferred_ddg_checked_on_each_read_until_formed(self):
        ddg = np.zeros((3,) * 4)
        ddg[0, 1, 2, 2] = 1.0  # symmetric in (i, j), not in (k, l)
        with pytest.raises(ValueError, match=r"ddg must be symmetric in \(k, l\)"):
            MetricJet2(3, np.diag([-1.0, 1, 1]), np.zeros((3,) * 3), ddg)
        jet = MetricJet2(3, np.diag([-1.0, 1, 1]), np.zeros((3,) * 3), lambda: ddg)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"ddg must be symmetric in \(k, l\)"):
                jet.ddg

    def test_deferred_ddg_formed_once_and_kept_deferred_by_take(self, rng):
        jet = random_polynomial_metric_jet(rng, 4)
        points = 5
        g, dg = (np.broadcast_to(a, (points,) + a.shape) for a in (jet.g, jet.dg))
        ddg = jet.ddg * np.arange(1.0, points + 1).reshape(points, 1, 1, 1, 1)
        calls = []

        def form():
            calls.append(1)
            return ddg

        stack = MetricJet2(4, g, dg, form)
        taken = stack.take(np.array([3, 1]))
        assert calls == []
        assert np.array_equal(taken.ddg, ddg[[3, 1]])
        assert calls == [1]
        assert stack.ddg is stack.ddg and taken.ddg is taken.ddg
        assert calls == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("lead", [(), (2, 3)], ids=["single", "stacked"])
    @pytest.mark.parametrize("name", ["g", "dg", "ddg"])
    @pytest.mark.parametrize("deferred", [False, True], ids=["eager", "deferred"])
    def test_non_finite_jet_rejected(self, bad, lead, name, deferred):
        # a SingularMetric names the array and the first bad point of the stack
        arrays = {"g": np.diag([-1.0, 1, 1]), "dg": np.zeros((3,) * 3), "ddg": np.zeros((3,) * 4)}
        arrays = {key: np.broadcast_to(a, lead + a.shape).copy() for key, a in arrays.items()}
        for at in [(1, 2), (0, 1)] if lead else [()]:
            arrays[name][at + (0,) * (arrays[name].ndim - len(lead))] = bad
        where = " at point (0, 1)" if lead else ""
        ddg = arrays["ddg"]
        make = lambda: MetricJet2(3, arrays["g"], arrays["dg"], (lambda: ddg) if deferred else ddg)
        message = rf"^{name} is not finite{re.escape(where)}$"
        if name == "ddg" and deferred:
            jet = make()
            with pytest.raises(SingularMetric, match=message):
                jet.ddg
        else:
            with pytest.raises(SingularMetric, match=message):
                make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_constant_metric_rejected(self, bad):
        g = np.diag([-1.0, 1, 1, 1])
        g[2, 2] = bad
        with pytest.raises(SingularMetric, match=r"^g is not finite$"):
            MetricJet2.constant(g)
        stack = np.stack([np.diag([-1.0, 1, 1, 1]), g])
        with pytest.raises(SingularMetric, match=r"^g is not finite at point \(1,\)$"):
            MetricJet2.constant(stack)

    def test_nan_curvature_residual_fails_the_symmetry_gate(self):
        # a jet whose arrays changed after its checks: the NaN residual is a failure
        jet = MetricJet2.flat(4)
        jet.dg[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="curvature symmetry residual nan exceeds"):
            riemann(jet)

    def test_wrong_signature_rejected(self):
        with pytest.raises(ValueError):
            MetricJet2(3, np.eye(3), np.zeros((3,) * 3), np.zeros((3,) * 4),
                       Signature.LORENTZIAN)
        with pytest.raises(ValueError):
            MetricJet2.constant(np.diag([-1.0, 1, 1]), Signature.RIEMANNIAN)

    def test_degenerate_embedding_rejected(self):
        from traplab.errors import ImmersionFailure
        from traplab.submanifold import EmbeddingJet2

        emb = EmbeddingJet2(
            sigma_dim=1,
            ambient_dim=3,
            jet=lambda u: (np.zeros(3), np.zeros((3, 1)), np.zeros((3, 1, 1))),
            sample_set=np.zeros((1, 1)),
        )
        with pytest.raises(ImmersionFailure):
            emb.at(np.array([0.0]))
