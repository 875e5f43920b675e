import math

import numpy as np
import pytest
import sympy as sp

from traplab import conformal, submanifold, verify
from traplab.cli import execute_config
from traplab.conformal import (
    BumpProfile,
    CurvatureCase,
    ScalarJet2,
    bump,
    conformal_H_normsq,
    conformal_mean_curvature,
    coordinate_scalar_field,
    curvature_perturbation,
    curvature_perturbation_reference,
    quadratic_scalar_field,
    rescale_metric,
    rescaled_metric_field,
    trapping_perturbation,
    trapping_sequence,
)
from traplab.errors import NotWeaklyTrapped
from traplab.geometry import MetricJet2, TangentVector, christoffel, riemann
from traplab.jets import elementwise
from traplab.scenarios import build_scenario
from traplab.submanifold import TrappingLabel, extrinsic_data, trapping_classify

from _oracles import fd_metric_derivatives, random_polynomial_metric_jet, sympy_conformal_quadform


class TestRescaleMetric:
    def test_zero_exponent_is_identity(self):
        m = MetricJet2.flat(4)
        out = rescale_metric(m, ScalarJet2.constant(0.0, 4))
        assert np.array_equal(out.g, m.g)
        assert np.array_equal(out.dg, m.dg)
        assert np.array_equal(out.ddg, m.ddg)

    def test_constant_exponent(self, rng):
        jet = random_polynomial_metric_jet(rng, 3)
        c = 0.37
        out = rescale_metric(jet, ScalarJet2.constant(c, 3))
        w = math.exp(2 * c)
        assert np.abs(out.g - w * jet.g).max() < 1e-14
        assert np.abs(out.dg - w * jet.dg).max() < 1e-14
        assert np.abs(out.ddg - w * jet.ddg).max() < 1e-14

    def test_first_derivatives_match_fd_oracle(self, rng):
        # random polynomial exponent on the flat background
        f_field = quadratic_scalar_field(
            0.2, rng.normal(size=4) * 0.3, rng.normal(size=(4, 4)) * 0.1
        )
        eta = np.diag([-1.0, 1, 1, 1])

        def g_func(x):
            return math.exp(2 * f_field(x).value) * eta

        p = np.array([0.1, -0.2, 0.3, 0.05])
        out = rescale_metric(MetricJet2.flat(4), f_field(p))
        dg_fd = fd_metric_derivatives(g_func, p)
        assert np.abs(out.dg - dg_fd).max() < 1e-6

    def test_group_property(self, rng):
        for _ in range(10):
            jet = random_polynomial_metric_jet(rng, 4)
            f = ScalarJet2(
                rng.normal() * 0.4,
                rng.normal(size=4) * 0.4,
                _sym(rng.normal(size=(4, 4)) * 0.3),
            )
            back = rescale_metric(rescale_metric(jet, f), -f)
            scale = max(1.0, np.abs(jet.ddg).max())
            assert np.abs(back.g - jet.g).max() < 1e-10
            assert np.abs(back.dg - jet.dg).max() < 1e-10 * scale
            assert np.abs(back.ddg - jet.ddg).max() < 1e-10 * scale

    @pytest.mark.parametrize("name, params, surface", [
        ("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4}, "Sigma"),
        ("einstein_cylinder", {"n": 2}, "equator"),
        ("einstein_cylinder", {"n": 3}, "equator"),
    ])
    def test_deferred_ddg_is_the_eager_formula(self, name, params, surface, rng):
        # read on first use, a rescaled jet's ddg is bitwise the product-rule formula
        # formed at once, also for a rescaled jet rescaled again, and so is its curvature
        sc = build_scenario(name, params)
        emb = sc.embeddings[surface]
        p = emb.at(emb.sample_set)[0]
        f1, f2 = (quadratic_scalar_field(0.1, 0.2 * rng.normal(size=sc.dim),
                                         0.1 * rng.normal(size=(sc.dim, sc.dim)))(p)
                  for _ in range(2))
        m = sc.metric(p)
        once = rescale_metric(m, f1)
        eager = MetricJet2(m.dim, once.g, once.dg, _eager_ddg(m, f1), m.signature)
        twice = rescale_metric(rescale_metric(m, f1), f2)
        assert np.array_equal(twice.ddg, _eager_ddg(eager, f2))
        assert np.array_equal(once.ddg, eager.ddg)
        r, r_eager = riemann(rescale_metric(m, f1)), riemann(eager)
        assert np.array_equal(r.R, r_eager.R)
        assert np.array_equal(r.symmetry_residual, r_eager.symmetry_residual)


def _eager_ddg(m, f):
    """d_l d_k of e^{2f} g_ij by the product and chain rules, formed at once."""
    w = np.asarray(elementwise(math.exp, 2.0 * f.value))
    dg_over_w = 2.0 * np.einsum("...k,...ij->...kij", f.grad, m.g) + m.dg
    return w.reshape(w.shape + (1,) * 4) * (
        2.0 * np.einsum("...l,...kij->...lkij", f.grad, dg_over_w)
        + 2.0 * np.einsum("...lk,...ij->...lkij", f.hess, m.g)
        + 2.0 * np.einsum("...k,...lij->...lkij", f.grad, m.dg)
        + m.ddg
    )


def _sym(a):
    return 0.5 * (a + a.T)


def _connection_law_residual(m, f, x, y):
    """Max-norm gap between the rescaled jet's connection on constant extensions
    of x, y and the law nabla_X Y + (Xf) Y + (Yf) X - g(X, Y) grad f."""
    lhs = np.einsum("kij,i,j->k", christoffel(rescale_metric(m, f)), x, y)
    rhs = (np.einsum("kij,i,j->k", christoffel(m), x, y) + (x @ f.grad) * y
           + (y @ f.grad) * x - m.inner(x, y) * np.linalg.solve(m.g, f.grad))
    return float(np.abs(lhs - rhs).max())


class TestConnectionLaw:
    def test_zero_exponent(self):
        m = MetricJet2.flat(4)
        x = np.array([1.0, 0, 0, 0])
        y = np.array([0.0, 1, 0, 0])
        assert _connection_law_residual(m, ScalarJet2.constant(0.0, 4), x, y) == 0.0

    def test_linear_exponent_flat_background(self):
        # hand oracle: for f = x^1 and X = Y = d_1, both sides equal
        # 2 d_1 - grad f, so the residual vanishes identically
        dim = 4
        f = ScalarJet2(0.0, np.array([0.0, 1.0, 0, 0]), np.zeros((dim, dim)))
        m = MetricJet2.flat(dim)
        e1 = np.eye(dim)[1]
        assert _connection_law_residual(m, f, e1, e1) < 1e-12

    def test_random_scenarios(self, rng):
        for _ in range(20):
            jet = random_polynomial_metric_jet(rng, 4)
            f = ScalarJet2(
                rng.normal() * 0.3,
                rng.normal(size=4) * 0.3,
                _sym(rng.normal(size=(4, 4)) * 0.2),
            )
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            assert _connection_law_residual(jet, f, x, y) < 1e-8


class TestMeanCurvatureLaw:
    def test_constant_exponent(self):
        m = MetricJet2.flat(4)
        h = TangentVector(np.zeros(4), np.array([0.0, 0.5, 0, 0]))
        proj = np.eye(4)
        out = conformal_mean_curvature(h, ScalarJet2.constant(0.3, 4), 2, m, proj)
        assert np.abs(out.components - math.exp(-0.6) * h.components).max() < 1e-14

    def test_vanishing_mean_curvature_future_normal_gradient(self):
        # H = 0, grad f normal future-directed timelike, m = 2: the rescaled
        # vector is -2 e^{-2f} grad f, which is past-directed
        m = MetricJet2.flat(4)
        f = ScalarJet2(0.2, np.array([-1.0, 0, 0, 0]), np.zeros((4, 4)))
        grad = m.inverse() @ f.grad  # = +d_t, future-directed
        assert m.inner(grad, np.array([1.0, 0, 0, 0])) < 0
        h = TangentVector(np.zeros(4), np.zeros(4))
        proj = np.eye(4)
        out = conformal_mean_curvature(h, f, 2, m, proj)
        expected = -2.0 * math.exp(-0.4) * grad
        assert np.abs(out.components - expected).max() < 1e-14
        assert m.inner(out.components, np.array([1.0, 0, 0, 0])) > 0  # past-directed

    def test_normsq_unit_timelike_normal_gradient(self):
        # H = 0, m = 2, (grad f)^perp unit timelike: value -4 e^{-2f}
        m = MetricJet2.flat(4)
        f = ScalarJet2(0.15, np.array([1.0, 0, 0, 0]), np.zeros((4, 4)))
        h = TangentVector(np.zeros(4), np.zeros(4))
        proj = np.eye(4)
        val = conformal_H_normsq(h, f, 2, m, proj)
        assert val == pytest.approx(-4.0 * math.exp(-0.3), rel=1e-14)

    def test_zero_exponent_returns_input_norm(self, rng):
        jet = random_polynomial_metric_jet(rng, 4)
        h = TangentVector(np.zeros(4), rng.normal(size=4))
        val = conformal_H_normsq(h, ScalarJet2.constant(0.0, 4), 3, jet, np.eye(4))
        assert val == pytest.approx(jet.inner(h.components, h.components), rel=1e-12)

    def test_dual_path_agreement(self, rng):
        # formula path vs direct extrinsic recomputation under rescaled jets
        sc = build_scenario("minkowski", {})
        emb = sc.embeddings["sphere"]
        for _ in range(20):
            u = emb.sample_set[rng.integers(0, len(emb.sample_set))]
            f_field = quadratic_scalar_field(
                rng.normal() * 0.3, rng.normal(size=4) * 0.3, rng.normal(size=(4, 4)) * 0.15
            )
            data = extrinsic_data(emb, sc.metric, u)
            p = data.H.base
            m, f = sc.metric(p), f_field(p)
            h_formula = conformal_mean_curvature(data.H, f, 2, m, data.normal_projector)
            sq_formula = conformal_H_normsq(data.H, f, 2, m, data.normal_projector)
            hat = rescaled_metric_field(sc.metric, f_field)
            data_hat = extrinsic_data(emb, hat, u)
            m_hat = hat(p)
            assert np.abs(h_formula.components - data_hat.H.components).max() < 1e-8
            sq_direct = m_hat.inner(data_hat.H.components, data_hat.H.components)
            assert sq_formula == pytest.approx(sq_direct, rel=1e-8)


class TestBump:
    PROFILE = BumpProfile(0.5, 1.0, np.zeros(3))

    def test_inner_region(self):
        j = bump(self.PROFILE, np.array([0.1, 0.2, 0.0]))
        assert j.value == 1.0
        assert np.abs(j.grad).max() == 0.0
        assert np.abs(j.hess).max() == 0.0

    def test_outside_support(self):
        j = bump(self.PROFILE, np.array([1.2, 0.0, 0.0]))
        assert j.value == 0.0
        assert np.abs(j.grad).max() == 0.0

    def test_transition_monotone(self):
        radii = np.linspace(0.55, 0.95, 9)
        vals = [bump(self.PROFILE, np.array([r, 0, 0])).value for r in radii]
        assert all(1 > a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_jet_matches_fd(self):
        from _oracles import fd_grad, fd_hess

        def scalar(p):
            return bump(self.PROFILE, p).value

        p = np.array([0.55, 0.3, -0.2])
        j = bump(self.PROFILE, p)
        assert np.abs(j.grad - fd_grad(scalar, p)).max() < 1e-6
        assert np.abs(j.hess - fd_hess(scalar, p, h=1e-4)).max() < 1e-4

    def test_tube_profile_with_periodic_axis(self):
        profile = BumpProfile(0.2, 0.45, np.zeros(4), axes=(0, 1), periods=(None, 1.0))
        # on the tube axis subspace, distance ignores the free coordinates
        assert bump(profile, np.array([0.0, 0.0, 0.7, 0.9])).value == 1.0
        # periodic wrap: x1 = 0.9 is distance 0.1 from the center circle
        assert bump(profile, np.array([0.0, 0.9, 0.0, 0.0])).value == 1.0
        assert bump(profile, np.array([0.4, 0.5, 0.0, 0.0])).value == 0.0


class TestTrappingPerturbation:
    def _setup(self):
        sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4})
        tau = coordinate_scalar_field(0, sc.dim, scale=-1.0)
        profile = BumpProfile(0.2, 0.45, np.zeros(sc.dim), axes=(0, 1), periods=(None, 1.0))
        return sc, tau, profile

    def test_torus_values(self):
        sc, tau, profile = self._setup()
        for n in (1, 2, 8):
            res = trapping_perturbation(
                sc.metric, sc.embeddings["Sigma"], sc.time_orientation, tau, profile, n
            )
            for hh, hx in zip(res.gn_H_H, res.gn_H_X):
                assert hh == pytest.approx(-4.0 / n**2, rel=1e-9)
                assert hx == pytest.approx(2.0 / n, rel=1e-9)

    def test_large_n_limit(self):
        sc, tau, profile = self._setup()
        prev_hh = None
        for n in (4, 8, 16, 32):
            res = trapping_perturbation(
                sc.metric, sc.embeddings["Sigma"], sc.time_orientation, tau, profile, n
            )
            hh = np.abs(res.gn_H_H).max()
            hx = np.abs(res.gn_H_X).max()
            if prev_hh is not None:
                assert hh < prev_hh
            prev_hh = hh
            assert hx == pytest.approx(2.0 / n, rel=1e-9)
        # metric converges to the input in sampled sup norm
        p = np.array([0.0, 0.0, 0.3, 0.6])
        g32 = res.metric_field(p).g
        assert np.abs(g32 - sc.metric(p).g).max() < 0.3 / 32

    def test_strictly_trapped_input_stays_trapped(self):
        sc, tau, profile = self._setup()
        first = trapping_perturbation(
            sc.metric, sc.embeddings["Sigma"], sc.time_orientation, tau, profile, 2
        )
        again = trapping_perturbation(
            first.metric_field, sc.embeddings["Sigma"], sc.time_orientation, tau, profile, 3
        )
        assert again.label is TrappingLabel.TRAPPED

    def test_rejects_non_weakly_trapped_input(self):
        sc, tau, profile = self._setup()
        mink = build_scenario("minkowski", {})
        sphere = mink.embeddings["sphere"]  # H spacelike: not weakly trapped
        with pytest.raises(NotWeaklyTrapped):
            trapping_perturbation(
                mink.metric, sphere, mink.time_orientation,
                coordinate_scalar_field(0, 4, scale=-1.0),
                BumpProfile(2.0, 3.0, np.zeros(4)), 2,
            )


def _same_records(a, b):
    assert a.n == b.n

    def rows(r):
        return [(u.tobytes(), repr(float(hh)), repr(float(hx))) for u, hh, hx in zip(r.u, r.gn_H_H, r.gn_H_X)]

    assert rows(a) == rows(b)


class TestTrappingSequence:
    """``trapping_sequence`` against one ``trapping_perturbation`` per n."""

    def _setup(self):
        sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 8})
        tau = coordinate_scalar_field(0, sc.dim, scale=-1.0)
        profile = BumpProfile(0.2, 0.45, np.zeros(sc.dim), axes=(0, 1), periods=(None, 1.0))
        return sc, sc.embeddings["Sigma"], tau, profile

    def test_every_n_bitwise(self):
        sc, sigma, tau, profile = self._setup()
        sequence = trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, range(1, 33))
        assert [r.n for r in sequence] == list(range(1, 33))
        for result in sequence:
            single = trapping_perturbation(
                sc.metric, sigma, sc.time_orientation, tau, profile, result.n
            )
            _same_records(result, single)
            p = np.array([0.1, 0.2, 0.3, 0.6])
            assert np.array_equal(result.metric_field(p).g, single.metric_field(p).g)

    def test_tau_evaluated_once(self):
        # the input check and the exponent phi tau share one tau jet at the samples
        sc, sigma, tau, profile = self._setup()
        shapes = []

        def counted(p):
            shapes.append(np.shape(p))
            return tau(p)

        trapping_sequence(sc.metric, sigma, sc.time_orientation, counted, profile, range(1, 33))
        assert shapes == [(len(sigma.sample_set), sc.dim)]

    def test_chained_metric_field_bitwise(self):
        sc, sigma, tau, profile = self._setup()
        first = trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, [2])[0]
        ns = [1, 3, 7, 3]
        again = trapping_sequence(first.metric_field, sigma, sc.time_orientation, tau, profile, ns)
        for n, result in zip(ns, again):
            _same_records(result, trapping_perturbation(
                first.metric_field, sigma, sc.time_orientation, tau, profile, n
            ))
            assert result.label is TrappingLabel.TRAPPED

    @pytest.mark.parametrize("name, params, surface", [
        ("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 8}, "Sigma"),
        ("einstein_cylinder", {"n": 2}, "equator"),
        ("einstein_cylinder", {"n": 3}, "equator"),
    ])
    def test_records_match_the_metric_field_path(self, name, params, surface):
        sc = build_scenario(name, params)
        sigma = sc.embeddings[surface]
        tau = coordinate_scalar_field(0, sc.dim, scale=-1.0)
        # the tube profile of ``traplab perturb`` at its default radii
        profile = BumpProfile(
            0.2, 0.45, np.asarray(sigma.jet(sigma.sample_set[0])[0], dtype=float), axes=(0, 1),
            periods=(None, sc.periods[1] if sc.periods else None),
        )
        sequence = trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, range(1, 33))
        for result in sequence:
            direct = trapping_classify(sigma, result.metric_field, sc.time_orientation)
            assert [(repr(float(hh)), repr(float(hx))) for hh, hx in zip(result.gn_H_H, result.gn_H_X)] == [
                (repr(float(r.g_H_H)), repr(float(r.g_H_X))) for r in direct.per_point
            ]
            if result.n == 1:
                assert result.label is TrappingLabel.TRAPPED
                assert direct.label is TrappingLabel.TRAPPED

    def test_rejects_non_weakly_trapped_input(self):
        mink = build_scenario("minkowski", {})
        with pytest.raises(NotWeaklyTrapped):
            trapping_sequence(
                mink.metric, mink.embeddings["sphere"], mink.time_orientation,
                coordinate_scalar_field(0, 4, scale=-1.0),
                BumpProfile(2.0, 3.0, np.zeros(4)), [1, 2, 3],
            )

    def test_rejects_non_positive_n(self):
        sc, sigma, tau, profile = self._setup()
        with pytest.raises(ValueError, match="positive integer"):
            trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, [3, 0])

    def test_ns_read_once_from_any_iterable(self):
        sc, sigma, tau, profile = self._setup()
        listed = trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, [1, 2, 3])
        for ns in ((n for n in range(1, 4)), range(1, 4), iter([1, 2, 3])):
            results = trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, ns)
            assert len(results) == 3
            for result, want in zip(results, listed):
                _same_records(result, want)

    @pytest.mark.parametrize("ns", [[], range(0), (n for n in ())])
    def test_rejects_empty_ns(self, ns):
        # an empty sequence would pass "strictly trapped at every n" on no n at all
        sc, sigma, tau, profile = self._setup()
        with pytest.raises(ValueError, match="no n given"):
            trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, ns)

    @pytest.mark.parametrize("name, params, surface", [
        ("minkowski_torus_quotient", {"m": 2}, "Sigma"),
        ("minkowski_torus_quotient", {"m": 3}, "Sigma"),
        ("minkowski_torus_quotient", {"m": 4, "samples_per_axis": 4}, "Sigma"),
        ("einstein_cylinder", {"n": 2}, "equator"),
        ("einstein_cylinder", {"n": 3}, "equator"),
    ])
    def test_stack_label_is_the_classifier_label(self, name, params, surface):
        # at m = 3, -4/n^2 crosses the classifier's band between n = 60000 and 100000
        sc = build_scenario(name, params)
        sigma = sc.embeddings[surface]
        tau = coordinate_scalar_field(0, sc.dim, scale=-1.0)
        profile = BumpProfile(
            0.2, 0.45, np.asarray(sigma.jet(sigma.sample_set[0])[0], dtype=float), axes=(0, 1),
            periods=(None, sc.periods[1] if sc.periods else None),
        )
        ns = [*range(1, 33), 60000, 100000]
        sequence = trapping_sequence(sc.metric, sigma, sc.time_orientation, tau, profile, ns)
        for result in sequence:
            direct = trapping_classify(sigma, result.metric_field, sc.time_orientation)
            assert result.label is direct.label
            assert np.array_equal(result.gn_H_H, [r.g_H_H for r in direct.per_point])
            assert np.array_equal(result.gn_H_X, [r.g_H_X for r in direct.per_point])
        assert sequence[0].label is TrappingLabel.TRAPPED
        assert sequence[-1].label is not TrappingLabel.TRAPPED
        assert sequence[0].input_label is trapping_classify(sigma, sc.metric, sc.time_orientation).label


def test_trapping_requests_never_form_a_rescaled_ddg(monkeypatch):
    made = []

    def recording(m, f):
        made.append(rescale_metric(m, f))
        return made[-1]

    monkeypatch.setattr(conformal, "rescale_metric", recording)
    sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 8})
    profile = BumpProfile(0.2, 0.45, np.zeros(sc.dim), axes=(0, 1), periods=(None, 1.0))
    trapping_sequence(sc.metric, sc.embeddings["Sigma"], sc.time_orientation,
                      coordinate_scalar_field(0, sc.dim, scale=-1.0), profile, range(1, 33))
    assert execute_config({"command": "perturb", "n": 3})["passed"]
    assert execute_config({"command": "perturb", "scenario": "einstein_cylinder",
                           "surface": "equator", "n": 2})["passed"]
    # a formed ddg is an attribute of the jet; a deferred one is not yet
    assert made and not any("ddg" in vars(jet) for jet in made)


def test_extrinsic_data_calls_per_trapping_request(monkeypatch):
    # both labels come from the sequence's own data: the input check and one
    # stack per perturb, and the input check and 8 stacks of 4 n per
    # trapping-construction suite
    calls = []
    real = submanifold.extrinsic_data

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(submanifold, "extrinsic_data", counted)
    assert execute_config({"command": "perturb", "n": 3})["passed"]
    assert len(calls) == 2
    calls.clear()
    assert all(record.passed for record in verify.verify_trapping_construction())
    assert len(calls) == 9


class TestCurvaturePerturbation:
    def test_timelike_case_reference(self):
        for n in (1, 2, 5, 10):
            assert curvature_perturbation(CurvatureCase.TIMELIKE_V, n) == pytest.approx(
                -math.exp(2.0 / n) / n, rel=1e-9
            )

    def test_null_null_case_reference(self):
        for n in (1, 2, 5, 10):
            assert curvature_perturbation(CurvatureCase.NULL_V_NULL_W, n) == pytest.approx(
                -8.0 / n, rel=1e-9
            )

    def test_null_spacelike_case_directly_computed_value(self):
        # The published reference constant for this case is -4/n * g(w, w);
        # direct computation gives -8/n * g(w, w).  The value is certified
        # against a symbolic oracle below; this test pins the computed value
        # so any regression of the implementation is caught.
        for n in (1, 2, 5, 10):
            measured = curvature_perturbation(CurvatureCase.NULL_V_SPACELIKE_W, n)
            assert measured == pytest.approx(-8.0 / n, rel=1e-9)
            assert curvature_perturbation_reference(
                CurvatureCase.NULL_V_SPACELIKE_W, n
            ) == pytest.approx(-4.0 / n, rel=1e-12)

    @pytest.mark.parametrize(
        "case,n",
        [
            (CurvatureCase.TIMELIKE_V, 1),
            (CurvatureCase.TIMELIKE_V, 3),
            (CurvatureCase.NULL_V_SPACELIKE_W, 1),
            (CurvatureCase.NULL_V_SPACELIKE_W, 4),
            (CurvatureCase.NULL_V_NULL_W, 2),
        ],
    )
    def test_sympy_oracle_agreement(self, case, n):
        # fully symbolic recomputation of the rescaled curvature form
        t, x, y, z = sp.symbols("t x y z")
        coords = (t, x, y, z)
        if case is CurvatureCase.TIMELIKE_V:
            xi, v, w = sp.exp(t), (1, 0, 0, 0), (0, 1, 0, 0)
        elif case is CurvatureCase.NULL_V_SPACELIKE_W:
            xi, v, w = (t + x) ** 2, (1, 1, 0, 0), (0, 0, 1, 0)
        else:
            xi, v, w = t**2, (1, 1, 0, 0), (1, -1, 0, 0)
        oracle = sympy_conformal_quadform(xi, coords, n, v, w)
        measured = curvature_perturbation(case, n)
        assert measured == pytest.approx(oracle, rel=1e-9)
