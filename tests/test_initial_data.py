import math

import numpy as np
import pytest

from traplab.errors import NotUnitNormal
from traplab.geometry import MetricJet2, Signature
from traplab.initial_data import (
    InitialData,
    MotsLabel,
    constraint_quantities,
    initial_data_expansions,
    mots_classify,
)
from traplab.scenarios import build_scenario, sphere_embedding
from traplab.submanifold import extrinsic_data, null_frame

MINK = build_scenario("minkowski", {})
CYL = build_scenario("einstein_cylinder", {"n": 2})
SCHW = build_scenario("schwarzschild_slice_isotropic", {"mass": 1.0})
TORUS = build_scenario("minkowski_torus_quotient", {"m": 3})


class TestConstraintQuantities:
    def test_flat_data_exactly_vacuum(self):
        for p in (np.zeros(3), np.array([0.5, -1.0, 2.0])):
            cq = constraint_quantities(MINK.initial_data, p)
            assert cq.rho == 0.0
            assert np.abs(cq.J).max() == 0.0

    def test_cylinder_slice_density(self):
        # n = 2 slice of the unit sphere: Scal = 2, so rho = 1 and J = 0
        for p in (np.array([0.6, 0.1]), np.array([2.0, 4.0])):
            cq = constraint_quantities(CYL.initial_data, p)
            assert cq.rho == pytest.approx(1.0, abs=1e-12)
            assert np.abs(cq.J).max() < 1e-12

    def test_schwarzschild_isotropic_vacuum(self, rng):
        for _ in range(30):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            p = direction * rng.uniform(0.6, 3.0)
            cq = constraint_quantities(SCHW.initial_data, p)
            assert abs(cq.rho) < 1e-8
            assert np.abs(cq.J).max() < 1e-8

    def test_constant_K_on_flat_torus(self):
        # with h flat and K constant: rho = ((tr K)^2 - |K|^2) / 2, J = 0
        k = np.array([[0.3, 0.1], [0.1, -0.2]])
        data = InitialData(
            dim=2,
            h_field=lambda p: MetricJet2.flat(2, Signature.RIEMANNIAN),
            K_field=lambda p: (k, np.zeros((2, 2, 2))),
        )
        cq = constraint_quantities(data, np.zeros(2))
        tr = np.trace(k)
        expected = 0.5 * (tr**2 - np.sum(k * k))
        assert cq.rho == pytest.approx(expected, rel=1e-12)
        assert np.abs(cq.J).max() < 1e-14

    def test_linear_K_current(self):
        # h flat, K_ij = a_ij * x^0: J_j = d_i K_ij - d_j tr K exactly
        a = np.array([[0.4, -0.1], [-0.1, 0.2]])

        def K_field(p):
            dk = np.zeros((2, 2, 2))
            dk[0] = a
            return (a * p[0], dk)

        data = InitialData(
            dim=2,
            h_field=lambda p: MetricJet2.flat(2, Signature.RIEMANNIAN),
            K_field=K_field,
        )
        cq = constraint_quantities(data, np.array([0.7, -0.3]))
        expected_j = a[0] - np.array([np.trace(a), 0.0])
        assert np.abs(cq.J - expected_j).max() < 1e-14


class TestExpansions:
    def test_time_symmetric_reduction(self):
        # K = 0 gives theta_+- = +-H_nu
        ss = MINK.slice_surfaces["sphere"]
        tp, tm = initial_data_expansions(MINK.initial_data, ss.embedding, ss.nu,
                                         np.array([0.8, 0.4]))
        assert tp == pytest.approx(2.0, rel=1e-12)
        assert tm == pytest.approx(-2.0, rel=1e-12)

    def test_schwarzschild_minimal_sphere(self):
        surf = SCHW.slice_surfaces["horizon_sphere"]
        thetas = [
            initial_data_expansions(SCHW.initial_data, surf.embedding, surf.nu, u)
            for u in surf.embedding.sample_set
        ]
        assert max(abs(tp) for tp, _ in thetas) < 1e-12
        assert mots_classify([tp for tp, _ in thetas]) is MotsLabel.MOTS

    def test_normal_flip_exchanges_expansions(self):
        # only H_nu changes sign under nu -> -nu, so theta_+ and theta_-
        # trade places; with nonzero tr_Sigma K this is a plain exchange
        k = np.diag([0.3, 0.3, 0.3])
        data = InitialData(
            dim=3,
            h_field=lambda p: MetricJet2.flat(3, Signature.RIEMANNIAN),
            K_field=lambda p: (k, np.zeros((3, 3, 3))),
        )
        ss = MINK.slice_surfaces["sphere"]
        u = np.array([1.2, 0.5])
        tp, tm = initial_data_expansions(data, ss.embedding, ss.nu, u)
        flipped = lambda uu: -ss.nu(uu)
        tp2, tm2 = initial_data_expansions(data, ss.embedding, flipped, u)
        assert tp2 == pytest.approx(tm, rel=1e-12)
        assert tm2 == pytest.approx(tp, rel=1e-12)

    def test_nonzero_K_trace_term(self):
        # flat 3-space with constant K: theta_+- = tr_Sigma K +- 2/r
        k = np.diag([0.2, 0.2, 0.5])
        data = InitialData(
            dim=3,
            h_field=lambda p: MetricJet2.flat(3, Signature.RIEMANNIAN),
            K_field=lambda p: (k, np.zeros((3, 3, 3))),
        )
        emb = sphere_embedding(1.0, 3, spatial_only=True)

        def nu(u):
            t, p = float(u[0]), float(u[1])
            return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])

        u = np.array([math.pi / 2, 0.0])  # point (1, 0, 0): tangent dirs e_y, e_z
        tp, tm = initial_data_expansions(data, emb, nu, u)
        tr_sigma = 0.2 + 0.5
        assert tp == pytest.approx(tr_sigma + 2.0, rel=1e-12)
        assert tm == pytest.approx(tr_sigma - 2.0, rel=1e-12)

    def test_rejects_bad_normal(self):
        ss = MINK.slice_surfaces["sphere"]
        with pytest.raises(NotUnitNormal):
            initial_data_expansions(
                MINK.initial_data, ss.embedding, lambda u: 2.0 * ss.nu(u), np.array([1.0, 1.0])
            )

    def test_cross_module_contract_with_spacetime_frames(self):
        # slice picture vs codimension-2 spacetime picture, matched frames
        cases = [
            (MINK, "sphere", "sphere", np.array([0.9, 2.0])),
            (CYL, "equator", "equator", np.array([1.3])),
            (SCHW, "sphere", "sphere", np.array([1.1, 0.6])),
        ]
        for sc, st_name, sl_name, u in cases:
            emb = sc.embeddings[st_name]
            data = extrinsic_data(emb, sc.metric, u)
            fr, _ = null_frame(emb, data, sc.time_orientation(data.H.base), u)
            # theta_+- = -g(H, l+-)
            tp_st, tm_st = (-data.metric.inner(data.H.components, leg.components)
                            for leg in (fr.l_plus, fr.l_minus))
            surf = sc.slice_surfaces[sl_name]
            tp_id, tm_id = initial_data_expansions(sc.initial_data, surf.embedding, surf.nu, u)
            assert tp_st == pytest.approx(tp_id, abs=1e-8)
            assert tm_st == pytest.approx(tm_id, abs=1e-8)


class TestMotsClassify:
    def test_outer_trapped(self):
        assert mots_classify([-0.1, -0.2, -0.3]) is MotsLabel.OUTER_TRAPPED

    def test_mots(self):
        assert mots_classify([0.0, 1e-12, -1e-12]) is MotsLabel.MOTS

    def test_weakly_outer_trapped(self):
        assert mots_classify([-0.1, 0.0, -0.5]) is MotsLabel.WEAKLY_OUTER_TRAPPED

    def test_mixed_signs(self):
        assert mots_classify([-0.1, 0.2]) is MotsLabel.NONE

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mots_classify([])
