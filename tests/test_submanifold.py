import ast
import math
from pathlib import Path

import numpy as np
import pytest

from traplab.conformal import (
    ScalarJet2,
    coordinate_scalar_field,
    quadratic_scalar_field,
    rescaled_metric_field,
)
from traplab.errors import NotSpacelike
from traplab.scenarios import build_scenario, coordinate_plane_embedding, sphere_embedding
from traplab.submanifold import (
    CLASSIFY_TOL,
    EmbeddingJet2,
    TrappingLabel,
    extrinsic_data,
    null_frame,
    _trapping_label,
    trapping_classify,
)

MINK = build_scenario("minkowski", {})
TORUS = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4})
CYL = build_scenario("einstein_cylinder", {"n": 2})


class TestExtrinsicData:
    def test_coordinate_plane_is_totally_geodesic(self):
        data = extrinsic_data(MINK.embeddings["plane"], MINK.metric, np.array([0.2, 0.7]))
        assert np.abs(data.II).max() == 0.0
        assert data.H.aux_norm() == 0.0

    def test_round_sphere_mean_curvature(self):
        # oracle: |H| = 2/r pointing toward the center
        for r in (1.0, 2.5):
            emb = sphere_embedding(r, 4)
            u = np.array([1.1, 0.4])
            data = extrinsic_data(emb, MINK.metric, u)
            m = MINK.metric(data.H.base)
            norm = math.sqrt(m.inner(data.H.components, data.H.components))
            assert norm == pytest.approx(2.0 / r, rel=1e-12)
            outward = emb.outward(u)
            assert m.inner(data.H.components, outward) < 0  # toward the center
            assert abs(data.H.components[0]) < 1e-14  # spacelike, no time part

    def test_equator_circle_totally_geodesic(self):
        data = extrinsic_data(CYL.embeddings["equator"], CYL.metric, np.array([0.8]))
        assert data.H.aux_norm() < 1e-14

    def test_carries_metric_jet_at_base(self):
        data = extrinsic_data(CYL.embeddings["equator"], CYL.metric, np.array([0.8]))
        jet = CYL.metric(data.H.base)
        assert data.metric.signature is jet.signature
        for name in ("g", "dg", "ddg"):
            assert np.array_equal(getattr(data.metric, name), getattr(jet, name))

    def test_induced_metric_spacelike_check(self):
        timelike_plane = coordinate_plane_embedding(4, (2, 3), np.zeros((1, 2)), outward_axis=2)
        with pytest.raises(NotSpacelike):
            extrinsic_data(timelike_plane, MINK.metric, np.array([0.0, 0.0]))

    def test_H_in_normal_span(self, rng):
        emb = sphere_embedding(1.3, 4)
        for _ in range(5):
            u = emb.sample_set[rng.integers(0, len(emb.sample_set))]
            data = extrinsic_data(emb, MINK.metric, u)
            # H is fixed by the projector onto the normal space
            h = data.H.components
            assert np.abs(data.normal_projector @ h - h).max() < 1e-9

    def test_reparametrization_invariance(self, rng):
        # H at a fixed geometric point is unchanged by a chart change
        emb = sphere_embedding(1.0, 4)
        a = np.array([[1.3, 0.4], [-0.2, 0.9]])

        def jet(u):
            x, d, dd = emb.jet(a @ u)
            return x, d @ a, np.einsum("aij,ik,jl->akl", dd, a, a)

        reparam = EmbeddingJet2(2, 4, jet, emb.sample_set)
        for _ in range(5):
            u = np.array([0.9, 0.8]) + 0.1 * rng.normal(size=2)
            direct = extrinsic_data(emb, MINK.metric, a @ u)
            via = extrinsic_data(reparam, MINK.metric, u)
            assert np.abs(direct.H.components - via.H.components).max() < 1e-8


class TestNullFrame:
    def test_torus_frame(self):
        emb, u = TORUS.embeddings["Sigma"], np.array([0.2, 0.5])
        data = extrinsic_data(emb, TORUS.metric, u)
        fr, oriented = null_frame(emb, data, TORUS.time_orientation(data.H.base), u)
        assert oriented
        assert np.allclose(fr.l_plus.components, [1, 1, 0, 0])
        assert np.allclose(fr.l_minus.components, [1, -1, 0, 0])

    def test_sphere_frame_and_invariants(self):
        emb = MINK.embeddings["sphere"]
        u = np.array([0.9, 2.2])
        data = extrinsic_data(emb, MINK.metric, u)
        fr, _ = null_frame(emb, data, MINK.time_orientation(data.H.base), u)
        m = MINK.metric(fr.l_plus.base)
        for leg in (fr.l_plus, fr.l_minus):
            assert abs(m.inner(leg.components, leg.components)) < 1e-10
            # future-directed
            assert m.inner(leg.components, np.array([1.0, 0, 0, 0])) < 0
        assert m.inner(fr.l_plus.components, fr.l_minus.components) == pytest.approx(-2.0)
        # l+- = dt +- outward radial unit
        radial = emb.outward(u)
        assert np.abs(fr.l_plus.components - (np.eye(4)[0] + radial)).max() < 1e-10

    def test_codimension_guard(self):
        # a hypersurface has no null frame, so its record carries no theta_+
        hypersurface = coordinate_plane_embedding(4, (0,), np.zeros((1, 3)), outward_axis=0)
        out = trapping_classify(hypersurface, MINK.metric, MINK.time_orientation)
        assert [r.theta_plus for r in out.per_point] == [None]

    def test_degenerate_outward_reference(self):
        emb = coordinate_plane_embedding(4, (0, 1), np.zeros((1, 2)), outward_axis=2)
        u = np.array([0.0, 0.0])
        data = extrinsic_data(emb, MINK.metric, u)
        assert not null_frame(emb, data, MINK.time_orientation(data.H.base), u)[1]

    def test_conformal_rescaling_preserves_directions(self, rng):
        emb = MINK.embeddings["sphere"]
        u = np.array([1.4, 0.7])
        data = extrinsic_data(emb, MINK.metric, u)
        base, _ = null_frame(emb, data, MINK.time_orientation(data.H.base), u)
        f_field = quadratic_scalar_field(0.3, rng.normal(size=4) * 0.2,
                                         rng.normal(size=(4, 4)) * 0.1)
        hat = rescaled_metric_field(MINK.metric, f_field)
        data = extrinsic_data(emb, hat, u)
        fr, _ = null_frame(emb, data, MINK.time_orientation(data.H.base), u)
        for a, b in ((fr.l_plus, base.l_plus), (fr.l_minus, base.l_minus)):
            cross = np.outer(a.components, b.components)
            cross = cross - cross.T
            assert np.abs(cross).max() < 1e-9 * a.aux_norm() * b.aux_norm() + 1e-12


class TestNullExpansions:
    def test_extremal_surface_zero(self):
        emb = TORUS.embeddings["Sigma"]
        u = np.array([0.3, 0.9])
        data = extrinsic_data(emb, TORUS.metric, u)
        fr, _ = null_frame(emb, data, TORUS.time_orientation(data.H.base), u)
        for leg in (fr.l_plus, fr.l_minus):
            assert -data.metric.inner(data.H.components, leg.components) == 0.0

    def test_round_sphere_values(self):
        # oracle by substitution: theta_+- = -g(H, dt +- nu) = +-2/r
        for r in (1.0, 2.0):
            emb = sphere_embedding(r, 4)
            u = np.array([0.7, 1.9])
            data = extrinsic_data(emb, MINK.metric, u)
            fr, _ = null_frame(emb, data, MINK.time_orientation(data.H.base), u)
            tp, tm = (-data.metric.inner(data.H.components, leg.components)
                      for leg in (fr.l_plus, fr.l_minus))
            assert tp == pytest.approx(2.0 / r, rel=1e-12)
            assert tm == pytest.approx(-2.0 / r, rel=1e-12)

    def test_product_identity_with_mean_curvature_norm(self, rng):
        # with g(l+, l-) = -2: g(H, H) = -theta_+ theta_-
        emb = MINK.embeddings["sphere"]
        for _ in range(20):
            f_field = quadratic_scalar_field(
                rng.normal() * 0.3, rng.normal(size=4) * 0.3, rng.normal(size=(4, 4)) * 0.15
            )
            hat = rescaled_metric_field(MINK.metric, f_field)
            u = emb.sample_set[rng.integers(0, len(emb.sample_set))]
            data = extrinsic_data(emb, hat, u)
            fr, _ = null_frame(emb, data, MINK.time_orientation(data.H.base), u)
            tp, tm = (-data.metric.inner(data.H.components, leg.components)
                      for leg in (fr.l_plus, fr.l_minus))
            m = hat(data.H.base)
            hh = m.inner(data.H.components, data.H.components)
            assert hh == pytest.approx(-tp * tm, rel=1e-8, abs=1e-10)

    def test_mots_configuration_h_parallel_to_l_plus(self):
        # exponent with future-null gradient along -(dt + d1): the rescaled
        # torus surface has theta_+ = 0 with H past-directed null
        c = 0.4
        f_field = lambda p: ScalarJet2(
            c * (p[1] - p[0]), np.array([-c, c, 0.0, 0.0]), np.zeros((4, 4))
        )
        hat = rescaled_metric_field(TORUS.metric, f_field)
        emb = TORUS.embeddings["Sigma"]
        u = np.array([0.4, 0.6])
        data = extrinsic_data(emb, hat, u)
        fr, _ = null_frame(emb, data, TORUS.time_orientation(data.H.base), u)
        tp, tm = (-data.metric.inner(data.H.components, leg.components)
                  for leg in (fr.l_plus, fr.l_minus))
        assert abs(tp) < 1e-12
        assert tm < -1e-3
        m = hat(data.H.base)
        # H is null and parallel to l+
        assert abs(m.inner(data.H.components, data.H.components)) < 1e-12
        cross = np.outer(data.H.components, fr.l_plus.components)
        assert np.abs(cross - cross.T).max() < 1e-10


def _records_label(hh, hx, aux, theta):
    """The decision order over one row, read record by record."""
    tol = CLASSIFY_TOL
    if all(a < -tol and b > tol for a, b in zip(hh, hx)):
        return TrappingLabel.TRAPPED
    if all(c <= tol for c in aux):
        return TrappingLabel.EXTREMAL
    if all(t is not None and abs(t) <= tol for t in theta):
        return TrappingLabel.MOTS
    if all(a <= tol and b >= -tol for a, b in zip(hh, hx)):
        return TrappingLabel.WEAKLY_TRAPPED
    return TrappingLabel.NOT_WEAKLY_TRAPPED


def test_stacked_label_rule_is_the_record_rule():
    # one row per label, each sample on or beside the band edge; theta_+ is read
    # only for a stack with a row that is neither trapped nor extremal
    tol, edge = CLASSIFY_TOL, np.nextafter(CLASSIFY_TOL, 1.0)
    hh = np.array([[-edge, -1.0], [0.0, 0.0], [-1.0, tol], [tol, -1.0], [edge, -1.0], [0.0, 0.0]])
    hx = np.array([[edge, 1.0], [0.0, 0.0], [1.0, 0.0], [-tol, 1.0], [0.0, 1.0], [0.0, 0.0]])
    aux = np.array([[1.0, 1.0], [tol, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [edge, 1.0]])
    values = np.array([[0.0, 0.0], [0.0, 0.0], [tol, -tol], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    oriented = np.array([[True, True]] * 5 + [[True, False]])
    labels = _trapping_label(hh, hx, aux, lambda: (values, oriented))
    theta = [[t if ok else None for t, ok in zip(*row)] for row in zip(values, oriented)]
    assert list(labels) == [_records_label(*row) for row in zip(hh, hx, aux, theta)]
    assert list(labels) == [
        TrappingLabel.TRAPPED, TrappingLabel.EXTREMAL, TrappingLabel.MOTS,
        TrappingLabel.WEAKLY_TRAPPED, TrappingLabel.NOT_WEAKLY_TRAPPED,
        TrappingLabel.WEAKLY_TRAPPED,
    ]
    assert _trapping_label(hh[2:4], hx[2:4], aux[2:4], lambda: None)[0] is TrappingLabel.WEAKLY_TRAPPED
    assert _trapping_label(hh[:2], hx[:2], aux[:2], pytest.fail).tolist() == [
        TrappingLabel.TRAPPED, TrappingLabel.EXTREMAL]


def test_classify_tol_is_read_in_one_function():
    # the trapping band has one home: every load of the name, bare or as an attribute,
    # is charged to its innermost enclosing function, or to its module outside any
    readers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = f"{where.split('.')[0]}.{getattr(node, 'name', '<lambda>')}"
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "CLASSIFY_TOL" and isinstance(node.ctx, ast.Load):
            readers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "traplab").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert readers == {"submanifold._trapping_bands"}


class TestTrappingClassify:
    def test_torus_extremal(self):
        out = trapping_classify(TORUS.embeddings["Sigma"], TORUS.metric, TORUS.time_orientation)
        assert out.label is TrappingLabel.EXTREMAL

    def test_one_extrinsic_evaluation_per_sample(self, monkeypatch):
        from traplab import submanifold

        # points evaluated: the leading-axis size of each call's parameters
        calls = []
        original = submanifold.extrinsic_data

        def counted(*args, **kwargs):
            calls.append(int(np.prod(np.shape(args[-1])[:-1])))
            return original(*args, **kwargs)

        monkeypatch.setattr(submanifold, "extrinsic_data", counted)
        emb = TORUS.embeddings["Sigma"]
        out = trapping_classify(emb, TORUS.metric, TORUS.time_orientation)
        assert len(out.per_point) == len(emb.sample_set)
        assert calls == [len(emb.sample_set)]
        assert all(r.theta_plus is not None for r in out.per_point)

    def test_sphere_not_weakly_trapped(self):
        out = trapping_classify(MINK.embeddings["sphere"], MINK.metric, MINK.time_orientation)
        assert out.label is TrappingLabel.NOT_WEAKLY_TRAPPED

    def test_perturbed_torus_trapped(self):
        from traplab.conformal import BumpProfile, trapping_perturbation

        tau = coordinate_scalar_field(0, 4, scale=-1.0)
        profile = BumpProfile(0.2, 0.45, np.zeros(4), axes=(0, 1), periods=(None, 1.0))
        res = trapping_perturbation(
            TORUS.metric, TORUS.embeddings["Sigma"], TORUS.time_orientation, tau, profile, 1
        )
        out = trapping_classify(TORUS.embeddings["Sigma"], res.metric_field, TORUS.time_orientation)
        assert out.label is TrappingLabel.TRAPPED

    def test_mots_class_never_not_weakly_trapped(self):
        # theta_+ = 0 everywhere forces the marginal class even when H is
        # future-directed at some points
        c = 0.4
        f_field = lambda p: ScalarJet2(
            c * (p[..., 1] - p[..., 0]), np.array([-c, c, 0.0, 0.0]), np.zeros((4, 4))
        )
        hat = rescaled_metric_field(TORUS.metric, f_field)
        out = trapping_classify(TORUS.embeddings["Sigma"], hat, TORUS.time_orientation)
        assert out.label is TrappingLabel.MOTS
        assert all(r.theta_plus is not None and abs(r.theta_plus) < 1e-10 for r in out.per_point)

    def test_conformal_consistency_of_classification(self, rng):
        # classification under the rescaled field equals classification with
        # the mean curvature transported by the conformal formula
        from traplab.conformal import conformal_H_normsq, conformal_mean_curvature

        emb = TORUS.embeddings["Sigma"]
        for _ in range(20):
            f_field = quadratic_scalar_field(
                rng.normal() * 0.2, rng.normal(size=4) * 0.2, rng.normal(size=(4, 4)) * 0.1
            )
            hat = rescaled_metric_field(TORUS.metric, f_field)
            direct = trapping_classify(emb, hat, TORUS.time_orientation)
            # formula-path per-point signs
            labels_match = True
            for rec, u in zip(direct.per_point, emb.sample_set):
                data = extrinsic_data(emb, TORUS.metric, u)
                p = data.H.base
                m, f = TORUS.metric(p), f_field(p)
                h_hat = conformal_mean_curvature(data.H, f, 2, m, data.normal_projector)
                sq = conformal_H_normsq(data.H, f, 2, m, data.normal_projector)
                m_hat = hat(p)
                x = TORUS.time_orientation(p)
                if abs(sq - rec.g_H_H) > 1e-8 * max(1.0, abs(sq)):
                    labels_match = False
                if abs(m_hat.inner(h_hat.components, x.components) - rec.g_H_X) > 1e-8:
                    labels_match = False
            assert labels_match
