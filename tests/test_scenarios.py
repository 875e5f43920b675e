import numpy as np
import pytest

from traplab.errors import BadParams, UnknownScenario
from traplab.geometry import check_time_orientation
from traplab.initial_data import initial_data_expansions
from traplab.scenarios import build_scenario, scenario_names
from traplab.submanifold import extrinsic_data


def test_scenario_names_and_errors():
    assert "minkowski" in scenario_names()
    with pytest.raises(UnknownScenario):
        build_scenario("kerr")
    with pytest.raises(BadParams):
        build_scenario("schwarzschild_slice_isotropic", {"mass": -1.0})
    with pytest.raises(BadParams):
        build_scenario("einstein_cylinder", {"n": 5})


@pytest.mark.parametrize("name, params, unread", [
    ("minkowski", {"mass": 5, "bogus": 1}, "bogus, mass"),
    ("minkowski", {"dim": 3, "radius": 2.0}, "radius"),  # only the dim-4 spheres take a radius
    ("einstein_cylinder", {"m": 3}, "m"),
    ("flrw_dust", {"radius": 1.0}, "radius"),
])
def test_unread_parameter_is_refused(name, params, unread):
    with pytest.raises(BadParams, match=f"^{name} reads no parameter {unread}$"):
        build_scenario(name, params)


def test_every_read_parameter_is_taken():
    build_scenario("schwarzschild_slice_isotropic",
                   {"mass": 2.0, "radius": 0.5, "spacetime_sphere_radius": 1.5})
    build_scenario("minkowski_torus_quotient", {"m": 2, "samples_per_axis": 3})
    build_scenario("einstein_cylinder", {"n": 3, "equator_samples": 4})
    build_scenario("minkowski", {"dim": 4, "radius": 2.0})


@pytest.mark.parametrize("name", ["minkowski", "schwarzschild_slice_isotropic"])
@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_nonpositive_sphere_radius_is_refused(name, radius):
    with pytest.raises(BadParams, match="radius must be positive"):
        build_scenario(name, {"radius": radius})


def test_minkowski_flat_everywhere():
    sc = build_scenario("minkowski", {"dim": 4})
    for p in (np.zeros(4), np.array([1.0, -2.0, 0.5, 3.0])):
        m = sc.metric(p)
        assert np.abs(m.g - np.diag([-1.0, 1, 1, 1])).max() == 0.0
        assert np.abs(m.dg).max() == 0.0
        check_time_orientation(m, sc.time_orientation(p))


@pytest.mark.parametrize(
    "name,params",
    [
        ("minkowski", {}),
        ("minkowski_torus_quotient", {"m": 3}),
        ("einstein_cylinder", {"n": 2}),
        ("einstein_cylinder", {"n": 3}),
        ("schwarzschild_slice_isotropic", {}),
    ],
)
def test_all_shipped_embeddings_spacelike(name, params):
    sc = build_scenario(name, params)
    for emb in sc.embeddings.values():
        for u in emb.sample_set:
            extrinsic_data(emb, sc.metric, u)  # raises NotSpacelike on failure
    if sc.initial_data is not None:
        for surf in sc.slice_surfaces.values():
            for u in surf.embedding.sample_set:
                extrinsic_data(surf.embedding, sc.initial_data.h_field, u)


@pytest.mark.parametrize(
    "name,params",
    [
        ("minkowski_torus_quotient", {"m": 3}),
        ("einstein_cylinder", {"n": 2}),
        ("einstein_cylinder", {"n": 3}),
        ("schwarzschild_slice_isotropic", {}),
    ],
)
def test_mots_candidates_have_vanishing_outward_expansion(name, params):
    sc = build_scenario(name, params)
    found = 0
    for surf in sc.slice_surfaces.values():
        if not surf.mots_candidate:
            continue
        found += 1
        for u in surf.embedding.sample_set:
            tp, _ = initial_data_expansions(sc.initial_data, surf.embedding, surf.nu, u)
            assert abs(tp) < 1e-8
    assert found >= 1


def test_quotient_periodicity():
    sc = build_scenario("minkowski_torus_quotient", {"m": 3})
    p = np.array([0.3, 0.2, 0.9, 0.5])
    shifted = p + np.array([0.0, 1.0, 2.0, -1.0])
    assert np.array_equal(sc.metric(p).g, sc.metric(shifted).g)
    assert sc.periods == (None, 1.0, 1.0, 1.0)


def test_cylinder_metric_jets_match_fd_oracle():
    from _oracles import fd_metric_derivatives

    for n in (2, 3):
        sc = build_scenario("einstein_cylinder", {"n": n})
        p = np.array([0.2, 1.1, 0.8, 2.0])[: n + 1]
        m = sc.metric(p)
        dg_fd = fd_metric_derivatives(lambda x: sc.metric(x).g, p)
        assert np.abs(m.dg - dg_fd).max() < 1e-8
        ddg_fd = fd_metric_derivatives(lambda x: sc.metric(x).dg, p, h=1e-5)
        assert np.abs(m.ddg - ddg_fd).max() < 1e-8


def test_schwarzschild_spacetime_static_and_vacuum():
    from traplab.geometry import ricci

    sc = build_scenario("schwarzschild_slice_isotropic", {"mass": 1.0})
    p = np.array([0.7, 1.2, -0.4, 0.8])
    m = sc.metric(p)
    assert m.g[0, 0] < 0
    assert np.abs(ricci(m)).max() < 1e-10
    # static: time translation leaves the jet unchanged
    q = p.copy()
    q[0] = -2.0
    assert np.array_equal(sc.metric(q).g, m.g)


def test_schwarzschild_spacetime_jets_match_fd_oracle():
    from _oracles import fd_metric_derivatives

    sc = build_scenario("schwarzschild_slice_isotropic", {"mass": 1.0})
    p = np.array([0.0, 0.9, 0.7, -0.5])
    m = sc.metric(p)
    dg_fd = fd_metric_derivatives(lambda x: sc.metric(x).g, p)
    assert np.abs(m.dg - dg_fd).max() < 1e-8
    ddg_fd = fd_metric_derivatives(lambda x: sc.metric(x).dg, p, h=1e-5)
    assert np.abs(m.ddg - ddg_fd).max() < 1e-6


def test_flrw_requires_positive_time():
    sc = build_scenario("flrw_dust", {})
    with pytest.raises(BadParams):
        sc.metric(np.array([-0.5, 0, 0, 0]))


def test_sphere_embedding_jets_match_fd():
    from _oracles import fd_metric_derivatives

    sc = build_scenario("minkowski", {})
    u = np.array([0.9, 1.7])
    # the 4-d sphere and the spatial-only sphere of the slice
    for emb in (sc.embeddings["sphere"], sc.slice_surfaces["sphere"].embedding):
        _, d, dd = emb.at(u)
        # fd_metric_derivatives puts the parameter derivative first
        d_fd = np.moveaxis(fd_metric_derivatives(lambda uu: emb.jet(uu)[0], u), 0, -1)
        assert np.abs(d - d_fd).max() < 1e-7
        dd_fd = np.moveaxis(fd_metric_derivatives(lambda uu: emb.jet(uu)[1], u), 0, -1)
        assert np.abs(dd - dd_fd).max() < 1e-8
