"""Built-in analytic spacetime and initial-data families with exact jets.

Every scenario supplies closed-form metric 2-jets, a time-orientation field,
named embeddings with declared outward directions, and (where applicable)
initial data for a distinguished slice.  Signature is (-, +, ..., +)
throughout.  These families are the single source of ground-truth geometry
for the verification suites:

* ``minkowski``: flat spacetime, round spheres and coordinate planes.
* ``minkowski_torus_quotient``: flat spacetime with compact spatial axes;
  ships the extremal codimension-2 torus {t = x1 = 0} and the flat slice.
* ``einstein_cylinder``: product of a time line with a unit round sphere;
  ships the totally geodesic slice and the equator, a marginally outer
  trapped surface whose stability operator is computed exactly.
* ``schwarzschild_slice_isotropic``: time-symmetric vacuum data in isotropic
  coordinates plus the static exterior spacetime; the minimal sphere at
  r = mass/2 is the marginally outer trapped candidate.
* ``flrw_dust``: decelerating cosmology with strictly positive Ricci form on
  causal directions, exercising the strict energy predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParams, UnknownScenario
from .geometry import MetricJet2, Signature, TangentVector, norm, stacked
from .initial_data import InitialData, zero_K_field
from .jets import Jet1, elementwise, radial_hessian
from .submanifold import EmbeddingJet2

MetricField = Callable[[np.ndarray], MetricJet2]
VectorField = Callable[[np.ndarray], TangentVector]


@dataclass
class SliceSurface:
    """Hypersurface of the initial-data slice with its outward unit normal."""

    embedding: EmbeddingJet2
    nu: Callable[[np.ndarray], np.ndarray]
    mots_candidate: bool = False
    # intrinsic scalar curvature of the surface, needed by the stability
    # operator (identically zero for one-dimensional surfaces)
    scal_sigma: Callable[[np.ndarray], float] = lambda u: 0.0
    measure: Optional[float] = None
    injectivity_scale: float = 1.0
    # period of the curve parameter for one-dimensional surfaces
    param_period: float = 2.0 * math.pi


@dataclass
class Scenario:
    name: str
    dim: int
    metric: Optional[MetricField] = None
    time_orientation: Optional[VectorField] = None
    periods: Optional[tuple[Optional[float], ...]] = None
    embeddings: dict[str, EmbeddingJet2] = field(default_factory=dict)
    initial_data: Optional[InitialData] = None
    slice_surfaces: dict[str, SliceSurface] = field(default_factory=dict)
    # a callable is called on the first read, the way MetricJet2 forms a deferred ddg
    energy_points: list[np.ndarray] | Callable[[], list[np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if callable(self.energy_points):
            self._draw_points = vars(self).pop("energy_points")

    def __getattr__(self, name):
        # reached only for attributes not set: ``energy_points`` given as a callable
        if name != "energy_points" or "_draw_points" not in vars(self):
            raise AttributeError(name)
        self.energy_points = self._draw_points()
        return self.energy_points

    def require_spacetime(self):
        if self.metric is None:
            raise BadParams(f"scenario {self.name} has no spacetime metric")
        return self.metric


def _flat_field(dim: int, signature: Signature = Signature.LORENTZIAN) -> MetricField:
    g = np.eye(dim)
    g[0, 0] = -1.0 if signature is Signature.LORENTZIAN else 1.0
    return lambda p: MetricJet2.constant(stacked(g, np.shape(p)[:-1]), signature)


def _coordinate_time_field(dim: int) -> VectorField:
    e0 = np.eye(dim)[0]

    def field(p):
        p = np.asarray(p, dtype=float)
        return TangentVector(p, stacked(e0, p.shape[:-1]))

    return field


def _latlong_samples(n_theta: int, n_phi: int) -> np.ndarray:
    thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    return np.array([(t, p) for t in thetas for p in phis])


def _grid_samples(count_per_axis: int, dims: int) -> np.ndarray:
    axes = [np.arange(count_per_axis) / count_per_axis for _ in range(dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _sphere_trig(u: np.ndarray):
    """sin theta, sin phi, cos theta and cos phi of (..., 2) sphere parameters."""
    u = np.asarray(u, dtype=float)
    s, c = np.sin(u), np.cos(u)
    return s[..., 0], s[..., 1], c[..., 0], c[..., 1]


def _unit_radial(u: np.ndarray, ambient_dim: int = 3, offset: int = 0) -> np.ndarray:
    """Outward unit radial vector of the round 2-sphere at (..., 2) parameters,
    in the three Euclidean components from ``offset`` on."""
    st, sp, ct, cp = _sphere_trig(u)
    out = np.zeros(np.shape(st) + (ambient_dim,))
    out[..., offset], out[..., offset + 1], out[..., offset + 2] = st * cp, st * sp, ct
    return out


def sphere_embedding(radius: float, ambient_dim: int, spatial_only: bool = False) -> EmbeddingJet2:
    """Round 2-sphere embedding, either into the {t = 0} slice of a
    4-dimensional spacetime or directly into 3-space (``spatial_only``)."""
    offset = 0 if spatial_only else 1
    ex, ey, ez = range(offset, offset + 3)

    def jet(u):
        # each entry is r sin theta or r cos theta times the phi factor, in
        # that order, which fixes its last bit
        st, sp, ct, cp = _sphere_trig(u)
        rs, rc = radius * st, radius * ct
        x, d, dd = (np.zeros(np.shape(rs) + (ambient_dim,) + (2,) * k) for k in range(3))
        x[..., ex], x[..., ey], x[..., ez] = rs * cp, rs * sp, rc
        d[..., ex, 0], d[..., ex, 1] = rc * cp, -rs * sp
        d[..., ey, 0], d[..., ey, 1] = rc * sp, rs * cp
        d[..., ez, 0] = -rs
        dd[..., ex, 0, 0] = dd[..., ex, 1, 1] = -rs * cp
        dd[..., ex, 0, 1] = dd[..., ex, 1, 0] = -rc * sp
        dd[..., ey, 0, 0] = dd[..., ey, 1, 1] = -rs * sp
        dd[..., ey, 0, 1] = dd[..., ey, 1, 0] = rc * cp
        dd[..., ez, 0, 0] = -rc
        return x, d, dd

    return EmbeddingJet2(
        sigma_dim=2,
        ambient_dim=ambient_dim,
        jet=jet,
        sample_set=_latlong_samples(6, 8),
        outward=lambda u: _unit_radial(u, ambient_dim, offset),
        name=f"sphere_r{radius:g}",
    )


def coordinate_plane_embedding(
    ambient_dim: int,
    fixed_axes: tuple[int, ...],
    samples: np.ndarray,
    outward_axis: int,
    fixed_values: Optional[tuple[float, ...]] = None,
) -> EmbeddingJet2:
    """Affine coordinate submanifold {x^a = const for a in fixed_axes}."""
    free = [a for a in range(ambient_dim) if a not in fixed_axes]
    sigma_dim = len(free)
    values = fixed_values if fixed_values is not None else (0.0,) * len(fixed_axes)
    d = np.eye(ambient_dim)[:, free]
    dd = np.zeros((ambient_dim, sigma_dim, sigma_dim))
    e_out = np.eye(ambient_dim)[outward_axis]

    def jet(u):
        u = np.asarray(u, dtype=float)
        x = np.zeros(u.shape[:-1] + (ambient_dim,))
        x[..., list(fixed_axes)] = values
        x[..., free] = u
        return x, stacked(d, u.shape[:-1]), stacked(dd, u.shape[:-1])

    return EmbeddingJet2(
        sigma_dim=sigma_dim,
        ambient_dim=ambient_dim,
        jet=jet,
        sample_set=samples,
        outward=lambda u: stacked(e_out, np.shape(u)[:-1]),
        name=f"plane_fixed{fixed_axes}",
    )


# --- round sphere jets -----------------------------------------------------

def round_sphere_jet(n: int, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Metric 2-jet of the unit round n-sphere in nested polar coordinates,
    at angles of shape (..., n).

    g_ii = a_i = prod_{j<i} sin^2(theta_j); valid away from the coordinate poles.
    """
    angles = np.asarray(angles, dtype=float)
    shape = angles.shape[:-1]
    sin2 = np.sin(angles) ** 2
    # derivatives only ever involve the first n-1 angles (k < i), so the
    # last angle may sit at a coordinate zero without harm
    cot = np.cos(angles[..., : n - 1]) / np.sin(angles[..., : n - 1])
    cot2 = elementwise(lambda c: c**2, cot)
    csc2 = 1.0 / sin2[..., : n - 1]
    a = np.ones(shape + (n,))
    np.multiply.accumulate(sin2[..., :-1], axis=-1, out=a[..., 1:])
    g = np.zeros(shape + (n, n))
    dg = np.zeros(shape + (n,) * 3)
    ddg = np.zeros(shape + (n,) * 4)
    for i in range(n):
        a_i = a[..., i]
        g[..., i, i] = a_i
        # d_k a_i = 2 cot_k a_i and the second derivatives, for k, l < i
        for k in range(i):
            dg[..., k, i, i] = a_i * 2.0 * cot[..., k]
            for l in range(i):
                ddg[..., l, k, i, i] = (a_i * (4.0 * cot2[..., k] - 2.0 * csc2[..., k]) if l == k
                                        else a_i * 4.0 * cot[..., k] * cot[..., l])
    return g, dg, ddg


def _cylinder_metric_field(n: int) -> MetricField:
    dim = n + 1

    def metric(p: np.ndarray) -> MetricJet2:
        p = np.asarray(p, dtype=float)
        gs, dgs, ddgs = round_sphere_jet(n, p[..., 1:])
        shape = p.shape[:-1]
        g = np.zeros(shape + (dim, dim))
        g[..., 0, 0] = -1.0
        g[..., 1:, 1:] = gs
        dg = np.zeros(shape + (dim,) * 3)
        dg[..., 1:, 1:, 1:] = dgs
        ddg = np.zeros(shape + (dim,) * 4)
        ddg[..., 1:, 1:, 1:, 1:] = ddgs
        return MetricJet2(dim, g, dg, ddg, Signature.LORENTZIAN)

    return metric


def _sphere_slice_field(n: int) -> MetricField:
    def metric(p: np.ndarray) -> MetricJet2:
        g, dg, ddg = round_sphere_jet(n, p)
        return MetricJet2(n, g, dg, ddg, Signature.RIEMANNIAN)

    return metric


def _circle_samples(n_samples: int) -> np.ndarray:
    return (np.arange(n_samples) * (2.0 * math.pi) / n_samples).reshape(-1, 1)


# --- scenario builders -----------------------------------------------------

def _build_minkowski(params: dict) -> Scenario:
    dim = int(params.pop("dim", 4))
    if dim < 2:
        raise BadParams("minkowski needs dim >= 2")
    sc = Scenario(
        name="minkowski",
        dim=dim,
        metric=_flat_field(dim),
        time_orientation=_coordinate_time_field(dim),
        energy_points=lambda: [np.zeros(dim), 0.1 * np.arange(1, dim + 1., dtype=float)],
    )
    slice_dim = dim - 1
    if slice_dim >= 2:  # a metric jet needs dimension at least 2
        sc.initial_data = InitialData(
            dim=slice_dim,
            h_field=_flat_field(slice_dim, Signature.RIEMANNIAN),
            K_field=zero_K_field(slice_dim),
        )
    if dim == 4:
        radius = float(params.pop("radius", 1.0))
        if radius <= 0:
            raise BadParams("radius must be positive")
        sc.embeddings["sphere"] = sphere_embedding(radius, dim)
        sc.embeddings["plane"] = coordinate_plane_embedding(
            dim, (0, 1), _grid_samples(4, 2), outward_axis=1
        )
        slice_sphere = sphere_embedding(radius, slice_dim, spatial_only=True)
        sc.slice_surfaces["sphere"] = SliceSurface(
            embedding=slice_sphere,
            nu=_unit_radial,
            mots_candidate=False,
            scal_sigma=lambda u: 2.0 / radius**2,
            measure=4.0 * math.pi * radius**2,
        )
    return sc


def _build_torus_quotient(params: dict) -> Scenario:
    m = int(params.pop("m", 3))
    if m < 2:
        raise BadParams("torus quotient needs at least 2 spatial dimensions")
    dim = m + 1
    periods = (None,) + (1.0,) * m

    def energy_points():  # the one random draw of a scenario, made on the first read
        rng = np.random.default_rng(7)
        return [np.concatenate(([0.0], rng.uniform(0, 1, m))) for _ in range(3)]

    sc = Scenario(
        name="minkowski_torus_quotient",
        dim=dim,
        metric=_flat_field(dim),
        time_orientation=_coordinate_time_field(dim),
        periods=periods,
        energy_points=energy_points,
    )
    per_axis = int(params.pop("samples_per_axis", 8))
    sigma_samples = _grid_samples(per_axis, m - 1)
    sc.embeddings["Sigma"] = coordinate_plane_embedding(dim, (0, 1), sigma_samples, outward_axis=1)
    sc.initial_data = InitialData(
        dim=m,
        h_field=_flat_field(m, Signature.RIEMANNIAN),
        K_field=zero_K_field(m),
    )
    slice_sigma = coordinate_plane_embedding(m, (0,), sigma_samples, outward_axis=0)
    e_nu = np.eye(m)[0]
    sc.slice_surfaces["Sigma"] = SliceSurface(
        embedding=slice_sigma,
        nu=lambda u: e_nu,
        mots_candidate=True,
        measure=1.0,
        injectivity_scale=0.5,
        param_period=1.0,
    )
    return sc


def _build_einstein_cylinder(params: dict) -> Scenario:
    n = int(params.pop("n", 2))
    if n not in (2, 3):
        raise BadParams("einstein_cylinder supports sphere dimension n in {2, 3}")
    dim = n + 1
    sc = Scenario(
        name="einstein_cylinder",
        dim=dim,
        metric=_cylinder_metric_field(n),
        time_orientation=_coordinate_time_field(dim),
        periods=(None,) * n + (2.0 * math.pi,),
        energy_points=lambda: [np.array(p) for p in (
            ((0.0, math.pi / 3.0, 0.3), (0.4, 2.0, 1.1)) if n == 2
            else ((0.0, math.pi / 3.0, math.pi / 2.5, 0.3), (0.4, 2.0, 1.1, 1.0)))],
    )
    sc.initial_data = InitialData(dim=n, h_field=_sphere_slice_field(n), K_field=zero_K_field(n))
    n_samples = int(params.pop("equator_samples", 16))
    # the equator {t = 0, theta_1 = pi/2}: a circle of the 2-sphere, a 2-sphere of the 3-sphere
    samples = _circle_samples(n_samples) if n == 2 else _latlong_samples(5, 8)
    sc.embeddings["equator"] = coordinate_plane_embedding(
        dim, (0, 1), samples, outward_axis=1, fixed_values=(0.0, math.pi / 2.0))
    sc.slice_surfaces["equator"] = SliceSurface(
        embedding=coordinate_plane_embedding(
            n, (0,), samples, outward_axis=0, fixed_values=(math.pi / 2.0,)),
        nu=lambda u: np.eye(n)[0],
        mots_candidate=True,
        scal_sigma=lambda u: 0.0 if n == 2 else 2.0,
        measure=(2.0 if n == 2 else 4.0) * math.pi,
        injectivity_scale=math.pi / 2.0,
    )
    return sc


def _schwarzschild_psi4(mass: float, r: float) -> Jet1:
    rj = Jet1.variable(r)
    psi = Jet1.const(1.0) + Jet1.const(mass / 2.0) / rj
    return psi**4


def _schwarzschild_lapse_sq(mass: float, r: float) -> Jet1:
    rj = Jet1.variable(r)
    half = Jet1.const(mass / 2.0) / rj
    num = Jet1.const(1.0) - half
    den = Jet1.const(1.0) + half
    return (num / den) ** 2


def _build_schwarzschild(params: dict) -> Scenario:
    mass = float(params.pop("mass", 1.0))
    if mass <= 0:
        raise BadParams("mass must be positive")
    slice_dim = 3
    dim = 4

    eye = np.eye(slice_dim)

    def h_field(p: np.ndarray) -> MetricJet2:
        p = np.asarray(p, dtype=float)
        v, grad, hess = radial_hessian(_schwarzschild_psi4(mass, norm(p)), p)
        g = np.asarray(v)[..., None, None] * eye
        dg = grad[..., :, None, None] * eye
        ddg = hess[..., :, :, None, None] * eye
        return MetricJet2(slice_dim, g, dg, ddg, Signature.RIEMANNIAN)

    def metric(p: np.ndarray) -> MetricJet2:
        p = np.asarray(p, dtype=float)
        x = p[..., 1:]
        r = norm(x)
        v4, grad4, hess4 = radial_hessian(_schwarzschild_psi4(mass, r), x)
        vn, gradn, hessn = radial_hessian(_schwarzschild_lapse_sq(mass, r), x)
        shape = p.shape[:-1]
        g = np.zeros(shape + (dim, dim))
        g[..., 0, 0] = -vn
        g[..., 1:, 1:] = np.asarray(v4)[..., None, None] * eye
        dg = np.zeros(shape + (dim,) * 3)
        ddg = np.zeros(shape + (dim,) * 4)
        dg[..., 1:, 0, 0] = -gradn
        ddg[..., 1:, 1:, 0, 0] = -hessn
        dg[..., 1:, 1:, 1:] += grad4[..., :, None, None] * eye
        ddg[..., 1:, 1:, 1:, 1:] += hess4[..., :, :, None, None] * eye
        return MetricJet2(dim, g, dg, ddg, Signature.LORENTZIAN)

    sc = Scenario(
        name="schwarzschild_slice_isotropic",
        dim=dim,
        metric=metric,
        time_orientation=_coordinate_time_field(dim),
        energy_points=lambda: [
            np.array([0.0, 0.9, 0.0, 0.0]),
            np.array([0.0, 0.7, 1.1, 0.4]),
            np.array([0.0, -0.3, 0.5, 1.6]),
        ],
    )
    sc.initial_data = InitialData(dim=slice_dim, h_field=h_field, K_field=zero_K_field(slice_dim))

    def add_sphere(name: str, r0: float, candidate: bool):
        emb = sphere_embedding(r0, slice_dim, spatial_only=True)
        psi_sq = (1.0 + mass / (2.0 * r0)) ** 2

        def nu(u):
            return _unit_radial(u) / psi_sq

        area_radius = psi_sq * r0
        sc.slice_surfaces[name] = SliceSurface(
            embedding=emb,
            nu=nu,
            mots_candidate=candidate,
            scal_sigma=lambda u: 2.0 / area_radius**2,
            measure=4.0 * math.pi * area_radius**2,
        )

    radius = float(params.pop("radius", 1.0))
    if radius <= 0:
        raise BadParams("radius must be positive")
    add_sphere("horizon_sphere", mass / 2.0, True)
    add_sphere("sphere", radius, False)
    # the static chart degenerates at r = mass/2 (vanishing lapse), so the
    # horizon surface is only carried on the slice; spacetime spheres must
    # stay outside it
    exterior_r = float(params.pop("spacetime_sphere_radius", 1.0))
    if exterior_r <= mass / 2.0:
        raise BadParams("spacetime sphere radius must exceed mass/2")
    sc.embeddings["sphere"] = sphere_embedding(exterior_r, dim)
    return sc


def _build_flrw_dust(params: dict) -> Scenario:
    dim = int(params.pop("dim", 4))
    if dim < 3:
        raise BadParams("flrw_dust needs dim >= 3")
    ns = dim - 1

    def metric(p: np.ndarray) -> MetricJet2:
        t = np.asarray(p, dtype=float)[..., 0]
        if np.count_nonzero(t <= 0):
            raise BadParams("flrw_dust chart requires t > 0")
        a2 = elementwise(lambda v: v ** (4.0 / 3.0), t)
        da2 = (4.0 / 3.0) * elementwise(lambda v: v ** (1.0 / 3.0), t)
        dda2 = (4.0 / 9.0) * elementwise(lambda v: v ** (-2.0 / 3.0), t)
        g = np.eye(dim) * np.asarray(a2)[..., None, None]
        g[..., 0, 0] = -1.0
        dg = np.zeros(t.shape + (dim,) * 3)
        ddg = np.zeros(t.shape + (dim,) * 4)
        for i in range(1, dim):
            dg[..., 0, i, i] = da2
            ddg[..., 0, 0, i, i] = dda2
        return MetricJet2(dim, g, dg, ddg, Signature.LORENTZIAN)

    return Scenario(
        name="flrw_dust",
        dim=dim,
        metric=metric,
        time_orientation=_coordinate_time_field(dim),
        energy_points=lambda: [
            np.concatenate(([0.8], np.zeros(ns))),
            np.concatenate(([1.0], 0.3 * np.ones(ns))),
            np.concatenate(([1.4], np.linspace(0, 1, ns))),
        ],
    )


# each builder pops the parameters it reads from its own copy of the dict
_BUILDERS = {
    "minkowski": _build_minkowski,
    "minkowski_torus_quotient": _build_torus_quotient,
    "einstein_cylinder": _build_einstein_cylinder,
    "schwarzschild_slice_isotropic": _build_schwarzschild,
    "flrw_dust": _build_flrw_dust,
}


def scenario_names() -> list[str]:
    return sorted(_BUILDERS)


def build_scenario(name: str, params: Optional[dict] = None) -> Scenario:
    """Construct a named scenario; raises UnknownScenario / BadParams, the
    latter also for a parameter the scenario does not read or a closed form
    that overflows a float."""
    if name not in _BUILDERS:
        raise UnknownScenario(f"unknown scenario {name!r}; available: {scenario_names()}")
    unread = dict(params or {})
    try:
        sc = _BUILDERS[name](unread)
    except OverflowError:
        given = ", ".join(f"{k} = {v!r}" for k, v in sorted((params or {}).items()))
        raise BadParams(f"{name} with {given or 'its defaults'}: a closed form overflows a float") from None
    if unread:
        raise BadParams(f"{name} reads no parameter {', '.join(sorted(map(str, unread)))}")
    return sc
