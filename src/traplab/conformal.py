"""Conformal rescaling of metric jets and explicit perturbation sequences.

The rescaled metric ``e^{2f} g`` is built with exact product and chain rules
from the 2-jet of ``f``, so all transformation laws can be verified at
rounding accuracy: the connection law, the mean-curvature law

    H_hat = e^{-2f} H - m e^{-2f} (grad f)^perp,

and its scalar product.  On top of these sit the two perturbation sequences
used to convert borderline configurations into strict ones: a bump-localized
temporal rescaling that makes a weakly trapped surface strictly trapped, and
point-localized rescalings of the flat metric that push the curvature
quadratic form negative along chosen causal planes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import submanifold
from .errors import NotWeaklyTrapped
from .geometry import (
    MetricJet2,
    TangentVector,
    asymmetric,
    norm,
    riemann,
    riem_quadform,
    stacked,
)
from .jets import Jet1, elementwise, radial_hessian, smoothstep_down

ScalarField = Callable[[np.ndarray], "ScalarJet2"]
MetricField = Callable[[np.ndarray], MetricJet2]
# (n, sample) points per stacked call of ``trapping_sequence``: one stack of all 32 n
# of the torus suite (2,048 points) ran slower than 256-point stacks (suite minima on a
# 2-vCPU host, 19.4-20.9 against 16.7-19.5 ms) and raised its traced peak from 1.7 to 5.4 MB
STACK_POINTS = 256


@dataclass
class ScalarJet2:
    """Scalar value with gradient and symmetric Hessian at a point, or at each
    point of a stack (``value`` of shape (...), ``grad`` (..., n), ``hess``
    (..., n, n))."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        self.grad = np.asarray(self.grad, dtype=float)
        self.hess = np.asarray(self.hess, dtype=float)
        if asymmetric(self.hess, (-1, -2), 1e-10, 2):
            raise ValueError("Hessian must be symmetric")

    @classmethod
    def constant(cls, c: float, dim: int) -> "ScalarJet2":
        return cls(float(c), np.zeros(dim), np.zeros((dim, dim)))

    def __mul__(self, other):
        if isinstance(other, ScalarJet2):
            a, b = np.asarray(self.value)[..., None], np.asarray(other.value)[..., None]
            return ScalarJet2(
                self.value * other.value,
                a * other.grad + b * self.grad,
                a[..., None] * other.hess
                + b[..., None] * self.hess
                + self.grad[..., :, None] * other.grad[..., None, :]
                + other.grad[..., :, None] * self.grad[..., None, :],
            )
        c = np.asarray(other)[..., None]  # one factor, or one per point of a stack
        return ScalarJet2(self.value * other, self.grad * c, self.hess * c[..., None])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


@dataclass
class BumpProfile:
    """Radial cutoff profile: identically 1 inside, identically 0 outside.

    ``axes`` restricts the distance to a coordinate subspace, which turns the
    ball profile into a tube around a coordinate submanifold; ``periods``
    (aligned with ``axes``) measures distances modulo the given period on
    quotient charts.
    """

    inner_radius: float
    outer_radius: float
    center: np.ndarray
    axes: tuple[int, ...] | None = None
    periods: tuple[float | None, ...] | None = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not (0.0 < self.inner_radius < self.outer_radius):
            raise ValueError("need 0 < inner_radius < outer_radius")
        if self.periods is not None and self.axes is not None and len(self.periods) != len(self.axes):
            raise ValueError("periods must align with axes")


def bump(profile: BumpProfile, p: np.ndarray) -> ScalarJet2:
    """Evaluate the mollifier bump with exact gradient and Hessian at p of
    shape (..., dim)."""
    p = np.asarray(p, dtype=float)
    dim = p.shape[-1]
    axes = np.array(profile.axes if profile.axes is not None else range(dim))
    if profile.periods is not None and len(profile.periods) != len(axes):
        raise ValueError("periods must align with the distance axes")
    offset = p[..., axes] - profile.center[axes]
    if profile.periods is not None:
        for i, period in enumerate(profile.periods):
            if period is not None:
                offset[..., i] -= period * np.round(offset[..., i] / period)
    r = norm(offset)
    # exactly 1 inside and 0 outside, with zero derivatives
    value = np.where(r <= profile.inner_radius, 1.0, 0.0)
    grad = np.zeros(p.shape)
    hess = np.zeros(p.shape + (dim,))
    band = (r > profile.inner_radius) & (r < profile.outer_radius)
    if np.count_nonzero(band):
        width = profile.outer_radius - profile.inner_radius
        s = smoothstep_down((r - profile.inner_radius) / width)
        # reparametrize the step jet from s to r, then from r to coordinates
        radial = Jet1(s.f, s.d1 / width, s.d2 / width**2)
        step, sub_grad, sub_hess = radial_hessian(radial, offset)
        value = np.where(band, step, value)
        grad[..., axes] = np.where(band[..., None], sub_grad, 0.0)
        hess[..., axes[:, None], axes] = np.where(band[..., None, None], sub_hess, 0.0)
    return ScalarJet2(value, grad, hess)


def bump_field(profile: BumpProfile) -> ScalarField:
    return lambda p: bump(profile, p)


def coordinate_scalar_field(axis: int, dim: int, scale: float = 1.0) -> ScalarField:
    """The field p -> scale * p[axis] with its exact jet."""
    grad = np.zeros(dim)
    grad[axis] = scale

    def f(p: np.ndarray) -> ScalarJet2:
        p = np.asarray(p, dtype=float)
        shape = p.shape[:-1]
        return ScalarJet2(
            scale * p[..., axis], stacked(grad, shape), np.zeros(shape + (dim, dim))
        )

    return f


def quadratic_scalar_field(c0: float, b: np.ndarray, c: np.ndarray) -> ScalarField:
    """Field c0 + b.p + p.C.p (C symmetrized), with exact jet; for coefficient
    stacks c0 (...), b (..., n), C (..., n, n) it takes one point per set."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    c = 0.5 * (c + np.swapaxes(c, -1, -2))

    def f(p: np.ndarray) -> ScalarJet2:
        p = np.asarray(p, dtype=float)
        value = c0 + np.vecdot(p, b) + np.vecdot(np.vecmat(p, c), p)
        hess = np.broadcast_to(2.0 * c, p.shape[:-1] + c.shape[-2:]).copy()
        return ScalarJet2(value, b + np.matvec(2.0 * c, p), hess)

    return f


def product_field(f: ScalarField, g: ScalarField) -> ScalarField:
    return lambda p: f(p) * g(p)


def scaled_field(f: ScalarField, factor: float) -> ScalarField:
    return lambda p: f(p) * factor


def rescale_metric(m: MetricJet2, f: ScalarJet2) -> MetricJet2:
    """Conformal rescaling e^{2f} g with jets from exact product/chain rules, ddg on first read."""
    w = elementwise(math.exp, 2.0 * f.value)
    w2, w3, w4 = (np.asarray(w).reshape(np.shape(w) + (1,) * k) for k in (2, 3, 4))
    fg = 2.0 * f.grad
    dg_over_w = fg[..., :, None, None] * m.g[..., None, :, :] + m.dg
    return MetricJet2(m.dim, w2 * m.g, w3 * dg_over_w, lambda: w4 * (
        fg[..., :, None, None, None] * dg_over_w[..., None, :, :, :]
        + 2.0 * f.hess[..., :, :, None, None] * m.g[..., None, None, :, :]
        + fg[..., None, :, None, None] * m.dg[..., :, None, :, :]
        + m.ddg
    ), m.signature)


def rescaled_metric_field(m_field: MetricField, f_field: ScalarField) -> MetricField:
    return lambda p: rescale_metric(m_field(p), f_field(p))


def metric_gradient(m: MetricJet2, f: ScalarJet2) -> np.ndarray:
    """Contravariant gradient components of f for the metric m."""
    return np.matvec(m.inverse(), f.grad)


def conformal_mean_curvature(
    h: TangentVector,
    f: ScalarJet2,
    m_dim_sigma: int,
    m: MetricJet2,
    normal_projector: np.ndarray,
) -> TangentVector:
    """Mean curvature vector after rescaling by e^{2f}, at one point or a stack.

    Applies H_hat = e^{-2f} (H - m (grad f)^perp) where m is the submanifold
    dimension and perp the projection onto the normal space of the original
    metric.
    """
    grad_perp = np.matvec(normal_projector, metric_gradient(m, f))
    w = np.expand_dims(elementwise(math.exp, -2.0 * f.value), -1)
    return TangentVector(h.base, w * (h.components - m_dim_sigma * grad_perp))


def conformal_H_normsq(
    h: TangentVector,
    f: ScalarJet2,
    m_dim_sigma: int,
    m: MetricJet2,
    normal_projector: np.ndarray,
) -> float:
    """Scalar product of the rescaled mean curvature in the rescaled metric."""
    grad = metric_gradient(m, f)
    grad_perp = np.matvec(normal_projector, grad)
    w = elementwise(math.exp, -2.0 * f.value)
    return w * (
        m.inner(h.components, h.components)
        - 2.0 * m_dim_sigma * m.inner(h.components, grad)
        + m_dim_sigma**2 * m.inner(grad_perp, grad_perp)
    )


@dataclass
class TrappingPerturbationResult:
    n: int
    metric_field: MetricField
    u: np.ndarray
    gn_H_H: np.ndarray
    gn_H_X: np.ndarray
    label: submanifold.TrappingLabel  # the trapping_classify label of metric_field
    input_label: submanifold.TrappingLabel  # the trapping_classify label of the input metric


def trapping_perturbation(
    m_field: MetricField, sigma: "submanifold.EmbeddingJet2", x_field: submanifold.VectorField,
    tau_field: ScalarField, profile: BumpProfile, n: int,
) -> TrappingPerturbationResult:
    """The one-element ``trapping_sequence`` of n."""
    return trapping_sequence(m_field, sigma, x_field, tau_field, profile, [n])[0]


def trapping_sequence(
    m_field: MetricField, sigma: "submanifold.EmbeddingJet2", x_field: submanifold.VectorField,
    tau_field: ScalarField, profile: BumpProfile, ns,
) -> list[TrappingPerturbationResult]:
    """Rescale by e^{2 (phi tau) / n} and recompute trapping data on Sigma, for each n of ``ns``.

    ``tau_field`` must have future-directed timelike gradient where the bump
    is active, and the input surface must satisfy the closed trapping inequalities
    (the closed mask of ``submanifold._trapping_bands``); the output metric then
    satisfies the strict ones at every sample, with values shrinking like 1/n.
    The input is checked once, and its label (``input_label``) comes from the
    check's data.  Its metric jets and the exponent phi tau at the samples serve
    every n: each stack of at most ``STACK_POINTS`` (n, sample) points rescales
    those jets by the exponent times a 1/n column, for one ``extrinsic_data``
    call that also decides each result's ``trapping_classify`` label.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("no n given to rescale by")
    if any(n < 1 for n in ns):
        raise ValueError("n must be a positive integer")
    samples = sigma.sample_set
    jets = sigma.at(samples)
    data, x, hh, hx = submanifold._trapping_data(sigma, m_field, x_field, jets)
    p = data.H.base
    m = data.metric
    tau = tau_field(p)
    grad_tau = metric_gradient(m, tau)
    h_aux = data.H.aux_norm()
    not_weak = ~submanifold._trapping_bands(hh, hx, h_aux)[1]
    not_future = (m.inner(grad_tau, grad_tau) >= 0) | (m.inner(grad_tau, x.components) >= 0)
    # report the first failing sample, the closed inequalities before tau
    first = int(np.argmax(not_weak | not_future))
    if not_weak[first]:
        raise NotWeaklyTrapped(
            f"input violates the closed trapping inequalities at u={samples[first]}: "
            f"g(H,H)={hh[first]:.3e}, g(H,X)={hx[first]:.3e}"
        )
    if not_future[first]:
        raise ValueError("tau gradient must be future-directed timelike on the surface")
    # after the check, so that an input it refuses never reaches theta_+
    input_label = submanifold._trapping_label(
        hh, hx, h_aux, lambda: submanifold._theta_plus(sigma, data, x))

    f = bump(profile, p) * tau
    exponent = product_field(bump_field(profile), tau_field)
    rows = []
    step = max(1, STACK_POINTS // len(samples))
    for i in range(0, len(ns), step):
        scale = 1.0 / np.asarray(ns[i : i + step], dtype=float)[:, None]
        # extrinsic_data evaluates its field exactly at the samples' chart points
        stack, _, stack_hh, stack_hx = submanifold._trapping_data(
            sigma, lambda _: rescale_metric(m, f * scale), lambda _: x, jets)
        rows += zip(stack_hh, stack_hx, submanifold._trapping_label(
            stack_hh, stack_hx, stack.H.aux_norm(), lambda: submanifold._theta_plus(sigma, stack, x)))
    return [
        TrappingPerturbationResult(
            n, rescaled_metric_field(m_field, scaled_field(exponent, 1.0 / n)), samples, *row, input_label)
        for n, row in zip(ns, rows)
    ]


class CurvatureCase(enum.Enum):
    TIMELIKE_V = "timelike"
    NULL_V_SPACELIKE_W = "null-spacelike"
    NULL_V_NULL_W = "null-null"


def _case_fields(case: CurvatureCase, dim: int):
    e = np.eye(dim)
    if case is CurvatureCase.TIMELIKE_V:
        # profile exp(t), growing along the timelike direction of v
        def xi(p: np.ndarray) -> ScalarJet2:
            v = np.asarray(elementwise(math.exp, np.asarray(p, dtype=float)[..., 0]))
            return ScalarJet2(v, v[..., None] * e[0], v[..., None, None] * np.outer(e[0], e[0]))

        return xi, e[0], e[1]
    # the null profiles (t + x1)^2 and t^2
    zero = np.zeros(dim)
    if case is CurvatureCase.NULL_V_SPACELIKE_W:
        s = e[0] + e[1]
        return quadratic_scalar_field(0.0, zero, np.outer(s, s)), s, e[2]
    if case is CurvatureCase.NULL_V_NULL_W:
        return quadratic_scalar_field(0.0, zero, np.outer(e[0], e[0])), e[0] + e[1], e[0] - e[1]
    raise ValueError(f"unknown case {case}")


def curvature_perturbation(case: CurvatureCase, n: int, dim: int = 4) -> float:
    """Measured curvature quadratic form R(w, v, v, w) of the rescaled flat metric.

    The rescaling exponent is the case profile divided by n, cut off by a
    bump that is identically 1 around the origin where the form is evaluated.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if dim < 4 and case is not CurvatureCase.TIMELIKE_V:
        raise ValueError("null cases need dimension at least 4")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    xi, v, w = _case_fields(case, dim)
    profile = BumpProfile(inner_radius=0.5, outer_radius=1.0, center=np.zeros(dim))
    f_field = scaled_field(product_field(bump_field(profile), xi), 1.0 / n)
    origin = np.zeros(dim)
    gn = rescale_metric(MetricJet2.flat(dim), f_field(origin))
    r = riemann(gn)
    return riem_quadform(r, gn, TangentVector(origin, w), TangentVector(origin, v))


def curvature_perturbation_reference(case: CurvatureCase, n: int) -> float:
    """Published closed-form reference values for the three perturbation cases.

    Note: for the null-v / spacelike-w case the reference constant is
    -4/n * g(w, w), while direct computation of the rescaled curvature gives
    -8/n * g(w, w) (the quadratic profile contributes its full Hessian,
    including the cross term, to the form along v).  The verification suite
    keeps the reference as published and reports the mismatch.
    """
    if case is CurvatureCase.TIMELIKE_V:
        return -math.exp(2.0 / n) / n
    if case is CurvatureCase.NULL_V_SPACELIKE_W:
        return -4.0 / n
    if case is CurvatureCase.NULL_V_NULL_W:
        return -8.0 / n
    raise ValueError(f"unknown case {case}")
