"""Extrinsic geometry of embedded spacelike submanifolds.

Embeddings are supplied as 2-jets of the parametrization: one callable
returns the chart point with its first and second parameter derivatives.
From those and the ambient metric jet we build the induced metric, the shape
tensor (normal projection of ambient accelerations of the coordinate frame),
the mean curvature vector as its induced-metric trace, null normal frames in
codimension two, and the pointwise/aggregate trapping classification with its
null expansion theta_+.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ImmersionFailure, NonTimelikeOrientation, NotSpacelike
from .geometry import MetricJet2, TangentVector, flat2, norm

MetricField = Callable[[np.ndarray], MetricJet2]
VectorField = Callable[[np.ndarray], TangentVector]

CLASSIFY_TOL = 1e-9


@dataclass
class EmbeddingJet2:
    """Parametrized submanifold with first and second parameter derivatives.

    ``jet(u)`` returns the ambient chart coordinates of a parameter tuple,
    the (ambient, sigma) Jacobian and the (ambient, sigma, sigma) second
    derivatives.  Given parameters of shape (..., sigma) the three arrays have
    the same leading axes.  ``outward`` optionally declares a reference
    ambient vector used to orient normal frames.
    """

    sigma_dim: int
    ambient_dim: int
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    sample_set: np.ndarray
    outward: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        self.sample_set = np.atleast_2d(np.asarray(self.sample_set, dtype=float))
        if self.ambient_dim - self.sigma_dim < 1:
            raise ValueError("codimension must be at least 1")

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.sigma_dim

    def at(self, u: np.ndarray):
        """Chart point, Jacobian and second derivatives at parameter u, or at
        each parameter of a (..., sigma) stack."""
        u = np.asarray(u, dtype=float)
        x, d, dd = (np.asarray(a, dtype=float) for a in self.jet(u))
        sv = np.linalg.svd(d, compute_uv=False)
        bad = sv[..., -1] <= 1e-10 * np.maximum(sv[..., 0], 1.0)
        if np.count_nonzero(bad):
            raise ImmersionFailure(f"embedding Jacobian rank-deficient at u={u[bad][0]}")
        return x, d, dd


@dataclass
class ExtrinsicData:
    """Extrinsic geometry at one parameter, or at each parameter of a stack
    (every array then has the stack's leading axes), with the ambient metric
    jet at ``H.base`` it was computed from."""

    induced: np.ndarray
    induced_inv: np.ndarray
    tangent: np.ndarray
    II: np.ndarray
    H: TangentVector
    normal_projector: np.ndarray
    metric: MetricJet2


@dataclass
class NullFrame:
    l_plus: TangentVector
    l_minus: TangentVector


class TrappingLabel(enum.Enum):
    TRAPPED = "trapped"
    WEAKLY_TRAPPED = "weakly_trapped"
    MOTS = "mots"
    EXTREMAL = "extremal"
    NOT_WEAKLY_TRAPPED = "not_weakly_trapped"


# the labels in the decision order of ``trapping_classify``, then the one where no rule holds
_DECISION_ORDER = np.array([TrappingLabel.TRAPPED, TrappingLabel.EXTREMAL, TrappingLabel.MOTS,
                            TrappingLabel.WEAKLY_TRAPPED, TrappingLabel.NOT_WEAKLY_TRAPPED])


@dataclass
class PointTrappingRecord:
    u: np.ndarray
    g_H_H: float
    g_H_X: float
    H_aux: float
    theta_plus: Optional[float] = None


@dataclass
class TrappingClass:
    label: TrappingLabel
    per_point: list[PointTrappingRecord] = field(default_factory=list)


def extrinsic_data(e: EmbeddingJet2, m_field: MetricField, u: np.ndarray, jets=None) -> ExtrinsicData:
    """Induced metric, shape tensor and mean curvature vector at parameter u,
    or at each parameter of a (B, sigma) stack with one metric-field call.

    The shape tensor is the normal projection of the ambient covariant
    acceleration of the coordinate frame; the mean curvature vector is its
    trace against the inverse induced metric, so it is independent of the
    parametrization.  A field may return jets stacked over the points (one
    per n of ``trapping_sequence``); the data then carry that leading axis,
    ``H.base`` broadcast to it.  ``jets`` is ``e.at(u)`` if already at hand.
    """
    u = np.asarray(u, dtype=float)
    x, d, dd = e.at(u) if jets is None else jets
    m = m_field(x)
    g = m.g
    d_t = np.swapaxes(d, -1, -2)
    # an overflowing product is caught below as a non-finite induced metric
    with np.errstate(over="ignore", invalid="ignore"):
        induced = d_t @ g @ d
    eigs = np.linalg.eigvalsh(induced)
    bad = ~np.isfinite(induced).all(axis=(-2, -1)) | (
        eigs.min(axis=-1) <= 1e-12 * np.maximum(1.0, np.abs(eigs.max(axis=-1))))
    if np.count_nonzero(bad):
        u = np.broadcast_to(u, bad.shape + u.shape[-1:])
        raise NotSpacelike(f"induced metric not positive definite at u={u[bad][0]}")
    induced_inv = np.linalg.inv(induced)
    gam = m.connection()
    accel = dd + d_t[..., None, :, :] @ gam @ d[..., None, :, :]
    p_tan = d @ induced_inv @ d_t @ g
    p_norm = np.eye(m.dim) - p_tan
    ii = (p_norm @ flat2(accel)).reshape(accel.shape)
    h_comps = np.matvec(flat2(ii), flat2(induced_inv))
    return ExtrinsicData(
        induced=induced,
        induced_inv=induced_inv,
        tangent=d,
        II=ii,
        H=TangentVector(np.broadcast_to(x, h_comps.shape), h_comps),
        normal_projector=p_norm,
        metric=m,
    )


def null_frame(
    e: EmbeddingJet2, data: ExtrinsicData, xv: TangentVector, u: np.ndarray
) -> tuple[NullFrame, np.ndarray]:
    """Future-directed null normal frame with g(l+, l-) = -2, l+ outward, at
    parameter u or at each parameter of a (B, sigma) stack, from the extrinsic
    data ``data`` there and the time orientation ``xv`` at ``data.H.base``.

    Needs codimension 2 and an outward reference.  The timelike leg is the
    normalized normal projection of xv; the spacelike leg is the normalized
    normal projection of the outward reference.  The mask returned with the
    frame is False where that reference degenerates in the normal space (the
    frame is meaningless there).
    """
    x = data.H.base
    m = data.metric
    x_perp = np.matvec(data.normal_projector, xv.components)
    q = m.inner(x_perp, x_perp)
    if np.count_nonzero(q >= 0):
        raise NonTimelikeOrientation("normal projection of X is not timelike")
    n_t = x_perp / np.sqrt(-q)[..., None]
    ref = np.asarray(e.outward(u), dtype=float)
    w = np.matvec(data.normal_projector, ref)
    w = w + m.inner(w, n_t)[..., None] * n_t
    s = m.inner(w, w)
    oriented = s > 1e-12 * np.maximum(1.0, norm(ref) ** 2)
    n_s = w / np.sqrt(np.where(oriented, s, 1.0))[..., None]
    return NullFrame(
        l_plus=TangentVector(x, n_t + n_s),
        l_minus=TangentVector(x, n_t - n_s),
    ), oriented


def _trapping_data(e: EmbeddingJet2, m_field: MetricField, x_field: VectorField, jets=None):
    """Extrinsic data, the time orientation X, g(H, H) and g(H, X) at every
    sample of ``e`` (for each jet of a field that stacks jets over the
    samples), from one ``extrinsic_data`` and one ``x_field`` call."""
    data = extrinsic_data(e, m_field, e.sample_set, jets=jets)
    xv = x_field(data.H.base)
    h = data.H.components
    return data, xv, data.metric.inner(h, h), data.metric.inner(h, xv.components)


def trapping_classify(
    e: EmbeddingJet2,
    m_field: MetricField,
    x_field: VectorField,
) -> TrappingClass:
    """Classify the trapping type of the surface over its sample set.

    Decision order with the band of ``_trapping_bands``: strictly trapped
    everywhere, else extremal (H vanishes everywhere), else marginally outer
    trapped (theta_+ vanishes everywhere, codimension 2 only), else weakly
    trapped when the closed inequalities hold everywhere, else not weakly
    trapped.  theta_+ is None at samples where the outward reference
    degenerates.
    """
    u = e.sample_set
    data, xv, hh, hx = _trapping_data(e, m_field, x_field)
    h_aux, theta = data.H.aux_norm(), _theta_plus(e, data, xv)
    theta_plus = [None] * len(u) if theta is None else [t if ok else None for t, ok in zip(*theta)]
    records = [
        PointTrappingRecord(u=s, g_H_H=a, g_H_X=b, H_aux=c, theta_plus=t)
        for s, a, b, c, t in zip(u, hh, hx, h_aux, theta_plus)
    ]
    return TrappingClass(_trapping_label(hh, hx, h_aux, lambda: theta), records)


def _theta_plus(e: EmbeddingJet2, data: ExtrinsicData, xv: TangentVector):
    """theta_+ = -g(H, l+) at each sample of ``data`` with the mask of ``null_frame``,
    or None without a null frame (codimension other than 2, or no outward reference)."""
    if e.codim != 2 or e.outward is None:
        return None
    frame, oriented = null_frame(e, data, xv, e.sample_set)
    return -data.metric.inner(data.H.components, frame.l_plus.components), oriented


def _trapping_bands(hh, hx, h_aux):
    """Per-sample masks with the band CLASSIFY_TOL: the strict and the closed trapping
    inequalities, and |H|_aux within the band (|theta_+| for the MOTS rule)."""
    tol = CLASSIFY_TOL
    return (hh < -tol) & (hx > tol), (hh <= tol) & (hx >= -tol), h_aux <= tol


def _trapping_label(hh, hx, h_aux, theta_plus):
    """The label of ``trapping_classify`` for each row of a stack of g(H, H), g(H, X)
    and |H|_aux, samples on the last axis: the ``_trapping_bands`` masks reduced in the
    decision order.  ``theta_plus()``, the ``_theta_plus`` pair or None, is called only
    when a row is neither trapped nor extremal, the rows whose label reads it."""
    trapped, weak, extremal = (np.all(mask, axis=-1) for mask in _trapping_bands(hh, hx, h_aux))
    theta = None if np.all(trapped | extremal) else theta_plus()
    mots = theta is not None and np.all(theta[1] & _trapping_bands(hh, hx, np.abs(theta[0]))[2], axis=-1)
    return _DECISION_ORDER[np.where(trapped, 0, np.where(extremal, 1, np.where(mots, 2, np.where(weak, 3, 4))))]
