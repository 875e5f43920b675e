"""Pointwise connection and curvature from metric 2-jets, and causal classification.

A metric 2-jet carries the metric components together with their first and
second coordinate derivatives at a point.  Everything downstream (curvature,
extrinsic geometry, constraint quantities) is exact algebra on these jets, so
scenarios that supply closed-form derivatives get curvature at rounding-error
accuracy.

Index conventions used throughout:

* ``dg[k, i, j]``  is the first derivative  d_k g_ij,
* ``ddg[l, k, i, j]``  is the second derivative  d_l d_k g_ij,
* ``christoffel(m)[k, i, j]``  is the connection coefficient with upper
  index first,
* ``riemann(m).R[i, j, k, l]``  is the covariant curvature component
  R(e_i, e_j, e_k, e_l)  with the sign fixed so that the quadratic form
  ``R(w, v, v, w)`` is positive on orthonormal pairs of the unit round
  sphere.

Signature is (-, +, ..., +) for Lorentzian metrics.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CollinearPair,
    NonTimelikeOrientation,
    SingularMetric,
    ZeroVector,
)

# Condition-number ceiling for metric inversion.
COND_LIMIT = 1e12

# Scale-aware band declaring g(v,v) to be zero (null vector).
NULL_TOL = 1e-10

# Tolerance for the curvature symmetry checks on the exact-jet path.
SYMMETRY_TOL = 1e-9


class Signature(enum.Enum):
    LORENTZIAN = "lorentzian"
    RIEMANNIAN = "riemannian"


class CausalClass(enum.Enum):
    TIMELIKE_FUTURE = "timelike_future"
    TIMELIKE_PAST = "timelike_past"
    NULL_FUTURE = "null_future"
    NULL_PAST = "null_past"
    SPACELIKE = "spacelike"
    ZERO = "zero"


@dataclass
class TangentVector:
    """Vector attached to a chart point, or to each point of a stack;
    ``components`` in coordinate basis."""

    base: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.components = np.asarray(self.components, dtype=float)
        if self.base.shape != self.components.shape:
            raise ValueError("base point and components must share the dimension")

    @property
    def dim(self) -> int:
        return self.base.shape[-1]

    def aux_norm(self) -> float:
        """Euclidean norm of the components (auxiliary, metric-independent)."""
        return norm(self.components)


@dataclass
class MetricJet2:
    """Metric with first and second coordinate derivatives at a point, or at
    each point of a stack.

    Parameters
    ----------
    g : (..., dim, dim) array
        Metric components, symmetric.
    dg : (..., dim, dim, dim) array
        First derivatives, ``dg[..., k, i, j] = d_k g_ij``.
    ddg : (..., dim, dim, dim, dim) array
        Second derivatives, ``ddg[..., l, k, i, j] = d_l d_k g_ij``.
    signature : Signature
        Lorentzian metrics must have exactly one negative eigenvalue,
        Riemannian metrics must be positive definite.

    Leading axes stack points; a jet with no leading axis is one point, and
    every check below holds at each point of a stack.  ``cond`` is the 2-norm
    condition number of g at each point, taken from the eigenvalues the
    signature check computes (the singular values of a symmetric matrix are
    the absolute eigenvalues).
    """

    dim: int
    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray
    signature: Signature = Signature.LORENTZIAN
    cond: np.ndarray = field(init=False, repr=False, compare=False)
    _inverse: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _connection: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.dg = np.asarray(self.dg, dtype=float)
        self.ddg = np.asarray(self.ddg, dtype=float)
        n = self.dim
        if n < 2:
            raise ValueError("dimension must be at least 2")
        points = self.g.shape[:-2]
        if (self.g.shape != points + (n, n) or self.dg.shape != points + (n,) * 3
                or self.ddg.shape != points + (n,) * 4):
            raise ValueError("jet array shapes inconsistent with dim")
        for a, axes, rel, what in (
            (self.g, (-1, -2), 1e-12, "metric matrix must be symmetric"),
            (self.dg, (-1, -2), 1e-10, "dg must be symmetric in (i, j)"),
            (self.ddg, (-1, -2), 1e-10, "ddg must be symmetric in (i, j)"),
            (self.ddg, (-3, -4), 1e-10, "ddg must be symmetric in (k, l)"),
        ):
            if asymmetric(a, axes, rel, a.ndim - len(points)):
                raise ValueError(what)
        # ascending eigenvalues: one negative then positive ones, or all positive
        eigs = np.linalg.eigvalsh(self.g)
        if self.signature is Signature.LORENTZIAN:
            if np.count_nonzero(~((eigs[..., 0] < 0) & (eigs[..., 1] > 0))):
                raise ValueError("Lorentzian metric needs exactly one negative eigenvalue")
        elif np.count_nonzero(~(eigs[..., 0] > 0)):
            raise ValueError("Riemannian metric must be positive definite")
        abs_eigs = np.abs(eigs)
        self.cond = np.maximum.reduce(abs_eigs, axis=-1) / np.minimum.reduce(abs_eigs, axis=-1)

    @classmethod
    def flat(cls, dim: int, signature: Signature = Signature.LORENTZIAN) -> "MetricJet2":
        g = np.eye(dim)
        if signature is Signature.LORENTZIAN:
            g[0, 0] = -1.0
        return cls.constant(g, signature)

    @classmethod
    def constant(cls, g: np.ndarray, signature: Signature = Signature.LORENTZIAN) -> "MetricJet2":
        g = np.asarray(g, dtype=float)
        n = g.shape[-1]
        return cls(n, g, np.zeros(g.shape + (n,)), np.zeros(g.shape + (n, n)), signature)

    def take(self, index) -> "MetricJet2":
        """The jet at the points ``index`` selects in C order, unchecked: each
        point passed the checks when this jet was made."""
        jet, lead = copy.copy(self), np.ndim(self.cond)
        jet.g, jet.dg, jet.ddg, jet.cond = (
            a.reshape((-1,) + a.shape[lead:])[index] for a in (self.g, self.dg, self.ddg, self.cond)
        )
        jet._inverse = jet._connection = None
        return jet

    def inverse(self) -> np.ndarray:
        """Inverse metric, computed on the first call and returned read-only.

        Every later call returns the same array.  Raises SingularMetric on
        every call when ``cond`` exceeds ``COND_LIMIT`` at any point.
        """
        if np.count_nonzero(self.cond > COND_LIMIT):
            raise SingularMetric(f"metric condition number exceeds {COND_LIMIT:.0e}")
        if self._inverse is None:
            self._inverse = np.linalg.inv(self.g)
            self._inverse.flags.writeable = False
        return self._inverse

    def connection(self) -> np.ndarray:
        """``christoffel`` of this jet, computed on the first call and returned
        read-only; every later call returns the same array."""
        if self._connection is None:
            self._connection = christoffel(self)
            self._connection.flags.writeable = False
        return self._connection

    def inner(self, v: np.ndarray, w: np.ndarray):
        """g(v, w) at each point, computed as ``(v @ g) @ w``."""
        return np.vecdot(np.vecmat(v, self.g), w)


def _max_abs(a: np.ndarray, core: int):
    """max |a| over the last ``core`` axes, at each point of the leading ones."""
    return np.maximum.reduce(np.abs(a).reshape(a.shape[: a.ndim - core] + (-1,)), axis=-1)


def asymmetric(a: np.ndarray, axes: tuple[int, int], rel: float, core: int) -> bool:
    """Whether ``a`` departs from symmetry in ``axes`` by more than ``rel`` times
    max(1, max |a|) at any point; the last ``core`` axes hold one point."""
    swapped = a.swapaxes(*axes)
    return not (a == swapped).all() and np.count_nonzero(
        _max_abs(a - swapped, core) > rel * np.maximum(1.0, _max_abs(a, core))
    ) > 0


def stacked(a: np.ndarray, points: tuple[int, ...]) -> np.ndarray:
    """A copy of ``a`` at each point of the leading shape ``points``."""
    out = np.empty(points + a.shape)
    out[...] = a
    return out


def norm(v: np.ndarray):
    """Euclidean norm over the last axis, sqrt(v . v) as ``np.linalg.norm``
    computes it for one vector."""
    return np.sqrt(np.vecdot(v, v))


@dataclass
class CurvatureTensor:
    """Covariant (0,4) curvature components at a point, or at each point of a
    stack, with the symmetry residual of each point."""

    R: np.ndarray
    symmetry_residual: np.ndarray = field(default=0.0)

    def max_abs(self) -> float:
        return float(np.abs(self.R).max())


def christoffel(m: MetricJet2) -> np.ndarray:
    """Connection coefficients ``G[..., k, i, j]`` of the metric jet.

    Satisfies metric compatibility
    ``d_k g_ij = G[l, k, i] g_lj + G[l, k, j] g_il`` exactly in exact
    arithmetic.  ``MetricJet2.connection`` keeps the result of one call per jet.
    """
    ginv = m.inverse()
    # G^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_il - d_l g_ij)
    bracket = np.einsum("...ilj->...lij", m.dg) + np.einsum("...jil->...lij", m.dg) - m.dg
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, bracket)


def christoffel_derivative(m: MetricJet2) -> np.ndarray:
    """First coordinate derivatives ``dG[..., l, k, i, j] = d_l G^k_ij``."""
    ginv = m.inverse()
    dginv = -np.einsum("...ka,...lab,...bm->...lkm", ginv, m.dg, ginv)
    b = (
        np.einsum("...imj->...mij", m.dg)
        + np.einsum("...jim->...mij", m.dg)
        - m.dg
    )
    db = (
        np.einsum("...pimj->...pmij", m.ddg)
        + np.einsum("...pjim->...pmij", m.ddg)
        - m.ddg
    )
    return 0.5 * (
        np.einsum("...pkm,...mij->...pkij", dginv, b)
        + np.einsum("...km,...pmij->...pkij", ginv, db)
    )


def riemann(m: MetricJet2, symmetry_tol: float = SYMMETRY_TOL) -> CurvatureTensor:
    """Covariant Riemann tensor of the jet.

    The returned components satisfy antisymmetry in the first and last index
    pairs, pair symmetry, and the first Bianchi identity; the largest relative
    residual over these four checks is stored for each point and must not
    exceed ``symmetry_tol`` at any point.
    """
    gam = m.connection()
    dgam = christoffel_derivative(m)
    # R_ijk^l = d_i G^l_jk - d_j G^l_ik + G^l_ia G^a_jk - G^l_ja G^a_ik
    r_up = (
        np.einsum("...iljk->...ijkl", dgam)
        - np.einsum("...jlik->...ijkl", dgam)
        + np.einsum("...lia,...ajk->...ijkl", gam, gam)
        - np.einsum("...lja,...aik->...ijkl", gam, gam)
    )
    r = np.einsum("...ijkm,...ml->...ijkl", r_up, m.g)
    res = _max_abs(np.maximum(
        np.maximum(np.abs(r + np.einsum("...ijlk->...ijkl", r)),
                   np.abs(r + np.einsum("...jikl->...ijkl", r))),
        np.maximum(np.abs(r - np.einsum("...klij->...ijkl", r)),
                   np.abs(r + np.einsum("...iklj->...ijkl", r) + np.einsum("...iljk->...ijkl", r))),
    ), 4) / np.maximum(1.0, _max_abs(r, 4))
    if np.count_nonzero(res > symmetry_tol):
        raise ValueError(f"curvature symmetry residual {res.max():.3e} exceeds {symmetry_tol:.1e}")
    return CurvatureTensor(R=r, symmetry_residual=res)


def ricci(m: MetricJet2) -> np.ndarray:
    """Ricci tensor, the inverse-metric trace of the Riemann tensor."""
    return ricci_from_riemann(riemann(m), m)


def ricci_from_riemann(r: CurvatureTensor, m: MetricJet2) -> np.ndarray:
    ginv = m.inverse()
    ric = np.einsum("...im,...ijkm->...jk", ginv, r.R)
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def scalar_curvature(m: MetricJet2):
    return np.einsum("...jk,...jk->...", m.inverse(), ricci(m))


def check_time_orientation(m: MetricJet2, x: TangentVector) -> None:
    """Raise ``NonTimelikeOrientation`` unless x is timelike beyond the null band."""
    if np.count_nonzero(m.inner(x.components, x.components) >= -NULL_TOL * x.aux_norm() ** 2):
        raise NonTimelikeOrientation("orientation vector X is not timelike")


def causal_classify(m: MetricJet2, v: TangentVector, x: TangentVector):
    """Classify ``v`` against the time orientation defined by timelike ``x``.

    The decision is sign based: the causal type comes from the sign of
    g(v, v) with a scale-aware zero band, and future/past from the sign of
    g(v, x).  Conformal rescaling therefore cannot change the answer.  For a
    stack of vectors the result is an array holding the class of each.
    """
    if m.signature is not Signature.LORENTZIAN:
        raise ValueError("causal classification needs a Lorentzian metric")
    check_time_orientation(m, x)
    aux = v.aux_norm()
    q = m.inner(v.components, v.components)
    future = m.inner(v.components, x.components) < 0
    classes = np.select(
        [aux <= 1e-14, abs(q) <= NULL_TOL * aux * aux, q < 0],
        [CausalClass.ZERO,
         np.where(future, CausalClass.NULL_FUTURE, CausalClass.NULL_PAST),
         np.where(future, CausalClass.TIMELIKE_FUTURE, CausalClass.TIMELIKE_PAST)],
        CausalClass.SPACELIKE,
    )
    return classes[()]


def check_plane_pairs(w: TangentVector, v: TangentVector) -> None:
    """Raise unless each pair shares its base point and w, v are nonzero and not
    collinear: R(w, v, v, w) vanishes on collinear pairs, which carry no information."""
    if not np.array_equal(w.base, v.base):
        raise ValueError("w and v must share a base point")
    nv, nw = v.aux_norm(), w.aux_norm()
    if np.count_nonzero((nv <= 1e-14) | (nw <= 1e-14)):
        raise ZeroVector("quadratic form needs nonzero vectors")
    # residual of w after removing its component along v, in the aux norm
    proj = np.vecdot(w.components, v.components) / (nv * nv)
    residual = norm(w.components - proj[..., None] * v.components)
    if np.count_nonzero(residual <= 1e-8 * nw):
        raise CollinearPair("w is collinear with v within tolerance")


def riem_quadform(r: CurvatureTensor, m: MetricJet2, w: TangentVector, v: TangentVector):
    """The scalar R(w, v, v, w), or its value for each pair of a stack, of checked pairs."""
    check_plane_pairs(w, v)
    a, b = w.components, v.components
    value = np.einsum("...ijkl,...i,...j,...k,...l->...", r.R, a, b, b, a)
    return float(value) if value.ndim == 0 else value


def gram_schmidt(inner, start, n: int, want: int, accept):
    """Gram-Schmidt of the chart vectors e_0, ..., e_{n-1} at each seed of a
    stack, as a loop over the seeds would run it: ``start(e)`` projects the
    seed's fixed vectors off e, the vectors a seed took are subtracted with
    ``inner``, and ``accept(nrm2)`` decides per seed until it holds ``want``.
    Returns the taken unit vectors ``(..., want, n)`` in order, and their count.
    """
    basis, taken, total = [], [], 0
    for e in np.eye(n):
        cand = start(e)
        for b, t in zip(basis, taken):
            if t.all():
                cand = cand - inner(cand, b)[..., None] * b
            elif t.any():
                cand = np.where(t[..., None], cand - inner(cand, b)[..., None] * b, cand)
        nrm2 = inner(cand, cand)
        ok = accept(nrm2) & (total < want)
        basis.append(cand / np.sqrt(np.where(ok, nrm2, 1.0))[..., None])
        taken.append(ok)
        total = total + ok
        if np.all(total == want):
            break
    order = np.argsort(~np.stack(taken, axis=-1), axis=-1, kind="stable")[..., :want]
    return np.take_along_axis(np.stack(basis, axis=-2), order[..., None], axis=-2), total


def lorentz_frame(m: MetricJet2, x: TangentVector) -> np.ndarray:
    """g-orthonormal frame ``E[..., :, a]`` with E[..., :, 0] future timelike
    along x, for one seed vector or each vector of a stack.

    The remaining columns are spacelike and g-orthonormal; the Gram matrix of
    the returned frame is diag(-1, 1, ..., 1).
    """
    if m.signature is not Signature.LORENTZIAN:
        raise ValueError("lorentz_frame needs a Lorentzian metric")
    xx = m.inner(x.components, x.components)
    if np.count_nonzero(xx >= 0):
        raise NonTimelikeOrientation("frame seed vector must be timelike")
    e0 = x.components / np.sqrt(-xx)[..., None]
    # project candidates off e0 (note g(e0,e0) = -1) and Gram-Schmidt the rest
    spatial, taken = gram_schmidt(m.inner, lambda e: e + m.inner(e, e0)[..., None] * e0,
                                  m.dim, m.dim - 1, lambda nrm2: nrm2 > 1e-10)
    if np.count_nonzero(taken != m.dim - 1):
        raise SingularMetric("failed to complete an orthonormal frame")
    return np.concatenate([e0[..., None], spatial.swapaxes(-1, -2)], axis=-1)
