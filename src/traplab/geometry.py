"""Pointwise connection and curvature from metric 2-jets, and the time-orientation check.

A metric 2-jet carries the metric components together with their first and
second coordinate derivatives at a point.  Everything downstream (curvature,
extrinsic geometry, constraint quantities) is exact algebra on these jets, so
scenarios that supply closed-form derivatives get curvature at rounding-error
accuracy.  Contractions run as stacked matmul kernels (``@``, ``np.matvec``,
``np.vecdot``) over reshaped views; ``np.einsum`` only permutes axes.

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

# Largest relative curvature symmetry residual ``riemann`` accepts at a point.
SYMMETRY_TOL = 1e-9


class Signature(enum.Enum):
    LORENTZIAN = "lorentzian"
    RIEMANNIAN = "riemannian"


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
    ddg : (..., dim, dim, dim, dim) array, or a callable returning it
        Second derivatives, ``ddg[..., l, k, i, j] = d_l d_k g_ij``; a callable
        is called, and its symmetry checked, on the first read of ``ddg``.
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
        eager = not callable(self.ddg)
        if eager:
            self.ddg = np.asarray(self.ddg, dtype=float)
        else:  # formed by ``__getattr__`` on the first read
            self._form_ddg = self.ddg
            del self.ddg
        n = self.dim
        if n < 2:
            raise ValueError("dimension must be at least 2")
        points = self.g.shape[:-2]
        if (self.g.shape != points + (n, n) or self.dg.shape != points + (n,) * 3
                or eager and self.ddg.shape != points + (n,) * 4):
            raise ValueError("jet array shapes inconsistent with dim")
        _check_finite(self.g, "g", 2)
        _check_finite(self.dg, "dg", 3)
        for a, axes, rel, what in (
            (self.g, (-1, -2), 1e-12, "metric matrix must be symmetric"),
            (self.dg, (-1, -2), 1e-10, "dg must be symmetric in (i, j)"),
        ):
            if asymmetric(a, axes, rel, a.ndim - len(points)):
                raise ValueError(what)
        if eager:
            self._checked_ddg(self.ddg)
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

    def __getattr__(self, name):
        # reached only for attributes not set: ``ddg`` of a jet made with a callable
        if name != "ddg" or "_form_ddg" not in vars(self):
            raise AttributeError(name)
        self.ddg = self._checked_ddg(np.asarray(self._form_ddg(), dtype=float))
        return self.ddg

    @staticmethod
    def _checked_ddg(ddg: np.ndarray) -> np.ndarray:
        _check_finite(ddg, "ddg", 4)
        for axes, pair in (((-1, -2), "(i, j)"), ((-3, -4), "(k, l)")):
            if asymmetric(ddg, axes, 1e-10, 4):
                raise ValueError(f"ddg must be symmetric in {pair}")
        return ddg

    def take(self, index) -> "MetricJet2":
        """The jet at the points ``index`` selects in C order, unchecked: each
        point passed the checks when this jet was made.  Its ``ddg`` is taken on
        the first read, so a deferred one stays deferred."""
        jet, lead = copy.copy(self), np.ndim(self.cond)
        jet.g, jet.dg, jet.cond = (
            a.reshape((-1,) + a.shape[lead:])[index] for a in (self.g, self.dg, self.cond)
        )
        vars(jet).pop("ddg", None)
        jet._form_ddg = lambda: self.ddg.reshape((-1,) + self.ddg.shape[lead:])[index]
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


def _check_finite(a: np.ndarray, name: str, core: int) -> None:
    """Raise SingularMetric naming ``name`` and the first point (in C order) of the
    leading axes where ``a``, with ``core`` axes per point, is not finite."""
    finite = np.isfinite(a)
    if np.count_nonzero(finite) != a.size:
        at = np.argwhere(~finite.reshape(a.shape[: a.ndim - core] + (-1,)).all(axis=-1))[0]
        raise SingularMetric(f"{name} is not finite" + (f" at point {tuple(at.tolist())}" if at.size else ""))


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
    b = _bracket(m.dg)
    return 0.5 * (ginv @ flat2(b)).reshape(b.shape)


def _bracket(a: np.ndarray) -> np.ndarray:
    """``b[..., l, i, j] = a[..., i, l, j] + a[..., j, i, l] - a[..., l, i, j]``."""
    return a.swapaxes(-3, -2) + a.swapaxes(-3, -1) - a


def christoffel_derivative(m: MetricJet2) -> np.ndarray:
    """First coordinate derivatives ``dG[..., l, k, i, j] = d_l G^k_ij``."""
    # d_l G^k_ij = 1/2 (d_l g^{km} b_mij + g^{km} d_l b_mij) with b the bracket of christoffel
    # and d_l g^{km} = -g^{ka} d_l g_ab g^{bm}
    gi = m.inverse()[..., None, :, :]
    b, db = _bracket(m.dg), _bracket(m.ddg)
    t = -(gi @ m.dg @ gi) @ flat2(b)[..., None, :, :]
    return 0.5 * (t + gi @ flat2(db)).reshape(db.shape)


def riemann(m: MetricJet2) -> CurvatureTensor:
    """Covariant Riemann tensor of the jet.

    The returned components satisfy antisymmetry in the first and last index
    pairs, pair symmetry, and the first Bianchi identity; the largest relative
    residual over these four checks is stored for each point and must not
    exceed ``SYMMETRY_TOL`` at any point.
    """
    gam, dgam = m.connection(), christoffel_derivative(m)
    # R_ijk^l = d_i G^l_jk - d_j G^l_ik + G^l_ia G^a_jk - G^l_ja G^a_ik
    d = np.einsum("...iljk->...ijkl", dgam)
    q = np.einsum("...lijk->...ijkl", (gam @ flat2(gam)[..., None, :, :]).reshape(dgam.shape))
    r_up = d - d.swapaxes(-4, -3) + q - q.swapaxes(-4, -3)
    r = (r_up.reshape(r_up.shape[:-4] + (-1, m.dim)) @ m.g).reshape(r_up.shape)
    res = _max_abs(np.maximum(
        np.maximum(np.abs(r + r.swapaxes(-1, -2)), np.abs(r + r.swapaxes(-4, -3))),
        np.maximum(np.abs(r - np.einsum("...klij->...ijkl", r)),
                   np.abs(r + np.einsum("...iklj->...ijkl", r) + np.einsum("...iljk->...ijkl", r))),
    ), 4) / np.maximum(1.0, _max_abs(r, 4))
    if np.count_nonzero(~(res <= SYMMETRY_TOL)):  # a NaN residual fails too
        raise ValueError(f"curvature symmetry residual {res.max():.3e} exceeds {SYMMETRY_TOL:.1e}")
    return CurvatureTensor(R=r, symmetry_residual=res)


def ricci(m: MetricJet2) -> np.ndarray:
    """Ricci tensor, the inverse-metric trace of the Riemann tensor."""
    return ricci_from_riemann(riemann(m), m)


def ricci_from_riemann(r: CurvatureTensor, m: MetricJet2) -> np.ndarray:
    ginv = m.inverse()
    ric = np.matvec(r.R.reshape(r.R.shape[:-3] + (-1, m.dim)), ginv).sum(axis=-2).reshape(ginv.shape)
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def scalar_curvature(m: MetricJet2):
    return trace_product(m.inverse(), ricci(m))


def flat2(a: np.ndarray) -> np.ndarray:
    """``a`` with its last two axes merged, a view when ``a`` is contiguous."""
    return a.reshape(a.shape[:-2] + (-1,))


def trace_product(a: np.ndarray, b: np.ndarray):
    """tr(a b^T) = sum_ij a_ij b_ij at each point of two stacks of matrices."""
    return np.vecdot(flat2(a), flat2(b))


def check_time_orientation(m: MetricJet2, x: TangentVector) -> None:
    """Raise ``NonTimelikeOrientation`` unless x is timelike beyond the null band."""
    if np.count_nonzero(m.inner(x.components, x.components) >= -NULL_TOL * x.aux_norm() ** 2):
        raise NonTimelikeOrientation("orientation vector X is not timelike")


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
    wv = w.components[..., :, None] * v.components[..., None, :]  # w^i v^j
    n2 = wv.shape[-1] ** 2
    value = np.vecdot(flat2(wv), np.matvec(r.R.reshape(r.R.shape[:-4] + (n2, n2)), flat2(wv.mT)))
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
