"""Sampling-based membership checks for pointwise curvature conditions.

The universally quantified conditions (positivity of the Ricci form on causal
vectors, positivity of the curvature quadratic form on causal planes,
positive semidefiniteness of the tidal force operators) are not decidable by
sampling; a report therefore either exhibits a concrete violating witness or
states satisfaction *on the sampled directions only*.  Sampling is seeded and
deterministic: causal directions are drawn from an orthonormal frame adapted
to the time orientation, boosted at fixed rapidity levels, together with
exactly null combinations.  ``condition_suite`` yields all five verdicts from
one pass: the points are one stack, so their metric jets, curvature tensors,
Ricci forms and cone samples come from one call each.  The cone sample is one
``(P, count, dim)`` stack, and its complements, forms R(., v, v, .), plane
values, Ricci values and tidal operators are each computed over the whole
stack, in the order a loop over the points and then their directions would
visit them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ZeroVector
from .geometry import (
    CurvatureTensor,
    MetricJet2,
    TangentVector,
    check_plane_pairs,
    check_time_orientation,
    gram_schmidt,
    lorentz_frame,
    norm,
    ricci_from_riemann,
    riemann,
)

MetricField = Callable[[np.ndarray], MetricJet2]
VectorField = Callable[[np.ndarray], TangentVector]

RAPIDITY_LEVELS = (0.0, 1.0, 2.0, 4.0)
DEFAULT_DIRECTIONS = 64
STRICT_MARGIN = 1e-10
# least tidal eigenvalue below -TIDAL_TOL violates positive semidefiniteness
TIDAL_TOL = 1e-9


class Condition(enum.Enum):
    """Pointwise curvature conditions, strict and non-strict variants."""

    RICCI_STRICT = "ricci_strict"        # Ric(v, v) > 0 on causal v
    RICCI_WEAK = "ricci_weak"            # Ric(v, v) >= 0 on causal v
    PLANE_STRICT = "plane_strict"        # R(w, v, v, w) > 0, causal v, independent w
    PLANE_WEAK = "plane_weak"            # R(w, v, v, w) >= 0
    TIDAL_PSD = "tidal_psd"              # tidal operators positive semidefinite


class Verdict(enum.Enum):
    SATISFIED_ON_SAMPLES = "satisfied_on_samples"
    VIOLATED = "violated"


@dataclass
class Witness:
    point: np.ndarray
    vector: np.ndarray
    value: float
    partner: Optional[np.ndarray] = None


@dataclass
class ConditionReport:
    condition: Condition
    verdict: Verdict
    min_value: float
    samples_used: int
    witness: Optional[Witness] = None

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED_ON_SAMPLES


# (e0, u, sign) of the eight direction slots: boosts at the rapidity levels,
# e0 + u, -(e0 + u), the past boost at rapidity 1, and e0 - u; cosh and sinh
# are taken one scalar at a time, and the past slots negate the whole sum.
_SLOTS = np.array(
    [(np.cosh(chi), np.sinh(chi), 1.0) for chi in RAPIDITY_LEVELS]
    + [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (np.cosh(1.0), np.sinh(1.0), -1.0), (1.0, -1.0, 1.0)]
)


def sample_cone(m: MetricJet2, p: np.ndarray, x: TangentVector, count: int = DEFAULT_DIRECTIONS,
                seed: int = 0) -> TangentVector:
    """Deterministic causal directions, aux-normalized: ``count`` at a point
    as one ``(count, dim)`` stack, or at each of P points given as ``(P, 1,
    dim)`` (the jet and orientation too) as one ``(P, count, dim)`` stack.

    The sample mixes boosted unit timelike vectors at the fixed rapidity
    levels with exactly null frame combinations, in both time orientations;
    every eighth slot pattern contains at least three exact null vectors.
    Direction k is slot k mod 8 of the spatial direction drawn k-th; one
    seeded draw gives every point the same spatial directions in its frame.
    """
    frame = lorentz_frame(m, x)
    directions = np.random.default_rng(seed).normal(size=(count, m.dim - 1))
    directions /= norm(directions)[:, None]
    u = np.matvec(frame[..., 1:], directions)
    a, b, sign = _SLOTS[np.arange(count) % 8, :, None].transpose(1, 0, 2)
    v = sign * (a * frame[..., 0] + b * u)
    check_time_orientation(m, x)
    return TangentVector(np.broadcast_to(p, v.shape), v / norm(v)[..., None])


def _aux_complement(v: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal basis of the complement of each v of a stack,
    ``(count, dim - 1, dim)`` (deterministic)."""
    unit = v / norm(v)[..., None]
    return gram_schmidt(np.vecdot, lambda e: e - np.vecdot(e, unit)[..., None] * unit,
                        v.shape[-1], v.shape[-1] - 1, lambda nrm2: np.sqrt(nrm2) > 1e-10)[0]


def tidal_operator(m: MetricJet2, r: CurvatureTensor, v: TangentVector):
    """Matrices of w -> R(w, v)v on the orthogonal complement of causal v, and
    the form A_v[i, l] = R_ijkl v^j v^k of each v they are read from: one BLAS
    matrix-vector product of R, with rows (i, l) and columns (j, k), and v (x) v.

    For timelike v the matrix is taken in the spacelike legs of
    ``lorentz_frame(m, v)``, a g-orthonormal basis of the complement; for
    null v in a basis of the screen space orthogonal to v and a companion
    null vector with g(v, n) = -2 (the quotient by the v direction).  Both
    are symmetric in the induced inner product.  One v, or a stack with ``m``
    and ``r`` at points that broadcast to it, gives ``(A_v, ((timelike, mats),
    (null, mats)))``: each kind's mask over the stack and its ``(n, dim - 1,
    dim - 1)`` or ``(n, dim - 2, dim - 2)`` matrices in C order.
    """
    shape = v.components.shape[:-1]
    point = np.broadcast_to(np.arange(np.size(m.cond)).reshape(np.shape(m.cond)), shape).ravel()
    comps = v.components.reshape(-1, m.dim)
    aux = norm(comps)
    if np.count_nonzero(aux <= 1e-14):
        raise ZeroVector("tidal operator needs a nonzero causal vector")
    q, aux2 = m.inner(v.components, v.components).reshape(-1), aux**2
    timelike = q < -1e-10 * aux2
    null = abs(q) <= 1e-10 * aux2
    if np.count_nonzero(~(timelike | null)):
        raise ZeroVector("tidal operator is defined for causal vectors only")
    # timelike: the spacelike legs of the Lorentz frame along v
    base = v.base.reshape(-1, m.dim)
    legs = lorentz_frame(m.take(point[timelike]), TangentVector(base[timelike], comps[timelike]))
    # null: companion null vector with g(v, n) = -2, then screen basis
    vn, mn = comps[null], m.take(point[null])
    along = mn.inner(np.eye(m.dim)[:, None], vn).T
    found = abs(along) > 1e-8
    if np.count_nonzero(~found.any(axis=-1)):
        raise ZeroVector("null vector is metric-orthogonal to the whole chart frame")
    first = np.argmax(found, axis=-1)
    seed_vec = np.eye(m.dim)[first]
    b = mn.inner(seed_vec, seed_vec)
    n_vec = seed_vec - (b / (2.0 * along[np.arange(len(vn)), first]))[:, None] * vn
    n_vec = n_vec * (-2.0 / mn.inner(n_vec, vn))[:, None]
    pairing = mn.inner(vn, n_vec)[:, None]  # equals -2 by construction

    def off_v_and_n(e):
        cand = e - (mn.inner(e, n_vec)[:, None] / pairing) * vn
        return cand - (mn.inner(cand, vn)[:, None] / pairing) * n_vec

    screen, _ = gram_schmidt(mn.inner, off_v_and_n, m.dim, m.dim - 2, lambda nrm2: nrm2 > 1e-10)
    rows = np.moveaxis(r.R, -1, -3).reshape(r.R.shape[:-4] + (m.dim**2, m.dim**2))
    vv = (comps[:, :, None] * comps[:, None, :]).reshape(shape + (m.dim**2, 1))
    a = (rows @ vv).reshape(shape + (m.dim, m.dim))
    stacks = []
    for mask, basis in ((timelike, legs.mT[:, 1:]), (null, screen)):
        mat = basis @ a.reshape(-1, m.dim, m.dim)[mask].mT @ basis.mT
        stacks.append((mask.reshape(shape), 0.5 * (mat + mat.mT)))
    return a, tuple(stacks)


def tidal_psd(mat: np.ndarray) -> bool:
    """Whether the tidal matrix is positive semidefinite within ``TIDAL_TOL``;
    an empty one (a null v in dimension 2 has no screen space) is, vacuously."""
    return mat.size == 0 or np.linalg.eigvalsh(mat).min() >= -TIDAL_TOL


def _condition_report(condition: Condition, samples: tuple, violated) -> ConditionReport:
    """Minimum, sample count and first violating witness of one condition, from
    its values, points, vectors and (plane values) partners in sampling order."""
    values, points, vectors, *partners = samples
    bad = np.flatnonzero(violated(values))
    witness = None
    if bad.size:
        i = bad[0]
        witness = Witness(points[i], vectors[i], float(values[i]),
                          partners[0][i] if partners else None)
    min_value = float(values[np.argmin(values)])  # the first of equal minima, as min()
    verdict = Verdict.SATISFIED_ON_SAMPLES if witness is None else Verdict.VIOLATED
    return ConditionReport(condition, verdict, min_value, len(values), witness)


def condition_suite(
    m_field: MetricField,
    points: Sequence[np.ndarray],
    x_field: VectorField,
    seed: int = 0,
    count: int = DEFAULT_DIRECTIONS,
) -> dict[Condition, ConditionReport]:
    """All five condition reports from one pass over every point and direction.

    The points are one ``(P, 1, dim)`` stack: ``m_field`` and ``x_field`` must
    accept ``(..., dim)`` stacks, and each runs once, as do ``riemann``,
    ``sample_cone`` and ``tidal_operator``.  Every causal sample v yields
    Ric(v, v), the least tidal eigenvalue (one ``eigvalsh`` per causal kind)
    and, from the form A_v that ``tidal_operator`` returns, the plane values
    w A_v w = R(w, v, v, w) for w over a deterministic auxiliary-orthonormal
    complement of v (never collinear with v), each for all samples at once in
    sampling order.
    Raises ValueError when nothing is sampled (no points, or ``count`` below
    1): an empty sample would make every condition pass.
    """
    if count < 1 or not len(points):
        raise ValueError(f"no causal directions sampled ({len(points)} points, count={count})")
    p = np.asarray(points, dtype=float)[:, None]
    m = m_field(p)
    r = riemann(m)
    ric = ricci_from_riemann(r, m)
    cone = sample_cone(m, p, x_field(p), count=count, seed=seed)
    v = cone.components
    w = _aux_complement(v)
    at = np.broadcast_to(p[..., None, :], w.shape)
    check_plane_pairs(TangentVector(at, w), TangentVector(at, np.broadcast_to(v[..., None, :],
                                                                              w.shape)))
    a, kinds = tidal_operator(m, r, cone)
    planes = np.vecdot(w @ a, w)
    least = np.full(v.shape[:-1], np.nan)
    for kind, mats in kinds:
        if mats.size:
            least[kind] = np.linalg.eigvalsh(mats).min(axis=-1)
    screen = ~np.isnan(least).ravel()  # a null v in dimension 2 has no tidal sample
    base, flat = cone.base.reshape(-1, m.dim), v.reshape(-1, m.dim)
    ricci = (np.vecdot(np.vecmat(v, ric), v).ravel(), base, flat)
    plane = (planes.ravel(), at.reshape(-1, m.dim), np.repeat(flat, m.dim - 1, axis=0),
             w.reshape(-1, m.dim))
    tidal = (least.ravel()[screen], base[screen], flat[screen])
    strict, weak = (lambda val: val <= STRICT_MARGIN), (lambda val: val < -STRICT_MARGIN)
    conditions = (
        (Condition.RICCI_STRICT, ricci, strict),
        (Condition.RICCI_WEAK, ricci, weak),
        (Condition.PLANE_STRICT, plane, strict),
        (Condition.PLANE_WEAK, plane, weak),
        (Condition.TIDAL_PSD, tidal, lambda val: val < -TIDAL_TOL),
    )
    return {c: _condition_report(c, samples, violated) for c, samples, violated in conditions}


def inclusion_chain_holds(reports: dict[Condition, ConditionReport]) -> bool:
    """Implications between sampled verdicts: strict plane positivity forces
    the strict Ricci and tidal conditions, tidal forces the weak plane
    condition, and the weak plane condition forces the weak Ricci condition."""
    sat = {c: reports[c].satisfied for c in reports}
    implications = [
        (Condition.PLANE_STRICT, Condition.RICCI_STRICT),
        (Condition.PLANE_STRICT, Condition.TIDAL_PSD),
        (Condition.TIDAL_PSD, Condition.PLANE_WEAK),
        (Condition.PLANE_WEAK, Condition.RICCI_WEAK),
    ]
    return all((not sat[a]) or sat[b] for a, b in implications)
