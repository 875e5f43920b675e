"""Sampling-based membership checks for pointwise curvature conditions.

The universally quantified conditions (positivity of the Ricci form on causal
vectors, positivity of the curvature quadratic form on causal planes,
positive semidefiniteness of the tidal force operators) are not decidable by
sampling; a report therefore either exhibits a concrete violating witness or
states satisfaction *on the sampled directions only*.  Sampling is seeded and
deterministic: causal directions are drawn from an orthonormal frame adapted
to the time orientation, boosted at fixed rapidity levels, together with
exactly null combinations.  ``condition_suite`` yields all five verdicts from
one pass: each point's metric jet, curvature tensor, Ricci form and cone
sample are computed once and every sampled value feeds its conditions.
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
    causal_classify,
    lorentz_frame,
    ricci_from_riemann,
    riemann,
    riem_quadform,
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


@dataclass
class ConeSample:
    vectors: list[TangentVector]


def sample_cone(
    m: MetricJet2,
    p: np.ndarray,
    x: TangentVector,
    count: int = DEFAULT_DIRECTIONS,
    seed: int = 0,
) -> ConeSample:
    """Deterministic causal directions at a point, aux-normalized.

    The sample mixes boosted unit timelike vectors at the fixed rapidity
    levels with exactly null frame combinations, in both time orientations;
    every eighth slot pattern contains at least three exact null vectors.
    """
    p = np.asarray(p, dtype=float)
    frame = lorentz_frame(m, x)
    e0 = frame[:, 0]
    spatial = frame[:, 1:]
    rng = np.random.default_rng(seed)
    vectors = []
    for k in range(count):
        direction = rng.normal(size=m.dim - 1)
        direction /= np.linalg.norm(direction)
        u = spatial @ direction
        slot = k % 8
        if slot < 4:
            chi = RAPIDITY_LEVELS[slot]
            v = np.cosh(chi) * e0 + np.sinh(chi) * u
        elif slot == 4:
            v = e0 + u
        elif slot == 5:
            v = -(e0 + u)
        elif slot == 6:
            v = -(np.cosh(1.0) * e0 + np.sinh(1.0) * u)
        else:
            v = e0 - u
        v = v / np.linalg.norm(v)
        vectors.append(TangentVector(p, v))
    for tv in vectors:
        causal_classify(m, tv, x)
    return ConeSample(vectors=vectors)


def _aux_complement(v: np.ndarray) -> list[np.ndarray]:
    """Euclidean-orthonormal basis of the complement of v (deterministic)."""
    n = v.shape[0]
    basis = [v / np.linalg.norm(v)]
    for k in range(n):
        cand = np.eye(n)[k]
        for b in basis:
            cand = cand - np.dot(cand, b) * b
        nrm = np.linalg.norm(cand)
        if nrm > 1e-10:
            basis.append(cand / nrm)
        if len(basis) == n:
            break
    return basis[1:]


def check_ricci_condition(
    m_field: MetricField,
    points: Sequence[np.ndarray],
    strict: bool,
    x_field: VectorField,
    seed: int = 0,
    count: int = DEFAULT_DIRECTIONS,
) -> ConditionReport:
    """Ricci form on sampled causal directions at the given points."""
    condition = Condition.RICCI_STRICT if strict else Condition.RICCI_WEAK
    return condition_suite(m_field, points, x_field, seed, count)[condition]


def check_riem_condition(
    m_field: MetricField,
    points: Sequence[np.ndarray],
    strict: bool,
    x_field: VectorField,
    seed: int = 0,
    count: int = DEFAULT_DIRECTIONS,
) -> ConditionReport:
    """Curvature quadratic form R(w, v, v, w) over sampled causal planes."""
    condition = Condition.PLANE_STRICT if strict else Condition.PLANE_WEAK
    return condition_suite(m_field, points, x_field, seed, count)[condition]


def tidal_operator(
    m: MetricJet2, r: CurvatureTensor, v: TangentVector
) -> np.ndarray:
    """Matrix of w -> R(w, v)v on the orthogonal complement of causal v.

    For timelike v the matrix is taken in the spacelike legs of
    ``lorentz_frame(m, v)``, a g-orthonormal basis of the complement; for
    null v in a basis of the screen space orthogonal to v and a companion
    null vector with g(v, n) = -2 (the quotient by the v direction).  Both
    are symmetric in the induced inner product.
    """
    if v.aux_norm() <= 1e-14:
        raise ZeroVector("tidal operator needs a nonzero causal vector")
    g = m.g
    q = m.inner(v.components, v.components)
    aux2 = v.aux_norm() ** 2
    if q < -1e-10 * aux2:
        # timelike: the spacelike legs of the Lorentz frame along v
        basis = list(lorentz_frame(m, v).T[1:])
    elif abs(q) <= 1e-10 * aux2:
        # null: companion null vector with g(v, n) = -2, then screen basis
        vn = v.components
        seed_vec = None
        for k in range(m.dim):
            cand = np.eye(m.dim)[k].astype(float)
            if abs(float(cand @ g @ vn)) > 1e-8:
                seed_vec = cand
                break
        if seed_vec is None:
            raise ZeroVector("null vector is metric-orthogonal to the whole chart frame")
        a = float(seed_vec @ g @ seed_vec)
        b = float(seed_vec @ g @ vn)
        n_vec = seed_vec - (a / (2.0 * b)) * vn
        n_vec = n_vec * (-2.0 / float(n_vec @ g @ vn))
        pairing = float(vn @ g @ n_vec)  # equals -2 by construction
        basis = []
        for k in range(m.dim):
            cand = np.eye(m.dim)[k].astype(float)
            cand = cand - (float(cand @ g @ n_vec) / pairing) * vn
            cand = cand - (float(cand @ g @ vn) / pairing) * n_vec
            for bb in basis:
                cand = cand - float(cand @ g @ bb) * bb
            nrm2 = float(cand @ g @ cand)
            if nrm2 > 1e-10:
                basis.append(cand / np.sqrt(nrm2))
            if len(basis) == m.dim - 2:
                break
    else:
        raise ZeroVector("tidal operator is defined for causal vectors only")
    mat = np.empty((len(basis), len(basis)))
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            mat[i, j] = np.einsum(
                "ijkl,i,j,k,l->", r.R, bj, v.components, v.components, bi
            )
    return 0.5 * (mat + mat.T)


def tidal_psd(mat: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh(mat).min() >= -TIDAL_TOL)


def _condition_report(
    condition: Condition, samples: list[Witness], violated: Callable[[float], bool]
) -> ConditionReport:
    """Minimum, sample count and first violating witness of one condition."""
    witness = next((s for s in samples if violated(s.value)), None)
    min_value = float(min(s.value for s in samples))
    verdict = Verdict.SATISFIED_ON_SAMPLES if witness is None else Verdict.VIOLATED
    return ConditionReport(condition, verdict, min_value, len(samples), witness)


def condition_suite(
    m_field: MetricField,
    points: Sequence[np.ndarray],
    x_field: VectorField,
    seed: int = 0,
    count: int = DEFAULT_DIRECTIONS,
) -> dict[Condition, ConditionReport]:
    """All five condition reports from one pass over the points.

    Each point gets one metric jet, one curvature tensor, one Ricci form and
    one cone sample.  Every causal sample v yields Ric(v, v), the plane values
    R(w, v, v, w) for w over a deterministic auxiliary-orthonormal complement
    of v (so w is never collinear with v), and the least eigenvalue of the
    tidal operator.  Strict and weak variants read the same values.  Raises
    ValueError when nothing is sampled (no points, or ``count`` below 1):
    an empty sample would make every condition pass.
    """
    ricci_samples: list[Witness] = []
    plane_samples: list[Witness] = []
    tidal_samples: list[Witness] = []
    for p in points:
        p = np.asarray(p, dtype=float)
        m = m_field(p)
        r = riemann(m)
        ric = ricci_from_riemann(r, m)
        for tv in sample_cone(m, p, x_field(p), count=count, seed=seed).vectors:
            v = tv.components
            ricci_samples.append(Witness(p, v, float(v @ ric @ v)))
            for w in _aux_complement(v):
                val = riem_quadform(r, m, TangentVector(p, w), tv)
                plane_samples.append(Witness(p, v, val, partner=w))
            tidal = np.linalg.eigvalsh(tidal_operator(m, r, tv))
            if tidal.size:  # a null v in dimension 2 has an empty screen space
                tidal_samples.append(Witness(p, v, float(tidal.min())))
    if not ricci_samples:
        raise ValueError(f"no causal directions sampled ({len(points)} points, count={count})")

    def strict(val: float) -> bool:
        return val <= STRICT_MARGIN

    def weak(val: float) -> bool:
        return val < -STRICT_MARGIN

    def tidal(val: float) -> bool:
        return val < -TIDAL_TOL

    conditions = (
        (Condition.RICCI_STRICT, ricci_samples, strict),
        (Condition.RICCI_WEAK, ricci_samples, weak),
        (Condition.PLANE_STRICT, plane_samples, strict),
        (Condition.PLANE_WEAK, plane_samples, weak),
        (Condition.TIDAL_PSD, tidal_samples, tidal),
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
