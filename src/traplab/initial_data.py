"""Constraint quantities and null expansions on a spatial slice.

An initial data set is a Riemannian metric jet field together with a
symmetric tensor field K carrying first derivatives.  The energy density and
energy-momentum current are

    rho = (Scal_h - |K|^2 + (tr K)^2) / 2,
    J   = div_h K - d(tr_h K),

and a two-sided hypersurface with outward unit normal nu has null expansions
theta_+- = tr_Sigma K +- H_nu, with the mean curvature scalar H_nu taken as
the tangential divergence of nu (so the round sphere in flat space has
H_nu = +2/r for the outward normal).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotUnitNormal
from .geometry import MetricJet2, flat2, scalar_curvature, trace_product
from .submanifold import EmbeddingJet2, extrinsic_data

MOTS_TOL = 1e-9


@dataclass
class InitialData:
    """Slice geometry: Riemannian jet field plus K with first derivatives.

    ``K_field(p)`` returns ``(K, dK)`` with ``dK[k, i, j] = d_k K_ij``.
    """

    dim: int
    h_field: Callable[[np.ndarray], MetricJet2]
    K_field: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def zero_K_field(dim: int):
    k = np.zeros((dim, dim))
    dk = np.zeros((dim, dim, dim))
    return lambda p: (k, dk)


@dataclass
class ConstraintQuantities:
    rho: float
    J: np.ndarray


def constraint_quantities(d: InitialData, p: np.ndarray) -> ConstraintQuantities:
    """Energy density and current of the data at a point."""
    p = np.asarray(p, dtype=float)
    return constraints_from_jet(d.h_field(p), *d.K_field(p))


def constraints_from_jet(m: MetricJet2, k: np.ndarray, dk: np.ndarray) -> ConstraintQuantities:
    """Energy density and current from the metric jet and (K, dK) at a point,
    or at each point of a stack (``rho`` is then an array)."""
    k = np.asarray(k, dtype=float)
    dk = np.asarray(dk, dtype=float)
    hinv = m.inverse()
    scal = scalar_curvature(m)
    k_up = hinv.mT @ k @ hinv.mT  # K^ab = h^ia K_ij h^bj
    norm_k_sq = trace_product(k, k_up)
    tr_k = trace_product(hinv, k)
    rho = 0.5 * (scal - norm_k_sq + tr_k * tr_k)

    # covariant derivative (nabla_i K)_{kj}, with gam[i, l, k] = Gamma^l_{ik}
    gam, kk = m.connection().swapaxes(-3, -2), k[..., None, :, :]
    cov_dk = dk - gam.mT @ kk - kk @ gam
    div_k = np.vecmat(flat2(hinv), cov_dk.reshape(cov_dk.shape[:-3] + (-1, m.dim)))
    # d_j tr K = h^ik d_j K_ik - d_j h_ab K^ab
    d_tr_k = np.matvec(flat2(dk), flat2(hinv)) - np.matvec(flat2(m.dg), flat2(k_up))
    j = div_k - d_tr_k
    return ConstraintQuantities(rho=rho, J=j)


def initial_data_expansions(
    d: InitialData,
    e: EmbeddingJet2,
    nu: Callable[[np.ndarray], np.ndarray],
    u: np.ndarray,
) -> tuple[float, float]:
    """Null expansions (theta_+, theta_-) = tr_Sigma K +- H_nu at parameter u,
    or arrays of them at each parameter of a (B, sigma) stack with one
    ``extrinsic_data`` call; nu must be h-unit and h-normal at every point."""
    data = extrinsic_data(e, d.h_field, u)
    m = data.metric
    nu_vec = np.asarray(nu(u), dtype=float)
    if np.count_nonzero(np.abs(m.inner(nu_vec, nu_vec) - 1.0) > 1e-8):
        raise NotUnitNormal("nu is not h-unit")
    tangent_t = np.swapaxes(data.tangent, -1, -2)
    tangency = np.abs(np.matvec(tangent_t @ m.g, nu_vec)).max(axis=-1)
    scale = np.maximum(1.0, np.abs(data.tangent).max(axis=(-2, -1)))
    if np.count_nonzero(tangency > 1e-8 * scale):
        raise NotUnitNormal("nu is not h-normal to the surface")
    k, _ = d.K_field(data.H.base)
    k_pullback = tangent_t @ np.asarray(k, dtype=float) @ data.tangent
    tr_sigma_k = trace_product(data.induced_inv, k_pullback)
    h_nu = -m.inner(nu_vec, data.H.components)
    return tr_sigma_k + h_nu, tr_sigma_k - h_nu


class MotsLabel(enum.Enum):
    OUTER_TRAPPED = "outer_trapped"
    WEAKLY_OUTER_TRAPPED = "weakly_outer_trapped"
    MOTS = "mots"
    NONE = "none"


def mots_classify(theta_plus_samples: Sequence[float]) -> MotsLabel:
    """Aggregate outer-trapping label from sampled theta_+ values."""
    vals = np.asarray(list(theta_plus_samples), dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one sample")
    if np.all(vals < -MOTS_TOL):
        return MotsLabel.OUTER_TRAPPED
    if np.all(np.abs(vals) <= MOTS_TOL):
        return MotsLabel.MOTS
    if np.all(vals <= MOTS_TOL):
        return MotsLabel.WEAKLY_OUTER_TRAPPED
    return MotsLabel.NONE
