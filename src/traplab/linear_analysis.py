"""Finite-dimensional surjectivity, codimension and projection bookkeeping.

Realizes at finite dimension the linear-algebra facts behind the genericity
machinery: a sum operator (x, y) -> Tx + Sy is surjective exactly when the
orthogonal complements of the two images intersect trivially (equivalently,
when the adjoint kernels do); preimages of subspaces satisfy the codimension
formula

    codim L^{-1}(S) = codim S - codim (S + Im L);

and the projection of the kernel of the sum operator onto the first factor
has kernel dimension dim ker S and the same index as S.

Every function takes stacks: matrices may carry leading axes (one instance
is a stack with none); ranks, verdicts and report fields hold one entry per
instance, each rank from one stacked SVD.  A kernel basis is each instance's
full V with the columns below its rank masked to zero; zero columns change no
span, rank or principal angle, so zero-padding the maps' domains is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

RANK_RTOL = 1e-10


@dataclass
class OperatorTriple:
    """Two linear maps (or stacks of them) into a common inner-product space."""

    T: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        self.T = np.atleast_2d(np.asarray(self.T, dtype=float))
        self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
        if self.T.shape[:-1] != self.S.shape[:-1]:
            raise ValueError("T and S must map into the same space, with the same stack axes")
        for name, a in (("T", self.T), ("S", self.S)):
            bad = ~np.isfinite(a).all(axis=(-2, -1))
            if bad.any():
                index = tuple(int(i) for i in np.argwhere(bad)[0])
                raise ValueError(f"{name} has a non-finite entry at stack index {index}")

    @property
    def h(self) -> int:
        return self.T.shape[-2]

    @cached_property
    def complements(self) -> tuple:
        """``_image_complement`` of T and of S, computed on first use."""
        return _image_complement(self.T), _image_complement(self.S)


def _rank(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Rank of each matrix in a stack: singular values above RANK_RTOL times the top one.

    ``scale`` overrides the reference: submatrices of orthonormal bases have
    unit-size columns, so their rank must be judged against 1, not against
    their own (possibly tiny) leading singular value.  An empty or zero
    matrix has rank 0.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    reference = sv[..., :1] if scale is None else scale
    return np.count_nonzero(sv > RANK_RTOL * reference, axis=-1)


def _null_space(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel bases and ranks of a stack of (m, n) matrices, from one SVD.

    The basis is (..., n, n): each instance's full V with its first ``rank``
    columns zeroed, so the nonzero columns are an orthonormal basis of that
    instance's kernel (all of V for a zero or row-less matrix).
    """
    _, sv, vt = np.linalg.svd(a)
    rank = np.count_nonzero(sv > RANK_RTOL * sv[..., :1], axis=-1)
    kernel_columns = np.arange(a.shape[-1]) >= rank[..., None]
    return vt.mT * kernel_columns[..., None, :], rank


def _image_complement(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal-column basis of the complement of the column space, and the rank."""
    return _null_space(a.mT)


def sum_surjective(tr: OperatorTriple) -> np.ndarray:
    """Whether (x, y) -> Tx + Sy covers the whole target space."""
    return _rank(np.concatenate([tr.T, tr.S], axis=-1)) == tr.h


def perp_intersection_trivial(tr: OperatorTriple) -> np.ndarray:
    """Triviality of (Im T)^perp intersect (Im S)^perp via principal angles.

    The intersection is nontrivial exactly when some pair of directions from
    the two complements has cosine 1; with orthonormal bases A, B this is a
    unit singular value of A^T B.  The zeroed columns of the masked bases
    only add zero singular values, so an empty complement on either side
    makes the intersection trivial outright.
    """
    (a, _), (b, _) = tr.complements
    cosines = np.linalg.svd(a.mT @ b, compute_uv=False)
    return cosines.max(axis=-1, initial=0.0) < 1.0 - RANK_RTOL


def adjoint_kernels_trivial(tr: OperatorTriple) -> np.ndarray:
    """Triviality of ker T^t intersect ker S^t (the adjoint formulation).

    Uses the rank of the stacked kernel bases: the sum of two subspaces has
    dimension ka + kb exactly when they intersect trivially.
    """
    (ker_t, rank_t), (ker_s, rank_s) = tr.complements
    return _rank(np.concatenate([ker_t, ker_s], axis=-1)) == 2 * tr.h - rank_t - rank_s


def codim_formula_check(l: np.ndarray, s_basis: np.ndarray, s=None) -> tuple:
    """Both sides of the preimage codimension formula, as exact integers, and
    the rank of the subspace basis.

    Left side: codimension in the domain of the preimage of span(s_basis)
    under l.  Right side: codim span(s_basis) minus codim (span + Im l).
    ``s`` is each instance's subspace dimension when s_basis carries zero
    padding columns past it; by default every column counts.  The sides hold
    only where the rank equals s: a smaller rank marks a dependent basis.
    """
    l = np.atleast_2d(np.asarray(l, dtype=float))
    s_basis = np.atleast_2d(np.asarray(s_basis, dtype=float))
    s = s_basis.shape[-1] if s is None else np.asarray(s)
    v = l.shape[-2]
    # preimage kernel: x with P_{S^perp} L x = 0; the complement's SVD also gives the rank
    perp, rank = _image_complement(s_basis)
    lhs = _rank(perp.mT @ l)
    dim_sum = _rank(np.concatenate([s_basis, l], axis=-1))
    return lhs, (v - s) - (v - dim_sum), rank


@dataclass
class ProjectionReport:
    dim_ker_projection: np.ndarray
    dim_ker_S: np.ndarray
    kernel_dims_match: np.ndarray
    projection_full_rank: np.ndarray
    index_projection: np.ndarray
    index_S: np.ndarray
    indices_match: np.ndarray
    sum_is_surjective: np.ndarray


def projection_regularity(tr: OperatorTriple, e=None, f=None) -> ProjectionReport:
    """Bookkeeping for the first-factor projection of ker(T (+) S).

    With M = ker of the sum operator inside the product space, the
    projection to the first factor has kernel of dimension dim ker S; when
    the sum operator is surjective its index (dim kernel minus codimension
    of the image in the first factor) equals the index of S.  ``e`` and
    ``f`` are the domain dimensions when T and S carry zero padding past them.
    """
    h, pad = tr.h, tr.T.shape[-1]
    e, f = (pad, tr.S.shape[-1]) if e is None else (e, f)
    m_basis, rank_sum = _null_space(np.concatenate([tr.T, tr.S], axis=-1))
    dim_m = e + f - rank_sum
    # each padding column of T adds a kernel direction that projects onto itself
    rank_proj = _rank(m_basis[..., :pad, :], scale=1.0) - (pad - e)
    rank_s = _rank(tr.S)
    dim_ker_proj = dim_m - rank_proj
    dim_ker_s = f - rank_s
    index_proj = dim_ker_proj - (e - rank_proj)  # minus the codimension of the image
    index_s = dim_ker_s - (h - rank_s)
    return ProjectionReport(
        dim_ker_projection=dim_ker_proj,
        dim_ker_S=dim_ker_s,
        kernel_dims_match=dim_ker_proj == dim_ker_s,
        projection_full_rank=rank_proj == e,
        index_projection=index_proj,
        index_S=index_s,
        indices_match=index_proj == index_s,
        sum_is_surjective=rank_sum == h,
    )
