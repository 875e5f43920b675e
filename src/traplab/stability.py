"""Stability operator of marginally outer trapped surfaces on closed grids.

The operator acting on surface functions is

    L(psi) = -Lap psi + 2 <X, grad psi> + (Q + div X - |X|^2) psi,
    Q = Scal_Sigma / 2 - (J(nu) + rho) - |K_nu + K|^2 / 2,

where rho, J are the slice constraint quantities, K_nu the scalar second
fundamental form of the surface and X the surface-tangential dual of
K(nu, .).  The discretization is a second-order conservative finite
difference scheme on closed grids (periodic tensor grids for circles and
flat tori, latitude-longitude grids with staggered rows for spheres), so the
time-symmetric case produces an operator that is exactly self-adjoint in the
quadrature inner product.

The principal eigenvalue lambda_1 is real and has minimal real part
(arXiv:0704.2889).  Every eigenvalue lies in a Gershgorin disc, so a real
shift sigma below all discs has Re(lambda) - sigma >= lambda_1 - sigma > 0
for every eigenvalue: lambda_1 is the eigenvalue nearest sigma, hence the
dominant eigenvalue of (A - sigma I)^-1.  The operators are block tridiagonal
in grid rows (block-cyclic on periodic grids), so assembly writes only their
block diagonals (``BlockOperator``), for one operator or, from coefficient
stacks, a stack of them.  ``principal_eigenvalues`` factors a stack of shifted
operators once by one block-arrow elimination over those blocks, the same code
for every block count m, without pivoting since they are strictly diagonally
dominant, runs orthogonal iteration with Rayleigh-Ritz extraction on the
factors (``_orthogonal_iteration``) and finishes the eigenpairs, each step one
array operation over the stack and each member bitwise as alone; one operator
is a stack of one.  Blocks under ``MIN_BLOCK_NODES`` nodes give m = 1, one dense
inverse: so on every circle whose N has no divisor in [MIN_BLOCK_NODES, sqrt(N)],
a prime N among them.  The solve uses numpy only and a fixed starting block,
so replays are bytewise identical.  The N x N matrix (``BlockOperator.dense``)
and the full spectrum are formed only on request, the spectrum by ``eigvalsh``
if that matrix is bitwise symmetric, else ``eigvals``.
The deformation check moves the surface along its unit normal with the
principal eigenfunction as velocity and verifies the derivative identity for
the outward null expansion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateMOTS,
    EigensolverFailure,
    ResolutionTooLow,
)
from .geometry import flat2, trace_product
from .initial_data import InitialData, constraints_from_jet, initial_data_expansions
from .jets import elementwise
from .scenarios import SliceSurface, build_scenario
from .submanifold import EmbeddingJet2, ExtrinsicData, extrinsic_data

MIN_NODES_PER_AXIS = 8
DEGENERACY_TOL = 1e-6
# extra Ritz directions carried beyond the k wanted eigenpairs
OVERSAMPLING = 8
MAX_ITERATIONS = 500
# smallest block of the factored eigensolve: below it the per-block Python
# work of a solve costs more than the dense arithmetic it saves
MIN_BLOCK_NODES = 16


class GridKind(enum.Enum):
    PERIODIC_TENSOR = "periodic_tensor"
    LATLONG_SPHERE = "latlong_sphere"


@dataclass
class SurfaceGrid:
    """Closed surface grid with node coordinates and quadrature weights.

    ``metric_diag[node, axis]`` stores the diagonal induced metric; the grids
    used here (circles with arbitrary smooth parametrization, flat tori,
    round spheres in latitude-longitude coordinates) all have diagonal
    induced metrics on their natural charts.
    """

    kind: GridKind
    shape: tuple[int, ...]
    periods: tuple[float, ...]
    nodes: np.ndarray
    metric_diag: np.ndarray
    weights: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(p / n for p, n in zip(self.periods, self.shape))


def _check_resolution(shape):
    for n in shape:
        if n < MIN_NODES_PER_AXIS:
            raise ResolutionTooLow(f"need at least {MIN_NODES_PER_AXIS} nodes per axis, got {shape}")


def circle_grid(
    n: int,
    period: float = 2.0 * math.pi,
    metric_values: Optional[np.ndarray] = None,
    analytic_measure: Optional[float] = None,
) -> SurfaceGrid:
    """Uniform periodic grid on a closed curve with induced metric h(u)."""
    _check_resolution((n,))
    du = period / n
    nodes = (np.arange(n) * du).reshape(-1, 1)
    h = np.ones(n) if metric_values is None else np.asarray(metric_values, dtype=float)
    weights = np.sqrt(h) * du
    if analytic_measure is not None:
        weights *= analytic_measure / weights.sum()
    return SurfaceGrid(
        kind=GridKind.PERIODIC_TENSOR,
        shape=(n,),
        periods=(period,),
        nodes=nodes,
        metric_diag=h.reshape(-1, 1),
        weights=weights,
    )


def periodic_tensor_grid(shape: tuple[int, ...], periods: tuple[float, ...]) -> SurfaceGrid:
    """Flat periodic tensor-product grid (tori with unit coordinate metric)."""
    _check_resolution(shape)
    axes = [np.arange(n) * p / n for n, p in zip(shape, periods)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    num = nodes.shape[0]
    cell = np.prod([p / n for n, p in zip(shape, periods)])
    return SurfaceGrid(
        kind=GridKind.PERIODIC_TENSOR,
        shape=tuple(shape),
        periods=tuple(periods),
        nodes=nodes,
        metric_diag=np.ones((num, len(shape))),
        weights=np.full(num, cell),
    )


def latlong_sphere_grid(n_theta: int, n_phi: int, radius: float = 1.0) -> SurfaceGrid:
    """Staggered latitude rows exclude the poles; area-exact weights."""
    _check_resolution((n_theta, n_phi))
    dtheta = math.pi / n_theta
    dphi = 2.0 * math.pi / n_phi
    thetas = (np.arange(n_theta) + 0.5) * dtheta
    phis = np.arange(n_phi) * dphi
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    nodes = np.stack([tt.ravel(), pp.ravel()], axis=1)
    metric_diag = np.stack(
        [np.full(nodes.shape[0], radius**2), (radius * np.sin(nodes[:, 0])) ** 2], axis=1
    )
    weights = radius**2 * np.sin(nodes[:, 0]) * dtheta * dphi
    weights *= 4.0 * math.pi * radius**2 / weights.sum()
    return SurfaceGrid(
        kind=GridKind.LATLONG_SPHERE,
        shape=(n_theta, n_phi),
        periods=(math.pi, 2.0 * math.pi),
        nodes=nodes,
        metric_diag=metric_diag,
        weights=weights,
    )


def grid_from_surface(surface: SliceSurface, data: InitialData, resolution: int) -> SurfaceGrid:
    """Grid matched to a one-dimensional slice surface parametrization."""
    return _curve_grids_and_coefficients(surface, data, [resolution])[0][0]


@dataclass
class StabilityCoefficients:
    """Per-node operator data: potential, drift and its divergence."""

    Q: np.ndarray
    X: np.ndarray
    divX: np.ndarray
    normX_sq: np.ndarray

    @classmethod
    def zero(cls, grid: SurfaceGrid) -> "StabilityCoefficients":
        num = grid.num_nodes
        d = grid.nodes.shape[1]
        return cls(np.zeros(num), np.zeros((num, d)), np.zeros(num), np.zeros(num))

    def shifted(self, offset: float) -> "StabilityCoefficients":
        return StabilityCoefficients(self.Q + offset, self.X, self.divX, self.normX_sq)


def stability_coefficients(
    data: InitialData, surface: SliceSurface, u: np.ndarray, ext: ExtrinsicData
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pointwise coefficients of the stability operator: potential Q, drift X
    and |X|^2 at the parameters u, from their extrinsic data ``ext``."""
    m = ext.metric
    k, dk = data.K_field(ext.H.base)
    nu = np.asarray(surface.nu(u), dtype=float)
    cq = constraints_from_jet(m, k, dk)
    # scalar second fundamental form in direction nu, as a form on Sigma
    ii = ext.II
    k_nu = -np.vecmat(np.matvec(m.g, nu), flat2(ii)).reshape(ii.shape[:-3] + ii.shape[-2:])
    tangent_t = np.swapaxes(ext.tangent, -1, -2)
    total = k_nu + tangent_t @ k @ ext.tangent
    inv = ext.induced_inv
    norm_total_sq = trace_product(total, inv @ total @ inv.mT)
    q = 0.5 * surface.scal_sigma(u) - (np.vecdot(cq.J, nu) + cq.rho) - 0.5 * norm_total_sq
    omega = np.matvec(tangent_t @ k, nu)
    return q, np.matvec(inv, omega), np.vecdot(np.vecmat(omega, inv), omega)


def _curve_grids_and_coefficients(
    surface: SliceSurface, data: InitialData, resolutions
) -> list[tuple[SurfaceGrid, StabilityCoefficients]]:
    """The grid and coefficients of a curve surface at each resolution, from one
    ``extrinsic_data`` call over the distinct node parameters of them all.

    A resolution's parameters are np.arange(r) * (period / r); a parameter that
    several resolutions share, bitwise, is evaluated once.  Every coefficient
    but div X is pointwise, so each grid reads its nodes' values from the union.
    """
    emb, period = surface.embedding, surface.param_period
    if emb.sigma_dim != 1:
        raise ValueError("grid_from_surface supports curve surfaces; use latlong_sphere_grid")
    params = [np.arange(r) * (period / r) for r in resolutions]
    u, inverse = np.unique(np.concatenate(params), return_inverse=True)
    # the union's extrinsic data is freed on return, before any eigensolve
    ext = extrinsic_data(emb, data.h_field, u[:, None])
    h = ext.induced[:, 0, 0]
    q, x, norm_x = stability_coefficients(data, surface, u[:, None], ext)
    out = []
    for idx in np.split(inverse, np.cumsum(resolutions)[:-1]):
        grid = circle_grid(len(idx), period, h[idx], analytic_measure=surface.measure)
        x_grid = x[idx]
        divx = _divergence_on_grid(grid, x_grid)
        out.append((grid, StabilityCoefficients(q[idx], x_grid, divx, norm_x[idx])))
    return out


def _divergence_on_grid(grid: SurfaceGrid, x: np.ndarray) -> np.ndarray:
    """(1/sqrt h) d_a (sqrt h X^a) by periodic central differences."""
    if np.abs(x).max() == 0.0:
        return np.zeros(grid.num_nodes)
    if grid.kind is not GridKind.PERIODIC_TENSOR:
        # the theta axis of a latitude-longitude grid is not periodic, so
        # central differences would wrap across the poles
        raise NotImplementedError("drift fields are supported on periodic grids only")
    sqrt_h = np.sqrt(np.prod(grid.metric_diag, axis=1))
    shape = grid.shape
    div = np.zeros(grid.num_nodes)
    for axis, (n, h) in enumerate(zip(shape, grid.spacing)):
        flux = (sqrt_h * x[:, axis]).reshape(shape)
        d = (np.roll(flux, -1, axis=axis) - np.roll(flux, 1, axis=axis)) / (2.0 * h)
        div += d.ravel() / sqrt_h
    return div


def assemble_stability_operator(grid: SurfaceGrid, coeffs: StabilityCoefficients) -> BlockOperator:
    """-Lap + 2 X.grad + (Q + div X - |X|^2) on the grid, written straight into
    the block diagonals of its grid-row blocks (``BlockOperator``).  Coefficients
    with a leading stack axis S give a stack of S operators, each bitwise alone."""
    _check_resolution(grid.shape)
    b = _block_size(grid.shape, grid.num_nodes)
    _, cols = _band_blocks(grid.num_nodes // b)
    op = BlockOperator(np.zeros(np.shape(coeffs.Q)[:-1] + cols.shape + (b, b)))
    rows = np.arange(grid.num_nodes)
    diag = op.at(rows, rows)
    if grid.kind is GridKind.PERIODIC_TENSOR:
        _periodic_stencil(grid, coeffs.X, op, diag)
    elif np.abs(coeffs.X).max() != 0.0:
        raise NotImplementedError("drift fields are supported on periodic grids only")
    else:
        _latlong_stencil(grid, op, diag)
    op.bands[diag] += coeffs.Q + coeffs.divX - coeffs.normX_sq
    return op


def _periodic_stencil(grid: SurfaceGrid, x: np.ndarray, op: BlockOperator, diag: tuple) -> None:
    """-Lap + 2 X.grad on a periodic grid, into ``op``: the conservative
    Laplace-Beltrami operator of a diagonal metric and 2 X^a d_a by central
    differences.  Both write the same neighbour entries, so each is located
    by ``BlockOperator.at`` once."""
    sqrt_h = np.sqrt(np.prod(grid.metric_diag, axis=1))
    rows = np.arange(grid.num_nodes)
    for axis, h in enumerate(grid.spacing):
        coeff = sqrt_h / grid.metric_diag[:, axis]
        # the nodes one step ahead and one step behind along the axis
        plus, minus = (np.roll(rows.reshape(grid.shape), s, axis=axis).ravel() for s in (-1, 1))
        c_plus = 0.5 * (coeff + coeff[plus])
        c_minus = 0.5 * (coeff + coeff[minus])
        scale = 1.0 / (sqrt_h * h * h)
        drift = x[..., axis] / h
        op.bands[op.at(rows, plus)] += drift - scale * c_plus
        op.bands[op.at(rows, minus)] += -drift - scale * c_minus
        op.bands[diag] += scale * (c_plus + c_minus)


def _latlong_stencil(grid: SurfaceGrid, op: BlockOperator, diag: tuple) -> None:
    """-Lap on a sphere into ``op``; the flux through the pole faces vanishes with sin(theta)."""
    n_theta, n_phi = grid.shape
    dtheta, dphi = grid.spacing
    radius_sq = grid.metric_diag[0, 0]
    theta = grid.nodes[:, 0].reshape(n_theta, n_phi)
    sin_t = np.sin(theta)
    idx = np.arange(grid.num_nodes).reshape(n_theta, n_phi)
    # theta direction: conservative flux with face values sin(theta +- dtheta/2);
    # the first and last rows have no neighbour across the pole
    denom = radius_sq * sin_t * dtheta * dtheta
    c_up = np.sin(theta + 0.5 * dtheta) / denom
    c_dn = np.sin(theta - 0.5 * dtheta) / denom
    c_up[-1] = 0.0
    c_dn[0] = 0.0
    # phi direction: periodic second difference
    scale = np.broadcast_to(1.0 / (radius_sq * sin_t[:, :1] ** 2 * dphi * dphi), idx.shape)
    op.bands[op.at(idx[:-1], idx[1:])] = -c_up[:-1]
    op.bands[op.at(idx[1:], idx[:-1])] = -c_dn[1:]
    op.bands[op.at(idx, np.roll(idx, -1, axis=1))] = -scale
    op.bands[op.at(idx, np.roll(idx, 1, axis=1))] = -scale
    op.bands[diag] = (c_up + c_dn + 2.0 * scale).ravel()


def _block_size(shape: Optional[tuple[int, ...]], num: int) -> int:
    """Nodes per block of an N-node operator on a grid of ``shape``: a latitude row on a
    lat-long grid, a line of the last axis on a periodic 2-d grid, on a circle
    the largest divisor of N not above sqrt(N).  N itself (m = 1, the same
    elimination) without a grid, for fewer than three blocks or under ``MIN_BLOCK_NODES``."""
    if shape is None:
        return num
    if math.prod(shape) != num:
        raise ValueError(f"operator of order {num} on a grid of {math.prod(shape)} nodes")
    if len(shape) > 1:
        size = num // shape[0]
    else:
        size = max(d for d in range(1, math.isqrt(num) + 1) if num % d == 0)
    return size if size >= MIN_BLOCK_NODES and num >= 3 * size else num


def _band_blocks(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Block rows (m,) and block columns (bands, m) of the block diagonals:
    i, i - 1 and i + 1 (mod m), or the one diagonal of a single block."""
    rows = np.arange(m)
    return rows, (rows + np.array([0, -1, 1])[: min(m, 3), None]) % m


class BlockOperator:
    """An N x N grid operator as the block diagonals of m x m blocks of b nodes,
    or a stack of same-shape operators.

    Every nonzero of block row i lies in block columns i - 1, i, i + 1 (mod
    m): block-cyclic on periodic grids, block-tridiagonal with zero corners
    on lat-long grids.  ``bands`` has shape (3, m, b, b); bands 0, 1, 2 hold
    blocks (i, i), (i, i - 1) and (i, i + 1).  One block (m = 1), its own
    neighbour, has the one band (1, 1, N, N) and runs the same code.  A stack
    of S has bands (S, bands, m, b, b), over which ``at``, ``apply`` and
    ``shifted_solver`` broadcast; ``dense`` takes one operator.
    """

    def __init__(self, bands: np.ndarray):
        self.bands = bands
        self.m, self.b = bands.shape[-3:-1]
        self.shape = (self.m * self.b,) * 2

    @classmethod
    def from_dense(cls, matrix: np.ndarray, grid: Optional[SurfaceGrid] = None) -> BlockOperator:
        """A hand-built N x N matrix in blocks chosen by ``grid`` (one block
        without); a nonzero outside the bands raises ``EigensolverFailure``."""
        num = matrix.shape[0]
        b = _block_size(None if grid is None else grid.shape, num)
        m = num // b
        rows, cols = _band_blocks(m)
        op = cls(matrix.reshape(m, b, m, b)[rows, :, cols, :])
        if np.count_nonzero(matrix) != np.count_nonzero(op.bands):
            raise EigensolverFailure(
                f"operator has nonzeros outside the block-tridiagonal stencil of "
                f"{m} blocks of {b} nodes"
            )
        return op

    def at(self, rows: np.ndarray, cols: np.ndarray) -> tuple:
        """Index into ``bands`` of the matrix entries (rows, cols), which must
        lie on the block diagonals, in every member of a stack."""
        i, r = np.divmod(rows, self.b)
        j, c = np.divmod(cols, self.b)
        return ..., np.where(j == i, 0, np.where(j == (i + 1) % self.m, 2, 1)), i, r, c

    def dense(self) -> np.ndarray:
        """The N x N matrix, a new array."""
        rows, cols = _band_blocks(self.m)
        out = np.zeros((self.m, self.b, self.m, self.b))
        out[rows, :, cols, :] = self.bands
        return out.reshape(self.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for x of shape (N,) or (N, c), or (S, N, c) for a stack of S.

        Block row i of x is the view xb[..., i, :, :]; blocks i - 1 and i + 1
        (mod m) are read through shifted slices of it, the wrapped block alone,
        so each block's products and sums are bitwise a per-block loop's."""
        xb = x.reshape(x.shape[:-2] + (self.m, self.b, -1))
        out = self.bands[..., 0, :, :, :] @ xb
        if self.bands.shape[-4] > 1:  # bands 1 and 2, which one block has not
            lo, up = self.bands[..., 1, :, :, :], self.bands[..., 2, :, :, :]
            out[..., 1:, :, :] += lo[..., 1:, :, :] @ xb[..., :-1, :, :]
            out[..., 0, :, :] += lo[..., 0, :, :] @ xb[..., -1, :, :]
            out[..., :-1, :, :] += up[..., :-1, :, :] @ xb[..., 1:, :, :]
            out[..., -1, :, :] += up[..., -1, :, :] @ xb[..., 0, :, :]
        return out.reshape(x.shape)

    def shifted_solver(self, sigma) -> Callable[..., np.ndarray]:
        """x -> (A - sigma I)^-1 x by a block LU factorisation made once.

        Blocks 0 .. m-2 are eliminated in order without pivoting, which is
        stable because A - sigma I is strictly row diagonally dominant for the
        Gershgorin shift.  The cyclic corner blocks are carried as a fill
        column (block column m-1) and a fill row (block row m-1): block-arrow
        elimination.  Each pivot block is inverted once.  The fill row and the
        fill column are arrays with a block axis: each enters a solve as one
        stacked product, subtracted in a per-block loop's order and bitwise its
        result, and only the two block-tridiagonal recurrences loop over blocks.
        One block (m = 1), with empty block axes, is the case of no elimination
        step: its one pivot is the whole shifted matrix, inverted once and
        applied by one product.  A stack takes a shift per member and x of
        shape (S, N, c).
        """
        m, b, last = self.m, self.b, self.m - 1
        # lo[..., i, :, :] and up[..., i, :, :] are blocks (i, i - 1) and (i, i + 1);
        # one block, which never reads them, has its one band in their place
        lo, up = (self.bands[..., k % self.bands.shape[-4], :, :, :] for k in (1, 2))
        d = self.bands[..., 0, :, :, :] - np.asarray(sigma)[..., None, None, None] * np.eye(b)
        # step i keeps the pivot inverse P_i = S_i^-1, the fill column F_i
        # (block (i, m-1) of U), the fill-row multiplier V_i = G_i P_i and,
        # below the last block row, the lower multiplier W_{i+1} = A_{i+1,i} P_i
        pivots, lower = [], []
        fill_col, fill_row = np.empty((2,) + d[..., 1:, :, :].shape)
        s, t, f, g = d[..., 0, :, :], d[..., last, :, :], lo[..., 0, :, :], up[..., last, :, :]
        for i in range(last):
            pivots.append(p := np.linalg.inv(s))
            fill_col[..., i, :, :] = f
            v = np.matmul(g, p, out=fill_row[..., i, :, :])
            t = t - v @ f
            if i + 1 < last:
                lower.append(w := lo[..., i + 1, :, :] @ p)
                s = d[..., i + 1, :, :] - w @ up[..., i, :, :]
                # blocks (i+1, m-1) and (m-1, i+1) are nonzero only when adjacent
                adjacent = i + 2 == last
                f = (up[..., i + 1, :, :] if adjacent else 0.0) - w @ f
                g = (lo[..., last, :, :] if adjacent else 0.0) - v @ up[..., i, :, :]
        pivots.append(np.linalg.inv(t))

        def solve(y: np.ndarray) -> np.ndarray:
            yb = y.reshape(y.shape[:-2] + (m, b, -1))
            # work holds z_i = y_i - W_i z_{i-1}, later r_i = z_i - F_i x_{m-1}, in blocks
            # 0 .. m-2, y_{m-1} in block m-1 and the fill row's products V_i z_i after it
            work = np.empty(yb.shape[:-3] + (2 * m - 1,) + yb.shape[-2:])
            work[..., :m, :, :] = yb
            z = work[..., :last, :, :]
            for i in range(1, last):
                z_i = z[..., i, :, :]
                z_i -= lower[i - 1] @ z[..., i - 1, :, :]
            np.matmul(fill_row, z, out=work[..., m:, :, :])
            x = np.empty(yb.shape)
            # y_{m-1} - V_0 z_0 - V_1 z_1 - ..., subtracted left to right
            x_last = np.matmul(pivots[last], np.subtract.reduce(work[..., last:, :, :], axis=-3),
                               out=x[..., last, :, :])
            z -= fill_col @ x_last[..., None, :, :]
            for i in reversed(range(last)):
                r_i = z[..., i, :, :]
                if i + 1 < last:
                    r_i -= up[..., i, :, :] @ x[..., i + 1, :, :]
                np.matmul(pivots[i], r_i, out=x[..., i, :, :])
            return x.reshape(y.shape)

        return solve


def _orthogonal_iteration(op: BlockOperator, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k eigenvalues (S, k) of minimal real part with unit eigenvectors (S, N, k)
    of each member of a stack of operators, both complex, and whether each was real.

    The shift sigma sits one unit below the Gershgorin lower bound
    min(diag - off-diagonal row sum), so the principal eigenvalue is the
    eigenvalue nearest sigma and the dominant one of (A - sigma I)^-1.
    Orthogonal iteration on that inverse carries ``OVERSAMPLING`` directions
    beyond the k wanted ones (the block spans the whole space when
    k + OVERSAMPLING >= N); Rayleigh-Ritz on Q^T A Q extracts the pairs,
    ordered by real part with ties broken by minimal imaginary magnitude.
    For a real spectrum these are the k lowest eigenvalues.  Iteration stops
    once every residual ||A phi - lambda phi|| of a unit eigenvector is below
    N eps ||A||_inf.  The starting block is the constant vector followed by
    fixed-seed columns, so the result is a pure function of the matrix.
    A - sigma I is factored once by the operator's blocks (``_block_size``,
    ``BlockOperator.shifted_solver``).  The finiteness check, the Gershgorin
    sums and A Q read only the three block diagonals; a non-finite entry
    raises ``EigensolverFailure``.

    Members iterate together until the last one converges, and each result is
    stored at the first iteration that meets its member's own stop rule, so it
    is exactly its own solve's.  A stacked ``eig`` is complex when any member's
    is, so each step takes the members whose Ritz values are all real as one
    real stack, as ``eig`` does for one matrix, and the others as one complex.
    """
    if not np.isfinite(op.bands).all():
        raise EigensolverFailure("operator has non-finite entries")
    count, num = op.bands.shape[0], op.shape[0]
    diag = np.diagonal(op.bands[:, 0], axis1=-2, axis2=-1).reshape(count, num)
    row_sums = np.abs(op.bands).sum(axis=-1).sum(axis=-3).reshape(count, num)
    sigma = (diag - (row_sums - np.abs(diag))).min(axis=-1) - 1.0
    tol = num * np.finfo(float).eps * row_sums.max(axis=-1)
    start = np.random.default_rng(0).standard_normal((num, min(num, k + OVERSAMPLING)))
    start[:, 0] = 1.0
    q = np.broadcast_to(start, (count,) + start.shape)
    columns = np.arange(start.shape[1])[:, None]  # row index of the Ritz coefficient matrices
    # every member's slot is written when it converges, or the solve raises
    vals, vecs = np.empty((count, min(k, num)), complex), np.empty((count, num, min(k, num)), complex)
    real, going, residuals = np.zeros(count, bool), np.ones(count, bool), np.zeros(count)
    step = "factorising A - sigma I"
    try:
        solve = op.shifted_solver(sigma)
        step = "orthogonal iteration on (A - sigma I)^-1"
        for _ in range(MAX_ITERATIONS):
            q, _ = np.linalg.qr(solve(q))
            aq = op.apply(q)
            ritz, coeffs = np.linalg.eig(q.mT @ aq)
            ritz_real = ~ritz.imag.any(axis=-1)
            for rows, taken_real in ((ritz_real, True), (~ritz_real, False)):
                size = np.count_nonzero(rows)
                if not size:
                    continue
                # a group of every member, as one operator always is, is taken without copies
                sel = slice(None) if size == count else rows
                v, c = (ritz[sel].real, coeffs[sel].real) if taken_real else (ritz[sel], coeffs[sel])
                # real values have no imaginary key: one stable key sorts them alike
                order = np.lexsort((v,) if taken_real else (np.abs(v.imag), v.real), axis=-1)[:, :k]
                # np.take_along_axis written out, at half its cost for these small arrays
                member = np.arange(size)[:, None]
                v, c = v[member, order], c[member[:, None], columns, order[:, None, :]]
                x = q[sel] @ c
                r = aq[sel] @ c - x * v[:, None, :]
                # the largest column 2-norm, as np.linalg.norm(r, axis=-2) forms it
                residuals[sel] = res = np.sqrt(np.add.reduce((r.conj() * r).real, axis=-2)).max(-1)
                done = going[sel] & (res <= tol[sel])
                if done.any():
                    idx = np.flatnonzero(rows)[done]
                    vals[idx], vecs[idx], real[idx] = v[done], x[done], taken_real
                    going[idx] = False
            if not going.any():
                break
        else:
            i = np.flatnonzero(going)[0]
            raise EigensolverFailure(f"no convergence in {MAX_ITERATIONS} iterations: residual "
                                     f"{residuals[i]:.3e} above {tol[i]:.3e}")
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"{step} at sigma={sigma.squeeze()} failed: {exc}") from exc
    for lam in vals[:, 0].tolist():
        if abs(lam.imag) > 1e-8 * (1.0 + abs(lam.real)):
            raise EigensolverFailure(f"principal eigenvalue has non-negligible imaginary part {lam.imag:.3e}")
    return vals, vecs, real


@dataclass
class PrincipalEigen:
    lambda1: complex
    eigenfunction: np.ndarray
    positivity: bool
    # ||A phi - lambda1 phi|| / ||phi|| of the returned pair
    residual: float
    # the eigenvalues found by the solve, lambda1 first
    spectrum_head: np.ndarray
    operator: BlockOperator = field(repr=False)

    @property
    def lambda1_real(self) -> float:
        return float(self.lambda1.real)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Every eigenvalue, from the dense matrix on first use: by ``eigvalsh`` (real,
        ascending) if it is bitwise symmetric (drift-free circles), else by ``eigvals``."""
        a = self.operator.dense()
        return np.linalg.eigvalsh(a) if np.array_equal(a, a.T) else np.linalg.eigvals(a)


def principal_eigenvalue(operator, grid: SurfaceGrid, k: int = 1) -> PrincipalEigen:
    """Eigenvalue of minimal real part with its one-signed eigenfunction.

    ``k`` eigenvalues are solved for (see ``_orthogonal_iteration``) and kept
    as ``spectrum_head``.  An assembled ``operator`` is solved by its own
    blocks; a hand-built N x N matrix is split into blocks chosen by ``grid``
    (``BlockOperator.from_dense``).  The eigenfunction is rescaled to be real
    with positive mean; the positivity flag records whether it is strictly
    one-signed.
    """
    return principal_eigenvalues([operator], grid, k)[0]


def principal_eigenvalues(operators, grid: SurfaceGrid, k: int = 1) -> list[PrincipalEigen]:
    """``principal_eigenvalue`` of each of a list of same-shape operators on ``grid``,
    solved and finished as one stack; each result is bitwise its own solve's."""
    ops = [BlockOperator.from_dense(o, grid) if isinstance(o, np.ndarray) else o for o in operators]
    stack = BlockOperator(np.stack([op.bands for op in ops]) if len(ops) > 1 else ops[0].bands[None])
    vals, vecs, real = _orthogonal_iteration(stack, k)
    first = vecs[:, :, 0]
    pivot = first[np.arange(len(first)), np.argmax(np.abs(first), axis=-1)][:, None]
    vec = np.empty(first.shape)
    # complex division by a real pivot rounds unlike real division, so real members divide as reals
    vec[real] = first[real].real / pivot[real].real
    vec[~real] = (first[~real] / pivot[~real]).real
    np.negative(vec, out=vec, where=vec.mean(axis=-1, keepdims=True) < 0)
    vec /= np.abs(vec).max(axis=-1, keepdims=True)
    positivity = (vec.min(axis=-1) > 0.0) | (vec.max(axis=-1) < 0.0)
    # the Rayleigh quotient of the real eigenfunction, accumulated in extended
    # precision, is accurate to the rounding level of the matrix itself
    col = vec[..., None]
    wide = col.astype(np.longdouble)
    lam = (wide.mT @ stack.apply(wide) / (wide.mT @ wide)).astype(float)
    r = stack.apply(col) - lam * col
    residual = (np.sqrt(r.mT @ r) / np.sqrt(col.mT @ col))[:, 0, 0]
    head = np.concatenate([lam[:, 0], vals[:, 1:]], axis=-1)
    return [PrincipalEigen(complex(lam_j), vec_j, pos_j, res_j, head_j.real if real_j else head_j, op)
            for lam_j, vec_j, pos_j, res_j, head_j, real_j, op in zip(
                lam.ravel().tolist(), vec, positivity.tolist(), residual.tolist(), head, real.tolist(), ops)]


def quadrature_symmetry_residual(operator: BlockOperator, grid: SurfaceGrid) -> float:
    """Max asymmetry of the operator in the quadrature inner product: each
    block (i, j) of W A against the transpose of its block (j, i)."""
    _, cols = _band_blocks(operator.m)
    wa = grid.weights.reshape(operator.m, operator.b, 1) * operator.bands
    # block (i, j) of band 0, 1, 2 is mirrored by block (j, i) of band 0, 2, 1
    mirror = wa[np.array([0, 2, 1])[: len(cols), None], cols]
    asymmetry = np.abs(wa - np.swapaxes(mirror, -1, -2)).max()
    return float(asymmetry / max(1.0, np.abs(wa).max()))


# --- deformation of a MOTS along its normal --------------------------------


@dataclass
class DeformationCase:
    """Everything needed to displace a MOTS and recompute its expansion.

    ``theta_of(t, phi)`` returns the outward null expansion at every grid
    node of the surface displaced by t * phi along the outward unit normal,
    or one row of them per displacement of a stack t, bitwise as one t alone.
    """

    grid: SurfaceGrid
    coefficients: StabilityCoefficients
    theta_of: Callable[[np.ndarray, np.ndarray], np.ndarray]
    injectivity_scale: float = 1.0

    def shifted(self, q_offset: float) -> "DeformationCase":
        """The case with q_offset added to the potential and q_offset * t * phi to
        ``theta_of``, so that its linearization matches the shifted operator."""
        return DeformationCase(self.grid, self.coefficients.shifted(q_offset), lambda t, phi: (
            self.theta_of(t, phi) + q_offset * np.expand_dims(t, -1) * phi), self.injectivity_scale)


@dataclass
class DeformationReport:
    lambda1: float
    max_rel_error: float
    displacement: float
    theta_displaced: np.ndarray
    outer_trapped_achieved: bool


def deformation_check(case: DeformationCase, fd_step: float = 1e-4) -> DeformationReport:
    """Verify d(theta_+)/dt = lambda_1 phi and achieve theta_+ < 0.

    The displacement sign follows the rule: move along +nu when lambda_1 < 0
    and along -nu when lambda_1 > 0, with step 0.05 times the injectivity
    scale; the report records whether the displaced surface is outer trapped
    at every node.
    """
    operator = assemble_stability_operator(case.grid, case.coefficients)
    eigen = principal_eigenvalue(operator, case.grid)
    lam = eigen.lambda1_real
    if abs(lam) <= DEGENERACY_TOL:
        raise DegenerateMOTS(f"principal eigenvalue {lam:.3e} below degeneracy threshold")
    if not eigen.positivity:
        raise DegenerateMOTS("principal eigenfunction is not one-signed")
    phi = eigen.eigenfunction
    t_star = 0.05 * case.injectivity_scale * (1.0 if lam < 0 else -1.0)
    theta_plus, theta_minus, theta_displaced = case.theta_of(
        np.array([fd_step, -fd_step, t_star]), phi)
    fd = (theta_plus - theta_minus) / (2.0 * fd_step)
    predicted = lam * phi
    rel = np.abs(fd - predicted) / np.maximum(np.abs(predicted), 1e-300)
    return DeformationReport(
        lambda1=lam,
        max_rel_error=float(rel.max()),
        displacement=float(t_star),
        theta_displaced=theta_displaced,
        outer_trapped_achieved=bool(np.all(theta_displaced < 0.0)),
    )


def _nodal_curve_embedding(
    grid: SurfaceGrid, theta_vals: np.ndarray
) -> tuple[EmbeddingJet2, Callable[[np.ndarray], np.ndarray]]:
    """Latitude-profile curve theta(u) on the unit 2-sphere from nodal values.

    Derivatives of the profile come from periodic central differences of the
    nodal values, which is exact for the constant profiles arising from
    principal eigenfunctions of the equator.  For an (S, nodes) stack of
    profiles, the points of parameters (S, ..., 1) lie on their row's curve.
    """
    n = grid.shape[0]
    du = grid.spacing[0]
    ahead, behind = np.roll(theta_vals, -1, axis=-1), np.roll(theta_vals, 1, axis=-1)
    d_theta = (ahead - behind) / (2.0 * du)
    dd_theta = (ahead - 2.0 * theta_vals + behind) / du**2

    def node_index(u: np.ndarray) -> np.ndarray:
        val = np.asarray(u, dtype=float)[..., 0]
        steps = np.round(val / du)
        if np.count_nonzero(np.abs(val - steps * du) > 1e-9):
            raise ValueError("nodal embedding evaluated off the grid")
        return steps.astype(int) % n

    def at(v: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The nodal values v at nodes i, each row of a stack from its own profile."""
        return np.take_along_axis(v, i.reshape(v.shape[:-1] + (-1,)), -1).reshape(i.shape)

    def jet(u: np.ndarray):
        """The (..., 2) pairs (theta, u) at the node of u and their derivatives."""
        i = node_index(u)
        pairs = ((theta_vals, np.asarray(u, dtype=float)[..., 0]), (d_theta, 1.0), (dd_theta, 0.0))
        x, d, dd = (np.stack(np.broadcast_arrays(at(v, i), w), axis=-1) for v, w in pairs)
        return x, d[..., None], dd[..., None, None]

    emb = EmbeddingJet2(
        sigma_dim=1,
        ambient_dim=2,
        jet=jet,
        sample_set=grid.nodes,
        name="displaced_equator",
    )

    def nu(u: np.ndarray) -> np.ndarray:
        i = node_index(u)
        s2 = elementwise(lambda theta: math.sin(theta) ** 2, at(theta_vals, i))
        slope = at(d_theta, i)
        raw = np.stack(np.broadcast_arrays(1.0, -slope / s2), axis=-1)
        norm = np.sqrt(1.0 + elementwise(lambda v: v**2, slope) / s2)
        return raw / np.expand_dims(norm, -1)

    return emb, nu


def equator_deformation_case(resolution: int = 64, q_offset: float = 0.0) -> DeformationCase:
    """``equator_deformation_cases`` at one resolution, ``shifted`` by ``q_offset``."""
    return equator_deformation_cases([resolution])[0].shifted(q_offset)


def equator_deformation_cases(resolutions) -> list[DeformationCase]:
    """Deformation case for the equator of the unit-sphere slice (n = 2) at
    each resolution, from one geometry pass over their distinct nodes."""
    sc = build_scenario("einstein_cylinder", {"n": 2})
    data = sc.initial_data
    surface = sc.slice_surfaces["equator"]

    def case(grid: SurfaceGrid, coeffs: StabilityCoefficients) -> DeformationCase:
        def theta_of(t, phi: np.ndarray) -> np.ndarray:
            t = np.expand_dims(t, -1)  # one row per displacement of a stack
            profiles = 0.5 * math.pi + t * phi
            emb, nu = _nodal_curve_embedding(grid, profiles)
            nodes = np.broadcast_to(grid.nodes, profiles.shape + (1,))
            return initial_data_expansions(data, emb, nu, nodes)[0]

        return DeformationCase(grid, coeffs, theta_of, surface.injectivity_scale)

    return [case(*gc) for gc in _curve_grids_and_coefficients(surface, data, resolutions)]


def flat_torus_degenerate_case(resolution: int = 32) -> DeformationCase:
    """Circle in flat torus data: Q = 0 identically, principal eigenvalue 0."""
    sc = build_scenario("minkowski_torus_quotient", {"m": 2})
    surface = sc.slice_surfaces["Sigma"]
    [(grid, coeffs)] = _curve_grids_and_coefficients(surface, sc.initial_data, [resolution])

    def theta_of(t, phi: np.ndarray) -> np.ndarray:
        # flat quotient: a normal displacement of the flat circle stays minimal
        return np.zeros(np.shape(t) + (grid.num_nodes,))

    return DeformationCase(grid, coeffs, theta_of, surface.injectivity_scale)
