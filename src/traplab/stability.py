"""Stability operator of marginally outer trapped surfaces on closed grids.

The operator acting on surface functions is

    L(psi) = -Lap psi + 2 <X, grad psi> + (Q + div X - |X|^2) psi,
    Q = Scal_Sigma / 2 - (J(nu) + rho) - |K_nu + K|^2 / 2,

where rho, J are the slice constraint quantities, K_nu the scalar second
fundamental form of the surface and X the surface-tangential dual of
K(nu, .).  The discretization is a second-order conservative finite
difference scheme on closed grids (periodic tensor grids for circles and
flat tori, latitude-longitude grids with staggered rows for spheres), so the
time-symmetric case produces a matrix that is exactly self-adjoint in the
quadrature inner product.

The principal eigenvalue lambda_1 is real and has minimal real part
(arXiv:0704.2889).  Every eigenvalue lies in a Gershgorin disc, so a real
shift sigma below all discs has Re(lambda) - sigma >= lambda_1 - sigma > 0
for every eigenvalue: lambda_1 is the eigenvalue nearest sigma, hence the
dominant eigenvalue of (A - sigma I)^-1.  The operators are block tridiagonal
in grid rows (block-cyclic on periodic grids), so ``principal_eigenvalue``
factors the shifted matrix once by blocks of grid rows, without pivoting since
it is strictly diagonally dominant, and runs orthogonal iteration with
Rayleigh-Ritz extraction on the factors (``lowest_eigenpairs``).  An operator
whose blocks would have fewer than ``MIN_BLOCK_NODES`` nodes is one block,
factored by one dense inverse.  The solve uses numpy only and a fixed
starting block, so replays are bytewise identical.  The full dense spectrum
is computed only on request.
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
from .initial_data import InitialData, constraints_from_jet, initial_data_expansions
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


def _curve_nodes(
    surface: SliceSurface, data: InitialData, resolution: int
) -> tuple[np.ndarray, ExtrinsicData]:
    """The node parameters of a curve surface, (resolution, 1), with their
    extrinsic data from one ``extrinsic_data`` call."""
    emb = surface.embedding
    if emb.sigma_dim != 1:
        raise ValueError("grid_from_surface supports curve surfaces; use latlong_sphere_grid")
    u = (np.arange(resolution) * (surface.param_period / resolution))[:, None]
    return u, extrinsic_data(emb, data.h_field, u)


def _curve_grid(surface: SliceSurface, ext: ExtrinsicData) -> SurfaceGrid:
    h = ext.induced[:, 0, 0]
    return circle_grid(len(h), surface.param_period, h, analytic_measure=surface.measure)


def grid_from_surface(surface: SliceSurface, data: InitialData, resolution: int) -> SurfaceGrid:
    """Grid matched to a one-dimensional slice surface parametrization."""
    return _curve_grid(surface, _curve_nodes(surface, data, resolution)[1])


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
    data: InitialData, surface: SliceSurface, grid: SurfaceGrid
) -> StabilityCoefficients:
    """Assemble the geometric coefficients of the stability operator."""
    ext = extrinsic_data(surface.embedding, data.h_field, grid.nodes)
    return _coefficients(grid, data, surface, grid.nodes, ext)


def _coefficients(
    grid: SurfaceGrid, data: InitialData, surface: SliceSurface, u: np.ndarray, ext: ExtrinsicData
) -> StabilityCoefficients:
    """Potential Q, drift X, div X and |X|^2 at the grid nodes u, from their
    extrinsic data."""
    m = ext.metric
    k, dk = data.K_field(ext.H.base)
    nu = np.asarray(surface.nu(u), dtype=float)
    cq = constraints_from_jet(m, k, dk)
    # scalar second fundamental form in direction nu, as a form on Sigma
    k_nu = -np.einsum("...a,...aij->...ij", np.matvec(m.g, nu), ext.II)
    tangent_t = np.swapaxes(ext.tangent, -1, -2)
    total = k_nu + tangent_t @ k @ ext.tangent
    inv = ext.induced_inv
    norm_total_sq = np.einsum("...ac,...bd,...ab,...cd->...", inv, inv, total, total)
    q = 0.5 * surface.scal_sigma(u) - (np.vecdot(cq.J, nu) + cq.rho) - 0.5 * norm_total_sq
    omega = np.matvec(tangent_t @ k, nu)
    x = np.matvec(inv, omega)
    norm_x = np.vecdot(np.vecmat(omega, inv), omega)
    return StabilityCoefficients(Q=q, X=x, divX=_divergence_on_grid(grid, x), normX_sq=norm_x)


def _curve_grid_and_coefficients(
    surface: SliceSurface, data: InitialData, resolution: int
) -> tuple[SurfaceGrid, StabilityCoefficients]:
    """``grid_from_surface`` and ``stability_coefficients`` from one
    ``extrinsic_data`` call over the nodes."""
    u, ext = _curve_nodes(surface, data, resolution)
    grid = _curve_grid(surface, ext)
    return grid, _coefficients(grid, data, surface, u, ext)


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


def assemble_stability_operator(grid: SurfaceGrid, coeffs: StabilityCoefficients) -> np.ndarray:
    """Dense matrix of -Lap + 2 X.grad + (Q + div X - |X|^2) on the grid."""
    _check_resolution(grid.shape)
    if grid.kind is GridKind.PERIODIC_TENSOR:
        mat = _laplacian_periodic(grid)
    else:
        mat = _laplacian_latlong(grid)
    mat = -mat
    mat += _drift_matrix(grid, coeffs.X)
    zeroth = coeffs.Q + coeffs.divX - coeffs.normX_sq
    mat[np.diag_indices_from(mat)] += zeroth
    return mat


def _axis_neighbors(shape, axis):
    """Index maps for +1 / -1 shifts along an axis of the flattened grid."""
    num = int(np.prod(shape))
    idx = np.arange(num).reshape(shape)
    plus = np.roll(idx, -1, axis=axis).ravel()
    minus = np.roll(idx, 1, axis=axis).ravel()
    return plus, minus


def _laplacian_periodic(grid: SurfaceGrid) -> np.ndarray:
    """Conservative Laplace-Beltrami for a diagonal metric on a periodic grid."""
    num = grid.num_nodes
    shape = grid.shape
    sqrt_h = np.sqrt(np.prod(grid.metric_diag, axis=1))
    mat = np.zeros((num, num))
    rows = np.arange(num)
    for axis, h in enumerate(grid.spacing):
        coeff = sqrt_h / grid.metric_diag[:, axis]
        plus, minus = _axis_neighbors(shape, axis)
        c_plus = 0.5 * (coeff + coeff[plus])
        c_minus = 0.5 * (coeff + coeff[minus])
        scale = 1.0 / (sqrt_h * h * h)
        mat[rows, plus] += scale * c_plus
        mat[rows, minus] += scale * c_minus
        mat[rows, rows] -= scale * (c_plus + c_minus)
    return mat


def _laplacian_latlong(grid: SurfaceGrid) -> np.ndarray:
    """Sphere Laplacian; the flux through the pole faces vanishes with sin(theta)."""
    n_theta, n_phi = grid.shape
    dtheta, dphi = grid.spacing
    num = grid.num_nodes
    radius_sq = grid.metric_diag[0, 0]
    theta = grid.nodes[:, 0].reshape(n_theta, n_phi)
    sin_t = np.sin(theta)
    idx = np.arange(num).reshape(n_theta, n_phi)
    # theta direction: conservative flux with face values sin(theta +- dtheta/2);
    # the first and last rows have no neighbour across the pole
    denom = radius_sq * sin_t * dtheta * dtheta
    c_up = np.sin(theta + 0.5 * dtheta) / denom
    c_dn = np.sin(theta - 0.5 * dtheta) / denom
    c_up[-1] = 0.0
    c_dn[0] = 0.0
    # phi direction: periodic second difference
    scale = np.broadcast_to(1.0 / (radius_sq * sin_t[:, :1] ** 2 * dphi * dphi), idx.shape)
    mat = np.zeros((num, num))
    mat[idx[:-1], idx[1:]] = c_up[:-1]
    mat[idx[1:], idx[:-1]] = c_dn[1:]
    mat[idx, np.roll(idx, -1, axis=1)] = scale
    mat[idx, np.roll(idx, 1, axis=1)] = scale
    mat[idx, idx] = -c_up - c_dn - 2.0 * scale
    return mat


def _drift_matrix(grid: SurfaceGrid, x: np.ndarray) -> np.ndarray:
    """2 <X, grad psi> = 2 X^a d_a psi, central differences."""
    num = grid.num_nodes
    mat = np.zeros((num, num))
    if np.abs(x).max() == 0.0:
        return mat
    if grid.kind is not GridKind.PERIODIC_TENSOR:
        raise NotImplementedError("drift fields are supported on periodic grids only")
    rows = np.arange(num)
    for axis, h in enumerate(grid.spacing):
        plus, minus = _axis_neighbors(grid.shape, axis)
        c = x[:, axis] / h
        mat[rows, plus] += c
        mat[rows, minus] -= c
    return mat


def _block_size(grid: Optional[SurfaceGrid], num: int) -> int:
    """Nodes per block of an N-node operator on ``grid`` (see
    ``lowest_eigenpairs``); N itself when there are fewer than three blocks."""
    if grid is None:
        return num
    if len(grid.nodes) != num:
        raise ValueError(f"operator of order {num} on a grid of {len(grid.nodes)} nodes")
    if len(grid.shape) > 1:
        size = num // grid.shape[0]
    else:
        size = max(d for d in range(1, math.isqrt(num) + 1) if num % d == 0)
    return size if size >= MIN_BLOCK_NODES and num >= 3 * size else num


class _BlockOperator:
    """An N x N grid operator as m x m blocks of b nodes.

    Every nonzero of block row i lies in block columns i - 1, i, i + 1 (mod
    m): block-cyclic on periodic grids, block-tridiagonal with zero corners
    on lat-long grids.  These three block diagonals are copied out as
    ``bands``; when m = 1 the one band is a view of the whole matrix.
    """

    def __init__(self, matrix: np.ndarray, grid: Optional[SurfaceGrid] = None):
        num = matrix.shape[0]
        self.b = _block_size(grid, num)
        self.m = num // self.b
        self.blocks = matrix.reshape(self.m, self.b, self.m, self.b)
        if self.m == 1:
            self.bands = matrix.reshape(1, 1, num, num)
        else:
            # bands 0, 1, 2 hold blocks (i, i), (i, i - 1) and (i, i + 1)
            rows = np.arange(self.m)
            cols = (rows + np.array([0, -1, 1])[:, None]) % self.m
            self.bands = self.blocks[rows, :, cols, :]
        if not np.isfinite(self.bands).all():
            raise EigensolverFailure("operator has non-finite entries")
        if self.m > 1 and np.count_nonzero(matrix) != np.count_nonzero(self.bands):
            raise EigensolverFailure(
                f"operator has nonzeros outside the block-tridiagonal stencil of "
                f"{self.m} blocks of {self.b} nodes"
            )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for x of shape (N,) or (N, c)."""
        if self.m == 1:
            return self.bands[0, 0] @ x
        xb = x.reshape(self.m, self.b, -1)
        out = self.bands[0] @ xb
        out += self.bands[1] @ np.roll(xb, 1, axis=0)
        out += self.bands[2] @ np.roll(xb, -1, axis=0)
        return out.reshape(x.shape)

    def shifted_solver(self, sigma: float) -> Callable[[np.ndarray], np.ndarray]:
        """x -> (A - sigma I)^-1 x by a block LU factorisation made once.

        Blocks 0 .. m-2 are eliminated in order without pivoting, which is
        stable because A - sigma I is strictly row diagonally dominant for the
        Gershgorin shift.  The cyclic corner blocks are carried as a fill
        column (block column m-1) and a fill row (block row m-1): block-arrow
        elimination.  Each pivot block is inverted once; for m = 1 this is
        one dense inverse of the whole matrix, applied by one product.
        """
        a, m, last = self.blocks, self.m, self.m - 1
        d = self.bands[0] - sigma * np.eye(self.b)
        # step i keeps the pivot inverse P_i = S_i^-1, the fill column F_i
        # (block (i, m-1) of U), the fill-row multiplier V_i = G_i P_i and,
        # below the last block row, the lower multiplier W_{i+1} = A_{i+1,i} P_i
        pivots, fill_col, fill_row, lower = [], [], [], []
        s, t, f, g = d[0], d[last], a[0, :, last], a[last, :, 0]
        for i in range(last):
            p = np.linalg.inv(s)
            v = g @ p
            t = t - v @ f
            pivots.append(p)
            fill_col.append(f)
            fill_row.append(v)
            if i + 1 < last:
                w = a[i + 1, :, i] @ p
                s = d[i + 1] - w @ a[i, :, i + 1]
                f = a[i + 1, :, last] - w @ f
                g = a[last, :, i + 1] - v @ a[i, :, i + 1]
                lower.append(w)
        pivots.append(np.linalg.inv(t))
        if last == 0:
            inverse = pivots[0]
            return lambda y: inverse @ y
        spans = [slice(i * self.b, (i + 1) * self.b) for i in range(m)]

        def solve(y: np.ndarray) -> np.ndarray:
            z = [y[spans[0]]]
            for i in range(1, last):
                z.append(y[spans[i]] - lower[i - 1] @ z[-1])
            acc = y[spans[last]]
            for i in range(last):
                acc = acc - fill_row[i] @ z[i]
            x = np.empty(y.shape)
            x_last = np.matmul(pivots[last], acc, out=x[spans[last]])
            for i in reversed(range(last)):
                r = z[i] - fill_col[i] @ x_last
                if i + 1 < last:
                    r = r - a[i, :, i + 1] @ x[spans[i + 1]]
                np.matmul(pivots[i], r, out=x[spans[i]])
            return x

        return solve


def lowest_eigenpairs(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenvalues of minimal real part nearest a Gershgorin shift.

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

    A - sigma I is factored once by blocks of grid nodes
    (``_BlockOperator.shifted_solver``) and the factors are applied at each
    iteration.  ``principal_eigenvalue`` takes the blocks from its grid: one
    latitude row on a lat-long grid, one line of the last axis on a periodic
    2-d grid, and on an N-node circle the largest divisor of N not above
    sqrt(N).  When a block would have fewer than ``MIN_BLOCK_NODES`` nodes,
    and always here, where no grid is given, the operator is one block and
    the factorisation is one dense inverse.  The finiteness check, the
    Gershgorin sums and A Q read only the three block diagonals, and an
    operator with a nonzero outside them raises ``EigensolverFailure``.

    Returns the eigenvalues and unit eigenvectors (columns).
    """
    return _orthogonal_iteration(_BlockOperator(matrix), k)


def _orthogonal_iteration(op: _BlockOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    num = op.m * op.b
    diag = np.diagonal(op.bands[0], axis1=1, axis2=2).ravel()
    row_sums = np.abs(op.bands).sum(axis=3).sum(axis=0).ravel()
    sigma = float((diag - (row_sums - np.abs(diag))).min()) - 1.0
    tol = num * np.finfo(float).eps * float(row_sums.max())
    q = np.random.default_rng(0).standard_normal((num, min(num, k + OVERSAMPLING)))
    q[:, 0] = 1.0
    try:
        solve = op.shifted_solver(sigma)
        for _ in range(MAX_ITERATIONS):
            q, _ = np.linalg.qr(solve(q))
            aq = op.apply(q)
            vals, coeffs = np.linalg.eig(q.T @ aq)
            lead = np.lexsort((np.abs(vals.imag), vals.real))[:k]
            vals, coeffs = vals[lead], coeffs[:, lead]
            vecs = q @ coeffs
            residuals = np.linalg.norm(aq @ coeffs - vecs * vals, axis=0)
            if residuals.max() <= tol:
                break
        else:
            raise EigensolverFailure(
                f"no convergence in {MAX_ITERATIONS} iterations: residual "
                f"{residuals.max():.3e} above {tol:.3e}"
            )
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    lam = vals[0]
    if abs(lam.imag) > 1e-8 * (1.0 + abs(lam.real)):
        raise EigensolverFailure(
            f"principal eigenvalue has non-negligible imaginary part {lam.imag:.3e}"
        )
    return vals, vecs


@dataclass
class PrincipalEigen:
    lambda1: complex
    eigenfunction: np.ndarray
    positivity: bool
    # ||A phi - lambda1 phi|| / ||phi|| of the returned pair
    residual: float
    # the eigenvalues found by the solve, lambda1 first
    spectrum_head: np.ndarray
    matrix: np.ndarray = field(repr=False)

    @property
    def lambda1_real(self) -> float:
        return float(self.lambda1.real)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Every eigenvalue of the operator, by a dense solve on first use."""
        return np.linalg.eigvals(self.matrix)


def principal_eigenvalue(matrix: np.ndarray, grid: SurfaceGrid, k: int = 1) -> PrincipalEigen:
    """Eigenvalue of minimal real part with its one-signed eigenfunction.

    ``k`` eigenvalues are solved for (see ``lowest_eigenpairs``; ``grid``
    chooses the blocks of the solve) and kept as ``spectrum_head``.  The
    eigenfunction is rescaled to be real with positive mean; the positivity
    flag records whether it is strictly one-signed.
    """
    op = _BlockOperator(matrix, grid)
    vals, vecs = _orthogonal_iteration(op, k)
    vec = vecs[:, 0]
    pivot = vec[np.argmax(np.abs(vec))]
    vec = (vec / pivot).real
    if vec.mean() < 0:
        vec = -vec
    scale = np.abs(vec).max()
    vec = vec / scale
    positivity = bool(vec.min() > 0.0) or bool(vec.max() < 0.0)
    # the Rayleigh quotient of the real eigenfunction, accumulated in extended
    # precision, is accurate to the rounding level of the matrix itself
    wide = vec.astype(np.longdouble)
    lam = float(wide @ op.apply(wide) / (wide @ wide))
    residual = float(np.linalg.norm(op.apply(vec) - lam * vec) / np.linalg.norm(vec))
    head = vals.copy()
    head[0] = lam
    return PrincipalEigen(
        lambda1=complex(lam), eigenfunction=vec, positivity=positivity,
        residual=residual, spectrum_head=head, matrix=matrix,
    )


def quadrature_symmetry_residual(matrix: np.ndarray, grid: SurfaceGrid) -> float:
    """Max asymmetry of the operator in the quadrature inner product."""
    wa = grid.weights[:, None] * matrix
    return float(np.abs(wa - wa.T).max() / max(1.0, np.abs(wa).max()))


# --- deformation of a MOTS along its normal --------------------------------


@dataclass
class DeformationCase:
    """Everything needed to displace a MOTS and recompute its expansion.

    ``theta_of(t, phi)`` returns the outward null expansion at every grid
    node of the surface displaced by t * phi along the outward unit normal.
    """

    grid: SurfaceGrid
    coefficients: StabilityCoefficients
    theta_of: Callable[[float, np.ndarray], np.ndarray]
    injectivity_scale: float = 1.0


@dataclass
class DeformationReport:
    lambda1: float
    fd_derivative: np.ndarray
    predicted: np.ndarray
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
    matrix = assemble_stability_operator(case.grid, case.coefficients)
    eigen = principal_eigenvalue(matrix, case.grid)
    lam = eigen.lambda1_real
    if abs(lam) <= DEGENERACY_TOL:
        raise DegenerateMOTS(f"principal eigenvalue {lam:.3e} below degeneracy threshold")
    if not eigen.positivity:
        raise DegenerateMOTS("principal eigenfunction is not one-signed")
    phi = eigen.eigenfunction
    theta_plus = case.theta_of(fd_step, phi)
    theta_minus = case.theta_of(-fd_step, phi)
    fd = (theta_plus - theta_minus) / (2.0 * fd_step)
    predicted = lam * phi
    rel = np.abs(fd - predicted) / np.maximum(np.abs(predicted), 1e-300)
    t_star = 0.05 * case.injectivity_scale * (1.0 if lam < 0 else -1.0)
    theta_displaced = case.theta_of(t_star, phi)
    return DeformationReport(
        lambda1=lam,
        fd_derivative=fd,
        predicted=predicted,
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
    principal eigenfunctions of the equator.
    """
    n = grid.shape[0]
    du = grid.spacing[0]
    d_theta = (np.roll(theta_vals, -1) - np.roll(theta_vals, 1)) / (2.0 * du)
    dd_theta = (np.roll(theta_vals, -1) - 2.0 * theta_vals + np.roll(theta_vals, 1)) / du**2

    def node_index(u: np.ndarray) -> int:
        val = float(np.atleast_1d(u)[0])
        idx = int(round(val / du)) % n
        if abs(val - round(val / du) * du) > 1e-9:
            raise ValueError("nodal embedding evaluated off the grid")
        return idx

    emb = EmbeddingJet2(
        sigma_dim=1,
        ambient_dim=2,
        chart=lambda u: np.array([theta_vals[node_index(u)], float(np.atleast_1d(u)[0])]),
        d_chart=lambda u: np.array([[d_theta[node_index(u)]], [1.0]]),
        dd_chart=lambda u: np.array([[[dd_theta[node_index(u)]]], [[0.0]]]),
        sample_set=grid.nodes,
        name="displaced_equator",
    )

    def nu(u: np.ndarray) -> np.ndarray:
        i = node_index(u)
        theta = theta_vals[i]
        slope = d_theta[i]
        s2 = math.sin(theta) ** 2
        raw = np.array([1.0, -slope / s2])
        norm = math.sqrt(1.0 + slope**2 / s2)
        return raw / norm

    return emb, nu


def equator_deformation_case(resolution: int = 64, q_offset: float = 0.0) -> DeformationCase:
    """Deformation case for the equator of the unit-sphere slice (n = 2).

    ``q_offset`` adds a constant to the potential; the expansion functional
    is extended accordingly by q_offset * t * phi so that its linearization
    matches the shifted operator.
    """
    sc = build_scenario("einstein_cylinder", {"n": 2, "equator_samples": resolution})
    data = sc.initial_data
    surface = sc.slice_surfaces["equator"]
    grid, coeffs = _curve_grid_and_coefficients(surface, data, resolution)
    coeffs = coeffs.shifted(q_offset)

    def theta_of(t: float, phi: np.ndarray) -> np.ndarray:
        theta_vals = 0.5 * math.pi + t * phi
        emb, nu = _nodal_curve_embedding(grid, theta_vals)
        out = np.empty(grid.num_nodes)
        for i, u in enumerate(grid.nodes):
            out[i] = initial_data_expansions(data, emb, nu, u)[0]
        return out + q_offset * t * phi

    return DeformationCase(grid, coeffs, theta_of, surface.injectivity_scale)


def flat_torus_degenerate_case(resolution: int = 32) -> DeformationCase:
    """Circle in flat torus data: Q = 0 identically, principal eigenvalue 0."""
    sc = build_scenario("minkowski_torus_quotient", {"m": 2, "samples_per_axis": resolution})
    data = sc.initial_data
    surface = sc.slice_surfaces["Sigma"]
    grid, coeffs = _curve_grid_and_coefficients(surface, data, resolution)

    def theta_of(t: float, phi: np.ndarray) -> np.ndarray:
        # flat quotient: a normal displacement of the flat circle stays minimal
        return np.zeros(grid.num_nodes)

    return DeformationCase(grid, coeffs, theta_of, surface.injectivity_scale)
