"""Shift-invert subspace eigensolver, spectrum request plumbing and sphere assembly."""

import math
import os
import subprocess
import sys
import textwrap
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from traplab import cli, reporting, stability
from traplab.errors import EigensolverFailure
from traplab.stability import (
    BlockOperator,
    StabilityCoefficients,
    _orthogonal_iteration,
    assemble_stability_operator,
    circle_grid,
    latlong_sphere_grid,
    periodic_tensor_grid,
    principal_eigenvalue,
)
from traplab.verify import random_circle_operators

from _oracles import reference_dense_operator, reference_principal_eigen

SRC = Path(__file__).resolve().parent.parent / "src"


def _dense_principal(mat):
    """Oracle: full eigendecomposition, minimal real part, same normalization."""
    vals, vecs = np.linalg.eig(mat)
    lead = np.lexsort((np.abs(vals.imag), vals.real))[0]
    vec = vecs[:, lead]
    vec = (vec / vec[np.argmax(np.abs(vec))]).real
    if vec.mean() < 0:
        vec = -vec
    return vals[lead], vec / np.abs(vec).max()


class TestAgainstDenseOracle:
    def test_seeded_random_drift_operators(self):
        for grid, mat, _ in random_circle_operators():
            lam, vec = _dense_principal(mat.dense())
            eig = principal_eigenvalue(mat, grid)
            assert abs(eig.lambda1 - lam) < 1e-10
            assert np.abs(eig.eigenfunction - vec).max() < 1e-10
            assert eig.residual < 1e-10

    def test_spectrum_head_matches_dispersion_relation(self):
        n = 1024
        grid = circle_grid(n)
        coeffs = StabilityCoefficients.zero(grid).shifted(-1.0)
        mat = assemble_stability_operator(grid, coeffs)
        eig = principal_eigenvalue(mat, grid, k=cli.SPECTRUM_HEAD)
        h = grid.spacing[0]
        expected = np.sort([-1.0 + 4.0 / h**2 * math.sin(math.pi * k / n) ** 2 for k in range(n)])
        head = eig.spectrum_head.real
        assert len(head) == cli.SPECTRUM_HEAD
        assert np.abs(head - expected[: cli.SPECTRUM_HEAD]).max() < 1e-9

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="the Rayleigh quotient refinement needs extended precision",
    )
    @pytest.mark.parametrize("n", [32, 256, 1024])
    def test_lambda1_at_rounding_level(self, n):
        # the constant vector is an exact eigenvector and every row of the
        # assembled matrix sums to -1 exactly, so lambda1 is -1 to rounding
        grid = circle_grid(n)
        mat = assemble_stability_operator(grid, StabilityCoefficients.zero(grid).shifted(-1.0))
        assert abs(principal_eigenvalue(mat, grid).lambda1_real + 1.0) < 1e-15

    def test_whole_space_block_returns_every_eigenvalue(self):
        grid, op, _ = next(random_circle_operators(count=1, n=8))
        mat = op.dense()
        [vals], [vecs], _ = _orthogonal_iteration(BlockOperator(op.bands[None]), 8)
        dense = np.linalg.eigvals(mat)
        assert np.abs(np.sort_complex(vals) - np.sort_complex(dense)).max() < 1e-12
        assert np.linalg.norm(mat @ vecs - vecs * vals, axis=0).max() < 1e-12


class TestGuards:
    def test_nonreal_pair_nearest_shift_rejected(self):
        # the 2x2 rotation block has eigenvalues +-i, every other eigenvalue is
        # at least 5: the pair is nearest any shift below the Gershgorin bound
        mat = np.diag(np.arange(5.0, 21.0))
        mat[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
        with pytest.raises(EigensolverFailure, match="imaginary"):
            principal_eigenvalue(mat, circle_grid(16))

    def test_non_finite_operator_rejected(self):
        mat = np.eye(8)
        mat[3, 4] = np.nan
        with pytest.raises(EigensolverFailure):
            principal_eigenvalue(mat, circle_grid(8))

    def test_iteration_cap_reached(self, monkeypatch):
        grid, mat, _ = next(random_circle_operators(count=1))
        monkeypatch.setattr(stability, "MAX_ITERATIONS", 1)
        with pytest.raises(EigensolverFailure, match="no convergence"):
            principal_eigenvalue(mat, grid)

    def test_repeat_solves_are_bitwise_identical(self):
        grid, mat, _ = next(random_circle_operators(count=1))
        a = principal_eigenvalue(mat, grid)
        b = principal_eigenvalue(mat.dense(), grid)
        assert repr(a.lambda1) == repr(b.lambda1)
        assert a.eigenfunction.tobytes() == b.eigenfunction.tobytes()
        assert repr(a.residual) == repr(b.residual)


def _drift_torus_case():
    """16 x 32 flat torus, non-constant Q and a divergence-free 2-d drift."""
    grid = periodic_tensor_grid((16, 32), (2.0 * math.pi, 2.0 * math.pi))
    u, v = grid.nodes[:, 0], grid.nodes[:, 1]
    q = -0.5 + 0.3 * np.sin(u) + 0.2 * np.cos(2.0 * v) + 0.1 * np.sin(u + v)
    x = np.stack([0.2 * np.cos(v), 0.15 * np.sin(u)], axis=1)
    return grid, StabilityCoefficients(Q=q, X=x, divX=np.zeros(len(q)), normX_sq=(x**2).sum(axis=1))


def _sphere_case(n_theta, n_phi, radius=1.0):
    """Lat-long sphere with a potential varying in latitude and longitude."""
    grid = latlong_sphere_grid(n_theta, n_phi, radius=radius)
    theta, phi = grid.nodes[:, 0], grid.nodes[:, 1]
    q = -2.0 + 0.5 * np.cos(theta) + 0.3 * np.sin(theta) * np.cos(phi)
    coeffs = StabilityCoefficients.zero(grid)
    coeffs.Q = q
    return grid, coeffs


def _assembled(grid, coeffs):
    return grid, assemble_stability_operator(grid, coeffs)


def _drift_torus_operator():
    return _assembled(*_drift_torus_case())


def _sphere_operator(n_theta, n_phi):
    return _assembled(*_sphere_case(n_theta, n_phi))


def _circle_operator(n, index=0):
    grid, mat, _ = list(random_circle_operators(count=index + 1, n=n))[index]
    return grid, mat


BLOCK_OPERATORS = {
    **{f"circle-256-{i}": lambda i=i: _circle_operator(256, i) for i in range(4)},
    "torus-16x32": _drift_torus_operator,
    "sphere-16x32": lambda: _sphere_operator(16, 32),
    "sphere-24x48": lambda: _sphere_operator(24, 48),
    "circle-1024": lambda: _circle_operator(1024),
    "circle-48": lambda: _circle_operator(48),
}


class TestBlockPath:
    """Operators factored by grid-row blocks against dense oracles."""

    @pytest.mark.parametrize("name", [*(f"circle-256-{i}" for i in range(4)),
                                      "torus-16x32", "sphere-16x32"])
    def test_matches_dense_oracle(self, name):
        grid, mat = BLOCK_OPERATORS[name]()
        assert mat.m > 1
        eig = principal_eigenvalue(mat, grid, k=cli.SPECTRUM_HEAD)
        assert abs(eig.lambda1 - _dense_principal(mat.dense())[0]) < 1e-10
        vals = np.linalg.eigvals(mat.dense())
        dense = vals[np.lexsort((np.abs(vals.imag), vals.real))][: cli.SPECTRUM_HEAD]
        head = eig.spectrum_head
        assert np.abs(head.real - dense.real).max() < 1e-9
        assert np.abs(np.abs(head.imag) - np.abs(dense.imag)).max() < 1e-9

    @pytest.mark.parametrize("name, blocks", [("sphere-24x48", (24, 48)), ("circle-48", (1, 48)),
                                              ("circle-1024", (32, 32))],
                             ids=["sphere-24x48", "circle-48", "circle-1024"])
    def test_factored_solve_matches_linalg_solve(self, name, blocks):
        grid, op = BLOCK_OPERATORS[name]()
        mat = op.dense()
        assert (op.m, op.b) == blocks
        diag = np.diag(mat)
        sigma = (diag - (np.abs(mat).sum(axis=1) - np.abs(diag))).min() - 1.0
        shifted = mat - sigma * np.eye(grid.num_nodes)
        solve = op.shifted_solver(sigma)
        rhs = np.random.default_rng(3).standard_normal((grid.num_nodes, 3))
        for y in (rhs, rhs[:, 0]):
            ref = np.linalg.solve(shifted, y)
            assert np.linalg.norm(solve(y) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_nonzero_outside_block_stencil_rejected(self):
        grid, op = BLOCK_OPERATORS["circle-256-0"]()
        mat = op.dense()
        mat[0, 128] = 0.1
        with pytest.raises(EigensolverFailure, match="stencil"):
            principal_eigenvalue(mat, grid)

    @pytest.mark.parametrize("name", ["sphere-24x48", "circle-1024", "circle-48"])
    def test_no_linalg_call_sees_more_than_one_block(self, name, monkeypatch):
        # the factorisation inverts one b x b block at a time; only the
        # N x (k + OVERSAMPLING) iterate and its residuals, never an N x N
        # array, reach np.linalg with more than b rows.  One block (b = N)
        # is one N x N inverse; one operator is solved as a stack of one
        grid, op = BLOCK_OPERATORS[name]()
        calls = []

        def counted(fname, func):
            def wrapper(*args, **kwargs):
                shapes = [a.shape for a in args if isinstance(a, np.ndarray)]
                calls.append((fname, shapes))
                return func(*args, **kwargs)
            return wrapper

        for fname in np.linalg.__all__:
            func = getattr(np.linalg, fname)
            if callable(func) and not isinstance(func, type):
                monkeypatch.setattr(np.linalg, fname, counted(fname, func))
        principal_eigenvalue(op, grid)
        inverses = [shapes[0] for fname, shapes in calls if fname == "inv"]
        assert inverses == [(1, op.b, op.b)] * op.m
        for fname, shapes in calls:
            assert all(len(s) < 2 or min(s[-2:]) <= op.b for s in shapes), (fname, shapes)

    @pytest.mark.parametrize("name", ["sphere-24x48", "circle-1024"])
    def test_repeat_solves_are_bitwise_identical(self, name):
        grid, mat = BLOCK_OPERATORS[name]()
        a = principal_eigenvalue(mat, grid, k=cli.SPECTRUM_HEAD)
        b = principal_eigenvalue(mat.dense(), grid, k=cli.SPECTRUM_HEAD)
        assert repr(a.lambda1) == repr(b.lambda1)
        assert a.eigenfunction.tobytes() == b.eigenfunction.tobytes()
        assert a.spectrum_head.tobytes() == b.spectrum_head.tobytes()
        assert repr(a.residual) == repr(b.residual)


def _reference_apply(op, x):
    """A x with the neighbour blocks copied by ``np.roll``, the per-band form the
    shifted views of ``BlockOperator.apply`` must reproduce bit for bit."""
    xb = x.reshape(x.shape[:-2] + (op.m, op.b, -1))
    out = op.bands[..., 0, :, :, :] @ xb
    for band, shift in zip(range(1, op.bands.shape[-4]), (1, -1)):
        out += op.bands[..., band, :, :, :] @ np.roll(xb, shift, axis=-3)
    return out.reshape(x.shape)


def _reference_shifted_solver(op, sigma):
    """(A - sigma I)^-1 by block-arrow elimination with the factors in lists and
    every fill-row and fill-column product in its own loop step, the form the
    stacked products of ``BlockOperator.shifted_solver`` must reproduce bit for bit."""
    m, b, last = op.m, op.b, op.m - 1
    blocks = np.moveaxis(op.bands, (-4, -3), (0, 1))
    zero = np.broadcast_to(0.0, (b, b))
    block = defaultdict(lambda: zero, {(i, j): blocks[k, i]
                                       for k, js in enumerate(stability._band_blocks(m)[1].tolist())
                                       for i, j in enumerate(js)})
    d = blocks[0] - np.asarray(sigma)[..., None, None] * np.eye(b)
    pivots, fill_col, fill_row, lower = [], [], [], []
    up = [block[i, i + 1] for i in range(last - 1)]
    s, t, f, g = d[0], d[last], block[0, last], block[last, 0]
    for i in range(last):
        p = np.linalg.inv(s)
        v = g @ p
        t = t - v @ f
        pivots.append(p)
        fill_col.append(f)
        fill_row.append(v)
        if i + 1 < last:
            w = block[i + 1, i] @ p
            s = d[i + 1] - w @ up[i]
            f = block[i + 1, last] - w @ f
            g = block[last, i + 1] - v @ up[i]
            lower.append(w)
    pivots.append(np.linalg.inv(t))

    def solve(y):
        yb = y.reshape(y.shape[:-2] + (m, b, -1))
        z = [yb[..., 0, :, :]]
        for i in range(1, last):
            z.append(yb[..., i, :, :] - lower[i - 1] @ z[-1])
        acc = yb[..., last, :, :]
        for i in range(last):
            acc = acc - fill_row[i] @ z[i]
        x = np.empty(yb.shape)
        x_last = np.matmul(pivots[last], acc, out=x[..., last, :, :])
        for i in reversed(range(last)):
            r = z[i] - fill_col[i] @ x_last
            if i + 1 < last:
                r = r - up[i] @ x[..., i + 1, :, :]
            np.matmul(pivots[i], r, out=x[..., i, :, :])
        return x.reshape(y.shape)

    return solve


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == np.longdouble and a.dtype.itemsize > 10:
        # x87 extended values leave padding bytes unwritten, so compare value and sign
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    else:
        assert a.tobytes() == b.tobytes()


def _gershgorin_shift(op):
    """One below the Gershgorin lower bound of each member, as the eigensolver shifts."""
    diag = np.diagonal(op.bands[..., 0, :, :, :], axis1=-2, axis2=-1)
    off = np.abs(op.bands).sum(axis=-1).sum(axis=-3) - np.abs(diag)
    return (diag - off).min(axis=(-2, -1)) - 1.0


def _random_arrow_operator(m, b, count, seed):
    """A stack of ``count`` block-cyclic operators of m blocks of b nodes with random,
    strictly diagonally dominant bands; m = 3 feeds the superdiagonal block of
    row 1 into the fill column on the first elimination step."""
    bands = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 3, m, b, b))
    rows = np.arange(b)
    bands[:, 0][..., rows, rows] += np.abs(bands).sum(axis=(1, -1)) + 0.5
    return BlockOperator(bands)


def _stacks(op):
    """One operator, a stack of one and a stack of three of it and two variants."""
    three = np.stack([op.bands, 0.75 * op.bands, op.bands.copy()])
    rows = np.arange(op.b)
    three[2, 0][..., rows, rows] += 0.5
    return [op, BlockOperator(op.bands[None]), BlockOperator(three)]


class TestAgainstPerBlockReference:
    """``apply`` and ``shifted_solver`` against the per-block loops they replace."""

    @pytest.mark.parametrize("name", ["circle-48", "circle-256-0", "torus-16x32", "sphere-16x32",
                                      "sphere-24x48", "circle-1024"])
    @pytest.mark.parametrize("c", [1, 9, 16])
    def test_block_operators(self, name, c):
        _, op = BLOCK_OPERATORS[name]()
        self._assert_matches_reference(op, c)

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("c", [1, 9, 16])
    def test_few_block_cycles(self, m, c):
        op = _random_arrow_operator(m, 6, 3, seed=m)
        self._assert_matches_reference(op, c)
        # and against a dense solve, member by member
        sigma = _gershgorin_shift(op)
        y = np.random.default_rng(c).standard_normal((3, m * 6, c))
        x = op.shifted_solver(sigma)(y)
        for j in range(3):
            shifted = BlockOperator(op.bands[j]).dense() - sigma[j] * np.eye(m * 6)
            ref = np.linalg.solve(shifted, y[j])
            assert np.abs(x[j] - ref).max() <= 1e-15 * np.abs(ref).max()

    @staticmethod
    def _assert_matches_reference(op, c):
        rng = np.random.default_rng(c)
        for member in _stacks(op):
            lead = member.bands.shape[:-4]
            x = rng.standard_normal(lead + (member.shape[0], c))
            for dtype in (float, np.longdouble):
                wide = x.astype(dtype)
                _assert_same_bits(member.apply(wide), _reference_apply(member, wide))
            sigma = _gershgorin_shift(member)
            _assert_same_bits(member.shifted_solver(sigma)(x),
                              _reference_shifted_solver(member, sigma)(x))
            if c == 1 and not lead:
                _assert_same_bits(member.shifted_solver(sigma)(x[:, 0]),
                                  _reference_shifted_solver(member, sigma)(x[:, 0]))


CSV_WRITERS = [
    lambda path: reporting.write_eigenfunction_csv(path, np.zeros((2, 1)), np.ones(2)),
    lambda path: reporting.write_spectrum_csv(path, np.array([1.0 + 0j, -1.0])),
]


class TestSpectrumRequest:
    def test_resolution_eight_reports_eight_head_values(self):
        report = cli.execute_config(
            {"command": "spectrum", "scenario": "einstein_cylinder", "resolution": 8}
        )
        assert report["passed"]
        assert len(report["payload"]["spectrum_head"]) == 8
        assert [row["resolution"] for row in report["payload"]["convergence_table"]] == [8, 8, 8]

    def test_residual_reported(self):
        report = cli.execute_config(
            {"command": "spectrum", "scenario": "einstein_cylinder", "resolution": 32}
        )
        assert 0.0 <= report["payload"]["lambda1_residual"] < 1e-12

    @staticmethod
    def _count_solves(monkeypatch):
        sizes = []
        solve = stability.principal_eigenvalue

        def counting(matrix, grid, k=1):
            sizes.append(matrix.shape[0])
            return solve(matrix, grid, k)

        monkeypatch.setattr(stability, "principal_eigenvalue", counting)
        return sizes

    def test_each_resolution_solved_once(self, monkeypatch):
        sizes = self._count_solves(monkeypatch)
        cli.execute_config({"command": "spectrum", "scenario": "einstein_cylinder", "resolution": 64})
        assert sorted(sizes) == [16, 32, 64]

    def test_csv_path_reuses_the_command_solve(self, monkeypatch, tmp_path):
        sizes = self._count_solves(monkeypatch)
        out = str(tmp_path / "eigen.csv")
        code = cli.main(["spectrum", "--resolution", "32", "--format", "csv", "--out", out])
        assert code == 0
        assert sorted(sizes) == [8, 16, 32]
        assert len(Path(out).read_text().splitlines()) == 33
        assert len(Path(out + ".spectrum.csv").read_text().splitlines()) == 33

    @pytest.mark.parametrize("write", CSV_WRITERS, ids=["eigenfunction", "spectrum"])
    def test_csv_gets_the_mode_open_gives(self, write, tmp_path):
        reference = tmp_path / "reference.csv"
        reference.write_text("")
        path = tmp_path / "out.csv"
        write(str(path))
        assert path.stat().st_mode == reference.stat().st_mode

    @pytest.mark.parametrize("write", CSV_WRITERS, ids=["eigenfunction", "spectrum"])
    def test_failed_csv_write_keeps_the_old_file(self, write, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(reporting.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(str(path))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_scipy_never_imported():
    # the numpy-only eigen path keeps import time and resident memory small
    script = textwrap.dedent(
        """
        import sys
        import traplab
        from traplab import cli, reporting, stability
        grid = stability.latlong_sphere_grid(8, 16)
        coeffs = stability.StabilityCoefficients.zero(grid).shifted(-2.0)
        stability.principal_eigenvalue(stability.assemble_stability_operator(grid, coeffs), grid)
        cli.execute_config({"command": "spectrum", "scenario": "einstein_cylinder", "resolution": 16})
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


def _latlong_loop_oracle(grid):
    """Sphere Laplacian entry by entry, as a double loop over the nodes."""
    n_theta, n_phi = grid.shape
    dtheta, dphi = grid.spacing
    radius_sq = grid.metric_diag[0, 0]
    theta = grid.nodes[:, 0].reshape(n_theta, n_phi)
    idx = np.arange(grid.num_nodes).reshape(n_theta, n_phi)
    mat = np.zeros((grid.num_nodes, grid.num_nodes))
    for j in range(n_theta):
        for k in range(n_phi):
            row = idx[j, k]
            denom = radius_sq * math.sin(theta[j, k]) * dtheta**2
            for dj, face in ((1, theta[j, k] + 0.5 * dtheta), (-1, theta[j, k] - 0.5 * dtheta)):
                if 0 <= j + dj < n_theta:
                    c = math.sin(face) / denom
                    mat[row, idx[j + dj, k]] += c
                    mat[row, row] -= c
            scale = 1.0 / (radius_sq * math.sin(theta[j, k]) ** 2 * dphi**2)
            for dk in (1, -1):
                mat[row, idx[j, (k + dk) % n_phi]] += scale
                mat[row, row] -= scale
    return mat


@pytest.mark.parametrize("shape", [(12, 24), (24, 48)])
def test_latlong_laplacian_matches_loop_oracle(shape):
    grid = latlong_sphere_grid(*shape, radius=1.3)
    mat = -assemble_stability_operator(grid, StabilityCoefficients.zero(grid)).dense()
    oracle = _latlong_loop_oracle(grid)
    assert np.abs(mat - oracle).max() <= 1e-14 * np.abs(oracle).max()


def _random_circle_cases(n, monkeypatch):
    """(grid, coefficients, assembled operator) of ``random_circle_operators``:
    member j of the coefficients of its one stacked assembly."""
    coefficients = []
    assemble = stability.assemble_stability_operator

    def capturing(grid, coeffs):
        coefficients.append(coeffs)
        return assemble(grid, coeffs)

    monkeypatch.setattr(stability, "assemble_stability_operator", capturing)
    ops = list(random_circle_operators(n=n))
    monkeypatch.undo()
    [c] = coefficients
    return [(grid, StabilityCoefficients(c.Q[j], c.X[j], c.divX[j], c.normX_sq[j]), op)
            for j, (grid, op, _) in enumerate(ops)]


def _equator_case(n, q_offset):
    case = stability.equator_deformation_case(n, q_offset=q_offset)
    return case.grid, case.coefficients


GRID_CASES = {
    **{f"equator-{n}-{q}": lambda n=n, q=q: _equator_case(n, q)
       for n in (8, 48, 255, 256, 1024) for q in (0.0, 2.0)},
    "torus-16x32": _drift_torus_case,
    **{f"sphere-{a}x{2 * a}-r{r}": lambda a=a, r=r: _sphere_case(a, 2 * a, r)
       for a in (12, 24) for r in (0.5, 1.3, 2.0)},
}


def _drift_circle_case(n):
    """A circle with a non-constant potential and drift."""
    grid = circle_grid(n)
    s = grid.nodes[:, 0]
    x = 0.3 * np.cos(s)
    return grid, StabilityCoefficients(Q=-1.0 + 0.4 * np.sin(s), X=x[:, None],
                                       divX=-0.3 * np.sin(s), normX_sq=x**2)


STACKED_ASSEMBLY_CASES = {
    "drift-circle-256": lambda: _drift_circle_case(256),
    "torus-16x32": _drift_torus_case,
    "sphere-12x24-r1.3": lambda: _sphere_case(12, 24, 1.3),
}


def _assert_same_solve(a, b):
    assert repr(a.lambda1) == repr(b.lambda1)
    assert a.eigenfunction.tobytes() == b.eigenfunction.tobytes()
    assert repr(a.residual) == repr(b.residual)
    assert a.spectrum_head.tobytes() == b.spectrum_head.tobytes()


class TestBandedAssembly:
    """The block diagonals written by assembly against the former dense
    assembly (``reference_dense_operator``), entry for entry and solve for
    solve."""

    @pytest.mark.parametrize("name", GRID_CASES)
    def test_dense_and_solves_bitwise_equal_to_dense_assembly(self, name):
        grid, coeffs = GRID_CASES[name]()
        op = assemble_stability_operator(grid, coeffs)
        reference = reference_dense_operator(grid, coeffs)
        assert np.array_equal(op.dense(), reference)
        eig = principal_eigenvalue(op, grid, k=cli.SPECTRUM_HEAD)
        _assert_same_solve(eig, principal_eigenvalue(op.dense(), grid, k=cli.SPECTRUM_HEAD))
        _assert_same_solve(eig, principal_eigenvalue(reference, grid, k=cli.SPECTRUM_HEAD))

    @pytest.mark.parametrize("n", [48, 1024])
    def test_random_circle_operators_bitwise_equal(self, n, monkeypatch):
        cases = _random_circle_cases(n, monkeypatch)
        assert len(cases) == 50
        for grid, coeffs, op in cases:
            assert np.array_equal(op.dense(), reference_dense_operator(grid, coeffs))
            _assert_same_solve(principal_eigenvalue(op, grid), principal_eigenvalue(op.dense(), grid))

    @pytest.mark.parametrize("name", STACKED_ASSEMBLY_CASES)
    def test_stacked_assembly_bitwise_equal_to_single(self, name):
        grid, coeffs = STACKED_ASSEMBLY_CASES[name]()
        members = [StabilityCoefficients(coeffs.Q + dq, coeffs.X * a, coeffs.divX * a,
                                         coeffs.normX_sq * a * a)
                   for dq, a in ((0.0, 1.0), (0.7, -0.5), (-1.3, 2.0))]
        stacked = StabilityCoefficients(*(np.stack(f) for f in zip(*(vars(m).values() for m in members))))
        stack = assemble_stability_operator(grid, stacked)
        singles = [assemble_stability_operator(grid, m) for m in members]
        assert stack.bands.shape == (3,) + singles[0].bands.shape
        for j, single in enumerate(singles):
            assert stack.bands[j].tobytes() == single.bands.tobytes()

    def test_large_sphere_never_allocates_a_dense_operator(self):
        # N = 4608: one dense operator is 170 MB, and dense assembly held two
        import tracemalloc

        grid = latlong_sphere_grid(48, 96)
        coeffs = StabilityCoefficients.zero(grid).shifted(-2.0)
        tracemalloc.start()
        try:
            eig = principal_eigenvalue(assemble_stability_operator(grid, coeffs), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        assert abs(eig.lambda1_real + 2.0) < 1e-9
        assert eig.positivity

    @pytest.mark.parametrize("name", ["equator-256-0.0", "sphere-24x48-r1.3", "equator-48-0.0"])
    def test_nan_coefficient_rejected(self, name):
        grid, coeffs = GRID_CASES[name]()
        coeffs.Q = coeffs.Q.copy()
        coeffs.Q[len(coeffs.Q) // 3] = np.nan
        with pytest.raises(EigensolverFailure, match="non-finite"):
            principal_eigenvalue(assemble_stability_operator(grid, coeffs), grid)


def _assert_same_member(a, b):
    _assert_same_solve(a, b)
    assert a.spectrum_head.dtype == b.spectrum_head.dtype
    assert a.eigenfunction.ndim == 1
    assert a.positivity == b.positivity


class TestStackedSolve:
    """``principal_eigenvalues`` on a stack against one solve per operator."""

    @pytest.mark.parametrize("k", [1, cli.SPECTRUM_HEAD])
    def test_seeded_operators_bitwise(self, k):
        cases = list(random_circle_operators())
        ops = [op for _, op, _ in cases]
        stacked = stability.principal_eigenvalues(ops, cases[0][0], k)
        assert len(stacked) == 50
        for (grid, op, _), eig in zip(cases, stacked):
            _assert_same_member(eig, principal_eigenvalue(op, grid, k))
            assert eig.operator is op

    @pytest.mark.parametrize("k", [1, cli.SPECTRUM_HEAD])
    def test_stacks_match_the_one_operator_loop_form(self, k):
        # the suite's two stacks of 25, and block operators alone, against the
        # per-vector Ritz step and finishing
        cases = list(random_circle_operators())
        grid, ops = cases[0][0], [op for _, op, _ in cases]
        eigs = [*stability.principal_eigenvalues(ops[:25], grid, k),
                *stability.principal_eigenvalues(ops[25:], grid, k)]
        eigs += [principal_eigenvalue(op, g, k) for g, op in (
            BLOCK_OPERATORS[name]() for name in ("circle-256-0", "torus-16x32", "sphere-16x32"))]
        for eig in eigs:
            lam, vec, residual, head = reference_principal_eigen(eig.operator, k)
            assert repr(eig.lambda1) == repr(complex(lam))
            assert eig.eigenfunction.tobytes() == vec.tobytes()
            assert repr(eig.residual) == repr(residual)
            assert eig.spectrum_head.dtype == head.dtype
            assert eig.spectrum_head.tobytes() == head.tobytes()

    @pytest.mark.parametrize("k", [1, cli.SPECTRUM_HEAD])
    def test_batch_mixing_real_and_complex_ritz_values(self, k, monkeypatch):
        # a drift operator (complex Ritz values) beside drift-free ones (real)
        cases = list(random_circle_operators(count=4))
        grid, ops = cases[0][0], [op for _, op, _ in cases]
        singles = [principal_eigenvalue(op, grid, k) for op in ops]
        realness = []
        eig = np.linalg.eig

        def recording(a):
            vals, vecs = eig(a)
            realness.append((vals.imag == 0).all(axis=-1).tolist())
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", recording)
        stacked = stability.principal_eigenvalues(ops, grid, k)
        assert any(True in r and False in r for r in realness)
        for a, b in zip(stacked, singles):
            _assert_same_member(a, b)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_multi_block_circle_operators(self, n):
        cases = list(random_circle_operators(count=6, n=n, seed=7))
        ops = [op for _, op, _ in cases]
        assert ops[0].m > 1
        stacked = stability.principal_eigenvalues(ops, cases[0][0], cli.SPECTRUM_HEAD)
        for (grid, op, _), eig in zip(cases, stacked):
            _assert_same_member(eig, principal_eigenvalue(op, grid, cli.SPECTRUM_HEAD))

    def test_dense_matrices_in_a_stack(self):
        grid, op = BLOCK_OPERATORS["sphere-16x32"]()
        shifted = assemble_stability_operator(grid, _sphere_case(16, 32)[1].shifted(1.5))
        stacked = stability.principal_eigenvalues([op.dense(), shifted], grid, 3)
        _assert_same_member(stacked[0], principal_eigenvalue(op, grid, 3))
        _assert_same_member(stacked[1], principal_eigenvalue(shifted, grid, 3))

    @pytest.mark.parametrize("n", [48, 256])
    def test_one_non_finite_member_fails_the_stack(self, n):
        cases = list(random_circle_operators(count=3, n=n))
        ops = [op for _, op, _ in cases]
        ops[1].bands[..., 0, 0, 0] = np.nan
        with pytest.raises(EigensolverFailure, match="non-finite"):
            stability.principal_eigenvalues(ops, cases[0][0])

    def test_iteration_cap_names_a_member(self, monkeypatch):
        cases = list(random_circle_operators(count=3))
        monkeypatch.setattr(stability, "MAX_ITERATIONS", 2)
        with pytest.raises(EigensolverFailure, match="no convergence in 2 iterations"):
            stability.principal_eigenvalues([op for _, op, _ in cases], cases[0][0])

    @pytest.mark.parametrize("cap", [10, 11, 12, 13])
    def test_iteration_cap_on_a_partly_converged_stack(self, monkeypatch, cap):
        # the 50 seeded operators converge in 10 to 13 iterations, so at these
        # caps some members have converged when the others hit the cap
        cases = list(random_circle_operators())
        grid, ops = cases[0][0], [op for _, op, _ in cases]
        monkeypatch.setattr(stability, "MAX_ITERATIONS", cap)

        def first_failure(stacks):
            try:
                for stack in stacks:
                    stability.principal_eigenvalues(stack, grid)
            except EigensolverFailure as exc:
                return str(exc)
            return None

        alone = first_failure([[op] for op in ops])
        assert (alone is None) == (cap == 13)
        assert first_failure([ops]) == alone
        assert first_failure([ops[:25], ops[25:]]) == alone
