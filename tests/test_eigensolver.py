"""Shift-invert subspace eigensolver, spectrum request plumbing and sphere assembly."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from traplab import cli, reporting, stability
from traplab.errors import EigensolverFailure
from traplab.stability import (
    StabilityCoefficients,
    assemble_stability_operator,
    circle_grid,
    latlong_sphere_grid,
    lowest_eigenpairs,
    periodic_tensor_grid,
    principal_eigenvalue,
)
from traplab.verify import random_circle_operators

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
            lam, vec = _dense_principal(mat)
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
        grid, mat, _ = next(random_circle_operators(count=1, n=8))
        vals, vecs = lowest_eigenpairs(mat, 8)
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
        b = principal_eigenvalue(mat.copy(), grid)
        assert repr(a.lambda1) == repr(b.lambda1)
        assert a.eigenfunction.tobytes() == b.eigenfunction.tobytes()
        assert repr(a.residual) == repr(b.residual)


def _drift_torus_operator():
    """16 x 32 flat torus, non-constant Q and a divergence-free 2-d drift."""
    grid = periodic_tensor_grid((16, 32), (2.0 * math.pi, 2.0 * math.pi))
    u, v = grid.nodes[:, 0], grid.nodes[:, 1]
    q = -0.5 + 0.3 * np.sin(u) + 0.2 * np.cos(2.0 * v) + 0.1 * np.sin(u + v)
    x = np.stack([0.2 * np.cos(v), 0.15 * np.sin(u)], axis=1)
    coeffs = StabilityCoefficients(Q=q, X=x, divX=np.zeros(len(q)), normX_sq=(x**2).sum(axis=1))
    return grid, assemble_stability_operator(grid, coeffs)


def _sphere_operator(n_theta, n_phi):
    """Lat-long unit sphere with a potential varying in latitude and longitude."""
    grid = latlong_sphere_grid(n_theta, n_phi)
    theta, phi = grid.nodes[:, 0], grid.nodes[:, 1]
    q = -2.0 + 0.5 * np.cos(theta) + 0.3 * np.sin(theta) * np.cos(phi)
    coeffs = StabilityCoefficients.zero(grid)
    coeffs.Q = q
    return grid, assemble_stability_operator(grid, coeffs)


def _circle_operator(n, index=0):
    grid, mat, _ = list(random_circle_operators(count=index + 1, n=n))[index]
    return grid, mat


BLOCK_OPERATORS = {
    **{f"circle-256-{i}": lambda i=i: _circle_operator(256, i) for i in range(4)},
    "torus-16x32": _drift_torus_operator,
    "sphere-16x32": lambda: _sphere_operator(16, 32),
    "sphere-24x48": lambda: _sphere_operator(24, 48),
    "circle-1024": lambda: _circle_operator(1024),
}


class TestBlockPath:
    """Operators factored by grid-row blocks against dense oracles."""

    @pytest.mark.parametrize("name", [*(f"circle-256-{i}" for i in range(4)),
                                      "torus-16x32", "sphere-16x32"])
    def test_matches_dense_oracle(self, name):
        grid, mat = BLOCK_OPERATORS[name]()
        assert stability._BlockOperator(mat, grid).m > 1
        eig = principal_eigenvalue(mat, grid, k=cli.SPECTRUM_HEAD)
        assert abs(eig.lambda1 - _dense_principal(mat)[0]) < 1e-10
        vals = np.linalg.eigvals(mat)
        dense = vals[np.lexsort((np.abs(vals.imag), vals.real))][: cli.SPECTRUM_HEAD]
        head = eig.spectrum_head
        assert np.abs(head.real - dense.real).max() < 1e-9
        assert np.abs(np.abs(head.imag) - np.abs(dense.imag)).max() < 1e-9

    def test_factored_solve_matches_linalg_solve(self):
        grid, mat = BLOCK_OPERATORS["sphere-24x48"]()
        op = stability._BlockOperator(mat, grid)
        assert (op.m, op.b) == (24, 48)
        diag = np.diag(mat)
        sigma = (diag - (np.abs(mat).sum(axis=1) - np.abs(diag))).min() - 1.0
        shifted = mat - sigma * np.eye(grid.num_nodes)
        solve = op.shifted_solver(sigma)
        rhs = np.random.default_rng(3).standard_normal((grid.num_nodes, 3))
        for y in (rhs, rhs[:, 0]):
            ref = np.linalg.solve(shifted, y)
            assert np.linalg.norm(solve(y) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_nonzero_outside_block_stencil_rejected(self):
        grid, mat = BLOCK_OPERATORS["circle-256-0"]()
        mat[0, 128] = 0.1
        with pytest.raises(EigensolverFailure, match="stencil"):
            principal_eigenvalue(mat, grid)

    @pytest.mark.parametrize("name", ["sphere-24x48", "circle-1024"])
    def test_no_linalg_call_sees_more_than_one_block(self, name, monkeypatch):
        # the factorisation inverts one b x b block at a time; only the
        # N x (k + OVERSAMPLING) iterate and its residuals, never an N x N
        # array, reach np.linalg with more than b rows
        grid, mat = BLOCK_OPERATORS[name]()
        op = stability._BlockOperator(mat, grid)
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
        principal_eigenvalue(mat, grid)
        inverses = [shapes[0] for fname, shapes in calls if fname == "inv"]
        assert inverses == [(op.b, op.b)] * op.m
        for fname, shapes in calls:
            assert all(len(s) < 2 or min(s[-2:]) <= op.b for s in shapes), (fname, shapes)

    @pytest.mark.parametrize("name", ["sphere-24x48", "circle-1024"])
    def test_repeat_solves_are_bitwise_identical(self, name):
        grid, mat = BLOCK_OPERATORS[name]()
        a = principal_eigenvalue(mat, grid, k=cli.SPECTRUM_HEAD)
        b = principal_eigenvalue(mat.copy(), grid, k=cli.SPECTRUM_HEAD)
        assert repr(a.lambda1) == repr(b.lambda1)
        assert a.eigenfunction.tobytes() == b.eigenfunction.tobytes()
        assert a.spectrum_head.tobytes() == b.spectrum_head.tobytes()
        assert repr(a.residual) == repr(b.residual)


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
    mat = -assemble_stability_operator(grid, StabilityCoefficients.zero(grid))
    oracle = _latlong_loop_oracle(grid)
    assert np.abs(mat - oracle).max() <= 1e-14 * np.abs(oracle).max()
