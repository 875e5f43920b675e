import math
import warnings

import numpy as np
import pytest

from traplab.errors import DegenerateMOTS, ResolutionTooLow, TrapLabError
from traplab.geometry import MetricJet2, Signature
from traplab.initial_data import InitialData
from traplab.scenarios import build_scenario
from traplab.stability import (
    StabilityCoefficients,
    _divergence_on_grid,
    assemble_stability_operator,
    circle_grid,
    deformation_check,
    equator_deformation_case,
    flat_torus_degenerate_case,
    grid_from_surface,
    latlong_sphere_grid,
    periodic_tensor_grid,
    principal_eigenvalue,
    quadrature_symmetry_residual,
    stability_coefficients,
)
from traplab.submanifold import extrinsic_data
from traplab.verify import random_circle_operators


def _circle_operator(n, q_func, x_func=None, dx_func=None):
    grid = circle_grid(n)
    s = grid.nodes[:, 0]
    q = q_func(s)
    if x_func is None:
        x = np.zeros(n)
        divx = np.zeros(n)
    else:
        x = x_func(s)
        divx = dx_func(s)
    coeffs = StabilityCoefficients(Q=q, X=x.reshape(-1, 1), divX=divx, normX_sq=x**2)
    return grid, coeffs


class TestGrids:
    def test_circle_weights_sum_to_length(self):
        grid = circle_grid(64)
        assert grid.weights.sum() == pytest.approx(2 * math.pi, rel=1e-12)

    def test_sphere_weights_sum_to_area(self):
        grid = latlong_sphere_grid(16, 32, radius=1.5)
        assert grid.weights.sum() == pytest.approx(4 * math.pi * 1.5**2, rel=1e-12)
        assert grid.weights.min() > 0

    def test_resolution_guard(self):
        with pytest.raises(ResolutionTooLow):
            circle_grid(4)
        with pytest.raises(ResolutionTooLow):
            latlong_sphere_grid(4, 16)

    def test_grid_from_equator_surface(self):
        sc = build_scenario("einstein_cylinder", {"n": 2})
        grid = grid_from_surface(sc.slice_surfaces["equator"], sc.initial_data, 32)
        assert grid.weights.sum() == pytest.approx(2 * math.pi, rel=1e-12)
        assert np.allclose(grid.metric_diag, 1.0)


class TestAssembly:
    def test_plain_laplacian_stencil(self):
        # X = 0, Q = 0 on the unit circle: the matrix is the periodic
        # second-difference stencil with smallest eigenvalue 0
        grid, coeffs = _circle_operator(16, lambda s: np.zeros_like(s))
        mat = assemble_stability_operator(grid, coeffs).dense()
        h = grid.spacing[0]
        assert mat[0, 0] == pytest.approx(2.0 / h**2)
        assert mat[0, 1] == pytest.approx(-1.0 / h**2)
        assert mat[0, -1] == pytest.approx(-1.0 / h**2)
        eig = principal_eigenvalue(mat, grid)
        assert eig.lambda1_real == pytest.approx(0.0, abs=1e-12)
        assert eig.eigenfunction == pytest.approx(np.ones(16), rel=1e-9)

    def test_constant_potential_shifts_spectrum(self):
        grid, coeffs0 = _circle_operator(32, lambda s: np.zeros_like(s))
        mat0 = assemble_stability_operator(grid, coeffs0).dense()
        _, coeffs_q = _circle_operator(32, lambda s: np.full_like(s, -1.0))
        mat_q = assemble_stability_operator(grid, coeffs_q).dense()
        assert np.abs((mat_q - mat0) - (-1.0) * np.eye(32)).max() < 1e-14
        e0 = np.sort(np.linalg.eigvals(mat0).real)
        eq = np.sort(np.linalg.eigvals(mat_q).real)
        assert np.abs(eq - (e0 - 1.0)).max() < 1e-9

    def test_discrete_dispersion_matches_analytic_oracle(self):
        # full spectrum of the periodic second difference plus shift
        n = 32
        grid, coeffs = _circle_operator(n, lambda s: np.full_like(s, -1.0))
        mat = assemble_stability_operator(grid, coeffs).dense()
        h = grid.spacing[0]
        expected = np.sort([4.0 / h**2 * math.sin(math.pi * k / n) ** 2 - 1.0 for k in range(n)])
        measured = np.sort(np.linalg.eigvals(mat).real)
        assert np.abs(measured - expected).max() < 1e-8

    def test_constant_drift_keeps_constants(self):
        # constants are eigenfunctions regardless of the drift term; the
        # eigenvalue is the assembled zeroth-order coefficient
        grid, coeffs = _circle_operator(
            32, lambda s: np.full_like(s, 0.7),
            lambda s: np.full_like(s, 0.4), lambda s: np.zeros_like(s),
        )
        zeroth = float((coeffs.Q + coeffs.divX - coeffs.normX_sq)[0])
        mat = assemble_stability_operator(grid, coeffs).dense()
        ones = np.ones(32)
        assert np.abs(mat @ ones - zeroth * ones).max() < 1e-12
        eig = principal_eigenvalue(mat, grid)
        assert eig.lambda1_real == pytest.approx(zeroth, abs=1e-10)
        assert np.abs(eig.eigenfunction - 1.0).max() < 1e-9

    def test_equator_potential_from_geometry(self):
        case = equator_deformation_case(32)
        assert np.abs(case.coefficients.Q + 1.0).max() < 1e-12
        assert np.abs(case.coefficients.X).max() == 0.0

    def test_stability_coefficients_with_synthetic_K(self):
        # flat 2-torus slice, constant K: Q = -rho - |K restricted|^2 / 2 and
        # the drift is the K(nu, .) component along the surface
        a, b, c = 0.4, -0.3, 0.25
        k = np.array([[a, c], [c, b]])
        data = InitialData(
            dim=2,
            h_field=lambda p: MetricJet2.flat(2, Signature.RIEMANNIAN),
            K_field=lambda p: (k, np.zeros((2, 2, 2))),
        )
        sc = build_scenario("minkowski_torus_quotient", {"m": 2})
        surface = sc.slice_surfaces["Sigma"]
        grid = circle_grid(16, period=1.0)
        ext = extrinsic_data(surface.embedding, data.h_field, grid.nodes)
        q, x, norm_x = stability_coefficients(data, surface, grid.nodes, ext)
        rho = 0.5 * ((a + b) ** 2 - (a * a + 2 * c * c + b * b))
        assert np.abs(q - (-rho - 0.5 * b * b)).max() < 1e-12
        assert np.abs(x[:, 0] - c).max() < 1e-12
        assert np.abs(norm_x - c * c).max() < 1e-12
        assert np.abs(_divergence_on_grid(grid, x)).max() < 1e-12

    def test_torus_2d_grid_flat_laplacian(self):
        grid = periodic_tensor_grid((8, 8), (1.0, 1.0))
        coeffs = StabilityCoefficients.zero(grid)
        mat = assemble_stability_operator(grid, coeffs)
        eig = principal_eigenvalue(mat, grid)
        assert eig.lambda1_real == pytest.approx(0.0, abs=1e-10)
        assert quadrature_symmetry_residual(mat, grid) < 1e-12


class TestPrincipalEigenvalue:
    def test_random_drift_operator_against_double_resolution(self, rng):
        # brute-force oracle: the same dense solve at twice the resolution
        def q_func(s):
            return -0.8 + 0.5 * np.sin(s) + 0.3 * np.cos(2 * s)

        def x_func(s):
            return 0.25 * np.cos(s)

        def dx_func(s):
            return -0.25 * np.sin(s)

        lams = {}
        for n in (64, 128, 256):
            grid, coeffs = _circle_operator(n, q_func, x_func, dx_func)
            mat = assemble_stability_operator(grid, coeffs)
            eig = principal_eigenvalue(mat, grid)
            assert abs(eig.lambda1.imag) < 1e-10
            assert eig.positivity
            lams[n] = eig.lambda1_real
        assert abs(lams[64] - lams[128]) < 4e-4
        assert abs(lams[128] - lams[256]) < 1e-4

    def test_minimal_real_part_selection(self, rng):
        grid, coeffs = _circle_operator(24, lambda s: 0.5 * np.sin(s))
        mat = assemble_stability_operator(grid, coeffs)
        eig = principal_eigenvalue(mat, grid)
        assert eig.lambda1_real <= eig.spectrum.real.min() + 1e-12

    def test_positivity_criterion_from_constructed_instance(self, rng):
        # choose psi > 0 and a positive target, then solve for the zeroth
        # coefficient so that L(psi) equals the target exactly
        n = 48
        grid = circle_grid(n)
        s = grid.nodes[:, 0]
        psi = 2.0 + np.sin(s)
        target = 0.5 + 0.3 * np.cos(s)
        base = StabilityCoefficients.zero(grid)
        lap = assemble_stability_operator(grid, base).dense()  # pure -Laplacian
        c = (target - lap @ psi) / psi
        coeffs = StabilityCoefficients(Q=c, X=np.zeros((n, 1)), divX=np.zeros(n),
                                       normX_sq=np.zeros(n))
        mat = assemble_stability_operator(grid, coeffs).dense()
        assert np.abs(mat @ psi - target).max() < 1e-9
        eig = principal_eigenvalue(mat, grid)
        assert eig.lambda1_real > 0.0

    def test_grid_convergence_second_order(self):
        lams = {}
        for n in (32, 64, 128):
            grid, coeffs = _circle_operator(
                n,
                lambda s: -1.0 + 0.4 * np.sin(s) + 0.2 * np.cos(2 * s),
                lambda s: 0.3 * np.cos(s),
                lambda s: -0.3 * np.sin(s),
            )
            mat = assemble_stability_operator(grid, coeffs)
            lams[n] = principal_eigenvalue(mat, grid).lambda1_real
        ratio = abs(lams[32] - lams[64]) / abs(lams[64] - lams[128])
        assert 3.5 <= ratio <= 4.5

    def test_sphere_laplacian_eigenvalue(self):
        # principal nonzero band of the unit-sphere Laplacian is l(l+1) = 2
        grid = latlong_sphere_grid(24, 48)
        coeffs = StabilityCoefficients.zero(grid)
        mat = assemble_stability_operator(grid, coeffs)
        eig = principal_eigenvalue(mat, grid)
        assert eig.lambda1_real == pytest.approx(0.0, abs=1e-10)
        spectrum = np.sort(eig.spectrum.real)
        band = spectrum[1:4]  # threefold l = 1 eigenvalue
        assert np.abs(band - 2.0).max() < 0.02

    def test_equatorial_two_sphere_in_three_sphere_slice(self):
        # geometric coefficients on the 2-d surface: Scal_Sigma = 2 and the
        # 3-sphere slice density is 3, so Q = 1 - 3 = -2 and lambda1 = -2
        sc = build_scenario("einstein_cylinder", {"n": 3})
        surface = sc.slice_surfaces["equator"]
        grid = latlong_sphere_grid(12, 24)
        ext = extrinsic_data(surface.embedding, sc.initial_data.h_field, grid.nodes)
        q, x, norm_x = stability_coefficients(sc.initial_data, surface, grid.nodes, ext)
        assert np.abs(q + 2.0).max() < 1e-10
        assert np.abs(x).max() == 0.0
        coeffs = StabilityCoefficients(q, x, _divergence_on_grid(grid, x), norm_x)
        mat = assemble_stability_operator(grid, coeffs)
        eig = principal_eigenvalue(mat, grid)
        assert eig.lambda1_real == pytest.approx(-2.0, abs=1e-9)
        assert eig.positivity
        assert quadrature_symmetry_residual(mat, grid) < 1e-9


def _assembled(grid, coeffs):
    return grid, assemble_stability_operator(grid, coeffs)


def _equator_operator(n):
    case = equator_deformation_case(n)
    return _assembled(case.grid, case.coefficients)


def _seeded_operator(index):
    """Member ``index`` of the seeded circles: drift on even, drift-free on odd."""
    grid, op, time_symmetric = list(random_circle_operators(count=index + 1))[index]
    assert time_symmetric == (index % 2 == 1)
    return grid, op


def _drift_circle_operator():
    return _assembled(*_circle_operator(
        32, lambda s: -1.0 + 0.4 * np.sin(s), lambda s: 0.3 * np.cos(s), lambda s: -0.3 * np.sin(s)))


def _sphere_operator():
    grid = latlong_sphere_grid(24, 48)
    return _assembled(grid, StabilityCoefficients.zero(grid).shifted(-2.0))


class TestSpectrum:
    """The full spectrum: ``eigvalsh`` for a bitwise-symmetric dense matrix,
    ``eigvals`` for any other."""

    SYMMETRIC = {"equator-32": lambda: _equator_operator(32),
                 "equator-256": lambda: _equator_operator(256),
                 "seeded-drift-free": lambda: _seeded_operator(1)}
    GENERAL = {"seeded-drift": lambda: _seeded_operator(0),
               "circle-drift": _drift_circle_operator,
               "sphere-24x48": _sphere_operator}

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_symmetric_matrix_takes_eigvalsh(self, name):
        grid, op = self.SYMMETRIC[name]()
        spectrum = principal_eigenvalue(op, grid).spectrum
        a = op.dense()
        assert spectrum.dtype == np.float64
        assert spectrum.tobytes() == np.linalg.eigvalsh(a).tobytes()
        general = np.sort(np.linalg.eigvals(a).real)
        assert np.abs(spectrum - general).max() <= 1e-13 * np.linalg.norm(a, np.inf)

    @pytest.mark.parametrize("n", [32, 256])
    def test_equator_spectrum_matches_dispersion_relation(self, n):
        # Q = -1 on the equator: -1 + (2 / h^2)(1 - cos 2 pi j / N), j = 0 .. N - 1
        grid, op = _equator_operator(n)
        h = grid.spacing[0]
        expected = np.sort(-1.0 + 2.0 / h**2 * (1.0 - np.cos(2.0 * math.pi * np.arange(n) / n)))
        spectrum = principal_eigenvalue(op, grid).spectrum
        assert np.abs(spectrum - expected).max() <= 1e-13 * np.linalg.norm(op.dense(), np.inf)

    @pytest.mark.parametrize("name", GENERAL)
    def test_other_matrix_takes_eigvals(self, name):
        grid, op = self.GENERAL[name]()
        a = op.dense()
        assert not np.array_equal(a, a.T)
        assert principal_eigenvalue(op, grid).spectrum.tobytes() == np.linalg.eigvals(a).tobytes()

    def test_one_ulp_from_symmetric_takes_eigvals(self):
        grid, op = _equator_operator(32)
        a = op.dense()
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        eig = principal_eigenvalue(a, grid)
        assert np.array_equal(eig.operator.dense(), a)
        # eigvals returns a real array when every eigenvalue is real, but unsorted
        assert eig.spectrum.tobytes() == np.linalg.eigvals(a).tobytes()
        assert eig.spectrum.tobytes() != np.linalg.eigvalsh(a).tobytes()


class TestDeformation:
    def test_equator_case(self):
        rep = deformation_check(equator_deformation_case(64))
        assert rep.lambda1 == pytest.approx(-1.0, abs=1e-10)
        assert rep.max_rel_error < 2e-3
        assert rep.displacement > 0
        assert rep.outer_trapped_achieved

    def test_displaced_circle_matches_latitude_formula(self):
        # oracle: theta_+ of the circle at polar angle pi/2 + t is -tan(t)
        case = equator_deformation_case(32)
        phi = np.ones(32)
        for t in (0.05, -0.08):
            theta = case.theta_of(t, phi)
            assert np.abs(theta - (1.0 / math.tan(math.pi / 2 + t))).max() < 1e-12

    def test_shifted_potential_flips_direction(self):
        rep = deformation_check(equator_deformation_case(64, q_offset=2.0))
        assert rep.lambda1 == pytest.approx(1.0, abs=1e-10)
        assert rep.displacement < 0
        assert rep.outer_trapped_achieved
        assert rep.max_rel_error < 2e-3

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMOTS):
            deformation_check(flat_torus_degenerate_case(32))

    def test_fd_step_robustness(self):
        rep = deformation_check(equator_deformation_case(32), fd_step=1e-3)
        assert rep.max_rel_error < 2e-3

    def test_overflowing_fd_step_is_a_trap_lab_error(self):
        # the displaced equator's induced metric overflows: the guard of
        # extrinsic_data refuses it as not positive definite, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrapLabError, match="^induced metric not positive definite"):
                deformation_check(equator_deformation_case(64), fd_step=1e200)

    @pytest.mark.parametrize("build", [equator_deformation_case, flat_torus_degenerate_case])
    def test_one_geometry_evaluation_per_grid_node(self, build, monkeypatch):
        from traplab import stability

        # points evaluated: the leading-axis size of each call's parameters
        calls = {"extrinsic_data": 0, "h_field": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                points = args[-1]
                calls[name] += int(np.prod(np.shape(points)[:-1]))
                return original(*args, **kwargs)

            return wrapper

        def scenario_with_counted_h_field(*args, **kwargs):
            sc = build_scenario(*args, **kwargs)
            sc.initial_data.h_field = counted("h_field", sc.initial_data.h_field)
            return sc

        monkeypatch.setattr(stability, "extrinsic_data",
                            counted("extrinsic_data", stability.extrinsic_data))
        monkeypatch.setattr(stability, "build_scenario", scenario_with_counted_h_field)
        case = build(32)
        assert case.grid.num_nodes == 32
        assert calls == {"extrinsic_data": 32, "h_field": 32}

    def test_deformation_suite_builds_its_equator_once(self, monkeypatch):
        # one geometry pass serves the suite's two equator cases (q_offset 0 and 2);
        # the flat-torus case makes the other call
        from traplab import stability, verify

        points = []
        extrinsic = stability.extrinsic_data

        def counted(emb, h_field, u, **kwargs):
            points.append(len(u))
            return extrinsic(emb, h_field, u, **kwargs)

        monkeypatch.setattr(stability, "extrinsic_data", counted)
        assert all(record.passed for record in verify.verify_deformation())
        assert points == [64, 32]

    @pytest.mark.parametrize("resolution, distinct", [(1024, 1024), (30, 36)])
    def test_one_geometry_evaluation_per_distinct_table_node(self, resolution, distinct,
                                                             monkeypatch):
        # the convergence table's grids at max(8, N/4), max(8, N/2) and N: each
        # distinct parameter is evaluated once, 1024 and not 256 + 512 + 1024;
        # at N = 30 the 8-node grid shares 0 and pi with the 30-node one, which
        # holds the 15-node one, so 30 + 8 - 2
        from traplab import cli, stability

        points = []

        def scenario_with_counted_h_field(*args, **kwargs):
            sc = build_scenario(*args, **kwargs)
            h_field = sc.initial_data.h_field

            def counted(p):
                points.append(int(np.prod(np.shape(p)[:-1])))
                return h_field(p)

            sc.initial_data.h_field = counted
            return sc

        monkeypatch.setattr(stability, "build_scenario", scenario_with_counted_h_field)
        cli.execute_config({"command": "spectrum", "scenario": "einstein_cylinder", "n": 2,
                            "resolution": resolution})
        params = [np.arange(r) * (2.0 * math.pi / r)
                  for r in (max(8, resolution // 4), max(8, resolution // 2), resolution)]
        assert len(np.unique(np.concatenate(params))) == distinct
        assert sum(points) == distinct

    def test_one_expansion_pass_per_theta_of(self, monkeypatch):
        # the two finite-difference passes and the displaced surface evaluate
        # the expansions over all nodes in one call, one row per displacement
        from traplab import stability

        calls = []
        original = stability.initial_data_expansions

        def counted(*args, **kwargs):
            calls.append(int(np.prod(np.shape(args[-1])[:-1])))
            return original(*args, **kwargs)

        monkeypatch.setattr(stability, "initial_data_expansions", counted)
        deformation_check(equator_deformation_case(32))
        assert calls == [3 * 32]

    @pytest.mark.parametrize("build", [equator_deformation_case, flat_torus_degenerate_case])
    def test_one_connection_per_grid_node(self, build, monkeypatch):
        # extrinsic data, the curvature and the constraint current share the
        # Christoffel symbols of each node's jet
        import sys

        from traplab import geometry

        points = []
        original = geometry.christoffel

        def counted(m):
            points.append(int(np.prod(m.g.shape[:-2])))
            return original(m)

        for name, module in list(sys.modules.items()):
            if name.startswith("traplab") and getattr(module, "christoffel", None) is original:
                monkeypatch.setattr(module, "christoffel", counted)
        case = build(32)
        assert case.grid.num_nodes == 32
        assert sum(points) == 32


class TestEigensolverGuards:
    def test_complex_bottom_pair_rejected(self):
        from traplab.errors import EigensolverFailure

        grid = circle_grid(8)
        # block rotation matrix: the minimal-real-part eigenvalues are a
        # genuinely complex conjugate pair
        mat = np.zeros((8, 8))
        for k in range(0, 8, 2):
            mat[k, k + 1] = 1.0
            mat[k + 1, k] = -1.0
        with pytest.raises(EigensolverFailure):
            principal_eigenvalue(mat, grid)

    def test_drift_on_sphere_grid_rejected(self):
        grid = latlong_sphere_grid(8, 8)
        num = grid.num_nodes
        coeffs = StabilityCoefficients(
            Q=np.zeros(num), X=np.ones((num, 2)), divX=np.zeros(num),
            normX_sq=np.ones(num),
        )
        with pytest.raises(NotImplementedError):
            assemble_stability_operator(grid, coeffs)
