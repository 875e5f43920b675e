"""Aggregated verification suites behind the command-line ``verify`` command.

Each suite returns a list of check records; the registry maps suite names to
functions.  The pytest acceptance module drives the same functions, so the
command line and the test suite cannot drift apart.

One check is expected to report a failure by design: the null-v/spacelike-w
curvature perturbation is verified against the published reference constant
-4/n * g(w, w), while the directly computed value of the rescaled curvature
is -8/n * g(w, w).  Three independent derivations of the -8/n value live in
the test suite; the reference is kept as published rather than silently
corrected.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import conformal, energy, linear_analysis, stability
from .conformal import (
    BumpProfile,
    CurvatureCase,
    coordinate_scalar_field,
    curvature_perturbation,
    curvature_perturbation_reference,
    quadratic_scalar_field,
    rescaled_metric_field,
)
from .errors import DegenerateMOTS
from .geometry import MetricJet2, Signature, riemann
from .initial_data import constraint_quantities
from .reporting import CheckRecord, Stopwatch, approx_record, flag_record, relative_error
from .scenarios import build_scenario, scenario_names
from .submanifold import TrappingLabel, extrinsic_data, trapping_classify


# --- helpers ----------------------------------------------------------------

def random_polynomial_metric_jet(
    rng: np.random.Generator, dim: int, signature: Signature = Signature.LORENTZIAN,
    amplitude: float = 0.15,
) -> MetricJet2:
    """Random analytic metric jet: base metric plus bounded random derivatives.

    Any symmetric derivative data is the exact 2-jet of a polynomial metric,
    so these jets are exact-jet scenarios in their own right.
    """
    g = np.eye(dim)
    if signature is Signature.LORENTZIAN:
        g[0, 0] = -1.0
    pert = amplitude * rng.normal(size=(dim, dim))
    g = g + 0.25 * (pert + pert.T)
    dg = amplitude * rng.normal(size=(dim,) * 3)
    dg = 0.5 * (dg + np.swapaxes(dg, 1, 2))
    ddg = amplitude * rng.normal(size=(dim,) * 4)
    ddg = 0.5 * (ddg + np.swapaxes(ddg, 2, 3))
    ddg = 0.5 * (ddg + np.swapaxes(ddg, 0, 1))
    return MetricJet2(dim, g, dg, ddg, signature)


def _runtime_record(name: str, elapsed: float, budget: float) -> CheckRecord:
    return CheckRecord(
        name=f"{name}-runtime",
        anchor="plumbing",
        measured=round(elapsed, 3),
        expected=f"< {budget} s",
        tolerance=None,
        passed=bool(elapsed < budget),
    )


def _surface_cases():
    """Deterministic pool of (surface, metric field, orientation, samples)."""
    mink = build_scenario("minkowski", {})
    torus = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 4})
    cyl = build_scenario("einstein_cylinder", {"n": 2})
    return [
        (mink.embeddings["sphere"], mink.metric, mink.time_orientation),
        (torus.embeddings["Sigma"], torus.metric, torus.time_orientation),
        (cyl.embeddings["equator"], cyl.metric, cyl.time_orientation),
    ]


# --- suites -----------------------------------------------------------------

def verify_curvature_perturbation_values() -> list[CheckRecord]:
    """Closed-form values of the three curvature perturbation cases."""
    records = []
    with Stopwatch() as sw:
        for case in CurvatureCase:
            for n in (1, 2, 5, 10):
                measured = curvature_perturbation(case, n)
                expected = curvature_perturbation_reference(case, n)
                detail = ""
                if case is CurvatureCase.NULL_V_SPACELIKE_W:
                    detail = (
                        "published reference constant -4/n; direct computation "
                        "gives -8/n (see README and tests/test_conformal.py)"
                    )
                records.append(
                    approx_record(
                        name=f"curvature-perturbation-{case.value}-n{n}",
                        anchor="conformal-curvature-closed-form",
                        measured=measured,
                        expected=expected,
                        tolerance=1e-6,
                        detail=detail,
                    )
                )
    records.append(_runtime_record("curvature-perturbation", sw.elapsed, 5.0))
    return records


def verify_trapping_construction() -> list[CheckRecord]:
    """Torus trapping sequence: exact values -4/n^2 and 2/n at all samples."""
    records = []
    with Stopwatch() as sw:
        sc = build_scenario("minkowski_torus_quotient", {"m": 3, "samples_per_axis": 8})
        sigma = sc.embeddings["Sigma"]
        tau = coordinate_scalar_field(0, sc.dim, scale=-1.0)
        profile = BumpProfile(
            0.2, 0.45, np.zeros(sc.dim), axes=(0, 1), periods=(None, 1.0)
        )
        before = trapping_classify(sigma, sc.metric, sc.time_orientation)
        records.append(
            flag_record(
                "torus-input-extremal",
                "trapping-sequence-values",
                before.label is TrappingLabel.EXTREMAL,
                detail=f"label={before.label.value}",
            )
        )
        worst_hh = 0.0
        worst_hx = 0.0
        strict_ok = True
        for n in range(1, 33):
            result = conformal.trapping_perturbation(
                sc.metric, sigma, sc.time_orientation, tau, profile, n
            )
            for rec in result.records:
                worst_hh = max(worst_hh, relative_error(rec.gn_H_H, -4.0 / n**2))
                worst_hx = max(worst_hx, relative_error(rec.gn_H_X, 2.0 / n))
            strict_ok = strict_ok and result.strictly_trapped()
            if n == 1:
                after = trapping_classify(sigma, result.metric_field, sc.time_orientation)
                records.append(
                    flag_record(
                        "torus-flips-to-trapped",
                        "trapping-sequence-values",
                        after.label is TrappingLabel.TRAPPED,
                        detail=f"label={after.label.value}",
                    )
                )
        records.append(
            approx_record(
                "torus-gnHH-max-relative-error", "trapping-sequence-values",
                worst_hh, 0.0, 1e-6, relative=False,
                detail="max over n in 1..32 and all samples of rel. error vs -4/n^2",
            )
        )
        records.append(
            approx_record(
                "torus-gnHX-max-relative-error", "trapping-sequence-values",
                worst_hx, 0.0, 1e-6, relative=False,
                detail="max over n in 1..32 and all samples of rel. error vs 2/n",
            )
        )
        records.append(
            flag_record("torus-strict-inequalities-all-n", "trapping-sequence-values", strict_ok)
        )
    records.append(_runtime_record("trapping-construction", sw.elapsed, 10.0))
    return records


def verify_conformal_dual_path(pairs: int = 50, seed: int = 101) -> list[CheckRecord]:
    """Formula-path mean curvature against direct extrinsic recomputation."""
    rng = np.random.default_rng(seed)
    cases = _surface_cases()
    worst_h = 0.0
    worst_sq = 0.0
    for k in range(pairs):
        emb, m_field, _x = cases[k % len(cases)]
        u = emb.sample_set[rng.integers(0, len(emb.sample_set))]
        dim = emb.ambient_dim
        f_field = quadratic_scalar_field(
            0.3 * rng.normal(),
            0.3 * rng.normal(size=dim),
            0.15 * rng.normal(size=(dim, dim)),
        )
        data = extrinsic_data(emb, m_field, u)
        p = data.H.base
        m = m_field(p)
        f = f_field(p)
        h_formula = conformal.conformal_mean_curvature(
            data.H, f, emb.sigma_dim, m, data.normal_projector
        )
        sq_formula = conformal.conformal_H_normsq(
            data.H, f, emb.sigma_dim, m, data.normal_projector
        )
        hat_field = rescaled_metric_field(m_field, f_field)
        data_hat = extrinsic_data(emb, hat_field, u)
        m_hat = hat_field(p)
        scale = max(1.0, float(np.abs(data_hat.H.components).max()))
        worst_h = max(
            worst_h, float(np.abs(h_formula.components - data_hat.H.components).max()) / scale
        )
        sq_direct = m_hat.inner(data_hat.H.components, data_hat.H.components)
        worst_sq = max(worst_sq, abs(sq_formula - sq_direct) / max(1.0, abs(sq_direct)))
    return [
        approx_record(
            "mean-curvature-dual-path", "conformal-mean-curvature-law",
            worst_h, 0.0, 1e-6, relative=False,
            detail=f"max over {pairs} seeded (surface, rescaling) pairs",
        ),
        approx_record(
            "mean-curvature-normsq-dual-path", "conformal-scalar-product-law",
            worst_sq, 0.0, 1e-6, relative=False,
        ),
    ]


def verify_curvature_axioms(count: int = 100, seed: int = 5) -> list[CheckRecord]:
    """Curvature symmetry residuals on random exact jets; flatness of flat jets."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(count):
        dim = int(rng.integers(2, 5))
        sig = Signature.LORENTZIAN if k % 2 == 0 else Signature.RIEMANNIAN
        jet = random_polynomial_metric_jet(rng, dim, sig)
        r = riemann(jet)
        worst = max(worst, r.symmetry_residual)
    flat_max = max(
        riemann(MetricJet2.flat(4)).max_abs(),
        riemann(build_scenario("minkowski_torus_quotient", {}).metric(np.zeros(4))).max_abs(),
    )
    return [
        approx_record(
            "curvature-symmetry-residual", "curvature-like-symmetries",
            worst, 0.0, 1e-9, relative=False,
            detail=f"max over {count} random exact jets of all four symmetry residuals",
        ),
        approx_record(
            "flat-curvature-magnitude", "curvature-like-symmetries",
            flat_max, 0.0, 1e-10, relative=False,
        ),
    ]


def verify_energy_chain(seed: int = 11) -> list[CheckRecord]:
    """Sampled condition verdicts respect the inclusion chain on every scenario."""
    records = []
    for name in scenario_names():
        sc = build_scenario(name, {})
        reports = energy.condition_suite(
            sc.metric, sc.energy_points, sc.time_orientation, seed=seed, count=24
        )
        records.append(
            flag_record(
                f"inclusion-chain-{name}", "condition-set-inclusions",
                energy.inclusion_chain_holds(reports),
                detail=str({c.value: r.verdict.value for c, r in reports.items()}),
            )
        )
        if name == "minkowski_torus_quotient":
            weak = reports[energy.Condition.RICCI_WEAK]
            strict = reports[energy.Condition.RICCI_STRICT]
            records.append(
                flag_record(
                    "torus-weak-ricci-satisfied", "flat-quotient-energy-membership",
                    weak.satisfied, detail=f"min value {weak.min_value:.3e}",
                )
            )
            witness_ok = (
                not strict.satisfied
                and strict.witness is not None
                and abs(strict.witness.value) <= 1e-12
            )
            records.append(
                flag_record(
                    "torus-strict-ricci-violated-witness-zero",
                    "flat-quotient-energy-membership", witness_ok,
                    detail="witness value "
                    + (f"{strict.witness.value:.3e}" if strict.witness else "missing"),
                )
            )
    return records


def verify_constraints(seed: int = 23) -> list[CheckRecord]:
    """Vacuum and non-vacuum constraint values on the shipped data sets."""
    records = []
    flat = build_scenario("minkowski", {})
    worst = 0.0
    for p in [np.zeros(3), np.array([0.3, -0.7, 1.9]), np.array([5.0, 2.0, -3.0])]:
        cq = constraint_quantities(flat.initial_data, p)
        worst = max(worst, abs(cq.rho), float(np.abs(cq.J).max()))
    records.append(
        approx_record(
            "flat-data-vacuum", "constraint-energy-density",
            worst, 0.0, 1e-12, relative=False,
        )
    )
    schw = build_scenario("schwarzschild_slice_isotropic", {"mass": 1.0})
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        p = direction * rng.uniform(0.6, 3.0)
        cq = constraint_quantities(schw.initial_data, p)
        worst = max(worst, abs(cq.rho), float(np.abs(cq.J).max()))
    records.append(
        approx_record(
            "schwarzschild-slice-vacuum", "constraint-energy-density",
            worst, 0.0, 1e-8, relative=False,
            detail="200 sampled points, isotropic time-symmetric data",
        )
    )
    cyl = build_scenario("einstein_cylinder", {"n": 2})
    worst_rho = 0.0
    worst_j = 0.0
    for p in [np.array([0.4, 1.0]), np.array([1.8, 2.2]), np.array([2.4, 5.0])]:
        cq = constraint_quantities(cyl.initial_data, p)
        worst_rho = max(worst_rho, abs(cq.rho - 1.0))
        worst_j = max(worst_j, float(np.abs(cq.J).max()))
    records.append(
        approx_record(
            "cylinder-slice-energy-density", "constraint-energy-density",
            1.0 + worst_rho, 1.0, 1e-9,
            detail="unit-sphere slice has scalar curvature 2, so density 1",
        )
    )
    records.append(
        approx_record(
            "cylinder-slice-current", "constraint-energy-density",
            worst_j, 0.0, 1e-9, relative=False,
        )
    )
    return records


def _reference_circle_operator(n: int):
    grid = stability.circle_grid(n)
    s = grid.nodes[:, 0]
    q = -1.0 + 0.4 * np.sin(s) + 0.2 * np.cos(2 * s)
    x = 0.3 * np.cos(s)
    coeffs = stability.StabilityCoefficients(
        Q=q, X=x.reshape(-1, 1), divX=-0.3 * np.sin(s), normX_sq=x**2
    )
    return grid, coeffs


def verify_spectral_suite() -> list[CheckRecord]:
    """Equator stability operator: coefficients, eigenvalue, grid convergence."""
    records = []
    with Stopwatch() as sw:
        case = stability.equator_deformation_case(64)
        records.append(
            approx_record(
                "equator-potential-value", "stability-operator-potential",
                float(np.abs(case.coefficients.Q + 1.0).max()), 0.0, 1e-9, relative=False,
                detail="potential Q must equal -1 at every node",
            )
        )
        worst_lam = -1.0
        for n in (32, 64, 128):
            c = stability.equator_deformation_case(n)
            mat = stability.assemble_stability_operator(c.grid, c.coefficients)
            eig = stability.principal_eigenvalue(mat, c.grid)
            if abs(eig.lambda1_real + 1.0) > abs(worst_lam + 1.0):
                worst_lam = eig.lambda1_real
            if n == 64:
                variation = float(eig.eigenfunction.max() - eig.eigenfunction.min())
                records.append(
                    approx_record(
                        "equator-eigenfunction-constant", "stability-principal-eigenvalue",
                        variation, 0.0, 1e-6, relative=False,
                    )
                )
                records.append(
                    flag_record(
                        "equator-nondegenerate", "stability-principal-eigenvalue",
                        abs(eig.lambda1_real) > 1e-6,
                        detail=f"lambda1 = {eig.lambda1_real:.12f}",
                    )
                )
        records.append(
            approx_record(
                "equator-lambda1", "stability-principal-eigenvalue",
                worst_lam, -1.0, 1e-9,
                detail="worst resolution in {32, 64, 128}; oracle: analytic "
                "periodic-Laplacian spectrum plus constant shift",
            )
        )
        lams = {}
        for n in (32, 64, 128):
            grid, coeffs = _reference_circle_operator(n)
            mat = stability.assemble_stability_operator(grid, coeffs)
            lams[n] = stability.principal_eigenvalue(mat, grid).lambda1_real
        ratio = abs(lams[32] - lams[64]) / abs(lams[64] - lams[128])
        records.append(
            CheckRecord(
                name="circle-grid-convergence-ratio",
                anchor="stability-grid-convergence",
                measured=float(ratio),
                expected="in [3.5, 4.5]",
                tolerance=None,
                passed=bool(3.5 <= ratio <= 4.5),
                detail="smooth varying-coefficient circle operator; the equator "
                "operator is grid-exact for its constant principal mode, so the "
                "second-order ratio is measured on this non-constant reference",
            )
        )
    records.append(_runtime_record("spectral-suite", sw.elapsed, 30.0))
    return records


def verify_deformation() -> list[CheckRecord]:
    """Derivative identity and sign rule for the equator deformation."""
    records = []
    case = stability.equator_deformation_case(64)
    report = stability.deformation_check(case)
    records.append(
        approx_record(
            "deformation-derivative-identity", "deformation-derivative-identity",
            report.max_rel_error, 0.0, 2e-3, relative=False,
            detail="pointwise centered difference of theta_+ vs lambda1 * phi",
        )
    )
    records.append(
        flag_record(
            "deformation-outer-trapped", "deformation-derivative-identity",
            report.outer_trapped_achieved,
            detail=f"displacement {report.displacement:+.5f}, "
            f"max theta_+ after move {report.theta_displaced.max():.3e}",
        )
    )
    shifted = stability.deformation_check(stability.equator_deformation_case(64, q_offset=2.0))
    records.append(
        flag_record(
            "deformation-sign-rule-flips", "deformation-derivative-identity",
            shifted.lambda1 > 0
            and shifted.displacement < 0
            and shifted.outer_trapped_achieved
            and shifted.max_rel_error <= 2e-3,
            detail=f"lambda1 = {shifted.lambda1:.6f}, displacement {shifted.displacement:+.5f}",
        )
    )
    try:
        stability.deformation_check(stability.flat_torus_degenerate_case(32))
        degenerate_ok = False
    except DegenerateMOTS:
        degenerate_ok = True
    records.append(
        flag_record(
            "deformation-degenerate-rejected", "deformation-derivative-identity",
            degenerate_ok, detail="flat-torus circle has principal eigenvalue 0",
        )
    )
    return records


def verify_linear_lemmas(seed: int = 2024) -> list[CheckRecord]:
    """Surjectivity equivalences, codimension formula, projection bookkeeping."""
    records = []
    with Stopwatch() as sw:
        rng = np.random.default_rng(seed)
        mismatches = 0
        for _ in range(1000):
            h, e, f = (int(rng.integers(1, 9)) for _ in range(3))
            tr = linear_analysis.random_triple(rng, h, e, f)
            a = linear_analysis.sum_surjective(tr)
            b = linear_analysis.perp_intersection_trivial(tr)
            c = linear_analysis.adjoint_kernels_trivial(tr)
            if not (a == b == c):
                mismatches += 1
        records.append(
            CheckRecord(
                name="surjectivity-equivalences",
                anchor="sum-operator-surjectivity",
                measured=mismatches, expected=0, tolerance=None,
                passed=mismatches == 0,
                detail="1000 seeded random operator pairs, three formulations",
            )
        )
        codim_bad = 0
        for _ in range(500):
            v, u = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            s = int(rng.integers(0, v + 1))
            l = rng.normal(size=(v, u))
            if s == 0:
                basis = np.zeros((v, 0))
            else:
                basis = rng.normal(size=(v, s))
                if np.linalg.matrix_rank(basis) < s:
                    continue
            lhs, rhs = linear_analysis.codim_formula_check(l, basis)
            if lhs != rhs:
                codim_bad += 1
        records.append(
            CheckRecord(
                name="codimension-formula",
                anchor="preimage-codimension-formula",
                measured=codim_bad, expected=0, tolerance=None,
                passed=codim_bad == 0,
                detail="500 seeded random instances, exact integer equality",
            )
        )
        proj_bad = 0
        for _ in range(200):
            h, e, f = (int(rng.integers(1, 9)) for _ in range(3))
            tr = linear_analysis.random_triple(rng, h, e, f)
            rep = linear_analysis.projection_regularity(tr)
            if not rep.kernel_dims_match:
                proj_bad += 1
            if rep.sum_is_surjective and not rep.indices_match:
                proj_bad += 1
        records.append(
            CheckRecord(
                name="projection-kernel-identity",
                anchor="kernel-projection-bookkeeping",
                measured=proj_bad, expected=0, tolerance=None,
                passed=proj_bad == 0,
                detail="200 seeded random triples; kernel dimension and index identities",
            )
        )
    records.append(_runtime_record("linear-lemmas", sw.elapsed, 5.0))
    return records


def random_circle_operators(count: int = 50, seed: int = 99, n: int = 48):
    """Seeded random circle operators; every second one is drift-free.

    Yields (grid, assembled matrix, time_symmetric).
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        grid = stability.circle_grid(n)
        s = grid.nodes[:, 0]
        q = (
            rng.normal(scale=0.7)
            + rng.normal(scale=0.7) * np.sin(s)
            + rng.normal(scale=0.7) * np.cos(s)
            + rng.normal(scale=0.4) * np.sin(2 * s)
            + rng.normal(scale=0.4) * np.cos(2 * s)
        )
        time_symmetric = k % 2 == 1
        if time_symmetric:
            x = np.zeros(n)
            divx = np.zeros(n)
        else:
            a, b = rng.normal(scale=0.25, size=2)
            x = a * np.cos(s) + b * np.sin(s)
            divx = -a * np.sin(s) + b * np.cos(s)
        coeffs = stability.StabilityCoefficients(
            Q=q, X=x.reshape(-1, 1), divX=divx, normX_sq=x**2
        )
        yield grid, stability.assemble_stability_operator(grid, coeffs), time_symmetric


def verify_spectral_properties(count: int = 50, seed: int = 99) -> list[CheckRecord]:
    """Principal-eigenvalue structure on seeded random circle operators."""
    bad_real = 0
    bad_minimal = 0
    bad_sign = 0
    worst_sym = 0.0
    for grid, mat, time_symmetric in random_circle_operators(count, seed):
        eig = stability.principal_eigenvalue(mat, grid)
        if abs(eig.lambda1.imag) > 1e-8 * (1.0 + abs(eig.lambda1.real)):
            bad_real += 1
        if eig.lambda1_real > float(eig.spectrum.real.min()) + 1e-10:
            bad_minimal += 1
        if not eig.positivity:
            bad_sign += 1
        if time_symmetric:
            worst_sym = max(worst_sym, stability.quadrature_symmetry_residual(mat, grid))
    records = [
        CheckRecord(
            name="random-operators-principal-structure",
            anchor="stability-principal-eigenvalue",
            measured={"nonreal": bad_real, "nonminimal": bad_minimal, "signchange": bad_sign},
            expected={"nonreal": 0, "nonminimal": 0, "signchange": 0},
            tolerance=None,
            passed=bad_real == 0 and bad_minimal == 0 and bad_sign == 0,
            detail=f"{count} seeded random circle operators",
        ),
        approx_record(
            "time-symmetric-self-adjointness", "time-symmetric-reduction",
            worst_sym, 0.0, 1e-9, relative=False,
            detail="quadrature-inner-product asymmetry of drift-free instances",
        ),
    ]
    return records


def verify_determinism() -> list[CheckRecord]:
    """Identical configuration and seed give byte-identical reports."""
    from . import cli

    config = {
        "command": "energy-check",
        "scenario": "minkowski_torus_quotient",
        "seed": 3,
        "count": 16,
    }
    a = cli.execute_config(dict(config))
    b = cli.execute_config(dict(config))
    from .reporting import report_bytes

    same = report_bytes(a, drop_wall_time=True) == report_bytes(b, drop_wall_time=True)
    config2 = {"command": "spectrum", "scenario": "einstein_cylinder", "n": 2, "resolution": 32}
    c = cli.execute_config(dict(config2))
    d = cli.execute_config(dict(config2))
    same2 = report_bytes(c, drop_wall_time=True) == report_bytes(d, drop_wall_time=True)
    return [
        flag_record("replay-energy-check", "plumbing", same),
        flag_record("replay-spectrum", "plumbing", same2),
    ]


SUITES: dict[str, Callable[[], list[CheckRecord]]] = {
    "curvature-perturbation": verify_curvature_perturbation_values,
    "trapping-construction": verify_trapping_construction,
    "conformal-dual-path": verify_conformal_dual_path,
    "curvature-axioms": verify_curvature_axioms,
    "energy-chain": verify_energy_chain,
    "constraints": verify_constraints,
    "spectral-suite": verify_spectral_suite,
    "deformation": verify_deformation,
    "linear-lemmas": verify_linear_lemmas,
    "spectral-properties": verify_spectral_properties,
    "determinism": verify_determinism,
}


def run_suites(names: list[str] | None = None) -> dict[str, list[CheckRecord]]:
    selected = list(SUITES) if not names or names == ["all"] else names
    out = {}
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown verification suite {name!r}; available: {sorted(SUITES)}")
        out[name] = SUITES[name]()
    return out
