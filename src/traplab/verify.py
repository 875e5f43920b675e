"""Aggregated verification suites behind the command-line ``verify`` command.

Each suite returns a list of check records; the registry maps suite names to
functions, which the pytest acceptance module drives too.  A suite that
repeats a command is a list of its configs, run through the command's own
code, so each check builder exists once: ``curvature-perturbation`` (12
``curvature`` runs), ``energy-chain`` (one ``energy-check`` per scenario),
``constraints`` (three ``constraints`` runs) and ``determinism`` (two
configs, each reported twice).  Three suites keep their own checks, each for
a measured reason: ``deformation`` makes one geometry pass for its equator
case and its shift, where two ``deform`` runs make two; ``spectral-suite``
solves for lambda1 alone, where ``spectrum`` solves an eight-eigenvalue head
(12 against 10 ms for the suite); ``trapping-construction`` stacks the torus
sequence over n = 1..32, where ``perturb`` checks one n.

One check fails by design: the null-v/spacelike-w curvature perturbation is
verified against the published reference -4/n * g(w, w), while the computed
value is -8/n * g(w, w), derived in closed form in the README, pinned in
tests/test_conformal.py and checked by the sympy oracle in tests/_oracles.py.
The reference is kept as published; the acceptance test asserts that this
check, at n = 1, 2, 5 and 10, is the only one that fails.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from . import cli, conformal, energy, linear_analysis, stability
from .conformal import (
    BumpProfile,
    CurvatureCase,
    coordinate_scalar_field,
    quadratic_scalar_field,
    rescaled_metric_field,
)
from .errors import DegenerateMOTS
from .geometry import MetricJet2, Signature, riemann
from .reporting import (
    CheckRecord, Stopwatch, approx_record, flag_record, relative_error, report_bytes,
)
from .scenarios import build_scenario, scenario_names
from .submanifold import TrappingLabel, extrinsic_data


# --- command configs --------------------------------------------------------

_CURVATURE_RUNS = [{"command": "curvature", "case": case.value, "n": n}
                   for case in CurvatureCase for n in (1, 2, 5, 10)]
_ENERGY_RUNS = [{"command": "energy-check", "scenario": name, "seed": 11, "count": 24}
                for name in scenario_names()]
_CONSTRAINTS_RUNS = [
    {"command": "constraints", "scenario": "minkowski", "points": 3},
    {"command": "constraints", "scenario": "schwarzschild_slice_isotropic", "seed": 23,
     "points": 200},
    {"command": "constraints", "scenario": "einstein_cylinder", "points": 3},
]
_REPLAY_RUNS = [
    {"command": "energy-check", "scenario": "minkowski_torus_quotient", "seed": 3, "count": 16},
    {"command": "spectrum", "scenario": "einstein_cylinder", "n": 2, "resolution": 32},
]


# --- helpers ----------------------------------------------------------------

def _command_run(cfg: dict) -> tuple[list[CheckRecord], Any]:
    """The checks and payload of one command config, made by the command's own code; the
    name of each check of a config that names a scenario ends in ``-<scenario>``."""
    checks, payload, *_ = cli.COMMANDS[cfg["command"]].run(cli.resolve(cfg))
    for rec in checks:
        rec.name += f"-{cfg['scenario']}" if "scenario" in cfg else ""
    return checks, payload


def _random_jet_arrays(rng: np.random.Generator, dim: int, signature: Signature):
    """The (g, dg, ddg) arrays of a random analytic metric jet, unchecked: the
    base metric plus bounded random symmetric derivatives, the exact 2-jet of a
    polynomial metric."""
    amplitude = 0.15
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
    return g, dg, ddg


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
    """Closed-form values of the three curvature perturbation cases: the `curvature` runs."""
    with Stopwatch() as sw:
        records = [rec for cfg in _CURVATURE_RUNS for rec in _command_run(cfg)[0]]
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
        sequence = conformal.trapping_sequence(
            sc.metric, sigma, sc.time_orientation, tau, profile, range(1, 33)
        )
        before, after = sequence[0].input_label, sequence[0].label
        records.append(flag_record("torus-input-extremal", "trapping-sequence-values",
                                   before is TrappingLabel.EXTREMAL, detail=f"label={before.value}"))
        records.append(flag_record("torus-flips-to-trapped", "trapping-sequence-values",
                                   after is TrappingLabel.TRAPPED, detail=f"label={after.value}"))
        ns = np.array([[r.n] for r in sequence])
        worst_hh = relative_error(np.array([r.gn_H_H for r in sequence]), -4.0 / ns**2).max()
        worst_hx = relative_error(np.array([r.gn_H_X for r in sequence]), 2.0 / ns).max()
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
            flag_record("torus-strict-inequalities-all-n", "trapping-sequence-values",
                        all(result.label is TrappingLabel.TRAPPED for result in sequence))
        )
    records.append(_runtime_record("trapping-construction", sw.elapsed, 10.0))
    return records


def verify_conformal_dual_path() -> list[CheckRecord]:
    """Formula-path mean curvature against direct extrinsic recomputation, on
    the seeded draws of each surface case as one stack per path."""
    pairs = 50
    rng = np.random.default_rng(101)
    cases = _surface_cases()
    draws = [[] for _ in cases]
    for k in range(pairs):
        emb = cases[k % len(cases)][0]
        dim = emb.ambient_dim
        draws[k % len(cases)].append((
            emb.sample_set[rng.integers(0, len(emb.sample_set))], 0.3 * rng.normal(),
            0.3 * rng.normal(size=dim), 0.15 * rng.normal(size=(dim, dim)),
        ))
    worst_h = worst_sq = 0.0
    for (emb, m_field, _x), case_draws in zip(cases, draws):
        u, c0, b, c = (np.array(a) for a in zip(*case_draws))
        f_field = quadratic_scalar_field(c0, b, c)
        data = extrinsic_data(emb, m_field, u)
        args = (data.H, f_field(data.H.base), emb.sigma_dim, data.metric, data.normal_projector)
        h_formula = conformal.conformal_mean_curvature(*args)
        sq_formula = conformal.conformal_H_normsq(*args)
        data_hat = extrinsic_data(emb, rescaled_metric_field(m_field, f_field), u)
        h_hat = data_hat.H.components
        scale = np.maximum(1.0, np.abs(h_hat).max(axis=-1))
        worst_h = max(worst_h, (np.abs(h_formula.components - h_hat).max(axis=-1) / scale).max())
        sq_direct = data_hat.metric.inner(h_hat, h_hat)
        worst_sq = max(worst_sq, (np.abs(sq_formula - sq_direct)
                                  / np.maximum(1.0, np.abs(sq_direct))).max())
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


def verify_curvature_axioms() -> list[CheckRecord]:
    """Curvature symmetry residuals on random exact jets, drawn first and then
    stacked per (dim, signature); flatness of flat jets."""
    count = 100
    rng = np.random.default_rng(5)
    groups: dict = {}
    for k in range(count):
        dim = int(rng.integers(2, 5))
        sig = Signature.LORENTZIAN if k % 2 == 0 else Signature.RIEMANNIAN
        groups.setdefault((dim, sig), []).append(_random_jet_arrays(rng, dim, sig))
    worst = max(riemann(MetricJet2(dim, *map(np.array, zip(*jets)), sig)).symmetry_residual.max()
                for (dim, sig), jets in groups.items())
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


def verify_energy_chain() -> list[CheckRecord]:
    """Sampled condition verdicts respect the inclusion chain on every scenario: one
    `energy-check` run each, its verdicts the detail of its chain record; the flat torus
    quotient satisfies the weak Ricci condition and violates the strict one at a zero value."""
    records = []
    for cfg in _ENERGY_RUNS:
        [chain, *_], payload = _command_run(cfg)
        chain.detail = str({c.value: payload[c.value]["verdict"] for c in energy.Condition})
        records.append(chain)
        if cfg["scenario"] == "minkowski_torus_quotient":
            anchor, witness = "flat-quotient-energy-membership", payload["ricci_strict"]["witness"]
            records.append(flag_record("torus-weak-ricci-satisfied", anchor,
                                       payload["ricci_weak"]["verdict"] == "satisfied_on_samples",
                                       detail="the Ricci form of the flat quotient vanishes"))
            records.append(flag_record("torus-strict-ricci-violated-witness-zero", anchor,
                                       witness is not None and abs(witness.value) <= 1e-12,
                                       detail="violated at a witness value within 1e-12 of zero"))
    return records


def verify_constraints() -> list[CheckRecord]:
    """Vacuum and non-vacuum constraint values on the shipped data sets: the `constraints` runs."""
    return [rec for cfg in _CONSTRAINTS_RUNS for rec in _command_run(cfg)[0]]


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
        worst_lam = -1.0
        for n, c in zip((32, 64, 128), stability.equator_deformation_cases([32, 64, 128])):
            op = stability.assemble_stability_operator(c.grid, c.coefficients)
            eig = stability.principal_eigenvalue(op, c.grid)
            if abs(eig.lambda1_real + 1.0) > abs(worst_lam + 1.0):
                worst_lam = eig.lambda1_real
            if n == 64:
                records.append(
                    approx_record(
                        "equator-potential-value", "stability-operator-potential",
                        float(np.abs(c.coefficients.Q + 1.0).max()), 0.0, 1e-9, relative=False,
                        detail="potential Q must equal -1 at every node",
                    )
                )
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
                        abs(eig.lambda1_real) > stability.DEGENERACY_TOL,
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
            op = stability.assemble_stability_operator(grid, coeffs)
            lams[n] = stability.principal_eigenvalue(op, grid).lambda1_real
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
    [case] = stability.equator_deformation_cases([64])
    report = stability.deformation_check(case.shifted(0.0))
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
    shifted = stability.deformation_check(case.shifted(2.0))
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


MAX_LINEAR_DIM = 8  # every dimension of the linear-lemmas draws lies in 1..8


def _map_stacks(rng: np.random.Generator, dims: np.ndarray) -> list[tuple]:
    """(indices, A, B, a, b) per codomain dimension h = dims[0] present, ascending: A, B
    one normal draw each, (count, h, MAX_LINEAR_DIM), zero past widths a = dims[1],
    b = dims[2] (zero columns change no span, rank or principal angle)."""
    stacks = []
    for h in range(1, MAX_LINEAR_DIM + 1):
        idx = np.flatnonzero(dims[0] == h)
        if idx.size:
            widths = dims[1:, idx]
            maps = [np.where(np.arange(MAX_LINEAR_DIM) < w[:, None, None],
                             rng.normal(size=(idx.size, h, MAX_LINEAR_DIM)), 0.0) for w in widths]
            stacks.append((idx, *maps, *widths))
    return stacks


def _linear_lemma_stacks(seed: int) -> tuple[list, list, list]:
    """The linear-lemmas instances as _map_stacks, drawn section after section: 1000
    surjectivity (h, e, f) in one (3, 1000) draw, then their (T, S); 500 codimension
    (v, u) in one (2, 500) draw and s in 0..v, then (l, basis); 200 projection (T, S)."""
    rng = np.random.default_rng(seed)
    surjectivity = _map_stacks(rng, rng.integers(1, MAX_LINEAR_DIM + 1, size=(3, 1000)))
    v, u = rng.integers(1, MAX_LINEAR_DIM + 1, size=(2, 500))
    codimension = _map_stacks(rng, np.stack([v, u, rng.integers(0, v + 1)]))
    projection = _map_stacks(rng, rng.integers(1, MAX_LINEAR_DIM + 1, size=(3, 200)))
    return surjectivity, codimension, projection


def linear_lemma_results(seed: int = 2024):
    """Per-instance results for the suite's seeded draws, one stack per codomain dimension.

    Draws as _linear_lemma_stacks: surjectivity, codimension, projection, each
    section's dimensions first and then its maps by ascending h (or v).  Returns
    the (1000, 3) surjectivity verdicts, the (2, 500) codimension sides lhs and rhs
    (-1 where a basis is dependent) and one ProjectionReport over the 200 projection
    instances, each with its own e and f.
    """
    la = linear_analysis
    surjectivity, codimension, projection = _linear_lemma_stacks(seed)
    tests = (la.sum_surjective, la.perp_intersection_trivial, la.adjoint_kernels_trivial)
    verdicts = np.empty((1000, len(tests)), dtype=bool)
    for idx, t, s, _, _ in surjectivity:
        tr = la.OperatorTriple(t, s)
        verdicts[idx] = np.stack([test(tr) for test in tests], axis=-1)
    sides = np.full((2, 500), -1)
    for idx, l, basis, _, s in codimension:
        lhs, rhs, rank = la.codim_formula_check(l, basis, s)
        sides[:, idx] = np.where(rank == s, [lhs, rhs], -1)
    fields: dict = {}
    for idx, t, s, e, f in projection:
        for name, value in vars(la.projection_regularity(la.OperatorTriple(t, s), e, f)).items():
            fields.setdefault(name, np.empty(200, value.dtype))[idx] = value
    return verdicts, sides, la.ProjectionReport(**fields)


def verify_linear_lemmas(seed: int = 2024) -> list[CheckRecord]:
    """Surjectivity equivalences, codimension formula, projection bookkeeping."""
    def count_record(name: str, anchor: str, bad: np.ndarray, detail: str) -> CheckRecord:
        bad = int(np.count_nonzero(bad))
        return CheckRecord(name=name, anchor=anchor, measured=bad, expected=0, tolerance=None,
                           passed=bad == 0, detail=detail)

    with Stopwatch() as sw:
        verdicts, (lhs, rhs), rep = linear_lemma_results(seed)
        records = [
            count_record("surjectivity-equivalences", "sum-operator-surjectivity",
                         verdicts.any(axis=1) != verdicts.all(axis=1),
                         "1000 seeded random operator pairs, three formulations"),
            count_record("codimension-formula", "preimage-codimension-formula", lhs != rhs,
                         f"{np.count_nonzero(lhs >= 0)} seeded random instances, "
                         "exact integer equality"),
            count_record("projection-kernel-identity", "kernel-projection-bookkeeping",
                         np.concatenate([~rep.kernel_dims_match,
                                         rep.sum_is_surjective & ~rep.indices_match]),
                         "200 seeded random triples; kernel dimension and index identities"),
        ]
    records.append(_runtime_record("linear-lemmas", sw.elapsed, 5.0))
    return records


def random_circle_operators(count: int = 50, seed: int = 99, n: int = 48):
    """Seeded random circle operators, every second one drift-free, all drawn
    first on one grid and assembled as one stack: (grid, operator, time_symmetric)."""
    rng = np.random.default_rng(seed)
    grid = stability.circle_grid(n)
    s = grid.nodes[:, 0]
    basis = [1.0, np.sin(s), np.cos(s), np.sin(2 * s), np.cos(2 * s)]
    q, x, divx = np.empty((count, n)), np.zeros((count, n)), np.zeros((count, n))
    for k in range(count):
        q[k] = sum(rng.normal(scale=w) * f for w, f in zip((0.7, 0.7, 0.7, 0.4, 0.4), basis))
        if k % 2 == 0:
            a, b = rng.normal(scale=0.25, size=2)
            x[k], divx[k] = a * basis[2] + b * basis[1], -a * basis[1] + b * basis[2]
    coeffs = stability.StabilityCoefficients(Q=q, X=x[..., None], divX=divx, normX_sq=x**2)
    stack = stability.assemble_stability_operator(grid, coeffs)
    for k in range(count):
        yield grid, stability.BlockOperator(stack.bands[k]), k % 2 == 1


def verify_spectral_properties() -> list[CheckRecord]:
    """Principal-eigenvalue structure on seeded random circle operators."""
    cases = list(random_circle_operators())
    count = len(cases)
    # two stacks: one stack of all 50 saves 1.5 of 25 ms of solving but doubles
    # the traced peak (2.8 against 1.4 MB)
    eigs = [eig for half in (cases[: count // 2], cases[count // 2 :])
            for eig in stability.principal_eigenvalues([op for _, op, _ in half], cases[0][0])]
    bad = {
        "nonreal": sum(abs(e.lambda1.imag) > 1e-8 * (1.0 + abs(e.lambda1.real)) for e in eigs),
        "nonminimal": sum(e.lambda1_real > float(e.spectrum.real.min()) + 1e-10 for e in eigs),
        "signchange": sum(not e.positivity for e in eigs),
    }
    worst_sym = max(stability.quadrature_symmetry_residual(op, grid)
                    for grid, op, time_symmetric in cases if time_symmetric)
    return [
        CheckRecord(
            name="random-operators-principal-structure",
            anchor="stability-principal-eigenvalue",
            measured=bad,
            expected=dict.fromkeys(bad, 0),
            tolerance=None,
            passed=not any(bad.values()),
            detail=f"{count} seeded random circle operators",
        ),
        approx_record(
            "time-symmetric-self-adjointness", "time-symmetric-reduction",
            worst_sym, 0.0, 1e-9, relative=False,
            detail="quadrature-inner-product asymmetry of drift-free instances",
        ),
    ]


def verify_determinism() -> list[CheckRecord]:
    """Identical configuration and seed give byte-identical reports: each config run twice."""
    def replay(cfg: dict) -> bytes:
        return report_bytes(cli.execute_config(cfg), drop_wall_time=True)

    return [flag_record(f"replay-{cfg['command']}", "plumbing", replay(cfg) == replay(cfg))
            for cfg in _REPLAY_RUNS]


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
    """Run the named suites; ``all`` anywhere in the names runs every suite once."""
    names = names or ["all"]
    for name in names:
        if name != "all" and name not in SUITES:
            raise KeyError(f"unknown verification suite {name!r}; available: {sorted(SUITES)}")
    return {name: SUITES[name]() for name in (SUITES if "all" in names else names)}
