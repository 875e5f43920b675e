"""Batch command-line front end: scenarios in, machine-readable reports out.

Subcommands: classify, perturb, curvature, energy-check, constraints,
spectrum, deform, linear, verify.  Global flags: --config PATH (flat
``key = value`` file providing defaults), --seed INT, --tol NAME=VALUE
(repeatable tolerance overrides), --out PATH, --format json|csv.

Exit codes: 0 all checks pass, 1 check failures, 2 configuration errors,
3 scenario errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

import numpy as np

from . import energy, stability, verify
from .conformal import (
    BumpProfile,
    CurvatureCase,
    coordinate_scalar_field,
    curvature_perturbation,
    curvature_perturbation_reference,
    trapping_perturbation,
)
from .errors import ConfigError, DegenerateMOTS, TrapLabError
from .initial_data import constraint_quantities
from .reporting import (
    CheckRecord,
    Stopwatch,
    approx_record,
    build_report,
    flag_record,
    relative_error,
    write_eigenfunction_csv,
    write_report_json,
)
from .scenarios import build_scenario
from .submanifold import trapping_classify

_SCENARIO_PARAM_KEYS = (
    "n", "m", "dim", "mass", "radius", "samples_per_axis", "equator_samples",
    "spacetime_sphere_radius",
)

_CASE_NAMES = {c.value: c for c in CurvatureCase}
# eigenvalues reported as the spectrum head of the spectrum command
SPECTRUM_HEAD = 8


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; values parsed as JSON scalars when possible."""
    config: dict = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                try:
                    config[key] = json.loads(value)
                except json.JSONDecodeError:
                    config[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config


def _tol(cfg: dict, name: str, default: float) -> float:
    value = cfg.get("tolerances", {}).get(name, default)
    value = float(value)
    if value <= 0:
        raise ConfigError(f"tolerance {name} must be positive")
    return value


def _scenario_params(cfg: dict) -> dict:
    return {k: cfg[k] for k in _SCENARIO_PARAM_KEYS if k in cfg}


def _get_scenario(cfg: dict, default: Optional[str] = None):
    name = cfg.get("scenario", default)
    if not name:
        raise ConfigError("a scenario name is required")
    return build_scenario(name, _scenario_params(cfg))


def _cmd_classify(cfg: dict):
    sc = _get_scenario(cfg)
    sc.require_spacetime()
    surface = cfg.get("surface")
    if not surface or surface not in sc.embeddings:
        raise ConfigError(
            f"surface must be one of {sorted(sc.embeddings)} for scenario {sc.name}"
        )
    emb = sc.embeddings[surface]
    result = trapping_classify(emb, sc.metric, sc.time_orientation)
    expect = cfg.get("expect")
    passed = True if expect is None else result.label.value == expect
    checks = [
        CheckRecord(
            name=f"trapping-class-{sc.name}-{surface}",
            anchor="trapping-set-membership",
            measured=result.label.value,
            expected=expect if expect is not None else "(report only)",
            tolerance=None,
            passed=passed,
        )
    ]
    payload = {
        "per_point": [
            {
                "u": r.u,
                "g_H_H": r.g_H_H,
                "g_H_X": r.g_H_X,
                "theta_plus": r.theta_plus,
            }
            for r in result.per_point
        ]
    }
    return checks, payload


def _cmd_perturb(cfg: dict):
    sc = _get_scenario(cfg, default="minkowski_torus_quotient")
    sc.require_spacetime()
    surface = cfg.get("surface", "Sigma")
    if surface not in sc.embeddings:
        raise ConfigError(f"surface must be one of {sorted(sc.embeddings)}")
    emb = sc.embeddings[surface]
    n = int(cfg.get("n", 1))
    tau = coordinate_scalar_field(0, sc.dim, scale=-1.0)
    # tube profile around the surface: distance measured in the two normal
    # chart directions, centered where the surface actually sits
    center = np.asarray(emb.chart(emb.sample_set[0]), dtype=float)
    profile = BumpProfile(
        inner_radius=float(cfg.get("bump_inner", 0.2)),
        outer_radius=float(cfg.get("bump_outer", 0.45)),
        center=center,
        axes=(0, 1),
        periods=(None, sc.periods[1] if sc.periods else None),
    )
    result = trapping_perturbation(sc.metric, emb, sc.time_orientation, tau, profile, n)
    tol = _tol(cfg, "trapping", 1e-6)
    checks = [
        flag_record(
            "strictly-trapped-after-rescale", "trapping-sequence-values",
            result.strictly_trapped(),
        )
    ]
    if sc.name == "minkowski_torus_quotient":
        worst_hh = max(relative_error(r.gn_H_H, -4.0 / n**2) for r in result.records)
        worst_hx = max(relative_error(r.gn_H_X, 2.0 / n) for r in result.records)
        checks.append(
            approx_record(
                "gnHH-value", "trapping-sequence-values",
                worst_hh, 0.0, tol, relative=False,
                detail=f"max relative deviation from -4/n^2 at n={n}",
            )
        )
        checks.append(
            approx_record(
                "gnHX-value", "trapping-sequence-values",
                worst_hx, 0.0, tol, relative=False,
                detail=f"max relative deviation from 2/n at n={n}",
            )
        )
    after = trapping_classify(emb, result.metric_field, sc.time_orientation)
    checks.append(
        CheckRecord(
            name="class-after-rescale", anchor="trapping-set-membership",
            measured=after.label.value, expected="trapped", tolerance=None,
            passed=after.label.value == "trapped",
        )
    )
    payload = {
        "n": n,
        "records": [
            {"u": r.u, "gn_H_H": r.gn_H_H, "gn_H_X": r.gn_H_X} for r in result.records
        ],
    }
    return checks, payload


def _cmd_curvature(cfg: dict):
    case_name = cfg.get("case", "timelike")
    if case_name not in _CASE_NAMES:
        raise ConfigError(f"case must be one of {sorted(_CASE_NAMES)}")
    case = _CASE_NAMES[case_name]
    n = int(cfg.get("n", 1))
    measured = curvature_perturbation(case, n, dim=int(cfg.get("dim", 4)))
    expected = curvature_perturbation_reference(case, n)
    detail = ""
    if case is CurvatureCase.NULL_V_SPACELIKE_W:
        detail = "published reference is -4/n; direct computation gives -8/n"
    checks = [
        approx_record(
            f"curvature-perturbation-{case_name}-n{n}",
            "conformal-curvature-closed-form",
            measured, expected, _tol(cfg, "curvature", 1e-6), detail=detail,
        )
    ]
    return checks, {"measured": measured, "expected": expected}


def _cmd_energy(cfg: dict):
    sc = _get_scenario(cfg)
    sc.require_spacetime()
    seed = int(cfg.get("seed", 0))
    count = int(cfg.get("count", 32))
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    reports = energy.condition_suite(
        sc.metric, sc.energy_points, sc.time_orientation, seed=seed, count=count
    )
    checks = [
        flag_record(
            "inclusion-chain", "condition-set-inclusions",
            energy.inclusion_chain_holds(reports),
        )
    ]
    payload = {}
    for cond, rep in sorted(reports.items(), key=lambda kv: kv[0].value):
        payload[cond.value] = {
            "verdict": rep.verdict.value,
            "min_value": rep.min_value,
            "samples_used": rep.samples_used,
            "witness": None
            if rep.witness is None
            else {
                "point": rep.witness.point,
                "vector": rep.witness.vector,
                "value": rep.witness.value,
                "partner": rep.witness.partner,
            },
        }
        checks.append(
            CheckRecord(
                name=f"condition-{cond.value}", anchor="condition-set-inclusions",
                measured=rep.verdict.value, expected="(report only)",
                tolerance=None, passed=True,
                detail=f"min sampled value {rep.min_value:.6e}",
            )
        )
    return checks, payload


def _cmd_constraints(cfg: dict):
    sc = _get_scenario(cfg)
    if sc.initial_data is None:
        raise ConfigError(f"scenario {sc.name} carries no initial data")
    seed = int(cfg.get("seed", 0))
    count = int(cfg.get("points", 50))
    if count < 1:
        raise ConfigError(f"points must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    data = sc.initial_data
    if sc.name == "schwarzschild_slice_isotropic":
        pts = []
        for _ in range(count):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            pts.append(direction * rng.uniform(0.6, 3.0))
    elif sc.name == "einstein_cylinder":
        n = data.dim
        pts = [
            np.concatenate((rng.uniform(0.4, np.pi - 0.4, 1), rng.uniform(0, 2 * np.pi, n - 1)))
            for _ in range(count)
        ]
    else:
        pts = [rng.uniform(-1.0, 1.0, data.dim) for _ in range(count)]
    rho_vals = []
    j_norms = []
    for p in pts:
        cq = constraint_quantities(data, p)
        rho_vals.append(cq.rho)
        j_norms.append(float(np.linalg.norm(cq.J)))
    rho_arr = np.array(rho_vals)
    j_arr = np.array(j_norms)
    checks = []
    if sc.name == "einstein_cylinder":
        expected_rho = 0.5 * data.dim * (data.dim - 1)
        worst_rho = float(rho_arr[np.argmax(np.abs(rho_arr - expected_rho))])
        checks.append(
            approx_record(
                "slice-energy-density", "constraint-energy-density",
                worst_rho, expected_rho, _tol(cfg, "energy-density", 1e-9),
                detail="unit round sphere slice",
            )
        )
        checks.append(
            approx_record(
                "slice-current", "constraint-energy-density",
                float(j_arr.max()), 0.0, _tol(cfg, "energy-density", 1e-9), relative=False,
            )
        )
    else:
        tol = _tol(
            cfg, "vacuum", 1e-8 if sc.name == "schwarzschild_slice_isotropic" else 1e-12
        )
        checks.append(
            approx_record(
                "vacuum-residual", "constraint-energy-density",
                float(max(np.abs(rho_arr).max(), j_arr.max())), 0.0, tol, relative=False,
                detail=f"{count} sampled points",
            )
        )
    payload = {
        "rho_min": float(rho_arr.min()),
        "rho_max": float(rho_arr.max()),
        "J_norm_max": float(j_arr.max()),
        "points_sampled": count,
    }
    return checks, payload


def _cmd_spectrum(cfg: dict):
    sc_name = cfg.get("scenario", "einstein_cylinder")
    resolution = int(cfg.get("resolution", 64))
    n_sphere = int(cfg.get("n", 2))
    if sc_name != "einstein_cylinder" or n_sphere != 2:
        raise ConfigError("spectrum currently supports the einstein_cylinder n=2 equator")
    case = stability.equator_deformation_case(resolution)
    matrix = stability.assemble_stability_operator(case.grid, case.coefficients)
    eig = stability.principal_eigenvalue(matrix, case.grid, k=SPECTRUM_HEAD)
    tol_q = _tol(cfg, "potential", 1e-9)
    tol_l = _tol(cfg, "lambda1", 1e-9)
    q_vals = case.coefficients.Q
    worst_q = float(q_vals[np.argmax(np.abs(q_vals + 1.0))])
    checks = [
        approx_record(
            "equator-potential-value", "stability-operator-potential",
            worst_q, -1.0, tol_q, detail="worst node value",
        ),
        approx_record(
            "lambda1", "stability-principal-eigenvalue",
            eig.lambda1_real, -1.0, tol_l,
        ),
        flag_record(
            "eigenfunction-one-signed", "stability-principal-eigenvalue", eig.positivity
        ),
        flag_record(
            "nondegenerate", "stability-principal-eigenvalue",
            abs(eig.lambda1_real) > 1e-6,
        ),
    ]
    # each distinct resolution is built and solved once
    lams = {resolution: eig.lambda1_real}
    table = []
    for n in (max(8, resolution // 4), max(8, resolution // 2), resolution):
        if n not in lams:
            c = stability.equator_deformation_case(n)
            m = stability.assemble_stability_operator(c.grid, c.coefficients)
            lams[n] = stability.principal_eigenvalue(m, c.grid).lambda1_real
        table.append({"resolution": n, "lambda1": lams[n]})
    payload = {
        "lambda1": {"re": eig.lambda1_real, "im": float(eig.lambda1.imag)},
        "lambda1_residual": eig.residual,
        "positivity": eig.positivity,
        "spectrum_head": eig.spectrum_head.real.tolist(),
        "convergence_table": table,
        "resolution": resolution,
    }
    return checks, payload, (case.grid, eig)


def _cmd_deform(cfg: dict):
    resolution = int(cfg.get("resolution", 64))
    fd_step = float(cfg.get("fd_step", 1e-4))
    q_offset = float(cfg.get("q_offset", 0.0))
    case = stability.equator_deformation_case(resolution, q_offset=q_offset)
    tol = _tol(cfg, "derivative", 2e-3)
    try:
        rep = stability.deformation_check(case, fd_step=fd_step)
    except DegenerateMOTS as exc:
        return (
            [flag_record("deformation-nondegenerate", "deformation-derivative-identity",
                         False, detail=str(exc))],
            {"error": str(exc)},
        )
    checks = [
        approx_record(
            "derivative-identity", "deformation-derivative-identity",
            rep.max_rel_error, 0.0, tol, relative=False,
            detail="pointwise centered difference of theta_+ vs lambda1 * phi",
        ),
        flag_record(
            "outer-trapped-after-move", "deformation-derivative-identity",
            rep.outer_trapped_achieved,
            detail=f"displacement {rep.displacement:+.6f}",
        ),
    ]
    payload = {
        "lambda1": rep.lambda1,
        "displacement": rep.displacement,
        "theta_plus_max_after": float(rep.theta_displaced.max()),
        "max_rel_error": rep.max_rel_error,
    }
    return checks, payload


def _cmd_linear(cfg: dict):
    from .linear_analysis import RANK_RTOL

    seed = int(cfg.get("seed", 2024))
    checks = verify.verify_linear_lemmas(seed=seed)
    return checks, {"seed": seed, "rank_tolerance": RANK_RTOL}


def _cmd_verify(cfg: dict):
    suites = cfg.get("suites", ["all"])
    if isinstance(suites, str):
        suites = [suites]
    if suites == ["curvature-perturbation"] and cfg.get("case") is not None:
        # single-case form: verify curvature-perturbation --case ... --n ...
        return _cmd_curvature(cfg)
    try:
        results = verify.run_suites(suites)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    checks = []
    payload = {}
    for suite, records in results.items():
        for rec in records:
            rec.name = f"{suite}/{rec.name}"
            checks.append(rec)
        payload[suite] = {
            "passed": sum(1 for r in records if r.passed),
            "failed": sum(1 for r in records if not r.passed),
        }
    return checks, payload


_COMMANDS = {
    "classify": _cmd_classify,
    "perturb": _cmd_perturb,
    "curvature": _cmd_curvature,
    "energy-check": _cmd_energy,
    "constraints": _cmd_constraints,
    "spectrum": _cmd_spectrum,
    "deform": _cmd_deform,
    "linear": _cmd_linear,
    "verify": _cmd_verify,
}


def _execute(cfg: dict) -> tuple[dict, Any]:
    """The report dict plus the command's extra output (None for most commands)."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; available: {sorted(_COMMANDS)}")
    with Stopwatch() as sw:
        checks, payload, *extra = _COMMANDS[command](cfg)
    report = build_report(command, cfg, checks, sw.elapsed, payload)
    return report, extra[0] if extra else None


def execute_config(cfg: dict) -> dict:
    """Run one configured command and return the full report dict."""
    return _execute(cfg)[0]


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="traplab",
        description="Verification runs for trapped-surface geometry scenarios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="tolerance override (repeatable)")
        p.add_argument("--out", help="report output path")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("classify", help="trapping classification of a surface")
    p.add_argument("--scenario")
    p.add_argument("--surface")
    p.add_argument("--expect", help="expected class label (optional)")
    common(p)

    p = sub.add_parser("perturb", help="conformal trapping perturbation")
    p.add_argument("--scenario")
    p.add_argument("--surface")
    p.add_argument("--n", type=int)
    common(p)

    p = sub.add_parser("curvature", help="curvature perturbation closed forms")
    p.add_argument("--case", choices=sorted(_CASE_NAMES))
    p.add_argument("--n", type=int)
    common(p)

    p = sub.add_parser("energy-check", help="sampled curvature-condition verdicts")
    p.add_argument("--scenario")
    p.add_argument("--count", type=int)
    common(p)

    p = sub.add_parser("constraints", help="constraint quantities on a data slice")
    p.add_argument("--scenario")
    p.add_argument("--points", type=int)
    common(p)

    p = sub.add_parser("spectrum", help="stability operator spectrum")
    p.add_argument("--scenario")
    p.add_argument("--n", type=int)
    p.add_argument("--resolution", type=int)
    common(p)

    p = sub.add_parser("deform", help="normal deformation of a marginal surface")
    p.add_argument("--scenario")
    p.add_argument("--n", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--fd-step", dest="fd_step", type=float)
    p.add_argument("--q-offset", dest="q_offset", type=float)
    common(p)

    p = sub.add_parser("linear", help="linear-analysis verification batches")
    common(p)

    p = sub.add_parser(
        "verify", help="run verification suites",
        epilog="available suites: all, " + ", ".join(sorted(verify.SUITES)),
    )
    p.add_argument("suites", nargs="*", default=["all"])
    p.add_argument("--case", choices=sorted(_CASE_NAMES),
                   help="single-case form of the curvature-perturbation suite")
    p.add_argument("--n", type=int)
    common(p)

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("config", "tol") or value is None:
            continue
        cfg[key] = value
    tolerances = dict(cfg.get("tolerances", {}))
    for item in getattr(args, "tol", []) or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            tolerances[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {item!r}: value must be a number") from exc
    if tolerances:
        cfg["tolerances"] = tolerances
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        report, extra = _execute(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TrapLabError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3

    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        expected = check["expected"]
        print(f"[{status}] {check['name']}: measured={check['measured']} expected={expected}")
        if check["detail"]:
            print(f"       {check['detail']}")
    total = len(report["checks"])
    good = sum(1 for c in report["checks"] if c["passed"])
    print(f"{good}/{total} checks passed in {report['wall_time_s']:.2f}s")

    out = cfg.get("out")
    if out:
        if cfg.get("format", "json") == "csv" and cfg.get("command") == "spectrum":
            grid, eig = extra
            write_eigenfunction_csv(out, grid.nodes, eig.eigenfunction)
            spectrum_path = out + ".spectrum.csv"
            with open(spectrum_path, "w") as fh:
                fh.write("re,im\n")
                for val in sorted(eig.spectrum, key=lambda z: (z.real, z.imag)):
                    fh.write(f"{float(val.real)!r},{float(val.imag)!r}\n")
            print(f"spectrum written to {spectrum_path}")
        else:
            write_report_json(report, out)
        print(f"report written to {out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
