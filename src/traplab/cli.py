"""Batch command-line front end: scenarios in, machine-readable reports out.

Subcommands: classify, perturb, curvature, energy-check, constraints,
spectrum, deform, linear, verify.  ``COMMANDS`` holds one table per
subcommand: every key it reads, with type, default, lower bound or allowed
values, and whether the key is a flag, a positional argument or comes only
from a config file.  The argparse parser is generated from that table, and
``resolve`` checks every run configuration against it (from flags, a
``--config`` file or an ``execute_config`` call) and fills in the defaults;
a key or tolerance name the command does not read is an error.  Global
flags: --config PATH (flat ``key = value`` file; flags override it),
--seed INT, --tol NAME=VALUE (repeatable tolerance overrides), --out PATH,
--format json|csv.

Exit codes: 0 all checks pass, 1 check failures, 2 configuration errors,
3 scenario errors, 4 internal errors (a bug, never a check outcome).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import re
import sys
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, NamedTuple, Optional

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
from .geometry import norm
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
    write_spectrum_csv,
)
from .scenarios import build_scenario
from .submanifold import TrappingLabel, trapping_classify

_CASE_NAMES = {c.value: c for c in CurvatureCase}
# eigenvalues reported as the spectrum head of the spectrum command
SPECTRUM_HEAD = 8
# a config-file line up to its comment; a '#' inside a JSON string is kept
_BEFORE_COMMENT = re.compile(r'(?:"(?:[^"\\]|\\.)*"|[^#])*')

# where a key may come from; SCENARIO keys come from a config file only and
# are passed on to build_scenario when given
FLAG, ARG, CONFIG, SCENARIO = "flag", "arg", "config", "scenario"


@dataclass(frozen=True)
class Opt:
    """One key a command reads.

    ``low`` is the least allowed int, or the value a float must exceed;
    floats must also be finite.  An ``echo`` key given neither as a flag nor
    in the config file is written with its default into the config echo of
    command-line reports.
    """

    type: type
    default: Any = None
    low: Optional[float] = None
    choices: tuple = ()
    source: str = FLAG
    echo: bool = False
    help: Optional[str] = None


class Command(NamedTuple):
    run: Callable
    options: dict[str, Opt]
    tolerances: dict[str, Optional[float]]


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; values parsed as JSON when possible.

    A ``#`` starts a comment unless it lies inside a double-quoted string.
    """
    config: dict = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = _BEFORE_COMMENT.match(raw).group(0).strip()
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config


def _get_scenario(cfg: dict):
    if not cfg["scenario"]:
        raise ConfigError("a scenario name is required")
    options = COMMANDS[cfg["command"]].options
    params = {
        k: cfg[k] for k, opt in options.items() if opt.source == SCENARIO and cfg[k] is not None
    }
    return build_scenario(cfg["scenario"], params)


def _cmd_classify(cfg: dict):
    """trapping classification of a surface"""
    sc = _get_scenario(cfg)
    sc.require_spacetime()
    surface, expect = cfg["surface"], cfg["expect"]
    if surface not in sc.embeddings:
        raise ConfigError(f"surface must be one of {sorted(sc.embeddings)} for scenario {sc.name}")
    result = trapping_classify(sc.embeddings[surface], sc.metric, sc.time_orientation)
    checks = [CheckRecord(
        name=f"trapping-class-{sc.name}-{surface}", anchor="trapping-set-membership",
        measured=result.label.value, expected="(report only)" if expect is None else expect,
        tolerance=None, passed=expect is None or result.label.value == expect,
    )]
    per_point = [{"u": r.u, "g_H_H": r.g_H_H, "g_H_X": r.g_H_X, "theta_plus": r.theta_plus}
                 for r in result.per_point]
    return checks, {"per_point": per_point}


def _cmd_perturb(cfg: dict):
    """conformal trapping perturbation"""
    sc = _get_scenario(cfg)
    sc.require_spacetime()
    surface, n, tol = cfg["surface"], cfg["n"], cfg["tolerances"]["trapping"]
    if surface not in sc.embeddings:
        raise ConfigError(f"surface must be one of {sorted(sc.embeddings)}")
    if cfg["bump_inner"] >= cfg["bump_outer"]:
        raise ConfigError("bump_inner must be less than bump_outer")
    emb = sc.embeddings[surface]
    tau = coordinate_scalar_field(0, sc.dim, scale=-1.0)
    # tube profile around the surface: distance measured in the two normal
    # chart directions, centered where the surface actually sits
    profile = BumpProfile(
        inner_radius=cfg["bump_inner"], outer_radius=cfg["bump_outer"],
        center=np.asarray(emb.jet(emb.sample_set[0])[0], dtype=float), axes=(0, 1),
        periods=(None, sc.periods[1] if sc.periods else None),
    )
    result = trapping_perturbation(sc.metric, emb, sc.time_orientation, tau, profile, n)
    checks = [flag_record(
        "strictly-trapped-after-rescale", "trapping-sequence-values", result.strictly_trapped()
    )]
    if sc.name == "minkowski_torus_quotient":
        for name, attr, value, form in (("gnHH-value", "gn_H_H", -4.0 / n**2, "-4/n^2"),
                                        ("gnHX-value", "gn_H_X", 2.0 / n, "2/n")):
            worst = max(relative_error(getattr(r, attr), value) for r in result.records)
            checks.append(approx_record(
                name, "trapping-sequence-values", worst, 0.0, tol, relative=False,
                detail=f"max relative deviation from {form} at n={n}",
            ))
    after = trapping_classify(emb, result.metric_field, sc.time_orientation).label.value
    checks.append(CheckRecord(
        name="class-after-rescale", anchor="trapping-set-membership", measured=after,
        expected="trapped", tolerance=None, passed=after == "trapped",
    ))
    return checks, {"n": n, "records": [asdict(r) for r in result.records]}


def _cmd_curvature(cfg: dict):
    """curvature perturbation closed forms"""
    case_name, n = cfg["case"], cfg["n"]
    case = _CASE_NAMES[case_name]
    if case is not CurvatureCase.TIMELIKE_V and cfg["dim"] < 4:
        raise ConfigError(f"case {case_name} needs dim at least 4, got {cfg['dim']}")
    measured = curvature_perturbation(case, n, dim=cfg["dim"])
    expected = curvature_perturbation_reference(case, n)
    detail = ""
    if case is CurvatureCase.NULL_V_SPACELIKE_W:
        detail = "published reference is -4/n; direct computation gives -8/n"
    checks = [approx_record(
        f"curvature-perturbation-{case_name}-n{n}", "conformal-curvature-closed-form",
        measured, expected, cfg["tolerances"]["curvature"], detail=detail,
    )]
    return checks, {"measured": measured, "expected": expected}


def _cmd_energy(cfg: dict):
    """sampled curvature-condition verdicts"""
    sc = _get_scenario(cfg)
    sc.require_spacetime()
    reports = energy.condition_suite(
        sc.metric, sc.energy_points, sc.time_orientation, seed=cfg["seed"], count=cfg["count"]
    )
    checks = [flag_record(
        "inclusion-chain", "condition-set-inclusions", energy.inclusion_chain_holds(reports)
    )]
    payload = {}
    for cond, rep in sorted(reports.items(), key=lambda kv: kv[0].value):
        payload[cond.value] = {
            "verdict": rep.verdict.value, "min_value": rep.min_value,
            "samples_used": rep.samples_used,
            "witness": None if rep.witness is None else asdict(rep.witness),
        }
        checks.append(CheckRecord(
            name=f"condition-{cond.value}", anchor="condition-set-inclusions",
            measured=rep.verdict.value, expected="(report only)", tolerance=None, passed=True,
            detail=f"min sampled value {rep.min_value:.6e}",
        ))
    return checks, payload


def _cmd_constraints(cfg: dict):
    """constraint quantities on a data slice"""
    sc = _get_scenario(cfg)
    data = sc.initial_data
    if data is None:
        raise ConfigError(f"scenario {sc.name} carries no initial data")
    count, tols = cfg["points"], cfg["tolerances"]
    rng = np.random.default_rng(cfg["seed"])
    pts = []
    for _ in range(count):
        if sc.name == "schwarzschild_slice_isotropic":
            direction = rng.normal(size=3)
            pts.append(direction / np.linalg.norm(direction) * rng.uniform(0.6, 3.0))
        elif sc.name == "einstein_cylinder":
            pts.append(np.concatenate((rng.uniform(0.4, np.pi - 0.4, 1),
                                       rng.uniform(0, 2 * np.pi, data.dim - 1))))
        else:
            pts.append(rng.uniform(-1.0, 1.0, data.dim))
    cq = constraint_quantities(data, np.array(pts))
    rho_arr, j_arr = cq.rho, norm(cq.J)
    if sc.name == "einstein_cylinder":
        expected_rho = 0.5 * data.dim * (data.dim - 1)
        worst_rho = float(rho_arr[np.argmax(np.abs(rho_arr - expected_rho))])
        checks = [
            approx_record("slice-energy-density", "constraint-energy-density", worst_rho,
                          expected_rho, tols["energy-density"], detail="unit round sphere slice"),
            approx_record("slice-current", "constraint-energy-density", float(j_arr.max()), 0.0,
                          tols["energy-density"], relative=False),
        ]
    else:
        # the vacuum tolerance defaults per scenario: Schwarzschild jets carry rounding
        tol = tols["vacuum"] or (1e-8 if sc.name == "schwarzschild_slice_isotropic" else 1e-12)
        checks = [approx_record(
            "vacuum-residual", "constraint-energy-density",
            float(max(np.abs(rho_arr).max(), j_arr.max())), 0.0, tol, relative=False,
            detail=f"{count} sampled points",
        )]
    payload = {
        "rho_min": float(rho_arr.min()), "rho_max": float(rho_arr.max()),
        "J_norm_max": float(j_arr.max()), "points_sampled": count,
    }
    return checks, payload


def _cmd_spectrum(cfg: dict):
    """stability operator spectrum"""
    resolution, tols = cfg["resolution"], cfg["tolerances"]
    case = stability.equator_deformation_case(resolution)
    operator = stability.assemble_stability_operator(case.grid, case.coefficients)
    eig = stability.principal_eigenvalue(operator, case.grid, k=SPECTRUM_HEAD)
    q_vals = case.coefficients.Q
    worst_q = float(q_vals[np.argmax(np.abs(q_vals + 1.0))])
    anchor = "stability-principal-eigenvalue"
    checks = [
        approx_record("equator-potential-value", "stability-operator-potential",
                      worst_q, -1.0, tols["potential"], detail="worst node value"),
        approx_record("lambda1", anchor, eig.lambda1_real, -1.0, tols["lambda1"]),
        flag_record("eigenfunction-one-signed", anchor, eig.positivity),
        flag_record("nondegenerate", anchor, abs(eig.lambda1_real) > 1e-6),
    ]
    # each distinct resolution is built and solved once
    lams = {resolution: eig.lambda1_real}
    table = []
    for n in (max(8, resolution // 4), max(8, resolution // 2), resolution):
        if n not in lams:
            c = stability.equator_deformation_case(n)
            op = stability.assemble_stability_operator(c.grid, c.coefficients)
            lams[n] = stability.principal_eigenvalue(op, c.grid).lambda1_real
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
    """normal deformation of a marginal surface"""
    case = stability.equator_deformation_case(cfg["resolution"], q_offset=cfg["q_offset"])
    anchor = "deformation-derivative-identity"
    try:
        rep = stability.deformation_check(case, fd_step=cfg["fd_step"])
    except DegenerateMOTS as exc:
        return ([flag_record("deformation-nondegenerate", anchor, False, detail=str(exc))],
                {"error": str(exc)})
    checks = [
        approx_record("derivative-identity", anchor, rep.max_rel_error, 0.0,
                      cfg["tolerances"]["derivative"], relative=False,
                      detail="pointwise centered difference of theta_+ vs lambda1 * phi"),
        flag_record("outer-trapped-after-move", anchor, rep.outer_trapped_achieved,
                    detail=f"displacement {rep.displacement:+.6f}"),
    ]
    payload = {
        "lambda1": rep.lambda1, "displacement": rep.displacement,
        "theta_plus_max_after": float(rep.theta_displaced.max()),
        "max_rel_error": rep.max_rel_error,
    }
    return checks, payload


def _cmd_linear(cfg: dict):
    """linear-analysis verification batches"""
    from .linear_analysis import RANK_RTOL

    checks = verify.verify_linear_lemmas(seed=cfg["seed"])
    return checks, {"seed": cfg["seed"], "rank_tolerance": RANK_RTOL}


def _cmd_verify(cfg: dict):
    """run verification suites"""
    if cfg["suites"] == ["curvature-perturbation"] and cfg["case"] is not None:
        # single-case form: verify curvature-perturbation --case ... --n ...
        return _cmd_curvature(cfg)
    try:
        results = verify.run_suites(cfg["suites"])
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    checks, payload = [], {}
    for suite, records in results.items():
        for rec in records:
            rec.name = f"{suite}/{rec.name}"
        checks += records
        passed = sum(1 for r in records if r.passed)
        payload[suite] = {"passed": passed, "failed": len(records) - passed}
    return checks, payload


_SEED = Opt(int, 0, low=0, help="random seed")
_COMMON = {
    "seed": _SEED,
    "out": Opt(str, help="report output path"),
    "format": Opt(str, "json", choices=("json", "csv"), echo=True),
}
_SCENARIO = {
    "scenario": Opt(str),
    "n": Opt(int, low=1, source=SCENARIO),
    "m": Opt(int, low=2, source=SCENARIO),
    "dim": Opt(int, low=2, source=SCENARIO),
    "mass": Opt(float, low=0.0, source=SCENARIO),
    "radius": Opt(float, low=0.0, source=SCENARIO),
    "samples_per_axis": Opt(int, low=1, source=SCENARIO),
    "equator_samples": Opt(int, low=1, source=SCENARIO),
    "spacetime_sphere_radius": Opt(float, low=0.0, source=SCENARIO),
}
_INDEX = Opt(int, 1, low=1)  # n of the conformal factor e^{2f/n}
_CURVATURE = {
    "case": Opt(str, "timelike", choices=tuple(sorted(_CASE_NAMES))),
    "n": _INDEX,
    "dim": Opt(int, 4, low=2, source=CONFIG),
}
_RESOLUTION = Opt(int, 64, low=stability.MIN_NODES_PER_AXIS)
_TOLERANCE = Opt(float, low=0.0)


def _command(run: Callable, options: dict, tolerances: Optional[dict] = None) -> Command:
    return Command(run, {**_COMMON, **options}, tolerances or {})


COMMANDS = {
    "classify": _command(_cmd_classify, {
        **_SCENARIO,
        "surface": Opt(str),
        "expect": Opt(str, choices=tuple(label.value for label in TrappingLabel),
                      help="expected class label (optional)"),
    }),
    "perturb": _command(_cmd_perturb, {
        **_SCENARIO,
        "scenario": Opt(str, "minkowski_torus_quotient"),
        "surface": Opt(str, "Sigma"),
        "n": _INDEX,
        "bump_inner": Opt(float, 0.2, low=0.0, source=CONFIG),
        "bump_outer": Opt(float, 0.45, low=0.0, source=CONFIG),
    }, {"trapping": 1e-6}),
    "curvature": _command(_cmd_curvature, _CURVATURE, {"curvature": 1e-6}),
    "energy-check": _command(_cmd_energy, {**_SCENARIO, "count": Opt(int, 32, low=1)}),
    # None: the vacuum tolerance depends on the scenario
    "constraints": _command(_cmd_constraints, {**_SCENARIO, "points": Opt(int, 50, low=1)},
                            {"energy-density": 1e-9, "vacuum": None}),
    "spectrum": _command(_cmd_spectrum, {
        "scenario": Opt(str, "einstein_cylinder", choices=("einstein_cylinder",)),
        "n": Opt(int, 2, choices=(2,)),
        "resolution": _RESOLUTION,
    }, {"potential": 1e-9, "lambda1": 1e-9}),
    "deform": _command(_cmd_deform, {
        "resolution": _RESOLUTION,
        "fd_step": Opt(float, 1e-4, low=0.0),
        "q_offset": Opt(float, 0.0),
    }, {"derivative": 2e-3}),
    "linear": _command(_cmd_linear, {"seed": replace(_SEED, default=2024)}),
    "verify": _command(_cmd_verify, {
        "suites": Opt(list, ["all"], source=ARG, echo=True,
                      help="suites to run: all, " + ", ".join(sorted(verify.SUITES))),
        **_CURVATURE,
        "case": replace(_CURVATURE["case"], default=None,
                        help="single-case form of the curvature-perturbation suite"),
    }, {"curvature": 1e-6}),
}


def _check(name: str, value: Any, opt: Opt) -> Any:
    """``value`` converted to ``opt.type``, or ConfigError when it is out of bounds."""
    if opt.type is list and isinstance(value, str):
        value = [value]
    kind = {int: numbers.Integral, float: numbers.Real}.get(opt.type, opt.type)
    if (not isinstance(value, kind) or isinstance(value, bool)
            or opt.type is list and not all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{name} must be of type {opt.type.__name__}, got {value!r}")
    value = opt.type(value)
    if opt.type is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if opt.choices and value not in opt.choices:
        raise ConfigError(f"{name} must be one of {list(opt.choices)}, got {value!r}")
    if opt.low is not None and (value < opt.low if opt.type is int else value <= opt.low):
        bound = "at least" if opt.type is int else "greater than"
        raise ConfigError(f"{name} must be {bound} {opt.low}, got {value!r}")
    return value


def resolve(cfg: dict) -> dict:
    """The run configuration checked against its command's table, defaults filled in.

    A value of None counts as not given.  The caller's dict is not changed.
    Raises ConfigError for an unknown command, key or tolerance name, and for
    any value of the wrong type, not finite, or out of its bound or set.
    """
    command = cfg.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; available: {sorted(COMMANDS)}")
    spec = COMMANDS[command]
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError(f"tolerances must be a table of NAME: VALUE, got {tols!r}")
    for given, known, what in ((set(cfg) - {"command", "tolerances"}, spec.options, "key"),
                               (set(tols), spec.tolerances, "tolerance")):
        if given - set(known):
            raise ConfigError(
                f"{command} reads no {what} {', '.join(sorted(map(str, given - set(known))))};"
                f" it reads: {', '.join(sorted(known)) or 'none'}"
            )
    out = {
        key: opt.default if cfg.get(key) is None else _check(key, cfg[key], opt)
        for key, opt in spec.options.items()
    }
    out["tolerances"] = {
        name: default if tols.get(name) is None
        else _check(f"tolerance {name}", tols[name], _TOLERANCE)
        for name, default in spec.tolerances.items()
    }
    out["command"] = command
    return out


def _execute(cfg: dict) -> tuple[dict, Any]:
    """The report dict plus the command's extra output (None for most commands)."""
    resolved = resolve(cfg)
    with Stopwatch() as sw:
        checks, payload, *extra = COMMANDS[resolved["command"]].run(resolved)
    report = build_report(resolved["command"], cfg, checks, sw.elapsed, payload)
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__)
        for key, opt in command.options.items():
            if opt.source == ARG:
                p.add_argument(key, nargs="*", help=opt.help)
            elif opt.source == FLAG:
                # values are strings, converted by _merge_config and checked by resolve,
                # so a wrong type or value is a one-line configuration error
                metavar = "{" + ",".join(map(str, opt.choices)) + "}" if opt.choices else None
                p.add_argument("--" + key.replace("_", "-"), dest=key, metavar=metavar,
                               help=opt.help)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="tolerance override (repeatable)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Config-file values overridden by the flags given, each converted with its
    option's type (a string it cannot convert stays a string, which ``resolve``
    rejects), plus the echo defaults."""
    cfg = parse_config_file(args.config) if args.config else {}
    options = COMMANDS[args.command].options
    for key, value in vars(args).items():
        if key in options and value not in (None, []):
            cfg[key] = value
            with contextlib.suppress(ValueError):
                cfg[key] = options[key].type(value)
    cfg["command"] = args.command
    cfg.update({k: o.default for k, o in options.items() if o.echo and k not in cfg})
    tolerances = cfg.get("tolerances", {})
    if args.tol and isinstance(tolerances, dict):  # resolve rejects a non-table
        tolerances = dict(tolerances)
        for item in args.tol:
            name, _, value = item.partition("=")
            try:
                tolerances[name.strip()] = float(value)
            except ValueError:
                raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}") from None
        cfg["tolerances"] = tolerances
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        report, extra = _execute(cfg)
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: measured={check['measured']} "
                  f"expected={check['expected']}")
            if check["detail"]:
                print(f"       {check['detail']}")
        good = sum(1 for c in report["checks"] if c["passed"])
        print(f"{good}/{len(report['checks'])} checks passed in {report['wall_time_s']:.2f}s")
        out = cfg.get("out")
        if out and cfg["format"] == "csv" and cfg["command"] == "spectrum":
            grid, eig = extra
            write_eigenfunction_csv(out, grid.nodes, eig.eigenfunction)
            write_spectrum_csv(out + ".spectrum.csv", eig.spectrum)
            print(f"spectrum written to {out}.spectrum.csv")
        elif out:
            write_report_json(report, out)
        if out:
            print(f"report written to {out}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TrapLabError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, never a check outcome
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 4
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
