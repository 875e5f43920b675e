"""Batch command-line front end: scenarios in, machine-readable reports out.

``COMMANDS`` holds one table per subcommand: every key it reads, with type,
default, lower bound or allowed values, help text, and whether the key is a
flag, a positional argument or comes only from a config file.  ``parse_argv``
reads a command line, ``--help`` included, by that table alone; ``resolve``
checks every run configuration against it (from flags, a ``--config`` file or
an ``execute_config`` call) and fills in the defaults.

Exit codes: 0 all checks pass, 1 check failures, 2 configuration errors (every
command-line error and an unwritable ``--out`` included), 3 scenario errors,
4 internal errors (a bug, never a check outcome).
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import re
import sys
import textwrap
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import __version__, stability
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
    check_writable,
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
# the most bytes one array of a spectrum or deform request may take, checked before any geometry
MAX_ARRAY_BYTES = 2**30
# the surface whose stability operator the spectrum command solves, by its
# (scenario, n): the equator of the unit round 2-sphere slice
_SPECTRUM_CASES = {("einstein_cylinder", 2): stability.equator_deformation_cases}
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
    help: Optional[str | Callable[[], str]] = None  # a callable is called for --help


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
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
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
    checks = [flag_record("strictly-trapped-after-rescale", "trapping-sequence-values",
                          result.label is TrappingLabel.TRAPPED)]
    if sc.name == "minkowski_torus_quotient":
        p = emb.sigma_dim  # the closed forms are -p^2/n^2 and p/n
        for name, attr, value, form in (
                ("gnHH-value", "gn_H_H", -float(p * p) / n**2, f"-{p * p}/n^2"),
                ("gnHX-value", "gn_H_X", float(p) / n, f"{p}/n")):
            worst = relative_error(getattr(result, attr), value).max()
            checks.append(approx_record(
                name, "trapping-sequence-values", worst, 0.0, tol, relative=False,
                detail=f"max relative deviation from {form} at n={n}",
            ))
    after = result.label.value
    checks.append(CheckRecord(
        name="class-after-rescale", anchor="trapping-set-membership", measured=after,
        expected="trapped", tolerance=None, passed=after == "trapped",
    ))
    records = [{"u": u, "gn_H_H": float(a), "gn_H_X": float(b)}
               for u, a, b in zip(result.u, result.gn_H_H, result.gn_H_X)]
    return checks, {"n": n, "records": records}


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
    from . import energy

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
            "witness": rep.witness,
        }
        checks.append(CheckRecord(
            name=f"condition-{cond.value}", anchor="condition-set-inclusions",
            measured=rep.verdict.value, expected="(report only)", tolerance=None, passed=True,
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
        elif sc.name == "einstein_cylinder":  # n - 1 polar angles inside the chart, one azimuth
            pts.append(np.concatenate((rng.uniform(0.4, np.pi - 0.4, data.dim - 1),
                                       rng.uniform(0, 2 * np.pi, 1))))
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


def _check_array_bytes(cfg: dict) -> None:
    """ConfigError when the request's largest array would exceed ``MAX_ARRAY_BYTES``: the block
    diagonals, 3 N b doubles (N^2 as one block), or the dense N x N matrix of csv output."""
    n = cfg["resolution"]
    # past MAX_ARRAY_BYTES / 8 nodes even blocks of MIN_BLOCK_NODES exceed it: no divisor search
    b = stability.MIN_BLOCK_NODES if n > MAX_ARRAY_BYTES // 8 else stability._block_size((n,), n)
    need = 8 * n * (n if b == n or cfg.get("format") == "csv" else 3 * b)
    if need > MAX_ARRAY_BYTES:
        raise ConfigError(f"resolution {n} needs at least {need} bytes in one array, "
                          f"over the budget of {MAX_ARRAY_BYTES}")


def _cmd_spectrum(cfg: dict):
    """stability operator spectrum"""
    _check_array_bytes(cfg)
    resolution, tols = cfg["resolution"], cfg["tolerances"]
    # the convergence table: each distinct node is evaluated once, each distinct resolution solved once
    sizes = (max(8, resolution // 4), max(8, resolution // 2), resolution)
    distinct = list(dict.fromkeys(sizes))
    cases = dict(zip(distinct, _SPECTRUM_CASES[cfg["scenario"], cfg["n"]](distinct)))
    case = cases[resolution]
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
        flag_record("nondegenerate", anchor, abs(eig.lambda1_real) > stability.DEGENERACY_TOL),
    ]
    lams = {resolution: eig.lambda1_real}
    table = []
    for n in sizes:
        if n not in lams:
            c = cases[n]
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
    _check_array_bytes(cfg)
    case = stability.equator_deformation_case(cfg["resolution"], q_offset=cfg["q_offset"])
    if cfg["fd_step"] >= case.injectivity_scale:  # the displaced curve would pass the pole
        raise ConfigError(f"fd_step must be less than the injectivity scale "
                          f"{case.injectivity_scale!r}, got {cfg['fd_step']!r}")
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
    from . import verify
    from .linear_analysis import RANK_RTOL

    checks = verify.verify_linear_lemmas(seed=cfg["seed"])
    return checks, {"seed": cfg["seed"], "rank_tolerance": RANK_RTOL}


def _cmd_verify(cfg: dict):
    """run verification suites"""
    from . import verify

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


def _suites_help() -> str:
    from .verify import SUITES

    return "suites to run: all, " + ", ".join(sorted(SUITES))


_SEED = Opt(int, 0, low=0, help="random seed")
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
_RESOLUTION = Opt(int, 64, low=stability.MIN_NODES_PER_AXIS)
_TOLERANCE = Opt(float, low=0.0)


def _command(run: Callable, options: dict, tolerances: Optional[dict] = None) -> Command:
    return Command(run, {"out": Opt(str, help="report output path"), **options}, tolerances or {})


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
    "curvature": _command(_cmd_curvature, {
        "case": Opt(str, "timelike", choices=tuple(sorted(_CASE_NAMES))),
        "n": _INDEX,
        "dim": Opt(int, 4, low=2, source=CONFIG),
    }, {"curvature": 1e-6}),
    "energy-check": _command(_cmd_energy, {
        **_SCENARIO, "seed": _SEED, "count": Opt(int, 32, low=1),
    }),
    # None: the vacuum tolerance depends on the scenario
    "constraints": _command(_cmd_constraints, {
        **_SCENARIO, "seed": _SEED, "points": Opt(int, 50, low=1),
    }, {"energy-density": 1e-9, "vacuum": None}),
    "spectrum": _command(_cmd_spectrum, {
        # main reads format: csv writes the eigenfunction and the full spectrum
        "format": Opt(str, "json", choices=("json", "csv"), echo=True),
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
                      help=_suites_help),
    }),
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
        raise ConfigError(f"command must be one of {sorted(COMMANDS)}, got {command!r}")
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


def _execute(cfg: dict, resolved: dict) -> tuple[dict, Any]:
    """The report dict plus the command's extra output (None for most commands)."""
    with Stopwatch() as sw:
        checks, payload, *extra = COMMANDS[resolved["command"]].run(resolved)
    report = build_report(resolved["command"], cfg, checks, sw.elapsed, payload)
    return report, extra[0] if extra else None


def execute_config(cfg: dict) -> dict:
    """Run one configured command and return the full report dict."""
    return _execute(cfg, resolve(cfg))[0]


def _help(command: Optional[str]) -> str:
    """The ``--help`` text: the command list, or the flags of one command."""
    if command is None:
        usage, about = "COMMAND", "Verification runs for trapped-surface geometry scenarios."
        rows = [(name, c.run.__doc__) for name, c in COMMANDS.items()]
        rows += [("COMMAND --help", "the flags of COMMAND"), ("--version", "print the version")]
    else:
        spec = COMMANDS[command]
        usage, about = command, spec.run.__doc__
        rows = [(f"[{k} ...]" if o.source == ARG else f"--{k.replace('_', '-')} " + (
                    "{" + ",".join(map(str, o.choices)) + "}" if o.choices else k.upper()),
                 o.help() if callable(o.help) else o.help)
                for k, o in spec.options.items() if o.source in (FLAG, ARG)]
        rows += [("--config PATH", "flat key = value file; flags override it"), (
            "--tol NAME=VALUE", f"tolerance, repeatable: {', '.join(spec.tolerances) or 'none'}")]
    return f"usage: traplab {usage} [FLAG VALUE ...]\n\n{about}\n\n" + "\n".join(
        textwrap.fill(f"  {left:<24} {text or ''}", 79, subsequent_indent=" " * 27,
                      break_on_hyphens=False) for left, text in rows)


def parse_argv(argv: list[str]) -> dict | str:
    """The run configuration of a command line, or the ``--help`` or ``--version`` text.

    A flag's value is the text after ``=``, else the next token whatever it
    starts with.  Flags override the last ``--config`` file.  A value its type
    cannot read and an unknown command are left for ``resolve`` to reject; an
    unknown flag, a flag without a value and a stray positional raise ConfigError.
    """
    if argv[:1] in (["-h"], ["--help"], ["--version"]):
        return f"traplab {__version__}" if argv[0] == "--version" else _help(None)
    command, *rest = argv or [None]
    if command not in COMMANDS:
        return {"command": command}
    options = COMMANDS[command].options
    flags = {"--" + k.replace("_", "-"): k for k, o in options.items() if o.source == FLAG}
    flags.update({"--config": None, "--tol": None})
    arg = next((k for k, o in options.items() if o.source == ARG), None)
    given, tols, config_path, tokens = {}, {}, None, iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            return _help(command)
        if arg and not token.startswith("-"):
            given.setdefault(arg, []).append(token)
        elif flag not in flags:
            raise ConfigError(f"{command} reads no {token!r}; flags: {', '.join(sorted(flags))}")
        elif not eq and (value := next(tokens, None)) is None:
            raise ConfigError(f"{flag} expects a value")
        elif flag == "--config":
            config_path = value
        else:  # a flag value, or the VALUE of --tol NAME=VALUE, read by its type if it can be
            key, _, value = value.partition("=") if flag == "--tol" else (flags[flag], "", value)
            table, kind = (tols, float) if flag == "--tol" else (given, options[key].type)
            table[key.strip()] = value
            with contextlib.suppress(ValueError):
                table[key.strip()] = kind(value)
    cfg = {} if config_path is None else parse_config_file(config_path)
    cfg.update(given, command=command)
    cfg.update({k: o.default for k, o in options.items() if o.echo and k not in cfg})
    if tols and isinstance(cfg.get("tolerances", {}), dict):  # resolve rejects a non-table
        cfg["tolerances"] = {**cfg.get("tolerances", {}), **tols}
    return cfg


@contextlib.contextmanager
def _writing(path: str):
    """An OSError inside the block as the one-line configuration error naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    try:
        cfg = parse_argv(sys.argv[1:] if argv is None else argv)
        if isinstance(cfg, str):
            print(cfg)
            return 0
        resolved = resolve(cfg)
        out = resolved["out"]
        if out is not None:  # before the run: a bad path costs no run and prints no check
            with _writing(out):
                check_writable(out)
        report, extra = _execute(cfg, resolved)
        for check in report["checks"]:
            print(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']}: "
                  f"measured={check['measured']} expected={check['expected']}")
            if check["detail"]:
                print(f"       {check['detail']}")
        good = sum(1 for c in report["checks"] if c["passed"])
        print(f"{good}/{len(report['checks'])} checks passed in {report['wall_time_s']:.2f}s")
        if out is not None:
            with _writing(out):
                if resolved.get("format") == "csv":
                    grid, eig = extra
                    write_eigenfunction_csv(out, grid.nodes, eig.eigenfunction)
                    write_spectrum_csv(out + ".spectrum.csv", eig.spectrum)
                    print(f"spectrum written to {out}.spectrum.csv")
                else:
                    write_report_json(report, out)
            print(f"report written to {out}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TrapLabError, OverflowError) as exc:  # an overflow: the closed form exceeds a float
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, never a check outcome
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 4
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
