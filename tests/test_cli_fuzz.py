"""Property test of the command-line boundary, with argv drawn from the option table.

Every subcommand gets flags from its own table in ``cli.COMMANDS``, each with a
valid value or one of the invalid kinds (zero, negative, NaN, infinity, a
string), plus tolerance overrides, unknown flags and an optional config file
holding config-only keys or an unknown key.  Sizes stay small so the whole
test runs in a few seconds.  Whatever is drawn, ``cli.main`` must end with a
defined exit code (never 4, never a traceback), every report written must be
strict JSON, and no check may pass on zero samples.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from traplab import cli

BAD = ["0", "-1", "nan", "inf", "-inf", "abc", "1e309"]
# upper ends of the valid draws, to keep every run cheap
INT_CAPS = {"resolution": 64, "count": 8, "points": 20, "seed": 2**32, "m": 3, "dim": 5,
            "samples_per_axis": 4, "equator_samples": 8}
FLOAT_RANGES = {"fd_step": (1e-6, 1e-1), "q_offset": (-3.0, 3.0), "bump_inner": (0.05, 0.6),
                "bump_outer": (0.05, 0.6)}
# (scenario, surface) pairs; most exist, the last three do not
PLACES = [
    ("minkowski_torus_quotient", "Sigma"), ("einstein_cylinder", "equator"),
    ("minkowski", "sphere"), ("minkowski", "plane"), ("schwarzschild_slice_isotropic", "sphere"),
    ("flrw_dust", "sphere"), ("minkowski", "Sigma"), ("kerr", "Sigma"),
]
CHEAP_SUITES = ["curvature-perturbation", "conformal-dual-path", "curvature-axioms",
                "energy-chain", "constraints", "no-such-suite"]


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name} in a report")


def _valid(key: str, opt: cli.Opt, place: tuple[str, str]):
    if opt.choices:
        return st.sampled_from(opt.choices)
    if opt.type is int:
        low = int(opt.low) if opt.low is not None else 0
        return st.integers(low, max(low, INT_CAPS.get(key, 8)))
    if opt.type is float:
        lo, hi = FLOAT_RANGES.get(key, (0.1, 3.0))
        return st.floats(lo, hi)
    return st.just(dict(zip(("scenario", "surface"), place))[key])


FAULTS = ["none"] * 4 + ["value", "tolerance", "flag", "config-key"]
BAD_CONFIG = [0, -1, "abc", True, float("nan")]


@st.composite
def invocations(draw, out_path: str, cfg_path: str) -> list[str]:
    """One argv: valid values for a random subset of the command's keys, then at
    most one fault (a bad value, a bad tolerance, an unknown flag or key)."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    keys = [k for k, opt in command.options.items()
            if k not in ("out", "format") and opt.source != cli.ARG]
    # scenario and surface are always given: classify cannot run without them
    chosen = {k: command.options[k] for k in keys
              if k in ("scenario", "surface") or draw(st.booleans())}
    fault = draw(st.sampled_from(FAULTS))
    place = draw(st.sampled_from(PLACES))
    if fault == "value" and keys:
        key = draw(st.sampled_from(keys))
        chosen[key] = None  # marks the key for a bad value
    argv, config = [name], {}
    for key, opt in chosen.items():
        bad = opt is None
        opt = command.options[key]
        if opt.source == cli.FLAG:
            value = draw(st.sampled_from(BAD)) if bad else str(draw(_valid(key, opt, place)))
            argv += ["--" + key.replace("_", "-"), value]
        else:  # config-only keys reach the command through a config file
            config[key] = (draw(st.sampled_from(BAD_CONFIG)) if bad
                           else draw(_valid(key, opt, place)))
    if name == "verify":
        argv[1:1] = draw(st.lists(st.sampled_from(CHEAP_SUITES), min_size=1, max_size=2))
    for tol_name in draw(st.lists(st.sampled_from(sorted(command.tolerances) or ["x"]),
                                  max_size=2)):
        if tol_name in command.tolerances:
            argv += ["--tol", f"{tol_name}={draw(st.floats(1e-12, 1.0))!r}"]
    if fault == "tolerance":
        tol_name = draw(st.sampled_from([*command.tolerances, "x"]))
        argv += ["--tol", f"{tol_name}={draw(st.sampled_from(BAD))}"]
    elif fault == "flag":
        argv += draw(st.sampled_from([["--bogus", "1"], ["--tol", "novalue"]]))
    elif fault == "config-key":
        config["resolutoin"] = 32
    if config:
        with open(cfg_path, "w") as fh:
            fh.writelines(f"{k} = {json.dumps(v)}\n" for k, v in config.items())
        argv += ["--config", cfg_path]
    return argv + ["--out", out_path]


def _exit_code(argv: list[str]) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects unknown flags
            code = exc.code
    return code, stderr.getvalue()


def test_any_drawn_argv_ends_cleanly(tmp_path):
    # the report path is emptied before each run, so a stale report is never read
    out_path = str(tmp_path / "report.json")
    cfg_path = str(tmp_path / "run.cfg")

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def check(data):
        open(out_path, "w").close()
        argv = data.draw(invocations(out_path, cfg_path))
        code, stderr = _exit_code(argv)
        assert code in (0, 1, 2, 3), (argv, code, stderr)
        assert "Traceback" not in stderr
        if code in (0, 1):
            with open(out_path) as fh:
                report = json.loads(fh.read(), parse_constant=_reject_constant)
            for entry in report.get("payload", {}).values():
                if isinstance(entry, dict) and entry.get("samples_used") == 0:
                    raise AssertionError(f"{argv}: a verdict drawn from zero samples")
        elif code in (2, 3) and "usage:" not in stderr:
            assert len(stderr.splitlines()) == 1, stderr

    check()
