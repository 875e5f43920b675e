"""Request lists of the three benchmark workloads, with their correctness checks.

Every workload is a closed loop with one client: the caller sends a request,
waits for its report, and only then sends the next.  A pass is the fixed
request list built here from the seed; passes repeat it unchanged, so every
request after the first pass is also a replay whose bytes must match.

* ``acceptance-sweep``: the work of ``verify all``, the users' main command,
  sent as one ``verify <suite>`` request per suite in the order ``verify all``
  runs them, so that each request is short enough to be bracketed by host-speed
  calibration (see calibration.py).  The suites carry their own fixed seeds, so
  the workload seed changes nothing here.
* ``mots-spectrum``: the equator spectrum at resolution 1024 (JSON report),
  the same command at resolution 256 through the CSV write path of
  ``cli.main``, and a constant-potential operator on a lat-long 2-sphere whose
  radius comes from the seed (the seed also orders the three requests).
* ``point-queries``: 112 short requests over the documented parameter ranges.
  Parameters are drawn by stratified sampling (one draw per equal-width
  stratum of each range, then shuffled), so the values and their order change
  with the seed while the work in a pass stays nearly the same.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from traplab import cli, reporting, stability

import calibration
from spans import SUITES

# Captured before any tracer is installed, so the benchmark's own checks never
# show up in the trace.
_report_bytes = reporting.report_bytes

EXPECTED_RED = {
    f"curvature-perturbation/curvature-perturbation-null-spacelike-n{n}" for n in (1, 2, 5, 10)
}
LAMBDA_TOL = 1e-9
SPECTRUM_RESOLUTION = 1024
CSV_RESOLUTION = 256
SPHERE_SHAPE = (24, 48)
SPHERE_POTENTIAL = -2.0
CLASSIFY_SURFACES = (
    ("minkowski", "sphere", "not_weakly_trapped"),
    ("minkowski_torus_quotient", "Sigma", "extremal"),
    ("einstein_cylinder", "equator", "extremal"),
)
ENERGY_SCENARIOS = (
    "minkowski", "minkowski_torus_quotient", "einstein_cylinder",
    "schwarzschild_slice_isotropic", "flrw_dust",
)
CONSTRAINT_SCENARIOS = ("minkowski", "einstein_cylinder", "schwarzschild_slice_isotropic")
CURVATURE_CASES = ("timelike", "null-spacelike", "null-null")


@dataclass
class Request:
    """One client request: ``run`` produces the output the client waits for,
    ``check`` returns a problem description or None, ``replay`` gives the bytes
    that must be identical each time the request is repeated."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    replay: Callable[[Any], bytes]


def _replay_report(report: dict) -> bytes:
    return _report_bytes(report, drop_wall_time=True)


def _report_request(label: str, cfg: dict, path: str, check) -> Request:
    """execute_config, then write the report the way ``--out`` does."""

    def run():
        report = cli.execute_config(dict(cfg))
        reporting.write_report_json(report, path)
        return report

    return Request(label, run, check, _replay_report)


def _check_suite(suite: str):
    expected = {name for name in EXPECTED_RED if name.startswith(suite + "/")}

    def check(report: dict) -> Optional[str]:
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        if failing != expected:
            return f"unexpected pass/fail set: {sorted(failing ^ expected)}"
        if set(report["payload"]) != {suite}:
            return f"suites run: {sorted(report['payload'])}"
        return None

    return check


def acceptance_sweep(seed: int, out_dir: str) -> list[Request]:
    path = os.path.join(out_dir, "verify.json")
    return [
        _report_request(
            f"verify {suite}", {"command": "verify", "suites": [suite]}, path, _check_suite(suite)
        )
        for suite in SUITES
    ]


def _check_spectrum_report(report: dict) -> Optional[str]:
    if not report["passed"]:
        return "report failed: " + ", ".join(c["name"] for c in report["checks"] if not c["passed"])
    lam = report["payload"]["lambda1"]["re"]
    if abs(lam + 1.0) > LAMBDA_TOL:
        return f"equator lambda1 {lam!r} is not -1"
    if not report["payload"]["positivity"]:
        return "equator eigenfunction is not one-signed"
    return None


def _csv_request(path: str) -> Request:
    argv = [
        "spectrum", "--scenario", "einstein_cylinder", "--n", "2",
        "--resolution", str(CSV_RESOLUTION), "--format", "csv", "--out", path,
    ]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(path, "rb") as fh:
            eigenfunction = fh.read()
        with open(path + ".spectrum.csv", "rb") as fh:
            spectrum = fh.read()
        return code, eigenfunction, spectrum

    def check(out) -> Optional[str]:
        code, eigenfunction, spectrum = out
        if code != 0:
            return f"exit code {code}"
        lines = eigenfunction.decode().splitlines()
        if len(lines) != CSV_RESOLUTION + 1 or lines[0] != "coord1,value":
            return f"eigenfunction CSV has {len(lines)} lines, header {lines[0]!r}"
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        if not (np.all(values > 0) or np.all(values < 0)):
            return "CSV eigenfunction is not one-signed"
        if len(spectrum.decode().splitlines()) != CSV_RESOLUTION + 1:
            return "spectrum CSV line count"
        return None

    return Request(f"spectrum csv r={CSV_RESOLUTION}", run, check, lambda out: out[1] + out[2])


def _sphere_request(radius: float) -> Request:
    def run():
        grid = stability.latlong_sphere_grid(*SPHERE_SHAPE, radius=radius)
        coeffs = stability.StabilityCoefficients.zero(grid).shifted(SPHERE_POTENTIAL)
        matrix = stability.assemble_stability_operator(grid, coeffs)
        return stability.principal_eigenvalue(matrix, grid)

    def check(eig) -> Optional[str]:
        # the conservative Laplacian annihilates constants, so lambda1 = Q exactly
        if abs(eig.lambda1 - SPHERE_POTENTIAL) > LAMBDA_TOL:
            return f"sphere lambda1 {eig.lambda1!r} is not {SPHERE_POTENTIAL}"
        if not eig.positivity:
            return "sphere eigenfunction is not one-signed"
        return None

    def replay(eig) -> bytes:
        return repr(eig.lambda1).encode() + eig.eigenfunction.tobytes()

    return Request(f"sphere {SPHERE_SHAPE} r={radius:.3f}", run, check, replay)


def mots_spectrum(seed: int, out_dir: str) -> list[Request]:
    rng = np.random.default_rng(seed)
    cfg = {
        "command": "spectrum", "scenario": "einstein_cylinder", "n": 2,
        "resolution": SPECTRUM_RESOLUTION,
    }
    requests = [
        _report_request(
            f"spectrum json r={SPECTRUM_RESOLUTION}", cfg,
            os.path.join(out_dir, "spectrum.json"), _check_spectrum_report,
        ),
        _csv_request(os.path.join(out_dir, "eigenfunction.csv")),
        _sphere_request(float(rng.uniform(0.5, 2.0))),
    ]
    return [requests[i] for i in rng.permutation(len(requests))]


def _stratified(rng: np.random.Generator, lo: int, hi: int, k: int) -> list[int]:
    """k integers from [lo, hi], one uniform draw per equal-width stratum, shuffled."""
    span = hi - lo + 1
    draws = [lo + math.floor((i + rng.random()) * span / k) for i in range(k)]
    return [draws[i] for i in rng.permutation(k)]


def _check_query(cfg: dict):
    def check(report: dict) -> Optional[str]:
        if cfg["command"] == "curvature" and cfg["case"] == "null-spacelike":
            # the designed red check: published -4/n, computed -8/n
            (record,) = report["checks"]
            expected = -8.0 / cfg["n"]
            if record["passed"] or abs(record["measured"] - expected) > LAMBDA_TOL * abs(expected):
                return f"null-spacelike measured {record['measured']!r}, expected {expected!r}"
            return None
        if not report["passed"]:
            return "failed: " + ", ".join(c["name"] for c in report["checks"] if not c["passed"])
        return None

    return check


def point_query_configs(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)

    def sub_seed() -> int:
        return int(rng.integers(0, 2**31))

    configs = [
        {"command": "curvature", "case": CURVATURE_CASES[i % 3], "n": n}
        for i, n in enumerate(_stratified(rng, 1, 32, 24))
    ]
    configs += [
        {"command": "classify", "scenario": sc, "surface": surface, "expect": label}
        for sc, surface, label in CLASSIFY_SURFACES * 6
    ]
    configs += [
        {"command": "energy-check", "scenario": ENERGY_SCENARIOS[i % 5], "count": count,
         "seed": sub_seed()}
        for i, count in enumerate(_stratified(rng, 8, 32, 25))
    ]
    configs += [
        {"command": "constraints", "scenario": CONSTRAINT_SCENARIOS[i % 3], "points": points,
         "seed": sub_seed()}
        for i, points in enumerate(_stratified(rng, 20, 100, 21))
    ]
    configs += [
        {"command": "perturb", "scenario": "minkowski_torus_quotient", "surface": "Sigma", "n": n}
        for n in _stratified(rng, 1, 8, 8)
    ]
    configs += [
        {"command": "deform", "resolution": resolution, "q_offset": q_offset}
        for resolution, q_offset in ((32, 0.0), (32, 2.0), (64, 0.0), (64, 2.0)) * 4
    ]
    return [configs[i] for i in rng.permutation(len(configs))]


def point_queries(seed: int, out_dir: str) -> list[Request]:
    path = os.path.join(out_dir, "report.json")
    return [
        _report_request(
            " ".join(f"{k}={v}" for k, v in cfg.items()), cfg, path, _check_query(cfg)
        )
        for cfg in point_query_configs(seed)
    ]


BUILDERS = {
    "acceptance-sweep": acceptance_sweep,
    "mots-spectrum": mots_spectrum,
    "point-queries": point_queries,
}
# The reference kernel that calibrates each workload's timings: the one whose
# slowdowns tracked the workload's requests most closely (see README.md).
KERNELS = {
    "acceptance-sweep": calibration.SMALL,
    "mots-spectrum": calibration.MEDIUM,
    "point-queries": calibration.SMALL,
}
