"""Machine-readable check records and deterministic report serialization.

Reports echo the run configuration and the signature convention, carry one
record per check with measured/expected values and tolerance, and serialize
to JSON deterministically: identical configuration and seed produce byte
identical output except for the wall-time field.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

import numpy as np

from . import __version__

SIGNATURE_CONVENTION = "(-,+,...,+)"

# the process umask, read once: written files get the mode open() would give
# them rather than the 0600 of a fresh temporary file
_UMASK = os.umask(0)
os.umask(_UMASK)


@dataclass
class CheckRecord:
    """Single verified quantity: what was measured, what was expected."""

    name: str
    anchor: str
    measured: Any
    expected: Any
    tolerance: Optional[float]
    passed: bool
    detail: str = ""


def sanitize(obj):
    """Make numpy payloads JSON-serializable, deterministically."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def relative_error(measured: float, expected: float) -> float:
    scale = max(abs(expected), 1e-300)
    return abs(measured - expected) / scale


def approx_record(
    name: str,
    anchor: str,
    measured: float,
    expected: float,
    tolerance: float,
    relative: bool = True,
    detail: str = "",
) -> CheckRecord:
    if relative:
        err = relative_error(measured, expected)
    else:
        err = abs(measured - expected)
    return CheckRecord(
        name=name,
        anchor=anchor,
        measured=float(measured),
        expected=float(expected),
        tolerance=float(tolerance),
        passed=bool(err <= tolerance),
        detail=detail,
    )


def flag_record(name: str, anchor: str, passed: bool, detail: str = "") -> CheckRecord:
    return CheckRecord(
        name=name, anchor=anchor, measured=bool(passed), expected=True,
        tolerance=None, passed=bool(passed), detail=detail,
    )


def build_report(command: str, config: dict, checks: list[CheckRecord], wall_time: float,
                 payload: Optional[dict] = None) -> dict:
    report = {
        "tool": "traplab",
        "version": __version__,
        "signature": SIGNATURE_CONVENTION,
        "command": command,
        "config": sanitize(config),
        "checks": [sanitize(asdict(c)) for c in checks],
        "passed": bool(all(c.passed for c in checks)),
        "wall_time_s": float(wall_time),
    }
    if payload:
        report["payload"] = sanitize(payload)
    return report


def report_bytes(report: dict, drop_wall_time: bool = False) -> bytes:
    """Serialize deterministically as strict JSON; optionally strip all wall-time data.

    Wall-time data means the top-level wall_time_s field and the measured
    seconds of runtime-budget checks (their pass flags stay).  A NaN or
    infinite float raises ValueError instead of being written as the
    non-standard ``NaN``/``Infinity``.
    """
    doc = dict(report)
    if drop_wall_time:
        doc.pop("wall_time_s", None)
        checks = []
        for check in doc.get("checks", []):
            if check.get("name", "").endswith("-runtime"):
                check = dict(check, measured=None)
            checks.append(check)
        doc["checks"] = checks
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False).encode()


def _write_atomic(path: str, data: bytes) -> None:
    """Write the whole file beside ``path``, then move it into place, so a
    failure mid-write never leaves a truncated file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(report: dict, path: str) -> None:
    """Atomic write of the serialized report."""
    _write_atomic(path, report_bytes(report) + b"\n")


def write_eigenfunction_csv(path: str, nodes: np.ndarray, values: np.ndarray) -> None:
    """CSV layout: header coord1,...,coordk,value; row-major over grid nodes."""
    nodes = np.atleast_2d(nodes)
    k = nodes.shape[1]
    header = ",".join(f"coord{i + 1}" for i in range(k)) + ",value"
    lines = [header]
    for row, val in zip(nodes, values):
        lines.append(",".join(repr(float(c)) for c in row) + f",{float(val)!r}")
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_spectrum_csv(path: str, spectrum: np.ndarray) -> None:
    """CSV layout: header re,im; eigenvalues by real, then imaginary part."""
    lines = ["re,im"]
    for val in sorted(spectrum, key=lambda z: (z.real, z.imag)):
        lines.append(f"{float(val.real)!r},{float(val.imag)!r}")
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False
