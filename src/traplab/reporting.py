"""Machine-readable check records and deterministic report serialization.

Reports echo the run configuration and the signature convention, carry one
record per check with measured/expected values and tolerance, and serialize
to JSON deterministically: identical configuration and seed produce byte
identical output except for the wall-time field.
"""

from __future__ import annotations

import errno
import math
import os
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
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
    """Make numpy payloads and records JSON-serializable, deterministically: one ``tolist()``
    per real-dtype array, ``{"re", "im"}`` per complex number, a dict per dataclass."""
    if obj is None or type(obj) in (str, float, bool, int):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist() if obj.dtype.kind in "fiub" else sanitize(obj.tolist())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in fields(obj)}
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def relative_error(measured, expected):
    """|measured - expected| / max(|expected|, 1e-300), for floats or elementwise for arrays."""
    return np.abs(np.subtract(measured, expected)) / np.maximum(np.abs(expected), 1e-300)


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
        "checks": sanitize(checks),
        "passed": bool(all(c.passed for c in checks)),
        "wall_time_s": float(wall_time),
    }
    if payload:
        report["payload"] = sanitize(payload)
    return report


def _encode(obj, out: list, indent: str, path: str = "$") -> list:
    """Append to ``out`` the standard encoder's sorted-key, indent-2 JSON text of ``obj``."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} at {path}")
        out.append(float.__repr__(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (dict, list, tuple)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            out.append(brackets)
            return out
        inner = indent + "  "
        sep, start = "," + inner, len(out)
        if brackets == "{}":
            for key in sorted(obj):
                out += (sep, encode_basestring_ascii(key), ": ")
                _encode(obj[key], out, inner, f"{path}.{key}")
        # a float leaf list, once checked finite, in one join
        elif all(type(v) is float for v in obj) and math.isfinite(sum(obj)):
            out += (sep, sep.join(map(float.__repr__, obj)))
        else:
            for i, value in enumerate(obj):
                out.append(sep)
                _encode(value, out, inner, f"{path}[{i}]")
        out[start] = brackets[0] + inner
        out.append(indent + brackets[1])
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return out


def report_bytes(report: dict, drop_wall_time: bool = False) -> bytes:
    """Serialize as strict JSON in one walk; optionally strip all wall-time data.

    The bytes are the standard encoder's with sorted keys and indent 2.  Wall-time
    data means the top-level wall_time_s field and the measured seconds of
    runtime-budget checks (their pass flags stay).  A NaN or infinite float
    raises ValueError naming its path: ``non-finite float inf at $.payload.a[1]``.
    """
    doc = dict(report)
    if drop_wall_time:
        doc.pop("wall_time_s", None)
        doc["checks"] = [dict(c, measured=None) if c.get("name", "").endswith("-runtime") else c
                         for c in doc.get("checks", [])]
    return "".join(_encode(doc, [], "\n")).encode()


def _directory(path: str) -> str:
    """The directory a file ``path`` goes into; the empty path names no file."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return os.path.dirname(os.path.abspath(path))


def check_writable(path: str) -> None:
    """Raise the OSError a write of ``path`` would meet before any byte is
    written: the empty path, a directory at ``path``, or a directory to put it
    in that is missing or takes no new file."""
    with tempfile.TemporaryFile(dir=_directory(path)):
        pass
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_atomic(path: str, data: bytes) -> None:
    """Write the whole file beside ``path``, then move it into place, so a
    failure mid-write never leaves a truncated file."""
    fd, tmp = tempfile.mkstemp(dir=_directory(path), suffix=".tmp")
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
    header = ",".join(f"coord{i + 1}" for i in range(nodes.shape[1])) + ",value"
    rows = np.column_stack((nodes, values)).astype(float).tolist()
    lines = [header] + [",".join(map(float.__repr__, row)) for row in rows]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_spectrum_csv(path: str, spectrum: np.ndarray) -> None:
    """CSV layout: header re,im; eigenvalues by real, then imaginary part."""
    ordered = spectrum[np.lexsort((spectrum.imag, spectrum.real))].astype(complex).tolist()
    lines = ["re,im"] + [f"{z.real!r},{z.imag!r}" for z in ordered]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False
