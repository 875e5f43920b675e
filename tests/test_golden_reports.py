"""Golden-report corpus: fixed configs whose reports must not change.

Each file ``tests/golden/<name>.json`` holds
``report_bytes(report, drop_wall_time=True)`` of the config of that name in
``CONFIGS``.  A fresh report matches its golden file when keys, JSON types,
strings, ints and bools (every ``passed`` among them) are equal, and every
float agrees to within ``FLOAT_RTOL * max(1, |golden|)``; the float band
absorbs the rounding differences of BLAS kernels between CPUs in JSON floats.
It does not absorb floats formatted into strings, which are compared as
strings: the ``detail`` of a record, such as the ``min sampled value
-1.108113e-17`` of the ``energy-check`` Ricci records, a vacuum value at the
rounding level that another summation order or BLAS kernel changes in its
leading digits.  The fresh bytes must also equal the file exactly, which pins
every byte the report writer lays out; on a CPU whose BLAS rounds differently
that test fails while the band test names the float that moved and by how much.

Regenerate the corpus (after a deliberate, documented output change) with::

    PYTHONPATH=src python tests/test_golden_reports.py [OUTPUT_DIR]
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from traplab.cli import execute_config
from traplab.reporting import report_bytes

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-9

CONFIGS = {
    "verify-all": {"command": "verify", "suites": ["all"]},
    "curvature-null-spacelike-n1": {"command": "curvature", "case": "null-spacelike", "n": 1},
    "curvature-timelike-n3": {"command": "curvature", "case": "timelike", "n": 3},
    "classify-torus-Sigma": {
        "command": "classify", "scenario": "minkowski_torus_quotient", "surface": "Sigma",
    },
    "classify-minkowski-sphere": {
        "command": "classify", "scenario": "minkowski", "surface": "sphere",
    },
    "classify-cylinder-equator": {
        "command": "classify", "scenario": "einstein_cylinder", "surface": "equator",
    },
    "perturb-torus-n2": {
        "command": "perturb", "scenario": "minkowski_torus_quotient", "surface": "Sigma", "n": 2,
    },
    "energy-schwarzschild-seed7-count32": {
        "command": "energy-check", "scenario": "schwarzschild_slice_isotropic",
        "seed": 7, "count": 32,
    },
    "energy-torus-seed3-count16": {
        "command": "energy-check", "scenario": "minkowski_torus_quotient", "seed": 3, "count": 16,
    },
    "energy-flrw-seed1-count24": {
        "command": "energy-check", "scenario": "flrw_dust", "seed": 1, "count": 24,
    },
    "constraints-schwarzschild-points50-seed2": {
        "command": "constraints", "scenario": "schwarzschild_slice_isotropic",
        "points": 50, "seed": 2,
    },
    "spectrum-64": {"command": "spectrum", "resolution": 64},
    # 32 blocks of 32 nodes: the one multi-block solve of the corpus
    "spectrum-1024": {"command": "spectrum", "resolution": 1024},
    "deform-32-q0": {"command": "deform", "resolution": 32, "q_offset": 0.0},
    "deform-32-q2": {"command": "deform", "resolution": 32, "q_offset": 2.0},
    "linear-2024": {"command": "linear", "seed": 2024},
}


def golden_bytes(name: str) -> bytes:
    """The comparison bytes of a fresh report for the named config."""
    return report_bytes(execute_config(dict(CONFIGS[name])), drop_wall_time=True)


def assert_same_report(fresh, golden, path: str = "$") -> None:
    """Exact match of structure, types and non-floats; floats within the band."""
    assert type(fresh) is type(golden), (
        f"{path}: {type(golden).__name__} became {type(fresh).__name__}"
    )
    if isinstance(golden, dict):
        assert sorted(fresh) == sorted(golden), f"{path}: keys {sorted(fresh)} != {sorted(golden)}"
        for key in golden:
            assert_same_report(fresh[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(fresh) == len(golden), f"{path}: length {len(fresh)} != {len(golden)}"
        for i, (a, b) in enumerate(zip(fresh, golden)):
            assert_same_report(a, b, f"{path}[{i}]")
    elif isinstance(golden, float) and math.isfinite(golden):
        assert abs(fresh - golden) <= FLOAT_RTOL * max(1.0, abs(golden)), (
            f"{path}: {fresh!r} != {golden!r}"
        )
    elif isinstance(golden, float):
        assert fresh == golden or (math.isnan(fresh) and math.isnan(golden)), (
            f"{path}: {fresh!r} != {golden!r}"
        )
    else:
        assert fresh == golden, f"{path}: {fresh!r} != {golden!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_bytes())
    assert_same_report(json.loads(golden_bytes(name)), golden)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_match_golden_exactly(name):
    assert golden_bytes(name) + b"\n" == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_corpus_has_one_file_per_config():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CONFIGS)


@pytest.mark.parametrize(
    "fresh, golden",
    [
        ({"passed": 1}, {"passed": True}),
        ({"a": 1.0}, {"a": 1}),
        ({"a": 1.0 + 2e-9}, {"a": 1.0}),
        ({"a": [1.0]}, {"a": [1.0, 2.0]}),
        ({"a": 1.0, "b": 2.0}, {"a": 1.0}),
        ({"a": "violated"}, {"a": "satisfied_on_samples"}),
        ({"a": float("inf")}, {"a": float("-inf")}),
    ],
)
def test_comparison_rejects_changes(fresh, golden):
    with pytest.raises(AssertionError):
        assert_same_report(fresh, golden)


def test_comparison_accepts_rounding():
    assert_same_report({"a": [1e3 * (1 + 5e-10), 1e-12]}, {"a": [1e3, 0.0]})


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(CONFIGS):
        (out / f"{name}.json").write_bytes(golden_bytes(name) + b"\n")
        print(f"wrote {out / name}.json")
