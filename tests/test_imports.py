"""What a run loads: submodules are imported on first use, and a scenario build
draws no random numbers until its energy points are read."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from traplab.scenarios import build_scenario, scenario_names

SRC = Path(__file__).resolve().parent.parent / "src"
# the modules a command that runs no suite and no energy predicate never needs
ON_DEMAND = ("traplab.energy", "traplab.linear_analysis", "traplab.verify")


def loaded_after(script: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``script`` with ``argv``."""
    script = textwrap.dedent(script) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(sys.modules)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("traplab.")}


def test_import_loads_no_submodule():
    assert package_modules(loaded_after("import traplab")) == set()


def test_submodules_load_on_first_use():
    modules = loaded_after(
        """
        import traplab
        assert "energy" in dir(traplab) and "verify" in dir(traplab)
        assert traplab.energy.Condition.__name__ == "Condition"
        from traplab import reporting
        assert reporting.__name__ == "traplab.reporting"
        """
    )
    assert {"traplab.energy", "traplab.reporting"} <= modules
    assert "traplab.verify" not in modules


def test_unknown_attribute_is_an_attribute_error():
    import traplab

    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        traplab.bogus  # noqa: B018


def test_scenario_builds_load_only_what_they_use():
    modules = loaded_after(
        """
        from traplab.scenarios import build_scenario, scenario_names
        for name in scenario_names():
            build_scenario(name)
        build_scenario("minkowski_torus_quotient", {"m": 2})
        build_scenario("einstein_cylinder", {"n": 3})
        """
    )
    assert package_modules(modules) == {
        f"traplab.{m}"
        for m in ("errors", "geometry", "jets", "submanifold", "initial_data", "scenarios")
    }
    assert "numpy.random" not in modules


@pytest.mark.parametrize("argv", [
    ("curvature", "--n", "2"),
    ("classify", "--scenario", "minkowski", "--surface", "sphere"),
    ("perturb",),
])
def test_point_commands_import_no_verify_or_energy(argv):
    modules = loaded_after(
        """
        import sys
        from traplab import cli
        assert cli.main(sys.argv[1:]) == 0
        """,
        *argv,
    )
    assert "traplab.cli" in modules
    assert not modules & set(ON_DEMAND)


@pytest.mark.parametrize("argv", [("energy-check", "--scenario", "flrw_dust", "--count", "4"),
                                  ("verify", "--help")])
def test_commands_that_use_them_import_them(argv):
    modules = loaded_after(
        """
        import sys
        from traplab import cli
        assert cli.main(sys.argv[1:]) == 0
        """,
        *argv,
    )
    assert ("traplab.energy" if argv[0] == "energy-check" else "traplab.verify") in modules


@pytest.mark.parametrize("m", [2, 3, 4])
def test_torus_energy_points_are_the_seeded_draws(m):
    sc = build_scenario("minkowski_torus_quotient", {"m": m})
    rng = np.random.default_rng(7)
    expected = [np.concatenate(([0.0], rng.uniform(0, 1, m))) for _ in range(3)]
    points = sc.energy_points
    assert len(points) == 3
    for got, want in zip(points, expected):
        assert got.tobytes() == want.tobytes()
    assert sc.energy_points is points  # drawn once, then kept


@pytest.mark.parametrize("name", scenario_names())
def test_energy_points_are_a_list_of_chart_points(name):
    sc = build_scenario(name)
    assert isinstance(sc.energy_points, list) and sc.energy_points
    assert all(p.shape == (sc.dim,) and p.dtype == float for p in sc.energy_points)
