"""Every public top-level function and class of the package has a caller in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "traplab"

# public names that nothing in the package loads yet, each with its reason; the
# last three wait for the sphere and torus MOTS of spectrum (ROADMAP.md)
UNCALLED = {
    "latlong_sphere_grid": "perfbench/workloads.py builds the mots-spectrum sphere grid with it",
    "mots_classify": "labels each MOTS surface before its spectrum",
    "periodic_tensor_grid": "builds the torus grid of spectrum",
    "grid_from_surface": "returns the sphere and torus grids of spectrum",
}


def test_every_public_name_is_loaded_outside_its_definition():
    # a load counts, bare or as an attribute, unless it lies inside the
    # top-level definition of the same name in the module that defines it
    defined, loaded = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not top.name.startswith("_"):
                    defined[top.name] = path.stem
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                own = getattr(top, "name", None) == name and defined.get(name) == path.stem
                if name and isinstance(node.ctx, ast.Load) and not own:
                    loaded.add(name)
    uncalled = defined.keys() - loaded
    extra = sorted(f"{defined[name]}.{name}" for name in uncalled - UNCALLED.keys())
    assert not extra, f"public names that nothing in the package loads: {extra}"
    # an exception that gained a caller leaves the table
    stale = sorted(UNCALLED.keys() - uncalled)
    assert not stale, f"exceptions that have a caller now: {stale}"
