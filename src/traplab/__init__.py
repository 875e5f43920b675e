"""Numerical laboratory for trapped-surface geometry and MOTS stability.

Subpackage map:

* ``geometry``: connection, curvature and Lorentz frames from metric 2-jets.
* ``jets``: 1-d jet arithmetic.
* ``conformal``: conformal rescaling laws and perturbation sequences.
* ``submanifold``: extrinsic geometry and trapping classification.
* ``energy``: sampled curvature-condition predicates.
* ``initial_data``: constraint quantities and slice null expansions.
* ``stability``: MOTS stability operator, principal eigenvalue, deformation.
* ``linear_analysis``: surjectivity, codimension and projection bookkeeping.
* ``scenarios``: built-in analytic geometry families.
* ``cli``: batch verification front end.

``import traplab`` loads no submodule: each one is imported on its first use,
as ``traplab.energy`` or ``from traplab import energy``.  A scenario build
loads ``scenarios`` and what it needs (``errors``, ``geometry``, ``jets``,
``submanifold``, ``initial_data``).  Every command of ``cli`` adds
``conformal``, ``reporting`` and ``stability``; ``energy-check`` also loads
``energy``, and ``verify``, ``linear`` and ``verify --help`` load ``verify``
(with ``energy`` and ``linear_analysis``).

All computations are pure functions of their inputs; no module keeps shared
mutable state, so everything is safe to call concurrently.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "conformal", "energy", "errors", "geometry", "initial_data", "jets",
               "linear_analysis", "reporting", "scenarios", "stability", "submanifold", "verify")


def __getattr__(name):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
