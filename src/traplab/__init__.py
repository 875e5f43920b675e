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

All computations are pure functions of their inputs; no module keeps shared
mutable state, so everything is safe to call concurrently.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    conformal,
    energy,
    errors,
    geometry,
    initial_data,
    jets,
    linear_analysis,
    reporting,
    scenarios,
    stability,
    submanifold,
    verify,
)
