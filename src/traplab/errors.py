"""Exception types shared across the package."""


class TrapLabError(Exception):
    """Base class for all package errors."""


class SingularMetric(TrapLabError):
    """Metric matrix is not invertible at the configured condition threshold."""


class NonTimelikeOrientation(TrapLabError):
    """The supplied time-orientation vector is not timelike."""


class CollinearPair(TrapLabError):
    """Two vectors are collinear within tolerance where independence is required."""


class ZeroVector(TrapLabError):
    """A nonzero vector was required."""


class NotSpacelike(TrapLabError):
    """Induced metric of a submanifold is not positive definite."""


class ImmersionFailure(TrapLabError):
    """Embedding derivative lost rank at a sample point."""


class CodimensionMismatch(TrapLabError):
    """Operation requires a specific codimension."""


class OrientationFailure(TrapLabError):
    """Could not orient the normal frame consistently."""


class NotWeaklyTrapped(TrapLabError):
    """Input configuration violates the weak trapping inequalities."""


class NotUnitNormal(TrapLabError):
    """Supplied normal field is not unit or not normal to the surface."""


class ResolutionTooLow(TrapLabError):
    """Grid resolution below the supported minimum."""


class EigensolverFailure(TrapLabError):
    """Principal eigensolve failed: no convergence, or a non-real principal eigenvalue."""


class DegenerateMOTS(TrapLabError):
    """Principal eigenvalue too close to zero for the deformation step."""


class DependentBasis(TrapLabError):
    """Supplied basis columns are linearly dependent."""


class UnknownScenario(TrapLabError):
    """Scenario name not recognized."""


class BadParams(TrapLabError):
    """Scenario parameters failed validation."""


class ConfigError(TrapLabError):
    """Run configuration could not be parsed or validated."""
