"""Exception types shared across the package."""


class MixedFracError(Exception):
    """Base class for all package-specific errors."""


class NonConvergedQuadrature(MixedFracError):
    """Adaptive quadrature could not certify the requested tolerance."""


class DivergentIntegral(MixedFracError):
    """The requested integral is infinite (detected by exponent test)."""


class InvalidCells(MixedFracError):
    """Cell pair with overlapping interiors, or malformed interval."""


class OnBoundary(MixedFracError):
    """Evaluation point lies on (or inside) the closure of the domain."""


class InconclusiveClassification(MixedFracError):
    """Table end slopes within tol of each other, or a finite value beyond float64."""


class EmptySet(MixedFracError):
    """Operation requires a nonempty interval set."""


class BadParameters(MixedFracError):
    """Family/mesh parameters violate a documented precondition."""


class MixedFarField(MixedFracError):
    """Dirichlet and Neumann data interleave beyond the truncation radius."""


class IncompatibleScheme(MixedFracError):
    """P0 cells carry infinite jump energy across cell interfaces for s >= 1/2."""


class SingularExteriorBlock(MixedFracError):
    """Exterior Neumann block not positive definite; assembly corruption."""


class IndefinitePencil(MixedFracError):
    """(K, M) pencil is not symmetric positive (semi)definite."""


class DegenerateData(MixedFracError):
    """Not enough usable data points for a least-squares fit."""


class ConfigError(MixedFracError):
    """Experiment configuration is malformed or violates preconditions."""
