"""Exception types shared across the package."""


class PhlabError(Exception):
    """Base class for all package-specific failures."""


class NotHyperbolicError(PhlabError):
    """A matrix or linearization has an eigenvalue too close to modulus 1."""


class TooManyPointsError(PhlabError):
    """A lattice enumeration would exceed the configured point cap."""


class MeasureConstraintError(PhlabError):
    """Bump half-width violates the Lebesgue-measure budget (delta > 1/40)."""


class SplittingNotConvergedError(PhlabError):
    """An extracted bundle direction did not converge where one is required."""


class RootFindError(PhlabError):
    """A bracketed scalar solve failed to converge."""


class ParameterTooLargeError(PhlabError):
    """A deformation parameter breaks a required monotonicity margin."""


class InfeasibleParamsError(PhlabError):
    """No parameter set inside the search caps satisfies the inequalities."""


class IncompatibleFiberError(PhlabError):
    """Fiber rates fail the domination pre-check of the product builder."""


class ConfigError(PhlabError):
    """An experiment config failed validation; message names the field."""
