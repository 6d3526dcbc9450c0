"""Exception types shared across the package."""


class DpflowError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInputError(DpflowError, ValueError):
    """An input array contained NaN or infinity."""


class ConfigurationError(DpflowError, ValueError):
    """A parameter value violates a documented constraint, or an input
    array has the wrong shape or dimension."""


class NumericalOverflowError(DpflowError, ArithmeticError):
    """A finite input gave a non-finite result, or a quantity left the
    range its search covers."""


class TrainingInstabilityError(DpflowError, ArithmeticError):
    """A batch's loss, gradient or norm was not finite, or training met
    more consecutive non-finite batches than it tolerates."""
