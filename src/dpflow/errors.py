"""Exception types shared across the package."""


class DpflowError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInputError(DpflowError, ValueError):
    """An input array contained NaN or infinity."""


class ConfigurationError(DpflowError, ValueError):
    """A parameter value violates a documented constraint, or an input
    array has the wrong shape or dimension."""


class NumericalOverflowError(DpflowError, ArithmeticError):
    """A transform produced a non-finite intermediate value, or a quantity
    left the range its search covers."""

    def __init__(self, message, layer_index=None):
        super().__init__(message)
        self.layer_index = layer_index


class TrainingInstabilityError(DpflowError, ArithmeticError):
    """Gradient computation produced non-finite entries, or training met
    more consecutive non-finite batches than it tolerates."""
