"""Exception types shared across the package."""


class EHPolicyError(Exception):
    """Base class for all package errors."""


class DomainError(EHPolicyError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConfigurationError(EHPolicyError, ValueError):
    """A scenario configuration is inconsistent or malformed."""


class NumericError(EHPolicyError, ArithmeticError):
    """A numeric precondition is violated (e.g. a non-stochastic matrix)."""


class ConvergenceError(EHPolicyError, RuntimeError):
    """An iterative solver hit its iteration cap."""


class BudgetExceededError(EHPolicyError, ValueError):
    """An enumeration would exceed the configured search budget."""


class UnsupportedPartitionError(EHPolicyError, ValueError):
    """A policy constructor does not support the given partition."""
