"""Exception types shared across the package."""


class TlboError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TlboError, ValueError):
    """Raised when inputs violate a documented precondition or invariant."""


class FitError(TlboError, RuntimeError):
    """Raised when a surrogate cannot be fitted (factorization failure)."""


class SolverError(TlboError, RuntimeError):
    """Raised when the simplex solver encounters non-finite values."""


class ParseError(TlboError, ValueError):
    """Raised when an input file does not match the expected schema."""
