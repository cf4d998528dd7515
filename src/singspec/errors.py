"""Exceptions shared by the computation modules.

The CLI maps these onto exit codes: UnsupportedError and its subclasses
give exit 2, ResourceCapError gives exit 3.
"""


class SingspecError(Exception):
    pass


class UnsupportedError(SingspecError):
    """Input outside the supported class (condition (A) fails, etc.)."""


class NonIsolatedError(UnsupportedError):
    """No truncation up to the cap puts m^(N-2) in the Jacobian ideal."""


class ZeroJacobianError(UnsupportedError):
    """All partial derivatives vanish identically."""


class DegenerateError(UnsupportedError):
    """Degenerate Newton boundary where non-degeneracy is required."""


class ResourceCapError(SingspecError):
    """A hard effort cap (truncation degree, reduction count) was hit."""
