"""Exceptions that more than one module raises.

An :class:`InvariantError` means a proven fact (a counting identity, or a
consequence of the three conditions) failed to hold.  That is a bug in
this package, not bad input, so it is a plain ``RuntimeError`` that
``python -O`` cannot strip the way it strips ``assert``.
"""


class InvariantError(RuntimeError):
    """A property guaranteed by construction or by a proof did not hold."""


class SizeGuardError(Exception):
    """Raised when an exhaustive enumeration would exceed its size guard."""
