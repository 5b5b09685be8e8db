"""Exception for broken internal invariants.

Raised where a proven fact (a counting identity, or a consequence of the
three conditions) fails to hold.  That means a bug in this package, not
bad input, so it is a plain ``RuntimeError`` that ``python -O`` cannot
strip the way it strips ``assert``.
"""


class InvariantError(RuntimeError):
    """A property guaranteed by construction or by a proof did not hold."""
