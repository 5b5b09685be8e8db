"""Quantum single-deletion codes from partitions of classical deletion codes.

The pipeline: pick a classical code whose words survive one deletion
(``codes``), partition it into a family set (``family``, ``codes``),
verify the three combinatorial conditions that make the partition a
quantum code (``partition``), then encode, delete a qubit, measure and
recover exactly with sparse states (``quantum``).  ``cli`` wires the
same steps into commands and a JSON file format.

The package namespace holds the documented pipeline and the errors it
raises; every other name is imported from its module.
"""

from .codes import HighRateParams, build_highrate_partition
from .errors import InvariantError
from .quantum import CodeInstance, CodeValidationError, DecodeError, roundtrip_verify

__version__ = "0.1.0"

__all__ = [
    "CodeInstance",
    "CodeValidationError",
    "DecodeError",
    "HighRateParams",
    "InvariantError",
    "build_highrate_partition",
    "roundtrip_verify",
]
