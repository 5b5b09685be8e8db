"""Quantum single-deletion codes from partitions of classical deletion codes.

The pipeline: pick a classical code whose words survive one deletion
(``codes``), partition it into a family set (``family``, ``codes``),
verify the three combinatorial conditions that make the partition a
quantum code (``partition``), then encode, delete a qubit, measure and
recover exactly with sparse states (``quantum``).  ``cli`` wires the
same steps into commands and a JSON file format.
"""

from .bits import (
    delete_at,
    deletion_surface,
    insert_at,
    lcs_length,
    levenshtein,
    run_support_multiset,
    run_supports,
    validate_word,
)
from .codes import (
    ClassicalCode,
    HighRateParams,
    build_highrate_partition,
    find_params_for_rate,
    highrate_code,
    is_single_deletion_code,
    min_exponent_for_rate,
    min_levenshtein,
    rate,
    sandwich_map,
    vt_code,
)
from .delsets import (
    CellDecomposition,
    CellLabel,
    DeletionIndex,
    cell_decomposition,
    deletion_index,
)
from .errors import InvariantError
from .family import FamilySet
from .partition import (
    ConditionCheck,
    ConditionReport,
    SizeGuardError,
    SufficiencyReport,
    check_c1,
    check_c2,
    check_c3,
    check_sufficiency_theorems,
    condition_report,
    is_brs_stable,
    is_homogeneous,
    is_partition_of,
    search_homogeneous,
)
from .quantum import (
    CodeInstance,
    CodeValidationError,
    DecodeError,
    Ensemble,
    MeasurementOutcome,
    RecoverySpanError,
    RoundtripReport,
    SparseState,
    decode_branch,
    delete_qubit,
    encode,
    fidelity,
    measure,
    roundtrip_verify,
)

__version__ = "0.1.0"

__all__ = [
    "CellDecomposition",
    "CellLabel",
    "ClassicalCode",
    "CodeInstance",
    "CodeValidationError",
    "ConditionCheck",
    "ConditionReport",
    "DecodeError",
    "DeletionIndex",
    "Ensemble",
    "FamilySet",
    "HighRateParams",
    "InvariantError",
    "MeasurementOutcome",
    "RecoverySpanError",
    "RoundtripReport",
    "SizeGuardError",
    "SparseState",
    "SufficiencyReport",
    "build_highrate_partition",
    "cell_decomposition",
    "check_c1",
    "check_c2",
    "check_c3",
    "check_sufficiency_theorems",
    "condition_report",
    "decode_branch",
    "delete_at",
    "delete_qubit",
    "deletion_index",
    "deletion_surface",
    "encode",
    "fidelity",
    "find_params_for_rate",
    "highrate_code",
    "insert_at",
    "is_brs_stable",
    "is_homogeneous",
    "is_partition_of",
    "is_single_deletion_code",
    "lcs_length",
    "levenshtein",
    "measure",
    "min_exponent_for_rate",
    "min_levenshtein",
    "rate",
    "roundtrip_verify",
    "run_support_multiset",
    "run_supports",
    "sandwich_map",
    "search_homogeneous",
    "validate_word",
    "vt_code",
]
