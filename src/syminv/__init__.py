"""Square-root-free symmetric matrix inversion with exact operation counts.

The package implements matrix inversion by modified Gaussian elimination
(an auxiliary matrix accumulates the inverse row by row, with optional
row swapping and partial-inversion support), two symmetric variants that
exploit symmetry to halve the multiplication count without ever taking a
square root, and three classical baselines (Cholesky, LDL, and a
triangular-inverse product method) instrumented with the same exact
multiplication/division and square-root tallies.  Closed-form count
formulas, deterministic benchmark matrix generators, and a CLI round out
the library.
"""

from .baselines import (
    CholFactor,
    LdlFactor,
    cholesky_factor,
    invert_cholesky,
    invert_km,
    invert_ldl,
    ldl_factor,
)
from .complexity import METHODS, TABLE_METHODS, count_table, q_theor, s_theor
from .errors import (
    DimensionMismatch,
    GenerationFailed,
    IndexOutOfRange,
    InvalidArgument,
    LinAlgError,
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
    ZeroPivot,
)
from .genbench import (
    DEFAULT_METHODS,
    DEFAULT_SIZES,
    FAMILY_KINDS,
    METHOD_FUNCS,
    InversionReport,
    MatrixFamily,
    emit_report,
    generate,
    run_experiment,
    run_verification,
)
from .matcore import (
    OpCounter,
    RequiredSet,
    SymmetryCheck,
    as_matrix,
    as_vector,
    frobenius_norm,
    inverse_residual,
    mirror_lower,
    norm2_estimate,
)
from .mmio import read_matrix, write_matrix
from .modgauss import (
    EliminationState,
    eliminate,
    eliminate_step,
    invert,
    row_identities_check,
    solve,
)
from .symmetric import (
    complete_lower,
    invert_symmetric_robust,
    invert_v1,
    invert_v1_parts,
    invert_v2,
    invert_v2_reference,
    lemma1_check,
    lemma2_check,
    lower_stage,
)

__version__ = "0.1.0"

__all__ = [
    "CholFactor",
    "DEFAULT_METHODS",
    "DEFAULT_SIZES",
    "DimensionMismatch",
    "EliminationState",
    "FAMILY_KINDS",
    "GenerationFailed",
    "IndexOutOfRange",
    "InvalidArgument",
    "InversionReport",
    "LdlFactor",
    "LinAlgError",
    "METHODS",
    "METHOD_FUNCS",
    "MatrixFamily",
    "NotPositiveDefinite",
    "NotSymmetric",
    "OpCounter",
    "RequiredSet",
    "SingularMatrix",
    "SymmetryCheck",
    "TABLE_METHODS",
    "ZeroPivot",
    "as_matrix",
    "as_vector",
    "cholesky_factor",
    "complete_lower",
    "count_table",
    "emit_report",
    "eliminate",
    "eliminate_step",
    "frobenius_norm",
    "generate",
    "invert",
    "invert_cholesky",
    "invert_km",
    "invert_ldl",
    "invert_symmetric_robust",
    "invert_v1",
    "invert_v1_parts",
    "invert_v2",
    "invert_v2_reference",
    "inverse_residual",
    "ldl_factor",
    "lemma1_check",
    "lemma2_check",
    "lower_stage",
    "mirror_lower",
    "norm2_estimate",
    "q_theor",
    "read_matrix",
    "row_identities_check",
    "run_experiment",
    "run_verification",
    "s_theor",
    "solve",
    "write_matrix",
    "__version__",
]
