"""ptlab: non-Hermitian matrices with possibly all-real spectra.

Construction, classification, and verification of the three matrix classes
closed under an antilinear involution (parity-conjugation symmetric,
pseudo-Hermitian, generalized), their symmetry and metric operators, Jordan
structure, inter-class conversions, and real-parameter counts.
"""

from .errors import (
    ConstraintError,
    ContractError,
    DimensionError,
    IndeterminateStructureError,
    NumericalError,
    PtlabError,
    SingularCaseError,
)
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    devectorize,
    eigen_decompose,
    matrix_exponential,
    rank_and_nullspace,
    vectorize,
)
from .involutions import (
    GrassmannCosetSpec,
    InvolutionKind,
    InvolutionOperator,
    grassmann_coset_element,
    involution_operator,
    make_diagonal_parity,
    make_sip,
    sip_similarity,
    transport,
    verify_involution,
)
from .symmetry import (
    DiagMetricSelfAdjointParams,
    DiagPhaseGenPtParams,
    PseudoBlockParams,
    PtBlockParams,
    RotatedHermitianParams,
    SymmetryKind,
    SymmetryReport,
    check_symmetry,
    construct_gen_pt_diag,
    construct_pseudo_block,
    construct_pt_block,
    construct_rotated_hermitian,
    construct_self_adjoint_from_diag_metric,
    find_gen_pt_operator,
    gen_pt_diag_operator,
)
from .metric import (
    MetricSolution,
    self_adjointness_residual,
    solve_metric_space,
    transform_metric,
    weighted_inner_product,
)
from .spectra import (
    DegenerationScan,
    JordanChain,
    RealityClass,
    SpectrumReport,
    SpectrumTable,
    align_pt_phases,
    build_pt_jordan,
    classify_spectra,
    classify_spectrum,
    degeneration_scan,
    jordan_block,
    jordan_chain,
)
from .convert import (
    ConversionResult,
    TransposeWitness,
    WitnessMethod,
    gen_pt_to_pseudo,
    pseudo_to_pt,
    pt_to_pseudo,
    transpose_from_jordan,
    transpose_matrix,
    witness_space,
)
from . import catalog2x2, counting

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
