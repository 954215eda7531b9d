"""Exact minimal-polynomial decompositions for rational matrices.

Everything is computed over Q or explicit algebraic extensions of Q;
no floating point anywhere.  The main entry points:

- sn_decompose / fine_decompose: additive semisimple + nilpotent
  splits, coarse and per irreducible factor.
- multiplicative_jc / complete_mjc: the multiplicative analogue, and
  its refinement into positive * norm-one * unipotent commuting parts.
- schwerdtfeger_eval / sylvester_eval: polynomial functions of a
  matrix through its covariant system.
- svd: exact singular value decomposition in outer-product form, for
  matrices whose squared singular values are rational.
- verify_*: independent exact checkers returning itemized reports;
  svd, multiplicative_jc and complete_mjc run theirs once and keep the
  report on the result as ``report``.

Pure Python throughout.  A rational matrix is stored as integer rows
over one common denominator; its products and its fraction-free
elimination, and the rational polynomial products and divisions, run
in the one interpreter kernel, mindec._kernel.
"""

from mindec.errors import (
    BothZero,
    DivisionByZero,
    DoesNotSplit,
    FactorDegreeTooHigh,
    FieldMismatch,
    FormatError,
    InvariantViolation,
    MindecError,
    MixedModuli,
    NonPositiveRadicand,
    NotInvertible,
    NotSemisimple,
    NotTotallyReal,
    OrderTooLarge,
    PartitionOfUnityFailure,
    PolyParseError,
    RadicandTooLarge,
    RecombinationBudgetExceeded,
    SingularMatrix,
    SingularValuesNotRational,
    SystemMatrixMismatch,
    UsageError,
    ZeroMatrix,
    ZeroPolynomial,
)
from mindec.scalar import (
    MultiQuad,
    NumberField,
    NumberFieldElement,
    mq_sqrt_rational,
    square_split,
)
from mindec.poly import (
    Polynomial,
    X,
    ext_gcd,
    hasse_derivative,
    poly_gcd,
    poly_lcm,
    squarefree_part,
    trace_coeffwise,
)
from mindec.factor import FactoredMinPoly, factor_rational
from mindec.matrix import (
    DenseMatrix,
    companion,
    horner_eval,
    inverse,
    kernel_basis,
    minimal_polynomial,
    rank,
)
from mindec.covariant import (
    CovariantSystem,
    GenericCovariant,
    build_covariant_system,
    materialize_projectors,
    split_covariants_over_extension,
    verify_system,
)
from mindec.decompose import (
    FineComponent,
    FineDecomposition,
    MultiplicativeJC,
    SNDecomposition,
    fine_decompose,
    multiplicative_jc,
    sn_decompose,
    sn_newton_oracle,
    system_of,
    unbreakable_components,
    verify_fine,
    verify_frobenius_system,
    verify_mjc,
    verify_sn,
    verify_unbreakable,
)
from mindec.matfun import (
    EquivalenceClass,
    MatFunResult,
    f_equivalence_classes,
    fine_of_image,
    schwerdtfeger_eval,
    sylvester_eval,
    verify_matfun,
)
from mindec.realclosed import (
    DeltaSigmaU,
    SVDResult,
    SVDTerm,
    complete_mjc,
    svd,
    symmetric_spectral_check,
    verify_cmjc,
    verify_svd_system,
    verify_svd_uniqueness,
)
from mindec.report import Check, VerificationReport
from mindec.serialize import (
    MatrixDocument,
    document_from_json,
    document_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_poly_expression,
    poly_from_json,
    poly_to_json,
    poly_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "BothZero",
    "Check",
    "CovariantSystem",
    "DeltaSigmaU",
    "DenseMatrix",
    "DivisionByZero",
    "DoesNotSplit",
    "EquivalenceClass",
    "FactorDegreeTooHigh",
    "FactoredMinPoly",
    "FieldMismatch",
    "FineComponent",
    "FineDecomposition",
    "FormatError",
    "GenericCovariant",
    "InvariantViolation",
    "MatFunResult",
    "MatrixDocument",
    "MindecError",
    "MixedModuli",
    "MultiQuad",
    "MultiplicativeJC",
    "NonPositiveRadicand",
    "NotInvertible",
    "NotSemisimple",
    "NotTotallyReal",
    "NumberField",
    "NumberFieldElement",
    "OrderTooLarge",
    "PartitionOfUnityFailure",
    "PolyParseError",
    "RadicandTooLarge",
    "RecombinationBudgetExceeded",
    "Polynomial",
    "SNDecomposition",
    "SVDResult",
    "SVDTerm",
    "SingularMatrix",
    "SingularValuesNotRational",
    "SystemMatrixMismatch",
    "UsageError",
    "VerificationReport",
    "X",
    "ZeroMatrix",
    "ZeroPolynomial",
    "build_covariant_system",
    "companion",
    "complete_mjc",
    "document_from_json",
    "document_to_json",
    "ext_gcd",
    "f_equivalence_classes",
    "factor_rational",
    "fine_decompose",
    "fine_of_image",
    "hasse_derivative",
    "horner_eval",
    "inverse",
    "kernel_basis",
    "materialize_projectors",
    "matrix_from_json",
    "matrix_to_json",
    "minimal_polynomial",
    "mq_sqrt_rational",
    "multiplicative_jc",
    "parse_poly_expression",
    "poly_from_json",
    "poly_gcd",
    "poly_lcm",
    "poly_to_json",
    "poly_to_text",
    "rank",
    "schwerdtfeger_eval",
    "sn_decompose",
    "sn_newton_oracle",
    "split_covariants_over_extension",
    "square_split",
    "squarefree_part",
    "svd",
    "sylvester_eval",
    "symmetric_spectral_check",
    "system_of",
    "trace_coeffwise",
    "unbreakable_components",
    "verify_cmjc",
    "verify_fine",
    "verify_frobenius_system",
    "verify_matfun",
    "verify_mjc",
    "verify_sn",
    "verify_svd_system",
    "verify_svd_uniqueness",
    "verify_system",
    "verify_unbreakable",
]
