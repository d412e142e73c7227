"""Exact-arithmetic m-Riordan groups, derived sequence transforms, and a
lattice-path counting oracle."""

from .errors import (
    BlockProfileViolation,
    CompositionRequiresValuation,
    DivisionByNonUnit,
    EvaluationError,
    ExprSyntaxError,
    InvalidArgument,
    MixedModulus,
    MixedOrder,
    MRiordanError,
    NonUnitLeadingCoefficient,
    NotRevertible,
    OrderTooSmall,
    RootRequiresUnitConstant,
    UnknownIdentifier,
)
from .expressions import evaluate, evaluate_text, parse, to_text
from .group import (
    CoeffMatrix,
    MRiordanElement,
    apply_ftra,
    classify_subgroups,
    decompose_semidirect,
    identity,
    inverse,
    new_element,
    product,
    to_matrix,
)
from .lattice import LatticeSpec, VerifyReport, count_table, left_factors, verify_against_gf
from .sequences import (
    bivariate_table,
    diagonal_sums,
    hankel_transform,
    interleave_split,
    row_sums,
)
from .series import (
    Series,
    aerate,
    catalan_series,
    compose,
    compress,
    nth_root_unit,
    revert,
    sqrt_unit,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
