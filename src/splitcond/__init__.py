"""Exact order conditions for exponential operator-splitting schemes.

The package generates the polynomial systems a splitting scheme's stage
coefficients must satisfy to reach a given order, by two independent routes
(logarithm of the product, and Taylor/Lyndon-word coefficient extraction),
verifies candidate schemes in exact rational arithmetic, and confirms orders
numerically on random linear matrix flows.
"""

from .conditions import (
    ConcreteScheme,
    ConditionEntry,
    ConditionSystem,
    EquivalenceReport,
    NotOrderP,
    SymbolicScheme,
    VerificationReport,
    conditions_bch,
    conditions_taylor,
    condition_system,
    exp_of_sum,
    leading_error_term,
    local_error_series,
    splitting_product,
    systems_equivalent,
    verify_scheme,
)
from .lyndon import (
    BracketTree,
    LieDecomposition,
    NotALieElement,
    SingleLetter,
    bracket_str,
    bracketing,
    expand,
    foliage,
    is_lyndon,
    lie_decompose,
    lyndon_words,
    lyndon_words_of_degree,
    standard_factorization,
)
from .poly import MissingAssignment, Poly
from .series import (
    AlphabetMismatch,
    ConstantTermNotOne,
    DegreeBeyondTruncation,
    NCSeries,
    NonzeroConstantTerm,
    TruncationMismatch,
    exp,
    log,
    word_str,
)

__version__ = "0.1.0"

# the float layer imports numpy, so it loads on first use of one of its names
_NUMERIC_NAMES = frozenset(
    {
        "ConvergenceReport",
        "DegenerateFit",
        "DimensionMismatch",
        "NonFinite",
        "empirical_order",
        "matrix_exp",
        "scheme_step",
    }
)


def __getattr__(name: str):
    if name in _NUMERIC_NAMES:
        from . import numeric

        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AlphabetMismatch",
    "BracketTree",
    "ConcreteScheme",
    "ConditionEntry",
    "ConditionSystem",
    "ConstantTermNotOne",
    "ConvergenceReport",
    "DegenerateFit",
    "DegreeBeyondTruncation",
    "DimensionMismatch",
    "EquivalenceReport",
    "LieDecomposition",
    "MissingAssignment",
    "NCSeries",
    "NonFinite",
    "NonzeroConstantTerm",
    "NotALieElement",
    "NotOrderP",
    "Poly",
    "SingleLetter",
    "SymbolicScheme",
    "TruncationMismatch",
    "VerificationReport",
    "bracket_str",
    "bracketing",
    "condition_system",
    "conditions_bch",
    "conditions_taylor",
    "empirical_order",
    "exp",
    "exp_of_sum",
    "expand",
    "foliage",
    "is_lyndon",
    "leading_error_term",
    "lie_decompose",
    "local_error_series",
    "log",
    "lyndon_words",
    "lyndon_words_of_degree",
    "matrix_exp",
    "scheme_step",
    "splitting_product",
    "standard_factorization",
    "systems_equivalent",
    "verify_scheme",
    "word_str",
]
