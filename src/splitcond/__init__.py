"""Exact order conditions for exponential operator-splitting schemes.

The package generates the polynomial systems a splitting scheme's stage
coefficients must satisfy to reach a given order, by two independent routes
(logarithm of the product, and Taylor/Lyndon-word coefficient extraction),
verifies candidate schemes in exact rational arithmetic, and confirms orders
numerically on random linear matrix flows.
"""

from importlib import import_module

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
    leading_error_term,
    systems_equivalent,
    verify_scheme,
)
from .lyndon import (
    BracketTree,
    LieDecomposition,
    SingleLetter,
    bracket_str,
    bracketing,
    foliage,
    is_lyndon,
    lyndon_words,
    lyndon_words_of_degree,
    standard_factorization,
    word_str,
)
from .poly import MissingAssignment, Poly

__version__ = "0.1.0"

# names served on first use, each from its module: the series layer, which no route, verification
# or command calls, and the float layer, which imports numpy; the engine above loads eagerly, so
# that a first call to it does not pay for its import
_LAZY = dict.fromkeys(
    ["AlphabetMismatch", "ConstantTermNotOne", "DegreeBeyondTruncation", "NCSeries",
     "NonzeroConstantTerm", "NotALieElement", "TruncationMismatch", "exp", "exp_of_sum", "expand",
     "lie_decompose", "local_error_series", "log", "splitting_product"], "series"
) | dict.fromkeys(
    ["ConvergenceReport", "DegenerateFit", "DimensionMismatch", "NonFinite", "empirical_order",
     "matrix_exp", "scheme_step"], "numeric"
)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
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
