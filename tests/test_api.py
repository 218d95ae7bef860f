import importlib
import inspect

import pytest

import splitcond
from splitcond import (
    DegreeBeyondTruncation,
    NCSeries,
    Poly,
    SymbolicScheme,
    condition_system,
    conditions_bch,
    conditions_taylor,
    lie_decompose,
    local_error_series,
    poly,
    bracket_str,
    bracketing,
    splitting_product,
    word_str,
)
from splitcond.poly import as_poly


def test_every_exported_name_resolves():
    # the float-layer names are served lazily by the module __getattr__
    for name in splitcond.__all__:
        assert getattr(splitcond, name) is not None


def test_star_import_binds_every_export_and_each_lazy_name_is_its_modules():
    # the series and float layers' names are served on first use, each the object its module holds
    namespace = {}
    exec("from splitcond import *", namespace)
    assert set(splitcond.__all__) <= set(namespace)
    assert set(splitcond._LAZY) <= set(splitcond.__all__)
    for name, module in splitcond._LAZY.items():
        assert name not in vars(splitcond)
        assert namespace[name] is getattr(importlib.import_module(f"splitcond.{module}"), name)


def test_exports_are_sorted_and_unique():
    assert splitcond.__all__ == sorted(set(splitcond.__all__))


def test_removed_names_stay_removed():
    for name in ("Symbol", "stage_point", "Rational"):
        assert name not in splitcond.__all__
        assert not hasattr(splitcond, name)
        assert not hasattr(poly, name)
    # the word budget is lyndon.MAX_LYNDON_WORDS, bound by no other module (see
    # test_integer_arguments.py::test_every_entry_point_keeps_the_one_budget_of_lyndon)
    from splitcond import cli, conditions, series

    assert not hasattr(cli, "lyndon_count_bound") and not hasattr(conditions, "MAX_TABLE_ORDER")
    assert not any(hasattr(m, "MAX_LYNDON_WORDS") for m in (cli, conditions, series))


def test_helpers_import_no_engine_kernel_ring_or_table():
    # the oracles of helpers.py stay independent of the engine they check: no name of its
    # kernels, rings or tables is imported or read there
    import ast
    from pathlib import Path

    engine = {"_int_product", "_map_product", "_map_fresh", "_int_log", "_map_log", "_dot",
              "_divided_product", "_INTS", "_MAPS", "_Tables"}
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text())
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & engine, sorted(names & engine)


def test_exp_and_log_take_one_series():
    assert list(inspect.signature(splitcond.exp).parameters) == ["g"]
    assert list(inspect.signature(splitcond.log).parameters) == ["f"]


# a1 against b1, b2: the lists of a and b differ in length
UNEQUAL_STAGES = (Poly.symbol("a", 1),), (Poly.symbol("b", 1), Poly.symbol("b", 2))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: conditions_taylor(2, 0), ValueError),
        (lambda: conditions_bch(2, 0), ValueError),
        (lambda: condition_system(2, 2, "foo"), ValueError),
        (lambda: SymbolicScheme.generic(0), ValueError),
        (lambda: lie_decompose(NCSeries(2, 2, {(0,): 1}), 0), ValueError),
        (lambda: lie_decompose(NCSeries.zero(2), 3), DegreeBeyondTruncation),
        (lambda: Poly.symbol("a", 1) ** -1, ValueError),
        (lambda: as_poly("x"), TypeError),
        (lambda: splitting_product(SymbolicScheme.generic(1), -1), ValueError),
        (lambda: local_error_series(SymbolicScheme(*UNEQUAL_STAGES), 1), ValueError),
        (lambda: NCSeries.letter(26, 1, 27), ValueError),
        (lambda: NCSeries.zero(1, 27), ValueError),
        (lambda: word_str((26,)), ValueError),
        (lambda: word_str((0, -1)), ValueError),
        (lambda: bracket_str(bracketing((0, 26))), ValueError),
    ],
    ids=[
        "taylor-order-0",
        "bch-order-0",
        "unknown-route",
        "zero-stages",
        "decompose-degree-0",
        "decompose-beyond-truncation",
        "negative-power",
        "string-as-poly",
        "product-negative-truncation",
        "product-unequal-stages",
        "series-letter-past-z",
        "series-alphabet-over-26",
        "word-letter-past-z",
        "word-negative-letter",
        "bracket-letter-past-z",
    ],
)
def test_invalid_arguments_raise(call, error):
    with pytest.raises(error):
        call()
