"""A seeded probe of the engine's one integer rule (poly._whole).

Every integer argument of an entry point is anything operator.index takes but a bool.
Any other value raises TypeError, and a value out of range ValueError, each naming the
argument; no value leaks an error from inside the engine.
"""

import random
from fractions import Fraction

from splitcond import (
    NCSeries,
    Poly,
    SymbolicScheme,
    bracketing,
    condition_system,
    expand,
    leading_error_term,
    lie_decompose,
    lyndon_words,
    splitting_product,
    verify_scheme,
)
from splitcond.cli import REGISTRY
from splitcond.conditions import ROUTES, check_cost

STRANG = REGISTRY["strang"].scheme
LIE = expand(bracketing((0, 0, 1)), 6)  # [A,[A,B]]: degree 3, truncated at 6
GENERIC = SymbolicScheme.generic(2)

NOT_INTEGERS = [2.0, 2.5, True, "3", None, Fraction(3)]
OUT_OF_RANGE = [0, -1]

# per entry point, its integer arguments as (a word its messages name it by, in-range
# values, non-integers it also takes); orders stay <= 6 and stage counts <= 3
ORDER, STAGES = ("order", range(1, 7), ()), ("stage", range(1, 4), ())
CALLS = {
    "verify_scheme": (lambda p, route: verify_scheme(STRANG, p, route), [ORDER]),
    "condition_system": (condition_system, [STAGES, ORDER]),
    "leading_error_term": (lambda p, route: leading_error_term(STRANG, p), [ORDER]),
    "lie_decompose": (lambda q, route: lie_decompose(LIE, q), [("degree", range(1, 7), ())]),
    "check_cost": (lambda p, s, route: check_cost(p, route, s),
                   [ORDER, ("stage", range(1, 4), (None,))]),
    "splitting_product": (lambda n, route: splitting_product(GENERIC, n),
                          [("truncation", range(0, 7), ())]),
    "SymbolicScheme.generic": (lambda s, route: SymbolicScheme.generic(s), [STAGES]),
    "Poly.symbol": (lambda j, route: Poly.symbol("b", j), [("stage", range(1, 4), ())]),
    "lyndon_words": (lambda k, n, route: lyndon_words(k, n),
                     [("alphabet", range(1, 4), ()), ("degree", range(1, 7), ())]),
    "NCSeries": (lambda n, k, route: NCSeries(n, k),
                 [("truncation", range(0, 7), ()), ("alphabet", range(1, 4), ())]),
    "NCSeries.letter": (lambda i, route: NCSeries.letter(i, 3), [("letter", range(0, 2), ())]),
    "NCSeries.homogeneous_part": (lambda j, route: LIE.homogeneous_part(j),
                                  [("degree", range(0, 7), ())]),
    "ConcreteScheme.padded": (lambda s, route: STRANG.padded(s), [("stage", range(2, 5), ())]),
}


def _cases(rng: random.Random, specs: list):
    # each argument at each out-of-range and non-integer value, the others in range;
    # then a few draws of every argument from all of them
    for at, _ in enumerate(specs):
        for value in OUT_OF_RANGE + NOT_INTEGERS:
            yield [value if i == at else rng.choice(r) for i, (_, r, _) in enumerate(specs)]
    for _ in range(8):
        yield [rng.choice([rng.choice(r)] * 4 + OUT_OF_RANGE + NOT_INTEGERS)
               for _, r, _ in specs]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def test_every_integer_argument_is_one_rule():
    rng = random.Random(3029)
    for name, (call, specs) in CALLS.items():
        for args in _cases(rng, specs):
            route = rng.choice(ROUTES)
            typed = [word for (word, _, takes), v in zip(specs, args)
                     if not _is_int(v) and not any(v is t for t in takes)]
            ranged = [word for (word, r, _), v in zip(specs, args) if _is_int(v) and v not in r]
            where = f"{name}{tuple(args)} on {route}"
            try:
                call(*args, route)
            except (TypeError, ValueError) as exc:
                message = str(exc)
                named = [word for word, _, _ in specs if word in message]
                assert named, f"{where}: {type(exc).__name__}: {message}"
                if typed or ranged:
                    assert set(named) & set(typed + ranged), f"{where}: {message}"
                if isinstance(exc, TypeError):
                    assert set(named) & set(typed), f"{where}: {message}"
                    assert "must be an integer, not" in message, f"{where}: {message}"
            else:
                assert not typed, f"{where} took a non-integer"
