"""The result records: repr text, construction, equality, immutability, validation."""

from fractions import Fraction

import pytest

from splitcond import (
    ConcreteScheme,
    ConditionEntry,
    ConditionSystem,
    ConvergenceReport,
    EquivalenceReport,
    LieDecomposition,
    Poly,
    SymbolicScheme,
    VerificationReport,
    condition_system,
    conditions_bch,
    verify_scheme,
    word_str,
)
from splitcond.cli import REGISTRY, RegistryEntry
from splitcond.conditions import WitnessVerdict

F = Fraction
STRANG = REGISTRY["strang"].scheme
STRANG_REPR = (
    "ConcreteScheme(a=(Fraction(1, 2), Fraction(1, 2)), "
    "b=(Fraction(1, 1), Fraction(0, 1)), name='strang')"
)


def test_repr_text_is_pinned():
    assert repr(STRANG) == STRANG_REPR
    assert repr(REGISTRY["strang"]) == f"RegistryEntry(scheme={STRANG_REPR}, order=2)"
    assert repr(conditions_bch(1, 2).entries[0]) == (
        "ConditionEntry(degree=1, word=(0,), polynomial=Poly(a1 - 1), rhs=Fraction(0, 1))"
    )
    assert repr(verify_scheme(STRANG, 2)) == (
        f"VerificationReport(scheme={STRANG_REPR}, order=2, route='bch', satisfied=True, "
        "residuals=((1, (0,), Fraction(0, 1)), (1, (1,), Fraction(0, 1)), "
        "(2, (0, 1), Fraction(0, 1))))"
    )
    assert repr(LieDecomposition(2, {})) == "LieDecomposition(degree=2, coefficients={})"


_ENTRY = ConditionEntry(1, (0,), Poly.symbol("a", 1) - 1)
_VERDICT = WitnessVerdict(STRANG, True, False, ((1, (0,), F(0)),), ((1, (0,), F(1)),))

# each record with keyword arguments for every field, in field order
RECORDS = [
    (ConcreteScheme, dict(a=(F(1, 2), F(1, 2)), b=(F(1), F(0)), name="strang")),
    (SymbolicScheme, dict(a=(Poly.symbol("a", 1),), b=(Poly.symbol("b", 1),))),
    (ConditionEntry, dict(degree=1, word=(0,), polynomial=Poly.symbol("a", 1), rhs=F(1))),
    (ConditionSystem, dict(stages=1, order=1, route="bch", entries=(_ENTRY,))),
    (
        VerificationReport,
        dict(scheme=STRANG, order=1, route="taylor", satisfied=True, residuals=()),
    ),
    (
        WitnessVerdict,
        dict(
            scheme=STRANG,
            satisfied_first=True,
            satisfied_second=False,
            residuals_first=((1, (0,), F(0)),),
            residuals_second=((1, (0,), F(1)),),
        ),
    ),
    (EquivalenceReport, dict(verdicts=(_VERDICT,))),
    (LieDecomposition, dict(degree=2, coefficients={(0, 1): Poly.const(F(1, 2))})),
    (RegistryEntry, dict(scheme=STRANG, order=2)),
    (
        ConvergenceReport,
        dict(
            scheme_name="strang",
            dimension=4,
            seed=1,
            step_sizes=(0.5, 0.25),
            errors=(1e-3, 1.25e-4),
            used=(True, True),
            slope=3.0,
            fit_residual=0.0,
            scaling=(1.0, 2.0),
        ),
    ),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_keyword_construction_and_equality(cls, fields):
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    twin = cls(*fields.values())
    assert twin == record and twin is not record
    if cls is LieDecomposition:
        with pytest.raises(TypeError):  # its coefficients are a dict
            hash(record)
    else:
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields):
    record = cls(**fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, first) == fields[first]


def test_defaults():
    assert ConcreteScheme((1,), (1,)).name is None
    rhs = ConditionEntry(1, (0,), Poly.symbol("a", 1)).rhs
    assert rhs == 0 and type(rhs) is Fraction


def test_concrete_scheme_coerces_and_validates():
    scheme = ConcreteScheme([1, 0.5], ("1/3", F(2)), name="x")
    assert scheme.a == (F(1), F(1, 2)) and scheme.b == (F(1, 3), F(2))
    assert all(type(x) is Fraction for x in scheme.point())
    with pytest.raises(ValueError, match="equal length"):
        ConcreteScheme((1, 2), (1,))
    with pytest.raises(ValueError, match="at least one stage"):
        ConcreteScheme((), ())
    padded = STRANG.padded(3)
    assert type(padded) is ConcreteScheme
    assert padded == ConcreteScheme((F(1, 2), F(1, 2), 0), (1, 0, 0), "strang")


def test_make_and_replace_go_through_the_checks():
    made = ConcreteScheme._make([(1, 2), (3, 4)])
    assert type(made) is ConcreteScheme and made.a == (F(1), F(2)) and made.name is None
    assert all(type(x) is Fraction for x in made.point())
    replaced = STRANG._replace(a=(1, 2))
    assert type(replaced) is ConcreteScheme
    assert replaced == ConcreteScheme((F(1), F(2)), STRANG.b, "strang")
    assert all(type(x) is Fraction for x in replaced.a)
    for build in (
        lambda: ConcreteScheme._make([(1, 2), (1,)]),
        lambda: ConcreteScheme._make([(), ()]),
        lambda: STRANG._replace(a=(1,)),
        lambda: STRANG._replace(a=(), b=()),
    ):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("route", ["taylor", "bch"])
@pytest.mark.parametrize("stages,p", [(2, 4), (3, 3), (4, 5)])
def test_a_system_records_its_entries_one_by_one(stages, p, route):
    # to_records() is each entry's to_record(), the record the CLI streams: the entry's
    # fields as text, in the key order the JSON output prints
    system = condition_system(stages, p, route)
    records = [e.to_record() for e in system.entries]
    assert records == system.to_records()
    for e, record in zip(system.entries, records):
        assert list(record.items()) == [
            ("order", e.degree), ("lyndon", word_str(e.word)),
            ("polynomial", str(e.polynomial)), ("rhs", str(e.rhs)),
        ]
