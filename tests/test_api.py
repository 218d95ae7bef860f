import splitcond
from splitcond import poly


def test_every_exported_name_resolves():
    # the float-layer names are served lazily by the module __getattr__
    for name in splitcond.__all__:
        assert getattr(splitcond, name) is not None


def test_exports_are_sorted_and_unique():
    assert splitcond.__all__ == sorted(set(splitcond.__all__))


def test_removed_names_stay_removed():
    for name in ("Symbol", "stage_point", "Rational"):
        assert name not in splitcond.__all__
        assert not hasattr(splitcond, name)
        assert not hasattr(poly, name)
