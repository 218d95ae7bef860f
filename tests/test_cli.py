import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import splitcond
from splitcond.cli import (
    REGISTRY,
    load_scheme_file,
    main,
    parse_rational,
    scheme_to_json_dict,
)
from splitcond.conditions import verify_scheme

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- lyndon ------------------------------------------------------------------


def test_lyndon_listing(capsys):
    code, out, _ = run(capsys, "lyndon", "--max-len", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "A",
        "AAB = [A,[A,B]]",
        "AB = [A,B]",
        "ABB = [[A,B],B]",
        "B",
    ]


def test_lyndon_single_letters(capsys):
    code, out, _ = run(capsys, "lyndon", "--max-len", "1")
    assert code == 0
    assert out.strip().splitlines() == ["A", "B"]


def test_lyndon_bad_max_len(capsys):
    code, _, err = run(capsys, "lyndon", "--max-len", "0")
    assert code == 2
    assert "max-len" in err


def test_lyndon_json(capsys):
    code, out, _ = run(capsys, "lyndon", "--max-len", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records[1] == {"word": "AB", "bracketing": "[A,B]", "length": 2}


# -- conditions ----------------------------------------------------------------


def test_conditions_order_1(capsys):
    code, out, _ = run(capsys, "conditions", "-s", "3", "-p", "1")
    assert code == 0
    assert "a1 + a2 + a3 - 1" in out
    assert "b1 + b2 + b3 - 1" in out


def test_conditions_two_stage_order_3_entry_count(capsys):
    code, out, _ = run(
        capsys, "conditions", "-s", "2", "-p", "3", "--route", "bch", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 5
    assert [r["order"] for r in records] == [1, 1, 2, 3, 3]
    assert records[2]["lyndon"] == "AB"
    assert records[2]["rhs"] == "0"


def test_conditions_single_stage_includes_half_ab(capsys):
    code, out, _ = run(capsys, "conditions", "-s", "1", "-p", "2")
    assert code == 0
    assert "1/2*a1*b1" in out


def test_conditions_bad_arguments(capsys):
    code, _, err = run(capsys, "conditions", "-s", "0", "-p", "1")
    assert code == 2
    assert "error" in err


def test_conditions_json_is_deterministic(capsys):
    _, first, _ = run(capsys, "conditions", "-s", "2", "-p", "2", "--format", "json")
    _, second, _ = run(capsys, "conditions", "-s", "2", "-p", "2", "--format", "json")
    assert first == second


# -- verify ---------------------------------------------------------------------


def test_verify_classical_scheme(capsys):
    code, out, _ = run(capsys, "verify", "paper-order3", "-p", "3")
    assert code == 0
    assert "satisfied" in out


def test_verify_strang_fails_order_3(capsys):
    code, out, _ = run(capsys, "verify", "strang", "-p", "3")
    assert code == 1
    assert "NOT satisfied" in out
    assert "AAB" in out and "ABB" in out


def test_verify_taylor_route(capsys):
    code, _, _ = run(capsys, "verify", "paper-order3", "-p", "3", "--route", "taylor")
    assert code == 0


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "missing.json", "-p", "2")
    assert code == 2
    assert "missing.json" in err


def test_verify_scheme_file_and_json_output(tmp_path, capsys):
    path = tmp_path / "scheme.json"
    path.write_text(
        json.dumps({"name": "trotter-copy", "a": ["1"], "b": ["1"]}), encoding="utf-8"
    )
    code, out, _ = run(capsys, "verify", str(path), "-p", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert payload["scheme"]["name"] == "trotter-copy"
    code, _, _ = run(capsys, "verify", str(path), "-p", "2")
    assert code == 1


def test_unknown_subcommand_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


# -- converge ----------------------------------------------------------------------


def test_converge_strang(capsys):
    code, out, _ = run(capsys, "converge", "strang", "--dim", "4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["slope"] - 3) < 0.15
    assert payload["n"] == 4 and payload["seed"] == 1


def test_converge_lie_trotter(capsys):
    code, out, _ = run(capsys, "converge", "lie-trotter", "--dim", "4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["slope"] - 2) < 0.15


def test_converge_bad_dimension(capsys):
    code, _, err = run(capsys, "converge", "strang", "--dim", "0")
    assert code == 2
    assert "dim" in err


def test_converge_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "converge", "strang", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "seed" in err
    assert len(err.strip().splitlines()) == 1


def test_converge_json_is_deterministic(capsys):
    _, first, _ = run(capsys, "converge", "strang", "--dim", "3", "--seed", "5")
    _, second, _ = run(capsys, "converge", "strang", "--dim", "3", "--seed", "5")
    assert first == second


# -- registry and scheme files -------------------------------------------------------


def test_registry_contents():
    assert REGISTRY["lie-trotter"].scheme.a == (F(1),)
    assert REGISTRY["strang"].scheme.a == (F(1, 2), F(1, 2))
    assert REGISTRY["strang"].scheme.b == (F(1), F(0))
    assert REGISTRY["paper-order3"].scheme.a == (F(7, 24), F(3, 4), F(-1, 24))
    assert REGISTRY["paper-order3"].scheme.b == (F(2, 3), F(-2, 3), F(1))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_scheme_satisfies_declared_order(name):
    entry = REGISTRY[name]
    assert verify_scheme(entry.scheme, entry.order, "bch").satisfied


def test_parse_rational():
    assert parse_rational("7/24") == F(7, 24)
    assert parse_rational("-1/24") == F(-1, 24)
    assert parse_rational("3") == F(3)
    assert parse_rational(2) == F(2)
    assert parse_rational("0/5") == 0
    for bad in ("0.5", "1/0x", "a", "", "1.5e3", True, False, "1/0", "-3/00"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_scheme_file_round_trip(tmp_path):
    scheme = REGISTRY["paper-order3"].scheme
    path = tmp_path / "classical.json"
    path.write_text(json.dumps(scheme_to_json_dict(scheme)), encoding="utf-8")
    loaded = load_scheme_file(str(path))
    assert loaded.a == scheme.a and loaded.b == scheme.b
    assert scheme_to_json_dict(loaded) == scheme_to_json_dict(scheme)


def test_scheme_file_rejects_floats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "a": [0.5], "b": [1]}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_scheme_file(str(path))


def _nested_list(depth):
    entry = "a"
    for _ in range(depth):
        entry = [entry]
    return entry


@pytest.mark.parametrize(
    "document",
    [
        {"a": "12", "b": "10"},  # a string is not a list of stages
        {"a": [True, "1/2"], "b": [False, "1"]},  # JSON booleans are not rationals
        {"a": ["1/0"], "b": ["1"]},  # zero denominator
        {"name": ["x"], "a": ["1"], "b": ["1"]},  # the name must be a string
        {"a": [_nested_list(900)], "b": ["1"]},  # a deep entry is not echoed
        {"a": ["x" * 5000], "b": ["1"]},  # a long string entry is shortened
        {"a": ["1" * 5000], "b": ["1"]},  # over the interpreter's int-string limit
        {"a": ["1/" + "3" * 5000], "b": ["1"]},
        {"a": ["\u0663/\u0664"], "b": ["1"]},  # Arabic-Indic digits are not ASCII
    ],
    ids=[
        "string-stages",
        "booleans",
        "zero-denominator",
        "non-string-name",
        "deep-entry",
        "long-string-entry",
        "huge-numerator",
        "huge-denominator",
        "non-ascii-digits",
    ],
)
def test_verify_rejects_malformed_scheme_file(tmp_path, capsys, document):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "-p", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200
    assert "sys." not in err


def test_converge_overflow_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"a": ["100000"], "b": ["1"]}), encoding="utf-8")
    code, out, err = run(capsys, "converge", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_deeply_nested_scheme_file(tmp_path, capsys):
    depth = 100000
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + "[" * depth + "]" * depth + ', "b": ["1"]}', encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "-p", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_huge_json_integer(tmp_path, capsys):
    # json.dumps cannot write this integer, so the document is spelled out
    path = tmp_path / "huge.json"
    path.write_text('{"a": [' + "1" * 5000 + '], "b": ["1"]}', encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "-p", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sys." not in err


# -- imports -------------------------------------------------------------------

_IMPORT_PROBE = """
import contextlib, io, json, sys
import splitcond.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = splitcond.cli.main(["verify", "strang", "-p", "2"])
facts = {"code": code, "numpy_after_verify": "numpy" in sys.modules}
from splitcond import empirical_order
facts["empirical_order"] = callable(empirical_order)
try:
    splitcond.no_such_name
    facts["unknown_raises"] = False
except AttributeError:
    facts["unknown_raises"] = True
print(json.dumps(facts))
"""


def test_exact_commands_do_not_import_numpy():
    package_root = str(Path(splitcond.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "code": 0,
        "numpy_after_verify": False,
        "empirical_order": True,
        "unknown_raises": True,
    }
