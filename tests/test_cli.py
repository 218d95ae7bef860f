import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import splitcond
from splitcond.cli import (
    MAX_LYNDON_WORDS,
    REGISTRY,
    load_scheme_file,
    main,
    parse_rational,
    scheme_to_json_dict,
)
from splitcond.conditions import condition_system, verify_scheme
from splitcond.lyndon import bracket_str, bracketing, lyndon_words
from splitcond.series import word_str

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


# the largest --max-len the CLI lists for each alphabet from 2 letters to 26
LARGEST_MAX_LEN = dict(zip(range(2, 27), [23, 14, 11, 9, 8, 8, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5, 5,
                                          5, 5, 5, 4, 4, 4, 4, 4]))


def test_lyndon_largest_admitted_max_len(capsys, monkeypatch):
    # only the admission is read: the listing is stubbed, so no admitted listing is built
    monkeypatch.setattr("splitcond.cli.lyndon_words", lambda *args: [])
    refusal = f"error: the listing may hold over {MAX_LYNDON_WORDS} words; lower --max-len\n"
    for alphabet, top in LARGEST_MAX_LEN.items():
        for max_len, expected in [(top, (0, "", "")), (top + 1, (2, "", refusal))]:
            argv = ["lyndon", "--alphabet", str(alphabet), "--max-len", str(max_len)]
            assert run(capsys, *argv) == expected, argv


def test_lyndon_one_letter_at_a_long_max_len(capsys):
    code, out, _ = run(capsys, "lyndon", "--alphabet", "1", "--max-len", "10000000")
    assert code == 0
    assert out == "A\n"


def test_lyndon_json(capsys):
    code, out, _ = run(capsys, "lyndon", "--max-len", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records[1] == {"word": "AB", "bracketing": "[A,B]", "length": 2}


@pytest.mark.parametrize("alphabet", [1, 2, 3])
def test_lyndon_json_stream_is_the_whole_document(capsys, alphabet):
    # written record by record, byte-identical to dumping the whole list
    for max_len in range(1, 9):
        args = ("lyndon", "--alphabet", str(alphabet), "--max-len", str(max_len))
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        records = [
            {"word": word_str(w), "bracketing": bracket_str(bracketing(w)), "length": len(w)}
            for w in lyndon_words(alphabet, max_len)
        ]
        assert out == json.dumps(records, indent=2) + "\n"


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


@pytest.mark.parametrize("route", ["bch", "taylor"])
def test_conditions_stream_is_the_whole_document(capsys, route):
    # written entry by entry, byte-identical to dumping or printing the whole system
    for stages, order in [(1, 1), (1, 3), (2, 4), (3, 3)]:
        args = ("conditions", "-s", str(stages), "-p", str(order), "--route", route)
        system = condition_system(stages, order, route)
        _, text, _ = run(capsys, *args)
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        assert text == f"{system}\n"
        assert out == json.dumps(system.to_records(), indent=2) + "\n"


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


# SHA-256 of the exit codes and stdout of `verify NAME -p P --route R --format json`
# over the registry, p = 1..4 and both routes, taken while the exact check still
# read abs(r) <= 0 and every residual was formed by Fraction(n - o, s)
VERIFY_JSON_SHA256 = "bdae7ce06d0532c2b4ebbb57a752a41af77832d6904180844aaccc194051b927"


def test_verify_json_is_unchanged_byte_for_byte(capsys):
    out = []
    for name in sorted(REGISTRY):
        for p in (1, 2, 3, 4):
            for route in ("bch", "taylor"):
                code, text, _ = run(capsys, "verify", name, "-p", str(p), "--route", route,
                                    "--format", "json")
                out.append(f"{code}\n{text}")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == VERIFY_JSON_SHA256


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
        {"name": "x\ny", "a": ["1"], "b": ["1"]},  # a newline would split the verdict
        {"a": [_nested_list(900)], "b": ["1"]},  # a deep entry is not echoed
        {"a": ["x" * 5000], "b": ["1"]},  # a long string entry is shortened
        {"a": ["1" * 5000], "b": ["1"]},  # over the interpreter's int-string limit
        {"a": ["1/" + "3" * 5000], "b": ["1"]},
        {"a": ["\u0663/\u0664"], "b": ["1"]},  # Arabic-Indic digits are not ASCII
        [["1"], ["1"]],  # a top-level array, not an object
        {"a": [], "b": []},  # a scheme needs a stage
        {"a": ["1"], "b": ["1", "0"]},  # one b per a
        b'{"a": ["\xff"], "b": ["1"]}',  # not UTF-8
        b"\xff\xfe",  # a UTF-16 byte-order mark
        b'{"a": ["1"], "b": ',  # cut off mid-document
    ],
    ids=[
        "string-stages",
        "booleans",
        "zero-denominator",
        "non-string-name",
        "control-character-name",
        "deep-entry",
        "long-string-entry",
        "huge-numerator",
        "huge-denominator",
        "non-ascii-digits",
        "top-level-array",
        "no-stages",
        "unequal-lengths",
        "invalid-utf8",
        "utf16-bom",
        "truncated",
    ],
)
def test_verify_rejects_malformed_scheme_file(tmp_path, capsys, document):
    path = tmp_path / "scheme.json"
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "-p", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.startswith(f"error: {path}: ")
    assert len(err) < 200
    assert "sys." not in err
    assert run(capsys, "converge", str(path)) == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ("lyndon", "--max-len", "3", "--alphabet", "27"),
        ("lyndon", "--max-len", "6", "--alphabet", "26"),
        ("lyndon", "--max-len", "24"),
        ("verify", "strang", "-p", "0"),
        ("converge", "strang", "--grid-coarse", "6", "--grid-fine", "5"),
        ("conditions", "-s", "1", "-p", "200"),
        ("verify", "strang", "-p", "200"),
        ("conditions", "-s", "1", "-p", "30"),
        ("verify", "strang", "-p", "30"),
    ],
    ids=[
        "alphabet-27", "lyndon-26-6", "lyndon-2-24", "verify-order-0", "inverted-grid",
        "conditions-order-200", "verify-order-200", "conditions-order-30", "verify-order-30",
    ],
)
def test_rejected_arguments_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("conditions", "-s", "2"),
        ("verify", "strang", "-p", "x"),
        ("frobnicate",),
        ("conditions", "-s", "2", "-p", "3", "--route", "magic"),
    ],
    ids=["missing-order", "order-not-an-int", "unknown-command", "unknown-route"],
)
def test_usage_errors_exit_2_with_one_error_line(capsys, argv):
    # argparse's own errors, without its usage block, in every subcommand's parser
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "usage" not in err


def test_help_still_prints_the_usage(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0
    assert out.startswith("usage: splitcond verify") and err == ""


def test_orders_past_the_word_table_guard_exit_2_before_any_work(capsys, monkeypatch):
    # the library enumerates every Lyndon word through the order first, so a
    # missing guard would hang; here it fails at once instead
    def refuse(*args):
        raise AssertionError("the command started to build its word tables")

    monkeypatch.setattr("splitcond.cli.condition_system", refuse)
    monkeypatch.setattr("splitcond.cli.verify_scheme", refuse)
    message = "error: order 24 may need over 1000000 Lyndon words\n"
    assert run(capsys, "conditions", "-s", "2", "-p", "24") == (2, "", message)
    assert run(capsys, "verify", "strang", "-p", "24") == (2, "", message)
    assert run(capsys, "verify", "strang", "-p", "30")[0] == 2
    assert run(capsys, "verify", "strang", "-p", "23")[0] == 2  # under 24, over the cost budget
    with pytest.raises(AssertionError):  # order 14 passes the guard
        run(capsys, "verify", "strang", "-p", "14")
    # a bad stage count and an unreadable scheme are still reported first
    monkeypatch.undo()
    code, _, err = run(capsys, "conditions", "-s", "0", "-p", "30")
    assert (code, err) == (2, "error: stage count must be >= 1\n")
    code, _, err = run(capsys, "verify", "no-such-scheme.json", "-p", "30")
    assert code == 2 and "no-such-scheme.json" in err


# commands under the word guard that ran for minutes or ran out of memory before the cost
# guard: each must exit 2 with one error line, before it builds anything
COSTLY_COMMANDS = [
    ("conditions", "-s", "20000", "-p", "2"),
    ("conditions", "-s", "2000", "-p", "2"),
    ("conditions", "-s", "3", "-p", "23", "--route", "taylor"),
    ("verify", "strang", "-p", "18"),
    ("verify", "strang", "-p", "22", "--route", "taylor"),
    ("conditions", "-s", "1000000000000000000", "-p", "17"),  # an estimate past float range
]


@pytest.mark.parametrize("argv", COSTLY_COMMANDS, ids=" ".join)
def test_costly_commands_exit_2_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("the command started to build")

    monkeypatch.setattr("splitcond.cli.condition_system", refuse)
    monkeypatch.setattr("splitcond.cli.verify_scheme", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: order ") and err.count("\n") == 1
    assert "bytes, over the budget of 1e+08\n" in err


def test_commands_within_the_cost_budget_reach_the_work(capsys, monkeypatch):
    # the largest cells the documentation names, and the edges of the verify budget
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr("splitcond.cli.condition_system", reached)
    monkeypatch.setattr("splitcond.cli.verify_scheme", reached)
    for argv in [
        ("conditions", "-s", "8", "-p", "8", "--route", "taylor"),
        ("conditions", "-s", "6", "-p", "8"),
        ("conditions", "-s", "100", "-p", "2"),
        ("verify", "strang", "-p", "14"),
        ("verify", "strang", "-p", "19", "--route", "taylor"),
    ]:
        with pytest.raises(Reached):
            run(capsys, *argv)
    for argv in [
        ("verify", "strang", "-p", "15"),
        ("verify", "strang", "-p", "20", "--route", "taylor"),
        ("conditions", "-s", "10", "-p", "8"),
    ]:
        assert run(capsys, *argv)[0] == 2


def test_converge_overflow_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"a": ["100000"], "b": ["1"]}), encoding="utf-8")
    code, out, err = run(capsys, "converge", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_converge_coefficient_beyond_float_range_exits_2(tmp_path, capsys):
    # 401 digits pass the literal check, but float() of them overflows
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"a": ["1" + "0" * 400, "0"], "b": ["1", "0"]}), encoding="utf-8")
    code, out, err = run(capsys, "converge", str(path), "--dim", "2")
    assert code == 2
    assert out == ""
    assert err == "error: stage coefficient too large for a float\n"


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


def _subprocess_env():
    package_root = str(Path(splitcond.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_closed_stdout_exits_2_without_traceback():
    # the listing is far larger than a pipe buffer, so the writer meets the closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "splitcond.cli", "lyndon", "--max-len", "14"],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"A\n"
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 2
    assert err == b""


def test_conditions_closed_stdout_exits_2_without_traceback():
    # 120 KB of JSON, far larger than a pipe buffer, meets the closed pipe mid-stream
    argv = ["conditions", "-s", "5", "-p", "7", "--route", "taylor", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "splitcond.cli", *argv],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 2
    assert err == b""


def test_the_process_exit_writes_what_main_writes(tmp_path, capsys):
    # entry() ends the process by os._exit once both streams are flushed: every byte and
    # exit code of a process equals those of main() run here
    malformed = tmp_path / "cut.json"
    malformed.write_text('{"a": ["1"], "b": ', encoding="utf-8")
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, so only the flush writes its tail
    for expected, argv in [
        (0, ("conditions", "-s", "4", "-p", "7")),  # 345 KB, larger than a pipe buffer
        (0, ("conditions", "-s", "3", "-p", "4", "--route", "taylor", "--format", "json")),
        (0, ("verify", "strang", "-p", "2")),
        (1, ("verify", "strang", "-p", "3", "--format", "json")),
        (0, ("lyndon", "--max-len", "14")),
        (2, ("conditions", "-s", "2", "-p", "3", "--route", "magic")),
        (2, ("verify", str(malformed), "-p", "2")),
        (0, ("converge", "strang", "--dim", "4")),
    ]:
        done = subprocess.run([sys.executable, "-m", "splitcond.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        code, out, err = run(capsys, *argv)
        assert code == expected, argv
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())


_ATEXIT_PROBE = """
import atexit, sys
from splitcond.cli import entry
atexit.register(lambda: print("the atexit handler ran", file=sys.stderr))
sys.argv = ["splitcond", "verify", "strang", "-p", "3"]
entry()
"""


def test_the_process_exit_skips_atexit_handlers(capsys):
    done = subprocess.run([sys.executable, "-c", _ATEXIT_PROBE], env=_subprocess_env(),
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, run(capsys, "verify", "strang", "-p", "3")[1].encode(), b"")


def test_verify_prints_residuals_past_the_int_to_str_limit(tmp_path):
    # every literal is within MAX_LITERAL_DIGITS, yet at p = 5 the residuals run past the
    # interpreter's 4,300-digit int-to-str limit, which the command line lifts
    zeros = "0" * 998
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"a": [f"1/7{zeros}1", f"1/3{zeros}7"], "b": ["1", "0"]}))
    argv = [sys.executable, "-m", "splitcond.cli", "verify", str(path), "-p", "5"]
    text = subprocess.run(argv, env=_subprocess_env(), capture_output=True, text=True)
    report = verify_scheme(load_scheme_file(str(path)), 5)
    assert (text.returncode, text.stderr) == (1, "")
    verdict, *lines = text.stdout.splitlines()
    assert verdict.endswith(" at order 5 via bch: NOT satisfied")
    done = subprocess.run(argv + ["--format", "json"], env=_subprocess_env(), capture_output=True)
    assert (done.returncode, done.stderr) == (1, b"")
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit:  # the residuals print in this process too, for the comparison alone
        limit = sys.get_int_max_str_digits()
        set_limit(0)
    try:
        assert max(len(str(r)) for _, _, r in report.residuals) > 4300
        assert json.loads(done.stdout)["residuals"] == [
            {"degree": q, "word": word_str(w), "residual": str(r)} for q, w, r in report.residuals
        ]
        assert lines == [f"  deg {q}  {word_str(w)}  residual {r}"
                         for q, w, r in report.nonzero_residuals()]
    finally:
        if set_limit:
            set_limit(limit)


# -- imports -------------------------------------------------------------------

# dataclasses pulls in inspect, ast, dis and tokenize: a third of the package import
_IMPORT_PROBE = """
import contextlib, io, json, sys
heavy = ("dataclasses", "inspect")
import splitcond.cli
facts = {"heavy_after_import": [m for m in heavy if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    facts["code"] = splitcond.cli.main(["verify", "strang", "-p", "2"])
facts["numpy_after_verify"] = "numpy" in sys.modules
facts["heavy_after_verify"] = [m for m in heavy if m in sys.modules]
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
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "heavy_after_import": [],
        "code": 0,
        "numpy_after_verify": False,
        "heavy_after_verify": [],
        "empirical_order": True,
        "unknown_raises": True,
    }


# numpy.random would bring its bit generators and, through secrets and hashlib, libcrypto
_CONVERGE_PROBE = """
import contextlib, io, json, sys
import splitcond.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = splitcond.cli.main(["converge", "strang", "--dim", "4", "--seed", "1"])
names = ("numpy", "numpy.random", "secrets", "_hashlib")
print(json.dumps({"code": code, "loaded": [m for m in names if m in sys.modules]}))
"""


def test_converge_does_not_import_numpy_random():
    import numpy

    if int(numpy.__version__.split(".")[0]) < 2:
        pytest.skip("numpy before 2.0 imports numpy.random with numpy itself")
    done = subprocess.run(
        [sys.executable, "-c", _CONVERGE_PROBE],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "loaded": ["numpy"]}
