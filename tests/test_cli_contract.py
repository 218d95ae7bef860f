"""A seeded probe of the command line's exit contract.

Every argv ends in exit 0 or 1 with nothing on stderr, or in exit 2 with nothing on stdout and
one "error: " line on stderr: no traceback, no usage block.  Work runs only at orders <= 6;
a larger order is drawn only where check_cost refuses it, and converge only with an argument
it refuses before it imports numpy.
"""

import random
import sys

from splitcond.cli import REGISTRY, main

# beside its in-range values, every integer argument draws these: the edges of a signed byte,
# a huge integer, two strings that int() refuses, and an Arabic-Indic 3, which int() takes
INTEGERS = ["0", "-1", "127", "128", str(10**18), "2.5", "x", "\u0663"]
ROUTES = ["bch", "taylor", "magic"]
FORMATS = ["text", "json", "xml"]
SCHEMES = [*REGISTRY, "no-such-scheme.json"]


def _integer(rng: random.Random, good: range) -> str:
    return rng.choice([str(rng.choice(good))] * len(INTEGERS) + INTEGERS)


def _options(rng: random.Random, command: str) -> dict:
    # each option's value, the scheme under the key "scheme"
    if command == "lyndon":
        return {"--max-len": _integer(rng, range(1, 7)), "--alphabet": _integer(rng, range(1, 4)),
                "--format": rng.choice(FORMATS)}
    if command == "converge":
        return {"scheme": rng.choice(SCHEMES), "--dim": _integer(rng, range(1, 65)),
                "--seed": _integer(rng, range(0, 10)),
                "--grid-coarse": _integer(rng, range(3, 8)),
                "--grid-fine": _integer(rng, range(8, 15))}
    options = {"scheme": rng.choice(SCHEMES)} if command == "verify" else {
        "-s": _integer(rng, range(1, 4))}
    # at 127 stages or more, order 2 runs for a quarter second, and orders 3 to 6 are refused
    big = command == "conditions" and options["-s"] in ("127", "128")
    options["-p"] = rng.choice(INTEGERS + ["1"]) if big else _integer(rng, range(1, 7))
    options.update({"--route": rng.choice(ROUTES), "--format": rng.choice(FORMATS)})
    return options


def _reaches_numpy(options: dict) -> bool:
    # converge imports numpy once every argument is in range, each omitted one at its default
    try:
        dim, seed, coarse, fine = (int(options.get(flag, default)) for flag, default in [
            ("--dim", 4), ("--seed", 1), ("--grid-coarse", 4), ("--grid-fine", 10)])
    except ValueError:
        return False
    return (options.get("scheme") in REGISTRY and 1 <= dim <= 64 and seed >= 0
            and 3 <= coarse < fine <= 14)


def _argv(rng: random.Random) -> list[str]:
    # each option is left out one time in eight, the rest given in a random order
    while True:
        command = rng.choice(["lyndon", "conditions", "verify", "converge"])
        options = {k: v for k, v in _options(rng, command).items() if rng.random() < 0.875}
        if command != "converge" or not _reaches_numpy(options):
            break
    flags = [[flag, value] for flag, value in options.items() if flag != "scheme"]
    rng.shuffle(flags)
    scheme = [options["scheme"]] if "scheme" in options else []
    return [command, *scheme, *(word for flag in flags for word in flag)]


def test_every_argv_keeps_the_exit_contract(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "splitcond.numeric", None)  # converge stops at the import
    codes = set()
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(100):
            argv = _argv(rng)
            code = main(argv)
            out, err = capsys.readouterr()
            codes.add(code)
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
                assert err.endswith("\n"), argv
            else:
                assert code in (0, 1) and err == "", argv
    assert codes == {0, 1, 2}
