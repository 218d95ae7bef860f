"""Seeded inputs of the splitcond benchmark, shared by run.py and its workers.

Everything here is plain data built from the standard library, so
run.py never imports splitcond and a worker builds its inputs after the
import it is timed for.  Schemes travel as {"id", "a", "b", "order"} dicts
with rational literals as strings; "order" is the exact order the scheme has
by construction, so every verification verdict is known in advance.

Witness families (all five-stage, verified at s = 5):

* ``o3-NN``: the 24 orderings of Strang compositions with weights
  (3, 4, 5, -6)/6.  Sum of weights 1 and sum of cubes 0: exactly order 3.
* ``rnd5-NN``: 64 Strang compositions with four rational weights summing to
  1 and a nonzero sum of cubes, drawn from a fixed master seed: exactly
  order 2.
* ``reg-NAME``: the CLI registry schemes padded to five stages: their
  declared order.

A run's seed only picks and orders items from these finite pools, so the
expected output hash of every operation is captured once in expected.json.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

STAGES = 5
POOL_MASTER_SEED = 1604_01190
RND_POOL_SIZE = 64
CONVERGE_SEEDS = tuple(range(1, 9))

# Copies of the CLI's built-in schemes and their declared orders; the
# benchmark keeps its own copy so it never reads the package's internals.
REGISTRY = {
    "lie-trotter": (["1"], ["1"], 1),
    "strang": (["1/2", "1/2"], ["1", "0"], 2),
    "paper-order3": (["7/24", "3/4", "-1/24"], ["2/3", "-2/3", "1"], 3),
}

# (stages, order, route) cells of the derive phase.  (3,4) and (2,5) run on
# both routes, and BCH takes over 30x as long as Taylor on each.  The full
# grid takes under 2 s, so a run repeats it six to eight times.
GRID_FULL = (
    (3, 4, "taylor"), (2, 5, "taylor"), (4, 6, "taylor"), (5, 5, "taylor"),
    (3, 4, "bch"), (2, 5, "bch"), (2, 4, "bch"),
)
GRID_SMALL = ((3, 4, "taylor"), (4, 5, "taylor"), (3, 4, "bch"))

# (order, route, stream length) cells of the verify phase, all at s = 5; the
# first call of each cell is cold.  Warm latencies form one group per cell,
# about 1, 2, 3.5 and 6 ms.  The lengths put p50 in the middle of the second
# group and p90 in the middle of the top one (or of the second, in the small
# set), so neither quantile sits on the edge between two groups.
VERIFY_FULL = ((3, "taylor", 81), (3, "bch", 41), (4, "taylor", 41), (4, "bch", 41))
VERIFY_SMALL = ((3, "taylor", 81), (3, "bch", 21))
LEAD_ORDER = 3

_CONVERGE = ("--grid-coarse", "3", "--grid-fine", "7")

# CLI mixes: (argv, expected exit code).  "@o3" and "@rnd5" stand for a
# scheme file of that family, "@bad-json" for a malformed one, "{cs}" for a
# converge matrix seed; the run's seed picks each.  The full mix has three
# cost tiers: 8 commands that only start up and parse or print (~150 ms),
# 8 that also build a small BCH system (~230 ms) and 4 that build the s = 5
# BCH system (~750 ms), so that p50 falls inside the middle tier and p90
# inside the top one instead of on the edge between two.
CLI_FULL = (
    (("lyndon", "--max-len", "6"), 0),
    (("lyndon", "--max-len", "5", "--format", "json"), 0),
    (("conditions", "-s", "3", "-p", "3", "--route", "taylor", "--format", "json"), 0),
    (("converge", "strang", "--dim", "4", "--seed", "{cs}") + _CONVERGE, 0),
    (("converge", "paper-order3", "--dim", "16", "--seed", "{cs}") + _CONVERGE, 0),
    (("verify", "no-such-scheme", "-p", "2"), 2),
    (("verify", "@bad-json", "-p", "2"), 2),
    (("conditions", "-s", "0", "-p", "3"), 2),
    (("conditions", "-s", "3", "-p", "3", "--route", "bch", "--format", "json"), 0),
    (("conditions", "-s", "3", "-p", "3", "--route", "bch"), 0),
    (("conditions", "-s", "2", "-p", "4", "--route", "bch", "--format", "json"), 0),
    (("verify", "strang", "-p", "2"), 0),
    (("verify", "strang", "-p", "3", "--route", "taylor"), 1),
    (("verify", "lie-trotter", "-p", "2"), 1),
    (("verify", "paper-order3", "-p", "3", "--format", "json"), 0),
    (("verify", "paper-order3", "-p", "3", "--route", "taylor", "--format", "json"), 0),
    (("verify", "@o3", "-p", "3", "--format", "json"), 0),
    (("verify", "@o3", "-p", "3"), 0),
    (("verify", "@rnd5", "-p", "3", "--format", "json"), 1),
    (("verify", "@rnd5", "-p", "3"), 1),
)
CLI_SMALL = (
    (("lyndon", "--max-len", "5"), 0),
    (("conditions", "-s", "2", "-p", "3", "--route", "taylor", "--format", "json"), 0),
    (("verify", "strang", "-p", "2"), 0),
    (("converge", "strang", "--dim", "4", "--seed", "{cs}") + _CONVERGE, 0),
)

# workload -> the size of each phase; the named phase fills the run, the
# other two are small so that every metric and layer shows on every workload.
# A round runs the small CLI mix twice and the small verify phase in two
# fresh workers, so that their few operations have enough repeats for a
# steady median.
WORKLOADS = {
    "derive": {"grid": GRID_FULL, "verify": VERIFY_SMALL, "cli": CLI_SMALL,
               "cli_passes": 2, "verify_workers": 2},
    "verify": {"grid": GRID_SMALL, "verify": VERIFY_FULL, "cli": CLI_SMALL,
               "cli_passes": 2, "verify_workers": 1},
    "cli": {"grid": GRID_SMALL, "verify": VERIFY_SMALL, "cli": CLI_FULL,
            "cli_passes": 1, "verify_workers": 2},
}

BAD_JSON_TEXT = '{"name": "broken", "a": ["1/2", "1/2"], "b": ["1", '


def _fmt(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def strang_composition(weights) -> tuple[list[str], list[str]]:
    """Merged product S(w1)...S(wk) of Strang steps: k + 1 stages."""
    w = [Fraction(x) for x in weights]
    a = [w[0] / 2] + [(w[i] + w[i + 1]) / 2 for i in range(len(w) - 1)] + [w[-1] / 2]
    b = w + [Fraction(0)]
    return _fmt(a), _fmt(b)


def _scheme(ident: str, a, b, order: int) -> dict:
    pad = STAGES - len(a)
    return {"id": ident, "a": list(a) + ["0"] * pad, "b": list(b) + ["0"] * pad, "order": order}


def order3_family() -> list[dict]:
    weights = [Fraction(x, 6) for x in (3, 4, 5, -6)]
    return [
        _scheme(f"o3-{i:02d}", *strang_composition(perm), 3)
        for i, perm in enumerate(itertools.permutations(weights))
    ]


def random_family() -> list[dict]:
    rng = random.Random(POOL_MASTER_SEED)
    numerators = [n for n in range(-6, 7) if n]
    out: list[dict] = []
    while len(out) < RND_POOL_SIZE:
        w = [Fraction(rng.choice(numerators), rng.randint(1, 6)) for _ in range(3)]
        w.append(1 - sum(w))
        if w[-1] == 0 or sum(x**3 for x in w) == 0:
            continue
        out.append(_scheme(f"rnd5-{len(out):02d}", *strang_composition(w), 2))
    return out


def registry_family() -> list[dict]:
    return [_scheme(f"reg-{name}", a, b, order) for name, (a, b, order) in REGISTRY.items()]


def all_schemes() -> dict[str, dict]:
    return {s["id"]: s for s in order3_family() + random_family() + registry_family()}


def verify_streams(seed: int, cells) -> list[dict]:
    """Per cell: a seeded stream with fixed family counts, first item cold."""
    rng = random.Random(f"verify:{seed}")
    o3, rnd, reg = order3_family(), random_family(), registry_family()
    out = []
    for order, route, length in cells:
        n_o3 = length // 5
        stream = rng.sample(o3, n_o3) + reg + rng.sample(rnd, length - n_o3 - len(reg))
        rng.shuffle(stream)
        out.append({"order": order, "route": route, "schemes": stream})
    return out


def cli_commands(seed: int, mix) -> list[dict]:
    """The CLI mix with its placeholders resolved from the seed, in seeded order."""
    rng = random.Random(f"cli:{seed}")
    commands = []
    for argv, code in mix:
        resolved = []
        for arg in argv:
            if arg == "@o3":
                arg = f"@o3-{rng.randrange(24):02d}"
            elif arg == "@rnd5":
                arg = f"@rnd5-{rng.randrange(RND_POOL_SIZE):02d}"
            elif arg == "{cs}":
                arg = str(rng.choice(CONVERGE_SEEDS))
            resolved.append(arg)
        commands.append({"argv": resolved, "code": code, "key": "cli/" + " ".join(resolved)})
    rng.shuffle(commands)
    return commands


def scheme_file_text(scheme: dict) -> str:
    """The CLI scheme-file form of a pool scheme."""
    return json.dumps({"name": scheme["id"], "a": scheme["a"], "b": scheme["b"]}, indent=1)
