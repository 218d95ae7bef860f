"""Capture expected.json: the output hash of every operation a run can make.

    python3 perfbench/capture.py

Runs in one process against the checkout's src/: every derive cell, every
pool scheme in every verify cell, the leading error term of every order-3
witness, and every resolved CLI command (through splitcond.cli.main, with
stdout captured).  Each verdict and exit code must match what the input has
by construction, or capture stops.  Only a change that defines the benchmark
captures again; a change that claims outputs are unchanged is checked
against this table.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import inputs
from worker import cli_digest, lead_digest, system_digest, verdict_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def variants(argv: tuple[str, ...]):
    """Every resolution of the placeholders a seed can pick."""
    choices = []
    for arg in argv:
        if arg == "@o3":
            choices.append([f"@o3-{i:02d}" for i in range(24)])
        elif arg == "@rnd5":
            choices.append([f"@rnd5-{i:02d}" for i in range(inputs.RND_POOL_SIZE)])
        elif arg == "{cs}":
            choices.append([str(s) for s in inputs.CONVERGE_SEEDS])
        else:
            choices.append([arg])
    return itertools.product(*choices)


def main() -> int:
    os.chdir(ROOT)  # scheme-file arguments are relative to the checkout
    sys.path.insert(0, str(ROOT / "src"))
    from fractions import Fraction

    import splitcond as sc
    from splitcond.cli import main as cli_main

    expected: dict[str, str] = {}
    for stages, order, route in sorted(set(inputs.GRID_FULL + inputs.GRID_SMALL)):
        system = sc.condition_system(stages, order, route)
        expected[f"system/{stages}/{order}/{route}"] = system_digest(system)

    schemes = inputs.all_schemes()
    for item in schemes.values():
        scheme = sc.ConcreteScheme(
            tuple(Fraction(x) for x in item["a"]), tuple(Fraction(x) for x in item["b"]),
            item["id"],
        )
        for order, route, _ in inputs.VERIFY_FULL:
            report = sc.verify_scheme(scheme, order, route)
            if report.satisfied != (order <= item["order"]):
                raise SystemExit(f"{item['id']} at order {order} via {route}: wrong verdict")
            key = f"verify/{item['id']}/{inputs.STAGES}/{order}/{route}"
            expected[key] = verdict_digest(report, sc.word_str)
        if item["order"] >= inputs.LEAD_ORDER:
            lead = sc.leading_error_term(scheme, inputs.LEAD_ORDER)
            expected[f"lead/{item['id']}/{inputs.LEAD_ORDER}"] = lead_digest(lead, sc.word_str)

    folder = ROOT / ".bench_out" / "schemes"
    folder.mkdir(parents=True, exist_ok=True)
    (folder / "bad-json.json").write_text(inputs.BAD_JSON_TEXT)
    for item in schemes.values():
        (folder / f"{item['id']}.json").write_text(inputs.scheme_file_text(item))
    for argv, want_code in set(inputs.CLI_FULL + inputs.CLI_SMALL):
        for resolved in variants(argv):
            real = [str(folder.relative_to(ROOT) / (a[1:] + ".json")) if a.startswith("@")
                    else a for a in resolved]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(real)
            if code != want_code:
                raise SystemExit(f"{' '.join(resolved)}: exit {code}, expected {want_code}")
            expected["cli/" + " ".join(resolved)] = cli_digest(list(resolved), code, out.getvalue())

    target = HERE / "expected.json"
    target.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} hashes to {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
