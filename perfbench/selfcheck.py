"""Show that the output-identity gate is not vacuous.

    python3 perfbench/selfcheck.py

Copies expected.json with one hash corrupted (a derive cell that every
workload runs), runs one short benchmark against the copy and requires
correct == false and failed > 0.  Exits 0 when the gate caught the
corruption, 1 when it did not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORRUPTED_KEY = "system/3/4/bch"


def main() -> int:
    expected = json.loads((HERE / "expected.json").read_text())
    expected[CORRUPTED_KEY] = "0" * 64
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    corrupted = out_dir / "expected-corrupted.json"
    corrupted.write_text(json.dumps(expected))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "derive", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--expected", str(corrupted)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    caught = not result["correct"] and result["failed"] > 0
    ok_frac = result["metrics"]["ok_frac"]["value"]
    print(f"corrupted {CORRUPTED_KEY}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          f"failed_frac={1 - ok_frac:.4f} -> {'caught' if caught else 'NOT caught'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
