"""Every demo runs cleanly; the exact ones print exactly what they always did."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitcond

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# SHA-256 of stdout; convergence_study.py prints floats, so only its exit is checked
EXACT_STDOUT_SHA256 = {
    "bch_terms.py": "fbcb198105f2580a34b5ccef4a00a3cafc1afd2883af1fc3126c680449c57236",
    "leading_error.py": "5ebf78007314884b5d28a92b73d49e2606f07fb73c77ff8b2f5540d7c5a921d8",
    "lyndon_basis.py": "18f722b7e3700431f68968e0cf06987c197cf4faf564a39d5626305a056148b8",
    "order_conditions.py": "76cc3d4c8bdc5f52a6796b63d99edb201990f3e4750203f2d144b673471fbab2",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_cleanly(demo):
    package_root = str(Path(splitcond.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo in EXACT_STDOUT_SHA256:
        digest = hashlib.sha256(done.stdout.encode("utf-8")).hexdigest()
        assert digest == EXACT_STDOUT_SHA256[demo]
