"""Library worker: one fresh interpreter runs one phase of a benchmark round.

Reads a JSON plan as the first line of stdin, imports splitcond, builds the
plan's inputs and then runs its operations one at a time, timing each.
Replies are JSON lines on stdout: per-operation latencies and output
hashes, its set-up time and, in the last reply and when the plan asks for
it, the per-layer trace.  run.py checks the hashes; the worker only
computes them, outside the timed region.

    python perfbench/worker.py < plan.json
"""

import hashlib
import json
import signal
import sys
import time
import traceback
from fractions import Fraction


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def system_digest(system) -> str:
    return digest(system.to_records())


def verdict_digest(report, word_str) -> str:
    return digest({
        "satisfied": report.satisfied,
        "residuals": [[q, word_str(w), str(r)] for q, w, r in report.residuals],
    })


def lead_digest(decomposition, word_str) -> str:
    return digest({
        "degree": decomposition.degree,
        "terms": [[word_str(w), str(c)] for w, c in decomposition.items()],
    })


def _canonical_floats(value):
    if isinstance(value, float):
        return float(f"{value:.4g}")
    if isinstance(value, list):
        return [_canonical_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical_floats(v) for k, v in value.items()}
    return value


def cli_digest(argv, code: int, stdout: str) -> str:
    """Exit code plus stdout; converge floats are cut to four digits, so the
    hash does not depend on the last bits a BLAS build produces."""
    if argv and argv[0] == "converge" and code == 0:
        stdout = json.dumps(_canonical_floats(json.loads(stdout)), sort_keys=True)
    return digest({"code": code, "stdout": stdout})


def reference() -> int:
    """A fixed pure-Python loop of Fraction arithmetic and dict updates, the
    kind of work splitcond does, that uses nothing of splitcond.  Its time
    measures how fast the core runs at that moment; see run.op_costs."""
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + x.numerator % 1000
    return len(acc)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Clock:
    """Times operations and the core's speed while they run.

    The reference loop is timed before and after each operation, and every
    SAMPLE_PERIOD_S inside it from a SIGALRM handler, which Python runs
    between bytecodes of the operation.  The handler's time is taken out of
    the operation's.  The mean of those reference times is the operation's
    "ref"; a long operation that spans fast and slow spells of the core gets
    the mean speed over its own run.  The reference timed after one
    operation also serves as the one before the next, unless the worker sat
    idle in between (forget()).
    """

    SAMPLE_PERIOD_S = 0.05

    def __init__(self):
        # the first calls let the interpreter specialise the loop; the median
        # of the rest is the core's speed right after set-up
        times = [reference_seconds() for _ in range(20)]
        self.at_start = sorted(times[10:])[5]
        self._before: float | None = None
        self._inside: list[float] = []
        self._paused = 0.0

    def forget(self) -> None:
        self._before = None

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        self._inside.append(reference_seconds())
        self._paused += time.perf_counter() - entered

    def timed(self, ops: list, op: dict, fn):
        """Run fn() as one timed operation; a raise is recorded, not propagated."""
        ops.append(op)
        refs = [self._before if self._before is not None else reference_seconds()]
        self._inside, self._paused = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_PERIOD_S, self.SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            return fn()
        except Exception:  # the run must go on and count the failure
            op["error"] = traceback.format_exc(limit=3)
            return None
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            op["seconds"] = end - start - self._paused
            self._before = reference_seconds()
            refs += self._inside + [self._before]
            op["ref"] = sum(refs) / len(refs)


def run_derive(sc, clock: Clock, plan: dict, ops: list) -> None:
    for stages, order, route in plan["grid"]:
        op = {"kind": "derive", "route": route, "key": f"system/{stages}/{order}/{route}"}
        system = clock.timed(ops, op, lambda: sc.condition_system(stages, order, route))
        if system is not None:
            op["hash"] = system_digest(system)


class Verifier:
    """The verify phase: cold first calls, then warm passes on request.

    The first call of each cell builds its condition system.  A warm pass
    verifies the rest of every stream, round-robin so that a burst of
    machine noise spreads over all cells, and then takes the leading error
    term of each scheme that passed at the lead order.
    """

    def __init__(self, sc, clock: Clock, plan: dict, schemes: dict):
        self.sc = sc
        self.clock = clock
        self.cells = plan["cells"]
        self.lead_order = plan["lead_order"]
        self.schemes = schemes

    def _verify(self, ops: list, cell: dict, item: dict, first: bool, passing: dict) -> None:
        order, route = cell["order"], cell["route"]
        scheme = self.schemes[item["id"]]
        op = {
            "kind": "verify",
            "first": first,
            "key": f"verify/{item['id']}/{len(item['a'])}/{order}/{route}",
            "expect": order <= item["order"],
        }
        report = self.clock.timed(ops, op, lambda: self.sc.verify_scheme(scheme, order, route))
        if report is not None:
            op["satisfied"] = report.satisfied
            op["hash"] = verdict_digest(report, self.sc.word_str)
            if report.satisfied and order == self.lead_order:
                passing.setdefault(item["id"], scheme)

    def cold(self, ops: list) -> None:
        for cell in self.cells:
            self._verify(ops, cell, cell["schemes"][0], True, {})

    def warm_pass(self, ops: list) -> None:
        self.clock.forget()
        passing: dict[str, object] = {}
        longest = max(len(cell["schemes"]) for cell in self.cells)
        for i in range(1, longest):
            for cell in self.cells:
                if i < len(cell["schemes"]):
                    self._verify(ops, cell, cell["schemes"][i], False, passing)
        for ident, scheme in passing.items():
            op = {"kind": "lead", "key": f"lead/{ident}/{self.lead_order}"}
            decomposition = self.clock.timed(
                ops, op, lambda: self.sc.leading_error_term(scheme, self.lead_order)
            )
            if decomposition is not None:
                op["hash"] = lead_digest(decomposition, self.sc.word_str)


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    plan = json.loads(sys.stdin.readline())
    import splitcond as sc

    schemes = {}
    for cell in plan.get("cells", ()):
        for item in cell["schemes"]:
            schemes[item["id"]] = sc.ConcreteScheme(
                tuple(Fraction(x) for x in item["a"]),
                tuple(Fraction(x) for x in item["b"]),
                item["id"],
            )
    ready = time.monotonic()
    clock = Clock()

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops: list = []
    if plan["phase"] == "derive":
        run_derive(sc, clock, plan, ops)
        reply = {"setup_s": ready - plan["spawned"], "setup_ref": clock.at_start, "ops": ops}
    else:
        # the verify worker stays up through the round's other phases, so the
        # repeats of a warm operation are spread over the round; each "pass"
        # line asks for one more warm pass, and end of input ends the worker
        verifier = Verifier(sc, clock, plan, schemes)
        verifier.cold(ops)
        verifier.warm_pass(ops)
        _reply({"setup_s": ready - plan["spawned"], "setup_ref": clock.at_start, "ops": ops})
        while sys.stdin.readline().strip() == "pass":
            ops = []
            verifier.warm_pass(ops)
            _reply({"ops": ops})
        reply = {"ops": []}
    if tracer is not None:
        reply["trace"] = tracer.report()
    _reply(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
