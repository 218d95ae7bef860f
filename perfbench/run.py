"""The splitcond benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/splitcond.  A run repeats
rounds until --seconds have passed (at least MIN_ROUNDS).  A round is one
fresh library worker verifying seeded streams of schemes (cold first calls,
then four warm passes), two fresh library workers deriving condition
systems, and a closed loop of CLI subprocesses, one operation at a time.  The
workload decides which of the three fills the round; see inputs.WORKLOADS
and README.md.

Every output is checked against the SHA-256 values in expected.json and every
verdict against the one the witness has by construction.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  A fuller record with
the environment, hash seeds and trace spans goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracer
from worker import Clock, cli_digest, digest, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3  # an untraced run takes each operation's cost over these
MIN_TRACED_ROUNDS = 4  # alternating untraced and traced
LAST_ROUND_START_S = 120  # no round starts later than this
RUN_DEADLINE_S = 170  # a child still running then is killed: runs end within 180 s
# The reference loop's time (worker.reference) on an unloaded core of the
# machine this benchmark was defined on: Intel Xeon, 2 vCPUs, Python 3.11.7.
REFERENCE_NOMINAL_S = 1.36e-3


def quantile(values, q: float) -> float:
    """Inclusive quantile; 0.0 when a broken program left no samples."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _reap(proc: subprocess.Popen, deadline: float) -> tuple[str, str, bool]:
    """Close the child's input and wait for it; kill it at the deadline.

    Returns (stdout, stderr, whether it was killed).
    """
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return out, err, False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return out, err + "\nkilled: the run's deadline passed", True


class Worker:
    """One library worker process (worker.py); it replies in JSON lines."""

    def __init__(self, run: "Run", label: str, plan: dict):
        self.label = label
        self.deadline = run.deadline
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=run._env(label),
            text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.send(json.dumps(dict(plan, spawned=spawned)))

    def send(self, line: str) -> None:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker died; the missing reply is counted

    def reply(self) -> dict | None:
        """The next reply, or None if the worker died or the deadline passed."""
        wait = max(0.0, self.deadline - time.monotonic())
        if not select.select([self.proc.stdout], [], [], wait)[0]:
            return None
        return _parse(self.proc.stdout.readline())

    def finish(self) -> dict | None:
        """End the worker's input, wait for it and return its last reply."""
        out, _, _ = _reap(self.proc, self.deadline)
        return _parse(out.strip().splitlines()[-1] if out.strip() else "")


def _parse(line: str) -> dict | None:
    try:
        return json.loads(line)
    except ValueError:
        return None


class Run:
    def __init__(self, workload: str, seed: int, expected: dict):
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.phases = inputs.WORKLOADS[workload]
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.hash_seeds: dict[str, int] = {}
        self.streams = inputs.verify_streams(seed, self.phases["verify"])
        self.commands = inputs.cli_commands(seed, self.phases["cli"])
        self.round_commands = self.commands * self.phases["cli_passes"]
        self._write_scheme_files()

    # -- processes -------------------------------------------------------------

    def _env(self, label: str) -> dict:
        hash_seed = random.Random(f"hash:{self.seed}:{label}").randrange(2**32)
        self.hash_seeds[label] = hash_seed
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
        env.pop("PYTHONSTARTUP", None)
        return env

    def _spawn(self, argv: list[str], env: dict):
        """Run one CLI command to exit, feeding it no input.

        Returns (exit code or None on timeout, stdout, stderr, seconds from
        spawn to exit, monotonic clock at spawn).
        """
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, err, killed = _reap(proc, self.deadline)
        return None if killed else proc.returncode, out, err, time.monotonic() - spawned, spawned

    # -- checks ------------------------------------------------------------------

    def _record(self, ok: bool, failure: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(failure)

    def _check(self, key: str, got: str | None, error: str | None = None,
               verdict: str | None = None) -> None:
        """One operation: it must not raise, must give the verdict its input
        has by construction, and must hash to the captured value."""
        want = self.expected.get(key)
        if error is not None:
            failure = f"raised {error.strip().splitlines()[-1]}"
        elif verdict is not None:
            failure = verdict
        elif want is None:
            failure = "no expected hash"
        elif got != want:
            failure = "output hash differs"
        else:
            failure = None
        self._record(failure is None, f"{key}: {failure}")

    def _check_ops(self, ops: list[dict]) -> None:
        for op in ops:
            wrong = (op["kind"] == "verify" and "error" not in op
                     and op["satisfied"] != op["expect"])
            self._check(op["key"], op.get("hash"), op.get("error"),
                        f"verdict {op.get('satisfied')}" if wrong else None)

    # -- one round -----------------------------------------------------------------

    def _write_scheme_files(self) -> None:
        folder = OUT / "schemes"
        folder.mkdir(parents=True, exist_ok=True)
        schemes = inputs.all_schemes()
        (folder / "bad-json.json").write_text(inputs.BAD_JSON_TEXT)
        for cmd in self.commands:
            for arg in cmd["argv"]:
                if arg.startswith("@") and arg[1:] in schemes:
                    text = inputs.scheme_file_text(schemes[arg[1:]])
                    (folder / f"{arg[1:]}.json").write_text(text)

    def _argv(self, cmd: dict) -> list[str]:
        return [
            str(Path(".bench_out", "schemes", a[1:] + ".json")) if a.startswith("@") else a
            for a in cmd["argv"]
        ]

    def _take(self, result: dict, label: str, reply: dict | None, traced: bool) -> None:
        """File a worker reply under the round; a missing reply is one failure."""
        self._record(reply is not None, f"{label}: the worker gave no reply")
        if reply is None:
            return
        self._check_ops(reply["ops"])
        for op in reply["ops"]:
            result[op["kind"]].append(op)
        if "setup_s" in reply:
            result["setup"].append(reply["setup_s"] / reply["setup_ref"] * REFERENCE_NOMINAL_S)
        if traced and "trace" in reply:
            result["traces"].append(reply["trace"])

    def round(self, index: int, traced: bool) -> dict:
        """The verify worker's cold calls and first warm pass, a derive
        worker, the extra verify workers of a small verify phase, the CLI
        commands and a second derive worker, with three more warm passes of
        the verify worker in between.  Spreading the repeats of an operation
        over the round keeps one slow spell of the machine from covering
        all of them."""
        result = {"derive": [], "verify": [], "lead": [], "cli": [], "setup": [],
                  "traces": [], "cli_traces": []}
        verify_plan = {"phase": "verify", "cells": self.streams,
                       "lead_order": inputs.LEAD_ORDER, "trace": traced}
        verifier = Worker(self, f"r{index}:verify", verify_plan)
        self._take(result, verifier.label, verifier.reply(), traced)
        self._derive(result, f"r{index}:derive0", traced)
        for k in range(1, self.phases["verify_workers"]):
            # more fresh workers give the cold first calls more repeats
            extra = Worker(self, f"r{index}:verify{k}", verify_plan)
            self._take(result, extra.label, extra.reply(), traced)
            self._take(result, extra.label, extra.finish(), traced)
        self._warm_pass(result, verifier, traced)
        trace_file = OUT / "cli-trace.json"
        for i, cmd in enumerate(self.round_commands):
            if i == len(self.round_commands) // 2:
                self._warm_pass(result, verifier, traced)
            env = self._env(f"r{index}:cli{i}")
            if traced:
                env["SPLITCOND_BENCH_TRACE"] = str(trace_file)
                trace_file.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "cli_launcher.py")]
            else:
                argv = [sys.executable, "-m", "splitcond.cli"]
            before = reference_seconds()
            code, out, err, seconds, spawned = self._spawn(argv + self._argv(cmd), env)
            ref = (before + reference_seconds()) / 2
            try:
                got = cli_digest(cmd["argv"], code, out)
            except ValueError:
                got = None
            self._check(cmd["key"], got, None if code is not None else err,
                        f"exit {code}" if code != cmd["code"] else None)
            result["cli"].append({"key": cmd["key"], "seconds": seconds, "ref": ref})
            if traced:
                self._record(trace_file.exists(), f"{cmd['key']}: no trace report")
            if traced and trace_file.exists():
                report = json.loads(trace_file.read_text())
                report.update(spawned=spawned, argv=cmd["argv"])
                result["cli_traces"].append(report)
        self._derive(result, f"r{index}:derive1", traced)
        self._warm_pass(result, verifier, traced)
        self._take(result, verifier.label, verifier.finish(), traced)
        return result

    def _derive(self, result: dict, label: str, traced: bool) -> None:
        plan = {"phase": "derive", "grid": self.phases["grid"], "trace": traced}
        worker = Worker(self, label, plan)
        self._take(result, label, worker.finish(), traced)

    def _warm_pass(self, result: dict, verifier: "Worker", traced: bool) -> None:
        verifier.send("pass")
        self._take(result, verifier.label, verifier.reply(), traced)

    # -- metrics ---------------------------------------------------------------------

    def end_to_end(self, rounds: list[dict], rss_kib: int) -> dict:
        warm = op_costs(rounds, "verify", lambda op: not op["first"])
        lead = op_costs(rounds, "lead")
        cli = op_costs(rounds, "cli")
        values = {
            "setup_s": (quantile((s for r in rounds for s in r["setup"]), 0.5), "s"),
            "derive_taylor_s": (sum(op_costs(
                rounds, "derive", lambda op: op["route"] == "taylor")), "s"),
            "derive_bch_s": (sum(op_costs(
                rounds, "derive", lambda op: op["route"] == "bch")), "s"),
            "verify_first_s": (sum(op_costs(rounds, "verify", lambda op: op["first"])), "s"),
            "verify_p50_ms": (quantile(warm, 0.5) * 1e3, "ms"),
            "verify_p90_ms": (quantile(warm, 0.9) * 1e3, "ms"),
            "lead_p50_ms": (quantile(lead, 0.5) * 1e3, "ms"),
            "cli_p50_ms": (quantile(cli, 0.5) * 1e3, "ms"),
            "cli_p90_ms": (quantile(cli, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
            "ok_frac": ((self.attempted - len(self.failures)) / self.attempted, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def per_layer(self, plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
        merged = [merge_traces(r["traces"] + r["cli_traces"]) for r in traced]
        absent = sorted({n for m in merged for n in m["absent"]})
        values: dict[str, tuple[float, str]] = {}
        for name, *_ in tracer.KERNELS:
            values[f"{name}.calls"] = (merged[0]["stats"].get(name, [0])[0], "count")
            values[f"{name}.self_s"] = (min(
                m["stats"].get(name, [0, 0.0])[1] for m in merged), "s")
        for name, *_ in tracer.ENTRIES:
            values[f"{name}.calls"] = (merged[0]["stats"].get(name, [0])[0], "count")
            values[f"{name}.total_s"] = (min(
                m["stats"].get(name, [0, 0.0, 0.0])[2] for m in merged), "s")
        for name in tracer.SIZE_COUNTS:
            values[name] = (merged[0]["sizes"][name],
                            "bits" if name.endswith("bits_max") else "count")
        for name in ("conditions.cache.hits", "conditions.cache.misses"):
            values[name] = (merged[0]["cache"][name], "count")
        counts = [
            ({k: v[0] for k, v in m["stats"].items()}, m["sizes"], m["cache"]) for m in merged
        ]
        self._record(all(c == counts[0] for c in counts[1:]),
                     "trace: call or size counts differ between traced rounds")
        cli = [t for r in traced for t in r["cli_traces"]]
        started = [(t["started"] - t["spawned"]) * 1e3 for t in cli]
        values["cli.interp_start_ms"] = (quantile(started, 0.5), "ms")
        values["cli.import_ms"] = (quantile((t["import_s"] * 1e3 for t in cli), 0.5), "ms")
        values["cli.main_ms"] = (quantile((t["main_s"] * 1e3 for t in cli), 0.5), "ms")
        values["cli.main_verify_ms"] = (quantile(
            (t["main_s"] * 1e3 for t in cli if t["argv"][0] == "verify"), 0.5), "ms")
        kinds = ("derive", "verify", "lead", "cli")
        base = sum(sum(op_costs(plain, kind)) for kind in kinds)
        values["trace.overhead_frac"] = (
            sum(sum(op_costs(traced, kind)) for kind in kinds) / base - 1, "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, absent


def op_costs(rounds: list[dict], kind: str, keep=lambda op: True) -> list[float]:
    """Per operation, its cost over all its repeats, in seconds.

    Every round repeats the same operations on the same inputs.  Other
    tenants of a shared machine slow a core by up to 2x, in spells that last
    from milliseconds to minutes, so a whole run can land in a slow spell.
    Each sample therefore comes with the time of a fixed reference loop on
    the same core: around and inside a library operation (worker.Clock), or
    around a CLI command, timed by this process.  The operation's time over
    that reference time, times REFERENCE_NOMINAL_S, is its time on an
    unloaded core; an operation's cost is the median of that over its
    repeats.  Sums and quantiles are then taken over operations.
    """
    samples: dict[str, list[float]] = {}
    for r in rounds:
        for op in r[kind]:
            if keep(op):
                scaled = op["seconds"] / op["ref"] * REFERENCE_NOMINAL_S
                samples.setdefault(op["key"], []).append(scaled)
    return [statistics.median(v) for v in samples.values()]


def merge_traces(reports: list[dict]) -> dict:
    stats: dict[str, list] = {}
    sizes = dict.fromkeys(tracer.SIZE_COUNTS, 0)
    cache = {"conditions.cache.hits": 0, "conditions.cache.misses": 0}
    absent: set[str] = set()
    for rep in reports:
        for name, (calls, self_s, total_s) in rep["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        for name, value in rep["sizes"].items():
            sizes[name] = max(sizes[name], value) if name.endswith("_max") else sizes[name] + value
        for name, value in rep["cache"].items():
            cache[name] += value
        absent.update(rep["absent"])
    return {"stats": stats, "sizes": sizes, "cache": cache, "absent": sorted(absent)}


def environment(numpy_version: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    sources = sorted((SRC / "splitcond").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest({str(p.relative_to(SRC)): p.read_text() for p in sources}),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="table of expected output hashes")
    args = parser.parse_args()

    if not (SRC / "splitcond" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'splitcond'}", file=sys.stderr)
        return 2
    expected = json.loads(args.expected.read_text())
    OUT.mkdir(exist_ok=True)
    # one core for the runner and every process it starts, so that the
    # reference loop timed around a CLI command ran where the command ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    Clock()  # let the interpreter specialise the reference loop
    run = Run(args.workload, args.seed, expected)

    # an untimed import first: it compiles the bytecode and fails fast when
    # the package cannot be imported at all
    code, out, err, *_ = run._spawn(
        [sys.executable, "-c", "import splitcond, numpy; print(numpy.__version__)"],
        run._env("warmup"),
    )
    if code != 0:
        print(f"error: cannot import splitcond:\n{err}", file=sys.stderr)
        return 2

    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        index = len(plain) + len(traced)
        want_trace = bool(args.trace) and index % 2 == 1
        round_start = time.monotonic()
        (traced if want_trace else plain).append(run.round(index, want_trace))
        now = time.monotonic()
        done = index + 1
        needed = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
        if now - start > LAST_ROUND_START_S and (traced or not args.trace):
            break
        next_end = now + (now - round_start)
        if done >= needed and next_end > start + args.seconds:
            break
        if not args.trace and done >= 2 and next_end > start + 1.5 * args.seconds:
            break  # a heavily loaded machine: bound the run length

    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    absent: list[str] = []
    if args.trace:
        metrics, absent = run.per_layer(plain, traced)
    else:
        metrics = run.end_to_end(plain, rss_kib)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": {"plain": len(plain), "traced": len(traced)},
        "wall_s": time.monotonic() - start,
        "environment": environment(out.strip()),
        "hash_seeds": run.hash_seeds,
        "absent": absent,
        "failures": run.failures,
        "metrics": metrics,
    }
    record["ops"] = [
        [i, kind, op["key"], op["seconds"], op.get("ref")]
        for i, r in enumerate(plain + traced)
        for kind in ("derive", "verify", "lead", "cli") for op in r[kind]
    ]
    if args.trace:
        record["spans"] = [t["spans"] for r in traced for t in r["traces"] + r["cli_traces"]]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    for failure in run.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    if absent:
        print(f"absent from this commit: {', '.join(absent)}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
