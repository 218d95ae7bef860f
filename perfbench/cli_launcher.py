"""Traced stand-in for `python -m splitcond.cli ARGS...`.

Times the import of the CLI, installs the per-layer tracer, calls
splitcond.cli.main(ARGS) and exits with its code.  The command's stdout is
untouched; the timing and trace report goes to the file named by the
SPLITCOND_BENCH_TRACE environment variable.

    SPLITCOND_BENCH_TRACE=out.json python perfbench/cli_launcher.py lyndon --max-len 3
"""

import time

_STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    start = time.perf_counter()
    import splitcond.cli

    imported = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    begin = time.perf_counter()
    code = splitcond.cli.main(argv)
    end = time.perf_counter()
    sys.stdout.flush()
    report = tracer.report()
    report.update(started=_STARTED, import_s=imported - start, main_s=end - begin)
    with open(os.environ["SPLITCOND_BENCH_TRACE"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
