"""Run one bcinterp command in this fresh interpreter, as the ``bcinterp``
console script would, and report what the benchmark needs to know.

Usage: python child.py TRACE ARGV...

TRACE is 0 or 1. The command's own stdout and stderr pass through
unchanged. After the command ends, one report line is appended to
stderr behind MARKER, also when ``main`` raised: the CLOCK_MONOTONIC reading taken once
``bcinterp.cli`` is imported, the time spent inside ``main``, the peak
resident set, the path the package was imported from, and with TRACE=1 the
tracer's summary. The exit status is the command's; an exception that
leaves ``main`` is printed and exits 1, as it would from the console script.
"""

import json
import os
import sys
import time
import traceback

MARKER = b"\n@@perfbench-report@@ "


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.
    getrusage's ru_maxrss is no use here: across exec it keeps the parent's
    resident set, so it would report the benchmark's memory."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run() -> int:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import bcinterp.cli

    imported_ns = time.monotonic_ns()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter_ns()
    try:
        rc = bcinterp.cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    main_ns = time.perf_counter_ns() - start
    report = {
        "imported_ns": imported_ns,
        "main_ns": main_ns,
        "rss_kb": peak_rss_kb(),
        "module": os.path.abspath(bcinterp.cli.__file__),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    sys.stderr.flush()
    sys.stderr.buffer.write(MARKER + json.dumps(report).encode() + b"\n")
    sys.stderr.flush()
    return rc


if __name__ == "__main__":
    sys.exit(run())
