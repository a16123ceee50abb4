"""Re-measure the rows of the "Baseline" table in ROADMAP.md.

Each CLI row runs its command in fresh processes through the benchmark's
own runner and reports the median spawn-to-exit time and the median time
inside ``cli.main``. Each library row calls one function in a fresh
process, with cold caches, and reports the median of the call's duration.
The full pytest row is left out: test and mpmath-oracle timings are not
product numbers.

Usage, from the root of a checkout: python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run

# fresh processes per row; each row reports the median
REPEAT = 5
CLI_ROWS = (
    ("region --kind A --group 2,2,5 --grid 100", 3.88),
    ("region --kind rank2-B --group 2,2,0 --grid 200", 1.66),
    ("region --kind G --group 2,2,1 --grid 200", 0.93),
    ("expand --n 3 --tau 1/2 --alpha 1 --lambda 3,3,2", 0.53),
    ("contour --m 1 --grid 96", 0.20),
    ("eval --n 2 --tau 1 --alpha 1/2 --lambda 1 --x 3/2,1/2", 0.11),
)

_GRID = """
from fractions import Fraction
def grid(top, n):
    return [(top * i / (n - 1), top * j / (n - 1)) for i in range(n) for j in range(i + 1)]
"""

# (label, ROADMAP figure in seconds or None for a range, setup code, timed statement)
LIBRARY_ROWS = (
    ("in_B, 20100 float points (group 2,2,0)", "1.2-1.6",
     _GRID + "from bcinterp import in_B\npts = grid(2.5, 200)",
     "[in_B(p, 2, (Fraction(3, 2), Fraction(1, 2))) for p in pts]"),
    ("in_A_certified w<=6, 5050 float points (group 2,2,5)", "1.5",
     _GRID + "from bcinterp import GroupData, group_params, in_A_certified\n"
     "prm = group_params(GroupData(2, 2, 5))\npts = grid(float(prm.rho[0] + 1), 100)",
     "[in_A_certified(p, prm, 6) for p in pts]"),
    ("in_G, same 5050 float points", "0.19",
     _GRID + "from bcinterp import GroupData, group_params, in_G\n"
     "prm = group_params(GroupData(2, 2, 5))\npts = grid(float(prm.rho[0] + 1), 100)",
     "[in_G(p, prm) for p in pts]"),
    ("okounkov_expand((3,3,2)), n=3", "0.44-0.60",
     "from fractions import Fraction\nfrom bcinterp import Params, okounkov_expand\n"
     "p = Params(3, Fraction(1, 2), Fraction(1))",
     "okounkov_expand((3, 3, 2), p)"),
    ("trace_contour(1, 96)", "0.031", "from bcinterp import trace_contour", "trace_contour(1, 96)"),
    ("trace_contour(1, 400)", "0.50", "from bcinterp import trace_contour", "trace_contour(1, 400)"),
)

_TIMER = """
import sys, time
sys.path.insert(0, {src!r})
{setup}
t = time.perf_counter()
{stmt}
print(time.perf_counter() - t)
"""


def time_library(setup: str, stmt: str) -> float:
    code = _TIMER.format(src=str(run.SRC), setup=setup, stmt=stmt)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, cwd=run.ROOT)
    return float(out.stdout)


def measure() -> list:
    run.preflight()
    rows = []
    for cmd, roadmap in CLI_ROWS:
        results = [run.run_command(cmd.split()) for _ in range(REPEAT)]
        if any(r["rc"] != 0 or r["report"] is None for r in results):
            raise run.BenchError(f"baseline command failed: {cmd}")
        rows.append({
            "row": f"bcinterp {cmd}",
            "roadmap_s": roadmap,
            "wall_s": statistics.median(r["wall"] for r in results) / 1e9,
            "main_s": statistics.median(r["main"] for r in results) / 1e9,
            "repeats": REPEAT,
        })
    for label, roadmap, setup, stmt in LIBRARY_ROWS:
        times = [time_library(setup, stmt) for _ in range(REPEAT)]
        rows.append({"row": label, "roadmap_s": roadmap, "call_s": statistics.median(times), "repeats": REPEAT})
    return rows


def main() -> int:
    for row in measure():
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
