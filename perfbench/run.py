"""bcinterp benchmark: run one workload as a single closed-loop client and
print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload raster-exact --seed 0 --seconds 35 --trace 0

The seed expands into a fixed list of ``bcinterp`` command lines (see
workloads.py). One pass runs them one at a time, each in a fresh Python
process, the way a user runs the ``bcinterp`` script; passes repeat until
``--seconds`` have gone by, give or take half a pass, and at least one
pass always completes. Every command's exit code and stdout are checked
against reference.json.

With ``--trace 0`` the end-to-end metrics are reported: medians over passes
of per-pass sums, each command scaled by the speed probe (probe.py, timed
between commands) to a machine on which it takes PROBE_NOMINAL_S, plus the
peak resident set. The scaled times are "reference seconds" (unit
``ref-s``); ``setup_s`` is scaled the same way, although its declared unit
is ``s``. With ``--trace 1`` every command runs twice in a row, untraced
and then traced, and the per-layer metrics of the traced runs
are reported together with the tracing overhead. The last line of stdout
is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status 0 means the run was measured, whatever the checks found: a
command that fails or dies counts in ``failed`` and makes ``correct``
false, even when every command does. 1 means the run could not be measured
(no program to run, no reference); 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer
import workloads
from child import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
COMMAND_TIMEOUT_S = 150
WARMUP = ["crossing", "--m", "0"]
BENCHMARK = ROOT / "BENCHMARK.json"
# The probe is timed between commands. End-to-end times are scaled to a
# machine on which it takes PROBE_NOMINAL_S (see README.md).
PROBE_NOMINAL_S = 0.1


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _spawn(script: str, args):
    # PYTHON* settings of the caller (a search path, no bytecode cache,
    # unbuffered output) would change what a command costs
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=COMMAND_TIMEOUT_S,
    )


def probe_s() -> float:
    """Spawn-to-exit time of the fixed reference process probe.py."""
    start = time.monotonic_ns()
    if _spawn("probe.py", []).returncode != 0:
        raise BenchError("the speed probe failed")
    return (time.monotonic_ns() - start) / 1e9


def run_command(argv, trace: bool = False) -> dict:
    """Run one command in a fresh interpreter. Times are in nanoseconds:
    ``wall`` from spawn to exit, ``setup`` from spawn until bcinterp.cli is
    imported, ``main`` inside cli.main. ``report`` is None when the child
    died before reporting."""
    spawned = time.monotonic_ns()
    proc = _spawn("child.py", ["1" if trace else "0", *argv])
    exited = time.monotonic_ns()
    stderr, sep, tail = proc.stderr.rpartition(MARKER)
    report = json.loads(tail) if sep else None
    if report is not None and not Path(report["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"bcinterp was imported from {report['module']}, not from {SRC}")
    return {
        "argv": argv,
        "rc": proc.returncode,
        "stdout": proc.stdout,
        "stderr": stderr if sep else proc.stderr,
        "wall": exited - spawned,
        "setup": report["imported_ns"] - spawned if report else None,
        "main": report["main_ns"] if report else None,
        "report": report,
    }


def load_references() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())


def preflight() -> None:
    """Fail before measuring when there is no program to measure. The
    untimed warm-up writes the package's bytecode cache, as installing it
    would, so that no timed command pays to compile it, and checks that
    the package is imported from this checkout. Whether the warm-up itself
    succeeds is left to the checked commands."""
    if not (SRC / "bcinterp" / "cli.py").is_file():
        raise BenchError(f"no bcinterp package under {SRC}")
    run_command(WARMUP)


class Loop:
    """Closed-loop client: one command at a time, checked as it finishes."""

    def __init__(self, commands, references):
        missing = [check.key(a) for a in commands if check.key(a) not in references]
        if missing:
            raise BenchError(f"no reference output for: {missing}")
        self.commands = commands
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, argv, trace: bool = False) -> dict:
        res = run_command(argv, trace)
        self.attempted += 1
        reason = check.check(self.references[check.key(argv)], res["rc"], res["stdout"])
        if reason is None and res["report"] is None:
            reason = "the process ended without a report"
        if reason is not None:
            self.failures.append(f"{check.key(argv)}{' [traced]' if trace else ''}: {reason}")
            sys.stderr.write(f"FAILED {self.failures[-1]}\n")
        # keep the row count, not the output: the parent stays small; a
        # command that failed may not even have printed the header
        res["rows"] = max(res.pop("stdout").count(b"\n") - 1, 0)
        return res

    def passes(self, seconds: float, trace: bool):
        """Yield the results of each pass. A pass starts while at least half
        of the last pass's length is left of ``seconds``, so that a run
        ends within half a pass of it; the first pass always runs.
        Untraced, the probe runs before the first command and after every
        command, and each result carries the mean of the two probes around
        it."""
        deadline = time.monotonic() + seconds
        before = None if trace else probe_s()
        last_pass = 0.0
        while last_pass == 0.0 or time.monotonic() + last_pass / 2 < deadline:
            started = time.monotonic()
            results = []
            for argv in self.commands:
                if trace:
                    results.append((self.run(argv), self.run(argv, trace=True)))
                else:
                    res = self.run(argv)
                    after = probe_s()
                    res["probe"] = (before + after) / 2
                    before = after
                    results.append(res)
            last_pass = time.monotonic() - started
            yield results


def end_to_end(passes) -> tuple[dict, dict]:
    """The end-to-end metrics, each command scaled by the probe times taken
    around it, and the same figures unscaled."""

    def pass_metrics(results, scaled):
        # commands that died without a report have no times; they are
        # counted as failures, and a pass without a timed region command
        # has a rate of 0
        def seconds(key, rs):
            return sum(r[key] * (PROBE_NOMINAL_S / r["probe"] if scaled else 1.0) for r in rs) / 1e9

        ok = [r for r in results if r["report"]]
        region = [r for r in ok if r["argv"][0] == "region"]
        region_s = seconds("main", region)
        return {
            "wall_s": seconds("wall", ok),
            "setup_s": seconds("setup", ok),
            "points_per_s": sum(r["rows"] for r in region) / region_s if region_s else 0.0,
        }

    rss_mb = max((r["report"]["rss_kb"] for p in passes for r in p if r["report"]), default=0) / 1024
    out = []
    for scaled in (True, False):
        rows = [pass_metrics(p, scaled) for p in passes]
        out.append({**{k: statistics.median(r[k] for r in rows) for k in rows[0]}, "peak_rss_mb": rss_mb})
    return out[0], out[1]


def per_layer(passes) -> dict:
    rows = []
    for p in passes:
        pairs = [(plain, traced) for plain, traced in p if plain["report"] and traced["report"]]
        metrics = tracer.layer_metrics(tracer.merge(t["report"]["trace"] for _, t in pairs))
        plain_main = sum(plain["main"] for plain, _ in pairs)
        traced_main = sum(t["main"] for _, t in pairs)
        metrics["trace.overhead_frac"] = traced_main / plain_main - 1.0 if plain_main else 0.0
        rows.append(metrics)
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    preflight()
    loop = Loop(workloads.commands(workload, seed), load_references())
    passes = list(loop.passes(seconds, trace))
    unscaled = {}
    if trace:
        metrics = per_layer(passes)
    else:
        metrics, unscaled = end_to_end(passes)
    return {
        "passes": len(passes),
        "commands": len(loop.commands),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
        "unscaled": unscaled,
        "probe_s": None if trace else statistics.median(r["probe"] for p in passes for r in p),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        units = declared_units(bool(args.trace))
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        if set(out["metrics"]) != set(units):
            raise BenchError(f"metrics {sorted(out['metrics'])} differ from BENCHMARK.json {sorted(units)}")
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {out['passes']} passes of "
        f"{out['commands']} commands, {out['attempted']} attempted, {out['failed']} failed, "
        f"fail_frac {out['failed'] / out['attempted']}"
    )
    if out["probe_s"] is not None:
        print(f"  probe median {out['probe_s']:.4g} s; times below are scaled to {PROBE_NOMINAL_S} s a probe "
              f"(reference seconds); unscaled, in s and 1/s: " + ", ".join(
            f"{k} {v:.6g}" for k, v in out["unscaled"].items()))
    for name, value in out["metrics"].items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
