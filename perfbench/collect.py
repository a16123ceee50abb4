"""Run the benchmark over many seeds and write a results file.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --out perfbench/results/BENCH_<rev>.json

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` for
SEEDS seeds from ``--first-seed`` on, each for the declared run_seconds,
and reports, for each end-to-end metric, the median, the quartiles and
the spread (q3 - q1) / median next to the metric's bound; then one
``--trace 1`` run for the per-layer metrics. It then times every entry of
every workload pool (pool_costs) and re-measures the ROADMAP baseline rows
(baseline.py). Machine information (CPU count, Python version, git
revision) goes at the top.

``--repeat`` makes a second set of the same code to hold against the
first: the end-to-end runs only. With ``--same-seed`` the set runs
``--first-seed`` SEEDS times, so that its spread is the host's and the
program's alone, not the seed's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys

import baseline
import run
import workloads

SEEDS = 10
# round-robin rounds over a workload's pool entries in pool_costs
POOL_ROUNDS = 5


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    if out.returncode != 0:
        raise run.BenchError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread_table(results: list, bounds: dict) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": bounds[name],
            "values": values,
        }
    return table


def pool_costs() -> dict:
    """The cost of every entry of every pool. Each of POOL_ROUNDS rounds
    runs a workload's entries once in turn. An entry's ``relative`` cost is
    the median over rounds of its time inside ``cli.main`` divided by the
    median time of its pool in the same round, which cancels the host's
    drift from round to round; ``main_ref_s`` is its median time, scaled
    by the probes around each round."""
    run.preflight()
    out = {}
    for workload, slots in workloads.WORKLOADS.items():
        entries = [entry for _, pool in slots for entry in pool]
        scaled = {entry: [] for entry in entries}
        relative = {entry: [] for entry in entries}
        rows = {}
        for _ in range(POOL_ROUNDS):
            before = run.probe_s()
            main_ns = {}
            for entry in entries:
                res = run.run_command(shlex.split(entry))
                if res["rc"] != 0 or res["report"] is None:
                    raise run.BenchError(f"pool entry failed: {entry}")
                main_ns[entry] = res["main"]
                rows[entry] = res["stdout"].count(b"\n") - 1
            speed = run.PROBE_NOMINAL_S / ((before + run.probe_s()) / 2)
            for _, pool in slots:
                middle = statistics.median(main_ns[e] for e in pool)
                for entry in pool:
                    scaled[entry].append(main_ns[entry] / 1e9 * speed)
                    relative[entry].append(main_ns[entry] / middle)
        pools = []
        for count, pool in slots:
            pools.append({
                "draw": count,
                "entries": [
                    {
                        "argv": e,
                        "main_ref_s": statistics.median(scaled[e]),
                        "rows": rows[e],
                        "relative": statistics.median(relative[e]),
                    }
                    for e in pool
                ],
            })
            print(f"{workload} pool, draw {count}: " + ", ".join(
                f"{e['argv'].split(' --', 1)[1]} {e['relative']:.3f}" for e in pools[-1]["entries"]), flush=True)
        out[workload] = pools
    return out


def machine() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=run.ROOT, check=True)
        revision = rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
    }


def main() -> int:
    spec = json.loads(run.BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description="Run the benchmark over many seeds.")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--same-seed", action="store_true", help="run --first-seed every time")
    parser.add_argument("--repeat", action="store_true", help="end-to-end runs only")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [args.first_seed] * SEEDS if args.same_seed else list(range(args.first_seed, args.first_seed + SEEDS))
    doc = {"machine": machine(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in seeds:
            results.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": spread_table(results, bounds),
        }
        for metric, row in entry["end_to_end"].items():
            flag = "ok" if row["spread"] <= row["bound"] / 3 else "WIDE"
            print(f"  {metric:14s} median {row['median']:.5g} {row['unit']:5s} spread {row['spread']:.4f} "
                  f"(bound {row['bound']}) {flag}", flush=True)
        if not args.repeat:
            traced = run_once(name, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_failed"] = traced["failed"]
        doc["workloads"][name] = entry
    if not args.repeat:
        doc["pool_costs"] = pool_costs()
        doc["baseline"] = baseline.measure()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
