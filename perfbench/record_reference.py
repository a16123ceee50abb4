"""Capture reference.json: the exit code and output of every command any
seed can generate, run once each from the checkout's own src/.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right: the benchmark
fails every later run whose output differs from what this records.
"""

from __future__ import annotations

import json
import sys

import check
import run
import workloads


def main() -> int:
    run.preflight()
    refs = {}
    for argv in workloads.all_commands():
        res = run.run_command(argv)
        if res["report"] is None:
            sys.stderr.write(f"{check.key(argv)}: no report\n{res['stderr'].decode(errors='replace')}")
            return 1
        refs[check.key(argv)] = check.make_reference(argv, res["rc"], res["stdout"])
        print(f"rc={res['rc']} {len(res['stdout']):8d} bytes  {check.key(argv)}", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], sort_keys=True)}" for k in sorted(refs)]
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
