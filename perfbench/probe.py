"""Fixed reference load for the benchmark's speed probe.

A fresh interpreter that does what a bcinterp command does, minus bcinterp:
import the same standard modules, run a fixed amount of Fraction arithmetic,
and format and write CSV-style rows. It never imports anything from the
repository, so no change to the program can change its cost; only the
machine's speed can. run.py times it between commands.
"""

import argparse  # noqa: F401  (imported for its start-up cost, like the CLI)
import json  # noqa: F401
import sys
from fractions import Fraction


def load() -> int:
    rows = []
    acc = Fraction(0)
    for i in range(1, 2500):
        x = Fraction(7 * i, 113)
        acc += (x * x - Fraction(3, 2)) / (x + 1)
        rows.append(f"{float(x):.12g},{float(acc):.12g},{i % 2},")
    text = "\n".join(rows) + "\n"
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(load())
