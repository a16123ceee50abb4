"""The benchmark's workloads: seeded lists of ``bcinterp`` command lines.

A workload is a tuple of slots. A slot is (how many to draw, pool). The
seed draws entries from each pool and shuffles the pass; the program only
ever sees the resulting argv. ``wall_s`` and ``points_per_s`` are compared
across runs with different seeds, so the work in a pass must not depend on
the seed. A pool therefore holds either one raster at neighbouring grid
sizes (the group is fixed and the seed picks the points), or commands whose
costs differ by a small share of a pass. ``collect.py`` measures every
entry against its pool. Why each workload exists is in README.md.
"""

from __future__ import annotations

import random
import shlex

WORKLOADS = {
    # Exact rasters: Fraction grid points, so the time goes to exact
    # tableau-sum evaluation of a few partitions at many points. Never
    # reaches rank2 or limits. Groups of one kind differ in cost by up to
    # a factor of two, so, as in raster-float, the groups are fixed and
    # the seed draws each raster's grid, that is, its points.
    "raster-exact": (
        *((1, tuple(f"region --kind A --group 2,{g} --grid {n}" for n in range(54, 59))) for g in ("1,1", "4,3", "4,4")),
        *(
            (1, tuple(f"region --kind A --group 2,{g} --grid {n} --max-weight 8" for n in range(36, 41)))
            for g in ("3,1", "4,0")
        ),
        *((1, tuple(f"region --kind G --group 2,{g} --grid {n}" for n in range(98, 103))) for g in ("1,1", "4,3")),
    ),
    # Float sign decisions: the rank-2 boundary series R_series behind
    # region rank2-B, and the limit curves (S_div / s_m) behind region W and
    # contour. Never reaches okounkov or partitions. The cost of a rank2-B
    # raster per point grows steeply with b and no two groups of one d cost
    # the same, so the groups are fixed and the seed draws the grid, that
    # is, the points.
    "raster-float": (
        (1, tuple(f"region --kind rank2-B --group 2,1,2 --grid {g}" for g in range(98, 103))),
        (1, tuple(f"region --kind rank2-B --group 2,2,3 --grid {g}" for g in range(98, 103))),
        (1, tuple(f"region --kind W --m {m} --grid 200" for m in (1, 2, 3))),
        (2, (
            "contour --m 0 --grid 348",
            "contour --m 1 --grid 321",
            "contour --m 2 --grid 312",
            "contour --m 3 --grid 300",
        )),
    ),
    # Many short commands: okounkov used the other way round (many
    # partitions, few points each, a cold tableau compile in every
    # process), the dense Fraction solve behind expand, every verify
    # suite, and interpreter start plus import on each command. The small
    # U0 rasters give this workload a points_per_s of its own, one that is
    # almost all CLI formatting.
    "algebra": (
        (1, (
            "expand --n 2 --tau 1/2 --alpha 1 --lambda 5,3",
            "expand --n 2 --tau 1/2 --alpha 1 --lambda 4,4",
            "expand --n 2 --tau 1 --alpha 1/2 --lambda 5,3",
            "expand --n 2 --tau 3/2 --alpha 1 --lambda 6,2",
        )),
        (1, (
            "expand --n 3 --tau 1 --alpha 1 --lambda 3,3,2",
            "expand --n 3 --tau 2 --alpha 1/2 --lambda 3,3,2",
            "expand --n 3 --tau 1/2 --alpha 1/2 --lambda 3,3,2",
            "expand --n 3 --tau 3/2 --alpha 1/2 --lambda 3,3,2",
        )),
        (1, (
            "expand --n 4 --tau 1/2 --alpha 1 --lambda 2,2,1,1",
            "expand --n 4 --tau 1 --alpha 1/2 --lambda 2,2,1,1",
            "expand --n 4 --tau 3/2 --alpha 1 --lambda 2,2,1,1",
            "expand --n 4 --tau 1/2 --alpha 1 --lambda 3,1,1,1",
        )),
        # the seed fixes how many 100000-term Gamma products the limits
        # suite runs; each of these four seeds runs four
        *(
            (1, tuple(f"verify --suite {suite} --seed {seed}" for seed in (1, 5, 6, 7)))
            for suite in ("characterization", "tau1-det", "columns", "rectangles", "kmu", "rank2", "limits")
        ),
        (1, (
            "eval --n 3 --tau 1/2 --alpha 1 --lambda 3,2,1 --x 7/2,5/3,1/2",
            "eval --n 3 --tau 1 --alpha 1/2 --lambda 4,2 --x 9/4,3/2,-1/3",
            "eval --n 3 --tau 3/2 --alpha 1 --lambda 2,2,2 --x 5/2,7/3,1/5",
            "eval --n 3 --tau 1/2 --alpha 3/2 --lambda 3,3 --x 11/3,2,3/4",
        )),
        (1, (
            "eigenvalue --group 3,2,1 --mu 2,1 --x 7/2,5/3,1/2",
            "eigenvalue --group 3,1,2 --mu 3,1 --x 9/4,3/2,1/3",
            "eigenvalue --group 2,2,3 --mu 2,2 --x 5/2,1/2",
            "eigenvalue --group 2,4,1 --mu 4 --x 13/3,7/5",
        )),
        (1, tuple(f"crossing --m {m}" for m in range(4))),
        # all four U0 rasters run in every pass: their cost per point
        # depends on the window, that is on d
        (4, tuple(f"region --kind U0 --group 2,{d},4 --grid 160" for d in (1, 2, 3, 4))),
    ),
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    picked = [entry for count, pool in WORKLOADS[workload] for entry in rng.sample(pool, count)]
    rng.shuffle(picked)
    return [shlex.split(entry) for entry in picked]


def all_commands() -> list[list[str]]:
    """Every argv any seed can produce, each once."""
    return [shlex.split(entry) for slots in WORKLOADS.values() for _, pool in slots for entry in pool]
