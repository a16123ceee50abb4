"""The run form of the rasters: every public in_*_raster yields a row as its
maximal runs (stop, outcome), and exactnum._cells expands them to cells.
Each raster is checked against that form, and its expanded rows against
the point tests."""

import random
from fractions import Fraction

import pytest

from bcinterp.exactnum import _cells
from bcinterp.limits import in_W, in_W_raster
from bcinterp.rank2 import in_B, in_B_raster
from bcinterp.shimura import (GroupData, group_params, in_A_certified, in_A_raster, in_G, in_G_raster, in_square,
                              in_square_raster, in_U0_knapp_speh, in_U0_raster)


def assert_runs_are_rows(runs, axis, test):
    """Row i of runs has stops rising strictly from 0 to i + 1 and no two
    neighbouring runs with one outcome, and it expands to the point tests
    of (axis[i], axis[j]), j <= i."""
    runs = list(runs)
    assert len(runs) == len(axis)
    for i, row_runs in enumerate(runs):
        stops = [0, *(stop for stop, _ in row_runs)]
        assert all(a < b for a, b in zip(stops, stops[1:])) and stops[-1] == i + 1, (i, row_runs)
        outcomes = [outcome for _, outcome in row_runs]
        assert all(a != b for a, b in zip(outcomes, outcomes[1:])), (i, row_runs)
        assert _cells(row_runs) == [test((axis[i], x2)) for x2 in axis[: i + 1]], (i, axis[i])


def cli_axis(top, grid):
    return [top * i / (grid - 1) for i in range(grid)]


def draw(kind, seed):
    """A random raster of kind as region draws it: its group 2,d,b with
    --p in {-1, 0, 1} where the kind takes it (m for W), a grid in 2..41 of
    the CLI's window, and (runs, axis, point test)."""
    rng = random.Random(f"{kind}/{seed}")
    grid = rng.randint(2, 41)
    if kind == "W":
        m = rng.randint(0, 4)
        axis = cli_axis(Fraction(m + 1, 2) + 2, grid)
        return in_W_raster(axis, m), axis, lambda pt: in_W(pt, m)
    d, b = rng.randint(1, 2 if kind == "rank2-B" else 4), rng.randint(0, 4)
    g = GroupData(2, d, b, 0 if kind == "U0" else rng.choice((-1, 0, 1)))
    p = group_params(g)
    axis = cli_axis(p.rho[0] + 1, grid)
    if kind == "G":
        return in_G_raster(axis, p), axis, lambda pt: in_G(pt, p)
    if kind == "A":
        w = rng.randint(1, 6)
        return in_A_raster(axis, p, w), axis, lambda pt: in_A_certified(pt, p, w)
    if kind == "square":
        return in_square_raster(axis, p), axis, lambda pt: in_square(pt, p)
    if kind == "U0":
        return in_U0_raster(axis, b), axis, lambda pt: in_U0_knapp_speh(pt, b)
    return in_B_raster(axis, d, p.rho), axis, lambda pt: in_B(pt, d, p.rho)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["G", "A", "square", "U0", "rank2-B", "W"])
def test_run_generators_give_maximal_runs_of_the_public_rows(kind, seed):
    assert_runs_are_rows(*draw(kind, seed))


@pytest.mark.parametrize("seed", range(4))
def test_the_raster_kernel_gives_runs_on_an_unsorted_axis_with_repeats(seed):
    # _raster (behind in_G_raster and in_A_raster) and the gates of
    # in_B_raster take any exact axis: here one out of order, with repeated
    # values and values on the group's cell constants j + tau k + alpha,
    # where a factor is 0
    rng = random.Random(f"unsorted/{seed}")
    d, b = rng.randint(1, 2), rng.randint(0, 4)
    p = group_params(GroupData(2, d, b, rng.choice((-1, 0, 1))))
    pool = [rng.choice((-1, 1)) * (j + p.tau * k + p.alpha) for j in range(3) for k in range(3)]
    pool += [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(6)]
    axis = rng.sample(pool, rng.randint(2, 10))
    axis += rng.choices(axis, k=rng.randint(1, 4))
    rng.shuffle(axis)
    assert len(set(axis)) < len(axis) and axis != sorted(axis)
    assert_runs_are_rows(in_G_raster(axis, p), axis, lambda pt: in_G(pt, p))
    assert_runs_are_rows(in_A_raster(axis, p, 6), axis, lambda pt: in_A_certified(pt, p, 6))
    assert_runs_are_rows(in_B_raster(axis, d, p.rho), axis, lambda pt: in_B(pt, d, p.rho))
