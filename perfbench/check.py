"""Reference outputs and the checker that compares a command's result to them.

Every command a workload can generate has one reference, captured from the
program by ``record_reference.py`` and keyed by the command line. The exit
code is part of every reference. How the output is compared depends on what
decided it:

- ``exact``: outputs built from exact rational arithmetic (``expand``,
  ``verify``, ``eval``, ``eigenvalue``, ``region`` kinds ``A``, ``G``,
  ``U0``, ``square``) must be byte-identical; the reference keeps their
  SHA-256 and length.
- ``raster``: float-decided rasters (``region`` kinds ``rank2-B`` and
  ``W``) must have the same rows in the same order with the same
  ``member,witness`` flags; each coordinate must lie within TOL of the
  reference grid axis. The reference keeps the axis and the run-length
  encoded flags.
- ``lines``: ``contour`` CSVs must have the same lines, blank lines at the
  same places, and every number within TOL.
- ``json``: ``crossing`` objects must have the same keys, with every number
  within TOL.
"""

from __future__ import annotations

import hashlib
import json
import math

# |got - want| <= TOL * max(1, |want|) for float-decided coordinates
TOL = 1e-9
RASTER_HEADER = "x,y,member,witness"
FLOAT_REGION_KINDS = ("rank2-B", "W")


def key(argv) -> str:
    return " ".join(argv)


def kind_of(argv) -> str:
    cmd = argv[0]
    if cmd == "contour":
        return "lines"
    if cmd == "crossing":
        return "json"
    if cmd == "region" and argv[argv.index("--kind") + 1] in FLOAT_REGION_KINDS:
        return "raster"
    return "exact"


def make_reference(argv, rc: int, stdout: bytes) -> dict:
    kind = kind_of(argv)
    ref = {"kind": kind, "rc": rc}
    if kind == "exact":
        ref["sha256"] = hashlib.sha256(stdout).hexdigest()
        ref["bytes"] = len(stdout)
    elif kind == "raster":
        ref.update(_raster_reference(stdout.decode()))
    elif kind == "lines":
        ref["lines"] = stdout.decode().split("\n")
    else:
        ref["value"] = json.loads(stdout)
    return ref


def check(ref: dict, rc: int, stdout: bytes):
    """None when (rc, stdout) matches the reference, else the first reason
    it does not."""
    if rc != ref["rc"]:
        return f"exit code {rc}, expected {ref['rc']}"
    kind = ref["kind"]
    if kind == "exact":
        if len(stdout) != ref["bytes"] or hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
            return f"output differs from the exact reference ({len(stdout)} bytes, expected {ref['bytes']})"
        return None
    try:
        text = stdout.decode()
        if kind == "raster":
            return _check_raster(ref, text)
        if kind == "lines":
            return _check_lines(ref["lines"], text.split("\n"))
        return _check_json(ref["value"], json.loads(text), "$")
    except ValueError as exc:  # undecodable text, unparsable numbers or JSON
        return f"unreadable output: {exc}"


def close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= TOL * max(1.0, abs(want))


def _raster_rows(text: str):
    lines = text.split("\n")
    if lines[0] != RASTER_HEADER or lines[-1] != "":
        raise ValueError("not a region CSV")
    return [line.split(",") for line in lines[1:-1]]


def _raster_reference(text: str) -> dict:
    """Rows come in the order i = 0..grid-1, j = 0..i; the j = 0 row of
    each i carries axis value i, and row (i, j) has x = axis[i], y = axis[j]."""
    rows = _raster_rows(text)
    axis = []
    flags = []
    for (x, _y, member, witness), (_i, j) in zip(rows, _triangle(len(rows))):
        if j == 0:
            axis.append(float(x))
        flag = f"{member},{witness}"
        if flags and flags[-1][0] == flag:
            flags[-1][1] += 1
        else:
            flags.append([flag, 1])
    return {"axis": axis, "flags": flags}


def _triangle(count: int):
    i = j = 0
    for _ in range(count):
        yield i, j
        if j == i:
            i, j = i + 1, 0
        else:
            j += 1


def _check_raster(ref: dict, text: str):
    rows = _raster_rows(text)
    axis = ref["axis"]
    want_rows = len(axis) * (len(axis) + 1) // 2
    if len(rows) != want_rows:
        return f"{len(rows)} raster rows, expected {want_rows}"
    expected = (flag for flag, count in ref["flags"] for _ in range(count))
    for row, (i, j), flag in zip(rows, _triangle(want_rows), expected):
        if len(row) != 4:
            return f"row {i},{j} has {len(row)} fields"
        if not (close(float(row[0]), axis[i]) and close(float(row[1]), axis[j])):
            return f"row {i},{j} at ({row[0]}, {row[1]}), expected ({axis[i]!r}, {axis[j]!r})"
        if f"{row[2]},{row[3]}" != flag:
            return f"row {i},{j} flags {row[2]},{row[3]}, expected {flag}"
    return None


def _check_lines(want_lines, got_lines):
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    for n, (got, want) in enumerate(zip(got_lines, want_lines), start=1):
        if got == want:
            continue
        g, w = got.split(","), want.split(",")
        if len(g) != len(w) or not all(a == b or close(float(a), float(b)) for a, b in zip(g, w)):
            return f"line {n} is {got!r}, expected {want!r}"
    return None


def _check_json(want, got, path: str):
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{path}: keys differ"
        for k in want:
            reason = _check_json(want[k], got[k], f"{path}.{k}")
            if reason:
                return reason
        return None
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if close(float(got), want) else f"{path} is {got!r}, expected {want!r}"
    return None if got == want else f"{path} is {got!r}, expected {want!r}"
