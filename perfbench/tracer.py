"""Per-layer tracing of one bcinterp process, from outside the package.

Every function a package module exports in ``__all__`` is replaced by a
wrapper that records one span per call: (function, parent span, start, end).
Modules import each other with ``from .x import y``, so each module-level
name that points at an original function is rebound to its wrapper; calls
between modules and inside a module then pass through the wrappers too. A
generator function gets one span per ``next()`` and a count of the items it
yields. Spans stay in memory; ``summary()`` reduces them once, at the end of
the process.

The layers are the package modules. ``cli`` has no ``__all__``; its public
functions (``main``, ``build_parser`` and the ``cmd_*`` handlers) are
wrapped instead.

A span costs about a microsecond here, so four tiny leaf helpers are left
unwrapped: ``exactnum.is_exact`` and ``exactnum.as_exact``, one-line checks
made on nearly every arithmetic step, and ``limits.s_m`` and
``limits.s_m_prime``, which ``S_div`` calls two at a time on every contour
node. With those two wrapped, a traced raster-float pass ran about 50%
slower than an untraced one; without them, about 5%.
Their time counts as self time of the caller's layer: for s_m that is
``limits`` itself, except for the few direct calls the ``verify --suite
limits`` loop in ``cli`` makes.
"""

from __future__ import annotations

import importlib
import inspect
import time
from fractions import Fraction

LAYERS = ("cli", "partitions", "okounkov", "shimura", "rank2", "limits", "exactnum")
UNWRAPPED = {"exactnum.is_exact", "exactnum.as_exact", "limits.s_m", "limits.s_m_prime"}

EVALS = ("okounkov.okounkov_eval", "okounkov.okounkov_eval_scaled")
DECISIONS = ("shimura.in_G", "shimura.in_A_certified", "shimura.in_square", "shimura.in_U0_knapp_speh")
EXPAND = ("okounkov.okounkov_expand", "okounkov.interpolate_from_values")
# functions whose call durations are kept for percentiles, and the name
# of their sample list in the summary
SAMPLED = {name: "decision" for name in DECISIONS}
SAMPLED["rank2.R_series"] = "R_series"

_ERROR = 1
_EXACT = 2


def _exact_point(args) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in args[1])


class Tracer:
    """Span recorder for the functions of one package."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self.func: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.flags: list[int] = []
        self.items: dict[int, int] = {}
        self._stack: list[int] = []
        self._last_error = None

    # ------------------------------------------------------------ recording
    # The wrappers are the hot path of a traced run, so they reach the span
    # lists through local names.

    def _error(self, idx: int, exc: BaseException) -> None:
        # an exception is counted once, at the innermost span it leaves
        if exc is not self._last_error:
            self._last_error = exc
            self.flags[idx] |= _ERROR

    def wrap(self, name: str, fn):
        self.names.append(name)
        fid = len(self.names) - 1
        clock = self._clock
        func, parent, flags, start, end, stack = self.func, self.parent, self.flags, self.start, self.end, self._stack
        add_func, add_parent, add_flag, add_start, add_end = (
            func.append, parent.append, flags.append, start.append, end.append
        )
        push, pop = stack.append, stack.pop
        error = self._error

        def open_span() -> int:
            idx = len(func)
            add_func(fid)
            add_parent(stack[-1] if stack else -1)
            add_flag(0)
            add_end(0)
            push(idx)
            add_start(clock())
            return idx

        if inspect.isgeneratorfunction(fn):
            items = self.items
            items[fid] = 0

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        end[idx] = clock()
                        pop()
                        return
                    except BaseException as exc:
                        end[idx] = clock()
                        pop()
                        error(idx, exc)
                        raise
                    end[idx] = clock()
                    pop()
                    items[fid] += 1
                    yield item

            traced = traced_gen
        else:
            probe = _exact_point if name in EVALS else None

            def traced(*args, **kwargs):
                idx = open_span()
                if probe is not None and probe(args):
                    flags[idx] = _EXACT
                try:
                    out = fn(*args, **kwargs)
                except BaseException as exc:
                    end[idx] = clock()
                    pop()
                    error(idx, exc)
                    raise
                end[idx] = clock()
                pop()
                return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap the layer functions of bcinterp and rebind every
        module-level name in the package that points at one of them."""
        modules = {layer: importlib.import_module(f"bcinterp.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [n for n in vars(mod) if n == "main" or n == "build_parser" or n.startswith("cmd_")]
            for attr in public:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if name in UNWRAPPED or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        package_mods = [importlib.import_module("bcinterp"), *modules.values()]
        for mod in package_mods:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # ------------------------------------------------------------ reduction

    def summary(self) -> dict:
        """Per-function totals, the nesting counts the layer metrics need,
        and the duration samples of the sampled functions, in nanoseconds."""
        selfs = self_times(self.parent, self.start, self.end)
        names = self.names
        funcs: dict[str, dict] = {}
        samples: dict[str, list] = {label: [] for label in set(SAMPLED.values())}
        eval_ids = {i for i, n in enumerate(names) if n in EVALS}
        decision_ids = {i for i, n in enumerate(names) if n in DECISIONS}
        in_b_ids = {i for i, n in enumerate(names) if n == "rank2.in_B"}
        series_ids = {i for i, n in enumerate(names) if n == "rank2.R_series"}
        evals_in_decisions = 0
        series_in_in_b = 0
        for idx, fid in enumerate(self.func):
            name = names[fid]
            rec = funcs.get(name)
            if rec is None:
                rec = funcs[name] = {"calls": 0, "self_ns": 0, "errors": 0, "exact": 0}
            flags = self.flags[idx]
            rec["calls"] += 1
            rec["self_ns"] += selfs[idx]
            rec["errors"] += flags & _ERROR
            rec["exact"] += (flags & _EXACT) >> 1
            label = SAMPLED.get(name)
            if label is not None:
                samples[label].append(self.end[idx] - self.start[idx])
            if fid in eval_ids and self._has_ancestor(idx, decision_ids):
                evals_in_decisions += 1
            elif fid in series_ids and self._has_ancestor(idx, in_b_ids):
                series_in_in_b += 1
        for fid, count in self.items.items():
            funcs.setdefault(names[fid], {"calls": 0, "self_ns": 0, "errors": 0, "exact": 0})["items"] = count
        return {
            "funcs": funcs,
            "evals_in_decisions": evals_in_decisions,
            "series_in_in_B": series_in_in_b,
            "samples": samples,
        }

    def _has_ancestor(self, idx: int, fids: set) -> bool:
        idx = self.parent[idx]
        while idx >= 0:
            if self.func[idx] in fids:
                return True
            idx = self.parent[idx]
        return False


def self_times(parent, start, end) -> list:
    """Self time of each span: its duration minus the time its direct
    children cover. Spans on one thread nest strictly, so the covered time
    is the sum of the children's durations."""
    out = [e - s for s, e in zip(start, end)]
    for idx, up in enumerate(parent):
        if up >= 0:
            out[up] -= end[idx] - start[idx]
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def merge(summaries) -> dict:
    """Sum the per-process summaries of one pass."""
    funcs: dict[str, dict] = {}
    samples: dict[str, list] = {}
    total = {"evals_in_decisions": 0, "series_in_in_B": 0}
    for s in summaries:
        for name, rec in s["funcs"].items():
            acc = funcs.setdefault(name, {})
            for key, value in rec.items():
                acc[key] = acc.get(key, 0) + value
        for label, values in s["samples"].items():
            samples.setdefault(label, []).extend(values)
        for key in total:
            total[key] += s[key]
    return {"funcs": funcs, "samples": samples, **total}


def layer_metrics(merged: dict) -> dict:
    """The per-layer metrics of one pass, from its merged summary. Times in
    seconds (microseconds for percentiles), counts as numbers."""
    funcs = merged["funcs"]

    def total(names, key):
        return sum(funcs.get(n, {}).get(key, 0) for n in names)

    def layer_total(layer, key):
        return sum(rec.get(key, 0) for n, rec in funcs.items() if n.split(".", 1)[0] == layer)

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {f"{layer}.self_s": layer_total(layer, "self_ns") / 1e9 for layer in LAYERS}
    evals = total(EVALS, "calls")
    decisions = total(DECISIONS, "calls")
    in_b = total(["rank2.in_B"], "calls")
    decision_us = [v / 1e3 for v in merged["samples"].get("decision", [])]
    series_us = [v / 1e3 for v in merged["samples"].get("R_series", [])]
    out.update(
        {
            "partitions.tableaux": total(["partitions.reverse_tableaux"], "items"),
            "okounkov.eval_calls": evals,
            "okounkov.exact_share": share(total(EVALS, "exact"), evals),
            "okounkov.expand_self_s": total(EXPAND, "self_ns") / 1e9,
            "okounkov.errors": layer_total("okounkov", "errors"),
            "shimura.decisions": decisions,
            "shimura.evals_per_decision": share(merged["evals_in_decisions"], decisions),
            "shimura.decision_p50_us": percentile(decision_us, 50),
            "shimura.decision_p99_us": percentile(decision_us, 99),
            "rank2.in_B_calls": in_b,
            "rank2.series_share": share(merged["series_in_in_B"], in_b),
            "rank2.R_series_self_s": total(["rank2.R_series"], "self_ns") / 1e9,
            "rank2.R_series_p50_us": percentile(series_us, 50),
            "rank2.R_series_p99_us": percentile(series_us, 99),
            "rank2.errors": layer_total("rank2", "errors"),
            "limits.S_div_calls": total(["limits.S_div"], "calls"),
            "exactnum.calls": layer_total("exactnum", "calls"),
        }
    )
    return out
