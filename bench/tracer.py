"""Outside-in tracer: spans around the package's layer functions, from the benchmark's side.

Nothing inside the package is instrumented.  ``Tracer.install`` replaces each
function in ``TARGETS`` with a wrapper in every loaded module that bound it:
``from .lp import solve_lp`` copies the name into ``alpha``, ``minnorm`` and
``graphs``, and the package re-exports most functions, so patching the
defining module alone would miss most calls.

A span is ``[name, start, end, parent, instance, child_s, counters]``:
``parent`` is the index of the enclosing span (-1 at top level),
``instance`` the corpus index being solved, ``child_s`` the part of the span
spent in child spans and in the tracer's own bookkeeping for them, and
``counters`` the work counts read off the call's arguments and result.  Self
time is ``end - start - child_s``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# every public function of these modules that the workloads reach, in the
# timed phase or in corpus generation
TARGETS = {
    "games": ("maximal_losing", "random_game", "cycle_game"),
    "lp": ("solve_lp", "in_convex_hull"),
    "alpha": ("compute_alpha_exact",),
    "minnorm": ("min_norm_point", "strengthened_bound", "is_feasible", "tightness_check"),
    "graphs": (
        "alpha_graph",
        "bipartition",
        "build_gadget",
        "decide_alpha_at_most",
        "enumerate_mis",
        "find_induced_kp2",
        "mwis_bipartite",
        "mwis_exact",
        "random_bipartite_graph",
        "random_graph",
    ),
    "complete": (
        "complete_order",
        "csg_payoff",
        "desirability_ge",
        "random_weighted_voting_game",
        "sized_weighted_game",
        "suffix_sizes",
    ),
}

GENERATORS = {"graphs.enumerate_mis"}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _den_bits(lp) -> int:
    values = list(lp.objective)
    for row in lp.rows:
        values.extend(row.coeffs)
        values.append(row.rhs)
    for bounds in (lp.lower, lp.upper):
        if bounds is not None:
            values.extend(v for v in bounds if v is not None)
    return max((v.denominator.bit_length() for v in values), default=0)


def _lp_counters(args, kwargs, result):
    lp = _arg(args, kwargs, 0, "lp")
    return {"rows": len(lp.rows), "cols": lp.num_vars, "den_bits": _den_bits(lp)}


COUNTERS = {
    "lp.solve_lp": _lp_counters,
    "lp.in_convex_hull": lambda a, k, r: {"generators": len(_arg(a, k, 1, "generators"))},
    "games.maximal_losing": lambda a, k, r: {"coalitions": len(r)},
    "minnorm.min_norm_point": lambda a, k, r: {"gap_history_len": len(r[1].gap_history)},
    "minnorm.tightness_check": lambda a, k, r: {"tight": int(r[0])},
    "graphs.decide_alpha_at_most": lambda a, k, r: {"kp2_branch": int(r.branch == "kp2")},
}


class Tracer:
    """Collects spans while installed; ``instance`` tags the spans of the input being solved."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Patch every target into every module that holds a reference to it."""
        wrappers = {}
        for modname, names in TARGETS.items():
            mod = importlib.import_module(f"simplegames.{modname}")
            for fname in names:
                orig = getattr(mod, fname)
                name = f"{modname}.{fname}"
                if name in GENERATORS:
                    wrapper = self._wrap_generator(name, orig)
                else:
                    wrapper = self._wrap(name, orig, COUNTERS.get(name))
                wrappers[id(orig)] = (orig, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.instance, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            if parent >= 0:
                spans[parent][5] += clock() - entered
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """A span from the call until the generator is exhausted or closed; counts items."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            index = len(spans)
            rec = [name, entered, 0.0, parent, self.instance, 0.0, None]
            spans.append(rec)
            inner = fn(*args, **kwargs)
            items = 0
            try:
                while True:
                    stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        stack.pop()
                    items += 1
                    yield item
            finally:
                rec[2] = clock()
                rec[6] = {"items": items}
                if parent >= 0:
                    spans[parent][5] += clock() - entered

        return traced


# --- aggregation (runs in the benchmark's parent process, which never imports the package)


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, and summed/maxed counters.

    ``lp_children`` counts the solve_lp spans directly under each span, which
    are the oracle LPs of min_norm_point and the cut rounds of alpha_graph.
    """
    totals: dict[str, dict] = {}

    def entry(name: str) -> dict:
        return totals.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "lp_children": 0, "sum": {}, "max": {}}
        )

    for name, start, end, parent, _inst, child_s, counters in spans:
        t = entry(name)
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_s
        for key, value in (counters or {}).items():
            t["sum"][key] = t["sum"].get(key, 0) + value
            t["max"][key] = max(t["max"].get(key, value), value)
        if name == "lp.solve_lp" and parent >= 0:
            entry(spans[parent][0])["lp_children"] += 1
    return totals


# (metric name, unit, span name, how to read it from that span's totals)
LAYER_METRICS = (
    ("minnorm.min_norm_point.self_s", "s", "minnorm.min_norm_point", ("self_s",)),
    ("minnorm.min_norm_point.lp_calls", "count", "minnorm.min_norm_point", ("lp_children",)),
    ("minnorm.min_norm_point.gap_history_len_sum", "count", "minnorm.min_norm_point", ("sum", "gap_history_len")),
    ("lp.solve_lp.self_s", "s", "lp.solve_lp", ("self_s",)),
    ("lp.solve_lp.calls", "count", "lp.solve_lp", ("calls",)),
    ("lp.solve_lp.rows_sum", "count", "lp.solve_lp", ("sum", "rows")),
    ("lp.solve_lp.rows_max", "count", "lp.solve_lp", ("max", "rows")),
    ("lp.solve_lp.cols_max", "count", "lp.solve_lp", ("max", "cols")),
    ("lp.solve_lp.den_bits_max", "bits", "lp.solve_lp", ("max", "den_bits")),
    ("alpha.compute_alpha_exact.self_s", "s", "alpha.compute_alpha_exact", ("self_s",)),
    ("alpha.compute_alpha_exact.calls", "count", "alpha.compute_alpha_exact", ("calls",)),
    ("games.maximal_losing.self_s", "s", "games.maximal_losing", ("self_s",)),
    ("games.maximal_losing.calls", "count", "games.maximal_losing", ("calls",)),
    ("games.maximal_losing.coalitions", "count", "games.maximal_losing", ("sum", "coalitions")),
    ("complete.complete_order.self_s", "s", "complete.complete_order", ("self_s",)),
    ("complete.csg_payoff.self_s", "s", "complete.csg_payoff", ("self_s",)),
    ("complete.suffix_sizes.self_s", "s", "complete.suffix_sizes", ("self_s",)),
    ("graphs.alpha_graph.self_s", "s", "graphs.alpha_graph", ("self_s",)),
    ("graphs.alpha_graph.calls", "count", "graphs.alpha_graph", ("calls",)),
    ("graphs.alpha_graph.cut_rounds", "count", "graphs.alpha_graph", ("lp_children",)),
    ("graphs.mwis_exact.self_s", "s", "graphs.mwis_exact", ("self_s",)),
    ("graphs.mwis_exact.calls", "count", "graphs.mwis_exact", ("calls",)),
    ("graphs.mwis_bipartite.self_s", "s", "graphs.mwis_bipartite", ("self_s",)),
    ("graphs.mwis_bipartite.calls", "count", "graphs.mwis_bipartite", ("calls",)),
    ("graphs.decide_alpha_at_most.self_s", "s", "graphs.decide_alpha_at_most", ("self_s",)),
    ("graphs.decide_alpha_at_most.kp2_branch", "count", "graphs.decide_alpha_at_most", ("sum", "kp2_branch")),
    ("graphs.find_induced_kp2.self_s", "s", "graphs.find_induced_kp2", ("self_s",)),
    ("graphs.enumerate_mis.items", "count", "graphs.enumerate_mis", ("sum", "items")),
    ("lp.in_convex_hull.self_s", "s", "lp.in_convex_hull", ("self_s",)),
    ("lp.in_convex_hull.calls", "count", "lp.in_convex_hull", ("calls",)),
    ("lp.in_convex_hull.generators_sum", "count", "lp.in_convex_hull", ("sum", "generators")),
    ("minnorm.tightness_check.self_s", "s", "minnorm.tightness_check", ("self_s",)),
    ("minnorm.tightness_check.tight", "count", "minnorm.tightness_check", ("sum", "tight")),
)

# read from the traced corpus generation, not from the solve
SETUP_METRICS = (("complete.sized_weighted_game.s", "s", "complete.sized_weighted_game", ("s",)),)


def _read(totals: dict, span: str, path: tuple):
    t = totals.get(span)
    if t is None:
        return 0
    value = t[path[0]]
    return value.get(path[1], 0) if len(path) == 2 else value


def layer_metrics(solve_spans: list[list], setup_spans: list[list]) -> dict[str, dict]:
    """The per-layer metrics, each as {"value", "unit"}; idle layers read 0."""
    out = {}
    for table, spans in ((LAYER_METRICS, solve_spans), (SETUP_METRICS, setup_spans)):
        totals = layer_totals(spans)
        for metric, unit, span, path in table:
            out[metric] = {"value": _read(totals, span, path), "unit": unit}
    return out


def self_time_total(spans: list[list]) -> float:
    return sum(end - start - child_s for _n, start, end, _p, _i, child_s, _c in spans)
