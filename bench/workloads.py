"""The two benchmark workloads: seeded corpora, the timed calls, the exact checks.

A workload is a list of slots ``(kind, n)``.  Each kind has five parts:

- ``make(kind, n, index, seed)`` draws one input with the package's own
  generators, as a JSON-ready dict.  ``generate`` builds the whole corpus in
  a process of its own, so the subset tables it fills stay out of the timed
  process.
- ``load(instance)`` parses one input before the timed phase starts.
- ``solve(problem)`` is the timed call sequence for one input.
- ``answer(output)`` is the output's answer as a short string, so that
  passes over the same corpus can be compared cheaply.
- ``check(problem, output)`` verifies the output exactly, outside the timed
  region.  It returns the exact alpha of the input as a ``"p/q"`` token for
  the digest, and an error message or None.

A corpus has a fixed number of instances, and instance ``i`` has the size
and kind of slot ``i mod len(slots)``.  The instances themselves are drawn
once, from ``BASE_SEED``; ``--seed`` then relabels the players (or vertices)
of each one with a permutation of its own.  So every seed gives new inputs,
the same mix of structures and difficulty, and the same exact answers: the
alpha digest holds for every seed.

Every function reaches the package through module attributes
(``sg.compute_alpha_exact``, ``graphs.random_graph``), never through names
bound at import, so the tracer's patches apply to the benchmark's own calls.
"""

from __future__ import annotations

import random
from fractions import Fraction

import simplegames as sg
from simplegames import complete, graphs

# "full" is what the benchmark measures; "tiny" keeps the benchmark's own
# tests fast.  `instances` fixes the corpus length: one pass over it takes a
# few seconds, so that a run makes several passes (see run.py).  `prefix` is
# the number of leading instances a traced run solves.
#
# At larger sizes (random games up to n = 12, weighted games at
# n = 12..16, gadgets and hull checks at n = 10) one input takes one to five
# seconds with heavy tails, so a run could solve only a handful of them.
SIZES = {
    "full": {
        "games": {
            "slots": [
                ("certify", 6),
                ("certify", 7),
                ("certify", 8),
                ("weighted", 9),
                ("hull-random", 7),
                ("hull-random", 8),
                ("hull-cycle", 6),
                ("hull-cycle", 8),
            ],
            "instances": 120,
            "prefix": 16,
        },
        "graph-cuts": {
            "slots": [
                ("gadget", 6),
                ("gadget", 7),
                ("bipartite", 10),
                ("bipartite", 12),
                ("decision", 10),
                ("decision", 11),
                ("decision", 12),
            ],
            "instances": 210,
            "prefix": 14,
        },
    },
    "tiny": {
        "games": {
            "slots": [
                ("certify", 5),
                ("certify", 6),
                ("weighted", 5),
                ("weighted", 6),
                ("hull-random", 4),
                ("hull-random", 5),
                ("hull-cycle", 6),
            ],
            "instances": 14,
            "prefix": 7,
        },
        "graph-cuts": {
            "slots": [("gadget", 3), ("gadget", 4), ("bipartite", 5), ("decision", 6), ("decision", 7), ("decision", 8)],
            "instances": 12,
            "prefix": 6,
        },
    },
}

BASE_SEED = 0
DECISION_THRESHOLDS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
MIN_NORM_TOLERANCE = 1e-6
_TOL = Fraction(1, 10**6)
_TRIES = 5
_FIXED_KINDS = {"hull-cycle"}


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _game_dict(game) -> dict:
    return {"n": game.n, "minimal_winning": [list(c.players()) for c in game.minimal_winning]}


def _graph_dict(g) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def _key(inst: dict) -> tuple:
    body = inst.get("minimal_winning") or inst.get("edges")
    return inst["n"], tuple(sorted(tuple(sorted(b)) for b in body))


def _relabel(inst: dict, order: list[int]) -> dict:
    """The instance with player (or vertex) p renamed order[p - 1]."""
    out = dict(inst)
    for field in ("minimal_winning", "edges"):
        if field in inst:
            out[field] = [sorted(order[p - 1] for p in c) for c in inst[field]]
    if "weights" in inst:
        weights = [0] * inst["n"]
        for p, w in enumerate(inst["weights"], start=1):
            weights[order[p - 1] - 1] = w
        out["weights"] = weights
    return out


def _corpus(seed: int, size: dict, make) -> list[dict]:
    """size["instances"] instances of make(kind, n, index, base_seed), relabeled by `seed`.

    No input repeats: equal games hash equal, so a repeat would find its
    subset table already cached, and every timed instance must start as cold
    as a fresh call.  Neither the drawn structures nor their relabelings
    repeat; a slot whose first few draws all repeat (only possible for tiny
    inputs) stays empty.
    """
    slots = size["slots"]
    drawn: set = set()
    seen: set = set()
    out = []
    for index in range(size["instances"]):
        kind, n = slots[index % len(slots)]
        for attempt in range(_TRIES):
            base = make(kind, n, index, (BASE_SEED * 1_000_003 + index) * 101 + attempt)
            # a fixed structure (the cycle game) repeats on purpose
            if kind in _FIXED_KINDS or _key(base) not in drawn:
                drawn.add(_key(base))
                break
        else:
            continue
        rng = random.Random(f"bench:relabel:{seed}:{index}")
        for _ in range(_TRIES):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            inst = _relabel(base, order)
            if _key(inst) not in seen:
                seen.add(_key(inst))
                out.append({**inst, "index": index})
                break
    return out


def _load_game(inst: dict):
    return sg.game_from_json(inst)


# --- games: certify --------------------------------------------------------


def _make_certify(kind: str, n: int, index: int, s: int) -> dict:
    # antichain targets from 3 to n + 2; larger ones mostly give the same
    # game of n singletons, whatever the seed
    target = 3 + (index * 7) % n
    return {"kind": kind, **_game_dict(sg.random_game(n, s, target))}


def _solve_certify(game):
    cert = sg.compute_alpha_exact(game)
    point, mn = sg.min_norm_point(game, tolerance=MIN_NORM_TOLERANCE)
    bound = sg.strengthened_bound(game, point)
    return cert, point, mn, bound


def _check_certify(game, out) -> tuple[str, str | None]:
    cert, point, mn, bound = out
    token = _rat(cert.alpha)
    quarter = Fraction(game.n, 4)
    if sg.alpha_of_payoff(game, cert.payoff) != cert.alpha:
        return token, "the returned payoff does not attain alpha"
    if not mn.certified:
        return token, "min-norm certificate not certified"
    if not sg.is_feasible(game, point):
        return token, "min-norm point infeasible"
    if cert.alpha > quarter:
        return token, f"alpha {cert.alpha} > n/4"
    if bound > quarter + _TOL:
        return token, f"strengthened bound {bound} > n/4 + 1e-6"
    return token, None


# --- games: weighted -------------------------------------------------------


def _make_weighted(kind: str, n: int, index: int, s: int) -> dict:
    wvg = complete.sized_weighted_game(n, s)
    return {"kind": kind, **_game_dict(wvg.game), "weights": list(wvg.weights), "quota": wvg.quota}


def _solve_weighted(game):
    cert = sg.compute_alpha_exact(game)
    cg = sg.complete_order(game)
    report = sg.csg_payoff(cg) if cg is not None else None
    return cert, report


def _check_weighted(game, out) -> tuple[str, str | None]:
    cert, report = out
    token = _rat(cert.alpha)
    if sg.alpha_of_payoff(game, cert.payoff) != cert.alpha:
        return token, "the returned payoff does not attain alpha"
    if report is None:
        return token, "weighted game reported as not complete"
    if not cert.alpha < 1:
        return token, f"weighted game has alpha {cert.alpha} >= 1"
    if cert.alpha > report.ratio:
        return token, f"alpha {cert.alpha} exceeds the csg ratio {report.ratio}"
    return token, None


# --- graph-cuts -------------------------------------------------------------


def _make_graph(kind: str, n: int, index: int, s: int) -> dict:
    # edge counts sweep their range on a fixed grid, so that every run meets
    # sparse and dense graphs alike; the seed draws the graphs themselves
    pairs = n * (n - 1) // 2
    lo, hi = n // 2, {"gadget": pairs, "bipartite": 2 * n, "decision": pairs // 2}[kind]
    m = lo + (index * 7) % (hi - lo + 1)
    if kind == "bipartite":
        return {"kind": kind, **_graph_dict(graphs.random_bipartite_graph(n, m, s))}
    g = graphs.random_graph(n, m, s)
    if kind == "gadget":
        return {"kind": kind, **_graph_dict(g)}
    # one threshold per decision size, so every seven inputs ask all three; they
    # stay below a = 2 because the kP2 search refuses k > 5
    return {"kind": kind, **_graph_dict(g), "a": _rat(DECISION_THRESHOLDS[n % 3])}


def _load_graph(inst: dict):
    a = Fraction(inst["a"]) if "a" in inst else None
    return inst["kind"], graphs.graph_from_json(inst), a


def _solve_graphs(problem):
    kind, g, a = problem
    if kind == "gadget":
        return sg.alpha_graph(sg.build_gadget(g))
    if kind == "bipartite":
        return sg.alpha_graph(g)
    return sg.decide_alpha_at_most(g, a)


def _check_graphs(problem, out) -> tuple[str, str | None]:
    kind, g, a = problem
    if kind == "gadget":
        expected = Fraction(sg.mwis_exact(g, [1] * g.n).weight, 2)
        if out.alpha != expected:
            return _rat(out.alpha), f"gadget alpha {out.alpha} != independence number / 2 = {expected}"
        return _rat(out.alpha), None
    alpha = sg.compute_alpha_exact(sg.graphic_game(g)).alpha
    if kind == "bipartite" and out.alpha != alpha:
        return _rat(out.alpha), f"cutting-plane alpha {out.alpha} != enumerated alpha {alpha}"
    if kind == "decision" and out.answer != (alpha <= a):
        return _rat(alpha), f"decision alpha <= {a} answered {out.answer}, but alpha = {alpha}"
    return _rat(alpha), None


# --- games: hull-random, hull-cycle -----------------------------------------


def _make_hull(kind: str, n: int, index: int, s: int) -> dict:
    if kind == "hull-random":
        return {"kind": kind, **_game_dict(sg.random_game(n, s, 3 + index % 6))}
    # tight; the corpus relabels its players, so each copy is a new game
    return {"kind": kind, **_game_dict(sg.cycle_game(n))}


def _solve_hull(game):
    tight, _ = sg.tightness_check(game)
    return tight


def _check_hull(game, tight) -> tuple[str, str | None]:
    alpha = sg.compute_alpha_exact(game).alpha
    if tight != (alpha == Fraction(game.n, 4)):
        return _rat(alpha), f"tightness_check said {tight}, but alpha = {alpha} and n/4 = {game.n}/4"
    return _rat(alpha), None


def _answer_alpha(out) -> str:
    return _rat(out[0].alpha)


def _answer_graphs(out) -> str:
    return str(out.answer) if hasattr(out, "answer") else _rat(out.alpha)


# kind: (make, load, solve, answer, check)
_KINDS = {
    "certify": (_make_certify, _load_game, _solve_certify, _answer_alpha, _check_certify),
    "weighted": (_make_weighted, _load_game, _solve_weighted, _answer_alpha, _check_weighted),
    "hull-random": (_make_hull, _load_game, _solve_hull, str, _check_hull),
    "hull-cycle": (_make_hull, _load_game, _solve_hull, str, _check_hull),
    **{kind: (_make_graph, _load_graph, _solve_graphs, _answer_graphs, _check_graphs) for kind in ("gadget", "bipartite", "decision")},
}


def _make(kind: str, n: int, index: int, s: int) -> dict:
    return _KINDS[kind][0](kind, n, index, s)


def load(inst: dict):
    """The parsed problem, tagged with its kind."""
    return inst["kind"], _KINDS[inst["kind"]][1](inst)


def solve(problem):
    kind, parsed = problem
    return _KINDS[kind][2](parsed)


def answer(problem, out) -> str:
    return _KINDS[problem[0]][3](out)


def check(problem, out) -> tuple[str, str | None]:
    kind, parsed = problem
    return _KINDS[kind][4](parsed, out)


def generate(workload: str, seed: int, scale: str) -> list[dict]:
    return _corpus(seed, SIZES[scale][workload], _make)
