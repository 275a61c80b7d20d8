"""Command-line interface.

One verb per invocation; JSON on standard output (rationals as "p/q"
strings so exactness survives the pipe).  Exit codes: 0 success, 1 when a
decision verb answers false, 2 invalid input, 3 budget exhaustion, 4 an
internal error (a failed certificate check or any other unexpected
exception), so no crash can read as "answered false".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import alpha as alpha_mod
from . import budgets
from . import complete as complete_mod
from . import graphs as graphs_mod
from . import minnorm as minnorm_mod
from .errors import BudgetExceededError
from .games import Coalition, SimpleGame, cycle_game, game_from_json, game_to_json_dict, random_game
from .graphs import Graph, graph_from_source, graph_to_json_dict
from .lp import frac, rat

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4

EXIT_CODES_HELP = (
    "exit codes: 0 success, 1 decision answered false, 2 invalid input, "
    "3 budget exhausted, 4 internal error (a failed certificate check or "
    "any other unexpected exception)"
)


def _load_game(source: str, seed: int) -> SimpleGame:
    if source.startswith("cycle:"):
        return cycle_game(int(source.split(":")[1]))
    if source.startswith("random-game:"):
        _, n, size = source.split(":")
        return random_game(int(n), seed, int(size))
    if source.startswith("wvg:"):
        return complete_mod.random_weighted_voting_game(int(source.split(":")[1]), seed).game
    path = Path(source)
    if not path.exists():
        raise ValueError(f"no such game file or generator spec: {source}")
    return game_from_json(path.read_text())


def _load_graph(source: str, seed: int) -> Graph:
    if source.startswith("cycle:"):
        return graphs_mod.cycle_graph(int(source.split(":")[1]))
    if source.startswith("random-graph:"):
        _, n, m = source.split(":")
        return graphs_mod.random_graph(int(n), int(m), seed)
    path = Path(source)
    if not path.exists():
        raise ValueError(f"no such graph file or generator spec: {source}")
    return graph_from_source(path.read_text())


def _emit(payload: dict, fmt: str, out: Optional[str] = None) -> None:
    if fmt == "table":
        lines = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}\t{value}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_alpha(args) -> int:
    game = _load_game(args.game, args.seed)
    cert = alpha_mod.compute_alpha_exact(game, args.budget)
    _emit(cert.to_json_dict(), args.format)
    return EXIT_OK


def _cmd_min_norm(args) -> int:
    game = _load_game(args.game, args.seed)
    _, cert = minnorm_mod.min_norm_point(game, tolerance=args.tol)
    _emit(cert.to_json_dict(), args.format)
    return EXIT_OK


def _cmd_tightness(args) -> int:
    game = _load_game(args.game, args.seed)
    hulls = minnorm_mod.tightness_hulls(game, args.budget)
    payload: dict = {"tight": hulls is not None, "winning_hull": None, "losing_hull": None}
    if hulls is not None:
        for key, weights in zip(("winning_hull", "losing_hull"), hulls):
            payload[key] = [[list(Coalition(m).players()), rat(w)] for m, w in weights.items() if w]
    _emit(payload, args.format)
    return EXIT_FALSE if hulls is None else EXIT_OK


def _cmd_graph_alpha(args) -> int:
    g = _load_graph(args.graph, args.seed)
    cert = graphs_mod.alpha_graph(g, args.budget)
    _emit(cert.to_json_dict(), args.format)
    return EXIT_OK


def _cmd_graph_decide(args) -> int:
    g = _load_graph(args.graph, args.seed)
    decision = graphs_mod.decide_alpha_at_most(g, frac(args.a), args.budget)
    _emit(decision.to_json_dict(), args.format)
    return EXIT_OK if decision.answer else EXIT_FALSE


def _cmd_gadget(args) -> int:
    g = _load_graph(args.graph, args.seed)
    _emit(graph_to_json_dict(graphs_mod.build_gadget(g)), args.format, args.out)
    return EXIT_OK


def _cmd_csg(args) -> int:
    game = _load_game(args.game, args.seed)
    cg = complete_mod.complete_order(game, args.budget)
    if cg is None:
        raise ValueError("the game is not complete (incomparable players)")
    _emit(complete_mod.csg_payoff(cg).to_json_dict(), args.format)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = args.spec
    kind = spec.split(":")[0]
    if kind in ("cycle", "random-game", "wvg"):
        payload = game_to_json_dict(_load_game(spec, args.seed))
    elif kind == "random-graph":
        payload = graph_to_json_dict(_load_graph(spec, args.seed))
    else:
        raise ValueError(f"unknown generator spec: {spec}")
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_verify_conjecture(args) -> int:
    seeds = None
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    report = alpha_mod.verify_conjecture_corpus(args.n, seeds, args.count)
    _emit(report.to_json_dict(), args.format)
    return EXIT_OK if report.all_within_bound else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplegames",
        description="Critical threshold values of simple games, exactly.",
        epilog=EXIT_CODES_HELP,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, game=False, graph=False, positional_graph=False):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for generator specs")
        if game:
            p.add_argument("--game", required=True, help="game JSON path or cycle:N / random-game:N:SIZE / wvg:N")
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON/DIMACS path or cycle:N / random-graph:N:M")
        if positional_graph:
            p.add_argument("graph", help="graph JSON/DIMACS path or cycle:N / random-graph:N:M")

    p = sub.add_parser("alpha", help="exact threshold value of a game")
    common(p, game=True)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("min-norm", help="certified minimum-norm feasible payoff")
    common(p, game=True)
    p.add_argument("--tol", type=float, default=minnorm_mod.DEFAULT_TOLERANCE)
    p.set_defaults(func=_cmd_min_norm)

    p = sub.add_parser("tightness", help="does alpha attain n/4 (exit 1 if not)")
    common(p, game=True)
    p.set_defaults(func=_cmd_tightness)

    p = sub.add_parser("graph-alpha", help="threshold value of a graphic game")
    common(p, positional_graph=True)
    p.set_defaults(func=_cmd_graph_alpha)

    p = sub.add_parser("graph-decide", help="decide alpha <= a (exit 1 if false)")
    common(p, graph=True)
    p.add_argument("--a", required=True, help="threshold, e.g. 1 or 3/2")
    p.set_defaults(func=_cmd_graph_decide)

    p = sub.add_parser("gadget", help="two-copy gadget graph")
    common(p, graph=True)
    p.add_argument("--out", default=None, help="write the gadget JSON here instead of stdout")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("csg", help="ranked payoff report of a complete game")
    common(p, game=True)
    p.set_defaults(func=_cmd_csg)

    p = sub.add_parser("gen", help="emit a generated game or graph as JSON")
    common(p)
    p.add_argument("spec", help="cycle:N | random-game:N:SIZE | random-graph:N:M | wvg:N")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify-conjecture", help="alpha <= n/4 over a random corpus")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.set_defaults(func=_cmd_verify_conjecture)

    # only the verbs that pass a budget on accept one; each overrides one cap
    for verb, cap in (
        ("alpha", "tables"), ("tightness", "tightness"), ("graph-alpha", "mwis"),
        ("graph-decide", "kp2"), ("csg", "desirability"),
    ):
        rule = "raise or lower" if cap in budgets.RAISABLE else "lower"
        help_text = f"{rule} the {cap} cap (default {budgets.CAPS[cap]})"
        sub.choices[verb].add_argument("--budget", type=int, default=None, help=help_text)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
