"""Size caps: one table in `budgets`, checked before a table is built or as a family grows."""

import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from simplegames import (
    BudgetExceededError,
    alpha_graph,
    budgets,
    build_gadget,
    cycle_game,
    cycle_graph,
    decide_alpha_at_most,
    enumerate_mis,
    find_induced_kp2,
    make_graph,
    maximal_losing,
    mwis_exact,
    new_game,
    random_game,
    random_weighted_voting_game,
    verify_conjecture_corpus,
)
from simplegames.cli import run
from simplegames.graphs import path_graph, random_bipartite_graph, random_graph

SRC = Path(budgets.__file__).resolve().parent


def disjoint_pairs(k):
    """k disjoint winning pairs: one player from each pair, 2^k ways, is a minimal cover."""
    return new_game(2 * k, [[2 * i + 1, 2 * i + 2] for i in range(k)])


# one public call per cap, on an input one above the cap's default (for
# `losing`, a game with at least that many maximal losing coalitions)
AT_CAP_PLUS_ONE = {
    "losing": lambda v: maximal_losing(disjoint_pairs((v - 1).bit_length())),
    "corpus": lambda v: verify_conjecture_corpus(v, seeds=[1]),
    "mwis": lambda v: mwis_exact(make_graph(v, [(1, 2)]), [1] * v),
    "kp2": lambda v: find_induced_kp2(make_graph(4 * v, [(1, 2)]), v),
    "antichain": lambda v: random_game(8, 0, v),
    "vertices": lambda v: make_graph(v, [(1, 2)]),
}


@pytest.mark.parametrize("name", sorted(budgets.CAPS))
def test_default_plus_one_raises_with_its_fields(name):
    limit = budgets.CAPS[name]
    with pytest.raises(BudgetExceededError) as info:
        AT_CAP_PLUS_ONE[name](limit + 1)
    exc = info.value
    assert (exc.name, exc.value, exc.limit) == (name, limit + 1, limit)
    assert str(exc) == f"{name} budget exceeded: {limit + 1} > {limit}"


@pytest.mark.parametrize(
    "name, override, expected",
    [
        ("losing", 300_000, 200_000), ("losing", 10, 10),
        ("mwis", 60, 60), ("mwis", 5, 5), ("kp2", 7, 7), ("vertices", 20_000, 10_000),
    ],
)
def test_override_lowers_any_cap_and_raises_only_time_caps(name, override, expected):
    budgets.check(name, expected, override)
    with pytest.raises(BudgetExceededError) as info:
        budgets.check(name, expected + 1, override)
    assert info.value.limit == expected


@pytest.mark.parametrize("name", sorted(budgets.CAPS))
def test_negative_override_is_invalid_input(name):
    with pytest.raises(ValueError, match=f"the {name} budget must be >= 0, got -1"):
        budgets.check(name, 0, -1)
    with pytest.raises(BudgetExceededError):
        budgets.check(name, 1, 0)


@pytest.fixture()
def losing_cap_9(monkeypatch):
    # cycle:8 has 10 maximal losing coalitions, one more than this ceiling
    monkeypatch.setitem(budgets.CAPS, "losing", 9)


def test_override_cannot_cross_the_table_ceiling(losing_cap_9):
    # an override above the losing cap is clamped to it
    with pytest.raises(BudgetExceededError) as info:
        maximal_losing(cycle_game(8), budget=40)
    assert (info.value.name, info.value.value, info.value.limit) == ("losing", 10, 9)


def test_weighted_generator_counts_against_the_losing_cap(losing_cap_9):
    # the weighted game on 10 players at seed 0 has more than 9 minimal winning coalitions
    with pytest.raises(BudgetExceededError) as info:
        random_weighted_voting_game(10, 0)
    assert (info.value.name, info.value.value, info.value.limit) == ("losing", 10, 9)


def test_enumerate_mis_counts_against_the_losing_cap(losing_cap_9):
    # 5 disjoint edges have 2^5 = 32 maximal independent sets
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_mis(make_graph(10, [(2 * i + 1, 2 * i + 2) for i in range(5)])))
    assert (info.value.name, info.value.value, info.value.limit) == ("losing", 10, 9)


def test_cli_override_above_the_ceiling_exits_3(losing_cap_9, capsys):
    assert run(["alpha", "--game", "cycle:8", "--budget", "40"]) == 3
    assert capsys.readouterr() == ("", "error: losing budget exceeded: 10 > 9\n")
    assert run(["tightness", "--game", "cycle:8", "--budget", "40"]) == 3


# every verb that takes --budget, on an input that reaches its cap check
CHECKED = [
    ["alpha", "--game", "cycle:4"],
    ["tightness", "--game", "cycle:4"],
    ["graph-alpha", "cycle:5"],
    ["graph-decide", "--graph", "cycle:8", "--a", "1"],
    ["csg", "--game", "wvg:4"],
]
# inputs that reach no cap check: a bipartite graph, a kP2 search with 2k > n,
# and a game that csg refuses as not complete before it lists losing coalitions
UNCHECKED = [
    ["graph-alpha", "cycle:4"],
    ["graph-decide", "--graph", "cycle:5", "--a", "1"],
    ["csg", "--game", "cycle:4"],
]


@pytest.mark.parametrize("budget, code", [("-1", 2), ("0", 3)])
def test_cli_negative_budget_exits_2_and_zero_exits_3(budget, code, capsys):
    # a budget of 0 is used up only where a check runs; -1 is refused everywhere
    for argv in CHECKED + (UNCHECKED if code == 2 else []):
        assert run([*argv, "--budget", budget]) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")


HUGE = 10**20
# graph files past the vertices cap, and one within it whose gadget (2n vertices) is not
GRAPH_FILES = {
    "huge.json": json.dumps({"n": HUGE, "edges": [[1, 2]]}),
    "huge.dimacs": f"p edge {HUGE} 1\ne 1 2\n",
    "half.json": json.dumps({"n": 6000, "edges": [[1, 2]]}),
}


@pytest.mark.parametrize(
    "argv, value",
    [
        (["graph-alpha", "huge.json"], HUGE),
        (["graph-decide", "--graph", "huge.json", "--a", "1"], HUGE),
        (["gadget", "--graph", "huge.json"], HUGE),
        (["graph-alpha", "huge.dimacs"], HUGE),
        (["graph-decide", "--graph", "huge.dimacs", "--a", "1"], HUGE),
        (["gadget", "--graph", "huge.dimacs"], HUGE),
        (["gadget", "--graph", "half.json"], 12_000),
        (["gen", "random-graph:100000000:1"], 10**8),
        (["graph-alpha", "random-graph:100000000:1"], 10**8),
        (["graph-decide", "--graph", "cycle:100000000", "--a", "1"], 10**8),
    ],
)
def test_cli_graph_past_the_vertices_cap_exits_3(argv, value, tmp_path, monkeypatch, capsys):
    # refused with one stderr line before anything is sized by n: the run
    # allocates under 1 MB, where one list of n entries would take gigabytes
    for name, text in GRAPH_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr() == ("", f"error: vertices budget exceeded: {value} > 10000\n")
    assert peak < 1 << 20


def test_graph_generators_check_the_vertices_cap_first():
    makers = [
        lambda: random_graph(HUGE, 1, 0),
        lambda: random_bipartite_graph(HUGE, 1, 0),
        lambda: cycle_graph(HUGE),
        lambda: path_graph(HUGE),
        lambda: build_gadget(make_graph(5001, [(1, 2)])),
    ]
    for make in makers:
        with pytest.raises(BudgetExceededError, match="vertices budget exceeded"):
            make()


def test_random_graph_at_the_vertices_cap_lists_no_pairs():
    # n = 10000 has 5 * 10^7 vertex pairs, gigabytes as a list; the generator
    # draws their indices instead
    tracemalloc.start()
    try:
        g = random_graph(budgets.CAPS["vertices"], 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 3 and peak < 1 << 20


def test_one_edge_at_the_vertices_cap_is_solved():
    # nothing the graph verbs build grows with n squared: at n = 10000, one
    # edge gives alpha 1/2 by the cut loop and by the enumeration
    g = make_graph(budgets.CAPS["vertices"], [(1, 2)])
    assert alpha_graph(g).alpha == Fraction(1, 2)
    assert decide_alpha_at_most(g, Fraction(1, 2)).alpha == Fraction(1, 2)


def test_caps_live_only_in_budgets():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("budgets.py", "errors.py"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if re.search(r"\w_BUDGET\s*=|raise BudgetExceededError\(f", line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
