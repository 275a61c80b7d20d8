"""Size caps: one table in `budgets`, checked before any table is built."""

import json
import re
from pathlib import Path

import pytest

from simplegames import (
    BudgetExceededError,
    budgets,
    desirability_ge,
    find_induced_kp2,
    make_graph,
    maximal_losing,
    min_norm_point,
    mwis_exact,
    new_game,
    random_game,
    tightness_check,
    verify_conjecture_corpus,
)
from simplegames.cli import run

SRC = Path(budgets.__file__).resolve().parent

# one public call per cap, on an input one above the cap's default
AT_CAP_PLUS_ONE = {
    "tables": lambda v: maximal_losing(new_game(v, [[1]])),
    "desirability": lambda v: desirability_ge(new_game(v, [[1]]), 1, 2),
    "tightness": lambda v: tightness_check(new_game(v, [[1, 2]])),
    "min_norm": lambda v: min_norm_point(new_game(v, [[1, 2]])),
    "corpus": lambda v: verify_conjecture_corpus(v, seeds=[1]),
    "mwis": lambda v: mwis_exact(make_graph(v, [(1, 2)]), [1] * v),
    "kp2": lambda v: find_induced_kp2(make_graph(4 * v, [(1, 2)]), v),
    "antichain": lambda v: random_game(8, 0, v),
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
    [("tables", 40, 24), ("tables", 10, 10), ("mwis", 60, 60), ("mwis", 5, 5), ("kp2", 7, 7)],
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
def no_tables(monkeypatch):
    # an override that crossed the ceiling would build 30 tables of 2^30 bits
    def refuse(n):
        raise AssertionError(f"absent_tables({n}) was built")

    monkeypatch.setattr("simplegames.games.absent_tables", refuse)


def test_override_cannot_cross_the_table_ceiling(no_tables):
    with pytest.raises(BudgetExceededError) as info:
        maximal_losing(new_game(30, [[1]]), budget=40)
    assert (info.value.name, info.value.value, info.value.limit) == ("tables", 30, 24)


def test_cli_override_above_the_ceiling_exits_3(no_tables, tmp_path, capsys):
    path = tmp_path / "n30.json"
    path.write_text(json.dumps({"n": 30, "minimal_winning": [[1]]}))
    assert run(["alpha", "--game", str(path), "--budget", "40"]) == 3
    assert capsys.readouterr().out == ""


# every verb that takes --budget, on an input that reaches its cap check
CHECKED = [
    ["alpha", "--game", "cycle:4"],
    ["tightness", "--game", "cycle:4"],
    ["graph-alpha", "cycle:5"],
    ["graph-decide", "--graph", "cycle:8", "--a", "1"],
    ["csg", "--game", "cycle:4"],
]
# inputs that reach no cap check: a bipartite graph, and a kP2 search with 2k > n
UNCHECKED = [["graph-alpha", "cycle:4"], ["graph-decide", "--graph", "cycle:5", "--a", "1"]]


@pytest.mark.parametrize("budget, code", [("-1", 2), ("0", 3)])
def test_cli_negative_budget_exits_2_and_zero_exits_3(budget, code, capsys):
    # a budget of 0 is used up only where a check runs; -1 is refused everywhere
    for argv in CHECKED + (UNCHECKED if code == 2 else []):
        assert run([*argv, "--budget", budget]) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")


def test_caps_live_only_in_budgets():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("budgets.py", "errors.py"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if re.search(r"\w_BUDGET\s*=|raise BudgetExceededError\(f", line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
