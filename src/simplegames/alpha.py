"""Exact computation of the critical threshold value alpha.

alpha is the least worst-case losing payoff over payoffs that give every
winning coalition at least 1.  It is computed by a single exact LP whose
variables are the payoff entries plus the threshold itself; only minimal
winning and maximal losing coalitions appear, the rest being redundant by
monotonicity.  A game is a weighted voting game exactly when alpha < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, UndefinedRatioError
from .games import Coalition, SimpleGame, maximal_losing, random_game
from .lp import GE, LPRow, LinearProgram, frac, solve_lp

Number = object  # ints, floats, strings, Fractions; converted via frac()

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class AlphaCertificate:
    """Exact alpha with an optimal payoff and its tight coalitions."""

    alpha: Fraction
    payoff: tuple[Fraction, ...]
    tight_losing: tuple[Coalition, ...]    # maximal losing with payoff == alpha
    binding_winning: tuple[Coalition, ...]  # minimal winning with payoff == 1

    def to_json_dict(self) -> dict:
        return {
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "payoff": [f"{v.numerator}/{v.denominator}" for v in self.payoff],
            "tight_losing": [list(c.players()) for c in self.tight_losing],
            "binding_winning": [list(c.players()) for c in self.binding_winning],
        }


def _coalition_value(payoff: Sequence[Fraction], c: Coalition) -> Fraction:
    return sum((payoff[i - 1] for i in c.players()), _ZERO)


def compute_alpha_exact(game: SimpleGame, budget: Optional[int] = None) -> AlphaCertificate:
    """Solve the threshold LP exactly and return alpha with witnesses."""
    losing = maximal_losing(game, budget)
    n = game.n
    nv = n + 1  # payoff entries plus the threshold variable
    rows = []
    for w in game.minimal_winning:
        coeffs = [0] * nv
        for i in w.players():
            coeffs[i - 1] = 1
        rows.append(LPRow(tuple(coeffs), GE, 1))
    for l in losing:
        coeffs = [0] * nv
        for i in l.players():
            coeffs[i - 1] = -1
        coeffs[n] = 1
        rows.append(LPRow(tuple(coeffs), GE, 0))
    objective = tuple([0] * n + [1])
    sol = solve_lp(LinearProgram(nv, objective, tuple(rows)))
    if sol.status != "optimal":
        raise AssertionError(f"threshold LP should be feasible and bounded, got {sol.status}")
    assert sol.primal is not None and sol.objective is not None
    payoff = sol.primal[:n]
    alpha = sol.objective
    tight = tuple(l for l in losing if _coalition_value(payoff, l) == alpha)
    binding = tuple(w for w in game.minimal_winning if _coalition_value(payoff, w) == _ONE)
    if any(_coalition_value(payoff, w) < 1 for w in game.minimal_winning):
        raise AssertionError("the payoff gives some minimal winning coalition less than 1")
    if any(_coalition_value(payoff, l) > alpha for l in losing):
        raise AssertionError("the payoff gives some maximal losing coalition more than alpha")
    if not tight:
        raise AssertionError("the optimum must be attained by some maximal losing coalition")
    return AlphaCertificate(alpha, payoff, tight, binding)


def alpha_of_payoff(
    game: SimpleGame, payoff: Sequence, budget: Optional[int] = None
) -> Fraction:
    """Worst losing payoff divided by the best (smallest) winning payoff at `payoff`."""
    p = [frac(v) for v in payoff]
    if len(p) != game.n:
        raise ValueError(f"payoff has {len(p)} entries for a {game.n}-player game")
    if any(v < 0 for v in p):
        raise ValueError("payoff entries must be nonnegative")
    if all(v == 0 for v in p):
        raise ValueError("payoff must not be identically zero")
    den = min(_coalition_value(p, w) for w in game.minimal_winning)
    if den == 0:
        raise UndefinedRatioError("some winning coalition has payoff 0; the ratio is undefined")
    num = max(_coalition_value(p, l) for l in maximal_losing(game, budget))
    return num / den


def is_weighted(game: SimpleGame, budget: Optional[int] = None) -> bool:
    """True iff the game admits weights and a quota, i.e. alpha < 1."""
    return compute_alpha_exact(game, budget).alpha < 1


@dataclass(frozen=True)
class ConjectureEntry:
    seed: int
    alpha: Fraction
    bound: Fraction  # n/4
    ratio: Fraction  # alpha / (n/4)


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    entries: tuple[ConjectureEntry, ...]
    max_ratio: Fraction
    all_within_bound: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {
                    "seed": e.seed,
                    "alpha": f"{e.alpha.numerator}/{e.alpha.denominator}",
                    "bound": f"{e.bound.numerator}/{e.bound.denominator}",
                    "ratio": f"{e.ratio.numerator}/{e.ratio.denominator}",
                }
                for e in self.entries
            ],
            "max_ratio": f"{self.max_ratio.numerator}/{self.max_ratio.denominator}",
            "all_within_bound": self.all_within_bound,
        }


def verify_conjecture_corpus(
    n: int,
    seeds: Optional[Iterable[int]] = None,
    count: int = 100,
    target_antichain_size: Optional[int] = None,
) -> ConjectureReport:
    """Check alpha <= n/4 on a corpus of random games; seeds default to range(count)."""
    if n > 16:
        raise BudgetExceededError(f"conjecture corpus is capped at n <= 16, got {n}")
    seed_list = sorted(set(range(count) if seeds is None else (int(s) for s in seeds)))
    target = target_antichain_size if target_antichain_size is not None else max(3, n)
    bound = Fraction(n, 4)
    entries = []
    for seed in seed_list:
        game = random_game(n, seed, target)
        alpha = compute_alpha_exact(game).alpha
        entries.append(ConjectureEntry(seed, alpha, bound, alpha / bound))
    max_ratio = max((e.ratio for e in entries), default=_ZERO)
    return ConjectureReport(
        n=n,
        entries=tuple(entries),
        max_ratio=max_ratio,
        all_within_bound=all(e.alpha <= bound for e in entries),
    )
