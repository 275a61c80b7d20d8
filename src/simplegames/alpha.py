"""Exact computation of the critical threshold value alpha.

alpha is the least worst-case losing payoff over payoffs that give every
winning coalition at least 1.  It is computed by a single exact LP whose
variables are the payoff entries plus the threshold itself; only minimal
winning and maximal losing coalitions appear, the rest being redundant by
monotonicity.  A game is a weighted voting game exactly when alpha < 1.

The threshold LP is written once, in three functions: `threshold_rows`
builds its rows from winning and losing coalitions, `solve_threshold_lp`
solves it exactly, and `certify_alpha` checks the optimal payoff against the
same coalitions.  The graphic-game routines in `graphs` reuse all three, with
the edges as winning coalitions and independent sets as losing ones.  A
cutting-plane loop, which adds losing rows one at a time, keeps the same LP
warm in a `ThresholdLP` instead of solving it again from scratch; it builds
the same rows as integer lists straight from the coalitions' masks.

A payoff is scored in integers: `lp.common_numerators` puts it over the lcm
of its denominators, and `mask_sum` adds the numerators of a coalition's
players, so the certificate and the feasibility checks compare integers
cleared of that one denominator and do no `Fraction` arithmetic per
coalition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import budgets
from .errors import CertificateError, UndefinedRatioError
from .games import Coalition, SimpleGame, maximal_losing, random_game
from .lp import GE, LPRow, LinearProgram, TallLP, common_numerators, frac, rat, solve_lp

_ZERO = Fraction(0)


@dataclass(frozen=True)
class AlphaCertificate:
    """Exact alpha with an optimal payoff and its tight coalitions."""

    alpha: Fraction
    payoff: tuple[Fraction, ...]
    tight_losing: tuple[Coalition, ...]    # maximal losing with payoff == alpha
    binding_winning: tuple[Coalition, ...]  # minimal winning with payoff == 1

    def to_json_dict(self) -> dict:
        return {
            "alpha": rat(self.alpha),
            "payoff": [rat(v) for v in self.payoff],
            "tight_losing": [list(c.players()) for c in self.tight_losing],
            "binding_winning": [list(c.players()) for c in self.binding_winning],
        }


def mask_sum(nums: Sequence[int], mask: int) -> int:
    """The sum of `nums` over the players of the coalition with this mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += nums[low.bit_length() - 1]
        mask ^= low
    return total


def _winning_row(n: int, mask: int) -> list[int]:
    """p(W) >= 1 as integers: the incidence of W, 0 for t, then the right-hand side."""
    return [mask >> j & 1 for j in range(n)] + [0, 1]


def _losing_row(n: int, mask: int) -> list[int]:
    """t - p(L) >= 0 as integers: minus the incidence of L, 1 for t, then the right-hand side."""
    return [-(mask >> j & 1) for j in range(n)] + [1, 0]


def threshold_rows(
    n: int, winning: Iterable[Coalition], losing: Iterable[Coalition]
) -> list[LPRow]:
    """Rows p(W) >= 1 per winning and t - p(L) >= 0 per losing coalition.

    The columns are the payoff entries p_1..p_n and the threshold t."""
    rows = [_winning_row(n, w.mask) for w in winning]
    rows += [_losing_row(n, l.mask) for l in losing]
    return [LPRow(tuple(r[:-1]), GE, r[-1]) for r in rows]


def solve_threshold_lp(n: int, rows: Sequence[LPRow]) -> tuple[tuple[Fraction, ...], Fraction]:
    """The optimal payoff and threshold of min t over `rows`, exactly."""
    sol = solve_lp(LinearProgram(n + 1, (0,) * n + (1,), tuple(rows)))
    if sol.status != "optimal":
        raise CertificateError(f"threshold LP should be feasible and bounded, got {sol.status}")
    return sol.primal[:n], sol.objective


class ThresholdLP:
    """The threshold LP of `threshold_rows`, kept warm in an `lp.TallLP` while losing rows arrive.

    Its cost e_t is nonnegative, so the `TallLP` starts feasible with no
    phase 1, and each row t - p(L) >= 0 enters as a new column of its dual,
    priced from the last optimal basis.  Every solve is certified on
    all the rows added so far.
    """

    def __init__(self, n: int, winning: Iterable[Coalition]) -> None:
        self.n = n
        rows = [_winning_row(n, w.mask) for w in winning]
        self._lp = TallLP(rows, 1, [0] * n + [1], 1)

    def add_losing(self, losing: Coalition) -> None:
        """Add the row t - p(L) >= 0."""
        self._lp.add_row(_losing_row(self.n, losing.mask))

    def solve(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """The optimal payoff and threshold over the rows so far."""
        status, sol = self._lp.solve()
        if sol is None:
            raise CertificateError(f"threshold LP should be feasible and bounded, got {status}")
        x, xden, _, _ = sol
        payoff = tuple(Fraction(v, xden) if v else _ZERO for v in x[: self.n])
        return payoff, Fraction(x[self.n], xden)


def certify_alpha(
    payoff: tuple[Fraction, ...],
    alpha: Fraction,
    winning: Iterable[Coalition],
    losing: Iterable[Coalition],
) -> AlphaCertificate:
    """Check an optimal threshold-LP solution and collect its witnesses.

    Raises unless every winning coalition gets at least 1, no losing one gets
    more than alpha, and some losing one attains alpha.  With the payoff as
    numerators over den and alpha = a/b, a coalition worth v/den wins
    enough when v >= den and stays within alpha when v * b <= a * den, so
    every comparison is between integers.
    """
    nums, den = common_numerators(payoff)
    cap = alpha.numerator * den  # alpha * den, over alpha's denominator
    won = [(w, mask_sum(nums, w.mask)) for w in winning]
    lost = [(l, mask_sum(nums, l.mask) * alpha.denominator) for l in losing]
    if any(v < den for _, v in won):
        raise CertificateError("the payoff gives some minimal winning coalition less than 1")
    if any(v > cap for _, v in lost):
        raise CertificateError("the payoff gives some maximal losing coalition more than alpha")
    tight = tuple(l for l, v in lost if v == cap)
    if not tight:
        raise CertificateError("the optimum must be attained by some maximal losing coalition")
    binding = tuple(w for w, v in won if v == den)
    return AlphaCertificate(alpha, payoff, tight, binding)


def compute_alpha_exact(game: SimpleGame, budget: Optional[int] = None) -> AlphaCertificate:
    """Solve the threshold LP exactly and return alpha with witnesses."""
    losing = maximal_losing(game, budget)
    payoff, alpha = solve_threshold_lp(game.n, threshold_rows(game.n, game.minimal_winning, losing))
    return certify_alpha(payoff, alpha, game.minimal_winning, losing)


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
    nums, _ = common_numerators(p)
    # both sums are over the same denominator, which cancels in the ratio
    low = min(mask_sum(nums, w.mask) for w in game.minimal_winning)
    if low == 0:
        raise UndefinedRatioError("some winning coalition has payoff 0; the ratio is undefined")
    high = max(mask_sum(nums, l.mask) for l in maximal_losing(game, budget))
    return Fraction(high, low)


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
                    "alpha": rat(e.alpha),
                    "bound": rat(e.bound),
                    "ratio": rat(e.ratio),
                }
                for e in self.entries
            ],
            "max_ratio": rat(self.max_ratio),
            "all_within_bound": self.all_within_bound,
        }


def verify_conjecture_corpus(
    n: int,
    seeds: Optional[Iterable[int]] = None,
    count: int = 100,
    target_antichain_size: Optional[int] = None,
) -> ConjectureReport:
    """Check alpha <= n/4 on a corpus of random games; seeds default to range(count)."""
    budgets.check("corpus", n)
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
