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

alpha is invariant under the game's automorphisms, so `compute_alpha_exact`
solves the LP over classes of symmetric players (`games.symmetric_classes`):
one column per class and one row per class-count vector, which for
weighted games with equal weights is a fraction of the rows.  The reduced
answer is expanded and certified on every row of the full LP, so a
returned alpha never rests on the reduction alone.

A payoff is scored in integers: `lp.common_numerators` puts it over the lcm
of its denominators, and `mask_sum` adds the numerators of a coalition's
players, so the certificate and the feasibility checks compare integers
cleared of that one denominator and do no `Fraction` arithmetic per
coalition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

from . import budgets
from .errors import CertificateError, UndefinedRatioError
from .games import Coalition, SimpleGame, maximal_losing, random_game, symmetric_classes
from .lp import GE, LPRow, LinearProgram, TallLP, _certify, common_numerators, frac, rat, solve_lp

_ZERO = Fraction(0)


@dataclass(frozen=True)
class AlphaCertificate:
    """Exact alpha with an optimal payoff and its tight coalitions."""

    alpha: Fraction
    payoff: tuple[Fraction, ...]
    # the checked losing coalitions with payoff == alpha: maximal losing ones for
    # compute_alpha_exact, the oracle's sets (zero-weight players left out) for alpha_graph
    tight_losing: tuple[Coalition, ...]
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


def _incidence_row(n: int, mask: int, v: int, t: int, rhs: int) -> list[int]:
    """`v` at each player of the coalition with this mask and 0 elsewhere, then `t` and `rhs`.

    Only the mask's set bits are visited, so a coalition of two players
    costs two steps whatever n is."""
    row = [0] * n + [t, rhs]
    while mask:
        low = mask & -mask
        row[low.bit_length() - 1] = v
        mask ^= low
    return row


def _winning_row(n: int, mask: int) -> list[int]:
    """p(W) >= 1 as integers: the incidence of W, 0 for t, then the right-hand side."""
    return _incidence_row(n, mask, 1, 0, 1)


def _losing_row(n: int, mask: int) -> list[int]:
    """t - p(L) >= 0 as integers: minus the incidence of L, 1 for t, then the right-hand side."""
    return _incidence_row(n, mask, -1, 1, 0)


def _class_columns(n: int, classes: Sequence[int]) -> list[int]:
    """Player i+1 -> the index of its class; raises unless the masks partition 1..n."""
    column = [-1] * n
    for k, c in enumerate(classes):
        if not c or c >> n:
            raise ValueError("the classes must be nonempty masks of players 1..n")
        while c:
            low = c & -c
            i = low.bit_length() - 1
            if column[i] >= 0:
                raise ValueError("the classes must be disjoint")
            column[i] = k
            c ^= low
    if -1 in column:
        raise ValueError("the classes must cover players 1..n")
    return column


class ThresholdLP:
    """min t over p(W) >= 1 per winning and t - p(L) >= 0 per losing coalition, p >= 0.

    The columns are the payoff entries p_1..p_n and the threshold t; the rows
    are integers built from the coalitions' masks, one per coalition.

    `classes`, masks that split the players, makes the LP give every player
    of a class the same payoff.  When some class has more than one player,
    the LP that is solved has one payoff column per class, and one row per
    distinct (winning or losing, number of the coalition's players in each
    class), where the first coalition with those counts came; without
    `classes`, or with one player per class, it is the LP over the players.
    When every transposition inside a class maps both coalition families
    onto themselves, as `games.symmetric_classes` finds them for the
    minimal winning and maximal losing coalitions, the average of an
    optimal payoff's images under the group those transpositions generate
    is optimal and constant on each class, so the reduced LP has the same
    optimum.  The coalitions behind one reduced row are then all the sets
    with its counts, so its dual, spread evenly over them, is a dual of the
    full LP: each player of a class gets the class's column sum divided by
    the class size.  `solve` expands the payoff and that dual and checks
    them with `lp._certify` on every row of the full LP, so a partition
    that is not a symmetry, or a wrong reduced answer, raises
    `CertificateError`.

    Until a losing row is added, `solve` is one cold `solve_lp` call over
    the rows given.  The first `add_losing` builds an `lp.TallLP` over the
    rows so far and adds the new row as a column of its dual; its cost e_t
    is nonnegative, so the `TallLP` starts feasible with no phase 1, and
    each later row costs a few pivots from the last optimal basis.  Every
    warm solve is certified on all the rows so far.  Rows are added only
    to the LP over the players.

    The first solve stays cold even for a cutting-plane loop, which could
    start warm: the benchmark's tracer counts cut rounds as `solve_lp` spans
    under `graphs.alpha_graph`, and its self-test needs some on graph-cuts.
    That cold round costs 1043 of the 3110 pivots `alpha_graph` makes on the
    seed-3 graph-cuts corpus; start warm once the benchmark counts
    `ThresholdLP` solves.
    """

    def __init__(
        self,
        n: int,
        winning: Iterable[Coalition],
        losing: Iterable[Coalition] = (),
        classes: Optional[Sequence[int]] = None,
    ) -> None:
        self.n = n
        winning = list(winning)
        self.losing = list(losing)
        self._rows = [_winning_row(n, w.mask) for w in winning]
        self._rows += [_losing_row(n, l.mask) for l in self.losing]
        self._tall: Optional[TallLP] = None
        # the rows solved and their payoff columns; when reduced, the full
        # rows behind each solved row and each player's class
        self._solved, self._k = self._rows, n
        self._groups: Optional[list[list[int]]] = None
        if classes is None:
            return
        column = _class_columns(n, classes)
        if len(classes) == n:
            return
        self._column, self._k = column, len(classes)
        index: dict[tuple[int, ...], list[int]] = {}  # (t's coefficient, class counts) -> full rows
        for r, c in enumerate(chain(winning, self.losing)):
            key = (self._rows[r][n], *[(c.mask & m).bit_count() for m in classes])
            index.setdefault(key, []).append(r)
        self._groups = list(index.values())
        self._solved = []
        for (t, *counts), group in index.items():
            v = -1 if t else 1
            self._solved.append([v * count for count in counts] + self._rows[group[0]][n:])

    def add_losing(self, losing: Coalition) -> None:
        """Add the row t - p(L) >= 0; from here on every solve is warm."""
        if self._groups is not None:
            raise ValueError("rows are added only to the LP with one column per player")
        if self._tall is None:
            self._tall = TallLP(self._rows, 1, [0] * self.n + [1], 1)
        self._tall.add_row(_losing_row(self.n, losing.mask))
        self.losing.append(losing)

    def solve(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """The optimal payoff, one entry per player, and threshold over the rows so far, exactly."""
        n, k = self.n, self._k
        if self._tall is None:
            rows = tuple(LPRow(tuple(r[:-1]), GE, r[-1]) for r in self._solved)
            cold = solve_lp(LinearProgram(k + 1, (0,) * k + (1,), rows))
            if cold.status != "optimal":
                raise CertificateError(f"threshold LP should be feasible and bounded, got {cold.status}")
            if len(cold.primal) != k + 1:
                raise CertificateError("the threshold LP returned a solution of the wrong shape")
            if self._groups is None:
                return cold.primal[:n], cold.objective
            payoff = tuple(cold.primal[c] for c in self._column)
            self._certify_spread(payoff + cold.primal[k:], cold.dual)
            return payoff, cold.objective
        status, warm = self._tall.solve()
        if warm is None:
            raise CertificateError(f"threshold LP should be feasible and bounded, got {status}")
        x, xden, _, _ = warm
        payoff = tuple(Fraction(v, xden) if v else _ZERO for v in x[:n])
        return payoff, Fraction(x[n], xden)

    def _certify_spread(self, primal: Sequence[Fraction], dual: Sequence[Fraction]) -> None:
        """Raise unless `primal`, the payoff per player and t, and the reduced
        dual, spread evenly over the full rows behind each reduced row, are an
        optimal pair of the full LP."""
        groups = self._groups
        if len(dual) != len(groups):
            raise CertificateError("the threshold LP returned a solution of the wrong shape")
        x, xden = common_numerators(primal)
        y, yden = common_numerators(dual)
        spread = math.lcm(*map(len, groups))  # the full dual is over yden * spread
        full_y = [0] * len(self._rows)
        for group, yi in zip(groups, y):
            share = yi * (spread // len(group))
            for r in group:
                full_y[r] = share
        _certify(self._rows, 1, [0] * self.n + [1], 1, x, xden, full_y, yden * spread)


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
        raise CertificateError("the payoff gives some losing coalition more than alpha")
    tight = tuple(l for l, v in lost if v == cap)
    if not tight:
        raise CertificateError("the optimum must be attained by some losing coalition")
    binding = tuple(w for w, v in won if v == den)
    return AlphaCertificate(alpha, payoff, tight, binding)


def compute_alpha_exact(game: SimpleGame, budget: Optional[int] = None) -> AlphaCertificate:
    """Solve the threshold LP exactly and return alpha with witnesses.

    The LP is solved over `games.symmetric_classes`.  Swapping two players of
    a class maps the minimal winning and the maximal losing coalitions onto
    themselves, so it maps optimal payoffs to optimal payoffs, and by
    convexity the average of an optimal payoff's images under the group
    those swaps generate is an optimal payoff that is constant on each
    class: the LP with one column per class has the same optimum.  `ThresholdLP` spreads its dual evenly over the coalitions
    behind each row and checks that pair, in integers, on every row of the
    full LP, and `certify_alpha` checks the expanded payoff against every
    minimal winning and maximal losing coalition.  A game without symmetric
    players gets the full LP, its rows and its pivots unchanged; for a game
    with them the returned payoff is a class-constant optimal vertex, which
    may differ from the vertex the full LP would reach.
    """
    losing = maximal_losing(game, budget)
    classes = symmetric_classes(game)
    payoff, alpha = ThresholdLP(game.n, game.minimal_winning, losing, classes).solve()
    return certify_alpha(payoff, alpha, game.minimal_winning, losing)


def alpha_of_payoff(game: SimpleGame, payoff: Sequence) -> Fraction:
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
    high = max(mask_sum(nums, l.mask) for l in maximal_losing(game))
    return Fraction(high, low)


def is_weighted(game: SimpleGame) -> bool:
    """True iff the game admits weights and a quota, i.e. alpha < 1."""
    return compute_alpha_exact(game).alpha < 1


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


def verify_conjecture_corpus(n: int, seeds: Iterable[int]) -> ConjectureReport:
    """Check alpha <= n/4 on `random_game(n, seed, max(3, n))` per distinct seed,
    in ascending seed order; no seeds at all is a ValueError."""
    budgets.check("corpus", n)
    seed_list = sorted(set(int(s) for s in seeds))
    if not seed_list:
        raise ValueError("the corpus has no seeds; an empty check would pass vacuously")
    bound = Fraction(n, 4)
    entries = []
    for seed in seed_list:
        alpha = compute_alpha_exact(random_game(n, seed, max(3, n))).alpha
        entries.append(ConjectureEntry(seed, alpha, bound, alpha / bound))
    max_ratio = max(e.ratio for e in entries)
    return ConjectureReport(
        n=n,
        entries=tuple(entries),
        max_ratio=max_ratio,
        all_within_bound=all(e.alpha <= bound for e in entries),
    )
