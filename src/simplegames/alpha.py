"""Exact computation of the critical threshold value alpha.

alpha is the least worst-case losing payoff over payoffs that give every
winning coalition at least 1.  It is computed by a single exact LP whose
variables are the payoff entries plus the threshold itself; only minimal
winning and maximal losing coalitions appear, the rest being redundant by
monotonicity.  A game is a weighted voting game exactly when alpha < 1.

The threshold LP is written once, as `ThresholdLP`, with one row builder:
one column per class of a partition of the players and one row per distinct
(winning or losing, class-count vector); the LP over the players is the
case of one class per player.  It is solved exactly, cold while the rows are
given up front and warm while losing rows arrive one at a time, and `solve`
returns integer numerators over one denominator, which `graphs.alpha_graph`
hands to its oracle as they are.  `certify` checks the last optimal pair,
primal and dual, in integers and in class space: `lp._certify` on the rows
as built, and a check that the partition is a symmetry of the game, which
lifts that dual to one over every coalition.  That check certifies every
alpha, here and in `graphs`.

alpha is invariant under the game's automorphisms, so `compute_alpha_exact`
solves the LP over classes of symmetric players (`games.symmetric_classes`),
a fraction of the rows for weighted games with equal weights, and
`graphs.alpha_graph` solves its cutting-plane LP over the graph's twin
classes.

A payoff is scored in integers, as numerators over one denominator, so no
check does `Fraction` arithmetic per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import budgets
from .errors import CertificateError, UndefinedRatioError
from .games import Coalition, SimpleGame, _swap_keeps, maximal_losing, random_game, symmetric_classes
from .lp import GE, LPRow, LinearProgram, TallLP, _certify, common_numerators, frac, rat, solve_lp


@dataclass(frozen=True)
class AlphaCertificate:
    """Exact alpha with an optimal payoff and its tight coalitions."""

    alpha: Fraction
    payoff: tuple[Fraction, ...]
    # the checked losing coalitions with payoff == alpha: maximal losing ones for
    # compute_alpha_exact, the oracle's sets (zero-weight players left out), sorted, for alpha_graph
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


def _swaps_keep(classes: Sequence[int], masks: list[int]) -> bool:
    """Whether each transposition of two consecutive players of a class maps
    the family of `masks` onto itself.  Those transpositions generate every
    permutation inside the classes."""
    family = set(masks)
    for c in classes:
        low, rest = c & -c, c & (c - 1)
        while rest:
            high = rest & -rest
            if not _swap_keeps(masks, family, low | high):
                return False
            low, rest = high, rest ^ high
    return True


def _class_columns(n: int, classes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The classes ordered by their least player, and player i+1 -> the index
    of its class in that order; raises unless the masks partition 1..n."""
    ordered = sorted(classes, key=lambda c: c & -c)
    column = [-1] * n
    for k, c in enumerate(ordered):
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
    return ordered, column


class ThresholdLP:
    """min t over p(W) >= 1 per winning and t - p(L) >= 0 per losing coalition, p >= 0.

    `classes`, masks that split the players, makes the LP give every player
    of a class the same payoff; None is one class per player.  The LP has
    one payoff column per class, numbered by the classes' least players,
    then the threshold t, and one integer row per distinct (winning or
    losing, number of the coalition's players in each class), built from the
    masks; over one class per player each coalition is its own row, in the
    order given.  When every permutation inside the classes maps the
    winning family onto itself, as for `games.symmetric_classes` and
    `graphs.twin_classes`, averaging an optimal payoff over those
    permutations keeps it optimal and makes it constant on each class, so
    the reduced LP has the same optimum.  `certify` checks that symmetry
    rather than assuming it, so a partition that is not one, or a wrong
    answer, fails it.

    `solve` returns the optimal p_1..p_n and t as integer numerators over
    one positive denominator.  Until a losing row is added, it is one cold
    `solve_lp` call over the rows given.  The first `add_losing` builds an
    `lp.TallLP` over the rows so far and adds the new row as a column of
    its dual; its cost e_t is nonnegative, so the `TallLP` starts feasible
    with no phase 1, and each later row costs a few pivots from the last
    optimal basis.  A row is added to any partition, keyed by its class
    counts.  `certify` checks the last solve alone, primal and dual: the
    rounds before it only feed the oracle.

    The first solve stays cold even for a cutting-plane loop, which could
    start warm: the benchmark's tracer counts cut rounds as `solve_lp` spans
    under `graphs.alpha_graph`, and its self-test needs some on graph-cuts.
    Start warm once the benchmark counts `ThresholdLP` solves.
    """

    def __init__(
        self,
        n: int,
        winning: Iterable[Coalition],
        losing: Iterable[Coalition] = (),
        classes: Optional[Sequence[int]] = None,
    ) -> None:
        self.n, self.winning, self.losing = n, list(winning), list(losing)
        self._classes, self._column = _class_columns(n, [1 << i for i in range(n)] if classes is None else classes)
        self._k, self._tall = len(self._classes), None
        self._last: Optional[tuple] = None  # the last solve's class payoffs and t over xden, its dual over yden
        # the rows, each row's key, and each coalition's row
        self._rows, self._index, self._group = [], {}, []
        self._add_rows(self.winning, 0)
        self._add_rows(self.losing, 1)

    def _add_rows(self, coalitions: Iterable[Coalition], t: int) -> None:
        """Count each coalition, winning at t = 0 and losing at t = 1, to the row
        of t and its class counts, appended when new: the counts, negated for
        a losing one, then t and the right-hand side 1 - t.  Over one class
        per player the mask is the counts, so it keys the row with t."""
        column, index, rows, group = self._column, self._index, self._rows, self._group
        per_player, v, blank = self._k == self.n, 1 - 2 * t, [0] * self._k + [t, 1 - t]
        for c in coalitions:
            mask = c.mask
            key = mask << 1 | t if per_player else (t, *[(mask & m).bit_count() for m in self._classes])
            r = index.setdefault(key, len(rows))
            if r == len(rows):
                row = blank.copy()
                while mask:
                    low = mask & -mask
                    row[column[low.bit_length() - 1]] += v
                    mask ^= low
                rows.append(row)
            group.append(r)

    def add_losing(self, losing: Coalition) -> None:
        """Add the row t - p(L) >= 0 of L's class counts; from here on every solve is warm.

        The payoff is constant on each class, so an optimum scores L as it
        scores every coalition with L's counts, and a row the LP already
        holds means that the last solve was wrong."""
        if self._tall is None:
            self._tall = TallLP(self._rows, 1, [0] * self._k + [1], 1)
        rows = len(self._rows)
        self._add_rows((losing,), 1)
        if len(self._rows) == rows:
            self._group.pop()
            raise CertificateError("the cut repeats a row of the LP, so the last solve was wrong")
        self._tall.add_row(self._rows[-1])
        self.losing.append(losing)

    def solve(self) -> tuple[list[int], int]:
        """The optimal p_1..p_n and t over the rows so far, as integer
        numerators over one positive denominator, exactly.

        The pair is not checked here: `certify` checks the last one."""
        k = self._k
        if self._tall is None:
            rows = tuple(LPRow(tuple(r[:-1]), GE, r[-1]) for r in self._rows)
            cold = solve_lp(LinearProgram(k + 1, (0,) * k + (1,), rows))
            if cold.status != "optimal":
                raise CertificateError(f"threshold LP should be feasible and bounded, got {cold.status}")
            x, xden = common_numerators(cold.primal)
            y, yden = common_numerators(cold.dual)
        else:
            status, warm = self._tall.solve()
            if warm is None:
                raise CertificateError(f"threshold LP should be feasible and bounded, got {status}")
            x, xden, y, yden = warm
        self._last = x, xden, y, yden
        return [x[c] for c in self._column] + [x[k]], xden

    def certify(self, extra_losing: Iterable[Coalition] = ()) -> AlphaCertificate:
        """Check the last solve's pair, primal and dual, in integers, and return it.

        `lp._certify` checks the pair on the rows as built, over the classes:
        x >= 0, each row, y >= 0, y^T a <= 0 at each class's column and <= 1
        at t's, which bounds the losing duals, and strong duality.  Every
        coalition of a row scores as the row, since the payoff is constant on
        each class, so a row's slack of 0 marks its coalitions binding or
        tight.  Each of `extra_losing` must score at most t, and some losing
        coalition exactly t.

        Each transposition of consecutive players of a class must map the
        minimal winning family onto itself, so every permutation inside the
        classes is an automorphism of the game and maps each row's
        coalitions to coalitions of the same kind and counts.  Spread over
        that orbit, y_r / |orbit| per coalition, the dual gives each player
        of class k the class column over the class's size, so the lifted
        dual is a dual of the LP over players and the answer is that LP's
        optimum.  Over one class per player this is the LP's own check.
        """
        assert self._last is not None, "solve before certify"
        x, den, y, yden = self._last
        slack = _certify(self._rows, 1, [0] * self._k + [1], 1, x, den, y, yden)  # over den
        group, nw = self._group, len(self.winning)
        binding = [w for w, r in zip(self.winning, group) if not slack[r]]
        tight = [l for l, r in zip(self.losing, group[nw:]) if not slack[r]]
        nums, t = [x[c] for c in self._column], x[-1]
        for l in extra_losing:
            v = mask_sum(nums, l.mask)
            if v > t:
                raise CertificateError("the payoff gives some losing coalition more than alpha")
            if v == t:
                tight.append(l)
        if not tight:
            raise CertificateError("the optimum must be attained by some losing coalition")
        if self._k < self.n and not _swaps_keep(self._classes, [w.mask for w in self.winning]):
            raise CertificateError("the partition is not a symmetry: a swap inside a class moves a winning coalition")
        payoff = tuple(Fraction(v, den) for v in nums)
        return AlphaCertificate(Fraction(t, den), payoff, tuple(tight), tuple(binding))


def compute_alpha_exact(game: SimpleGame, budget: Optional[int] = None) -> AlphaCertificate:
    """Solve the threshold LP exactly and return alpha with witnesses.

    The LP is solved over `games.symmetric_classes`, which keeps its optimum
    (see `ThresholdLP`), and `ThresholdLP.certify` checks the answer in
    class space, the classes' symmetry included: that check is the one
    certificate.  A game without symmetric players gets the full LP, its
    rows and its pivots unchanged; for a game with them the returned payoff
    is a class-constant optimal vertex, which may differ from the full LP's.
    """
    lp = ThresholdLP(game.n, game.minimal_winning, maximal_losing(game, budget), symmetric_classes(game))
    lp.solve()
    return lp.certify()


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
