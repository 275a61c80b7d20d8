"""Complete simple games: desirability order, suffix sizes, and the payoff bound.

A game is complete when the player desirability relation (i outranks j if i
can replace j in any coalition without turning a win into a loss) is total;
a more desirable player then holds more of the smallest minimal winning
coalitions, so their counts by size order the players.  The payoff 1/s_r for
the r-th ranked player, where s_r is the smallest winning size inside the
suffix starting at r, keeps every winning coalition above 1/sqrt(n); its
ratio is compared with sqrt(n)*ln(n) exactly.  Every routine here reads the
minimal winning family alone, and the weighted generator lists it directly,
under the ``losing`` cap; nothing lists all 2^n coalitions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional

from . import budgets
from .alpha import compute_alpha_exact
from .errors import BudgetExceededError, CertificateError
from .games import (
    MAX_PLAYERS,
    SimpleGame,
    _lacking_columns,
    _members_inside,
    maximal_losing,
    new_game,
    size_counts,
)
from .lp import rat

_ZERO = Fraction(0)
MAX_WEIGHT = 9  # largest weight `random_weighted_voting_game` draws
ROW_CAP = 600  # most threshold-LP rows `sized_weighted_game` accepts


def desirability_ge(game: SimpleGame, i: int, j: int) -> bool:
    """True iff adding i never does worse than adding j, over all coalitions
    avoiding both.  It is enough to swap i for j in each minimal winning W
    holding j but not i, since a winning S + j contains such a W or wins
    without j.  W - j + i wins iff it contains a minimal winning M, which holds
    i but not j (an M without i would lie inside W - j), so iff some M - i
    lies inside W - j."""
    n = game.n
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"players must be distinct and in 1..{n}, got {i}, {j}")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    swapped, rivals = [], []  # the W - j and the M - i
    for c in game.minimal_winning:
        side = c.mask & (bi | bj)
        if side == bj:
            swapped.append(c.mask ^ bj)
        elif side == bi:
            rivals.append(c.mask ^ bi)
    minimal = set(rivals)  # t in it iff W - j + i is itself minimal winning
    pending = [t for t in swapped if t not in minimal]
    if not pending:
        return True
    columns = _lacking_columns(n, rivals)
    everyone = (1 << len(rivals)) - 1
    others = game.full_mask ^ bi ^ bj  # no rival holds i or j
    return all(_members_inside(columns, everyone, others & ~t) for t in pending)


@dataclass(frozen=True)
class CompleteGame:
    """A simple game together with a total desirability order (strongest first)."""

    game: SimpleGame
    ordering: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.ordering) != list(range(1, self.game.n + 1)):
            raise ValueError("ordering must be a permutation of 1..n")


def complete_order(game: SimpleGame) -> Optional[CompleteGame]:
    """Players strongest first, or None if an adjacent pair fails
    `desirability_ge`, which by transitivity happens iff the game is not complete.

    A player's key counts, for s = 1..n, the minimal winning coalitions of
    size s that hold it; larger keys (compared from s = 1) come first, ties by
    index.  Let sigma swap i and j.  If i outranks j, sigma maps each minimal
    winning set holding j but not i to a winning set, which by induction on
    size is minimal unless the first size where the counts differ favours i:
    a strictly stronger i has a strictly larger key.  If i ~ j, sigma is an
    automorphism and the keys are equal, so this is the winner-count order."""
    counts = size_counts(game.n, [w.mask for w in game.minimal_winning])
    ordering = tuple(sorted(range(1, game.n + 1), key=lambda p: ([-v for v in counts[p - 1]], p)))
    for stronger, weaker in zip(ordering, ordering[1:]):
        if not desirability_ge(game, stronger, weaker):
            return None
    return CompleteGame(game, ordering)


def suffix_sizes(cg: CompleteGame) -> tuple[int, tuple[int, ...]]:
    """k = deepest winning suffix of the order; s_r = smallest winning size
    inside the suffix starting at rank r, for r = 1..k (non-decreasing).

    A smallest winning coalition inside a suffix is a minimal winning one,
    and a minimal winning coalition lies inside suffix r exactly when its
    best-ranked player has rank >= r."""
    rank = {p: r for r, p in enumerate(cg.ordering, start=1)}
    firsts = [(min(rank[p] for p in w), len(w)) for w in cg.game.minimal_winning]
    k = max(first for first, _ in firsts)
    s = tuple(min(size for first, size in firsts if first >= r) for r in range(1, k + 1))
    return k, s


@dataclass(frozen=True)
class CsgPayoffReport:
    """The ranked payoff 1/s_r with the quantities the ratio bound rests on.

    greedy_bound is the telescoping sum (s_1-1)/s_1 + sum (s_i - s_{i-1})/s_i,
    which caps the payoff a losing coalition can collect inside ranks 1..k;
    ranks beyond k add at most (n-k)/s_k more (losing_cap).  The check flags
    record the provable inequalities plus the exact sqrt(n)*ln(n) ratio
    comparison (``bound`` shows that limit as a float), which can fail for
    extreme games (a dictator at small n) and is reported, not enforced.
    """

    k: int
    s: tuple[int, ...]
    payoff: tuple[Fraction, ...]  # indexed by player, not rank
    min_winning: Fraction
    max_losing: Fraction
    greedy_bound: Fraction
    ratio: Fraction
    bound: float
    losing_cap: Fraction
    winning_floor_ok: bool
    losing_prefix_ok: bool
    losing_cap_ok: bool
    greedy_le_harmonic: bool
    ratio_within_bound: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "s": list(self.s),
            "payoff": [rat(v) for v in self.payoff],
            "min_winning": rat(self.min_winning),
            "max_losing": rat(self.max_losing),
            "greedy_bound": rat(self.greedy_bound),
            "ratio": rat(self.ratio),
            "bound": self.bound,
        }


def greedy_losing_bound(s: tuple[int, ...]) -> Fraction:
    """(s_1-1)/s_1 + sum_{i>=2} (s_i - s_{i-1})/s_i, the prefix-LP optimum."""
    if not s:
        return _ZERO
    total = Fraction(s[0] - 1, s[0])
    for prev, cur in zip(s, s[1:]):
        total += Fraction(cur - prev, cur)
    return total


def _within_sqrt_n_ln_n(ratio: Fraction, n: int) -> bool:
    """ratio <= sqrt(n) * ln(n), decided exactly: ln n = 2 atanh(x) for
    x = (n-1)/(n+1), whose series past x^(2m-1)/(2m-1) sums to at most
    x^(2m+1)/((2m+1)(1-x^2)), and n ln(n)^2 is irrational for n >= 2."""
    if n == 1:
        return ratio <= 0
    x = Fraction(n - 1, n + 1)
    target = ratio * ratio / (4 * n)  # against (ln(n) / 2)^2
    lo, power, j = _ZERO, x, 1
    while True:
        lo += power / j
        power *= x * x
        j += 2
        if target <= lo * lo:
            return True
        if target >= (lo + power / (j * (1 - x * x))) ** 2:
            return False


def csg_payoff(cg: CompleteGame, budget: Optional[int] = None) -> CsgPayoffReport:
    """The ranked payoff's report; `budget` may lower the ``losing`` cap."""
    game = cg.game
    n = game.n
    k, s = suffix_sizes(cg)
    den = math.lcm(*s)
    payoff = [Fraction(1, s[k - 1])] * n
    prefix: dict[int, int] = {}  # payoff times lcm(s) -> players of rank <= k
    for r, player in enumerate(cg.ordering[:k]):
        payoff[player - 1] = Fraction(1, s[r])
        prefix[den // s[r]] = prefix.get(den // s[r], 0) | 1 << (player - 1)
    tail = sum(1 << (p - 1) for p in cg.ordering[k:])  # paid as rank k

    def score(mask: int) -> tuple[int, int]:  # (whole, the part inside ranks 1..k)
        part = sum(w * (mask & members).bit_count() for w, members in prefix.items())
        return part + den // s[k - 1] * (mask & tail).bit_count(), part

    min_winning = Fraction(min(score(w.mask)[0] for w in game.minimal_winning), den)
    wholes, parts = zip(*(score(l.mask) for l in maximal_losing(game, budget)))
    max_losing = Fraction(max(wholes), den)

    g_bound = greedy_losing_bound(s)
    cap = g_bound + (n - k) * Fraction(1, s[k - 1])
    harmonic = sum((Fraction(1, j) for j in range(2, s[k - 1] + 1)), _ZERO)
    ratio = max_losing / min_winning
    return CsgPayoffReport(
        k=k,
        s=s,
        payoff=tuple(payoff),
        min_winning=min_winning,
        max_losing=max_losing,
        greedy_bound=g_bound,
        ratio=ratio,
        bound=math.sqrt(n) * math.log(n),
        losing_cap=cap,
        winning_floor_ok=n * min_winning * min_winning >= 1,
        losing_prefix_ok=max(parts) <= g_bound * den,
        losing_cap_ok=max_losing <= cap,
        greedy_le_harmonic=g_bound <= harmonic,
        ratio_within_bound=_within_sqrt_n_ln_n(ratio, n),
    )


@dataclass(frozen=True)
class WeightedVotingGame:
    weights: tuple[int, ...]
    quota: int
    game: SimpleGame


def random_weighted_voting_game(
    n: int, seed: int, quota_range: tuple[float, float] = (0.5, 0.75)
) -> WeightedVotingGame:
    """Deterministic random weighted voting game (complete by construction).

    The quota is drawn uniformly from the given fraction range of the total
    weight, clamped above half so the game stays proper-ish and nonempty.
    Raises BudgetExceededError once the minimal winning coalitions outnumber
    the ``losing`` cap, which bounds the maximal losing ones of every game."""
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"weighted generator needs 1 <= n <= {MAX_PLAYERS}")
    rng = random.Random(f"wvg:{n}:{seed}:{MAX_WEIGHT}:{quota_range}")
    weights = [rng.randint(1, MAX_WEIGHT) for _ in range(n)]
    total = sum(weights)
    lo = max(total // 2 + 1, int(total * quota_range[0]))
    hi = max(lo, int(total * quota_range[1]))
    quota = rng.randint(lo, hi)
    # a search over the players, heaviest first: a winning set is minimal iff
    # it loses without its last, lightest player, and a branch that cannot
    # reach the quota is cut, so every node leads to a set, O(n) nodes per set
    order = sorted(range(n), key=lambda p: (-weights[p], p))
    rest = list(accumulate((weights[p] for p in reversed(order)), initial=0))[::-1]
    cap = budgets.limit("losing")
    minimal: list[int] = []

    def grow(start: int, held: int, mask: int) -> None:
        for k in range(start, n):
            if held + rest[k] < quota:
                return
            p = order[k]
            if held + weights[p] >= quota:
                minimal.append(mask | 1 << p)
                if len(minimal) > cap:
                    raise BudgetExceededError("losing", len(minimal), cap)
            else:
                grow(k + 1, held + weights[p], mask | 1 << p)

    grow(0, 0, 0)
    return WeightedVotingGame(tuple(weights), quota, new_game(n, minimal))


@dataclass(frozen=True)
class CsgCorpusEntry:
    seed: int
    n: int
    k: int
    alpha: Fraction
    ratio: Fraction
    alpha_le_ratio: bool
    ratio_within_bound: bool


@dataclass(frozen=True)
class CsgCorpusReport:
    n: int
    bound: float
    entries: tuple[CsgCorpusEntry, ...]
    all_alpha_le_ratio: bool
    all_ratio_within_bound: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "entries": [
                {
                    "seed": e.seed,
                    "k": e.k,
                    "alpha": rat(e.alpha),
                    "ratio": rat(e.ratio),
                }
                for e in self.entries
            ],
            "all_alpha_le_ratio": self.all_alpha_le_ratio,
            "all_ratio_within_bound": self.all_ratio_within_bound,
        }


def sized_weighted_game(n: int, seed: int) -> WeightedVotingGame:
    """Resample deterministically until the threshold LP stays desk-sized.

    Retries shift the quota upward, which shrinks the winning antichain."""
    attempt = 0
    while True:
        quota_range = (0.5, 0.75) if attempt == 0 else (0.75, 0.95)
        wvg = random_weighted_voting_game(n, seed * 1000 + attempt, quota_range=quota_range)
        rows = len(wvg.game.minimal_winning) + len(maximal_losing(wvg.game))
        if rows <= ROW_CAP:
            return wvg
        attempt += 1


def csg_bound_corpus(n: int, seeds: Iterable[int]) -> CsgCorpusReport:
    """Random weighted voting games: confirm completeness, compare the ranked
    payoff's ratio with exact alpha and the sqrt(n)*ln(n) bound."""
    budgets.check("corpus", n)
    bound = math.sqrt(n) * math.log(n)
    seed_list = sorted(set(int(s) for s in seeds))
    if not seed_list:
        raise ValueError("the corpus has no seeds; an empty check would pass vacuously")
    entries = []
    for seed in seed_list:
        wvg = sized_weighted_game(n, seed)
        cg = complete_order(wvg.game)
        if cg is None:
            raise CertificateError("a weighted voting game must be complete")
        report = csg_payoff(cg)
        alpha = compute_alpha_exact(wvg.game).alpha
        entries.append(
            CsgCorpusEntry(
                seed=seed,
                n=n,
                k=report.k,
                alpha=alpha,
                ratio=report.ratio,
                alpha_le_ratio=alpha <= report.ratio,
                ratio_within_bound=report.ratio_within_bound,
            )
        )
    return CsgCorpusReport(
        n=n,
        bound=bound,
        entries=tuple(entries),
        all_alpha_le_ratio=all(e.alpha_le_ratio for e in entries),
        all_ratio_within_bound=all(e.ratio_within_bound for e in entries),
    )
