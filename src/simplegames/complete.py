"""Complete simple games: desirability order, suffix sizes, and the payoff bound.

A game is complete when the player desirability relation (i outranks j if i
can replace j in any coalition without turning a win into a loss) is total.
For such games the payoff assigning 1/s_r to the r-th ranked player, where
s_r is the smallest winning-coalition size inside the suffix starting at r,
keeps every winning coalition above 1/sqrt(n) while capping losing coalitions
through a prefix-counting argument; the resulting worst-case ratio is at most
sqrt(n) * ln(n) on the corpora this module targets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional

from .alpha import coalition_value, compute_alpha_exact
from .errors import BudgetExceededError
from .games import Coalition, SimpleGame, absent_tables, maximal_losing, new_game, winning_table
from .lp import rat

DESIRABILITY_BUDGET = 20

_ZERO = Fraction(0)


def _check_budget(game: SimpleGame, budget: Optional[int]) -> None:
    cap = DESIRABILITY_BUDGET if budget is None else budget
    if game.n > cap:
        raise BudgetExceededError(
            f"desirability scan needs n <= {cap}, game has n = {game.n}"
        )


def desirability_ge(game: SimpleGame, i: int, j: int, budget: Optional[int] = None) -> bool:
    """True iff adding i never does worse than adding j, over all coalitions
    avoiding both."""
    _check_budget(game, budget)
    n = game.n
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"players must be distinct and in 1..{n}, got {i}, {j}")
    w = winning_table(game)
    absent = absent_tables(n)
    di, dj = 1 << (i - 1), 1 << (j - 1)
    scope = absent[i - 1] & absent[j - 1]
    bad = (w >> dj) & ~(w >> di) & scope
    return bad == 0


@dataclass(frozen=True)
class CompleteGame:
    """A simple game together with a total desirability order (strongest first)."""

    game: SimpleGame
    ordering: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.ordering) != list(range(1, self.game.n + 1)):
            raise ValueError("ordering must be a permutation of 1..n")


def complete_order(game: SimpleGame, budget: Optional[int] = None) -> Optional[CompleteGame]:
    """A consistent desirability order (ties broken by player index), or None
    if some pair of players is incomparable."""
    _check_budget(game, budget)
    n = game.n
    ge = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ge[(i, j)] = desirability_ge(game, i, j, budget)
            ge[(j, i)] = desirability_ge(game, j, i, budget)
            if not ge[(i, j)] and not ge[(j, i)]:
                return None

    def cmp(i: int, j: int) -> int:
        if ge[(i, j)] and not ge[(j, i)]:
            return -1
        if ge[(j, i)] and not ge[(i, j)]:
            return 1
        return i - j

    ordering = tuple(sorted(range(1, n + 1), key=cmp_to_key(cmp)))
    for r in range(n - 1):
        if not ge[(ordering[r], ordering[r + 1])]:
            raise AssertionError("ordering violates desirability")
    return CompleteGame(game, ordering)


def suffix_sizes(cg: CompleteGame) -> tuple[int, tuple[int, ...]]:
    """k = deepest winning suffix of the order; s_r = smallest winning size
    inside the suffix starting at rank r, for r = 1..k (non-decreasing)."""
    game = cg.game
    n = game.n
    size = 1 << n
    table = winning_table(game).to_bytes((size + 7) // 8, "little")
    pos = {p: r for r, p in enumerate(cg.ordering, start=1)}

    suffix_mask = 0
    suffix_masks = [0] * (n + 2)
    for r in range(n, 0, -1):
        suffix_mask |= 1 << (cg.ordering[r - 1] - 1)
        suffix_masks[r] = suffix_mask
    k = 1
    for r in range(n, 0, -1):
        if table[suffix_masks[r] >> 3] >> (suffix_masks[r] & 7) & 1:
            k = r
            break

    best = [n + 1] * (n + 2)
    for mask in range(1, size):
        if not table[mask >> 3] >> (mask & 7) & 1:
            continue
        first = n + 1
        m = mask
        while m:
            low = m & -m
            first = min(first, pos[low.bit_length()])
            m ^= low
        sz = mask.bit_count()
        if sz < best[first]:
            best[first] = sz
    s = [0] * (k + 1)
    running = n + 1
    for r in range(n, 0, -1):
        running = min(running, best[r])
        if r <= k:
            s[r] = running
    return k, tuple(s[1:])


@dataclass(frozen=True)
class CsgPayoffReport:
    """The ranked payoff 1/s_r with the quantities the ratio bound rests on.

    greedy_bound is the telescoping sum (s_1-1)/s_1 + sum (s_i - s_{i-1})/s_i,
    which caps the payoff a losing coalition can collect inside ranks 1..k;
    ranks beyond k add at most (n-k)/s_k more (losing_cap).  The check flags
    record the provable inequalities plus the sqrt(n)*ln(n) ratio comparison,
    which can fail for extreme games (a dictator at small n) and is therefore
    reported, not enforced.
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


def csg_payoff(cg: CompleteGame) -> CsgPayoffReport:
    game = cg.game
    n = game.n
    k, s = suffix_sizes(cg)
    payoff = [_ZERO] * n
    for r, player in enumerate(cg.ordering, start=1):
        payoff[player - 1] = Fraction(1, s[min(r, k) - 1])
    pk = Fraction(1, s[k - 1])

    min_winning = min(coalition_value(payoff, w) for w in game.minimal_winning)
    losing = maximal_losing(game)
    max_losing = max(coalition_value(payoff, l) for l in losing) if losing else _ZERO

    g_bound = greedy_losing_bound(s)
    cap = g_bound + (n - k) * pk
    prefix_players = set(cg.ordering[:k])
    prefix_ok = True
    cap_ok = True
    for l in losing:
        total = coalition_value(payoff, l)
        prefix_part = sum(
            (payoff[i - 1] for i in l.players() if i in prefix_players), _ZERO
        )
        if prefix_part > g_bound:
            prefix_ok = False
        if total > cap:
            cap_ok = False

    harmonic = sum((Fraction(1, j) for j in range(2, s[k - 1] + 1)), _ZERO)
    bound = math.sqrt(n) * math.log(n)
    ratio = max_losing / min_winning
    return CsgPayoffReport(
        k=k,
        s=s,
        payoff=tuple(payoff),
        min_winning=min_winning,
        max_losing=max_losing,
        greedy_bound=g_bound,
        ratio=ratio,
        bound=bound,
        losing_cap=cap,
        winning_floor_ok=n * min_winning * min_winning >= 1,
        losing_prefix_ok=prefix_ok,
        losing_cap_ok=cap_ok,
        greedy_le_harmonic=g_bound <= harmonic,
        ratio_within_bound=float(ratio) <= bound + 1e-12,
    )


@dataclass(frozen=True)
class WeightedVotingGame:
    weights: tuple[int, ...]
    quota: int
    game: SimpleGame


def random_weighted_voting_game(
    n: int,
    seed: int,
    max_weight: int = 9,
    quota_range: tuple[float, float] = (0.5, 0.75),
) -> WeightedVotingGame:
    """Deterministic random weighted voting game (complete by construction).

    The quota is drawn uniformly from the given fraction range of the total
    weight, clamped above half so the game stays proper-ish and nonempty."""
    if not 1 <= n <= DESIRABILITY_BUDGET:
        raise ValueError(f"weighted generator needs 1 <= n <= {DESIRABILITY_BUDGET}")
    rng = random.Random(f"wvg:{n}:{seed}:{max_weight}:{quota_range}")
    weights = [rng.randint(1, max_weight) for _ in range(n)]
    total = sum(weights)
    lo = max(total // 2 + 1, int(total * quota_range[0]))
    hi = max(lo, int(total * quota_range[1]))
    quota = rng.randint(lo, hi)
    size = 1 << n
    wsum = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        wsum[mask] = wsum[mask ^ low] + weights[low.bit_length() - 1]
    minimal = []
    for mask in range(1, size):
        if wsum[mask] < quota:
            continue
        m = mask
        is_min = True
        while m:
            low = m & -m
            m ^= low
            if wsum[mask ^ low] >= quota:
                is_min = False
                break
        if is_min:
            minimal.append(Coalition(mask))
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


def sized_weighted_game(n: int, seed: int, row_cap: int = 600) -> WeightedVotingGame:
    """Resample deterministically until the threshold LP stays desk-sized.

    Retries shift the quota upward, which shrinks the winning antichain."""
    attempt = 0
    while True:
        quota_range = (0.5, 0.75) if attempt == 0 else (0.75, 0.95)
        wvg = random_weighted_voting_game(n, seed * 1000 + attempt, quota_range=quota_range)
        rows = len(wvg.game.minimal_winning) + len(maximal_losing(wvg.game))
        if rows <= row_cap:
            return wvg
        attempt += 1


def csg_bound_corpus(n: int, seeds: Iterable[int]) -> CsgCorpusReport:
    """Random weighted voting games: confirm completeness, compare the ranked
    payoff's ratio with exact alpha and the sqrt(n)*ln(n) bound."""
    if n > 16:
        raise BudgetExceededError(f"corpus generation is capped at n <= 16, got {n}")
    bound = math.sqrt(n) * math.log(n)
    entries = []
    for seed in sorted(set(int(s) for s in seeds)):
        wvg = sized_weighted_game(n, seed)
        cg = complete_order(wvg.game)
        if cg is None:
            raise AssertionError("a weighted voting game must be complete")
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
