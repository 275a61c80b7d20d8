"""Complete simple games: desirability order, suffix sizes, and the payoff bound.

A game is complete when the player desirability relation (i outranks j if i
can replace j in any coalition without turning a win into a loss) is total;
a more desirable player then wins in more coalitions, so winner counts order
the players.  The payoff 1/s_r for the r-th ranked player, where s_r is the
smallest winning size inside the suffix starting at r, keeps every winning
coalition above 1/sqrt(n); its ratio is compared with sqrt(n)*ln(n) exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import budgets
from .alpha import compute_alpha_exact
from .errors import CertificateError
from .games import Coalition, SimpleGame, absent_tables, maximal_losing, new_game, winning_table
from .lp import rat

_ZERO = Fraction(0)
MAX_WEIGHT = 9  # largest weight `random_weighted_voting_game` draws
ROW_CAP = 600  # most threshold-LP rows `sized_weighted_game` accepts


def desirability_ge(game: SimpleGame, i: int, j: int, budget: Optional[int] = None) -> bool:
    """True iff adding i never does worse than adding j, over all coalitions
    avoiding both."""
    budgets.check("desirability", game.n, budget)
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
    """Players sorted by winning-coalition count, strongest first with ties by
    index, or None if an adjacent pair fails `desirability_ge`; desirability
    being transitive, that happens exactly when the game is not complete."""
    budgets.check("desirability", game.n, budget)
    n = game.n
    w = winning_table(game)
    absent = absent_tables(n)
    wins = [(w & ~absent[i - 1]).bit_count() for i in range(1, n + 1)]
    ordering = tuple(sorted(range(1, n + 1), key=lambda i: (-wins[i - 1], i)))
    for stronger, weaker in zip(ordering, ordering[1:]):
        if not desirability_ge(game, stronger, weaker, budget):
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


def csg_payoff(cg: CompleteGame) -> CsgPayoffReport:
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
    wholes, parts = zip(*(score(l.mask) for l in maximal_losing(game)))
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
    weight, clamped above half so the game stays proper-ish and nonempty."""
    cap = budgets.CAPS["desirability"]
    if not 1 <= n <= cap:
        raise ValueError(f"weighted generator needs 1 <= n <= {cap}")
    rng = random.Random(f"wvg:{n}:{seed}:{MAX_WEIGHT}:{quota_range}")
    weights = [rng.randint(1, MAX_WEIGHT) for _ in range(n)]
    total = sum(weights)
    lo = max(total // 2 + 1, int(total * quota_range[0]))
    hi = max(lo, int(total * quota_range[1]))
    quota = rng.randint(lo, hi)
    # the masks whose top player is i + 1 are rest + 2^i for rest < 2^i, so
    # the tables fill in ascending mask order; no weight exceeds MAX_WEIGHT
    wsum, lightest, minimal = [0], [MAX_WEIGHT], []
    for i, w in enumerate(weights):
        for rest in range(1 << i):
            total = wsum[rest] + w
            light = w if w < lightest[rest] else lightest[rest]
            wsum.append(total)
            lightest.append(light)
            # a winning coalition is minimal iff it loses without its lightest player
            if total >= quota > total - light:
                minimal.append(Coalition(rest | 1 << i))
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
