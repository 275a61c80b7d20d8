"""The 2^n-bit table code the package ran before it worked on the minimal
winning family alone: the reference for the differential tests of the
minimal-transversal kernel (`maximal_losing`, `blocker`) and of `complete`
(`desirability_ge`, `complete_order`, the weighted generator).

A table is an int with 2^n bits; bit s refers to the coalition with mask s,
and shifting a table by 2^(i-1) moves information between S and S+{i}.  The
sweeps flag, in one table bit per coalition, the losing coalitions (or the
covers of the minimal winning family) and then keep those that every added
(removed) player turns winning (into a non-cover), by one shift per player.
Memory is 2^n bits per table, so keep n small.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional

from simplegames.complete import MAX_WEIGHT, CompleteGame, WeightedVotingGame
from simplegames.games import Coalition, SimpleGame, _antichain_order, new_game


@lru_cache(maxsize=64)
def absent_tables(n: int) -> tuple[int, ...]:
    """For each player i, the table flagging every coalition that omits i."""
    size = 1 << n
    out = []
    for i in range(1, n + 1):
        d = 1 << (i - 1)
        v = (1 << d) - 1
        span = 2 * d
        while span < size:
            v |= v << span
            span *= 2
        out.append(v)
    return tuple(out)


@lru_cache(maxsize=16)
def winning_table(game: SimpleGame) -> int:
    """The table flagging every winning coalition (the monotone closure)."""
    absent = absent_tables(game.n)
    w = 0
    for c in game.minimal_winning:
        w |= 1 << c.mask
    for i in range(1, game.n + 1):
        w |= (w & absent[i - 1]) << (1 << (i - 1))
    return w


def desirability_ge(game: SimpleGame, i: int, j: int) -> bool:
    """True iff adding i never does worse than adding j, over all coalitions
    avoiding both: no S + j wins where S + i loses."""
    w = winning_table(game)
    absent = absent_tables(game.n)
    di, dj = 1 << (i - 1), 1 << (j - 1)
    scope = absent[i - 1] & absent[j - 1]
    return (w >> dj) & ~(w >> di) & scope == 0


def complete_order(game: SimpleGame) -> Optional[CompleteGame]:
    """Players sorted by winning-coalition count, strongest first with ties by
    index, or None if an adjacent pair fails the table `desirability_ge`."""
    n = game.n
    w = winning_table(game)
    absent = absent_tables(n)
    wins = [(w & ~absent[i - 1]).bit_count() for i in range(1, n + 1)]
    ordering = tuple(sorted(range(1, n + 1), key=lambda i: (-wins[i - 1], i)))
    for stronger, weaker in zip(ordering, ordering[1:]):
        if not desirability_ge(game, stronger, weaker):
            return None
    return CompleteGame(game, ordering)


def random_weighted_voting_game(
    n: int, seed: int, quota_range: tuple[float, float] = (0.5, 0.75)
) -> WeightedVotingGame:
    """The weighted generator's draws, with the minimal winning coalitions
    found by one pass over all 2^n masks."""
    rng = random.Random(f"wvg:{n}:{seed}:{MAX_WEIGHT}:{quota_range}")
    weights = [rng.randint(1, MAX_WEIGHT) for _ in range(n)]
    total = sum(weights)
    lo = max(total // 2 + 1, int(total * quota_range[0]))
    hi = max(lo, int(total * quota_range[1]))
    quota = rng.randint(lo, hi)
    # the masks whose top player is i + 1 are rest + 2^i for rest < 2^i, so
    # the lists fill in ascending mask order; no weight exceeds MAX_WEIGHT
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


def _extract(n: int, table: int) -> list[Coalition]:
    """The coalitions a table flags, which form an antichain, by player tuple."""
    masks = []
    while table:
        low = table & -table
        masks.append(low.bit_length() - 1)
        table ^= low
    return _antichain_order(n, masks)


def maximal_losing(game: SimpleGame) -> list[Coalition]:
    """All inclusion-maximal losing coalitions, from the winning table."""
    n = game.n
    size = 1 << n
    full_table = (1 << size) - 1
    absent = absent_tables(n)
    w = winning_table(game)
    m = full_table ^ w  # losing
    for i in range(1, n + 1):
        d = 1 << (i - 1)
        present = full_table ^ absent[i - 1]
        # keep S iff i in S, or S+{i} is winning
        m &= present | ((w >> d) & absent[i - 1])
    return _extract(n, m)


def blocker(game: SimpleGame) -> list[Coalition]:
    """All inclusion-minimal covers, computed directly from the cover table."""
    n = game.n
    size = 1 << n
    full_table = (1 << size) - 1
    absent = absent_tables(n)
    cover = full_table
    for wc in game.minimal_winning:
        avoid = full_table
        for i in wc.players():
            avoid &= absent[i - 1]
        cover &= full_table ^ avoid
    m = cover
    for i in range(1, n + 1):
        d = 1 << (i - 1)
        present = full_table ^ absent[i - 1]
        # keep C iff i not in C, or C-{i} is not a cover
        m &= absent[i - 1] | (present & ~(cover << d) & full_table)
    return _extract(n, m)
