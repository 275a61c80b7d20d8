"""The 2^n-bit table sweeps that `maximal_losing` and `blocker` ran before the
minimal-transversal kernel: the reference for its differential tests.

Each sweep flags, in one table bit per coalition, the losing coalitions (or
the covers of the minimal winning family) and then keeps those that every
added (removed) player turns winning (into a non-cover), by one shift per
player.  Memory is 2^n bits per table, so keep n small.
"""

from __future__ import annotations

from simplegames.complete import absent_tables, winning_table
from simplegames.games import Coalition, SimpleGame, _antichain_order


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
