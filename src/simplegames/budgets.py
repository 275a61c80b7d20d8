"""Every size cap of the package, and the one check that enforces them.

Exact alpha is NP-hard on graphic games, and a game can have exponentially
many maximal losing coalitions (or, from the weighted generator, minimal
winning ones), so each exponential routine refuses an input above its named
cap before it allocates or searches anything (those families, as their count
passes it).  An override may lower any cap but raise only ``mwis`` and
``kp2``, which bound time, not memory; the other caps bound what a routine
holds, so their default is a hard ceiling.  `limit` applies that rule and
refuses a negative override, for `check`, the transversal kernel of `games`,
the weighted generator of `complete` and the command line, which validates
``--budget`` before the verb runs because some inputs reach no check.  The
iteration caps (simplex ``pivots``, ``wolfe_cycles``, ``cut_rounds``) are
module constants beside their loops and raise the same error.
"""

from __future__ import annotations

from .errors import BudgetExceededError

CAPS = {
    "losing": 200_000,  # maximal losing coalitions (minimal covers) of a game, minimal winning of a wvg
    "corpus": 16,  # players in the random corpus drivers
    "mwis": 40,  # vertices in the exact independent-set searches of `graphs`
    "kp2": 5,  # disjoint edges in the induced kP2 search
    "antichain": 256,  # target antichain size in random_game, which draws up to 200 per unit
}
RAISABLE = frozenset({"mwis", "kp2"})


def limit(name: str, override: int | None = None) -> int:
    """The cap `name` under an override, which may lower any cap and raise only
    the RAISABLE ones.

    A negative override is invalid input, not a budget that is used up, so
    it raises ValueError.
    """
    cap = CAPS[name]
    if override is None:
        return cap
    if override < 0:
        raise ValueError(f"the {name} budget must be >= 0, got {override}")
    return override if override < cap or name in RAISABLE else cap


def check(name: str, value: int, override: int | None = None) -> None:
    """Raise BudgetExceededError(name, value, limit) when value exceeds the cap."""
    bound = limit(name, override)
    if value > bound:
        raise BudgetExceededError(name, value, bound)
