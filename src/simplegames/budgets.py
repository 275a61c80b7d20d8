"""Every size cap of the package, and the one check that enforces them.

Exact alpha is NP-hard on graphic games and the game routines enumerate
coalitions in 2^n-bit tables, so each exponential routine refuses an input
above its named cap before it allocates or searches anything.  An override
may lower any cap but raise only ``mwis`` and ``kp2``, which bound time, not
memory; the other caps guard a 2^n allocation or stand for one, so their
default is a hard ceiling.  The iteration caps (simplex pivots, Wolfe
cycles, cut rounds, the maximal-independent-set family) stay beside their
loops and raise the same error.
"""

from __future__ import annotations

from .errors import BudgetExceededError

CAPS = {
    "tables": 24,  # players in the subset tables of `games`
    "desirability": 20,  # players in the desirability scan of `complete`
    "tightness": 20,  # players in tightness_check: its winning table, its maximal losing list
    "min_norm": 24,  # players in min_norm_point
    "corpus": 16,  # players in the random corpus drivers
    "mwis": 40,  # vertices in the exact independent-set searches of `graphs`
    "kp2": 5,  # disjoint edges in the induced kP2 search
}
RAISABLE = frozenset({"mwis", "kp2"})


def check(name: str, value: int, override: int | None = None) -> None:
    """Raise BudgetExceededError(name, value, limit) when value exceeds the cap.

    A negative override is invalid input, not a budget that is used up, so
    it raises ValueError.
    """
    limit = CAPS[name]
    if override is not None and override < 0:
        raise ValueError(f"the {name} budget must be >= 0, got {override}")
    if override is not None and (override < limit or name in RAISABLE):
        limit = override
    if value > limit:
        raise BudgetExceededError(name, value, limit)
