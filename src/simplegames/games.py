"""Simple games given by their minimal winning coalitions.

A simple game on players 1..n partitions the 2^n coalitions into losing and
winning sets, closed under taking subsets and supersets respectively.  The
antichain of minimal winning coalitions determines everything else; this
module derives the winning/losing classification, the maximal losing
coalitions, and the blocker (the family of minimal covers).

Coalitions are bit masks (player i is bit i-1), which keeps subset tests O(1)
and lets the enumeration-heavy operations work on one big integer whose bit s
says whether coalition-mask s is winning.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union

from .errors import BudgetExceededError

MAX_PLAYERS = 64
ENUMERATION_BUDGET = 24  # ops that sweep all 2^n subsets refuse larger n

CoalitionLike = Union["Coalition", int, Iterable[int]]


@dataclass(frozen=True)
class Coalition:
    """An immutable set of players, stored as a bit mask (player i <-> bit i-1)."""

    mask: int

    def __post_init__(self) -> None:
        if not isinstance(self.mask, int) or self.mask < 0:
            raise ValueError(f"coalition mask must be a nonnegative int, got {self.mask!r}")

    @classmethod
    def of(cls, *players: int) -> "Coalition":
        return cls.from_players(players)

    @classmethod
    def from_players(cls, players: Iterable[int]) -> "Coalition":
        mask = 0
        for p in players:
            if not isinstance(p, int) or p < 1 or p > MAX_PLAYERS:
                raise ValueError(f"player index out of range 1..{MAX_PLAYERS}: {p!r}")
            mask |= 1 << (p - 1)
        return cls(mask)

    def players(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length())
            m ^= low
        return tuple(out)

    def __iter__(self) -> Iterator[int]:
        return iter(self.players())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, player: int) -> bool:
        return player >= 1 and bool(self.mask >> (player - 1) & 1)

    def issubset(self, other: "Coalition") -> bool:
        return self.mask & ~other.mask == 0

    def __or__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask)

    def __and__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & other.mask)

    def complement(self, n: int) -> "Coalition":
        return Coalition(((1 << n) - 1) & ~self.mask)

    def __repr__(self) -> str:
        return f"Coalition{self.players()!r}"


def _coerce(c: CoalitionLike) -> Coalition:
    if isinstance(c, Coalition):
        return c
    if isinstance(c, int):
        return Coalition(c)
    return Coalition.from_players(c)


@dataclass(frozen=True)
class SimpleGame:
    """n players plus the antichain of minimal winning coalitions.

    Construct through :func:`new_game`, which prunes non-minimal input;
    the constructor itself rejects anything violating the invariants
    (nonempty antichain of nonempty coalitions within 1..n).
    """

    n: int
    minimal_winning: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {self.n!r}")
        if not self.minimal_winning:
            raise ValueError("a simple game needs at least one winning coalition")
        full = (1 << self.n) - 1
        for c in self.minimal_winning:
            if c.mask == 0:
                raise ValueError("the empty coalition cannot be winning")
            if c.mask & ~full:
                raise ValueError(f"coalition {c.players()} has players outside 1..{self.n}")
        for a in self.minimal_winning:
            for b in self.minimal_winning:
                if a is not b and a.issubset(b):
                    raise ValueError("minimal_winning must be an antichain")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def new_game(n: int, coalitions: Iterable[CoalitionLike]) -> SimpleGame:
    """Build the game whose minimal winning sets are the minimal members of `coalitions`.

    Non-minimal inputs are silently pruned; duplicates collapse.  Raises
    ValueError for an empty list, an empty coalition, or out-of-range players.
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n!r}")
    full = (1 << n) - 1
    masks = []
    for c in coalitions:
        co = _coerce(c)
        if co.mask == 0:
            raise ValueError("empty coalition cannot be winning (the empty set is losing)")
        if co.mask & ~full:
            raise ValueError(f"coalition {co.players()} has players outside 1..{n}")
        masks.append(co.mask)
    if not masks:
        raise ValueError("at least one winning coalition is required")
    masks.sort(key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in masks:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    coals = sorted((Coalition(m) for m in kept), key=lambda c: c.players())
    return SimpleGame(n, tuple(coals))


def is_winning(game: SimpleGame, s: CoalitionLike) -> bool:
    """True iff `s` contains some minimal winning coalition."""
    c = _coerce(s)
    if c.mask & ~game.full_mask:
        raise ValueError(f"coalition {c.players()} has players outside 1..{game.n}")
    m = c.mask
    return any(w.mask & ~m == 0 for w in game.minimal_winning)


# --- bit-parallel subset tables ------------------------------------------
#
# A "table" is an int with 2^n bits; bit s refers to the coalition with mask s.
# Shifting a table by 2^(i-1) moves information between S and S+{i}, so the
# monotone closure and the minimality/maximality filters are a handful of
# bigint operations each.


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


@lru_cache(maxsize=256)
def winning_table(game: SimpleGame) -> int:
    """The table flagging every winning coalition (the monotone closure)."""
    absent = absent_tables(game.n)
    w = 0
    for c in game.minimal_winning:
        w |= 1 << c.mask
    for i in range(1, game.n + 1):
        w |= (w & absent[i - 1]) << (1 << (i - 1))
    return w


def _check_enum_budget(game: SimpleGame, budget: int | None) -> None:
    cap = ENUMERATION_BUDGET if budget is None else budget
    if game.n > cap:
        raise BudgetExceededError(
            f"subset enumeration needs n <= {cap}, game has n = {game.n}"
        )


def _extract(table: int) -> list[Coalition]:
    out = []
    while table:
        low = table & -table
        out.append(Coalition(low.bit_length() - 1))
        table ^= low
    out.sort(key=lambda c: c.players())
    return out


def maximal_losing(game: SimpleGame, budget: int | None = None) -> list[Coalition]:
    """All inclusion-maximal losing coalitions (every proper superset wins)."""
    _check_enum_budget(game, budget)
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
    return _extract(m)


def blocker(game: SimpleGame, budget: int | None = None) -> list[Coalition]:
    """All inclusion-minimal covers: sets meeting every minimal winning coalition.

    Complements of the returned covers are exactly the maximal losing
    coalitions; that identity is checked by tests, not assumed here, so this
    computes covers directly.
    """
    _check_enum_budget(game, budget)
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
    return _extract(m)


@dataclass(frozen=True)
class GameStats:
    winning: int
    losing: int
    minimal_winning: int
    maximal_losing: int


def game_stats(game: SimpleGame, budget: int | None = None) -> GameStats:
    _check_enum_budget(game, budget)
    w = winning_table(game).bit_count()
    return GameStats(
        winning=w,
        losing=(1 << game.n) - w,
        minimal_winning=len(game.minimal_winning),
        maximal_losing=len(maximal_losing(game, budget)),
    )


def cycle_game(n: int) -> SimpleGame:
    """Players around an even cycle; the n consecutive pairs are minimal winning."""
    if not isinstance(n, int) or n % 2 != 0 or not 4 <= n <= MAX_PLAYERS:
        raise ValueError(f"cycle game needs an even n with 4 <= n <= {MAX_PLAYERS}, got {n!r}")
    pairs = [Coalition.of(i, i + 1) for i in range(1, n)]
    pairs.append(Coalition.of(n, 1))
    return new_game(n, pairs)


def random_game(n: int, seed: int, target_antichain_size: int) -> SimpleGame:
    """Deterministic random game: uniform coalitions pruned to an antichain.

    Sampling keeps inclusion-minimal coalitions until the antichain reaches
    the target size or the draw budget runs out, so the result can be smaller
    than requested but always satisfies the SimpleGame invariants.
    """
    if not isinstance(n, int) or not 2 <= n <= ENUMERATION_BUDGET:
        raise ValueError(f"random_game needs 2 <= n <= {ENUMERATION_BUDGET}, got {n!r}")
    if target_antichain_size < 1:
        raise ValueError("target_antichain_size must be >= 1")
    rng = random.Random(f"simplegame:{n}:{seed}:{target_antichain_size}")
    kept: list[int] = []
    attempts = 0
    while len(kept) < target_antichain_size and attempts < 200 * target_antichain_size:
        attempts += 1
        m = rng.randrange(1, 1 << n)
        if any(k & ~m == 0 for k in kept):
            continue
        kept = [k for k in kept if m & ~k != 0]
        kept.append(m)
    return new_game(n, [Coalition(m) for m in kept])


# --- JSON format ----------------------------------------------------------


def game_to_json_dict(game: SimpleGame) -> dict:
    return {
        "n": game.n,
        "minimal_winning": [list(c.players()) for c in game.minimal_winning],
    }


def game_to_json(game: SimpleGame) -> str:
    return json.dumps(game_to_json_dict(game), sort_keys=True)


def game_from_json(source: Union[str, bytes, dict]) -> SimpleGame:
    data = json.loads(source) if not isinstance(source, dict) else source
    if not isinstance(data, dict) or "n" not in data or "minimal_winning" not in data:
        raise ValueError('game JSON must have keys "n" and "minimal_winning"')
    return new_game(data["n"], data["minimal_winning"])
