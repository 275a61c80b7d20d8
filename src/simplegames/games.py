"""Simple games given by their minimal winning coalitions.

A simple game on players 1..n partitions the 2^n coalitions into losing and
winning sets, closed under taking subsets and supersets respectively.  The
antichain of minimal winning coalitions determines everything else; this
module derives the winning/losing classification, the maximal losing
coalitions, and the blocker (the family of minimal covers).

Coalitions are bit masks (player i is bit i-1), which keeps subset tests O(1),
and every family is an antichain of masks; nothing here lists all 2^n
coalitions.  `_minimal_masks` decides which members of a family contain no
other, for the antichain check and the pruning of `new_game`, by the
containment query `_members_inside`, which `complete.desirability_ge`
shares.  The blocker and, by complement, the maximal losing coalitions come
from one output-sensitive kernel, `_minimal_transversals`.  An antichain is
listed in the order of its members' player tuples, which `_antichain_order`
reads off the masks alone.  `symmetric_classes` splits the players into
classes that a family of masks, a game's or a graph's, cannot tell apart,
by swapping two players' bits in its masks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Union

from . import budgets
from .errors import BudgetExceededError

MAX_PLAYERS = 64

CoalitionLike = Union["Coalition", int, Iterable[int]]


@dataclass(frozen=True)
class Coalition:
    """An immutable set of players, stored as a bit mask (player i <-> bit i-1)."""

    mask: int

    def __post_init__(self) -> None:
        if type(self.mask) is not int or self.mask < 0:
            raise ValueError(f"coalition mask must be a nonnegative int, got {self.mask!r}")

    @classmethod
    def of(cls, *players: int) -> "Coalition":
        return cls.from_players(players)

    @classmethod
    def from_players(cls, players: Iterable[int]) -> "Coalition":
        mask = 0
        for p in players:
            if type(p) is not int or p < 1 or p > MAX_PLAYERS:
                raise ValueError(f"player must be an int in 1..{MAX_PLAYERS}, got {p!r}")
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


def _lacking_columns(n: int, masks: list[int]) -> list[int]:
    """Column i-1 flags (bit t) the members of `masks` that lack player i."""
    everyone = (1 << len(masks)) - 1
    columns = [everyone] * n
    for t, m in enumerate(masks):
        while m:
            low = m & -m
            columns[low.bit_length() - 1] ^= 1 << t
            m ^= low
    return columns


def _members_inside(columns: list[int], everyone: int, lacks: int) -> int:
    """The members (bit t, of those in `everyone`) inside a coalition lacking
    the players `lacks`: the AND of their columns, at most n big-int ANDs."""
    inside = everyone
    while lacks and inside:
        low = lacks & -lacks
        inside &= columns[low.bit_length() - 1]
        lacks ^= low
    return inside


def _minimal_masks(n: int, masks: list[int]) -> list[int]:
    """The members of `masks` (subsets of 1..n) that contain no other member,
    in input order; a repeated mask contains its twin, so neither copy stays."""
    columns = _lacking_columns(n, masks)
    everyone, full = (1 << len(masks)) - 1, (1 << n) - 1
    return [m for t, m in enumerate(masks) if _members_inside(columns, everyone, full ^ m) == 1 << t]


@dataclass(frozen=True)
class SimpleGame:
    """n players plus the antichain of minimal winning coalitions.

    Construct through :func:`new_game`, which prunes non-minimal input and
    establishes the invariants itself; the constructor rejects anything
    violating them (nonempty antichain of nonempty coalitions within 1..n).
    """

    n: int
    minimal_winning: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {self.n!r}")
        if not self.minimal_winning:
            raise ValueError("a simple game needs at least one winning coalition")
        full = (1 << self.n) - 1
        for c in self.minimal_winning:
            if c.mask == 0:
                raise ValueError("the empty coalition cannot be winning")
            if c.mask & ~full:
                raise ValueError(f"coalition {c.players()} has players outside 1..{self.n}")
        masks = [c.mask for c in self.minimal_winning]
        if len(_minimal_masks(self.n, masks)) != len(masks):
            raise ValueError("minimal_winning must be an antichain")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def new_game(n: int, coalitions: Iterable[CoalitionLike]) -> SimpleGame:
    """Build the game whose minimal winning sets are the minimal members of `coalitions`.

    Non-minimal inputs are silently pruned; duplicates collapse.  Raises
    ValueError for an empty list, an empty coalition, or out-of-range players.
    """
    if type(n) is not int or not 1 <= n <= MAX_PLAYERS:
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
    kept = _minimal_masks(n, sorted(set(masks)))
    # every invariant that __post_init__ checks holds here by construction, the
    # antichain included, so the game is built without running its checks again
    game = object.__new__(SimpleGame)
    object.__setattr__(game, "n", n)
    object.__setattr__(game, "minimal_winning", tuple(_antichain_order(n, kept)))
    return game


def _antichain_order(n: int, masks: Iterable[int]) -> list[Coalition]:
    """The coalitions of an antichain of masks, ordered by their player tuples.

    No member's tuple is a prefix of another's, so two tuples first differ
    at the lowest bit where the masks differ, and the mask holding that bit
    comes first: the order is the masks' binary numerals, read from player 1
    up, descending.
    """
    top = 1 << n  # bin(m | top) is "0b1" and then n digits, player n first
    ordered = sorted(masks, key=lambda m: bin(m | top)[:2:-1], reverse=True)
    return [Coalition(m) for m in ordered]


def is_winning(game: SimpleGame, s: CoalitionLike) -> bool:
    """True iff `s` contains some minimal winning coalition."""
    c = _coerce(s)
    if c.mask & ~game.full_mask:
        raise ValueError(f"coalition {c.players()} has players outside 1..{game.n}")
    m = c.mask
    return any(w.mask & ~m == 0 for w in game.minimal_winning)


def _minimal_transversals(n: int, masks: list[int], budget: int | None = None) -> list[int]:
    """The minimal transversals (covers) of the family `masks` over 1..n, by
    MMCS (Murakami and Uno, Discrete Applied Math. 2014).

    A partial cover S grows by a candidate player of its first uncovered
    member while each player of S stays critical, the only one of S in some
    member.  That member's players leave the candidates and rejoin them one
    by one as tried, so each cover comes out once.  The uncovered and the
    critical members are bit masks over family indices, smallest member
    first.  Raises BudgetExceededError once the covers outnumber the
    ``losing`` cap.
    """
    if not masks:  # the empty set is the one cover of no sets
        budgets.check("losing", 1, budget)
        return [0]
    cap = budgets.limit("losing", budget)
    masks = sorted(masks, key=int.bit_count)
    everyone = (1 << len(masks)) - 1
    misses = _lacking_columns(n, masks)
    hits = [everyone ^ m for m in misses]  # player i-1 -> the members holding i
    out: list[int] = []
    stack = [(0, (1 << n) - 1, everyone, [])]  # S, candidates, uncovered, critical
    while stack:
        s, cand, uncov, crit = stack.pop()
        branch = masks[(uncov & -uncov).bit_length() - 1] & cand
        cand ^= branch
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            miss = misses[v]
            kept = []
            for c in crit:  # S's players keep only the members v misses
                c &= miss
                if not c:
                    break
                kept.append(c)
            else:
                if uncov & miss:
                    kept.append(uncov & hits[v])
                    stack.append((s | low, cand, uncov & miss, kept))
                else:
                    out.append(s | low)
                    if len(out) > cap:
                        raise BudgetExceededError("losing", len(out), cap)
            cand |= low
    return out


def maximal_losing(game: SimpleGame, budget: int | None = None) -> list[Coalition]:
    """All inclusion-maximal losing coalitions, by player tuple: the
    complements of the minimal covers.  `budget` may lower the ``losing`` cap."""
    full = game.full_mask
    covers = _minimal_transversals(game.n, [w.mask for w in game.minimal_winning], budget)
    return _antichain_order(game.n, [full ^ c for c in covers])


def blocker(game: SimpleGame) -> list[Coalition]:
    """All inclusion-minimal covers of the minimal winning coalitions, by
    player tuple; L is maximal losing iff N minus L is one, so the ``losing``
    cap bounds both."""
    covers = _minimal_transversals(game.n, [w.mask for w in game.minimal_winning])
    return _antichain_order(game.n, covers)


def size_counts(n: int, masks: list[int]) -> list[list[int]]:
    """Index i-1 -> the number of members of `masks` of each size 0..s, the
    largest, that hold player i.  A permutation that maps the family onto
    itself keeps sizes, so two players it swaps have equal counts."""
    top = max((m.bit_count() for m in masks), default=0)
    counts = [[0] * (top + 1) for _ in range(n)]
    for m in masks:
        size = m.bit_count()
        while m:
            low = m & -m
            counts[low.bit_length() - 1][size] += 1
            m ^= low
    return counts


def _holders(n: int, masks: list[int]) -> list[list[int]]:
    """Index i-1 -> the members of `masks` that hold player i, in order."""
    holding: list[list[int]] = [[] for _ in range(n)]
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            holding[low.bit_length() - 1].append(m)
            rest ^= low
    return holding


def symmetric_classes(n: int, masks: list[int]) -> list[int]:
    """Players 1..n split into classes of transposition-symmetric players, as
    masks ordered by their least player.

    Players i and j are symmetric when swapping them maps the family of
    `masks`, a game's minimal winning coalitions or a graph's edges, onto
    itself; that is an equivalence, because (i r)(j r)(i r) = (i j), so each
    player is tested against one representative per class, and only against
    those with equal `size_counts`, which symmetric players have.  A swap is
    tested over the members that hold either player, indexed by player once.
    Players in no member form one class.
    """
    family, holding = set(masks), _holders(n, masks)
    classes: list[int] = []
    reps: dict[tuple[int, ...], list[tuple[int, int]]] = {}  # counts -> (representative, class index)
    for i, counts in enumerate(map(tuple, size_counts(n, masks))):
        for r, k in reps.get(counts, ()):
            if _swap_keeps(chain(holding[i], holding[r]), family, 1 << i | 1 << r):
                classes[k] |= 1 << i
                break
        else:
            reps.setdefault(counts, []).append((i, len(classes)))
            classes.append(1 << i)
    return classes


def _swap_keeps(members: Iterable[int], family: set[int], swap: int) -> bool:
    """Whether swapping the two players of `swap` maps the family whose set
    is `family` onto itself.  `members` must include every member that holds
    either player and may include others.  A swap is one to one on
    coalitions, so it does once it maps each member into the family, and
    only a member holding exactly one of the two players moves."""
    for m in members:
        if 0 < m & swap != swap and m ^ swap not in family:
            return False
    return True


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
    than requested but always satisfies the SimpleGame invariants.  The draws
    grow with the target, even when n cannot reach it, so a target above the
    `antichain` cap is refused before the first one.
    """
    if not isinstance(n, int) or not 2 <= n <= MAX_PLAYERS:
        raise ValueError(f"random_game needs 2 <= n <= {MAX_PLAYERS}, got {n!r}")
    if target_antichain_size < 1:
        raise ValueError("target_antichain_size must be >= 1")
    budgets.check("antichain", target_antichain_size)
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
    coalitions = data["minimal_winning"]
    if not isinstance(coalitions, list) or not all(isinstance(c, list) for c in coalitions):
        raise ValueError('"minimal_winning" must be an array of player arrays')
    return new_game(data["n"], coalitions)
