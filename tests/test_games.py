"""Game core: construction, classification, maximal losing sets, blocker."""

import itertools
import random
import sys
from pathlib import Path

import pytest

from simplegames import (
    BudgetExceededError,
    Coalition,
    SimpleGame,
    blocker,
    cycle_game,
    game_from_json,
    game_to_json,
    is_winning,
    maximal_losing,
    new_game,
    random_game,
)
from simplegames.games import _minimal_masks, _minimal_transversals, _swap_keeps, size_counts, symmetric_classes
from simplegames.graphs import random_graph

import table_reference


def masks(family):
    """The masks of a family of coalitions, for the kernels that take masks."""
    return [c.mask for c in family]


def classes_of(game):
    """`symmetric_classes` of the game's minimal winning family."""
    return symmetric_classes(game.n, masks(game.minimal_winning))


# Independent oracle: plain frozenset arithmetic, no bit tables.

def brute_is_winning(game, members):
    s = frozenset(members)
    return any(set(w.players()) <= s for w in game.minimal_winning)


def brute_maximal_losing(game):
    players = range(1, game.n + 1)
    losing = [
        frozenset(s)
        for r in range(game.n + 1)
        for s in itertools.combinations(players, r)
        if not brute_is_winning(game, s)
    ]
    out = [l for l in losing if not any(l < other for other in losing)]
    return sorted(tuple(sorted(l)) for l in out)


def brute_blocker(game):
    players = range(1, game.n + 1)
    covers = [
        frozenset(c)
        for r in range(game.n + 1)
        for c in itertools.combinations(players, r)
        if all(set(c) & set(w.players()) for w in game.minimal_winning)
    ]
    out = [c for c in covers if not any(other < c for other in covers)]
    return sorted(tuple(sorted(c)) for c in out)


def as_tuples(coalitions):
    return sorted(c.players() for c in coalitions)


MAJ3 = new_game(3, [[1, 2], [1, 3], [2, 3]])
DICT3 = new_game(3, [[1]])


class TestConstruction:
    def test_cycle_game_example(self):
        g = cycle_game(4)
        assert as_tuples(g.minimal_winning) == [(1, 2), (1, 4), (2, 3), (3, 4)]
        assert new_game(4, [[1, 2], [2, 3], [3, 4], [1, 4]]) == g

    def test_pruning(self):
        g = new_game(3, [[1], [1, 2]])
        assert as_tuples(g.minimal_winning) == [(1,)]

    def test_empty_coalition_rejected(self):
        with pytest.raises(ValueError):
            new_game(3, [[]])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            new_game(3, [])

    def test_out_of_range_player(self):
        with pytest.raises(ValueError):
            new_game(3, [[1, 4]])

    def test_direct_constructor_enforces_antichain(self):
        with pytest.raises(ValueError):
            SimpleGame(3, (Coalition.of(1), Coalition.of(1, 2)))

    def test_repeated_coalition_object_is_not_an_antichain(self):
        c = Coalition.of(1, 2)
        with pytest.raises(ValueError, match="antichain"):
            SimpleGame(3, (c, c))

    def test_bool_is_not_a_player_count(self):
        with pytest.raises(ValueError):
            new_game(True, [[1]])
        with pytest.raises(ValueError):
            SimpleGame(True, (Coalition.of(1),))

    def test_cycle_game_domain(self):
        with pytest.raises(ValueError):
            cycle_game(5)
        with pytest.raises(ValueError):
            cycle_game(2)
        assert cycle_game(6).n == 6
        assert len(cycle_game(6).minimal_winning) == 6


class TestClassification:
    def test_superset_of_edge_wins(self):
        assert is_winning(cycle_game(4), [1, 2, 3])

    def test_alternating_set_loses(self):
        assert not is_winning(cycle_game(4), [1, 3])

    def test_grand_coalition_wins(self):
        for g in (cycle_game(4), MAJ3, DICT3):
            assert is_winning(g, range(1, g.n + 1))

    def test_empty_coalition_loses(self):
        assert not is_winning(MAJ3, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            is_winning(MAJ3, [4])


class TestMaximalLosing:
    def test_cycle4(self):
        assert as_tuples(maximal_losing(cycle_game(4))) == [(1, 3), (2, 4)]

    def test_dictator(self):
        assert as_tuples(maximal_losing(DICT3)) == [(2, 3)]

    def test_majority(self):
        assert as_tuples(maximal_losing(MAJ3)) == [(1,), (2,), (3,)]

    def test_budget(self):
        # cycle:8 has 10 maximal losing coalitions; the count is capped, not n
        assert len(maximal_losing(new_game(30, [[1]]))) == 1
        assert len(maximal_losing(cycle_game(8), budget=10)) == 10
        with pytest.raises(BudgetExceededError) as info:
            maximal_losing(cycle_game(8), budget=9)
        assert (info.value.name, info.value.value, info.value.limit) == ("losing", 10, 9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        g = random_game(2 + seed % 7, seed, 2 + seed % 5)
        assert as_tuples(maximal_losing(g)) == brute_maximal_losing(g)


class TestBlocker:
    def test_cycle4(self):
        assert as_tuples(blocker(cycle_game(4))) == [(1, 3), (2, 4)]

    def test_dictator(self):
        assert as_tuples(blocker(DICT3)) == [(1,)]

    def test_majority(self):
        assert as_tuples(blocker(MAJ3)) == [(1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        g = random_game(2 + seed % 7, 1000 + seed, 2 + seed % 5)
        assert as_tuples(blocker(g)) == brute_blocker(g)

    @pytest.mark.parametrize("seed", range(25))
    def test_complement_identity(self, seed):
        g = random_game(3 + seed % 10, seed, 3 + seed % 7)
        complements = sorted(c.complement(g.n).players() for c in blocker(g))
        assert complements == as_tuples(maximal_losing(g))


class TestInvariants:
    @pytest.mark.parametrize("seed", range(15))
    def test_antichain(self, seed):
        g = random_game(4 + seed % 9, seed, 4 + seed % 9)
        for a in g.minimal_winning:
            for b in g.minimal_winning:
                assert a is b or not a.issubset(b)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotonicity_exhaustive(self, seed):
        g = random_game(4 + seed % 5, 50 + seed, 5)
        n = g.n
        for mask in range(1 << n):
            if is_winning(g, Coalition(mask)):
                for i in range(n):
                    assert is_winning(g, Coalition(mask | 1 << i))

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_count(self, seed):
        # the reference winning table flags exactly the winning coalitions
        g = random_game(4 + seed, seed, 6)
        table = table_reference.winning_table(g)
        assert table >> (1 << g.n) == 0
        assert table == sum(1 << m for m in range(1 << g.n) if is_winning(g, Coalition(m)))


class TestRandomGame:
    def test_deterministic(self):
        assert random_game(6, 1, 5) == random_game(6, 1, 5)

    def test_two_player_antichains(self):
        g = random_game(2, 7, 1)
        assert as_tuples(g.minimal_winning) in ([(1,)], [(2,)], [(1, 2)])

    def test_validates(self):
        g = random_game(10, 42, 8)
        assert new_game(g.n, g.minimal_winning) == g

    def test_domain(self):
        with pytest.raises(ValueError):
            random_game(1, 0, 1)
        with pytest.raises(ValueError):
            random_game(65, 0, 1)
        # no table is built, so every player count up to the mask limit works
        assert random_game(64, 0, 3).n == 64


class TestBudgetBoundaries:
    def test_enumeration_at_the_cap(self):
        # a budget equal to the count lists every set; one less raises at
        # the set that crosses it
        g = random_game(24, 1, 12)
        ml = maximal_losing(g)
        assert maximal_losing(g, budget=len(ml)) == ml
        with pytest.raises(BudgetExceededError) as info:
            maximal_losing(g, budget=len(ml) - 1)
        assert (info.value.value, info.value.limit) == (len(ml), len(ml) - 1)
        assert sorted(c.complement(24).players() for c in blocker(g)) == as_tuples(ml)

    def test_mask_limit_game(self):
        g = cycle_game(64)
        assert is_winning(g, [63, 64])
        assert not is_winning(g, list(range(1, 64, 2)))
        with pytest.raises(ValueError):
            new_game(64, [[65]])


class TestJson:
    def test_round_trip_is_canonical(self):
        g = cycle_game(4)
        text = game_to_json(g)
        assert game_to_json(game_from_json(text)) == text
        assert '"n": 4' in text

    def test_parse_canonicalizes(self):
        raw = '{"n": 3, "minimal_winning": [[2, 1], [3, 1], [1, 2, 3]]}'
        g = game_from_json(raw)
        assert as_tuples(g.minimal_winning) == [(1, 2), (1, 3)]

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            game_from_json('{"n": 3}')

    def test_only_player_arrays_are_coalitions(self):
        # a bare int is a bit mask to new_game, but never a coalition in JSON
        assert as_tuples(new_game(3, [[1, 2], 5]).minimal_winning) == [(1, 2), (1, 3)]
        for payload in ('[[1, 2], 5]', '5', '[[1, 2], "3"]'):
            with pytest.raises(ValueError):
                game_from_json('{"n": 3, "minimal_winning": %s}' % payload)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_round_trip(self, seed):
        g = random_game(8, seed, 8)
        assert game_from_json(game_to_json(g)) == g


# Reference for the containment kernel: the sort-and-scan that new_game used
# before `_minimal_masks`.

def reference_minimal(masks):
    kept = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return sorted(kept)


def random_family(n, seed):
    """Nonempty masks over 1..n: a few random members, then supersets, subsets
    and copies of earlier members, and fresh ones."""
    rng = random.Random(f"family:{n}:{seed}")
    family = [rng.randrange(1, 1 << n) for _ in range(1 + rng.randrange(4))]
    for _ in range(rng.randrange(25)):
        m = rng.choice(family)
        step = rng.randrange(4)
        if step == 0:
            m |= rng.getrandbits(n)
        elif step == 1:
            m = m & rng.getrandbits(n) or m
        elif step == 2:
            m = rng.randrange(1, 1 << n)
        family.append(m)
    return family


def edge_family(seed):
    """The edges of a 40-vertex graph (the `mwis` cap), unions of two edges and
    repeated edges."""
    rng = random.Random(f"edges:{seed}")
    edges = [1 << (u - 1) | 1 << (v - 1) for u, v in random_graph(40, 20 + 5 * seed, seed).edges]
    unions = [rng.choice(edges) | rng.choice(edges) for _ in range(seed)]
    return edges + unions + rng.sample(edges, seed % 3)


class TestMinimalMasks:
    """`_minimal_masks` against the reference scan, through both callers."""

    @staticmethod
    def agree(n, family):
        want = reference_minimal(family)
        assert _minimal_masks(n, sorted(set(family))) == want
        # on the family as given, a mask stays iff it is minimal and unrepeated
        assert _minimal_masks(n, family) == [m for m in family if m in want and family.count(m) == 1]
        assert sorted(c.mask for c in new_game(n, family).minimal_winning) == want
        coalitions = tuple(Coalition(m) for m in family)
        drops = len(want) < len(family)  # the reference drops a superset or a twin
        if drops:
            with pytest.raises(ValueError, match="antichain"):
                SimpleGame(n, coalitions)
        else:
            assert SimpleGame(n, coalitions).minimal_winning == coalitions
        return drops

    @pytest.mark.parametrize("n", [1, 2, 8, 24, 40, 64])
    def test_random_families(self, n):
        drops = [self.agree(n, random_family(n, seed)) for seed in range(60)]
        assert any(drops) and not all(drops)

    def test_graph_edge_families(self):
        drops = [self.agree(40, edge_family(seed)) for seed in range(12)]
        assert any(drops) and not all(drops)


class TestAntichainOrder:
    """Antichains are listed by player tuple, read off the masks alone."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 24, 40, 64])
    def test_new_game_orders_by_player_tuples(self, n):
        for seed in range(60):
            game = new_game(n, random_family(n, seed))
            assert list(game.minimal_winning) == sorted(game.minimal_winning, key=Coalition.players)
            # built without the constructor's checks, it still passes them
            assert SimpleGame(n, game.minimal_winning) == game

    @pytest.mark.parametrize("seed", range(30))
    def test_table_extractions_order_by_player_tuples(self, seed):
        game = random_game(2 + seed % 9, seed, 2 + seed % 7)
        for family in (maximal_losing(game), blocker(game)):
            assert family == sorted(family, key=Coalition.players)


# The transversal kernel against the 2^n table sweeps it replaced and the
# brute-force oracles above.

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_corpus(workload, seed):
    """The instances of the benchmark's full `workload` corpus at `seed`, as JSON dicts."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads.generate(workload, seed, "full")


def games_corpus(seed):
    """The benchmark's games corpus (n = 6..9) at `seed`, as games."""
    return [game_from_json(inst) for inst in bench_corpus("games", seed)]


def perrin(n):
    a, b, c = 3, 0, 2
    for _ in range(n):
        a, b, c = b, c, a + b
    return a


def assert_maximal_losing(game, family):
    """Every member loses, every added player wins, and none repeats."""
    masks = [c.mask for c in family]
    assert len(set(masks)) == len(masks)
    winning = [w.mask for w in game.minimal_winning]
    for m in masks:
        assert not any(w & ~m == 0 for w in winning)
        for j in range(game.n):
            if not m >> j & 1:
                assert any(w & ~(m | 1 << j) == 0 for w in winning)


class TestTransversalKernel:
    def agree(self, game, brute=False):
        ml, bl = maximal_losing(game), blocker(game)
        assert ml == table_reference.maximal_losing(game)
        assert bl == table_reference.blocker(game)
        if brute:
            assert as_tuples(ml) == brute_maximal_losing(game)
            assert as_tuples(bl) == brute_blocker(game)

    def test_seed3_games_corpus(self):
        corpus = games_corpus(3)
        assert len(corpus) == 120
        for game in corpus:
            self.agree(game, brute=game.n <= 8)  # the n = 9 weighted games take the brute force 0.6 s

    @pytest.mark.parametrize("n", range(2, 15))
    def test_random_games(self, n):
        for seed in range(4):
            for target in (2, n // 2 + 1, n + 2, 2 * n):
                self.agree(random_game(n, seed, target), brute=n <= 7)

    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_cycle_games(self, n):
        # the maximal losing coalitions of the cycle game are the maximal
        # independent sets of the n-cycle, and there are Perrin(n) of them
        game = cycle_game(n)
        ml = maximal_losing(game)
        assert len(ml) == perrin(n)
        assert_maximal_losing(game, ml)
        assert ml == sorted(ml, key=Coalition.players)
        if n <= 16:
            self.agree(game)

    @pytest.mark.parametrize("seed", range(12))
    def test_relabeling_players_relabels_both_families(self, seed):
        rng = random.Random(f"relabel:{seed}")
        n = 3 + seed % 12
        game = random_game(n, seed, 2 + seed % 9)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        rename = lambda c: tuple(sorted(order[p - 1] for p in c.players()))
        relabeled = new_game(n, [rename(w) for w in game.minimal_winning])
        assert as_tuples(maximal_losing(relabeled)) == sorted(map(rename, maximal_losing(game)))
        assert as_tuples(blocker(relabeled)) == sorted(map(rename, blocker(game)))

    @pytest.mark.parametrize("seed", range(12))
    def test_a_dummy_joins_every_maximal_losing_set(self, seed):
        # a player in no minimal winning coalition never turns a loss into a
        # win, and no minimal cover needs it
        game = random_game(3 + seed % 12, seed, 2 + seed % 9)
        dummy = 1 << game.n
        padded = new_game(game.n + 1, game.minimal_winning)
        assert [c.mask for c in maximal_losing(padded)] == [c.mask | dummy for c in maximal_losing(game)]
        assert blocker(padded) == blocker(game)

    def test_the_empty_family_has_one_cover(self):
        # the empty set covers no sets; a budget of 0 leaves room for none
        assert _minimal_transversals(5, []) == [0]
        with pytest.raises(BudgetExceededError):
            _minimal_transversals(5, [], 0)

    def test_past_the_old_table_ceiling(self):
        # 2^28-bit tables were refused; the kernel lists what the game has
        game = cycle_game(28)
        ml = maximal_losing(game)
        assert len(ml) == perrin(28) == 2627
        assert_maximal_losing(game, ml)
        assert sorted(c.complement(28).players() for c in blocker(game)) == as_tuples(ml)


# The classes of symmetric players against every transposition tried on the family.


def swaps_onto(game, i, j):
    """Whether swapping players i and j maps the minimal winning family onto itself."""
    family = {w.players() for w in game.minimal_winning}
    swap = {i: j, j: i}
    return {tuple(sorted(swap.get(p, p) for p in w)) for w in family} == family


def reference_classes(game):
    """Each player joins the class of the first earlier player it swaps with."""
    classes = []
    for p in range(1, game.n + 1):
        for c in classes:
            if swaps_onto(game, c[0], p):
                c.append(p)
                break
        else:
            classes.append([p])
    return [sum(1 << (p - 1) for p in c) for c in classes]


def class_games():
    from simplegames.complete import random_weighted_voting_game

    for n in range(2, 13):
        for seed in range(4):
            yield random_game(n, 60 + seed, 2 + (3 * seed + n) % 12)
            yield random_weighted_voting_game(n, seed).game
    for n in (4, 6, 8):
        yield cycle_game(n)


class TestSymmetricClasses:
    def test_matches_every_transposition(self):
        merged = 0
        for game in class_games():
            classes = classes_of(game)
            assert classes == reference_classes(game)
            assert sum(c.bit_count() for c in classes) == game.n
            counts = size_counts(game.n, masks(game.minimal_winning))
            for c in classes:
                members = Coalition(c).players()
                merged += len(members) > 1
                for i, j in itertools.combinations(members, 2):
                    assert swaps_onto(game, i, j)
                    assert counts[i - 1] == counts[j - 1]
            # no two classes may merge: their least players do not swap
            for a, b in itertools.combinations(classes, 2):
                assert not swaps_onto(game, Coalition(a).players()[0], Coalition(b).players()[0])
        assert merged > 100

    def test_equal_counts_need_not_swap(self):
        # a cycle's players all have the same counts; only opposite corners of a square swap
        assert classes_of(cycle_game(4)) == [0b0101, 0b1010]
        assert classes_of(cycle_game(6)) == [1 << i for i in range(6)]
        assert len({tuple(c) for c in size_counts(6, masks(cycle_game(6).minimal_winning))}) == 1

    def test_swap_test_checks_both_directions(self):
        # (1 2) takes {1, 3} to {2, 3}; no member holds 2 without 1, so a test
        # from player 2's side alone would pass this swap
        assert not _swap_keeps([0b101], {0b101}, 0b011)
        assert _swap_keeps([0b101, 0b110], {0b101, 0b110}, 0b011)
        assert _swap_keeps([0b111, 0b1000], {0b111, 0b1000}, 0b011)  # no member holds just one

    @staticmethod
    def full_scan_classes(n, family):
        """`symmetric_classes` with each swap tested over the whole family,
        kept as the reference for the test over the members holding either player."""
        everyone, classes, reps = set(family), [], {}
        for i, counts in enumerate(map(tuple, size_counts(n, family))):
            for r, k in reps.get(counts, ()):
                if _swap_keeps(family, everyone, 1 << i | 1 << r):
                    classes[k] |= 1 << i
                    break
            else:
                reps.setdefault(counts, []).append((i, len(classes)))
                classes.append(1 << i)
        return classes

    @staticmethod
    def full_scan_swaps_keep(classes, family):
        """`alpha._swaps_keep` over the whole family: every pair inside a class swaps."""
        everyone = set(family)
        return all(
            _swap_keeps(family, everyone, 1 << (i - 1) | 1 << (j - 1))
            for c in classes
            for i, j in itertools.combinations(Coalition(c).players(), 2)
        )

    def test_swaps_over_holders_match_the_full_scan(self):
        # random games, gadgets and cycle graphs: the class finder and the
        # certificate's symmetry check must decide every swap as a scan of the whole family does
        from simplegames import alpha, graphs

        families = [(g.n, masks(g.minimal_winning)) for g in class_games()]
        for n in range(2, 13):
            families += [(n, masks(random_game(n, seed, 3 + seed % n).minimal_winning)) for seed in range(30)]
        for n in range(3, 8):
            for m in range(n - 1, n * (n - 1) // 2 + 1, 2):
                for seed in range(5):
                    g = graphs.build_gadget(random_graph(n, m, seed))
                    families.append((g.n, graphs._edge_masks(g)))
        families += [(n, graphs._edge_masks(graphs.cycle_graph(n))) for n in range(3, 80)]
        rng = random.Random(62)
        outcomes = []
        for n, family in families:
            classes = symmetric_classes(n, family)
            assert classes == self.full_scan_classes(n, family)
            # the classes, a coarser partition (never a symmetry: the first two
            # classes' least players do not swap) and two random blocks
            halves = rng.getrandbits(n) | 1
            partitions = [classes, [classes[0] | classes[1], *classes[2:]] if len(classes) > 1 else classes]
            partitions.append([halves, (1 << n) - 1 ^ halves] if halves != (1 << n) - 1 else [halves])
            for partition in partitions:
                kept = alpha._swaps_keep(n, partition, family)
                assert kept == self.full_scan_swaps_keep(partition, family)
                outcomes.append(kept)
        assert len(families) > 600 and 100 < outcomes.count(False) < len(outcomes) - 600

    @pytest.mark.parametrize("n, q", [(1, 1), (3, 2), (5, 3), (7, 7), (9, 4)])
    def test_majority_is_one_class(self, n, q):
        game = new_game(n, itertools.combinations(range(1, n + 1), q))
        assert classes_of(game) == [(1 << n) - 1]

    def test_dummies_form_one_class(self):
        for seed in range(10):
            game = random_game(6, 300 + seed, 4)
            padded = new_game(9, [w.players() for w in game.minimal_winning])
            held = 0
            for w in game.minimal_winning:
                held |= w.mask
            # players 7..9, with any of 1..6 in no minimal winning coalition
            assert padded.full_mask ^ held in classes_of(padded)

    def test_relabeling_permutes_the_classes(self):
        for seed in range(10):
            game = random_game(8, 400 + seed, 5 + seed % 4)
            perm = list(range(1, 9))
            random.Random(seed).shuffle(perm)
            relabeled = new_game(8, [[perm[p - 1] for p in w.players()] for w in game.minimal_winning])
            moved = {sum(1 << (perm[p - 1] - 1) for p in Coalition(c).players()) for c in classes_of(game)}
            assert moved == set(classes_of(relabeled))
