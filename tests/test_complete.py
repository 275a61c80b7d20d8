"""Complete games: desirability, suffix sizes, ranked payoff, corpora."""

import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F
from functools import cmp_to_key

import pytest

from simplegames import (
    BudgetExceededError,
    alpha_of_payoff,
    complete_order,
    compute_alpha_exact,
    csg_bound_corpus,
    csg_payoff,
    cycle_game,
    desirability_ge,
    is_winning,
    new_game,
    random_weighted_voting_game,
    suffix_sizes,
)
from simplegames import complete as complete_mod
from simplegames.complete import (
    CompleteGame,
    CsgPayoffReport,
    _within_sqrt_n_ln_n,
    greedy_losing_bound,
    sized_weighted_game,
)
from simplegames.games import game_to_json, maximal_losing, random_game
from simplegames.lp import GE, solve_lp

import table_reference
from lp_reference import make_lp

WEIGHTED_2111 = new_game(4, [[1, 2], [1, 3], [1, 4], [2, 3, 4]])  # weights (2,1,1,1), quota 3
MAJ3 = new_game(3, [[1, 2], [1, 3], [2, 3]])
DICT3 = new_game(3, [[1]])


def table_suffix_sizes(cg):
    # the former body of suffix_sizes, a walk over all 2^n coalitions' bits
    game = cg.game
    n = game.n
    size = 1 << n
    table = table_reference.winning_table(game).to_bytes((size + 7) // 8, "little")
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


def reference_complete_order(game):
    # an older complete_order: every ordered pair compared by the table
    # desirability, then a comparison sort with ties by player index
    n = game.n
    ge = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ge[(i, j)] = table_reference.desirability_ge(game, i, j)
            ge[(j, i)] = table_reference.desirability_ge(game, j, i)
            if not ge[(i, j)] and not ge[(j, i)]:
                return None

    def cmp(i, j):
        if ge[(i, j)] and not ge[(j, i)]:
            return -1
        if ge[(j, i)] and not ge[(i, j)]:
            return 1
        return i - j

    return CompleteGame(game, tuple(sorted(range(1, n + 1), key=cmp_to_key(cmp))))


def reference_csg_payoff(cg):
    # the former csg_payoff: Fraction sums over the players of each
    # coalition, the maximal losing ones walked twice, and the float bound rule
    game = cg.game
    n = game.n
    k, s = suffix_sizes(cg)
    payoff = [F(0)] * n
    for r, player in enumerate(cg.ordering, start=1):
        payoff[player - 1] = F(1, s[min(r, k) - 1])

    def value(c, players):
        return sum((payoff[i - 1] for i in c.players() if i in players), F(0))

    everyone = set(range(1, n + 1))
    prefix_players = set(cg.ordering[:k])
    losing = maximal_losing(game)
    min_winning = min(value(w, everyone) for w in game.minimal_winning)
    max_losing = max(value(l, everyone) for l in losing)
    g_bound = greedy_losing_bound(s)
    cap = g_bound + (n - k) * F(1, s[k - 1])
    prefix_ok = cap_ok = True
    for l in losing:
        if value(l, prefix_players) > g_bound:
            prefix_ok = False
        if value(l, everyone) > cap:
            cap_ok = False
    harmonic = sum((F(1, j) for j in range(2, s[k - 1] + 1)), F(0))
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


def weighted_minimal_winning(weights, quota):
    n = len(weights)
    out = []
    for mask in range(1, 1 << n):
        total = sum(weights[i] for i in range(n) if mask >> i & 1)
        if total < quota:
            continue
        if all(
            total - weights[i] < quota for i in range(n) if mask >> i & 1
        ):
            out.append([i + 1 for i in range(n) if mask >> i & 1])
    return out


def brute_desirability_ge(game, i, j):
    others = [p for p in range(1, game.n + 1) if p not in (i, j)]
    for r in range(len(others) + 1):
        for s in itertools.combinations(others, r):
            if is_winning(game, set(s) | {j}) and not is_winning(game, set(s) | {i}):
                return False
    return True


class TestDesirability:
    def test_symmetric_players(self):
        assert desirability_ge(MAJ3, 1, 2) and desirability_ge(MAJ3, 2, 1)

    def test_dictator_dominates(self):
        assert desirability_ge(DICT3, 1, 2)
        assert not desirability_ge(DICT3, 2, 1)

    def test_weighted_game(self):
        assert desirability_ge(WEIGHTED_2111, 1, 2)
        assert not desirability_ge(WEIGHTED_2111, 2, 1)  # S = {3} separates

    def test_input_validation(self):
        with pytest.raises(ValueError):
            desirability_ge(MAJ3, 1, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        from simplegames import random_game

        g = random_game(3 + seed % 5, seed, 4)
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                if i != j:
                    assert desirability_ge(g, i, j) == brute_desirability_ge(g, i, j)


class TestCompleteOrder:
    def test_weighted_sorted_identity(self):
        cg = complete_order(WEIGHTED_2111)
        assert cg.ordering == (1, 2, 3, 4)

    def test_cycle6_is_not_complete(self):
        # hand witnesses: {2,3} wins while {1,3} loses, and {1,6} wins while
        # {2,6} loses, so players 1 and 2 are incomparable
        g = cycle_game(6)
        assert is_winning(g, [2, 3]) and not is_winning(g, [1, 3])
        assert is_winning(g, [1, 6]) and not is_winning(g, [2, 6])
        assert complete_order(g) is None

    def test_incomparable_pair(self):
        g = new_game(6, [[1, 2], [3, 4, 5, 6]])
        assert complete_order(g) is None

    def test_ordering_soundness(self):
        for seed in range(10):
            wvg = random_weighted_voting_game(6, seed)
            cg = complete_order(wvg.game)
            assert cg is not None
            for r in range(wvg.game.n - 1):
                assert desirability_ge(wvg.game, cg.ordering[r], cg.ordering[r + 1])


class TestAgainstPairwiseReference:
    @staticmethod
    def check(game):
        cg = complete_order(game)
        assert cg == reference_complete_order(game)
        if cg is not None:
            assert repr(csg_payoff(cg)) == repr(reference_csg_payoff(cg))
        return cg

    @pytest.mark.parametrize("n", range(1, 15))
    def test_weighted_games(self, n):
        for seed in range(3):
            assert self.check(random_weighted_voting_game(n, seed).game) is not None

    @pytest.mark.parametrize("n", range(2, 10))
    def test_random_games(self, n):
        orders = [self.check(random_game(n, seed, 2 + seed % n)) for seed in range(40)]
        assert any(cg is not None for cg in orders)
        # below four players every game is complete
        assert (None in orders) == (n >= 4)

    def test_one_check_per_adjacent_pair(self, monkeypatch):
        calls = []
        original = complete_mod.desirability_ge

        def counting(game, i, j):
            calls.append((i, j))
            return original(game, i, j)

        monkeypatch.setattr(complete_mod, "desirability_ge", counting)
        for n in range(1, 12):
            for seed in range(3):
                calls.clear()
                cg = complete_order(random_weighted_voting_game(n, seed).game)
                assert calls == list(zip(cg.ordering, cg.ordering[1:]))


QUOTA_RANGES = ((0.5, 0.75), (0.75, 0.95))


def small_games(n):
    # random games (n <= 9) and weighted games of both quota ranges (n <= 12)
    games = [random_game(n, seed, 2 + seed % n) for seed in range(6)] if 2 <= n <= 9 else []
    return games + [random_weighted_voting_game(n, s, q).game for q in QUOTA_RANGES for s in range(2)]


def brute_desirability(game):
    # every ordered pair by the definition, over the winning coalitions
    # listed once with is_winning
    n = game.n
    wins = [is_winning(game, m) for m in range(1 << n)]
    out = {}
    for i, j in itertools.permutations(range(1, n + 1), 2):
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        out[(i, j)] = not any(
            wins[s | bj] and not wins[s | bi] for s in range(1 << n) if not s & (bi | bj)
        )
    return out


def desirability_classes(game):
    # the classes of equally desirable players, strongest first
    classes = []
    for p in complete_order(game).ordering:
        if classes and desirability_ge(game, p, classes[-1][0]):
            classes[-1].append(p)
        else:
            classes.append([p])
    return [frozenset(c) for c in classes]


class TestAgainstTables:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_desirability(self, n):
        for game in small_games(n):
            for (i, j), expected in brute_desirability(game).items():
                assert desirability_ge(game, i, j) == expected, (game, i, j)
                assert table_reference.desirability_ge(game, i, j) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_order(self, n):
        for game in small_games(n):
            assert complete_order(game) == table_reference.complete_order(game)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_generator_matches_brute_force(self, n):
        for q in QUOTA_RANGES:
            for seed in range(4):
                wvg = random_weighted_voting_game(n, seed, q)
                ref = table_reference.random_weighted_voting_game(n, seed, q)
                assert (wvg.weights, wvg.quota) == (ref.weights, ref.quota)
                brute = new_game(n, weighted_minimal_winning(wvg.weights, wvg.quota))
                assert game_to_json(wvg.game) == game_to_json(brute)

    @pytest.mark.parametrize("n", range(13, 19))
    def test_generator_matches_one_pass_tables(self, n):
        for q in QUOTA_RANGES:
            wvg = random_weighted_voting_game(n, 0, q)
            ref = table_reference.random_weighted_voting_game(n, 0, q)
            assert (wvg.weights, wvg.quota) == (ref.weights, ref.quota)
            assert game_to_json(wvg.game) == game_to_json(ref.game)


class TestMetamorphic:
    @pytest.mark.parametrize("seed", range(8))
    def test_relabeling_maps_desirability_classes(self, seed):
        n = 5 + seed % 6
        game = random_weighted_voting_game(n, seed, QUOTA_RANGES[seed % 2]).game
        labels = list(range(1, n + 1))
        random.Random(seed).shuffle(labels)
        pi = dict(zip(range(1, n + 1), labels))
        relabeled = new_game(n, [[pi[p] for p in w] for w in game.minimal_winning])
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert desirability_ge(relabeled, pi[i], pi[j]) == desirability_ge(game, i, j)
        mapped = [frozenset(pi[p] for p in c) for c in desirability_classes(game)]
        assert desirability_classes(relabeled) == mapped

    @pytest.mark.parametrize("seed", range(8))
    def test_dummy_player_comes_last(self, seed):
        n = 3 + seed % 7
        games = [random_weighted_voting_game(n, seed).game, random_game(n, seed, 2 + seed % n)]
        for game in games:
            cg = complete_order(game)
            if cg is None:
                continue
            padded = complete_order(new_game(n + 1, game.minimal_winning))
            assert padded.ordering == cg.ordering + (n + 1,)


class TestRatioBound:
    def test_decided_next_to_the_bound(self):
        # 1e-30 either side of sqrt(n) ln(n), where the float rule says yes to both
        eps = F(1, 10**30)
        for n in (2, 3, 4, 9, 16):
            with localcontext() as ctx:
                ctx.prec = 60
                bound = F(Decimal(n).sqrt() * Decimal(n).ln())
            assert _within_sqrt_n_ln_n(bound - eps, n)
            assert not _within_sqrt_n_ln_n(bound + eps, n)

    def test_one_player_bound_is_zero(self):
        assert _within_sqrt_n_ln_n(F(0), 1)
        assert not _within_sqrt_n_ln_n(F(1, 10**20), 1)

    def test_agrees_with_float_rule_away_from_the_bound(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 59)
            ratio = F(rng.randint(0, 4000), rng.randint(1, 400))
            expected = float(ratio) <= math.sqrt(n) * math.log(n) + 1e-12
            assert _within_sqrt_n_ln_n(ratio, n) == expected


class TestSuffixSizes:
    def test_weighted_2111(self):
        assert suffix_sizes(complete_order(WEIGHTED_2111)) == (2, (2, 3))

    def test_majority(self):
        assert suffix_sizes(complete_order(MAJ3)) == (2, (2, 2))

    def test_dictator(self):
        assert suffix_sizes(complete_order(DICT3)) == (1, (1,))

    @pytest.mark.parametrize("seed", range(10))
    def test_s_vector_non_decreasing(self, seed):
        wvg = random_weighted_voting_game(4 + seed % 8, seed)
        k, s = suffix_sizes(complete_order(wvg.game))
        assert len(s) == k
        assert all(a <= b for a, b in zip(s, s[1:]))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_table_walk_on_weighted_games(self, n):
        for seed in range(3):
            cg = complete_order(random_weighted_voting_game(n, seed).game)
            assert suffix_sizes(cg) == table_suffix_sizes(cg)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_table_walk_on_complete_random_games(self, n):
        complete = [complete_order(random_game(n, seed, 2 + seed % n)) for seed in range(40)]
        complete = [cg for cg in complete if cg is not None]
        assert complete
        for cg in complete:
            assert suffix_sizes(cg) == table_suffix_sizes(cg)


class TestCsgPayoff:
    def test_weighted_2111(self):
        rep = csg_payoff(complete_order(WEIGHTED_2111))
        assert rep.payoff == (F(1, 2), F(1, 3), F(1, 3), F(1, 3))
        assert rep.min_winning == F(5, 6)
        assert rep.max_losing == F(2, 3)
        assert rep.ratio == F(4, 5)
        assert rep.greedy_bound == F(5, 6)
        assert rep.ratio_within_bound

    def test_majority(self):
        rep = csg_payoff(complete_order(MAJ3))
        assert rep.payoff == (F(1, 2),) * 3
        assert rep.ratio == F(1, 2)

    def test_dictator_uses_full_cap(self):
        # ranks beyond k carry payoff 1 each; the prefix bound alone is 0
        rep = csg_payoff(complete_order(DICT3))
        assert rep.payoff == (F(1),) * 3
        assert rep.max_losing == 2
        assert rep.greedy_bound == 0
        assert rep.losing_cap == 2
        assert rep.losing_prefix_ok and rep.losing_cap_ok
        assert not rep.ratio_within_bound  # 2 > sqrt(3) ln 3

    @pytest.mark.parametrize("seed", range(15))
    def test_payoff_monotone_along_order(self, seed):
        wvg = random_weighted_voting_game(4 + seed % 10, seed)
        cg = complete_order(wvg.game)
        rep = csg_payoff(cg)
        ranked = [rep.payoff[p - 1] for p in cg.ordering]
        assert all(a >= b for a, b in zip(ranked, ranked[1:]))

    @pytest.mark.parametrize("seed", range(15))
    def test_provable_inequalities(self, seed):
        wvg = random_weighted_voting_game(4 + seed % 9, 100 + seed)
        rep = csg_payoff(complete_order(wvg.game))
        assert rep.winning_floor_ok
        assert rep.losing_prefix_ok
        assert rep.losing_cap_ok
        assert rep.greedy_le_harmonic

    @pytest.mark.parametrize("seed", range(10))
    def test_losing_prefix_count_bound(self, seed):
        # every losing coalition has at most s_i - 1 members in the top i ranks
        wvg = random_weighted_voting_game(4 + seed % 7, 40 + seed)
        cg = complete_order(wvg.game)
        k, s = suffix_sizes(cg)
        rank = {p: r for r, p in enumerate(cg.ordering, start=1)}
        for losing in maximal_losing(wvg.game):
            ranks = sorted(rank[p] for p in losing.players())
            for i in range(1, k + 1):
                assert sum(1 for r in ranks if r <= i) <= s[i - 1] - 1


class TestGreedyLpEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_prefix_lp_optimum_matches_greedy(self, seed):
        wvg = random_weighted_voting_game(4 + seed % 9, seed)
        k, s = suffix_sizes(complete_order(wvg.game))
        # the prefix LP max sum x_i/s_i, sum_{i<=j} x_i <= s_j - 1, x >= 0, as
        # its dual min sum (s_i - 1) y_i, sum_{i>=j} y_i >= 1/s_j, y >= 0
        rows = [([0] * (j - 1) + [1] * (k - j + 1), GE, F(1, s[j - 1])) for j in range(1, k + 1)]
        sol = solve_lp(make_lp([si - 1 for si in s], rows))
        assert sol.status == "optimal"
        assert sol.objective == greedy_losing_bound(s)
        # the stated greedy point is feasible for the prefix LP and attains it
        xs = [s[0] - 1] + [s[i] - s[i - 1] for i in range(1, k)]
        assert sum(F(x, si) for x, si in zip(xs, s)) == sol.objective
        for i in range(1, k + 1):
            assert sum(xs[:i]) <= s[i - 1] - 1


class TestCorpus:
    def test_winning_floor_exercises_both_size_classes(self):
        # the floor argument splits on coalition size vs sqrt(n); between flat
        # and skewed weight profiles both sides of the split must occur, and
        # the floor holds on each game either way
        import math

        # geometric weights concentrate power: the top pair alone wins
        heavy = new_game(
            9, weighted_minimal_winning([256, 128, 64, 32, 16, 8, 4, 2, 1], 300)
        )
        games = [heavy] + [random_weighted_voting_game(9, seed).game for seed in range(6)]
        small = large = 0
        for g in games:
            rep = csg_payoff(complete_order(g))
            assert rep.winning_floor_ok
            root = math.sqrt(g.n)
            for w in g.minimal_winning:
                if len(w) <= root:
                    small += 1
                else:
                    large += 1
        assert small > 0 and large > 0

    def test_csg_bound_corpus(self):
        report = csg_bound_corpus(8, range(8))
        assert report.all_alpha_le_ratio
        assert report.all_ratio_within_bound
        assert all(e.alpha < 1 for e in report.entries)  # weighted games

    def test_alpha_le_ratio_end_to_end(self):
        for seed in range(6):
            wvg = sized_weighted_game(10, seed)
            cg = complete_order(wvg.game)
            rep = csg_payoff(cg)
            assert rep.ratio == alpha_of_payoff(wvg.game, rep.payoff)
            assert compute_alpha_exact(wvg.game).alpha <= rep.ratio

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            csg_bound_corpus(18, [0])

    def test_empty_corpus_is_refused(self):
        with pytest.raises(ValueError, match="no seeds"):
            csg_bound_corpus(8, [])
