"""Threshold value: exact certificates, payoff ratios, conjecture corpus."""

import json
import math
import random
from collections import Counter
from itertools import combinations
from fractions import Fraction as F
from pathlib import Path

import pytest

from simplegames import (
    Coalition,
    UndefinedRatioError,
    alpha_of_payoff,
    blocker,
    compute_alpha_exact,
    cycle_game,
    is_weighted,
    maximal_losing,
    new_game,
    random_game,
    verify_conjecture_corpus,
)
from simplegames import alpha, graphs, minnorm
from simplegames import lp as lp_module
from simplegames.alpha import AlphaCertificate, ThresholdLP
from simplegames.complete import random_weighted_voting_game
from simplegames.errors import CertificateError
from simplegames.graphs import alpha_graph, build_gadget, random_graph
from simplegames.minnorm import is_feasible
from simplegames.games import symmetric_classes
from test_games import games_corpus
from test_lp import run_optimized

TESTS = Path(__file__).resolve().parent
MAJ3 = new_game(3, [[1, 2], [1, 3], [2, 3]])
DICT3 = new_game(3, [[1]])


def coalition_value(payoff, coalition):
    return sum(payoff[i - 1] for i in coalition.players())


def reference_certify_alpha(payoff, alpha, winning, losing):
    """The primal half of the certificate written over Fraction sums, kept
    as the reference for the integer pass of `ThresholdLP.certify`."""
    won = [(w, coalition_value(payoff, w)) for w in winning]
    lost = [(l, coalition_value(payoff, l)) for l in losing]
    if any(v < 1 for _, v in won):
        raise AssertionError("the payoff gives some minimal winning coalition less than 1")
    if any(v > alpha for _, v in lost):
        raise AssertionError("the payoff gives some losing coalition more than alpha")
    tight = tuple(l for l, v in lost if v == alpha)
    if not tight:
        raise AssertionError("the optimum must be attained by some losing coalition")
    binding = tuple(w for w, v in won if v == 1)
    return AlphaCertificate(alpha, payoff, tight, binding)


def certify_pair(lp, payoff, value):
    """`lp.certify()` with the payoff and threshold of the last solve replaced
    by `payoff` (one entry per player, equal on each class of the LP) and
    `value`; the dual is kept."""
    *_, y, yden = lp._last
    per_class = [payoff[(c & -c).bit_length() - 1] for c in lp._classes]
    assert [per_class[k] for k in lp._column] == list(payoff), "the payoff must be constant on each class"
    lp._last = (*lp_module.common_numerators((*per_class, value)), y, yden)
    return lp.certify()


def _incidence_row(n, mask, v, t, rhs):
    """`v` at each player of the coalition with this mask and 0 elsewhere, then `t` and `rhs`:
    p(W) >= 1 is (1, 0, 1) and t - p(L) >= 0 is (-1, 1, 0)."""
    row = [0] * n + [t, rhs]
    while mask:
        low = mask & -mask
        row[low.bit_length() - 1] = v
        mask ^= low
    return row


def dense_certify(lp):
    """The dense-row certificate that `ThresholdLP.certify` replaced, kept as
    its reference: one row of n + 2 ints per coalition, the reduced dual
    spread evenly over the coalitions behind each row, and `lp._certify`
    over those rows.  Raises on a pair that is not optimal for the full LP."""
    n, (x, xden, y, yden) = lp.n, lp._last
    x = [x[k] for k in lp._column] + [x[-1]]  # the class payoffs, given to each player
    rows = [_incidence_row(n, w.mask, 1, 0, 1) for w in lp.winning]
    rows += [_incidence_row(n, l.mask, -1, 1, 0) for l in lp.losing]
    if len(y) != len(lp._rows):
        raise CertificateError("the threshold LP returned a solution of the wrong shape")
    sizes = Counter(lp._group)  # the coalitions behind each row
    spread = math.lcm(*sizes.values())
    full_y = [y[r] * (spread // sizes[r]) for r in lp._group]
    lp_module._certify(rows, 1, [0] * n + [1], 1, x, xden, full_y, yden * spread)


def certificate_games():
    """Random and weighted games with n = 2..10 players."""
    for n in range(2, 11):
        for seed in range(3):
            yield random_game(n, 40 + seed, 2 + (n + seed) % 9)
            yield random_weighted_voting_game(n, seed).game


def _random_feasible_payoff(rng, game):
    # scale a positive random vector so the cheapest winning coalition hits 1
    p = [F(rng.randint(1, 9), 1 + rng.randint(0, 8)) for _ in range(game.n)]
    worst = min(coalition_value(p, w) for w in game.minimal_winning)
    p = [v / worst for v in p]
    assert is_feasible(game, p)
    return p


class TestComputeAlpha:
    @pytest.mark.parametrize("n", [4, 8])
    def test_cycles(self, n):
        cert = compute_alpha_exact(cycle_game(n))
        assert cert.alpha == F(n, 4)

    def test_dictator(self):
        cert = compute_alpha_exact(DICT3)
        assert cert.alpha == 0
        assert cert.payoff == (F(1), F(0), F(0))

    def test_majority(self):
        assert compute_alpha_exact(MAJ3).alpha == F(1, 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_certificate_invariants(self, seed):
        g = random_game(3 + seed % 8, seed, 3 + seed % 6)
        cert = compute_alpha_exact(g)
        assert is_feasible(g, cert.payoff)
        losing = maximal_losing(g)
        assert all(coalition_value(cert.payoff, l) <= cert.alpha for l in losing)
        assert any(coalition_value(cert.payoff, l) == cert.alpha for l in cert.tight_losing)
        assert set(cert.tight_losing) <= set(losing)
        for w in cert.binding_winning:
            assert coalition_value(cert.payoff, w) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_relabel_and_dummy_player(self, seed):
        # alpha depends on the game, not on the players' names, and a player
        # in no minimal winning coalition changes no coalition's status
        n = 3 + seed % 6
        g = random_game(n, 500 + seed, 2 + seed % 7)
        alpha = compute_alpha_exact(g).alpha
        perm = list(range(1, n + 1))
        perm = perm[seed % n :] + perm[: seed % n]
        perm.reverse()
        relabeled = new_game(n, [[perm[i - 1] for i in w.players()] for w in g.minimal_winning])
        assert compute_alpha_exact(relabeled).alpha == alpha
        padded = new_game(n + 1, [w.players() for w in g.minimal_winning])
        assert compute_alpha_exact(padded).alpha == alpha

    def test_threshold_lp_is_the_only_builder(self):
        assert not hasattr(alpha, "threshold_rows") and not hasattr(alpha, "solve_threshold_lp")

    def test_json_shape(self):
        payload = compute_alpha_exact(cycle_game(8)).to_json_dict()
        assert payload["alpha"] == "2/1"
        assert json.loads(json.dumps(payload)) == payload

    # the path 1-2-3-4 has the rows W{1,2}, W{2,3}, W{3,4}, L{1,3}, L{1,4},
    # L{2,4}; its optimum is t = 1, at (0, 1, 1, 0) and at (1/2, 1/2, 1/2, 1/2)
    # among others, with the dual PATH_DUAL.  Each case but the first three
    # has one fault and passes every other check.  `fault` names it, and
    # `message` is how `certify` refuses it: `lp._certify` names the LP fact
    # that fails, so a row below 1 and a row above t are both primal-infeasible,
    # and the third, feasible but short of the optimum, fails strong duality
    PATH_DUAL = "(F(1, 2), 0, F(1, 2), F(1, 2), 0, F(1, 2))"
    LOW_WINNING = "the payoff gives some minimal winning coalition less than 1"
    HIGH_LOSING = "the payoff gives some losing coalition more than alpha"
    INFEASIBLE = "simplex returned a primal-infeasible point"

    @pytest.mark.parametrize(
        "payoff, alpha, fault, message, dual",
        [
            ("(0, 0, 0, 0)", "0", LOW_WINNING, INFEASIBLE, PATH_DUAL),
            ("(1, 1, 1, 1)", "1", HIGH_LOSING, INFEASIBLE, PATH_DUAL),
            ("(1, 1, 1, 1)", "3", "the optimum must be attained by some losing coalition", "strong duality failed",
             PATH_DUAL),
            ("(F(-1, 2), F(3, 2), F(3, 2), F(-1, 2))", "1", "simplex returned a negative primal",
             "simplex returned a negative primal", PATH_DUAL),
            ("(0, F(1, 2), 1, 0)", "1", LOW_WINNING, INFEASIBLE, PATH_DUAL),
            ("(1, 1, 1, 0)", "1", HIGH_LOSING, INFEASIBLE, PATH_DUAL),
            ("(0, 1, 1, 0)", "1", "the threshold LP returned a solution of the wrong shape",
             "simplex returned a solution of the wrong shape", "(F(1, 2),) * 5"),
            # a dual that meets every column, t's cost and strong duality
            ("(F(1, 2),) * 4", "1", "simplex returned a negative dual", "simplex returned a negative dual",
             "(F(1, 4), F(1, 2), F(1, 4), F(3, 4), F(-1, 2), F(3, 4))"),
        ],
    )
    def test_certificate_checks_survive_optimize(self, payoff, alpha, fault, message, dual):
        # a solver returning a wrong optimum must be caught even under python -O;
        # the path 1-2-3-4 has no symmetric players, so its LP has a column per player
        script = f"""
from fractions import Fraction as F
from simplegames import alpha, lp, new_game
assert False, "python -O should have stripped this assert"
game = new_game(4, [[1, 2], [2, 3], [3, 4]])
print(len(alpha.symmetric_classes(game)))
payoff = tuple(F(v) for v in {payoff})
alpha.solve_lp = lambda model: lp.LPSolution("optimal", payoff + (F({alpha}),), tuple(map(F, {dual})), F({alpha}))
alpha.compute_alpha_exact(game)
"""
        proc = run_optimized(script)
        assert proc.returncode == 1 and proc.stdout.split() == ["4"]
        assert f"CertificateError: {message}" in proc.stderr

    # cycle_game(4) has the classes {1, 3} and {2, 4}: its reduced LP has the
    # columns (p1 = p3, p2 = p4, t) and the rows W(1, 1), L(2, 0), L(0, 2), and
    # its optimum is q = (1/2, 1/2), t = 1 with the dual (1, 1/2, 1/2), the
    # first spread over the four edges.  The last three duals each fail one
    # dual check and pass the others
    @pytest.mark.parametrize(
        "patch, message",
        [
            ("alpha.solve_lp = fake((1, 1, 1), ())", "simplex returned a solution of the wrong shape"),
            ("alpha.solve_lp = fake((1, 1, 1, 1, 1), (1, 1, 1))", "simplex returned a solution of the wrong shape"),
            ("alpha.solve_lp = fake((1, 0, 1), (1, F(1, 2), F(1, 2)))", "simplex returned a primal-infeasible point"),
            ("alpha.solve_lp = fake((F(1, 2), F(1, 2), 1), (1, 1, 0))", "simplex returned a dual-infeasible vector"),
            ("alpha.solve_lp = fake((F(1, 2), F(1, 2), 1), (0, F(1, 2), F(1, 2)))", "strong duality failed"),
            # t's column: the losing duals sum to more than its cost 1
            ("alpha.solve_lp = fake((F(1, 2), F(1, 2), 1), (1, 1, 1))", "simplex returned a dual-infeasible vector"),
            # {2, 3, 4} is no class: swapping 2 and 3 moves the edge {1, 2} off the cycle;
            # the reduced optimum is alpha, and the symmetry check refuses the partition
            ("alpha.symmetric_classes = lambda game: [0b0001, 0b1110]",
             "the partition is not a symmetry: a swap inside a class moves a winning coalition"),
        ],
    )
    def test_reduced_checks_survive_optimize(self, patch, message):
        script = f"""
from fractions import Fraction as F
from simplegames import alpha, cycle_game, lp
assert False, "python -O should have stripped this assert"
def fake(primal, dual):
    return lambda model: lp.LPSolution("optimal", tuple(map(F, primal)), tuple(map(F, dual)), F(primal[-1]))
{patch}
alpha.compute_alpha_exact(cycle_game(4))
"""
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert f"CertificateError: {message}" in proc.stderr

    def test_repeated_cut_survives_optimize(self):
        # an optimum violates none of its rows, so a cut the LP already holds
        # means a wrong solve, which intermediate rounds no longer certify
        script = """
from simplegames import Coalition, alpha
assert False, "python -O should have stripped this assert"
lp = alpha.ThresholdLP(4, [Coalition.of(1, 2), Coalition.of(2, 3), Coalition.of(3, 4)])
lp.solve()
lp.add_losing(Coalition.of(1, 3))
lp.solve()
lp.add_losing(Coalition.of(1, 3))
"""
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "CertificateError: the cut repeats a row of the LP, so the last solve was wrong" in proc.stderr

    def test_unattained_optimum_is_refused(self):
        # with no losing row, t = 0 is optimal and passes lp._certify, but no
        # losing coalition attains it unless one is given
        lp = ThresholdLP(2, [Coalition.of(1, 2)])
        lp.solve()
        with pytest.raises(CertificateError, match="the optimum must be attained by some losing coalition"):
            lp.certify()
        assert lp.certify((Coalition.of(),)).tight_losing == (Coalition.of(),)


def full_alpha(game):
    """alpha from the threshold LP with one column per player, certified."""
    lp = ThresholdLP(game.n, game.minimal_winning, maximal_losing(game))
    lp.solve()
    return lp.certify().alpha


def reduced_lp(game):
    """The threshold LP that `compute_alpha_exact` solves, solved."""
    lp = ThresholdLP(game.n, game.minimal_winning, maximal_losing(game), symmetric_classes(game))
    lp.solve()
    return lp


def reduction_games():
    """Random games with n = 2..12, weighted ones (wvg:N) with N <= 14, and
    the benchmark's seed-3 games corpus."""
    for n in range(2, 13):
        for seed in range(3):
            yield random_game(n, 70 + seed, 2 + (5 * seed + n) % 13)
    for n in range(2, 15):
        for seed in range(2):
            yield random_weighted_voting_game(n, seed).game
    yield from games_corpus(3)


class TestSymmetricReduction:
    """`compute_alpha_exact` solves the threshold LP over classes of symmetric
    players; the full LP, one column per player, is the reference."""

    def test_reduced_matches_full(self, monkeypatch):
        # one certify per alpha, whose `lp._certify` scores each row once, and
        # checking the partition's symmetry exactly when the LP is reduced
        scored, swaps, certified = [0], [], []
        lp_certify, certify, swaps_keep = alpha._certify, ThresholdLP.certify, alpha._swaps_keep

        def count(a, *args):
            scored[0] += len(a)
            return lp_certify(a, *args)

        def spy(lp, *args):
            scored[0] = 0
            swaps.clear()
            cert = certify(lp, *args)
            certified.append((lp._k < lp.n, len(lp._rows), scored[0], list(swaps)))
            return cert

        monkeypatch.setattr(alpha, "_certify", count)
        monkeypatch.setattr(alpha, "_swaps_keep", lambda classes, masks: swaps.append(len(masks)) or swaps_keep(classes, masks))
        monkeypatch.setattr(ThresholdLP, "certify", spy)
        reduced = 0
        for g in reduction_games():
            certified.clear()
            cert = compute_alpha_exact(g)
            full = len(g.minimal_winning) + len(maximal_losing(g))
            [(was_reduced, rows, scores, checked)] = certified
            assert scores == rows <= full
            assert cert.alpha == full_alpha(g)
            classes = symmetric_classes(g)
            for c in classes:
                assert len({cert.payoff[i - 1] for i in Coalition(c).players()}) == 1
            assert was_reduced == (len(classes) < g.n)
            assert checked == ([len(g.minimal_winning)] if was_reduced else [])
            reduced += was_reduced
        assert reduced > 100

    @staticmethod
    def dense_games():
        yield from reduction_games()
        yield from (cycle_game(n) for n in range(4, 13, 2))

    def test_one_pass_agrees_with_the_dense_rows(self):
        # `certify` and the dense-row reference accept the same optimal pairs
        reduced = 0
        for g in self.dense_games():
            lp = reduced_lp(g)
            lp.certify()
            dense_certify(lp)
            reduced += lp._k < lp.n
        assert reduced > 100

    def test_one_pass_and_dense_rows_agree_on_perturbed_duals(self):
        # one reduced dual entry raised by 1/yden: a winning row's breaks strong
        # duality, a losing row's makes its class's columns more negative and
        # may pass, so both checks must agree on each, and both outcomes occur
        refused = perturbed = 0
        for g in self.dense_games():
            lp = reduced_lp(g)
            if lp._k == lp.n:
                continue
            *answer, y, yden = lp._last
            for r in sorted({0, len(y) // 2, len(y) - 1}):
                lp._last = *answer, y[:r] + [y[r] + 1] + y[r + 1 :], yden
                outcomes = set()
                for check in (ThresholdLP.certify, dense_certify):
                    try:
                        check(lp)
                        outcomes.add("certified")
                    except CertificateError:
                        outcomes.add("refused")
                assert len(outcomes) == 1, (g, r)
                perturbed += 1
                refused += outcomes == {"refused"}
                if r == 0:  # a winning row
                    assert outcomes == {"refused"}
        assert 100 < refused < perturbed

    def test_wrong_partition_is_refused_by_both(self):
        # {2, 3, 4} is no class of cycle_game(4); {1, 2, 3}, {4, 5, 6} is none of cycle_game(6)
        for n, classes in ((4, [0b0001, 0b1110]), (6, [0b000111, 0b111000])):
            g = cycle_game(n)
            lp = ThresholdLP(n, g.minimal_winning, maximal_losing(g), classes)
            lp.solve()
            for check in (ThresholdLP.certify, dense_certify):
                with pytest.raises(CertificateError):
                    check(lp)

    def test_reduced_lp_builds_no_row_per_coalition(self):
        # one row per distinct (winning or losing, class-count vector), each
        # coalition counted to its row; the LP over the players has one per coalition
        g = random_weighted_voting_game(14, 0).game
        classes = symmetric_classes(g)
        assert len(classes) < g.n
        losing = maximal_losing(g)
        coalitions = len(g.minimal_winning) + len(losing)
        families = ((0, g.minimal_winning), (1, losing))
        counts = {(t, *[(c.mask & m).bit_count() for m in classes]) for t, family in families for c in family}
        reduced = ThresholdLP(g.n, g.minimal_winning, losing, classes)
        assert len(reduced._rows) == len(counts) < coalitions
        assert len(reduced._group) == coalitions
        full = ThresholdLP(g.n, g.minimal_winning, losing)
        assert len(full._rows) == coalitions and full._group == list(range(coalitions))
        dense = [_incidence_row(g.n, c.mask, 1 - 2 * t, t, 1 - t) for t, family in families for c in family]
        assert full._rows == dense

    @pytest.mark.parametrize("seed", range(6))
    def test_relabel_and_dummies_keep_alpha(self, seed):
        g = random_weighted_voting_game(7 + seed % 4, seed).game
        value = compute_alpha_exact(g).alpha
        perm = list(range(1, g.n + 1))
        random.Random(seed).shuffle(perm)
        relabeled = new_game(g.n, [[perm[p - 1] for p in w.players()] for w in g.minimal_winning])
        assert compute_alpha_exact(relabeled).alpha == value
        padded = new_game(g.n + 3, [w.players() for w in g.minimal_winning])
        assert symmetric_classes(padded)[-1] == 0b111 << g.n  # the dummies are one class
        cert = compute_alpha_exact(padded)
        assert cert.alpha == value and cert.payoff[g.n :] == (0, 0, 0)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_majority_games(self, n, monkeypatch):
        # every q-of-n majority game is one class: a two-row LP with alpha (q - 1)/q
        rows = []
        solve = alpha.solve_lp
        monkeypatch.setattr(alpha, "solve_lp", lambda model: rows.append(len(model.rows)) or solve(model))
        for q in range(1, n + 1):
            game = new_game(n, combinations(range(1, n + 1), q))
            assert symmetric_classes(game) == [(1 << n) - 1]
            cert = compute_alpha_exact(game)
            assert cert.alpha == F(q - 1, q) and cert.payoff == (F(1, q),) * n
        assert rows == [2] * n

    def test_reduced_row_count_is_pinned(self, monkeypatch):
        # wvg:16 at seed 0: 1649 minimal winning and 2256 maximal losing
        # coalitions, and 8 classes of sizes 4, 2, 3, 1, 2, 1, 2, 1
        models = []
        solve = alpha.solve_lp
        monkeypatch.setattr(alpha, "solve_lp", lambda model: models.append(model) or solve(model))
        g = random_weighted_voting_game(16, 0).game
        assert (len(g.minimal_winning), len(maximal_losing(g))) == (1649, 2256)
        assert [c.bit_count() for c in symmetric_classes(g)] == [4, 2, 3, 1, 2, 1, 2, 1]
        assert compute_alpha_exact(g).alpha == F(46, 47)
        assert [(len(m.rows), m.num_vars) for m in models] == [(291, 9)]

    def test_bad_classes_are_refused(self):
        g = cycle_game(4)
        for classes in ([0b0011, 0b0110, 0b1000], [0b0011, 0b0100], [0b0011, 0b1100, 0], [0b11111]):
            with pytest.raises(ValueError, match="classes"):
                ThresholdLP(4, g.minimal_winning, maximal_losing(g), classes)

    def test_one_player_per_class_is_the_full_lp(self):
        # in any order, singleton classes leave the LP over the players as it is
        g = random_game(6, 5, 7)
        losing = maximal_losing(g)
        full = ThresholdLP(6, g.minimal_winning, losing)
        for classes in ([1 << i for i in range(6)], [1 << i for i in reversed(range(6))]):
            lp = ThresholdLP(6, g.minimal_winning, losing, classes)
            assert lp._rows == full._rows and lp.solve() == full.solve()
        # the classes are numbered by their least player, so the LP depends only on the partition
        g = random_weighted_voting_game(14, 0).game
        losing = maximal_losing(g)
        classes = symmetric_classes(g)
        reduced = ThresholdLP(g.n, g.minimal_winning, losing, classes)
        lp = ThresholdLP(g.n, g.minimal_winning, losing, classes[::-1])
        assert len(classes) < g.n and lp._rows == reduced._rows and lp.solve() == reduced.solve()

    def test_classed_lp_adds_rows_by_class_counts(self):
        # cycle_game(4) over {1, 3}, {2, 4}: the cuts {1, 3} and {2, 4} are the
        # rows L(2, 0) and L(0, 2)
        g = cycle_game(4)
        lp = ThresholdLP(4, g.minimal_winning, (), symmetric_classes(g))
        assert lp._rows == [[1, 1, 0, 1]]
        lp.solve()
        for cut, row in ((Coalition.of(1, 3), [-2, 0, 1, 0]), (Coalition.of(2, 4), [0, -2, 1, 0])):
            lp.add_losing(cut)
            assert lp._rows[-1] == row
            lp.solve()
        assert len(lp._rows) == 3 and lp._group == [0, 0, 0, 0, 1, 2]
        cert = lp.certify()
        assert cert.alpha == 1 and cert.payoff == (F(1, 2),) * 4
        assert cert.tight_losing == (Coalition.of(1, 3), Coalition.of(2, 4))
        # the warm classed LP and the cold full LP over the same cuts agree
        full = ThresholdLP(4, g.minimal_winning, [Coalition.of(1, 3), Coalition.of(2, 4)])
        full.solve()
        assert full.certify().alpha == cert.alpha
        # the star on 1 over {1}, {2, 3, 4}: {3, 4} has the counts of the cut {2, 3},
        # so an optimum that holds that row scores it as {2, 3}, and it is refused
        star = new_game(4, [[1, 2], [1, 3], [1, 4]])
        lp = ThresholdLP(4, star.minimal_winning, (), symmetric_classes(star))
        lp.solve()
        lp.add_losing(Coalition.of(2, 3))
        with pytest.raises(CertificateError, match="the cut repeats a row of the LP"):
            lp.add_losing(Coalition.of(3, 4))
        assert lp._rows[-1] == [0, -2, 1, 0] and len(lp._group) == 4 and len(lp.losing) == 1


# the reference's refusals of a payoff that scores some row on the wrong side of 1 or t
ROW_FAILURES = (
    "the payoff gives some minimal winning coalition less than 1",
    "the payoff gives some losing coalition more than alpha",
)


def _outcome(check, *args):
    try:
        return "certified", repr(check(*args))
    except AssertionError as exc:
        return "refused", str(exc)


def _mutant(cert, classes):
    """The optimal payoff with the entries of one class raised by 1/den, den
    the lcm of its denominators, on the class of a player of a tight losing
    coalition; None when every tight losing coalition is empty."""
    members = [c.players() for c in cert.tight_losing if c.mask]
    if not members:
        return None
    den = math.lcm(*(v.denominator for v in cert.payoff))
    [raised] = [c for c in classes if c >> (members[0][0] - 1) & 1]
    return tuple(v + F(raised >> i & 1, den) for i, v in enumerate(cert.payoff))


class TestIntegerCertificate:
    """The integer pass of `ThresholdLP.certify` against its Fraction reference."""

    def test_matches_fraction_reference(self):
        # the primal checks match the reference's; a pair that passes them is
        # certified exactly when it is optimal, since the dual kept is optimal
        rng = random.Random(12)
        outcomes = set()
        for g in certificate_games():
            losing = maximal_losing(g)
            lp = ThresholdLP(g.n, g.minimal_winning, losing)
            nums, den = lp.solve()
            payoff, value = tuple(F(v, den) for v in nums[:-1]), F(nums[-1], den)
            cases = [(payoff, value)]
            p = _random_feasible_payoff(rng, g)
            top = F(max(coalition_value(p, l) for l in losing))
            # attained, short of the worst losing value, and short of 1 on winning
            cases += [(tuple(p), top), (tuple(p), top - F(1, 7)), (tuple(v / 2 for v in p), top)]
            for case in cases:
                got = _outcome(certify_pair, lp, *case)
                reference = expected = _outcome(reference_certify_alpha, *case, g.minimal_winning, losing)
                if case[1] < 0:  # t is a column of the LP, so t >= 0 is checked first
                    expected = ("refused", "simplex returned a negative primal")
                elif expected[1] in ROW_FAILURES:  # lp._certify checks winning and losing rows alike
                    expected = ("refused", "simplex returned a primal-infeasible point")
                elif case[1] != value:
                    expected = ("refused", "strong duality failed (primal and dual objectives differ)")
                assert got == expected
                outcomes.add(tuple(o[0] if o[0] == "certified" else o[1] for o in (got, reference)))
        # certified, and four kinds of refusal, each with the reference's outcome
        assert len(outcomes) == 5

    def test_raised_entry_is_refused(self):
        mutants = 0
        for g in certificate_games():
            cert = compute_alpha_exact(g)
            payoff = _mutant(cert, symmetric_classes(g))
            if payoff is None:
                continue
            mutants += 1
            with pytest.raises(CertificateError, match="simplex returned a primal-infeasible point"):
                certify_pair(reduced_lp(g), payoff, cert.alpha)
        assert mutants > 30

    def test_raised_entry_is_refused_optimized(self):
        script = """
import test_alpha
from simplegames import compute_alpha_exact
from simplegames.errors import CertificateError
assert False, "python -O should have stripped this assert"
mutants = refused = 0
for g in test_alpha.certificate_games():
    cert = compute_alpha_exact(g)
    payoff = test_alpha._mutant(cert, test_alpha.symmetric_classes(g))
    if payoff is None:
        continue
    mutants += 1
    try:
        test_alpha.certify_pair(test_alpha.reduced_lp(g), payoff, cert.alpha)
    except CertificateError:
        refused += 1
print(mutants, refused)
"""
        proc = run_optimized(f"import sys; sys.path.insert(0, {str(TESTS)!r})\n" + script)
        assert proc.returncode == 0, proc.stderr
        mutants, refused = map(int, proc.stdout.split())
        assert mutants > 30 and refused == mutants


class TestFractionFree:
    """The integer paths do no Fraction addition inside their loops."""

    def test_no_fraction_additions(self, monkeypatch):
        state = {"depth": 0, "calls": 0, "adds": 0}

        def counted(op):
            def add(a, b):
                state["adds"] += state["depth"] > 0
                return op(a, b)
            return add

        def inside(fn):
            def call(*args, **kwargs):
                state["depth"] += 1
                state["calls"] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    state["depth"] -= 1
            return call

        monkeypatch.setattr(F, "__add__", counted(F.__add__))
        monkeypatch.setattr(F, "__radd__", counted(F.__radd__))
        # the counter sees a Fraction sum made inside a watched call
        inside(sum)([F(1, 2), F(1, 3)], F(0))
        assert state["adds"] == 2
        state.update(calls=0, adds=0)
        for module, name in [(ThresholdLP, "certify"), (alpha, "alpha_of_payoff"),
                             (graphs, "mwis_exact"), (minnorm, "is_feasible")]:
            monkeypatch.setattr(module, name, inside(getattr(module, name)))
        weighted = random_weighted_voting_game(9, 4).game
        cert = alpha.compute_alpha_exact(weighted)
        assert minnorm.is_feasible(weighted, cert.payoff)
        assert alpha.alpha_of_payoff(weighted, cert.payoff) == cert.alpha
        assert graphs.mwis_exact(build_gadget(random_graph(5, 6, 2)), [F(1, 3), 0.5] * 5).weight
        gadget_alpha = alpha_graph(build_gadget(random_graph(6, 7, 1)))
        assert gadget_alpha.alpha > 0
        assert state["calls"] > 5
        assert state["adds"] == 0

    def test_coalition_value_is_gone(self):
        assert not hasattr(alpha, "coalition_value")


class TestAlphaOfPayoff:
    def test_cycle_half(self):
        assert alpha_of_payoff(cycle_game(4), [F(1, 2)] * 4) == 1

    def test_dictator(self):
        assert alpha_of_payoff(DICT3, [1, 0, 0]) == 0

    def test_majority_unbalanced(self):
        # losing singletons reach 1, winning pairs reach 1
        assert alpha_of_payoff(MAJ3, [1, 1, 0]) == 1

    def test_zero_winning_payoff_is_an_error(self):
        with pytest.raises(UndefinedRatioError):
            alpha_of_payoff(MAJ3, [1, 0, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            alpha_of_payoff(MAJ3, [0, 0, 0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "1/0", None])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="not a finite rational"):
            alpha_of_payoff(MAJ3, [1, bad, 0])

    @pytest.mark.parametrize("seed", range(20))
    def test_scale_invariance(self, seed):
        rng = random.Random(seed)
        g = random_game(3 + seed % 8, seed, 4)
        p = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(g.n)]
        c = F(rng.randint(1, 7), rng.randint(1, 7))
        assert alpha_of_payoff(g, p) == alpha_of_payoff(g, [c * v for v in p])

    @pytest.mark.parametrize("seed", range(25))
    def test_blocker_reformulation(self, seed):
        # max over maximal losing == max over complements of minimal covers
        rng = random.Random(100 + seed)
        g = random_game(3 + seed % 9, seed, 3 + seed % 5)
        for _ in range(4):
            p = _random_feasible_payoff(rng, g)
            by_losing = max(coalition_value(p, l) for l in maximal_losing(g))
            by_blocker = max(coalition_value(p, c.complement(g.n)) for c in blocker(g))
            assert by_losing == by_blocker

    @pytest.mark.parametrize("seed", range(15))
    def test_optimum_is_a_lower_bound(self, seed):
        rng = random.Random(200 + seed)
        g = random_game(3 + seed % 7, seed, 4)
        cert = compute_alpha_exact(g)
        for _ in range(7):
            p = _random_feasible_payoff(rng, g)
            assert cert.alpha <= alpha_of_payoff(g, p)


class TestFloatCrossCheck:
    @pytest.mark.parametrize("seed", range(20))
    def test_alpha_matches_scipy_resolve(self, seed):
        # independent floating-point re-solve of the whole threshold LP
        scipy_opt = pytest.importorskip("scipy.optimize")
        g = random_game(3 + seed % 8, 555 + seed, 3 + seed % 6)
        exact = compute_alpha_exact(g).alpha
        n = g.n
        a_ub, b_ub = [], []
        for w in g.minimal_winning:
            row = [-1.0 if i in w.players() else 0.0 for i in range(1, n + 1)] + [0.0]
            a_ub.append(row)
            b_ub.append(-1.0)
        for l in maximal_losing(g):
            row = [1.0 if i in l.players() else 0.0 for i in range(1, n + 1)] + [-1.0]
            a_ub.append(row)
            b_ub.append(0.0)
        ref = scipy_opt.linprog(
            [0.0] * n + [1.0], A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs"
        )
        assert ref.status == 0
        assert abs(float(exact) - ref.fun) <= 1e-6


class TestIsWeighted:
    def test_examples(self):
        assert is_weighted(MAJ3)
        assert is_weighted(DICT3)
        assert not is_weighted(cycle_game(4))


class TestConjectureCorpus:
    def test_small_corpus(self):
        report = verify_conjecture_corpus(6, seeds=range(15))
        assert report.all_within_bound
        assert len(report.entries) == 15
        assert report.max_ratio <= 1

    def test_two_players_exhaustive(self):
        report = verify_conjecture_corpus(2, seeds=range(12))
        assert report.all_within_bound
        assert all(e.alpha in (F(0), F(1, 2)) for e in report.entries)

    def test_entries_sorted_by_seed(self):
        report = verify_conjecture_corpus(5, seeds=[9, 1, 5])
        assert [e.seed for e in report.entries] == [1, 5, 9]

    def test_budget(self):
        from simplegames import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            verify_conjecture_corpus(20, seeds=[1])

    @pytest.mark.parametrize("seeds, count", [([], 100), (None, 0)])
    def test_empty_corpus_is_refused(self, seeds, count):
        # without seeds the command line passes range(--count)
        with pytest.raises(ValueError, match="no seeds"):
            verify_conjecture_corpus(6, seeds=range(count) if seeds is None else seeds)
