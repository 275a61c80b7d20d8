"""Min-norm point: feasibility, certificates, strengthened bound, tightness."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from simplegames import (
    BudgetExceededError,
    CertificateError,
    Coalition,
    compute_alpha_exact,
    cycle_game,
    is_feasible,
    min_norm_point,
    new_game,
    random_game,
    strengthened_bound,
    tightness_check,
)
from simplegames import minnorm
from simplegames.cli import run
from simplegames.complete import random_weighted_voting_game
from simplegames.games import is_winning
from simplegames.lp import in_convex_hull
from simplegames.minnorm import _dominated_support

MAJ3 = new_game(3, [[1, 2], [1, 3], [2, 3]])
DICT3 = new_game(3, [[1]])
SRC = Path(__file__).resolve().parents[1] / "src"


class TestFeasibility:
    def test_examples(self):
        c4 = cycle_game(4)
        assert is_feasible(c4, [F(1, 2)] * 4)
        assert is_feasible(c4, [1, 0, 1, 0])
        assert not is_feasible(c4, [0.4, 0.4, 0.4, 0.4])
        assert not is_feasible(c4, [-1, 1, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_feasible(MAJ3, [1, 1])


class TestMinNormPoint:
    def test_cycle4(self):
        pt, cert = min_norm_point(cycle_game(4), tolerance=1e-6)
        assert cert.certified
        assert max(abs(v - F(1, 2)) for v in pt) < F(1, 10**4)

    def test_dictator(self):
        pt, cert = min_norm_point(DICT3)
        assert cert.certified
        assert pt == (F(1), F(0), F(0))

    def test_majority_by_hand_kkt(self):
        # symmetric optimum with all pairwise sums active: p = (1/2, 1/2, 1/2)
        pt, cert = min_norm_point(MAJ3)
        assert cert.certified
        assert pt == (F(1, 2),) * 3

    @pytest.mark.parametrize("seed", range(20))
    def test_certificate_contract(self, seed):
        g = random_game(3 + seed % 8, seed, 3 + seed % 6)
        pt, cert = min_norm_point(g, tolerance=1e-6)
        assert is_feasible(g, pt)
        assert cert.certified
        assert cert.gap == cert.squared_norm - cert.lp_value
        assert cert.gap <= F(1, 10**6)
        assert cert.gap == 0 and cert.gap_history == (0,)

    @pytest.mark.parametrize("seed", range(12))
    def test_gap_history_non_increasing(self, seed):
        g = random_game(4 + seed % 6, 31 + seed, 5)
        _, cert = min_norm_point(g)
        hist = cert.gap_history
        assert hist, "at least the final certificate is recorded"
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_budget(self):
        # no player cap: nothing here is 2^n, and MAX_ITERATIONS bounds Wolfe
        point, cert = min_norm_point(new_game(30, [[1, 2]]))
        assert point == (F(1, 2), F(1, 2)) + (F(0),) * 28 and cert.certified
        assert min_norm_point(cycle_game(64))[0] == (F(1, 2),) * 64

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            min_norm_point(MAJ3, tolerance=0.0)

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr("simplegames.minnorm.MAX_ITERATIONS", 1)
        with pytest.raises(BudgetExceededError):
            min_norm_point(cycle_game(8))

    def test_nonzero_gap_raises(self, monkeypatch, capsys):
        # Wolfe's loop stops on an exact test, so even a gap of 1e-9 is a bug
        original = minnorm._min_over_q
        monkeypatch.setattr(minnorm, "_min_over_q", lambda g, d: original(g, d) - F(1, 10**9))
        with pytest.raises(CertificateError, match="optimality gap 1/1000000000"):
            min_norm_point(cycle_game(4))
        assert run(["min-norm", "--game", "cycle:4"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("internal error: CertificateError: ")

    @pytest.mark.parametrize("seed", range(8))
    def test_relabel_and_dummy_player(self, seed):
        # p* is unique, so relabeling players permutes it exactly and a
        # player in no minimal winning coalition gets exactly 0
        n = 3 + seed % 6
        g = random_game(n, 400 + seed, 2 + seed % 7)
        pt, _ = min_norm_point(g)
        perm = list(range(1, n + 1))
        perm = perm[seed % n :] + perm[: seed % n]
        perm.reverse()
        relabeled = new_game(n, [[perm[i - 1] for i in w.players()] for w in g.minimal_winning])
        moved, _ = min_norm_point(relabeled)
        assert all(moved[perm[i] - 1] == pt[i] for i in range(n))
        padded, _ = min_norm_point(new_game(n + 1, [w.players() for w in g.minimal_winning]))
        assert padded == pt + (F(0),)

    @pytest.mark.parametrize(
        "patch, message",
        [
            ("minnorm.is_feasible = lambda game, payoff: False", "min-norm point is not feasible"),
            ("minnorm._affine_minimizer([[2, 2], [2, 2]])", "Wolfe corral is affinely dependent"),
        ],
    )
    def test_certificate_checks_survive_optimize(self, patch, message):
        script = f"""
from simplegames import cycle_game, minnorm
assert False, "python -O should have stripped this assert"
{patch}
minnorm.min_norm_point(cycle_game(4))
"""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert f"CertificateError: {message}" in proc.stderr


def dykstra_min_norm(game, iters=6000):
    """Independent oracle: Dykstra alternating projections of the origin onto
    the feasible region (halfspace projections only, no LP machinery)."""
    n = game.n
    halfspaces = [
        [1.0 if i in w.players() else 0.0 for i in range(1, n + 1)]
        for w in game.minimal_winning
    ]
    halfspaces += [[1.0 if j == t else 0.0 for j in range(n)] for t in range(n)]
    rhs = [1.0] * len(game.minimal_winning) + [0.0] * n
    x = [0.0] * n
    corr = [[0.0] * n for _ in halfspaces]
    for _ in range(iters):
        for ci, (a, b) in enumerate(zip(halfspaces, rhs)):
            y = [xi + c for xi, c in zip(x, corr[ci])]
            dot = sum(ai * yi for ai, yi in zip(a, y))
            if dot < b:
                t = (b - dot) / sum(ai * ai for ai in a)
                xnew = [yi + t * ai for yi, ai in zip(y, a)]
            else:
                xnew = y
            corr[ci] = [yi - xi for yi, xi in zip(y, xnew)]
            x = xnew
    return x


class TestAgainstDykstraOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_projection_method(self, seed):
        g = random_game(3 + seed % 4, 900 + seed, 3 + seed % 4)
        ref = dykstra_min_norm(g)
        pt, cert = min_norm_point(g)
        assert cert.certified
        assert max(abs(float(v) - r) for v, r in zip(pt, ref)) <= 1e-5

    def test_matches_on_named_games(self):
        for g in (MAJ3, DICT3, cycle_game(4), cycle_game(6)):
            ref = dykstra_min_norm(g)
            pt, _ = min_norm_point(g)
            assert max(abs(float(v) - r) for v, r in zip(pt, ref)) <= 1e-5


class TestCertificateEquivalence:
    def test_suboptimal_point_fails_the_certificate(self):
        # the all-ones payoff is feasible for the majority game but far from
        # the min-norm point: some q has <p, q> well below <p, p>
        from simplegames.minnorm import _min_over_q

        p = (F(1), F(1), F(1))
        assert is_feasible(MAJ3, p)
        value = _min_over_q(MAJ3, p)
        gap = sum(v * v for v in p) - value
        assert gap == F(3, 2)
        assert gap > F(1, 10**6)

    def test_certified_point_has_no_improving_q(self):
        pt, cert = min_norm_point(MAJ3)
        # no feasible q does better than the certificate's LP value
        assert cert.lp_value >= cert.squared_norm - cert.gap


class TestStrengthenedBound:
    def test_cycle4_attains_quarter_n(self):
        assert strengthened_bound(cycle_game(4), [F(1, 2)] * 4) == 1

    def test_dictator_zero(self):
        assert strengthened_bound(DICT3, [1, 0, 0]) == 0

    def test_majority(self):
        assert strengthened_bound(MAJ3, [F(1, 2)] * 3) == F(3, 4)

    def test_infeasible_payoff_rejected(self):
        with pytest.raises(ValueError):
            strengthened_bound(MAJ3, [F(1, 4)] * 3)

    @pytest.mark.parametrize("seed", range(15))
    def test_at_most_quarter_n_at_min_norm_point(self, seed):
        g = random_game(3 + seed % 10, seed, 3 + seed % 7)
        pt, cert = min_norm_point(g)
        bound = strengthened_bound(g, pt)
        assert bound <= F(g.n, 4) + F(1, 10**6)
        # at the certified point the bound telescopes to <p, 1-p> plus the gap
        inner = sum(v * (1 - v) for v in pt)
        assert abs(bound - inner) <= cert.gap
        assert bound == inner

    @pytest.mark.parametrize("seed", range(10))
    def test_upper_bounds_alpha(self, seed):
        g = random_game(3 + seed % 8, 77 + seed, 4)
        pt, _ = min_norm_point(g)
        assert compute_alpha_exact(g).alpha <= strengthened_bound(g, pt)


class TestTightness:
    def test_cycle4(self):
        tight, hulls = tightness_check(cycle_game(4))
        assert tight
        lam_w, lam_l = hulls
        assert sum(lam_w.values()) == 1 and sum(lam_l.values()) == 1

    def test_cycle6(self):
        assert tightness_check(cycle_game(6))[0]
        assert compute_alpha_exact(cycle_game(6)).alpha == F(6, 4)

    def test_dictator_not_tight(self):
        assert tightness_check(DICT3) == (False, None)

    @pytest.mark.parametrize("seed", range(15))
    def test_biconditional_with_alpha(self, seed):
        g = random_game(3 + seed % 6, seed, 3 + seed % 5)
        tight, _ = tightness_check(g)
        assert tight == (compute_alpha_exact(g).alpha == F(g.n, 4))

    def test_budget(self):
        # the losing side lists cycle:8's 10 maximal losing coalitions
        assert tightness_check(cycle_game(8), budget=10)[0]
        with pytest.raises(BudgetExceededError) as info:
            tightness_check(cycle_game(8), budget=9)
        assert (info.value.name, info.value.value, info.value.limit) == ("losing", 10, 9)
        assert tightness_check(new_game(24, [[1, 2]])) == (False, None)
        with pytest.raises(ValueError, match="losing budget must be >= 0"):
            tightness_check(new_game(1, [[1]]), budget=-1)

    @pytest.mark.parametrize(
        "n, columns, target, add, support",
        [
            (2, [0b01, 0b10], F(1), True, [0b11]),  # whole coalitions move
            (3, [0b001, 0b010, 0b100], F(2, 3), True, [0b011, 0b101, 0b110]),  # one split
            (3, [0b111], F(1, 2), False, [0b000, 0b111]),  # players removed
        ],
    )
    def test_fill_reaches_the_target(self, n, columns, target, add, support):
        assert _dominated_support(n, columns, target, add) == support
        assert len(support) <= len(columns) + n
        vectors = [tuple(m >> j & 1 for j in range(n)) for m in support]
        assert in_convex_hull([target] * n, vectors) is not None

    def test_one_player_is_never_tight(self):
        # 2/n = 2 is beyond every 0/1 combination
        assert tightness_check(new_game(1, [[1]])) == (False, None)


def reference_tightness(game):
    # the former body of tightness_check: two hulls over all 2^n coalitions,
    # each walked in ascending mask order and classified by is_winning
    n = game.n
    masks = range(1 << n)
    winning = [m for m in masks if is_winning(game, Coalition(m))]
    losing = [m for m in masks if not is_winning(game, Coalition(m))]
    vec = lambda mask: tuple((mask >> j) & 1 for j in range(n))
    lam_w = in_convex_hull([F(2, n)] * n, [vec(m) for m in winning])
    if lam_w is None:
        return False, None
    lam_l = in_convex_hull([F(1, 2)] * n, [vec(m) for m in losing])
    if lam_l is None:
        return False, None
    return True, (dict(zip(winning, lam_w)), dict(zip(losing, lam_l)))


def check_witness(game, hulls):
    """Both {mask: weight} dicts are probability vectors over coalitions of the
    right class, in ascending mask order, that reproduce (2/n)*ones and
    (1/2)*ones exactly; classes via is_winning."""
    n = game.n
    for weights, wins, target in ((hulls[0], True, F(2, n)), (hulls[1], False, F(1, 2))):
        assert list(weights) == sorted(weights)
        assert all(is_winning(game, Coalition(m)) == wins for m in weights)
        assert all(w >= 0 for w in weights.values()) and sum(weights.values()) == 1
        point = [sum(w for m, w in weights.items() if m >> j & 1) for j in range(n)]
        assert point == [target] * n


def relabeled(game, seed):
    perm = list(range(1, game.n + 1))
    random.Random(seed).shuffle(perm)
    return new_game(game.n, [[perm[i - 1] for i in w.players()] for w in game.minimal_winning])


TIGHT = [cycle_game(4), cycle_game(6), cycle_game(8), new_game(4, [[1, 2], [3, 4]])]


class TestTightnessAgainstReference:
    """The dominated-hull LPs against the two hulls over all 2^n coalitions."""

    @staticmethod
    def agree(game):
        got = tightness_check(game)
        want = reference_tightness(game)
        assert got[0] == want[0]
        for tight, hulls in (got, want):
            if tight:
                check_witness(game, hulls)
            else:
                assert hulls is None
        return got[0]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_games(self, n):
        for seed in range(4):
            for target in (2, 3, 5, n):
                self.agree(random_game(n, 900 + seed, target))

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_cycle_games(self, n):
        assert self.agree(cycle_game(n))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_weighted_games(self, n):
        for seed in range(3):
            self.agree(random_weighted_voting_game(n, seed).game)

    def test_tight_examples(self):
        assert all(self.agree(g) for g in TIGHT)


class TestTightnessMetamorphic:
    @pytest.mark.parametrize("seed", range(6))
    def test_relabeling_keeps_tight(self, seed):
        games = TIGHT + [random_game(4 + seed, 700 + seed, 3 + seed % 4)]
        for g in games:
            moved = relabeled(g, seed)
            tight, hulls = tightness_check(moved)
            assert tight == tightness_check(g)[0]
            if tight:
                check_witness(moved, hulls)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_dummy_player_breaks_tightness(self, n):
        # alpha is unchanged by a player in no minimal winning coalition,
        # while n/4 grows by 1/4
        g = cycle_game(n)
        assert tightness_check(g)[0]
        padded = new_game(n + 1, [w.players() for w in g.minimal_winning])
        assert compute_alpha_exact(padded).alpha == compute_alpha_exact(g).alpha
        assert tightness_check(padded) == (False, None)

    @pytest.mark.parametrize(
        "patch, message",
        [
            (
                "minnorm.maximal_losing = lambda game, budget=None: [Coalition(game.full_mask)]",
                "hull witness (1, 2, 3, 4) is not losing",
            ),
            (
                "minnorm.in_convex_hull = lambda point, generators: None",
                "in_convex_hull rejects the support of a feasible dominated hull",
            ),
        ],
    )
    def test_witness_checks_survive_optimize(self, patch, message):
        script = f"""
from simplegames import Coalition, cycle_game, minnorm
assert False, "python -O should have stripped this assert"
{patch}
minnorm.tightness_check(cycle_game(4))
"""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert f"CertificateError: {message}" in proc.stderr
