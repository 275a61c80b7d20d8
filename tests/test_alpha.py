"""Threshold value: exact certificates, payoff ratios, conjecture corpus."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from simplegames import (
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
from simplegames.alpha import AlphaCertificate, ThresholdLP, certify_alpha
from simplegames.complete import random_weighted_voting_game
from simplegames.errors import CertificateError
from simplegames.graphs import alpha_graph, build_gadget, random_graph
from simplegames.minnorm import is_feasible
from test_lp import run_optimized

TESTS = Path(__file__).resolve().parent
MAJ3 = new_game(3, [[1, 2], [1, 3], [2, 3]])
DICT3 = new_game(3, [[1]])


def coalition_value(payoff, coalition):
    return sum(payoff[i - 1] for i in coalition.players())


def reference_certify_alpha(payoff, alpha, winning, losing):
    """`certify_alpha` as it was written over Fraction sums, kept as the
    reference for the integer check."""
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

    @pytest.mark.parametrize(
        "payoff, alpha, message",
        [
            ("(0, 0, 0, 0)", "0", "the payoff gives some minimal winning coalition less than 1"),
            ("(1, 1, 1, 1)", "1", "the payoff gives some losing coalition more than alpha"),
            ("(1, 1, 1, 1)", "3", "the optimum must be attained by some losing coalition"),
        ],
    )
    def test_certificate_checks_survive_optimize(self, payoff, alpha, message):
        # a solver returning a wrong optimum must be caught even under python -O
        script = f"""
from fractions import Fraction as F
from simplegames import alpha, cycle_game, lp
assert False, "python -O should have stripped this assert"
payoff = tuple(F(v) for v in {payoff})
alpha.solve_lp = lambda model: lp.LPSolution("optimal", payoff + (F({alpha}),), (), F({alpha}))
alpha.compute_alpha_exact(cycle_game(4))
"""
        proc = run_optimized(script)
        assert proc.returncode == 1
        assert f"CertificateError: {message}" in proc.stderr


def _outcome(check, *args):
    try:
        return "certified", repr(check(*args))
    except AssertionError as exc:
        return "refused", str(exc)


def _mutant(cert):
    """The optimal payoff with one entry raised by 1/den, den the lcm of its
    denominators, on a player of a tight losing coalition; None when every
    tight losing coalition is empty."""
    members = [c.players() for c in cert.tight_losing if c.mask]
    if not members:
        return None
    den = math.lcm(*(v.denominator for v in cert.payoff))
    i = members[0][0] - 1
    return cert.payoff[:i] + (cert.payoff[i] + F(1, den),) + cert.payoff[i + 1 :]


class TestIntegerCertificate:
    """The integer `certify_alpha` against its Fraction reference."""

    def test_matches_fraction_reference(self):
        rng = random.Random(12)
        outcomes = set()
        for g in certificate_games():
            losing = maximal_losing(g)
            payoff, value = ThresholdLP(g.n, g.minimal_winning, losing).solve()
            cases = [(payoff, value)]
            p = _random_feasible_payoff(rng, g)
            top = max(coalition_value(p, l) for l in losing)
            # attained, short of the worst losing value, and short of 1 on winning
            cases += [(tuple(p), top), (tuple(p), top - F(1, 7)), (tuple(v / 2 for v in p), top)]
            for case in cases:
                args = (*case, g.minimal_winning, losing)
                got = _outcome(certify_alpha, *args)
                assert got == _outcome(reference_certify_alpha, *args)
                outcomes.add(got[0] if got[0] == "certified" else got[1])
        assert len(outcomes) == 3  # certified, and two kinds of refusal

    def test_raised_entry_is_refused(self):
        mutants = 0
        for g in certificate_games():
            cert = compute_alpha_exact(g)
            payoff = _mutant(cert)
            if payoff is None:
                continue
            mutants += 1
            with pytest.raises(CertificateError, match="losing coalition more than alpha"):
                certify_alpha(payoff, cert.alpha, g.minimal_winning, maximal_losing(g))
        assert mutants > 30

    def test_raised_entry_is_refused_optimized(self):
        script = """
import test_alpha
from simplegames import compute_alpha_exact, maximal_losing
from simplegames.alpha import certify_alpha
from simplegames.errors import CertificateError
assert False, "python -O should have stripped this assert"
mutants = refused = 0
for g in test_alpha.certificate_games():
    cert = compute_alpha_exact(g)
    payoff = test_alpha._mutant(cert)
    if payoff is None:
        continue
    mutants += 1
    try:
        certify_alpha(payoff, cert.alpha, g.minimal_winning, maximal_losing(g))
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
        for module, name in [(alpha, "certify_alpha"), (alpha, "alpha_of_payoff"),
                             (graphs, "certify_alpha"), (graphs, "mwis_exact"),
                             (minnorm, "is_feasible")]:
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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, "1/0"])
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
