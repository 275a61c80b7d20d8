"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
comparison is exact unless the criterion itself states a tolerance.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

from simplegames import (
    alpha_graph,
    blocker,
    build_gadget,
    complete_order,
    compute_alpha_exact,
    csg_payoff,
    cycle_game,
    cycle_graph,
    decide_alpha_at_most,
    graphic_game,
    maximal_losing,
    make_graph,
    min_norm_point,
    mwis_bipartite,
    mwis_exact,
    random_game,
    strengthened_bound,
    suffix_sizes,
    tightness_check,
)
from simplegames.complete import greedy_losing_bound, sized_weighted_game
from simplegames.graphs import random_bipartite_graph, random_graph
from simplegames.lp import GE, solve_lp

from lp_reference import make_lp

TOL = F(1, 10**6)


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- shared corpora --------------------------------------------------------


def corpus_games_200():
    games = []
    for i in range(200):
        n = 3 + i % 10  # 3..12
        target = 3 + (i * 7) % (2 * n)
        games.append((i, random_game(n, i, target)))
    return games


@lru_cache(maxsize=None)
def minnorm_results():
    """(game, alpha, point, certificate, strengthened) per corpus entry."""
    out = []
    for i, g in corpus_games_200():
        alpha = compute_alpha_exact(g).alpha
        pt, cert = min_norm_point(g, tolerance=1e-6)
        bound = strengthened_bound(g, pt)
        out.append((g, alpha, pt, cert, bound))
    return out


def test_criterion_01_example_exactness():
    checked = []
    for n in (4, 6, 8, 10, 12):
        alpha = compute_alpha_exact(cycle_game(n)).alpha
        assert alpha == F(n, 4), (n, alpha)
        checked.append(f"alpha(C{n})={alpha}")
    report(1, True, "cycle games match n/4 exactly: " + ", ".join(checked))


def test_criterion_02_conjecture_and_strengthening():
    worst = F(0)
    for g, alpha, _, _, bound in minnorm_results():
        quarter = F(g.n, 4)
        assert alpha <= quarter, (g, alpha)
        assert bound <= quarter + TOL, (g, bound)
        worst = max(worst, alpha / quarter)
    report(
        2,
        True,
        f"200 games: alpha <= n/4 exactly and strengthened bound <= n/4 + 1e-6 "
        f"(max alpha/(n/4) = {worst})",
    )


def test_criterion_03_min_norm_certificates():
    worst_gap = F(0)
    for _, _, _, cert, _ in minnorm_results():
        assert cert.certified
        assert cert.gap <= TOL
        worst_gap = max(worst_gap, cert.gap)
    worst_dev = 0.0
    for n in (4, 6, 8, 10, 12):
        pt, cert = min_norm_point(cycle_game(n), tolerance=1e-6)
        assert cert.certified and cert.gap <= TOL
        dev = max(abs(float(v) - 0.5) for v in pt)
        assert dev <= 1e-4, (n, dev)
        worst_dev = max(worst_dev, dev)
    report(
        3,
        True,
        f"certificate gaps <= 1e-6 on the corpus (max {float(worst_gap):.2e}); "
        f"cycle points within {worst_dev:.2e} of the half vector",
    )


def test_criterion_04_tightness_biconditional():
    games = [(f"rand{i}", random_game(3 + i % 8, 400 + i, 3 + i % 6)) for i in range(100)]
    games += [(f"C{n}", cycle_game(n)) for n in (4, 6, 8, 10)]
    n_tight = 0
    for name, g in games:
        tight, _ = tightness_check(g)
        attains = compute_alpha_exact(g).alpha == F(g.n, 4)
        assert tight == attains, (name, tight, attains)
        n_tight += tight
    report(
        4,
        True,
        f"tightness_check == (alpha = n/4) on {len(games)} games "
        f"({n_tight} tight, {len(games) - n_tight} not)",
    )


def test_criterion_05_blocker_identity():
    for i in range(100):
        g = random_game(3 + i % 10, 700 + i, 3 + i % 7)
        complements = sorted(c.complement(g.n).players() for c in blocker(g))
        losing = sorted(l.players() for l in maximal_losing(g))
        assert complements == losing, g
    report(5, True, "complements of minimal covers = maximal losing sets on 100 games")


def test_criterion_06_gadget_identity():
    rng = random.Random(606)
    graphs = [("C5", cycle_graph(5))]
    for i in range(30):
        n = 2 + i % 9  # up to n=10
        m = rng.randint(0, n * (n - 1) // 2)
        graphs.append((f"G({n},{m})#{i}", random_graph(n, m, 600 + i)))
    for name, g in graphs:
        k = mwis_exact(g, [1] * g.n).weight
        got = alpha_graph(build_gadget(g)).alpha
        assert got == F(k, 2), (name, got, k)
    report(6, True, f"alpha(gadget) = independence number / 2 on {len(graphs)} graphs")


def test_criterion_07_bipartite_oracles():
    rng = random.Random(707)
    for i in range(50):
        n = 3 + i % 10  # up to n=12
        g = random_bipartite_graph(n, rng.randint(1, 2 * n), 700 + i)
        if not g.edges:
            g = make_graph(n, [(1, 2)])
        assert alpha_graph(g).alpha == compute_alpha_exact(graphic_game(g)).alpha, g
    for i in range(100):
        n = 3 + i % 9
        g = random_bipartite_graph(n, rng.randint(1, 2 * n), 7000 + i)
        w = [F(rng.randint(0, 9), 1 + rng.randint(0, 5)) for _ in range(n)]
        assert mwis_bipartite(g, w).weight == mwis_exact(g, w).weight, (g, w)
    report(
        7,
        True,
        "alpha via flow separation = full enumeration on 50 bipartite graphs; "
        "flow MWIS = branch-and-bound MWIS on 100 weighted instances",
    )


def decision_corpus():
    rng = random.Random(808)
    graphs = []
    # unions of disjoint edges land in the kP2 branch for small thresholds
    for k in (2, 3, 4, 5):
        edges = [(2 * i + 1, 2 * i + 2) for i in range(k)]
        graphs.append(make_graph(2 * k, edges))
    graphs += [cycle_graph(n) for n in (4, 5, 6, 7, 8, 9, 10)]
    while len(graphs) < 50:
        n = 3 + rng.randint(0, 7)
        m = rng.randint(1, n * (n - 1) // 2)
        graphs.append(random_graph(n, m, 800 + len(graphs)))
    return graphs


def test_criterion_08_decision_soundness():
    branches = {"kp2": 0, "enumeration": 0}
    for g in decision_corpus():
        alpha = compute_alpha_exact(graphic_game(g)).alpha
        for a in (F(1, 2), F(1), F(3, 2), F(2)):
            decision = decide_alpha_at_most(g, a)
            assert decision.answer == (alpha <= a), (g, a, alpha, decision)
            branches[decision.branch] += 1
    assert branches["kp2"] >= 5 and branches["enumeration"] >= 5, branches
    report(
        8,
        True,
        f"decide agrees with exact alpha on 50 graphs x 4 thresholds "
        f"(kP2 branch {branches['kp2']}x, enumeration branch {branches['enumeration']}x)",
    )


def weighted_corpus():
    sizes = [5] * 13 + [9] * 13 + [12] * 12 + [16] * 12  # 50 games, n <= 16
    return [(n, seed, sized_weighted_game(n, 900 + seed)) for seed, n in enumerate(sizes)]


@lru_cache(maxsize=None)
def weighted_reports():
    out = []
    for n, seed, wvg in weighted_corpus():
        cg = complete_order(wvg.game)
        assert cg is not None, "weighted voting games are complete"
        out.append((n, wvg, cg, csg_payoff(cg)))
    return out


def test_criterion_09_complete_game_bound():
    checked = 0
    for n, wvg, cg, rep in weighted_reports():
        assert rep.winning_floor_ok, (n, wvg.weights, wvg.quota)
        assert rep.losing_prefix_ok and rep.losing_cap_ok, (n, wvg.weights)
        assert rep.ratio_within_bound, (n, wvg.weights, rep.ratio, rep.bound)
        alpha = compute_alpha_exact(wvg.game).alpha
        assert alpha <= rep.ratio, (n, alpha, rep.ratio)
        checked += 1
    report(
        9,
        True,
        f"{checked} weighted games: winning floor >= 1/sqrt(n), telescoping losing "
        f"bound holds, ratio <= sqrt(n) ln n, and exact alpha <= ratio",
    )


def test_criterion_10_greedy_lp_equivalence():
    for n, wvg, cg, rep in weighted_reports():
        k, s = suffix_sizes(cg)
        # the dual of max sum x_i/s_i, sum_{i<=j} x_i <= s_j - 1, x >= 0
        rows = [([0] * (j - 1) + [1] * (k - j + 1), GE, F(1, s[j - 1])) for j in range(1, k + 1)]
        sol = solve_lp(make_lp([si - 1 for si in s], rows))
        assert sol.status == "optimal"
        assert sol.objective == greedy_losing_bound(s), (n, s)
        assert sol.objective == rep.greedy_bound
    report(
        10,
        True,
        "prefix-constrained LP optimum equals the closed-form greedy value on the corpus",
    )
