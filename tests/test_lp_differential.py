"""Differential check of the integer-row simplex against the `Fraction` reference.

Both kernels take the same pivots, so `solve_lp` must return equal
`LPSolution`s (status, primal, dual and objective) with either one, and every
exact caller must return equal certificates.  The integer kernel reduces its
rows lazily; with every updated row reduced instead it must make the same
number of pivots and return the same rationals.
"""

import random
from fractions import Fraction as F

import pytest

import lp_reference
import test_lp
from lp_reference import make_lp
from simplegames import lp
from simplegames.alpha import alpha_of_payoff, compute_alpha_exact
from simplegames.games import cycle_game, random_game
from simplegames.graphs import (
    alpha_graph,
    build_gadget,
    decide_alpha_at_most,
    graphic_game,
    random_bipartite_graph,
    random_graph,
)
from simplegames.lp import EQ, GE, LE, solve_lp
from simplegames.minnorm import min_norm_point, tightness_check


def solve_reference(model, monkeypatch):
    with monkeypatch.context() as patch:
        lp_reference.route(patch)
        return solve_lp(model)


def draw(rng, kind):
    if kind == "int":
        return F(rng.randint(-4, 4))
    if kind == "rational":
        return F(rng.randint(-6, 6), rng.randint(1, 5))
    return F(round(rng.uniform(-3, 3), rng.randint(0, 3)))  # a float, converted exactly


# models whose objective is negated, as a maximization reaches the kernel
NEGATED = []


def drawn_sense(rng, objective, rows, **bounds):
    """min objective . x, or, on a drawn "max", min of its negation."""
    if rng.choice(("min", "max")) == "min":
        return make_lp(objective, rows, **bounds)
    NEGATED.append(make_lp([-v for v in objective], rows, **bounds))
    return NEGATED[-1]


def random_model(seed):
    """A seeded LP; the seed picks the data kind, the shape and the row mix."""
    rng = random.Random(seed)
    kind = ("int", "rational", "dyadic")[seed % 3]
    k = rng.randint(1, 6)
    m = rng.randint(1, 3 * k) if seed % 2 else rng.randint(1, k)  # tall or wide
    x0 = [F(rng.randint(0, 3)) for _ in range(k)]
    rows = []
    for _ in range(m):
        coeffs = [draw(rng, kind) if rng.random() < 0.7 else F(0) for _ in range(k)]
        lhs = sum(a * x for a, x in zip(coeffs, x0))
        rel = rng.choice((GE, GE, LE, EQ))
        slack = draw(rng, kind) if rng.random() < 0.8 else -abs(draw(rng, kind)) - 1
        rhs = lhs if rel == EQ else lhs - slack if rel == GE else lhs + slack
        rows.append((coeffs, rel, rhs))
    objective = [draw(rng, kind) for _ in range(k)]
    lower = [F(rng.randint(0, 1)) for _ in range(k)] if rng.random() < 0.3 else None
    upper = (
        [F(rng.randint(2, 5)) if rng.random() < 0.5 else None for _ in range(k)]
        if rng.random() < 0.4
        else None
    )
    return drawn_sense(rng, objective, rows, lower=lower, upper=upper)


def degenerate_model(seed):
    """Homogeneous cuts and one cap row: long runs of zero-ratio pivots."""
    rng = random.Random(seed)
    k = rng.randint(14, 18)
    rows = [([F(rng.choice((-1, 0, 1))) for _ in range(k)], GE, F(0)) for _ in range(k - 2)]
    rows.append(([F(1)] * k, LE, F(1)))
    objective = [F(rng.randint(-3, 3)) for _ in range(k)]
    return make_lp(objective, rows)


def redundant_model(seed):
    """Equalities repeated with multiples, so an artificial stays basic after phase 1."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    x0 = [F(rng.randint(0, 3)) for _ in range(k)]
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(k)]
        rhs = sum(a * x for a, x in zip(coeffs, x0))
        for scale in (1, F(rng.randint(1, 4), rng.randint(1, 3))):
            rows.append(([a * scale for a in coeffs], EQ, rhs * scale))
    objective = [F(rng.randint(0, 4)) for _ in range(k)]
    return drawn_sense(rng, objective, rows, upper=[F(5)] * k)


BEALE = make_lp(  # Beale's cycling example
    [F(-3, 4), 150, F(-1, 50), 6],
    [
        ([F(1, 4), -60, F(-1, 25), 9], LE, 0),
        ([F(1, 2), -90, F(-1, 50), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
    ],
)

FIXED = [
    make_lp([1], [([1], GE, 1), ([1], LE, 0)]),  # infeasible, tall
    make_lp([1, 1], [([1, 1], LE, -1)]),  # infeasible, negative rhs, wide
    make_lp([-1], [([1], GE, 1)]),  # unbounded, wide: max x as min -x
    make_lp([-1], [([1], GE, 1), ([1], GE, 2)]),  # unbounded, tall: transposed path is ambiguous
    BEALE,
]

MODELS = (
    [random_model(seed) for seed in range(120)]
    + [degenerate_model(seed) for seed in range(12)]
    + [redundant_model(seed) for seed in range(24)]
    + FIXED
)


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_solve_lp_matches_reference(index, monkeypatch):
    model = MODELS[index]
    assert solve_lp(model) == solve_reference(model, monkeypatch)


def core_rows(model):
    """Rows of the >= form that `solve_lp` hands to the kernel."""
    rows = sum(2 if r.relation == EQ else 1 for r in model.rows)
    rows += sum(1 for v in model.lower or () if v > 0)
    return rows + sum(1 for v in model.upper or () if v is not None)


class PivotSpy:
    """Counts the reference kernel's pivots: degenerate streaks inside the
    simplex loop, and drive-out pivots between the phases."""

    def __init__(self, monkeypatch):
        self.inside = False
        self.streak = 0
        self.longest_streak = 0
        self.drive_outs = 0
        self.negative_drive_outs = 0
        pivot, run = lp_reference._pivot, lp_reference._run_simplex

        def spy_pivot(rows, z, basis, r, col):
            if self.inside:
                self.streak = self.streak + 1 if rows[r][-1] == 0 else 0
                self.longest_streak = max(self.longest_streak, self.streak)
            else:
                self.drive_outs += 1
                self.negative_drive_outs += rows[r][col] < 0
            return pivot(rows, z, basis, r, col)

        def spy_run(*args):
            self.inside, self.streak = True, 0
            try:
                return run(*args)
            finally:
                self.inside = False

        monkeypatch.setattr(lp_reference, "_pivot", spy_pivot)
        monkeypatch.setattr(lp_reference, "_run_simplex", spy_run)


def test_models_cover_every_case(monkeypatch):
    spy = PivotSpy(monkeypatch)
    statuses, paths = set(), []
    kinds = {"negative rhs": False, "equality": False, "lower": False, "upper": False}
    with monkeypatch.context() as patch:
        transposed = lp_reference.route(patch)
        for model in MODELS:
            statuses.add(solve_lp(model).status)
            paths.append("tall" if core_rows(model) > model.num_vars else "wide")
            kinds["negative rhs"] |= any(r.rhs < 0 for r in model.rows)
            kinds["equality"] |= any(r.relation == EQ for r in model.rows)
            kinds["lower"] |= model.lower is not None and any(model.lower)
            kinds["upper"] |= model.upper is not None
    assert statuses == {"optimal", "infeasible", "unbounded"}
    # negated objectives, the kernel input of a maximization, reach an optimum and a ray
    assert {solve_reference(model, monkeypatch).status for model in NEGATED} >= {"optimal", "unbounded"}
    assert set(paths) == {"tall", "wide"}
    # every tall model, and only those, reaches the reference through the transposed dual
    assert 0 < len(transposed) == paths.count("tall")
    assert all(kinds.values()), kinds
    assert spy.longest_streak >= 12  # some model makes a long run of degenerate pivots
    assert spy.drive_outs > 0  # some model leaves an artificial basic after phase 1
    assert spy.negative_drive_outs > 0  # and drives it out on a negative entry


def test_no_basis_repeats(monkeypatch):
    # the lexicographic ratio test: within one simplex run every basis is new,
    # through long degenerate runs, Beale's cycling example and the cut LPs
    # of graphic-game gadgets
    runs, degenerate = [], [0]
    pivot, run = lp._pivot, lp._run_simplex

    def spy_pivot(rows, dens, basis, r, col):
        if runs and runs[-1] is not None:
            degenerate[0] += rows[r][-1] == 0
            pivot(rows, dens, basis, r, col)
            runs[-1].append(frozenset(basis))
        else:
            pivot(rows, dens, basis, r, col)

    def spy_run(rows, dens, basis, allowed):
        runs.append([frozenset(basis)])
        try:
            return run(rows, dens, basis, allowed)
        finally:
            runs.append(None)  # drive-out pivots fall between runs

    monkeypatch.setattr(lp, "_pivot", spy_pivot)
    monkeypatch.setattr(lp, "_run_simplex", spy_run)
    for model in [degenerate_model(seed) for seed in range(12)] + [BEALE]:
        solve_lp(model)
    for n, m in ((6, 7), (6, 11), (7, 9), (7, 15)):
        alpha_graph(build_gadget(random_graph(n, m, 3)))
    bases = [r for r in runs if r is not None]
    assert all(len(set(r)) == len(r) for r in bases)
    assert max(map(len, bases)) > 12 and degenerate[0] > 12


def test_exact_callers_match_reference(monkeypatch):
    games = [random_game(n, seed, n + seed % 4) for n in (4, 5, 6, 7) for seed in range(6)]
    graphs = [random_graph(6 + seed % 3, 9 + seed % 4, seed) for seed in range(12)]
    graphs += [random_bipartite_graph(8, 10, seed) for seed in range(12)]

    hulls = [cycle_game(4), cycle_game(6)] + games[:8]

    def answers():
        return (
            [compute_alpha_exact(g) for g in games],
            [min_norm_point(g) for g in games[::3]],
            [alpha_graph(g) for g in graphs],
            [decide_alpha_at_most(g, F(3, 2)) for g in graphs],
            [tightness_check(g) for g in hulls],
        )

    new = answers()
    with monkeypatch.context() as patch:
        transposed = lp_reference.route(patch)
        old = answers()
        # the patch reaches only alpha_graph's cold first round, not its warm
        # cut LP: hold each alpha to the enumerated LP on the reference kernel
        enumerated = [compute_alpha_exact(graphic_game(g)).alpha for g in graphs]
    assert new == old
    assert transposed  # the tall LPs reached the reference
    assert [cert.alpha for cert in new[2]] == enumerated
    assert all(alpha_of_payoff(graphic_game(g), cert.payoff) == cert.alpha for g, cert in zip(graphs, new[2]))
    # the decisions solve their threshold LP, through the transposed dual
    assert all(d.branch == "enumeration" for d in new[3])
    assert any(tight for tight, _ in new[4])  # some hull LPs are feasible


def lazy_and_reducing(run, monkeypatch):
    """`run()` on the lazy kernel and on one that gcd-reduces every updated
    row, each with its pivot count."""
    results = []
    pivot = lp._pivot
    for eliminate in (lp._eliminate, test_lp.reducing_eliminate):
        count = [0]

        def spy(*args, count=count):
            count[0] += 1
            pivot(*args)

        with monkeypatch.context() as patch:
            patch.setattr(lp, "_pivot", spy)
            patch.setattr(lp, "_eliminate", eliminate)
            out = run()
        results.append((out, count[0]))
    return results


def test_lazy_rows_match_reducing_kernel(monkeypatch):
    for model in MODELS:
        (lazy, lazy_pivots), (ref, ref_pivots) = lazy_and_reducing(lambda: solve_lp(model), monkeypatch)
        assert (lazy, lazy_pivots) == (ref, ref_pivots)


def test_lazy_rows_match_reducing_kernel_warm(monkeypatch):
    def warm(seed):
        a, den, c, cden = test_lp.TestTableau.tall_model(seed)
        tall = lp.TallLP(a[:1], den, c, cden)
        pairs = []
        for row in a[1:]:
            tall.add_row(row)
            status, (x, xden, y, yden) = tall.solve()
            pairs.append((status, [F(v, xden) for v in x], [F(v, yden) for v in y]))
        return pairs

    pivots = 0
    for seed in range(40):
        (lazy, lazy_pivots), (ref, ref_pivots) = lazy_and_reducing(lambda: warm(seed), monkeypatch)
        assert (lazy, lazy_pivots) == (ref, ref_pivots)
        pivots += lazy_pivots
    assert pivots > 100
