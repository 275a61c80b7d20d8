"""Exact LP kernel: status handling, duality, anti-cycling, float cross-check."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

import lp_reference
from simplegames import compute_alpha_exact, lp
from lp_reference import make_lp
from test_games import masks
from simplegames.lp import EQ, GE, LE, LinearProgram, LPRow, in_convex_hull, solve_lp

SRC = Path(__file__).resolve().parent.parent / "src"


def run_optimized(script):
    """Run `script` under python -O with the package importable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "nan", "1/0", "abc", None, 1j, [1]])
def test_frac_refuses_what_is_not_a_finite_rational(bad):
    with pytest.raises(ValueError, match="is not a finite rational"):
        lp.frac(bad)


@pytest.mark.parametrize(
    "objective, row",
    [
        ((1, 1), LPRow((0.5, 1), GE, 1)),  # a float coefficient
        ((1, 1), LPRow((1, 1), GE, 1.0)),  # a float right-hand side
        ((1.5, 1), LPRow((1, 1), GE, 1)),  # a float objective entry
        ((1, 1), LPRow((1, "1"), GE, 1)),  # a string
    ],
)
def test_lp_entries_must_be_ints_or_fractions(objective, row):
    with pytest.raises(ValueError, match="LP entries must be ints or Fractions"):
        solve_lp(LinearProgram(2, objective, (row,)))


@pytest.mark.parametrize("bound", ["1", None])
def test_lower_bounds_must_be_ints_or_fractions(bound):
    # checked before the bound is compared with 0, as for `upper` and the rows
    with pytest.raises(ValueError, match="LP entries must be ints or Fractions"):
        LinearProgram(1, (1,), (LPRow((1,), GE, 0),), lower=(bound,))


def test_frac_keeps_exact_values():
    assert [lp.frac(v) for v in (F(1, 3), 2, 0.5, "3/4")] == [F(1, 3), F(2), F(1, 2), F(3, 4)]


def test_min_x_geq_3():
    sol = solve_lp(make_lp([1], [([1], GE, 3)]))
    assert sol.status == "optimal"
    assert sol.primal == (F(3),)
    assert sol.objective == 3
    assert sol.dual == (F(1),)  # shadow price of the binding row


def test_infeasible():
    sol = solve_lp(make_lp([1], [([1], GE, 1), ([1], LE, 0)]))
    assert sol.status == "infeasible"
    assert sol.primal is None


def test_cycle4_threshold_lp():
    # payoffs p1..p4 and threshold a; edge constraints and two losing rows
    rows = [
        ([1, 1, 0, 0, 0], GE, 1),
        ([0, 1, 1, 0, 0], GE, 1),
        ([0, 0, 1, 1, 0], GE, 1),
        ([1, 0, 0, 1, 0], GE, 1),
        ([-1, 0, -1, 0, 1], GE, 0),
        ([0, -1, 0, -1, 1], GE, 0),
    ]
    sol = solve_lp(make_lp([0, 0, 0, 0, 1], rows))
    assert sol.status == "optimal"
    assert sol.objective == 1


def test_equality_rows_and_max_sense():
    # min x + 2y on the segment x + y = 2, x <= 1
    sol = solve_lp(make_lp([1, 2], [([1, 1], EQ, 2), ([1, 0], LE, 1)]))
    assert sol.status == "optimal"
    assert sol.objective == 3
    assert sol.primal == (F(1), F(1))
    # max x + y on the same segment, as its dual: min 2u + v over a row per
    # column, u + v >= 1 and u >= 1, which bounds the equality's free dual u
    sol = solve_lp(make_lp([2, 1], [([1, 1], GE, 1), ([1, 0], GE, 1)]))
    assert sol.status == "optimal"
    assert sol.objective == 2


@pytest.mark.parametrize("model", [make_lp([1, -1], [([1, 1], GE, 1)]), make_lp([-1], [])])
def test_negative_cost_is_refused(model):
    with pytest.raises(ValueError, match="costs must be nonnegative"):
        solve_lp(model)
    with pytest.raises(ValueError, match="costs must be nonnegative"):
        lp.TallLP([[1] * model.num_vars + [1]], 1, list(model.objective), 1)


def test_upper_bounds_materialize():
    # both bound rows bind at the optimum
    sol = solve_lp(make_lp([1, 2], [([1, 1], GE, F(7, 2))], upper=[2, F(3, 2)]))
    assert sol.status == "optimal"
    assert sol.objective == 5
    assert sol.primal == (F(2), F(3, 2))
    assert len(sol.dual) == 1  # bound rows are internal


def test_lower_bounds():
    sol = solve_lp(make_lp([1, 1], [([1, 1], LE, 10)], lower=[2, F(1, 2)]))
    assert sol.status == "optimal"
    assert sol.primal == (F(2), F(1, 2))


def test_beale_degenerate_instance_terminates():
    # the classic cycling example for naive pivoting, max 3/4 x1 - 150 x2 +
    # 1/50 x3 - 6 x4 over three <= rows, whose optimum is 1/20, as its dual
    # min u3 over a row per column of the maximum
    rows = [
        ([F(1, 4), F(1, 2), 0], GE, F(3, 4)),
        ([-60, -90, 0], GE, -150),
        ([F(-1, 25), F(-1, 50), 1], GE, F(1, 50)),
        ([9, 3, 0], GE, -6),
    ]
    sol = solve_lp(make_lp([0, 0, 1], rows))
    assert sol.status == "optimal"
    assert sol.objective == F(1, 20)


def test_duals_certify_strong_duality():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 5)
        m = rng.randint(1, 8)
        rows = []
        for _ in range(m):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(k)]
            rows.append((coeffs, rng.choice([GE, LE]), F(rng.randint(-3, 6))))
        c = [F(rng.randint(0, 5)) for _ in range(k)]
        sol = solve_lp(make_lp(c, rows))
        if sol.status != "optimal":
            continue
        # dual objective equals primal objective over the given rows
        assert sum(d * r[2] for d, r in zip(sol.dual, rows)) == sol.objective
        for d, (_, rel, _) in zip(sol.dual, rows):
            if rel == GE:
                assert d >= 0
            elif rel == LE:
                assert d <= 0


class TestCertificate:
    """The in-solver check on hand-made solutions of min x1 + x2, x1 + 2 x2 >= 2.

    The row is given as (2, 4 | 4) over 2 and the objective as (3, 3) over 3;
    the optimum is x = (0, 1) with dual 1/2 and objective 1.
    """

    ROW = ([[2, 4, 4]], 2, [3, 3], 3)
    # min x1 + x2, x1 - x2 >= 1, x1 >= -5: the optimum over x >= 0 is 1
    SIGNLESS = ([[1, -1, 1], [1, 0, -5]], 1, [1, 1], 1)

    def test_optimal_pair_passes(self):
        lp._certify(*self.ROW, [0, 1], 1, [1], 2)

    @pytest.mark.parametrize(
        "rows, x, xden, y, yden, message",
        [
            (ROW, [0, 1], 2, [1], 2, "simplex returned a primal-infeasible point"),
            # every sum of the check holds for these two, objective 3 and -5
            (ROW, [-1, 2], 1, [1], 2, "simplex returned a negative primal"),
            (SIGNLESS, [-2, -3], 1, [0, 1], 1, "simplex returned a negative primal"),
            (ROW, [0, 1], 1, [-1], 2, "simplex returned a negative dual"),
            (ROW, [0, 1], 1, [3], 2, "simplex returned a dual-infeasible vector"),
            (ROW, [2, 0], 1, [1], 2, "strong duality failed"),  # x feasible, not optimal
            (ROW, [0, 1], 1, [1], 4, "strong duality failed"),  # y feasible, not optimal
            (ROW, [0, 1, 0], 1, [1], 2, "simplex returned a solution of the wrong shape"),
            (ROW, [0, 1], 1, [], 2, "simplex returned a solution of the wrong shape"),
            (ROW, [0, 1], 1, [1, 0], 2, "simplex returned a solution of the wrong shape"),
        ],
    )
    def test_each_failure_raises(self, rows, x, xden, y, yden, message):
        with pytest.raises(AssertionError, match=message):
            lp._certify(*rows, x, xden, y, yden)

    @staticmethod
    def transposed_returns(monkeypatch, wrong):
        """Make `solve_lp`'s `TallLP` return `wrong` from its solve."""
        monkeypatch.setattr(lp, "TallLP", lambda a, den, c, cden: SimpleNamespace(solve=lambda: wrong))

    def test_transposed_negative_primal_is_caught(self, monkeypatch):
        # every LP goes through its dual, whose reduced costs give x, so only
        # the certificate's sign check keeps x >= 0
        self.transposed_returns(monkeypatch, ("optimal", ([-2, -3], 1, [0, 1, 0], 1)))
        model = make_lp([1, 1], [([1, -1], GE, 1), ([1, 0], GE, -5), ([1, 1], GE, -10)])
        with pytest.raises(AssertionError, match="simplex returned a negative primal"):
            solve_lp(model)

    def test_transposed_solve_is_certified_on_the_input_rows(self, monkeypatch):
        # min x1/2 + x2/3 goes through its dual; a transposition that
        # dropped the objective's denominator would return this pair
        self.transposed_returns(monkeypatch, ("optimal", ([1, 1], 1, [3, 2, 0], 1)))
        model = make_lp([F(1, 2), F(1, 3)], [([1, 0], GE, 1), ([0, 1], GE, 1), ([1, 1], GE, 1)])
        with pytest.raises(AssertionError, match="simplex returned a dual-infeasible vector"):
            solve_lp(model)

    def test_extended_system_dual_mismatch_raises(self, monkeypatch):
        # with the certificate off, a dual that disagrees with the objective
        # on the input rows is still caught
        cases = [
            (make_lp([1, 1], [([1, 2], GE, 2)]), ([0, 1], 1, [3], 2)),
            # rows over den 2: a check that dropped den would take y = 1 for the dual of value 1
            (make_lp([1, 1], [([1, 2], GE, F(1, 2))]), ([0, 1], 1, [1], 1)),
            # an equality row is two core rows: a check that added both duals
            # instead of folding them with their signs would pass this pair
            (make_lp([1, 1], [([1, 1], EQ, 1)]), ([1, 0], 1, [0, 1], 1)),
            # a lower-bound row: the user row alone balances, the bound row's dual does not
            (make_lp([1, 1], [([1, 2], GE, 2)], lower=[F(1, 3), 0]), ([1, 1], 1, [1, 3], 1)),
        ]
        monkeypatch.setattr(lp, "_certify", lambda *args: None)
        for model, wrong in cases:
            self.transposed_returns(monkeypatch, ("optimal", wrong))
            with pytest.raises(AssertionError, match="dual objective mismatch on the extended system"):
                solve_lp(model)

    def test_certificate_survives_optimize(self):
        proc = run_optimized(
            f"""
from simplegames import lp
assert False, "python -O should have stripped this assert"
lp._certify(*{self.ROW!r}, [0, 1], 1, [3], 2)
"""
        )
        assert proc.returncode == 1
        assert "CertificateError: simplex returned a dual-infeasible vector" in proc.stderr


class TestFloatCrossCheck:
    """Independent floating-point re-solve of random feasible bounded models."""

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_scipy(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        m = rng.randint(1, 10)
        x0 = [F(rng.randint(0, 5)) for _ in range(k)]  # known feasible point
        rows = []
        a_ub, b_ub = [], []
        for _ in range(m):
            coeffs = [F(rng.randint(-5, 5)) for _ in range(k)]
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            if rng.random() < 0.5:
                rows.append((coeffs, GE, lhs - rng.randint(0, 4)))
                a_ub.append([-float(c) for c in coeffs])
                b_ub.append(-float(rows[-1][2]))
            else:
                rows.append((coeffs, LE, lhs + rng.randint(0, 4)))
                a_ub.append([float(c) for c in coeffs])
                b_ub.append(float(rows[-1][2]))
        c = [F(rng.randint(0, 6)) for _ in range(k)]  # c >= 0 keeps min bounded
        sol = solve_lp(make_lp(c, rows))
        assert sol.status == "optimal"
        ref = scipy_opt.linprog(
            [float(v) for v in c], A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs"
        )
        assert ref.status == 0
        assert abs(float(sol.objective) - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))


class TestConvexHull:
    def test_two_generator_average(self):
        lam = in_convex_hull([F(1, 2)] * 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        assert lam == (F(1, 2), F(1, 2))

    def test_cycle_edges_contain_half_vector(self):
        edges = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
        lam = in_convex_hull([F(1, 2)] * 4, edges)
        assert lam is not None
        assert sum(lam) == 1 and all(v >= 0 for v in lam)
        for t in range(4):
            assert sum(l * g[t] for l, g in zip(lam, edges)) == F(1, 2)

    def test_not_in_hull(self):
        assert in_convex_hull([1, 0], [(0, 1)]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_convex_hull([1, 0], [(0, 1, 1)])

    def test_point_among_generators(self):
        lam = in_convex_hull([F(1, 3), F(2, 3)], [(1, 0), (0, 1)])
        assert lam == (F(1, 3), F(2, 3))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ("(F(3, 2), F(-1, 2))", "are not a probability vector"),
            ("(F(1, 4), F(3, 4))", "do not reproduce the point"),
        ],
    )
    def test_certificate_checks_survive_optimize(self, weights, message):
        # a solver returning wrong weights must be caught even under python -O
        script = f"""
from fractions import Fraction as F
from simplegames import lp
assert False, "python -O should have stripped this assert"
lp.solve_lp = lambda model: lp.LPSolution("optimal", {weights}, (), F(0))
lp.in_convex_hull([F(1, 2), F(1, 2)], [(1, 0), (0, 1)])
"""
        proc = run_optimized(script)
        assert proc.returncode == 1
        assert f"CertificateError: convex-hull weights {message}" in proc.stderr


class TestTableau:
    """`_Tableau` kept warm: rows of an LP added one at a time, as dual columns
    when the LP opens with as many rows as columns or more, and as rows of
    its own tableau when it opens with fewer.

    Each model is min c.x, a x >= b, x >= 0 with c >= 0, so its transposed
    dual is feasible at 0, and feasible at a known point, so every prefix of
    its rows has an optimum.  After every added row the warm solve must reach
    the reference kernel's cold optimum over the same rows, and its pair must
    pass `_certify` on them.
    """

    @staticmethod
    def tall_model(seed):
        rng = random.Random(seed)
        if seed % 2:  # rational data: the added columns need rows rescaled
            draw = lambda lo, hi: F(rng.randint(lo, hi), rng.randint(1, 4))
        else:
            draw = lambda lo, hi: F(rng.randint(lo, hi))
        k = rng.randint(2, 5)
        x0 = [F(rng.randint(0, 3)) for _ in range(k)]
        rows = []
        for _ in range(rng.randint(k + 1, 3 * k + 2)):
            coeffs = [draw(-4, 4) if rng.random() < 0.7 else F(0) for _ in range(k)]
            slack = draw(0, 3) if rng.random() < 0.6 else 0
            rows.append(coeffs + [sum(v * x for v, x in zip(coeffs, x0)) - slack])
        cost = [draw(0, 4) for _ in range(k)]
        den = math.lcm(*(v.denominator for row in rows for v in row))
        cden = math.lcm(*(v.denominator for v in cost))
        return [lp._numerators(row, den) for row in rows], den, lp._numerators(cost, cden), cden

    @staticmethod
    def warm_steps(a, den, c, cden, start):
        """Solve a[:start] in a `TallLP`, then add each later row; yield the
        LP's tableau, the rows so far and the pair after every solve."""
        tall = lp.TallLP(a[:start], den, c, cden)
        for r in range(start, len(a) + 1):
            if r > start:
                tall.add_row(a[r - 1])
            status, sol = tall.solve()
            assert status == "optimal"
            yield tall._tableau, a[:r], sol

    def check_steps(self, a, den, c, cden, start):
        steps = 0
        for _, rows, (x, xden, y, yden) in self.warm_steps(a, den, c, cden, start):
            lp._certify(rows, den, c, cden, x, xden, y, yden)
            status, (rx, rxden, _, _) = lp_reference.core_solve(rows, den, c, cden)
            assert status == "optimal"
            objective = lambda v, vden: F(sum(cj * vj for cj, vj in zip(c, v)), cden * vden)
            assert objective(x, xden) == objective(rx, rxden)
            steps += 1
        return steps

    @pytest.mark.parametrize("seed", range(40))
    def test_added_rows_match_cold_solves(self, seed):
        a, den, c, cden = self.tall_model(seed)
        assert self.check_steps(a, den, c, cden, start=1 + seed % 3) == len(a) - seed % 3

    def test_rational_columns_rescale_rows(self):
        rescaled = []
        for seed in range(1, 40, 2):
            a, den, c, cden = self.tall_model(seed)
            # from k rows on the LP is not wide, so each later row is a dual column
            steps = self.warm_steps(a, den, c, cden, start=len(c))
            tableau, _, _ = next(steps)
            add = tableau.add_column

            def spy(col, cost, tableau=tableau, add=add):
                before = list(tableau.dens)
                add(col, cost)
                rescaled.append(tableau.dens != before)

            tableau.add_column = spy
            for _ in steps:
                pass
        assert any(rescaled) and not all(rescaled)

    @staticmethod
    def on_dual_tableau(a, den, c, cden):
        """A `TallLP` that keeps the transposed dual's tableau, as one that opens tall does."""
        tall = lp.TallLP.__new__(lp.TallLP)
        tall.den, tall._slot, tall._tableau = den, None, lp._Tableau(*lp._transpose(a, den, c, cden))
        return tall

    def test_own_tableau_makes_the_dual_pivots(self, monkeypatch):
        # an LP that opens wide pivots on its own tableau; after every added
        # row it must make the pivots of the dual's tableau and reach its pair
        counts = []
        pivot = lp._pivot

        def spy_pivot(*args):
            counts[-1] += 1
            pivot(*args)

        monkeypatch.setattr(lp, "_pivot", spy_pivot)
        for seed in range(40):
            a, den, c, cden = self.tall_model(seed)
            if seed % 4 == 0:  # every cost 0, as in the hull LPs: every ratio ties
                c = [0] * len(c)
            start = 1 + seed % (len(c) - 1)
            steps = []
            for tall in (lp.TallLP(a[:start], den, c, cden), self.on_dual_tableau(a[:start], den, c, cden)):
                assert (tall._slot is None) == bool(steps)  # its own tableau first, then the dual's
                pairs = []
                for r in range(start, len(a) + 1):
                    if r > start:
                        tall.add_row(a[r - 1])
                    counts.append(0)
                    status, (x, xden, y, yden) = tall.solve()
                    pairs.append((counts[-1], [F(v, xden) for v in x], [F(v, yden) for v in y]))
                steps.append(pairs)
            assert steps[0] == steps[1], seed
        assert sum(counts) > 100

    def test_tableau_is_the_smaller_one(self, monkeypatch):
        # cycle_game(28) has 2627 maximal losing coalitions: the losing hull
        # LP has 30 rows over 2627 columns, whose dual's tableau would hold
        # 2627 rows of 2658 entries; every tableau has at most as many rows
        # as structural columns
        from simplegames.games import cycle_game
        from simplegames.minnorm import tightness_check

        shapes = []
        init = lp._Tableau.__init__

        def spy_init(self, a, den, c, cden):
            shapes.append((len(a), len(c)))
            init(self, a, den, c, cden)

        monkeypatch.setattr(lp._Tableau, "__init__", spy_init)
        tight, _ = tightness_check(cycle_game(28))
        assert tight
        assert (30, 2627) in shapes
        assert all(rows <= cols for rows, cols in shapes)

    def test_slack_start_skips_phase_one(self, monkeypatch):
        # a TallLP's dual and the transposed dual of a threshold LP have every
        # right-hand side <= 0: the tableau starts at its slack basis, so
        # construction makes no pivot.  The threshold LPs are the full ones,
        # one column per player, which are all tall and kept by the LP
        from simplegames.alpha import ThresholdLP
        from simplegames.games import maximal_losing, random_game

        pivots = {"construction": 0, "solve": 0}
        building = [False]
        transposed = []
        pivot, init, transpose = lp._pivot, lp._Tableau.__init__, lp._transpose

        def spy_pivot(*args):
            pivots["construction" if building[0] else "solve"] += 1
            pivot(*args)

        def spy_init(self, *args):
            building[0] = True
            try:
                init(self, *args)
            finally:
                building[0] = False

        monkeypatch.setattr(lp, "_pivot", spy_pivot)
        monkeypatch.setattr(lp._Tableau, "__init__", spy_init)
        for seed in range(12):
            a, den, c, cden = self.tall_model(seed)
            assert self.check_steps(a, den, c, cden, start=1) == len(a)

        def spy_transpose(*args):
            transposed.append(args)
            return transpose(*args)

        monkeypatch.setattr(lp, "_transpose", spy_transpose)
        for seed in range(6):
            game = random_game(7, seed, 5)
            ThresholdLP(7, masks(game.minimal_winning), masks(maximal_losing(game))).solve()
        assert len(transposed) == 6  # each threshold LP went through its dual
        assert pivots["construction"] == 0 and pivots["solve"] > 0

    @staticmethod
    def warm_against_cold(n, winning, losing, monkeypatch):
        """Add `losing` to one `ThresholdLP` on `winning` a row at a time; after
        each row its threshold must equal a cold solve of the same rows on the
        reference kernel.  Returns the last threshold."""
        from simplegames.alpha import ThresholdLP

        warm = ThresholdLP(n, winning)
        for r in range(len(losing) + 1):
            if r:
                warm.add_losing(losing[r - 1])
            with monkeypatch.context() as patch:
                lp_reference.route(patch)
                cold = solve_lp(lp_reference.threshold_program(ThresholdLP(n, winning, losing[:r]))).objective
            nums, den = warm.solve()
            assert F(nums[-1], den) == cold
        return cold

    def test_isolated_vertex(self, monkeypatch):
        # vertex 6 is in no edge, so its dual row starts all-zero; every
        # maximal independent set, added one at a time, must give the cold optimum
        from simplegames.graphs import alpha_graph, enumerate_mis, graphic_game, make_graph

        g = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        edges = [1 << (u - 1) | 1 << (v - 1) for u, v in g.edges]
        assert self.warm_against_cold(g.n, edges, masks(enumerate_mis(g)), monkeypatch) == F(1)
        assert alpha_graph(g).alpha == compute_alpha_exact(graphic_game(g)).alpha == F(1)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_maximal_losing_one_at_a_time(self, n, monkeypatch):
        # from the minimal winning rows alone, each maximal losing coalition
        # added warm must give the cold optimum, and all of them give alpha;
        # antichains of 2 or 3 draws, since larger targets drift to the
        # all-singletons game, whose one maximal losing coalition is empty
        from simplegames.games import maximal_losing, random_game

        several = 0
        for seed in range(3):
            for target in (2, 3):
                game = random_game(n, seed, target)
                losing = masks(maximal_losing(game))
                several += len(losing) > 1
                last = self.warm_against_cold(n, masks(game.minimal_winning), losing, monkeypatch)
                assert last == compute_alpha_exact(game).alpha
        assert several > 0

    # a cut loop that opens tall adds its cuts as dual columns, one that
    # opens wide (a cycle: one row of class counts over two columns) as rows
    MUTANT = """
def drop_reduced_cost(add_column):
    # the mutant inserts the column but leaves its reduced cost at 0
    def mutated(self, col, cost):
        add_column(self, col, cost)
        self.rows[-1][self.k - 1] = 0
    return mutated

def drop_violation(add_row):
    # the mutant inserts the row but leaves its surplus at 0, as if it held
    def mutated(self, row):
        add_row(self, row)
        self.rows[self.m - 1][-1] = 0
    return mutated
"""
    def check_mutant(self, method, mutant, graph, monkeypatch):
        from simplegames import graphs

        scope = {}
        exec(self.MUTANT, scope)
        monkeypatch.setattr(lp._Tableau, method, scope[mutant](getattr(lp._Tableau, method)))
        with pytest.raises(AssertionError, match="the cut repeats a row of the LP"):
            graphs.alpha_graph(eval("graphs." + graph))

    def check_mutant_optimized(self, method, mutant, graph):
        proc = run_optimized(
            self.MUTANT
            + f"""
from simplegames import graphs, lp
assert False, "python -O should have stripped this assert"
lp._Tableau.{method} = {mutant}(lp._Tableau.{method})
graphs.alpha_graph(graphs.{graph})
"""
        )
        assert proc.returncode == 1
        assert "CertificateError: the cut repeats a row of the LP" in proc.stderr

    TALL_CUTS = "add_column", "drop_reduced_cost", "build_gadget(graphs.random_graph(6, 7, 0))"
    WIDE_CUTS = "add_row", "drop_violation", "cycle_graph(6)"

    def test_dropped_reduced_cost_is_caught(self, monkeypatch):
        self.check_mutant(*self.TALL_CUTS, monkeypatch)

    def test_dropped_reduced_cost_is_caught_optimized(self):
        self.check_mutant_optimized(*self.TALL_CUTS)

    def test_dropped_row_violation_is_caught(self, monkeypatch):
        self.check_mutant(*self.WIDE_CUTS, monkeypatch)

    def test_dropped_row_violation_is_caught_optimized(self):
        self.check_mutant_optimized(*self.WIDE_CUTS)

    def test_phase_one_does_not_run_per_cut(self, monkeypatch):
        # (tableaus inside solve_lp, tableaus kept by the ThresholdLP) per call,
        # whatever the number of cuts; each cut is one add_column, or one
        # add_row where the kept LP is wide and keeps its own tableau.  A tall
        # opening LP, of a cut loop or of an alpha over all maximal losing
        # coalitions, is one kept tableau.  A wide one is one solve_lp
        # tableau, and a cut loop builds its kept tableau at the first cut.
        from simplegames import alpha
        from simplegames.games import cycle_game, random_game
        from simplegames.graphs import (
            alpha_graph,
            build_gadget,
            cycle_graph,
            decide_alpha_at_most,
            random_bipartite_graph,
            random_graph,
        )

        counts = {"cold": 0, "warm": 0, "columns": 0}
        in_solve_lp = [False]
        solve_lp, init = alpha.solve_lp, lp._Tableau.__init__
        add_column, add_row = lp._Tableau.add_column, lp._Tableau.add_row

        def spy_solve_lp(model):
            in_solve_lp[0] = True
            try:
                return solve_lp(model)
            finally:
                in_solve_lp[0] = False

        def spy_init(self, *args):
            counts["cold" if in_solve_lp[0] else "warm"] += 1
            init(self, *args)

        def spy_add(add):
            def spy(self, *args):
                counts["columns"] += 1
                add(self, *args)

            return spy

        def enumeration(g):
            decision = decide_alpha_at_most(g, 1)
            assert decision.branch == "enumeration"

        monkeypatch.setattr(alpha, "solve_lp", spy_solve_lp)
        monkeypatch.setattr(lp._Tableau, "__init__", spy_init)
        monkeypatch.setattr(lp._Tableau, "add_column", spy_add(add_column))
        monkeypatch.setattr(lp._Tableau, "add_row", spy_add(add_row))
        graphs_ = [build_gadget(random_graph(6, 7 + s, s)) for s in range(3)]
        graphs_ += [random_bipartite_graph(10, 14, s) for s in range(3)]
        cases = [(alpha_graph, g, (0, 1)) for g in graphs_]
        cases += [(alpha_graph, cycle_graph(n), (1, 1)) for n in (6, 8)]
        cases += [(compute_alpha_exact, random_game(7, s, 5), (0, 1)) for s in range(3)]
        cases += [(compute_alpha_exact, cycle_game(4), (1, 0))]
        cases += [(enumeration, cycle_graph(n), (0, 1)) for n in (5, 7)]
        cuts = set()
        for solve, model, tableaus in cases:
            counts.update(cold=0, warm=0, columns=0)
            solve(model)
            assert (counts["cold"], counts["warm"]) == tableaus
            if solve is alpha_graph:
                cuts.add(counts["columns"])
            else:
                assert counts["columns"] == 0
        assert len(cuts) > 1 and min(cuts) >= 1


def dense_pivot(rows, dens, basis, r, col):
    """`_pivot` as a dense update of every touched row over its full width,
    kept as the reference for the sparse in-place one."""
    prow = rows[r]
    if prow[col] < 0:
        prow = [-v for v in prow]
    g = math.gcd(*prow)
    prow = [v // g for v in prow]
    pden = prow[col]
    rows[r], dens[r], basis[r] = prow, pden, col
    for i, row in enumerate(rows):
        if i != r and row[col]:
            g = math.gcd(row[col], pden)
            s, t = pden // g, row[col] // g
            new = [u * s - t * v for u, v in zip(row, prow)]
            den = dens[i] * s
            g = math.gcd(den, *new)
            rows[i], dens[i] = [v // g for v in new], den // g


def same_rationals(rows, dens, ref_rows, ref_dens):
    """Whether each row/den equals the reference's row/den, entry by entry."""
    return len(rows) == len(ref_rows) and all(
        len(row) == len(ref) and all(u * rd == v * d for u, v in zip(row, ref))
        for row, d, ref, rd in zip(rows, dens, ref_rows, ref_dens)
    )


class TestSparsePivot:
    """`_pivot` updates the pivot row and every row it touches in place where
    it can.  The dense formula reduces every row it updates, the kernel only
    when a rescale passes `_DEN_BOUND`, so they must agree on each row's
    rationals, on the basis and on the pivot row's integers, which `_pivot`
    makes primitive."""

    @staticmethod
    def random_tableau(rng):
        width = rng.randint(3, 16)
        density = rng.choice((0.15, 0.5, 0.9))
        rows = []
        for _ in range(rng.randint(2, 7)):
            scale = rng.choice((1, 1, 2, 6))  # some rows with a common factor to divide out
            rows.append([scale * rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(width)])
        dens = [rng.choice((1, 1, 2, 3, 4, 12)) for _ in rows]
        return rows, dens, list(range(len(rows)))

    def test_matches_dense_formula(self):
        seen = {"den 1": 0, "rescale": 0, "in place": 0, "sparse pivot row": 0, "negative pivot": 0}
        for seed in range(400):
            rng = random.Random(seed)
            rows, dens, basis = self.random_tableau(rng)
            ref = ([list(row) for row in rows], list(dens), list(basis))
            for _ in range(3):  # a chain of pivots on the same tableau
                r = rng.randrange(len(rows))
                col = rng.randrange(len(rows[r]))
                if not rows[r][col]:
                    # the same rational in both: the kernel's row is the reference's times dens[r]/ref den
                    v = ref[0][r][col] = rng.choice((-1, 1)) * rng.randint(1, 12)
                    rows[r][col] = v * (dens[r] // ref[1][r])
                prow = rows[r]
                pden = abs(prow[col]) // math.gcd(*prow)
                seen["sparse pivot row"] += 3 * sum(map(bool, prow)) <= len(prow)
                seen["negative pivot"] += prow[col] < 0
                for i, row in enumerate(rows):
                    if i != r and row[col]:
                        s = pden // math.gcd(row[col], pden)
                        seen["rescale" if s > 1 else "den 1" if dens[i] == 1 else "in place"] += 1
                lp._pivot(rows, dens, basis, r, col)
                dense_pivot(*ref, r, col)
                assert same_rationals(rows, dens, ref[0], ref[1])
                assert basis == ref[2]
                assert (rows[r], dens[r]) == (ref[0][r], ref[1][r])
                assert min(dens) > 0
                assert len({id(row) for row in rows}) == len(rows)
        assert min(seen.values()) > 20, seen

    # pivots per call, (in solve_lp, in the ThresholdLP's own TallLP).
    # alpha_graph solves over the graph's twin classes; every gadget has
    # twins, and of the bipartite graphs only the seed-3 one.  Every cut loop
    # here opens tall, so all its rounds pivot in one TallLP, from the last
    # basis; at the two bipartite graphs with 26 and 22 pivots, that path is
    # longer than a cold opening followed by a TallLP at the first cut (25
    # and 18).  A "game" solves the full threshold LP, one column per
    # player; "reduced" is the same game's LP in compute_alpha_exact, one
    # column per class of symmetric players (1, 1, 8 and 8 classes).  A
    # wide LP goes through solve_lp, a tall one through the TallLP, with the
    # pivots solve_lp would make
    PIVOTS = [
        (("gadget", 6, 7, 3), (0, 6)),
        (("gadget", 6, 11, 3), (0, 9)),
        (("gadget", 7, 9, 3), (0, 11)),
        (("gadget", 7, 15, 3), (0, 11)),
        (("gadget", 8, 12, 5), (0, 8)),
        (("bipartite", 10, 14, 0), (0, 26)),
        (("bipartite", 10, 14, 1), (0, 22)),
        (("bipartite", 10, 14, 2), (0, 13)),
        (("bipartite", 10, 14, 3), (0, 14)),
        (("game", 6, 0), (6, 0)),
        (("game", 7, 1), (7, 0)),
        (("game", 8, 2), (0, 16)),
        (("game", 9, 3), (0, 12)),
        (("reduced", 6, 0), (1, 0)),
        (("reduced", 7, 1), (1, 0)),
        (("reduced", 8, 2), (0, 16)),
        (("reduced", 9, 3), (0, 11)),
    ]

    @pytest.mark.parametrize("case, pivots", PIVOTS)
    def test_pivot_counts_are_pinned(self, case, pivots, monkeypatch):
        from simplegames import alpha
        from simplegames.alpha import ThresholdLP
        from simplegames.games import maximal_losing, random_game
        from simplegames.graphs import alpha_graph, build_gadget, random_bipartite_graph, random_graph

        counts = {"solve_lp": 0, "tall": 0}
        where = ["tall"]
        pivot, solve_lp = lp._pivot, alpha.solve_lp

        def spy_pivot(*args):
            counts[where[0]] += 1
            pivot(*args)

        def spy_solve_lp(model):
            where[0] = "solve_lp"
            try:
                return solve_lp(model)
            finally:
                where[0] = "tall"

        monkeypatch.setattr(lp, "_pivot", spy_pivot)
        monkeypatch.setattr(alpha, "solve_lp", spy_solve_lp)
        kind, *args = case
        if kind == "gadget":
            alpha_graph(build_gadget(random_graph(*args)))
        elif kind == "bipartite":
            alpha_graph(random_bipartite_graph(*args))
        elif kind == "game":
            n, seed = args
            game = random_game(n, seed, n + 2)
            ThresholdLP(n, masks(game.minimal_winning), masks(maximal_losing(game))).solve()
        else:
            n, seed = args
            compute_alpha_exact(random_game(n, seed, n + 2))
        assert (counts["solve_lp"], counts["tall"]) == pivots


ELIMINATE = lp._eliminate


def reducing_eliminate(row, den, prow, support, pden, col):
    """`_eliminate` with every updated row gcd-reduced, as the kernel did
    before rows were reduced lazily: the reference for the lazy kernel."""
    row, den = ELIMINATE(row, den, prow, support, pden, col)
    g = math.gcd(den, *row)
    return [v // g for v in row], den // g


class TestLazyRows:
    """A row is gcd-reduced only when a rescale takes its denominator past
    `_DEN_BOUND`, so no denominator grows past the bound unless it is one the
    row had when it was last reduced; the pivots and rationals stay those of
    the always-reducing kernel."""

    @staticmethod
    def rule_spy(kinds):
        """`_eliminate`, checked against the rule: in place keeps the row and
        its denominator, a rescale under the bound keeps den * s, and one past
        it returns the row gcd-reduced."""

        def spy(row, den, prow, support, pden, col):
            s = pden // math.gcd(row[col], pden)
            out, oden = ELIMINATE(row, den, prow, support, pden, col)
            if s == 1:
                assert out is row and oden == den
                kinds["in place"] += 1
            elif den * s <= lp._DEN_BOUND:
                assert oden == den * s
                kinds["rescaled"] += 1
            else:
                assert math.gcd(oden, *out) == 1 and den * s % oden == 0
                kinds["reduced"] += 1
            return out, oden

        return spy

    class Watch:
        """Each row's denominators when reduced; every denominator must be under
        the bound or one of its row's, so nothing grows while unreduced."""

        def __init__(self):
            self.seen = {}

        def check(self, rows, dens):
            for i, (row, den) in enumerate(zip(rows, dens)):
                reduced = self.seen.setdefault(i, set())
                if math.gcd(den, *row) == 1:
                    reduced.add(den)
                assert den <= lp._DEN_BOUND or den in reduced, (i, den.bit_length())

    @staticmethod
    def rational_tableau(rng, m, width, top, density):
        rows, dens = [], []
        for _ in range(m):
            values = [F(rng.randint(-9, 9), rng.randint(1, top)) if rng.random() < density else F(0) for _ in range(width)]
            row, den = lp.common_numerators(values)
            rows.append(row)
            dens.append(den)
        return rows, dens

    # small denominators and half the entries zero take every branch of
    # `_eliminate` often, their true denominators staying near 32 bits, so
    # each reduction drops factors that rescales piled up; dense data with
    # denominators up to 9 has true denominators past the bound
    @pytest.mark.parametrize("top, density, wide", [(3, 0.5, False), (9, 0.8, True)])
    def test_pivot_chain_stays_bounded(self, top, density, wide, monkeypatch):
        kinds = {"in place": 0, "rescaled": 0, "reduced": 0}
        monkeypatch.setattr(lp, "_eliminate", self.rule_spy(kinds))
        rng = random.Random(19)
        rows, dens = self.rational_tableau(rng, 8, 18, top, density)
        basis = list(range(8))
        ref = ([list(row) for row in rows], list(dens), list(basis))
        watch = self.Watch()
        watch.check(rows, dens)
        widest = 0
        for _ in range(400):
            r = rng.randrange(len(rows))
            col = rng.choice([j for j, v in enumerate(rows[r]) if v])
            lp._pivot(rows, dens, basis, r, col)
            dense_pivot(*ref, r, col)
            assert same_rationals(rows, dens, ref[0], ref[1]) and basis == ref[2]
            assert (rows[r], dens[r]) == (ref[0][r], ref[1][r])
            watch.check(rows, dens)
            widest = max(widest, *ref[1])
        if wide:
            assert widest > lp._DEN_BOUND and kinds["reduced"] > 1000, kinds
        else:
            assert widest <= lp._DEN_BOUND and min(kinds.values()) > 200, kinds

    def test_tall_lp_fed_200_rows_stays_bounded(self, monkeypatch):
        kinds = {"in place": 0, "rescaled": 0, "reduced": 0}
        monkeypatch.setattr(lp, "_eliminate", self.rule_spy(kinds))
        watch = self.Watch()
        pivot = lp._pivot

        def spy_pivot(rows, dens, basis, r, col):
            pivot(rows, dens, basis, r, col)
            watch.check(rows, dens)

        monkeypatch.setattr(lp, "_pivot", spy_pivot)
        rng = random.Random(200)
        k = 6
        x0 = [F(rng.randint(0, 3)) for _ in range(k)]
        rows = []
        for _ in range(200):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.8 else F(0) for _ in range(k)]
            rows.append(coeffs + [sum(v * x for v, x in zip(coeffs, x0)) - F(rng.randint(0, 9), rng.randint(1, 9))])
        den = math.lcm(*(v.denominator for row in rows for v in row))
        a = [lp._numerators(row, den) for row in rows]
        c, cden = lp.common_numerators([F(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(k)])
        tall = lp.TallLP(a[:1], den, c, cden)
        for r in range(1, 201):
            if r > 1:
                tall.add_row(a[r - 1])
                watch.check(tall._tableau.rows, tall._tableau.dens)
            status, (x, xden, _, _) = tall.solve()  # unchecked; the last objective is compared below
            assert status == "optimal"
            watch.check(tall._tableau.rows, tall._tableau.dens)
        # the reference kernel on the 6-row transposed dual: its dual is our primal
        status, (_, _, rx, rxden) = lp_reference.core_solve(*lp._transpose(a, den, c, cden))
        assert status == "optimal"
        assert F(sum(map(math.prod, zip(c, x))), xden) == F(sum(map(math.prod, zip(c, rx))), rxden)
        assert min(kinds.values()) > 0, kinds
