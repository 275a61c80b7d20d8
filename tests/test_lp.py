"""Exact LP kernel: status handling, duality, anti-cycling, float cross-check."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import lp_reference
from simplegames import Coalition, compute_alpha_exact, lp
from simplegames.lp import EQ, GE, LE, in_convex_hull, make_lp, solve_lp

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


def test_unbounded():
    sol = solve_lp(make_lp([1], [([1], GE, 1)], sense="max"))
    assert sol.status == "unbounded"


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
    # max x + y on the segment x + y = 2, x <= 1
    sol = solve_lp(make_lp([1, 1], [([1, 1], EQ, 2), ([1, 0], LE, 1)], sense="max"))
    assert sol.status == "optimal"
    assert sol.objective == 2


def test_upper_bounds_materialize():
    sol = solve_lp(make_lp([-1, -1], [([1, 1], GE, 0)], upper=[2, F(3, 2)]))
    assert sol.status == "optimal"
    assert sol.objective == F(-7, 2)
    assert sol.primal == (F(2), F(3, 2))
    assert len(sol.dual) == 1  # bound rows are internal


def test_lower_bounds():
    sol = solve_lp(make_lp([1, 1], [([1, 1], LE, 10)], lower=[2, F(1, 2)]))
    assert sol.status == "optimal"
    assert sol.primal == (F(2), F(1, 2))


def test_beale_degenerate_instance_terminates():
    # classic cycling example for naive pivoting; optimum is -1/20
    rows = [
        ([F(1, 4), -60, F(-1, 25), 9], LE, 0),
        ([F(1, 2), -90, F(-1, 50), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
    ]
    sol = solve_lp(make_lp([F(-3, 4), 150, F(-1, 50), 6], rows))
    assert sol.status == "optimal"
    assert sol.objective == F(-1, 20)


def test_transposed_unbounded_falls_back_to_direct_solve():
    # more rows than variables routes through the dual, whose infeasibility
    # is ambiguous; the direct retry must still report unbounded
    sol = solve_lp(make_lp([-1], [([1], GE, 1), ([1], GE, 2)]))
    assert sol.status == "unbounded"


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

    def test_transposed_negative_primal_is_caught(self, monkeypatch):
        # three rows over two variables go through the dual; its reduced costs
        # give x, so only the certificate's sign check keeps x >= 0
        wrong = ("optimal", ([-2, -3], 1, [0, 1, 0], 1))
        monkeypatch.setattr(lp, "_solve_core_transposed", lambda a, den, c, cden: wrong)
        model = make_lp([1, 1], [([1, -1], GE, 1), ([1, 0], GE, -5), ([1, 1], GE, -10)])
        with pytest.raises(AssertionError, match="simplex returned a negative primal"):
            solve_lp(model)

    def test_transposed_solve_is_certified_on_the_input_rows(self, monkeypatch):
        # min x1/2 + x2/3 over three rows goes through its dual; a transposition
        # that dropped the objective's denominator would return this pair
        wrong = ("optimal", ([1, 1], 1, [3, 2, 0], 1))
        monkeypatch.setattr(lp, "_solve_core_transposed", lambda a, den, c, cden: wrong)
        model = make_lp([F(1, 2), F(1, 3)], [([1, 0], GE, 1), ([0, 1], GE, 1), ([1, 1], GE, 1)])
        with pytest.raises(AssertionError, match="simplex returned a dual-infeasible vector"):
            solve_lp(model)

    def test_extended_system_dual_mismatch_raises(self, monkeypatch):
        # with the certificate off, a dual that disagrees with the objective
        # on the input rows is still caught
        wrong = ("optimal", ([0, 1], 1, [3], 2))
        monkeypatch.setattr(lp, "_certify", lambda *args: None)
        monkeypatch.setattr(lp, "_core_solve", lambda a, den, c, cden: wrong)
        with pytest.raises(AssertionError, match="dual objective mismatch on the extended system"):
            solve_lp(make_lp([1, 1], [([1, 2], GE, 2)]))

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
    """`_Tableau` kept warm: rows of a tall LP added one at a time as dual columns.

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
        """Solve a[:start] in a `TallLP`, then add each later row as a dual
        column; yield the LP's tableau, the rows so far and the pair after every solve."""
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

    def test_negative_cost_is_refused(self):
        # with a negative cost the dual need not be feasible at 0
        with pytest.raises(ValueError, match="nonnegative"):
            lp.TallLP([[1, 1]], 1, [-1], 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_added_rows_match_cold_solves(self, seed):
        a, den, c, cden = self.tall_model(seed)
        assert self.check_steps(a, den, c, cden, start=1 + seed % 3) == len(a) - seed % 3

    def test_rational_columns_rescale_rows(self):
        rescaled = []
        for seed in range(1, 40, 2):
            a, den, c, cden = self.tall_model(seed)
            steps = self.warm_steps(a, den, c, cden, start=1)
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

    def test_dependent_rows(self, monkeypatch):
        # every row with b > 0 repeated: two equal rows with artificials, so
        # phase 1 ends with artificials basic, and the drive-out still removes
        # every one, each row having a surplus column of its own; columns
        # added after the artificial columns are gone must reach the cold optimum
        ended_with_artificials = []
        run = lp._run_simplex

        def spy(rows, dens, basis, allowed):
            status = run(rows, dens, basis, allowed)
            ended_with_artificials.append(max(basis) >= allowed)
            return status

        monkeypatch.setattr(lp, "_run_simplex", spy)
        cost_of = lambda v, vden: F(sum(cj * vj for cj, vj in zip(c, v)), vden)
        phase_one_left_one = 0
        for seed in range(12):
            a, den, c, cden = self.tall_model(seed)
            a += [row for row in a if row[-1] > 0]
            ended_with_artificials.clear()
            tableau = lp._Tableau(a, den, c, cden)
            phase_one_left_one += any(ended_with_artificials)
            assert all(b < tableau.k + tableau.m for b in tableau.basis)
            assert all(len(row) == tableau.k + tableau.m + 1 for row in tableau.rows)
            rng = random.Random(seed)
            for step in range(4):
                if step:  # a new variable with a nonnegative cost keeps the optimum finite
                    col, cost = [rng.randint(-3, 3) for _ in a], rng.randint(0, 3)
                    tableau.add_column(col, cost)
                    a = [row[:-1] + [v] + row[-1:] for row, v in zip(a, col)]
                    c = c + [cost]
                assert tableau.run() == "optimal"
                x, xden, y, yden = tableau.solution()
                lp._certify(a, den, c, cden, x, xden, y, yden)
                status, (rx, rxden, _, _) = lp_reference.core_solve(a, den, c, cden)
                assert status == "optimal"
                assert cost_of(x, xden) == cost_of(rx, rxden)
        assert phase_one_left_one > 0

    def test_slack_start_skips_phase_one(self, monkeypatch):
        # a TallLP's dual and the transposed dual of a threshold LP have every
        # right-hand side <= 0: the tableau starts at its slack basis, so
        # construction makes no pivot, neither phase 1 nor drive-out
        from simplegames.games import random_game

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
            compute_alpha_exact(random_game(7, seed, 5))
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
                patch.setattr(lp, "_core_solve", lp_reference.core_solve)
                _, cold = ThresholdLP(n, winning, losing[:r]).solve()
            assert warm.solve()[1] == cold
        return cold

    def test_isolated_vertex(self, monkeypatch):
        # vertex 6 is in no edge, so its dual row starts all-zero; every
        # maximal independent set, added one at a time, must give the cold optimum
        from simplegames.graphs import alpha_graph, enumerate_mis, graphic_game, make_graph

        g = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        edges = [Coalition.of(u, v) for u, v in g.edges]
        assert self.warm_against_cold(g.n, edges, list(enumerate_mis(g)), monkeypatch) == F(1)
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
                losing = maximal_losing(game)
                several += len(losing) > 1
                last = self.warm_against_cold(n, game.minimal_winning, losing, monkeypatch)
                assert last == compute_alpha_exact(game).alpha
        assert several > 0

    MUTANT = """
def drop_reduced_cost(add_column):
    # the mutant inserts the column but leaves its reduced cost at 0
    def mutated(self, col, cost):
        add_column(self, col, cost)
        self.rows[-1][self.k - 1] = 0
    return mutated
"""

    def test_dropped_reduced_cost_is_caught(self, monkeypatch):
        from simplegames.graphs import alpha_graph, cycle_graph

        scope = {}
        exec(self.MUTANT, scope)
        monkeypatch.setattr(lp._Tableau, "add_column", scope["drop_reduced_cost"](lp._Tableau.add_column))
        with pytest.raises(AssertionError, match="simplex returned a primal-infeasible point"):
            alpha_graph(cycle_graph(6))

    def test_dropped_reduced_cost_is_caught_optimized(self):
        proc = run_optimized(
            self.MUTANT
            + """
from simplegames import graphs, lp
assert False, "python -O should have stripped this assert"
lp._Tableau.add_column = drop_reduced_cost(lp._Tableau.add_column)
graphs.alpha_graph(graphs.cycle_graph(6))
"""
        )
        assert proc.returncode == 1
        assert "CertificateError: simplex returned a primal-infeasible point" in proc.stderr

    def test_phase_one_does_not_run_per_cut(self, monkeypatch):
        # alpha_graph builds one tableau inside solve_lp for the cold first
        # round and one for the warm cut LP, whatever the number of cuts; each
        # cut is one add_column.  An alpha over all maximal losing coalitions,
        # of a game or by enumeration, is one cold tableau and no warm one.
        from simplegames import alpha
        from simplegames.games import random_game
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
        solve_lp, init, add = alpha.solve_lp, lp._Tableau.__init__, lp._Tableau.add_column

        def spy_solve_lp(model):
            in_solve_lp[0] = True
            try:
                return solve_lp(model)
            finally:
                in_solve_lp[0] = False

        def spy_init(self, *args):
            counts["cold" if in_solve_lp[0] else "warm"] += 1
            init(self, *args)

        def spy_add(self, *args):
            counts["columns"] += 1
            add(self, *args)

        def enumeration(g):
            decision = decide_alpha_at_most(g, 1)
            assert decision.branch == "enumeration"

        monkeypatch.setattr(alpha, "solve_lp", spy_solve_lp)
        monkeypatch.setattr(lp._Tableau, "__init__", spy_init)
        monkeypatch.setattr(lp._Tableau, "add_column", spy_add)
        graphs_ = [build_gadget(random_graph(6, 7 + s, s)) for s in range(3)]
        graphs_ += [random_bipartite_graph(10, 14, s) for s in range(3)]
        cases = [(alpha_graph, g, (1, 1)) for g in graphs_]
        cases += [(compute_alpha_exact, random_game(7, s, 5), (1, 0)) for s in range(3)]
        cases += [(enumeration, cycle_graph(n), (1, 0)) for n in (5, 7)]
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
