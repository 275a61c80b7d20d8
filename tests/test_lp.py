"""Exact LP kernel: status handling, duality, anti-cycling, float cross-check."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from simplegames import lp
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
        assert "AssertionError: simplex returned a dual-infeasible vector" in proc.stderr


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
        assert f"AssertionError: convex-hull weights {message}" in proc.stderr
