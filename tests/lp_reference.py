"""A dense `Fraction` two-phase simplex: the reference for the differential tests.

It takes the rules of the integer-row kernel in `simplegames.lp` (a slack
start for rows with b <= 0, Dantzig pricing, lexicographic ratio ties), so
that kernel must make the same pivots and return equal solutions.  It keeps
an artificial column for every row and reads the duals off them, which
checks the kernel's reading of the duals off its surplus columns.  Its
phase 1 is general, so `core_solve` also solves a model directly, as the
tests' cold reference.  `route(patch)` sends every exact caller to this
kernel: `TallLP` replaces the transposed solve, both `simplegames.lp.TallLP`
inside `solve_lp`, which solves every LP through it, and the one that
`alpha.ThresholdLP` keeps for a tall LP or a cut loop.  A wide LP keeps
its own tableau there and makes the transposed dual's pivots on it, so the
reference's transposed solve covers it too.  The transposed dual of a
nonnegative cost starts at its slack basis, so phase 1 makes no pivot
there.  The stand-in solves cold every time, so a cut loop on it
re-solves all its rows each round.  `threshold_program` gives `solve_lp`
the rows of a `ThresholdLP`.  `make_lp` builds the tests' LPs from plain
numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from simplegames import alpha, lp
from simplegames.errors import BudgetExceededError
from simplegames.lp import GE, MAX_PIVOTS, LinearProgram, LPRow, _numerators, _transpose, frac

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows: list[list[Fraction]], z: list[Fraction], basis: list[int], r: int, col: int) -> None:
    prow = rows[r]
    piv = prow[col]
    if piv != 1:
        inv = 1 / piv
        prow = [v * inv for v in prow]
        rows[r] = prow
    basis[r] = col
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    f = z[col]
    if f:
        z[:] = [a - f * b for a, b in zip(z, prow)]


def _lex_less(row: list[Fraction], other: list[Fraction], enter: int, lex: list[int]) -> bool:
    """Whether row/row[enter] is lexicographically less than other/other[enter] on `lex`."""
    for j in lex:
        d = row[j] / row[enter] - other[j] / other[enter]
        if d:
            return d < 0
    return False


def _run_simplex(
    rows: list[list[Fraction]],
    z: list[Fraction],
    basis: list[int],
    allowed: int,
) -> str:
    """Pivot to optimality; `allowed` is the number of admissible entering columns.

    A ratio tie goes to the row whose entries in the entry basis's columns,
    over the entering entry, are lexicographically least.
    """
    lex = list(basis)
    for _ in range(MAX_PIVOTS):
        best = _ZERO
        enter = -1
        for j in range(allowed):
            v = z[j]
            if v < best:
                best = v
                enter = j
        if enter < 0:
            return "optimal"
        ratio = None
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                r = row[-1] / a
                if ratio is None or r < ratio or (r == ratio and _lex_less(row, rows[leave], enter, lex)):
                    ratio = r
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(rows, z, basis, leave, enter)
    raise BudgetExceededError("pivots", MAX_PIVOTS + 1, MAX_PIVOTS)


def _core_solve(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> tuple[str, Optional[list[Fraction]], Optional[list[Fraction]], Optional[Fraction]]:
    """min c.x  s.t.  a x >= b, x >= 0.

    Returns (status, x, y, objective) with y >= 0, y^T a <= c and
    y.b == c.x == objective when optimal (verified exactly).
    """
    m = len(a)
    k = len(c)
    ncols = k + 2 * m + 1  # x | surplus | artificial | rhs
    rows: list[list[Fraction]] = []
    sign: list[int] = []
    for i in range(m):
        s = 1 if b[i] > 0 else -1
        sign.append(s)
        row = [_ZERO] * ncols
        ai = a[i]
        for j in range(k):
            v = ai[j]
            if v:
                row[j] = v if s == 1 else -v
        row[k + i] = Fraction(-s)
        row[k + m + i] = _ONE
        row[-1] = b[i] if s == 1 else -b[i]
        rows.append(row)
    # a row that entered negated starts with its surplus basic
    basis = [k + m + i if s == 1 else k + i for i, s in enumerate(sign)]

    # phase 1: minimize the total of the artificials that start basic
    z = [_ZERO] * ncols
    for row, s in zip(rows, sign):
        if s == 1:
            for j in range(k + m):
                v = row[j]
                if v:
                    z[j] -= v
            z[-1] -= row[-1]
    _run_simplex(rows, z, basis, k + m)
    if -z[-1] != 0:
        return "infeasible", None, None, None

    # drive basic artificials out (rows that resist are redundant and inert)
    for i in range(m):
        if basis[i] >= k + m:
            row = rows[i]
            for j in range(k + m):
                if row[j]:
                    _pivot(rows, z, basis, i, j)
                    break

    # phase 2
    z = [_ZERO] * ncols
    for j in range(k):
        z[j] = c[j]
    for i, bi in enumerate(basis):
        if bi < k and c[bi]:
            f = c[bi]
            row = rows[i]
            z[:] = [u - f * v for u, v in zip(z, row)]
    status = _run_simplex(rows, z, basis, k + m)
    if status == "unbounded":
        return "unbounded", None, None, None

    x = [_ZERO] * k
    for i, bi in enumerate(basis):
        if bi < k:
            x[bi] = rows[i][-1]
    y = [Fraction(-z[k + m + i]) * sign[i] for i in range(m)]
    obj = -z[-1]

    # exact certificate of optimality
    for i in range(m):
        lhs = sum(a[i][j] * x[j] for j in range(k) if a[i][j])
        if lhs < b[i]:
            raise AssertionError("simplex returned a primal-infeasible point")
        if y[i] < 0:
            raise AssertionError("simplex returned a negative dual")
    for j in range(k):
        red = c[j] - sum(y[i] * a[i][j] for i in range(m) if a[i][j])
        if red < 0:
            raise AssertionError("simplex returned a dual-infeasible vector")
    if sum(y[i] * b[i] for i in range(m)) != obj or sum(c[j] * x[j] for j in range(k)) != obj:
        raise AssertionError("strong duality failed (primal and dual objectives differ)")
    return "optimal", x, y, obj


def core_solve(
    a: list[list[int]], den: int, c: list[int], cden: int
) -> tuple[str, Optional[tuple[list[int], int, list[int], int]]]:
    """`_core_solve` on integer rows as `simplegames.lp.TallLP` takes them.

    Rebuilds the `Fraction` rows (coefficients, then the right-hand side, over
    `den`) and the objective (over `cden`), calls the reference kernel, and
    returns its x and y as integer numerators over a common denominator each,
    the pair that `simplegames.lp.TallLP.solve` returns.
    """
    status, x, y, _ = _core_solve(
        [[Fraction(v, den) for v in row[:-1]] for row in a],
        [Fraction(row[-1], den) for row in a],
        [Fraction(v, cden) for v in c],
    )
    if status != "optimal":
        return status, None
    xden = math.lcm(*(v.denominator for v in x))
    yden = math.lcm(*(v.denominator for v in y))
    return status, (_numerators(x, xden), xden, _numerators(y, yden), yden)


class TallLP:
    """`simplegames.lp.TallLP` solved cold: each solve runs `core_solve` on
    the transposed dual of the rows so far and appends its status to `log`.
    `add_row` appends a row to a copy of the rows it was given."""

    def __init__(self, a: list[list[int]], den: int, c: list[int], cden: int, log: list[str]) -> None:
        if min(c, default=0) < 0:
            raise ValueError("costs must be nonnegative")
        self.a, self.den, self.c, self.cden, self.log = list(a), den, c, cden, log

    def add_row(self, row: list[int]) -> None:
        self.a.append(row)

    def solve(self) -> tuple[str, Optional[tuple[list[int], int, list[int], int]]]:
        status, sol = core_solve(*_transpose(self.a, self.den, self.c, self.cden))
        self.log.append(status)
        if status == "optimal":
            y, yden, x, xden = sol  # the dual program's primal is our dual
            return status, (x, xden, y, yden)
        # a nonnegative cost makes the dual feasible at 0: an unbounded dual, an infeasible program
        assert status == "unbounded", status
        return "infeasible", None


def route(patch) -> tuple[list[str], list[str]]:
    """Send `solve_lp`'s transposed solve and `alpha.ThresholdLP`'s kept
    `TallLP` to this kernel, on the monkeypatch `patch`; returns the lists
    that log the transposed solves of `solve_lp` and of `ThresholdLP`."""
    transposed: list[str] = []
    kept: list[str] = []
    patch.setattr(lp, "TallLP", lambda a, den, c, cden: TallLP(a, den, c, cden, transposed))
    patch.setattr(alpha, "TallLP", lambda a, den, c, cden: TallLP(a, den, c, cden, kept))
    return transposed, kept


def threshold_program(threshold_lp) -> LinearProgram:
    """min t over the rows of an `alpha.ThresholdLP`, as the `LinearProgram`
    that `solve_lp` takes."""
    k = threshold_lp._k
    rows = tuple(LPRow(tuple(r[:-1]), GE, r[-1]) for r in threshold_lp._rows)
    return LinearProgram(k + 1, (0,) * k + (1,), rows)


def make_lp(objective, rows, lower=None, upper=None) -> LinearProgram:
    """min objective . x over (coeffs, relation, rhs) rows, every entry through
    `frac`.  A test that wants a maximum solves its dual, whose costs are the
    maximum's right-hand sides."""
    obj = tuple(map(frac, objective))
    lprows = tuple(LPRow(tuple(map(frac, coeffs)), rel, frac(b)) for coeffs, rel, b in rows)
    lo = None if lower is None else tuple(map(frac, lower))
    up = None if upper is None else tuple(None if x is None else frac(x) for x in upper)
    return LinearProgram(len(obj), obj, lprows, lo, up)
