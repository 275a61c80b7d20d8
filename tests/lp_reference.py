"""A dense `Fraction` two-phase simplex: the reference for the differential tests.

It takes the rules of the integer-row kernel in `simplegames.lp` (a slack
start for rows with b <= 0, Dantzig pricing, lexicographic ratio ties), so
that kernel must make the same pivots and return equal solutions.  It keeps
an artificial column for every row and reads the duals off them, which
checks the kernel's reading of the duals off its surplus columns.
`route(patch)` sends `solve_lp` (and through it every exact caller) to this
kernel: `core_solve` replaces `simplegames.lp._core_solve`, the direct
solve, and `TallLP` replaces `simplegames.lp.TallLP`, the transposed solve
of a tall LP, inside `solve_lp` only.  A warm `TallLP` kept by
`alpha.ThresholdLP` still runs on the integer kernel.  `make_lp` builds
the tests' LPs from plain numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from simplegames import lp
from simplegames.errors import BudgetExceededError
from simplegames.lp import MAX_PIVOTS, LinearProgram, LPRow, _numerators, _transpose, frac

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
    """`_core_solve` on the integer rows that `simplegames.lp` hands its kernel.

    Rebuilds the `Fraction` rows (coefficients, then the right-hand side, over
    `den`) and the objective (over `cden`), calls the reference kernel, and
    returns its x and y as integer numerators over a common denominator each,
    as `simplegames.lp._core_solve` does.
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
    """`simplegames.lp.TallLP` for a cold solve: `core_solve` on the
    transposed dual.  Each solve appends its status to `log`."""

    def __init__(self, a: list[list[int]], den: int, c: list[int], cden: int, log: list[str]) -> None:
        self.dual, self.log = _transpose(a, den, c, cden), log

    def solve(self) -> tuple[str, Optional[tuple[list[int], int, list[int], int]]]:
        status, sol = core_solve(*self.dual)
        self.log.append(status)
        if status == "optimal":
            y, yden, x, xden = sol  # the dual program's primal is our dual
            return status, (x, xden, y, yden)
        # an unbounded dual: the program is infeasible; an infeasible one: unbounded or infeasible
        return ("infeasible" if status == "unbounded" else "ambiguous"), None


def route(patch) -> list[str]:
    """Send `solve_lp`'s direct and transposed solves to this kernel, on the
    monkeypatch `patch`; returns the list that logs the transposed solves."""
    transposed: list[str] = []
    patch.setattr(lp, "_core_solve", core_solve)
    patch.setattr(lp, "TallLP", lambda a, den, c, cden: TallLP(a, den, c, cden, transposed))
    return transposed


def make_lp(objective, rows, lower=None, upper=None) -> LinearProgram:
    """min objective . x over (coeffs, relation, rhs) rows, every entry through
    `frac`.  A test that wants a maximum passes the negated objective and
    negates the optimum and the duals it reads back."""
    obj = tuple(map(frac, objective))
    lprows = tuple(LPRow(tuple(map(frac, coeffs)), rel, frac(b)) for coeffs, rel, b in rows)
    lo = None if lower is None else tuple(map(frac, lower))
    up = None if upper is None else tuple(None if x is None else frac(x) for x in upper)
    return LinearProgram(len(obj), obj, lprows, lo, up)
