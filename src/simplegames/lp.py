"""Exact rational linear programming.

Two-phase primal simplex on a dense tableau of Python ints: each row, the
objective row included, holds integer numerators over one positive,
gcd-reduced denominator of its own, so a pivot costs integer multiplications
and one gcd per updated row instead of a `fractions.Fraction` per entry.
Inputs become integer rows once, on entry; `Fraction`s reappear only in the
returned primal, dual and objective.  Pricing is Dantzig's rule, switched
permanently to Bland's rule after a streak of degenerate pivots
(guaranteeing termination).  Duals are read off the final basis through the
artificial columns.

Every optimal solve is verified in-solver, in `Fraction` arithmetic against
the original rows: primal feasibility, dual feasibility, and exact equality
of the primal and dual objectives.  When a model has many more constraints
than variables it is solved through its transposed dual, which produces the
same certified primal/dual pair at a fraction of the pivot cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import BudgetExceededError

Number = Union[int, float, str, Fraction]

LE = "<="
GE = ">="
EQ = "="

MAX_PIVOTS = 200_000
_BLAND_AFTER = 12  # consecutive degenerate pivots before switching rules

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x: Number) -> Fraction:
    """Exact conversion; floats convert via their binary value."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LPRow:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in (LE, GE, EQ):
            raise ValueError(f"relation must be one of <=, >=, =, got {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective over rows of (coeffs, relation, rhs), variables >= lower.

    Lower bounds default to 0 and must be nonnegative; optional upper bounds
    are materialized as extra rows by the solver.
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    rows: tuple[LPRow, ...]
    sense: str = "min"
    lower: Optional[tuple[Fraction, ...]] = None
    upper: Optional[tuple[Optional[Fraction], ...]] = None

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective width does not match num_vars")
        for r in self.rows:
            if len(r.coeffs) != self.num_vars:
                raise ValueError("constraint width does not match num_vars")
        for bounds in (self.lower, self.upper):
            if bounds is not None and len(bounds) != self.num_vars:
                raise ValueError("bounds width does not match num_vars")
        if self.lower is not None and any(lb < 0 for lb in self.lower):
            raise ValueError("negative lower bounds are not supported")


def make_lp(
    objective: Sequence[Number],
    rows: Sequence[tuple[Sequence[Number], str, Number]],
    sense: str = "min",
    lower: Optional[Sequence[Number]] = None,
    upper: Optional[Sequence[Optional[Number]]] = None,
) -> LinearProgram:
    obj = tuple(frac(c) for c in objective)
    lprows = tuple(
        LPRow(tuple(frac(a) for a in coeffs), rel, frac(b)) for coeffs, rel, b in rows
    )
    lo = None if lower is None else tuple(frac(x) for x in lower)
    up = None if upper is None else tuple(None if x is None else frac(x) for x in upper)
    return LinearProgram(len(obj), obj, lprows, sense, lo, up)


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None  # one entry per input row
    objective: Optional[Fraction] = None


class _PivotLimit(BudgetExceededError):
    pass


def _eliminate(
    row: list[int], den: int, prow: list[int], pden: int, col: int
) -> tuple[list[int], int]:
    """row/den minus row[col]/den times prow/pden, whose entry at col is 1.

    Returns the result as gcd-reduced integers over a positive denominator.
    """
    f = row[col]
    g = math.gcd(f, pden)
    s, t = pden // g, f // g
    new = [u * s - t * v for u, v in zip(row, prow)]
    den *= s
    g = math.gcd(den, *new)
    if g > 1:
        return [v // g for v in new], den // g
    return new, den


def _pivot(rows: list[list[int]], dens: list[int], basis: list[int], r: int, col: int) -> None:
    """Make column `col` basic in row `r`.

    Only rows with a nonzero entry in `col` change, the objective row (kept
    last in `rows`) included.
    """
    prow = rows[r]
    if prow[col] < 0:
        prow = [-v for v in prow]
    g = math.gcd(*prow)
    if g > 1:
        prow = [v // g for v in prow]
    # the row's own denominator cancels: the pivot entry becomes pden/pden
    pden = prow[col]
    rows[r] = prow
    dens[r] = pden
    basis[r] = col
    for i, row in enumerate(rows):
        if i != r and row[col]:
            rows[i], dens[i] = _eliminate(row, dens[i], prow, pden, col)


def _run_simplex(rows: list[list[int]], dens: list[int], basis: list[int], allowed: int) -> str:
    """Pivot to optimality on the objective row `rows[-1]`.

    `allowed` is the number of admissible entering columns.  Denominators
    are positive, so signs, the pricing argmin and the ratio order are read
    from the integer numerators alone.
    """
    z = rows[-1]
    m = len(basis)
    bland = False
    streak = 0
    for _ in range(MAX_PIVOTS):
        enter = -1
        if bland:
            for j in range(allowed):
                if z[j] < 0:
                    enter = j
                    break
        else:
            best = min(z[:allowed], default=0)
            if best < 0:
                enter = z.index(best)
        if enter < 0:
            return "optimal"
        leave = -1
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                # row[-1]/a against the best ratio, cross-multiplied
                if leave < 0:
                    leave, top, bot = i, row[-1], a
                else:
                    lhs = row[-1] * bot
                    rhs = top * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, top, bot = i, row[-1], a
        if leave < 0:
            return "unbounded"
        if top == 0:
            streak += 1
            if streak >= _BLAND_AFTER:
                bland = True
        else:
            streak = 0
        _pivot(rows, dens, basis, leave, enter)
        z = rows[-1]
    raise _PivotLimit(f"simplex exceeded {MAX_PIVOTS} pivots")


def _price_out(
    rows: list[list[int]], dens: list[int], basis: list[int], cost: list[Union[int, Fraction]]
) -> None:
    """Append the objective row for `cost` reduced against the current basis."""
    zden = math.lcm(*(v.denominator for v in cost))
    z = [v.numerator * (zden // v.denominator) for v in cost]
    for i, bi in enumerate(basis):
        # basic columns are unit columns: this leaves z's other basic entries alone
        if z[bi]:
            z, zden = _eliminate(z, zden, rows[i], dens[i], bi)
    rows.append(z)
    dens.append(zden)


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
    rows: list[list[int]] = []
    dens: list[int] = []
    sign: list[int] = []
    for i in range(m):
        s = 1 if b[i] >= 0 else -1
        sign.append(s)
        ai = a[i]
        den = math.lcm(b[i].denominator, *(v.denominator for v in ai))
        row = [s * v.numerator * (den // v.denominator) for v in ai]
        row += [0] * (ncols - k)
        row[k + i] = -s * den
        row[k + m + i] = den
        row[-1] = s * b[i].numerator * (den // b[i].denominator)
        rows.append(row)
        dens.append(den)
    basis = [k + m + i for i in range(m)]

    # phase 1: minimize the artificial total
    _price_out(rows, dens, basis, [0] * (k + m) + [1] * m + [0])
    _run_simplex(rows, dens, basis, k + m)
    if rows[-1][-1]:
        return "infeasible", None, None, None
    rows.pop()  # the phase-1 objective is spent; drive-out pivots skip it
    dens.pop()

    # drive basic artificials out (rows that resist are redundant and inert)
    for i in range(m):
        if basis[i] >= k + m:
            row = rows[i]
            for j in range(k + m):
                if row[j]:
                    _pivot(rows, dens, basis, i, j)
                    break

    # phase 2
    _price_out(rows, dens, basis, list(c) + [0] * (ncols - k))
    status = _run_simplex(rows, dens, basis, k + m)
    if status == "unbounded":
        return "unbounded", None, None, None

    x = [_ZERO] * k
    for i, bi in enumerate(basis):
        if bi < k:
            x[bi] = Fraction(rows[i][-1], dens[i])
    z, zden = rows[-1], dens[-1]
    y = [Fraction(-z[k + m + i] * sign[i], zden) for i in range(m)]
    obj = Fraction(-z[-1], zden)

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


def _solve_core_transposed(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> tuple[str, Optional[list[Fraction]], Optional[list[Fraction]], Optional[Fraction]]:
    """Solve min c.x, a x >= b, x >= 0 through its dual max b.y, a^T y <= c."""
    m = len(a)
    k = len(c)
    at = [[-a[i][j] for i in range(m)] for j in range(k)]
    bt = [-cj for cj in c]
    ct = [-bi for bi in b]
    status, yt, xt, objt = _core_solve(at, bt, ct)
    if status == "optimal":
        assert yt is not None and xt is not None and objt is not None
        # the dual program's primal is our dual and vice versa
        return "optimal", xt, yt, -objt
    if status == "unbounded":
        # dual unbounded and feasible: the original program is infeasible
        return "infeasible", None, None, None
    # dual infeasible: original is unbounded or infeasible; caller retries directly
    return "ambiguous", None, None, None


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve exactly.  Deterministic for a fixed input.

    Dual values follow the textbook convention for the stated sense: for a
    minimization, >= rows have duals >= 0, <= rows have duals <= 0 and
    equality rows are free; signs flip for a maximization.  Duals of
    internally generated bound rows are folded away.
    """
    k = lp.num_vars
    minimize = lp.sense == "min"
    c = list(lp.objective) if minimize else [-v for v in lp.objective]

    rows: list[tuple[tuple[Fraction, ...], str, Fraction]] = [
        (r.coeffs, r.relation, r.rhs) for r in lp.rows
    ]
    n_user = len(rows)
    if lp.lower is not None:
        for j, lb in enumerate(lp.lower):
            if lb > 0:
                unit = tuple(_ONE if t == j else _ZERO for t in range(k))
                rows.append((unit, GE, lb))
    if lp.upper is not None:
        for j, ub in enumerate(lp.upper):
            if ub is not None:
                unit = tuple(_ONE if t == j else _ZERO for t in range(k))
                rows.append((unit, LE, ub))

    # canonical core: all rows as >=, equalities split in two
    a: list[list[Fraction]] = []
    b: list[Fraction] = []
    origin: list[tuple[int, int]] = []  # (row index, +1/-1 orientation)
    for idx, (coeffs, rel, rhs) in enumerate(rows):
        if rel in (GE, EQ):
            a.append(list(coeffs))
            b.append(rhs)
            origin.append((idx, 1))
        if rel in (LE, EQ):
            a.append([-v for v in coeffs])
            b.append(-rhs)
            origin.append((idx, -1))

    status, x, ycore, obj = (
        _solve_core_transposed(a, b, c) if len(a) > k else ("ambiguous", None, None, None)
    )
    if status == "ambiguous":
        status, x, ycore, obj = _core_solve(a, b, c)

    if status != "optimal":
        return LPSolution(status=status)
    assert x is not None and ycore is not None and obj is not None

    duals = [_ZERO] * len(rows)
    for (idx, orient), yv in zip(origin, ycore):
        duals[idx] += yv if orient == 1 else -yv
    # check the extended system's dual objective before dropping bound rows
    if sum(d * r[2] for d, r in zip(duals, rows)) != obj:
        raise AssertionError("dual objective mismatch on the extended system")

    if not minimize:
        obj = -obj
        duals = [-d for d in duals]
    return LPSolution(
        status="optimal",
        primal=tuple(x),
        dual=tuple(duals[:n_user]),
        objective=obj,
    )


def in_convex_hull(
    point: Sequence[Number], generators: Sequence[Sequence[Number]]
) -> Optional[tuple[Fraction, ...]]:
    """Exact convex-combination weights for `point` over `generators`, or None.

    Feasibility program: lambda >= 0, sum lambda = 1, sum lambda_i g_i = point.
    """
    p = [frac(v) for v in point]
    gens = [[frac(v) for v in g] for g in generators]
    d = len(p)
    for g in gens:
        if len(g) != d:
            raise ValueError("generator dimension does not match the point")
    if not gens:
        return None
    m = len(gens)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for t in range(d):
        rows.append(([g[t] for g in gens], EQ, p[t]))
    rows.append(([_ONE] * m, EQ, _ONE))
    lp = make_lp([0] * m, rows, sense="min")
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return None
    lam = sol.primal
    assert lam is not None
    if sum(lam) != 1 or any(v < 0 for v in lam):
        raise AssertionError("convex-hull weights are not a probability vector")
    for t in range(d):
        if sum(l * g[t] for l, g in zip(lam, gens)) != p[t]:
            raise AssertionError("convex-hull weights do not reproduce the point")
    return lam
