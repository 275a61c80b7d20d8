"""Exact rational linear programming.

Two-phase primal simplex on a dense tableau of Python ints: each row, the
objective row included, holds integer numerators over one positive
denominator of its own, so a pivot costs integer multiplications and one gcd
per updated row instead of a `fractions.Fraction` per entry.  Pivot rows are
sparse, so a pivot lists the pivot row's nonzero entries once.  When the
pivot row's denominator divides the entry being eliminated, the common case,
the updated row keeps its denominator and is updated in place at those
entries only; otherwise it is rescaled and rebuilt over its full width.
`solve_lp` turns the input into integer rows once, on entry: every row in
`>=` form, right-hand side included, over one common denominator, and the
objective over another; when that denominator is 1, the usual case for 0/1
coalition rows, the numerators are read off directly.  The tableau rows
start over that shared denominator and are reduced lazily: a pivot row is
made primitive, and any other row is gcd-reduced only when a rescale takes
its denominator past `_DEN_BOUND`.  A row scaled by a positive integer has
the same signs, argmin and ratio order, so the pivots, bases and returned
rationals are those of a kernel that reduces every row on every update;
only the integers that represent them differ.  `Fraction`s reappear only in
the returned primal, dual and objective.  A row whose right-hand
side is <= 0 starts with its surplus basic, so phase 1 runs only for the
others.
Pricing is Dantzig's rule, with the lexicographic ratio test of Dantzig,
Orden and Wolfe, which repeats no basis.  Duals are read off the final
basis through the surplus columns.

Every optimal solve is verified in-solver by `_certify`, in integers against
the input rows: primal feasibility and signs, dual signs and feasibility, and
exact equality of the primal and dual objectives; `alpha.ThresholdLP.certify`
calls it too, so the package has one LP optimality check.  A model with more
constraints than variables is solved as a `TallLP`, through its transposed
dual built from the same integer rows, which gives the same primal/dual pair
at a fraction of the pivot cost; when that dual is infeasible, possible only
with a negative cost, `solve_lp` retries the model directly.

The tableau is a stateful object, `_Tableau`: construction runs phase 1,
`run` runs phase 2, and `add_column` appends a variable to a solved tableau
while keeping its basis.  `_core_solve` uses it once and drops it.  `TallLP`
keeps it: a new row of a tall LP is a new column of the dual, which enters
nonbasic at 0, so the next solve only prices the column and pivots on from
the last basis.  With nonnegative costs the dual is feasible at 0 and needs
no phase 1.  `TallLP` returns each solve unchecked: `solve_lp` and
`alpha.ThresholdLP.certify` certify the pairs they keep.  `ThresholdLP`
builds its own `TallLP` for a tall LP, over its integer rows, rather than
going through `solve_lp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import attrgetter, mul
from typing import Optional, Sequence, Union

from .errors import BudgetExceededError, CertificateError

Number = Union[int, float, str, Fraction]
Rational = Union[int, Fraction]

LE = "<="
GE = ">="
EQ = "="

MAX_PIVOTS = 200_000

# a rescaled row whose denominator passes this bound is gcd-reduced: one
# machine word, so a row is reduced only when its integers start to grow
_DEN_BOUND = 1 << 64

_ZERO = Fraction(0)
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def frac(x: Number) -> Fraction:
    """Exact conversion; floats convert via their binary value.

    Raises ValueError for anything that is not a finite rational: a NaN or
    infinite float, or a string such as "1/0" or "abc"."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (OverflowError, ZeroDivisionError, ValueError, TypeError) as exc:
        raise ValueError(f"{x!r} is not a finite rational") from exc


def rat(v: Fraction) -> str:
    """The exact "p/q" string that every JSON output writes for a rational."""
    return f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class LPRow:
    coeffs: tuple[Rational, ...]
    relation: str
    rhs: Rational

    def __post_init__(self) -> None:
        if self.relation not in (LE, GE, EQ):
            raise ValueError(f"relation must be one of <=, >=, =, got {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x over rows of (coeffs, relation, rhs), variables >= lower.

    Entries are ints or Fractions.  Lower bounds default to 0 and must be
    nonnegative; optional upper bounds are materialized as extra rows by the
    solver.
    """

    num_vars: int
    objective: tuple[Rational, ...]
    rows: tuple[LPRow, ...]
    lower: Optional[tuple[Fraction, ...]] = None
    upper: Optional[tuple[Optional[Fraction], ...]] = None

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective width does not match num_vars")
        for r in self.rows:
            if len(r.coeffs) != self.num_vars:
                raise ValueError("constraint width does not match num_vars")
        for bounds in (self.lower, self.upper):
            if bounds is not None and len(bounds) != self.num_vars:
                raise ValueError("bounds width does not match num_vars")
        if not all(isinstance(lb, (int, Fraction)) for lb in self.lower or ()):
            raise ValueError("LP entries must be ints or Fractions")
        if any(lb < 0 for lb in self.lower or ()):
            raise ValueError("negative lower bounds are not supported")


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None  # one entry per input row
    objective: Optional[Fraction] = None


def _support(row: list[int]) -> list[tuple[int, int]]:
    """The nonzero entries of `row` as (index, value) pairs."""
    return list(compress(enumerate(row), row))


def _bounded(row: list[int], den: int) -> tuple[list[int], int]:
    """row/den, gcd-reduced when den has passed `_DEN_BOUND`."""
    if den > _DEN_BOUND:
        g = math.gcd(den, *row)
        if g > 1:
            return [v // g for v in row], den // g
    return row, den


def _eliminate(
    row: list[int], den: int, prow: list[int], support: list[tuple[int, int]], pden: int, col: int
) -> tuple[list[int], int]:
    """row/den minus row[col]/den times prow/pden, whose entry at col is 1.

    `support` holds prow's nonzero entries.  With g = gcd(row[col], pden),
    the result is (row * pden/g - row[col]/g * prow) over den * pden/g.
    When pden/g is 1, the common case, the row keeps its denominator and is
    updated in place over the support only, with no gcd.  Otherwise it is
    rebuilt over its full width and gcd-reduced only if its new denominator
    passes `_DEN_BOUND`.  The row's values are exact either way; it may
    carry a common factor with its denominator.
    """
    f = row[col]
    g = math.gcd(f, pden)
    s, t = pden // g, f // g
    if s == 1:  # pden divides f: the row keeps its denominator
        for j, v in support:
            row[j] -= t * v
        return row, den
    return _bounded([u * s - t * v for u, v in zip(row, prow)], den * s)


def _pivot(rows: list[list[int]], dens: list[int], basis: list[int], r: int, col: int) -> None:
    """Make column `col` basic in row `r`.

    The pivot row's nonzero entries are found once; its sign and gcd are
    normalised over them, in place.  Only rows with a nonzero entry in `col`
    change, the objective row (kept last in `rows`) included, and each is
    updated by `_eliminate` over those entries when its denominator needs no
    rescale.
    """
    prow = rows[r]
    support = _support(prow)
    g = math.gcd(*[v for _, v in support])
    if prow[col] < 0:
        g = -g
    if g != 1:
        support = [(j, v // g) for j, v in support]
        for j, v in support:
            prow[j] = v
    # the row's own denominator cancels: the pivot entry becomes pden/pden
    pden = prow[col]
    dens[r] = pden
    basis[r] = col
    for i, row in enumerate(rows):
        if i != r and row[col]:
            rows[i], dens[i] = _eliminate(row, dens[i], prow, support, pden, col)


def _run_simplex(rows: list[list[int]], dens: list[int], basis: list[int], allowed: int) -> str:
    """Pivot to optimality on the objective row `rows[-1]`.

    `allowed` is the number of admissible entering columns.  Denominators
    are positive, so signs, the pricing argmin and the ratio order are read
    from the integer numerators alone.  A ratio tie goes to the row whose
    entries in the entry basis's columns, over its entering entry, are
    lexicographically least.  Those columns start as a positive diagonal, so
    no tie survives, every row stays lexicographically positive and no basis
    repeats.
    """
    m = len(basis)
    lex = list(basis)
    for _ in range(MAX_PIVOTS):
        z = rows[-1]
        best = min(z[:allowed], default=0)
        if best >= 0:
            return "optimal"
        enter = z.index(best)
        leave = -1
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, top, bot = i, row, a
                    continue
                # row/a against top/bot, cross-multiplied: the rhs, then the lex columns
                d = row[-1] * bot - top[-1] * a
                if not d:
                    for j in lex:
                        d = row[j] * bot - top[j] * a
                        if d:
                            break
                if d < 0:
                    leave, top, bot = i, row, a
        if leave < 0:
            return "unbounded"
        _pivot(rows, dens, basis, leave, enter)
    raise BudgetExceededError("pivots", MAX_PIVOTS + 1, MAX_PIVOTS)


def _price_out(
    rows: list[list[int]], dens: list[int], basis: list[int], z: list[int], zden: int
) -> None:
    """Append the objective row z/zden reduced against the current basis."""
    for i, bi in enumerate(basis):
        # basic columns are unit columns: this leaves z's other basic entries alone
        if z[bi]:
            z, zden = _eliminate(z, zden, rows[i], _support(rows[i]), dens[i], bi)
    rows.append(z)
    dens.append(zden)


# an optimal pair (x, xden, y, yden): integer numerators over positive denominators
_Solution = tuple[list[int], int, list[int], int]


class _Tableau:
    """The simplex tableau of min c.x  s.t.  a x >= b, x >= 0, kept between solves.

    Each row of `a` holds integer numerators over the positive `den`: the
    coefficients, then the right-hand side b.  `c` holds numerators over
    `cden`.  The tableau's columns are the k structural ones, the m surplus
    ones and the right-hand side; its rows are the m constraint rows and the
    objective row, kept last.  A row with b <= 0 enters negated, its surplus
    basic at -b.  A row with b > 0 gets an artificial column, basic at b,
    for phase 1 only.

    Construction runs phase 1 when there are artificials, drives basic ones
    out, deletes their columns and prices the phase-2 objective; `feasible`
    tells whether phase 1 reached 0.  `run` pivots phase 2 to the end.
    `add_column` appends a structural column to a feasible tableau without
    leaving its basis, so `run` continues from there.
    """

    def __init__(self, a: list[list[int]], den: int, c: list[int], cden: int) -> None:
        m = len(a)
        k = len(c)
        positive = [i for i, ai in enumerate(a) if ai[-1] > 0]
        rows: list[list[int]] = []
        for i, ai in enumerate(a):
            s = 1 if ai[-1] > 0 else -1
            row = [s * v for v in ai]
            row[k:k] = [0] * (m + len(positive))  # surplus | artificial
            row[k + i] = -s * den
            rows.append(row)
        basis = list(range(k, k + m))
        for t, i in enumerate(positive):
            rows[i][k + m + t] = den
            basis[i] = k + m + t
        dens = [den] * m
        self.rows, self.dens, self.basis = rows, dens, basis
        self.k, self.m, self.den, self.cden = k, m, den, cden
        self.feasible = True

        if positive:
            # phase 1: minimize the artificial total
            _price_out(rows, dens, basis, [0] * (k + m) + [1] * len(positive) + [0], 1)
            _run_simplex(rows, dens, basis, k + m)
            self.feasible = not rows[-1][-1]
            if not self.feasible:
                return
            rows.pop()  # the phase-1 objective is spent; drive-out pivots skip it
            dens.pop()

            # drive basic artificials out: each row has a surplus column of its
            # own, so no row of the tableau is zero outside the artificials and all go
            for i in range(m):
                if basis[i] >= k + m:
                    row = rows[i]
                    for j in range(k + m):
                        if row[j]:
                            _pivot(rows, dens, basis, i, j)
                            break
            for row in rows:
                del row[k + m : -1]

        # the phase-2 objective
        _price_out(rows, dens, basis, c + [0] * (m + 1), cden)

    def run(self) -> str:
        """Phase 2 from the current basis: "optimal" or "unbounded"."""
        return _run_simplex(self.rows, self.dens, self.basis, self.k + self.m)

    def add_column(self, col: list[int], cost: int) -> None:
        """Append a structural column: entries `col` over `den`, one per row, and `cost` over `cden`.

        The column goes in at index k, after the structural ones, so the
        surplus columns shift by one.  In every row, the objective row
        included, an artificial column of row i would equal row i's surplus
        column negated if the row entered as is, and the surplus column itself
        if it entered negated.  So the column's tableau entries, B^-1 applied
        to col with the rows' signs, are -sum_i col_i (surplus column i), in
        integers, and the same sum on the objective row gives its reduced cost
        cost - pi.col.  The new variable is nonbasic at 0, so the basis and
        its values stay as they are and remain feasible.
        """
        k, m, rows, dens = self.k, self.m, self.rows, self.dens
        nonzero = [(k + i, v) for i, v in enumerate(col) if v]
        for r, row in enumerate(rows):
            num = -sum(row[j] * v for j, v in nonzero)
            if r == m:  # the objective row: cost/cden + num/(zden * den)
                num, f = cost * dens[r] * self.den + num * self.cden, self.den * self.cden
            else:
                f = self.den
            # num / f over the row's own denominator; rescale the row when f does not divide
            g = math.gcd(num, f)
            s = f // g
            if s == 1:
                row.insert(k, num // g)
            else:
                row = [v * s for v in row]
                row.insert(k, num // g)
                rows[r], dens[r] = _bounded(row, dens[r] * s)
        self.basis = [b + (b >= k) for b in self.basis]
        self.k = k + 1

    def solution(self) -> _Solution:
        """The basic solution x and the duals y, read off the objective row's surplus entries."""
        rows, dens, basis, k = self.rows, self.dens, self.basis, self.k
        xden = math.lcm(*(dens[i] for i, bi in enumerate(basis) if bi < k))
        x = [0] * k
        for i, bi in enumerate(basis):
            if bi < k:
                x[bi] = rows[i][-1] * (xden // dens[i])
        return x, xden, rows[-1][k : k + self.m], dens[-1]


def _core_solve(
    a: list[list[int]], den: int, c: list[int], cden: int
) -> tuple[str, Optional[_Solution]]:
    """min c.x  s.t.  a x >= b, x >= 0, from a fresh `_Tableau`.

    Returns the status and, when optimal, the basic solution x with the dual
    y read off the final basis (y >= 0, y^T a <= c, y.b == c.x); `_certify`
    checks them.
    """
    tableau = _Tableau(a, den, c, cden)
    if not tableau.feasible:
        return "infeasible", None
    if tableau.run() == "unbounded":
        return "unbounded", None
    return "optimal", tableau.solution()


def _certify(
    a: list[list[int]],
    den: int,
    c: list[int],
    cden: int,
    x: list[int],
    xden: int,
    y: list[int],
    yden: int,
) -> list[int]:
    """Raise unless x and y are optimal for min c.x, a x >= b, x >= 0 and its dual.

    `a` and `c` are integer rows as `_core_solve` takes them; x holds
    numerators over `xden` and y over `yden`, all denominators positive.
    Each inequality is cleared of its denominators, so the check is exact in
    integers.  A row's activity a_i.x is one `sum(map(mul, row, x))`, which
    stops at the end of x, before the right-hand side.  Returns each row's
    slack a_i.x - b_i, over den * xden.
    """
    k = len(c)
    if len(x) != k or len(y) != len(a):
        raise CertificateError("simplex returned a solution of the wrong shape")
    if min(x, default=0) < 0:
        raise CertificateError("simplex returned a negative primal")
    slack = []
    for row, yi in zip(a, y):
        s = sum(map(mul, row, x)) - row[-1] * xden
        if s < 0:
            raise CertificateError("simplex returned a primal-infeasible point")
        if yi < 0:
            raise CertificateError("simplex returned a negative dual")
        slack.append(s)
    ys = [(row, yi) for row, yi in zip(a, y) if yi]
    yta = [0] * k  # y^T a, over yden * den
    for row, yi in ys:
        yta = [t + yi * v for t, v in zip(yta, row)]
    scale = den * yden
    for cj, t in zip(c, yta):
        if cj * scale < t * cden:
            raise CertificateError("simplex returned a dual-infeasible vector")
    if sum(map(mul, c, x)) * scale != sum(row[-1] * yi for row, yi in ys) * cden * xden:
        raise CertificateError("strong duality failed (primal and dual objectives differ)")
    return slack


def _transpose(
    a: list[list[int]], den: int, c: list[int], cden: int
) -> tuple[list[list[int]], int, list[int], int]:
    """The dual max b.y, a^T y <= c of min c.x, a x >= b, x >= 0, as `_Tableau` takes it.

    Row j is -(column j of a).y >= -c_j, all over t = lcm(den, cden), and the
    cost is -b over den.  A row added to `a` later is a column of the dual:
    its coefficients negated and scaled by t/den, with cost -(its b).
    """
    t = math.lcm(den, cden)
    sa, sc = t // den, t // cden
    cols = list(zip(*a))  # the columns of the coefficients, then b
    at = [[-v * sa for v in col] + [-cj * sc] for col, cj in zip(cols, c)]
    return at, t, [-v for v in cols[-1]], den


class TallLP:
    """min c.x  s.t.  a x >= b, x >= 0, solved through its transposed dual and kept warm while rows arrive.

    `a` and `c` are integer rows as `_core_solve` takes them; any cost may
    be negative.  The dual max b.y, a^T y <= c has right-hand sides -c_j, so
    when c >= 0, as for every LP of the package, it is feasible at y = 0: its
    tableau starts at the slack basis and no phase 1 runs.  A row added later
    is a new dual column; it enters nonbasic at 0, so a feasible dual basis
    stays feasible and `solve` prices the column and pivots on from the last
    optimal basis.  The caller certifies the pair it returns.
    """

    def __init__(self, a: list[list[int]], den: int, c: list[int], cden: int) -> None:
        self.den = den
        self._tableau = _Tableau(*_transpose(a, den, c, cden))

    def add_row(self, row: list[int]) -> None:
        """Add the row `row` (numerators over `den`, right-hand side last) as a dual column."""
        # the dual's rows are over lcm(den, cden) and its costs over den (see _transpose)
        s = self._tableau.den // self.den
        self._tableau.add_column([-v * s for v in row[:-1]], -row[-1])

    def solve(self) -> tuple[str, Optional[_Solution]]:
        """"optimal" with the pair (x, xden, y, yden), unchecked; "infeasible" for an
        unbounded dual; "ambiguous" for an infeasible one (unbounded or infeasible)."""
        if not self._tableau.feasible:
            return "ambiguous", None
        if self._tableau.run() == "unbounded":
            return "infeasible", None
        y, yden, x, xden = self._tableau.solution()  # the dual program's primal is our dual
        return "optimal", (x, xden, y, yden)


def _numerators(values: Sequence[Rational], den: int) -> list[int]:
    """Integer numerators of `values` over `den`, a common denominator of them."""
    return [v.numerator * (den // v.denominator) for v in values]


def common_numerators(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Integer numerators of `values` over den, the lcm of their denominators, and den."""
    den = math.lcm(*map(_denominator, values))
    if den == 1:
        return list(map(_numerator, values)), 1
    return _numerators(values, den), den


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Minimize exactly.  Deterministic for a fixed input.

    Dual values follow the textbook convention for a minimization: >= rows
    have duals >= 0, <= rows have duals <= 0 and equality rows are free.
    Duals of internally generated bound rows are folded away.  Raises
    ValueError for an entry that is not an int or a Fraction.
    """
    k = lp.num_vars
    rows: list[tuple[Sequence[Rational], str, Rational]] = [
        (r.coeffs, r.relation, r.rhs) for r in lp.rows
    ]
    n_user = len(rows)
    if lp.lower is not None:
        for j, lb in enumerate(lp.lower):
            if lb > 0:
                rows.append((tuple(int(t == j) for t in range(k)), GE, lb))
    if lp.upper is not None:
        for j, ub in enumerate(lp.upper):
            if ub is not None:
                rows.append((tuple(int(t == j) for t in range(k)), LE, ub))

    # canonical core: all rows as >=, equalities split in two, each row's
    # numerators (right-hand side last) over one common denominator
    try:
        c, cden = common_numerators(lp.objective)
        den = math.lcm(
            *map(_denominator, chain.from_iterable([coeffs for coeffs, _, _ in rows])),
            *[rhs.denominator for _, _, rhs in rows],
        )
    except AttributeError as exc:  # only ints and Fractions have denominators
        raise ValueError("LP entries must be ints or Fractions") from exc
    a: list[list[int]] = []
    b: list[int] = []  # each row's right-hand side, over den
    origin: list[tuple[int, int]] = []  # (row index, +1/-1 orientation)
    for idx, (coeffs, rel, rhs) in enumerate(rows):
        if den == 1:
            row = [*map(_numerator, coeffs), rhs.numerator]
        else:
            row = _numerators((*coeffs, rhs), den)
        b.append(row[-1])
        if rel in (GE, EQ):
            a.append(row)
            origin.append((idx, 1))
        if rel in (LE, EQ):
            a.append([-v for v in row])
            origin.append((idx, -1))

    status, sol = TallLP(a, den, c, cden).solve() if len(a) > k else ("ambiguous", None)
    if status == "ambiguous":
        status, sol = _core_solve(a, den, c, cden)

    if status != "optimal":
        return LPSolution(status=status)
    assert sol is not None
    x, xden, y, yden = sol
    # the certificate is checked against these rows whichever program was pivoted
    _certify(a, den, c, cden, x, xden, y, yden)
    cx = sum(map(mul, c, x))  # the objective, over cden * xden

    folded = [0] * len(rows)  # the duals, over yden
    for (idx, orient), v in zip(origin, y):
        folded[idx] += orient * v
    # check the extended system's dual objective b.y == c.x, cleared of its
    # denominators, before dropping bound rows
    if sum(map(mul, folded, b)) * cden * xden != cx * yden * den:
        raise CertificateError("dual objective mismatch on the extended system")

    return LPSolution(
        status="optimal",
        primal=tuple(Fraction(v, xden) if v else _ZERO for v in x),
        dual=tuple(Fraction(v, yden) if v else _ZERO for v in folded[:n_user]),
        objective=Fraction(cx, cden * xden),
    )


def in_convex_hull(
    point: Sequence[Number], generators: Sequence[Sequence[Number]]
) -> Optional[tuple[Fraction, ...]]:
    """Exact convex-combination weights for `point` over `generators`, or None.

    Feasibility program: lambda >= 0, sum lambda = 1, sum lambda_i g_i = point.
    Integer generator entries (the usual 0/1 vectors) stay ints, and the
    weights are checked in integers over their common denominator.
    """
    p = [frac(v) for v in point]
    gens = [[v if isinstance(v, int) else frac(v) for v in g] for g in generators]
    d = len(p)
    for g in gens:
        if len(g) != d:
            raise ValueError("generator dimension does not match the point")
    if not gens:
        return None
    m = len(gens)
    rows = [LPRow(col, EQ, pt) for col, pt in zip(zip(*gens), p)]
    rows.append(LPRow((1,) * m, EQ, 1))
    sol = solve_lp(LinearProgram(m, (0,) * m, tuple(rows)))
    if sol.status != "optimal":
        return None
    lam = sol.primal
    assert lam is not None
    w, wden = common_numerators(lam)
    if sum(w) != wden or min(w) < 0:
        raise CertificateError("convex-hull weights are not a probability vector")
    used = [(wi, g) for wi, g in zip(w, gens) if wi]
    for t, pt in enumerate(p):
        if sum(wi * g[t] for wi, g in used) * pt.denominator != pt.numerator * wden:
            raise CertificateError("convex-hull weights do not reproduce the point")
    return lam
