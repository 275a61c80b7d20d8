"""Exact rational linear programming.

Every LP here minimizes a nonnegative cost c.x over `>=` rows with x >= 0,
so c.x >= 0 wherever the rows hold: the LP is optimal or infeasible, never
unbounded.  It is solved through its transposed dual,
max b.y, a^T y <= c, y >= 0, whose right-hand sides c >= 0 make y = 0
feasible: the dual's tableau starts at its slack basis and the primal
simplex runs from there, with no phase 1.  An unbounded dual is the
certificate that the LP is infeasible.

The tableau is dense, of Python ints: each row, the objective row included,
holds integer numerators over one positive denominator of its own, so a
pivot costs integer multiplications and one gcd per updated row instead of
a `fractions.Fraction` per entry.  Pivot rows are sparse, so a pivot lists
the pivot row's nonzero entries once.  When the pivot row's denominator
divides the entry being eliminated, the common case, the updated row keeps
its denominator and is updated in place at those entries only; otherwise it
is rescaled and rebuilt over its full width.  `solve_lp` turns the input
into integer rows once, on entry: every row in `>=` form, right-hand side
included, over one common denominator, and the objective over another; when
that denominator is 1, the usual case for 0/1 coalition rows, the
numerators are read off directly.  The tableau rows start over that shared
denominator and are reduced lazily: a pivot row is made primitive, and any
other row is gcd-reduced only when a rescale takes its denominator past
`_DEN_BOUND`.  A row scaled by a positive integer has the same signs,
argmin and ratio order, so the pivots, bases and returned rationals are
those of a kernel that reduces every row on every update; only the integers
that represent them differ.  `Fraction`s reappear only in the returned
primal, dual and objective.  Pricing is Dantzig's rule, with the
lexicographic ratio test of Dantzig, Orden and Wolfe, which repeats no
basis.  The dual's optimal basis gives the primal through its surplus
columns.

Every optimal solve is verified in-solver by `_certify`, in integers against
the input rows: primal feasibility and signs, dual signs and feasibility, and
exact equality of the primal and dual objectives; `alpha.ThresholdLP.certify`
calls it too, so the package has one LP optimality check.

The tableau is a stateful object, `_Tableau`: construction sets up the
slack basis, `run` pivots to the end, and `add_column` appends a variable
while keeping its basis.  `TallLP` owns one, over the transposed dual: a
new row of the LP is a new column of the dual, which enters nonbasic at 0,
so the next solve only prices the column and pivots on from the last basis.
The dual's tableau has a row per column of the LP, so an LP with fewer rows
than columns keeps its own tableau instead, of m rows rather than k, and
`_run_dual_simplex` makes the dual's pivots on it, as the dual simplex.
`solve_lp` builds a `TallLP`, solves it once and certifies its pair;
`alpha.ThresholdLP` keeps its own for a tall LP or a cut loop and
certifies the last pair itself.
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

    Entries are ints or Fractions, and the objective's are nonnegative, as
    `solve_lp` requires.  Lower bounds default to 0 and must be nonnegative;
    optional upper bounds are materialized as extra rows by the solver.
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
    status: str  # "optimal" | "infeasible"
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


def _run_simplex(rows: list[list[int]], dens: list[int], basis: list[int]) -> str:
    """Pivot to optimality on the objective row `rows[-1]`.

    Every column but the right-hand side may enter.  Denominators are
    positive, so signs, the pricing argmin and the ratio order are read
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
        best = min(z[:-1], default=0)
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


def _run_dual_simplex(
    rows: list[list[int]], dens: list[int], basis: list[int], k: int, slot: dict[int, int]
) -> str:
    """`_run_simplex` on the transposed dual, made on the LP's own tableau: the same pivots.

    `rows` is the LP's own tableau, whose objective row is nonnegative.
    The dual's reduced costs are this tableau's basic values, its
    right-hand sides this tableau's reduced costs, and its entries the
    negated transpose of this tableau's, so each of its pivots is a dual
    simplex pivot here.  The leaving row holds the most negative basic
    value, ranked on a tie as the dual ranks columns (surplus i as i,
    column j as m + j), and the entering column passes the dual's ratio
    test.  Its lexicographic ties read the dual's entry basis from `slot`,
    which maps each nonbasic column to the dual row that holds its partner
    and is kept across runs.  Returns "optimal", or "infeasible" when the
    leaving row has no negative entry.
    """
    m = len(basis)
    lex = [k] * (len(rows[0]) - 1)  # each column's dual row on entry, k for none
    for j, rho in slot.items():
        lex[j] = rho
    for _ in range(MAX_PIVOTS):
        r, val, vden, key = -1, 0, 1, 0
        for i, bi in enumerate(basis):
            v = rows[i][-1]
            if v < 0:
                d = v * vden - val * dens[i]
                ki = bi - k if bi >= k else m + bi
                if d < 0 or not d and ki < key:
                    r, val, vden, key = i, v, dens[i], ki
        if r < 0:
            return "optimal"
        prow, z = rows[r], rows[-1]
        # the entry rows' columns that are basic now, in dual row order; any other is a unit column
        order = sorted((lex[bi], i) for i, bi in enumerate(basis) if lex[bi] < k)
        enter = -1
        for j in compress(range(len(prow) - 1), prow[:-1]):
            a = -prow[j]
            if a <= 0:
                continue
            if enter < 0:
                enter, at = j, a
                continue
            d = z[j] * at - z[enter] * a
            if not d:
                stop = min(lex[j], lex[enter])
                for rho, i in order:
                    if rho > stop:
                        break
                    d = rows[i][enter] * a - rows[i][j] * at
                    if d:
                        break
                if not d:  # the first unit column of either: 1 over its entry, against 0
                    d = 1 if lex[j] < lex[enter] else -1
            if d < 0:
                enter, at = j, a
        if enter < 0:
            return "infeasible"
        slot[basis[r]] = slot.pop(enter)
        _pivot(rows, dens, basis, r, enter)
    raise BudgetExceededError("pivots", MAX_PIVOTS + 1, MAX_PIVOTS)


# an optimal pair (x, xden, y, yden): integer numerators over positive denominators
_Solution = tuple[list[int], int, list[int], int]


class _Tableau:
    """The simplex tableau of min c.x  s.t.  a x >= b, x >= 0, kept between solves.

    Each row of `a` holds integer numerators over the positive `den`: the
    coefficients, then the right-hand side b.  `c` holds numerators over
    `cden`.  The tableau's columns are the k structural ones, the m surplus
    ones and the right-hand side; its rows are the m constraint rows and the
    objective row, kept last.  Every row enters negated, its surplus basic
    at -b, and the surplus columns cost 0, so the objective row is c as
    given: the slack basis is feasible when b <= 0, and dual feasible when
    c >= 0.  `run` pivots from a feasible basis to the end.  `add_column`
    appends a structural column without leaving the basis, and `add_row` a
    row with its surplus basic, so the next run continues from there.
    """

    def __init__(self, a: list[list[int]], den: int, c: list[int], cden: int) -> None:
        m = len(a)
        k = len(c)
        rows: list[list[int]] = []
        for i, ai in enumerate(a):
            row = [-v for v in ai]
            row[k:k] = [0] * m
            row[k + i] = den
            rows.append(row)
        rows.append(c + [0] * (m + 1))
        self.rows, self.dens, self.basis = rows, [den] * m + [cden], list(range(k, k + m))
        self.k, self.m, self.den, self.cden = k, m, den, cden

    def run(self) -> str:
        """Pivot from the current basis: "optimal" or "unbounded"."""
        return _run_simplex(self.rows, self.dens, self.basis)

    def add_column(self, col: list[int], cost: int) -> None:
        """Append a structural column: entries `col` over `den`, one per row, and `cost` over `cden`.

        The column goes in at index k, after the structural ones, so the
        surplus columns shift by one.  Row i entered negated with its surplus
        column the unit column, so the surplus columns hold B^-1 of the
        negated rows, and the column's tableau entries are -sum_i col_i
        (surplus column i), in integers; the same sum on the objective row
        gives its reduced cost cost - pi.col.  The new variable is nonbasic
        at 0, so the basis and its values stay as they are and remain
        feasible.
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

    def add_row(self, row: list[int]) -> None:
        """Append the row `row` (numerators over `den`, right-hand side last) with its surplus basic.

        The row enters negated, as at construction, its surplus column goes
        in after the others, and each basic structural column is eliminated
        from it, so its surplus is basic at a value of either sign.  The
        objective row is unchanged: the basis stays dual feasible.
        """
        k, m, rows, dens, basis = self.k, self.m, self.rows, self.dens, self.basis
        for r in rows:
            r.insert(k + m, 0)
        new, nden = [-v for v in row[:-1]] + [0] * m + [self.den, -row[-1]], self.den
        for i, bi in enumerate(basis):
            if bi < k and new[bi]:
                new, nden = _eliminate(new, nden, rows[i], _support(rows[i]), dens[i], bi)
        rows.insert(m, new)
        dens.insert(m, nden)
        basis.append(k + m)
        self.m = m + 1

    def solution(self) -> _Solution:
        """The basic solution x and the duals y, read off the objective row's surplus entries."""
        rows, dens, basis, k = self.rows, self.dens, self.basis, self.k
        xden = math.lcm(*(dens[i] for i, bi in enumerate(basis) if bi < k))
        x = [0] * k
        for i, bi in enumerate(basis):
            if bi < k:
                x[bi] = rows[i][-1] * (xden // dens[i])
        return x, xden, rows[-1][k : k + self.m], dens[-1]


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

    `a` and `c` are integer rows as `TallLP` takes them; x holds
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
    # the columns of the coefficients, then b; with no rows, k + 1 empty ones
    cols = list(zip(*a)) or [()] * (len(c) + 1)
    at = [[-v * sa for v in col] + [-cj * sc] for col, cj in zip(cols, c)]
    return at, t, [-v for v in cols[-1]], den


class TallLP:
    """min c.x  s.t.  a x >= b, x >= 0, solved through its transposed dual and kept warm while rows arrive.

    Each row of `a` holds integer numerators over `den`, the right-hand side
    last; `c` holds numerators over `cden`, all nonnegative.  The dual
    max b.y, a^T y <= c has right-hand sides c_j >= 0, so it is feasible at
    y = 0: its simplex starts at the slack basis.  A row added later is a
    new dual column; it enters nonbasic at 0, so the dual basis stays
    feasible and `solve` prices the column and pivots on from the last
    optimal basis.  The caller certifies the pair it returns.

    The dual's tableau has a row per column of `a` and the LP's a row per
    row, each as wide as both counts together, so an LP that opens with
    fewer rows than columns keeps its own tableau for good, makes the
    dual's pivots on it (`_run_dual_simplex`) and takes later rows as
    tableau rows.
    """

    def __init__(self, a: list[list[int]], den: int, c: list[int], cden: int) -> None:
        if min(c, default=0) < 0:
            raise ValueError("costs must be nonnegative")
        self.den = den
        wide = len(a) < len(c)
        # each column's dual row, while the LP keeps its own tableau
        self._slot = {j: j for j in range(len(c))} if wide else None
        self._tableau = _Tableau(*((a, den, c, cden) if wide else _transpose(a, den, c, cden)))

    def add_row(self, row: list[int]) -> None:
        """Add the row `row` (numerators over `den`, right-hand side last)."""
        if self._slot is not None:
            self._tableau.add_row(row)
            return
        # the dual's rows are over lcm(den, cden) and its costs over den (see _transpose)
        s = self._tableau.den // self.den
        self._tableau.add_column([-v * s for v in row[:-1]], -row[-1])

    def solve(self) -> tuple[str, Optional[_Solution]]:
        """"optimal" with the pair (x, xden, y, yden), unchecked, or "infeasible"
        with None: the dual is unbounded."""
        t = self._tableau
        if self._slot is not None:
            if _run_dual_simplex(t.rows, t.dens, t.basis, t.k, self._slot) == "infeasible":
                return "infeasible", None
            return "optimal", t.solution()
        if t.run() == "unbounded":
            return "infeasible", None
        y, yden, x, xden = t.solution()  # the dual program's primal is our dual
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
    Duals of internally generated bound rows are folded away.  The status
    is "optimal" or "infeasible": a nonnegative cost is bounded below by 0.
    Raises ValueError for an entry that is not an int or a Fraction, and
    for a negative cost.
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

    status, sol = TallLP(a, den, c, cden).solve()
    if sol is None:
        return LPSolution(status=status)
    x, xden, y, yden = sol
    # the pair is checked against these rows, not the dual that was pivoted
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
