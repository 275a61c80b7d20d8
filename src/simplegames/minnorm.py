"""Exact minimum-norm point of the winning-payoff polyhedron, with a certificate.

Q is the set of payoffs p >= 0 giving every minimal winning coalition at
least 1; A holds the coalitions' 0/1 incidence rows.  The KKT conditions of
min ||p||^2 over Q give p* = A^T mu with mu >= 0 and 1^T mu = ||p*||^2, so
q* = p*/||p*||^2 is a convex combination of the rows with <q*, r> >= ||q*||^2
for every row r (Fulkerson's blocker, read through the norm): q* is the
minimum-norm point of conv(rows of A), and p* = q*/||q*||^2.

q* comes from Wolfe's nearest-point algorithm ("Finding the nearest point in a
polytope", Math. Prog. 1976) in exact rationals.  The linear oracle scans the
rows for the least sum of x over a coalition; the affine minimizer of the
corral S solves the bordered Gram system [[G, -1], [1^T, 0]], G holding the
intersection sizes in S; minor cycles drop points whose weight reaches 0.  It
stops when min_r <x, r> >= ||x||^2, compared exactly.  S stays affinely
independent and ||x|| falls at every major cycle, so the loop is finite.

One exact LP certifies p*: the gap <p, p> - min_{q in Q} <p, q> is exactly 0.

`tightness_check` decides alpha = n/4 through (2/n)*ones in conv(winning) and
(1/2)*ones in conv(losing) without listing all 2^n coalitions.  For
0 <= x <= 1, x is in conv(winning) iff some y <= x is in conv(minimal
winning): shrink each coalition to a minimal winning subset, and back, add
player j to part of the weight of coalitions without j until y_j = x_j.
Mirrored, x is in conv(losing) iff some y >= x is in conv(maximal losing).
The certified weights come back sparse, as {mask: weight} dicts over the
support of each combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from . import budgets
from .errors import BudgetExceededError, CertificateError
from .alpha import mask_sum
from .games import Coalition, SimpleGame, maximal_losing, winning_table
from .lp import EQ, GE, LE, LPRow, LinearProgram, common_numerators, frac, in_convex_hull, rat, solve_lp

DEFAULT_TOLERANCE = 1e-6
MAX_ITERATIONS = 100_000

# payoffs are handled as exact rationals; sequences of ints/floats are
# converted on entry (floats exactly, via their binary value)
PayoffVector = tuple[Fraction, ...]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class MinNormCertificate:
    point: tuple[Fraction, ...]
    squared_norm: Fraction
    lp_value: Fraction  # min over Q of <point, q>
    gap: Fraction
    certified: bool
    gap_history: tuple[Fraction, ...] = ()  # the one certified gap, (0,) at p*

    def to_json_dict(self) -> dict:
        return {
            "point": [rat(v) for v in self.point],
            "squared_norm": rat(self.squared_norm),
            "lp_value": rat(self.lp_value),
            "gap": rat(self.gap),
            "certified": self.certified,
        }


def is_feasible(game: SimpleGame, payoff: Sequence) -> bool:
    """True iff payoff >= 0 and every minimal winning coalition gets at least 1."""
    p = [frac(v) for v in payoff]
    if len(p) != game.n:
        raise ValueError(f"payoff has {len(p)} entries for a {game.n}-player game")
    if any(v < 0 for v in p):
        return False
    nums, den = common_numerators(p)
    return all(mask_sum(nums, w.mask) >= den for w in game.minimal_winning)


def _min_over_q(game: SimpleGame, direction: Sequence[Fraction]) -> Fraction:
    """Exact value of min <direction, q> over Q."""
    incidence = lambda mask: tuple(1 if mask >> j & 1 else 0 for j in range(game.n))
    rows = tuple(LPRow(incidence(w.mask), GE, 1) for w in game.minimal_winning)
    sol = solve_lp(LinearProgram(game.n, tuple(direction), rows))
    if sol.status != "optimal":
        raise CertificateError(f"oracle LP should be optimal, got {sol.status}")
    return sol.objective


def _affine_minimizer(gram: list[list[int]]) -> tuple[list[int], int]:
    """Weights of the least-norm point in the affine hull of a corral.

    Solves [[G, -1], [1^T, 0]] [a; c] = [0; 1] for the integer Gram matrix G
    by fraction-free (Bareiss) elimination with row exchanges and returns the
    numerators of a over one positive denominator.  Every division is exact:
    each entry is a minor of the system, and det * a is integral by Cramer's
    rule.
    """
    k = len(gram)
    size = k + 1
    m = [row + [-1, 0] for row in gram]
    m.append([1] * k + [0, 1])
    prev = 1
    for c in range(size):
        r = next((r for r in range(c, size) if m[r][c]), None)
        if r is None:
            raise CertificateError("Wolfe corral is affinely dependent (singular bordered Gram system)")
        m[c], m[r] = m[r], m[c]
        prow = m[c]
        p = prow[c]
        for row in m[c + 1 :]:
            f = row[c]
            for j in range(c + 1, size + 1):
                row[j] = (row[j] * p - f * prow[j]) // prev
            row[c] = 0
        prev = p
    det = prev
    z = [0] * size
    for i in range(size - 1, -1, -1):
        row = m[i]
        z[i] = (det * row[size] - sum(row[j] * z[j] for j in range(i + 1, size))) // row[i]
    if det < 0:
        det, z = -det, [-v for v in z]
    a = z[:k]
    g = gcd(det, *a)
    return [v // g for v in a], det // g


def _wolfe(rows: Sequence[int], n: int, max_iterations: int) -> tuple[list[int], int]:
    """Exact least-norm point of the convex hull of the 0/1 vectors given as
    bit masks, as integer numerators over one positive denominator.

    Every major cycle (one oracle step) and every minor cycle (one step that
    drops corral points) counts against max_iterations.
    """
    members = [[j for j in range(n) if mask >> j & 1] for mask in rows]
    first = min(range(len(rows)), key=lambda i: len(members[i]))  # the nearest vertex
    corral = [first]  # indices into rows, affinely independent
    gram = [[len(members[first])]]
    weights, wden = [1], 1  # convex weights of the corral over wden
    cycles = 0

    def spend() -> None:
        nonlocal cycles
        cycles += 1
        if cycles > max_iterations:
            raise BudgetExceededError("wolfe_cycles", cycles, max_iterations)

    while True:
        x = [0] * n
        for i, w in zip(corral, weights):
            for j in members[i]:
                x[j] += w
        # <x, r> >= ||x||^2 for every row r, with x scaled by wden
        sq = sum(v * v for v in x)
        values = [sum(x[j] for j in m) for m in members]
        best = min(range(len(rows)), key=values.__getitem__)
        if values[best] * wden >= sq:
            return x, wden
        spend()
        gram = [row + [(rows[i] & rows[best]).bit_count()] for row, i in zip(gram, corral)]
        corral.append(best)
        gram.append([row[-1] for row in gram] + [len(members[best])])
        weights.append(0)
        while True:
            alpha, aden = _affine_minimizer(gram)
            if all(a > 0 for a in alpha):
                weights, wden = alpha, aden
                break
            spend()
            # move from the weights towards alpha until the first weight hits 0:
            # theta = min over a <= 0 of lam / (lam - a) = num / den
            num, den = min(
                ((w * aden, w * aden - a * wden) for w, a in zip(weights, alpha) if a <= 0),
                key=lambda t: Fraction(*t),
            )
            mixed = [num * a * wden + (den - num) * w * aden for w, a in zip(weights, alpha)]
            keep = [t for t, v in enumerate(mixed) if v > 0]
            corral = [corral[t] for t in keep]
            gram = [[gram[s][t] for t in keep] for s in keep]
            weights = [mixed[t] for t in keep]
            wden = den * aden * wden
            g = gcd(wden, *weights)
            weights, wden = [w // g for w in weights], wden // g


def min_norm_point(
    game: SimpleGame,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[tuple[Fraction, ...], MinNormCertificate]:
    """The exact minimum-norm feasible payoff p* and its certificate.

    Runs Wolfe's algorithm on the minimal winning vectors (see the module
    docstring) and certifies p* with one exact LP: certificate.gap is exactly
    0, and certified means gap <= tolerance.  Raises BudgetExceededError when
    Wolfe's major plus minor cycles exceed max_iterations.
    """
    budgets.check("min_norm", game.n)
    tol = frac(tolerance)
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    # q* = x / xden, so p* = q* / ||q*||^2 = x * xden / ||x||^2
    x, xden = _wolfe([w.mask for w in game.minimal_winning], game.n, max_iterations)
    norm = sum(v * v for v in x)
    pt = tuple(Fraction(v * xden, norm) for v in x)
    if not is_feasible(game, pt):
        raise CertificateError("min-norm point is not feasible")
    sq = Fraction(xden * xden, norm)
    value = _min_over_q(game, pt)
    gap = sq - value
    cert = MinNormCertificate(
        point=pt,
        squared_norm=sq,
        lp_value=value,
        gap=gap,
        certified=gap <= tol,
        gap_history=(gap,),
    )
    return pt, cert


def strengthened_bound(game: SimpleGame, payoff: Sequence) -> Fraction:
    """p(N) minus the least <p, q> over feasible q; at the min-norm point p*
    this is exactly <p*, 1-p*>, and it never exceeds n/4 there."""
    p = [frac(v) for v in payoff]
    if not is_feasible(game, p):
        raise ValueError("payoff is not feasible (needs p >= 0 and p(W) >= 1 on winning sets)")
    return sum(p, _ZERO) - _min_over_q(game, tuple(p))


def _dominated_support(
    n: int, columns: Sequence[int], target: Fraction, add: bool
) -> Optional[list[int]]:
    """Masks whose convex hull holds target*ones, from one LP over `columns`.

    The LP asks for convex weights over `columns` whose combination y has
    y <= target (add) or y >= target (not add) in every coordinate; None when
    there are none.  The fill then goes player by player, in ascending mask
    order, moving weight from coalitions without the player to the same
    coalitions with it (add), or the other way (not add), until the player's
    share is exactly target.  Each player splits at most one coalition, so
    the support has at most len(columns) + n masks.
    """
    k = len(columns)
    rows = [
        LPRow(tuple(m >> j & 1 for m in columns), LE if add else GE, target) for j in range(n)
    ]
    rows.append(LPRow((1,) * k, EQ, 1))
    sol = solve_lp(LinearProgram(k, (0,) * k, tuple(rows)))
    if sol.status != "optimal":
        return None
    assert sol.primal is not None
    weights = {m: w for m, w in zip(columns, sol.primal) if w}
    for j in range(n):
        bit = 1 << j
        share = sum((w for m, w in weights.items() if m & bit), _ZERO)
        need = target - share if add else share - target
        for m in sorted(weights):
            if need <= 0:
                break
            if bool(m & bit) == add:
                continue
            take = min(weights[m], need)
            need -= take
            if take == weights[m]:
                del weights[m]
            else:
                weights[m] -= take
            weights[m ^ bit] = weights.get(m ^ bit, _ZERO) + take
    return sorted(weights)


def _class_hull(
    game: SimpleGame, columns: Sequence[int], target: Fraction, winning: bool
) -> Optional[dict[int, Fraction]]:
    """Certified weights of target*ones over winning (or losing) coalitions, or None.

    `columns` are the minimal winning (maximal losing) masks.  Every support
    mask is checked against the winning table, and the weights come from
    `in_convex_hull`, which certifies them exactly.
    """
    n = game.n
    support = _dominated_support(n, columns, target, winning)
    if support is None:
        return None
    table = winning_table(game)
    for m in support:
        if bool(table >> m & 1) != winning:
            kind = "winning" if winning else "losing"
            raise CertificateError(f"hull witness {Coalition(m).players()} is not {kind}")
    lam = in_convex_hull([target] * n, [tuple(m >> j & 1 for j in range(n)) for m in support])
    if lam is None:
        raise CertificateError("in_convex_hull rejects the support of a feasible dominated hull")
    return dict(zip(support, lam))


def tightness_check(
    game: SimpleGame, budget: Optional[int] = None
) -> tuple[bool, Optional[tuple[dict[int, Fraction], dict[int, Fraction]]]]:
    """Whether alpha attains n/4: (2/n)*ones must be a convex combination of
    winning characteristic vectors and (1/2)*ones one of losing vectors.

    For 0 <= x <= 1, x is in conv(winning) iff some y <= x is in conv(minimal
    winning).  (=>) Shrink each winning coalition to a minimal winning
    subset.  (<=) Raise y_j to x_j by adding j to part of the weight of
    coalitions without j; supersets still win.  Mirrored, removing players, x
    is in conv(losing) iff some y >= x is in conv(maximal losing).  So each
    side is one small LP; its solution is filled up to the target, every
    support coalition's class is checked, and `in_convex_hull` certifies the
    weights.  Below two players 2/n > 1, so never tight.

    Returns (True, (winning_weights, losing_weights)), each a dict keyed by
    coalition mask in ascending order over its support (some weights may be
    0), or (False, None) when alpha < n/4.  Refuses beyond the `tightness`
    budget.
    """
    budgets.check("tightness", game.n, budget)
    n = game.n
    if n < 2:
        return False, None
    lam_w = _class_hull(game, [c.mask for c in game.minimal_winning], Fraction(2, n), True)
    if lam_w is None:
        return False, None
    lam_l = _class_hull(game, [c.mask for c in maximal_losing(game)], Fraction(1, 2), False)
    if lam_l is None:
        return False, None
    return True, (lam_w, lam_l)
