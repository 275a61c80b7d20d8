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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import BudgetExceededError
from .alpha import coalition_value
from .games import Coalition, SimpleGame, winning_table
from .lp import GE, LPRow, LinearProgram, frac, in_convex_hull, rat, solve_lp

DEFAULT_TOLERANCE = 1e-6
MAX_ITERATIONS = 100_000
TIGHTNESS_BUDGET = 20  # tightness_check enumerates all 2^n coalitions

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
    return all(coalition_value(p, w) >= 1 for w in game.minimal_winning)


def _min_over_q(game: SimpleGame, direction: Sequence[Fraction]) -> Fraction:
    """Exact value of min <direction, q> over Q."""
    incidence = lambda mask: tuple(1 if mask >> j & 1 else 0 for j in range(game.n))
    rows = tuple(LPRow(incidence(w.mask), GE, 1) for w in game.minimal_winning)
    sol = solve_lp(LinearProgram(game.n, tuple(direction), rows))
    if sol.status != "optimal":
        raise AssertionError(f"oracle LP should be optimal, got {sol.status}")
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
            raise AssertionError("Wolfe corral is affinely dependent (singular bordered Gram system)")
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
            raise BudgetExceededError(
                f"min-norm iteration budget exhausted after {max_iterations} Wolfe cycles"
            )

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
    if game.n > 24:
        raise BudgetExceededError(f"min_norm_point is capped at n <= 24, got {game.n}")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    tol = Fraction(tolerance) if not isinstance(tolerance, Fraction) else tolerance
    # q* = x / xden, so p* = q* / ||q*||^2 = x * xden / ||x||^2
    x, xden = _wolfe([w.mask for w in game.minimal_winning], game.n, max_iterations)
    norm = sum(v * v for v in x)
    pt = tuple(Fraction(v * xden, norm) for v in x)
    if not is_feasible(game, pt):
        raise AssertionError("min-norm point is not feasible")
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


def _all_coalitions_by_class(game: SimpleGame) -> tuple[list[int], list[int]]:
    """Masks of every winning and every losing coalition, via the subset table."""
    size = 1 << game.n
    table = winning_table(game).to_bytes((size + 7) // 8, "little")
    winning, losing = [], []
    for s in range(size):
        if table[s >> 3] >> (s & 7) & 1:
            winning.append(s)
        else:
            losing.append(s)
    return winning, losing


def tightness_check(
    game: SimpleGame, budget: Optional[int] = None
) -> tuple[bool, Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]]:
    """Whether alpha attains n/4: (2/n)*ones must be a convex combination of
    winning characteristic vectors and (1/2)*ones one of losing vectors.

    Returns (True, (winning_weights, losing_weights)) or (False, None).  The
    weight tuples align with all winning / losing coalitions in ascending
    mask order.  Cost grows as 2^n; refuse beyond the budget.
    """
    cap = TIGHTNESS_BUDGET if budget is None else budget
    if game.n > cap:
        raise BudgetExceededError(f"tightness_check is capped at n <= {cap}, got {game.n}")
    n = game.n
    winning, losing = _all_coalitions_by_class(game)
    vec = lambda mask: tuple((mask >> j) & 1 for j in range(n))
    w_target = [Fraction(2, n)] * n
    l_target = [Fraction(1, 2)] * n
    lam_w = in_convex_hull(w_target, [vec(m) for m in winning])
    if lam_w is None:
        return False, None
    lam_l = in_convex_hull(l_target, [vec(m) for m in losing])
    if lam_l is None:
        return False, None
    return True, (lam_w, lam_l)


def coalition_weights_nonzero(
    game: SimpleGame, weights: Sequence[Fraction], losing: bool
) -> list[tuple[Coalition, Fraction]]:
    """Pair nonzero hull weights with their coalitions (helper for reporting)."""
    winning_masks, losing_masks = _all_coalitions_by_class(game)
    masks = losing_masks if losing else winning_masks
    return [
        (Coalition(m), w) for m, w in zip(masks, weights) if w != 0
    ]
