"""Graphic simple games: the minimal winning coalitions are the edges of a graph.

Losing coalitions are then exactly the independent sets, so the threshold
value is computed by a cutting-plane loop whose separation oracle is a
maximum-weight independent set solver: Koenig/max-flow duality on bipartite
graphs, branch and bound with a greedy clique-cover bound otherwise.  The
module also builds the two-copy gadget whose threshold is half the
independence number, searches for induced disjoint-edge families, lists
maximal independent sets by the transversal kernel of `games`, and decides
"alpha <= a" for a fixed bound a.
Both threshold computations use the `ThresholdLP` of `alpha`: the
cutting-plane loop keeps one over the graph's twin classes for all its
rounds, so each cut enters as a new column of the LP's dual and costs a few
pivots, its oracle weighs every vertex of the whole graph by the integer
numerators that `solve` returns, and only the last round's answer is
certified, in class space, on every row, the oracle's final set and the
twins' symmetry; the decision solves one over all maximal independent sets,
one column per vertex, cold, once, and certifies it.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import budgets
from .alpha import AlphaCertificate, ThresholdLP
from .errors import BudgetExceededError, CertificateError
from .games import Coalition, SimpleGame, _minimal_transversals, new_game
from .lp import common_numerators, frac, rat
from .lp import solve_lp  # unused here, but bench/test_bench.py reads graphs.solve_lp

MAX_CUT_ROUNDS = 10_000

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, edges canonically sorted."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"vertex count must be a positive int, got {self.n!r}")
        seen = set()
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge {e!r} is not a pair 1 <= u < v <= {self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {e!r}")
            seen.add(e)


def make_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    canon = set()
    for e in edges:
        if len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise ValueError(f"edge {e!r} is not a pair of int vertices")
        u, v = e
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        canon.add((min(u, v), max(u, v)))
    return Graph(n, tuple(sorted(canon)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return make_graph(n, edges)


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return make_graph(n, [(i, i + 1) for i in range(1, n)])


def random_graph(n: int, m: int, seed: int) -> Graph:
    all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if m > len(all_pairs):
        raise ValueError(f"{m} edges do not fit in a simple graph on {n} vertices")
    rng = random.Random(f"graph:{n}:{m}:{seed}")
    return make_graph(n, rng.sample(all_pairs, m))


def random_bipartite_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(f"bipartite:{n}:{m}:{seed}")
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    left = set(verts[: max(1, n // 2)])
    cross = [
        (min(u, v), max(u, v))
        for u in sorted(left)
        for v in sorted(set(verts) - left)
    ]
    cross = sorted(set(cross))
    m = min(m, len(cross))
    return make_graph(n, rng.sample(cross, m))


@lru_cache(maxsize=512)
def _adj_masks(g: Graph) -> tuple[int, ...]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return tuple(adj)


def twin_classes(g: Graph) -> list[int]:
    """The vertices split into classes of twins, as masks ordered by their least vertex.

    Vertices i and j are twins when N(i) minus j equals N(j) minus i: false
    twins share their open neighbourhood, true twins their closed one.
    Swapping twins keeps every edge, so these are the classes of
    `games.symmetric_classes` for the graphic game, isolated vertices
    included, found from the neighbourhoods alone.  No vertex has twins of
    both kinds: a false twin j and a true twin k of i would make j and k
    adjacent through N(j) = N(i) and not adjacent through N[k] = N[i].
    """
    adj = _adj_masks(g)
    open_, closed = {}, {}  # neighbourhood -> the vertices that have it
    for i, m in enumerate(adj):
        b = 1 << i
        open_[m] = open_.get(m, 0) | b
        closed[m | b] = closed.get(m | b, 0) | b
    classes, seen = [], 0
    for i, m in enumerate(adj):
        b = 1 << i
        if not seen & b:
            c = open_[m]
            if c == b:
                c = closed[m | b]
            classes.append(c)
            seen |= c
    return classes


def _edge_masks(g: Graph) -> list[Coalition]:
    """The edges as coalitions, built from masks: a graph may have more
    vertices than a game has players."""
    return [Coalition(1 << (u - 1) | 1 << (v - 1)) for u, v in g.edges]


@lru_cache(maxsize=512)
def bipartition(g: Graph) -> Optional[tuple[int, ...]]:
    """2-coloring (entry per vertex) or None if an odd cycle exists.

    Cached per graph like `_adj_masks`, so a cutting-plane loop colors its
    graph once however many oracle rounds it runs."""
    color = [-1] * g.n
    adj = _adj_masks(g)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            m = adj[u]
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return tuple(color)


@dataclass(frozen=True)
class WeightedVertexSet:
    vertices: Coalition
    weight: Fraction


def graphic_game(g: Graph) -> SimpleGame:
    """The simple game whose minimal winning antichain is the edge set."""
    if not g.edges:
        raise ValueError("an edgeless graph has no winning coalitions")
    return new_game(g.n, [Coalition.of(u, v) for u, v in g.edges])


def _integer_weights(g: Graph, weights: Sequence) -> tuple[list[int], int]:
    """The vertex weights, checked, as integer numerators over their common
    denominator; int weights are their own numerators over 1."""
    w = [x if type(x) is int else frac(x) for x in weights]
    if len(w) != g.n:
        raise ValueError(f"{len(w)} weights for {g.n} vertices")
    iw, den = common_numerators(w)
    if any(x < 0 for x in iw):
        raise ValueError("vertex weights must be nonnegative")
    return iw, den


def mwis_bipartite(g: Graph, weights: Sequence) -> WeightedVertexSet:
    """Maximum-weight independent set of a bipartite graph, exactly.

    Complement of a minimum-weight vertex cover obtained from a max-flow
    min-cut computation: Edmonds-Karp, which terminates in O(VE) augmentations
    independent of capacities, on integer capacities, the weights over their
    common denominator.  Scaling every capacity by one positive constant
    changes neither the BFS order nor the bottleneck choices, so the set is
    the one the rational capacities give.
    """
    iw, den = _integer_weights(g, weights)
    color = bipartition(g)
    if color is None:
        raise ValueError("graph is not bipartite")
    n = g.n
    source, sink = 0, n + 1
    cap: list[dict[int, int]] = [dict() for _ in range(n + 2)]

    def add_edge(a: int, b: int, capacity: int) -> None:
        cap[a][b] = cap[a].get(b, 0) + capacity
        cap[b].setdefault(a, 0)

    total = sum(iw)
    big = total + den  # the weight total plus 1, over den
    for v in range(1, n + 1):
        if color[v - 1] == 0:
            add_edge(source, v, iw[v - 1])
        else:
            add_edge(v, sink, iw[v - 1])
    for u, v in g.edges:
        a, b = (u, v) if color[u - 1] == 0 else (v, u)
        add_edge(a, b, big)

    flow_value = 0
    while True:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            c = cap[u][v]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow_value += bottleneck

    # the last search found no path to the sink, so it reached every vertex it
    # could: `parent` holds the source side of a minimum cut
    chosen = 0
    for v in range(1, n + 1):
        in_cover = (v not in parent) if color[v - 1] == 0 else (v in parent)
        if not in_cover:
            chosen |= 1 << (v - 1)
    adj = _adj_masks(g)
    if any(adj[v] & chosen for v in range(n) if chosen >> v & 1):
        raise CertificateError("the complement of the min cut is not independent")
    weight = sum(iw[v] for v in range(n) if chosen >> v & 1)
    if weight != total - flow_value:
        raise CertificateError("Koenig duality check failed")
    return WeightedVertexSet(Coalition(chosen), Fraction(weight, den))


def mwis_exact(g: Graph, weights: Sequence, budget: Optional[int] = None) -> WeightedVertexSet:
    """Exact maximum-weight independent set by branch and bound.

    The upper bound partitions the remaining candidates into cliques greedily
    (a coloring of the complement); an independent set meets each clique at
    most once, so the clique maxima sum to a valid bound.

    The search runs in integers: the weights over their common denominator,
    and the vertices relabeled once by rank in (-weight, index) order, so the
    heaviest open candidate, which the greedy start, the bound and the
    branching all take next, is the lowest set bit of a mask.  Scaling by
    one positive constant and relabeling change no comparison, so the set is
    the one the rational weights give in the original labels.
    """
    budgets.check("mwis", g.n, budget)
    w, den = _integer_weights(g, weights)
    n = g.n
    order = sorted(range(n), key=lambda i: (-w[i], i))  # rank -> vertex index
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    iw = [w[i] for i in order]
    neighbors = _adj_masks(g)
    adj = []  # by rank, over ranks
    for i in order:
        m, nbrs = 0, neighbors[i]
        while nbrs:
            low = nbrs & -nbrs
            m |= 1 << rank[low.bit_length() - 1]
            nbrs ^= low
        adj.append(m)

    best_mask = 0
    best_weight = 0
    free = (1 << n) - 1
    while free:
        low = free & -free
        v = low.bit_length() - 1
        best_mask |= low
        best_weight += iw[v]
        free &= ~(adj[v] | low)

    def bound(cand: int) -> int:
        total = 0
        rem = cand
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            total += iw[v]
            clique = low
            common = rem & adj[v]
            while common:
                u = common & -common
                clique |= u
                common &= adj[u.bit_length() - 1]
            rem &= ~clique
        return total

    def dfs(cand: int, cur_w: int, cur_mask: int) -> None:
        nonlocal best_mask, best_weight
        if cand == 0:
            if cur_w > best_weight:
                best_weight, best_mask = cur_w, cur_mask
            return
        if cur_w + bound(cand) <= best_weight:
            return
        low = cand & -cand
        v = low.bit_length() - 1
        dfs(cand & ~(adj[v] | low), cur_w + iw[v], cur_mask | low)
        dfs(cand & ~low, cur_w, cur_mask)

    dfs((1 << n) - 1, 0, 0)
    chosen = 0
    for r, i in enumerate(order):
        if best_mask >> r & 1:
            chosen |= 1 << i
    return WeightedVertexSet(Coalition(chosen), Fraction(best_weight, den))


def alpha_graph(g: Graph, budget: Optional[int] = None) -> AlphaCertificate:
    """Threshold value of the graphic game by cutting planes.

    Start from the edge constraints and minimize the threshold; repeatedly ask
    the MWIS oracle for the worst independent set under the current payoff and
    add its constraint while it is violated.  All rounds solve one
    `ThresholdLP` on the edges over `twin_classes`, warm after the first
    cut: twins are symmetric players of the graphic game, so the LP keeps
    its optimum with one payoff column per class, and a cut is a row of
    its set's class counts.  The two-copy gadget pairs every vertex with a
    twin, so it has at most half the columns.  The oracle runs on the whole graph,
    weighted by the payoff's integer numerators, and its weight is
    compared with t's, all over the solve's one denominator: scaling every
    weight by one positive constant changes neither oracle's set.
    Everything is exact, and the final payoff is certified against the
    edges and every oracle set, the classes' symmetry included, so the
    returned alpha is the true rational optimum.  The certificate's
    `tight_losing` are the oracle sets that attain alpha; an oracle set
    leaves out zero-weight vertices, so it need not be maximal.
    """
    if not g.edges:
        raise ValueError("an edgeless graph has no winning coalitions")
    color = bipartition(g)
    if color is None:
        budgets.check("mwis", g.n, budget)
    cut_lp = ThresholdLP(g.n, _edge_masks(g), classes=twin_classes(g))
    for _ in range(MAX_CUT_ROUNDS):
        nums, _ = cut_lp.solve()  # p_1..p_n, then t
        if color is not None:
            sep = mwis_bipartite(g, nums[:-1])
        else:
            sep = mwis_exact(g, nums[:-1], budget)
        if sep.weight <= nums[-1]:
            # the final oracle set attains the maximum; certify checks it
            cert = cut_lp.certify((sep.vertices,))
            return replace(cert, tight_losing=tuple(sorted(set(cert.tight_losing), key=Coalition.players)))
        cut_lp.add_losing(sep.vertices)
    raise BudgetExceededError("cut_rounds", MAX_CUT_ROUNDS + 1, MAX_CUT_ROUNDS)


def build_gadget(g: Graph) -> Graph:
    """Two copies of g cross-linked on equal or adjacent indices (2n vertices)."""
    n = g.n
    edges = set()
    for u, v in g.edges:
        edges.add((u, v))
        edges.add((n + u, n + v))
        edges.add((u, n + v))
        edges.add((v, n + u))
    for i in range(1, n + 1):
        edges.add((i, n + i))
    return make_graph(2 * n, edges)


def find_induced_kp2(
    g: Graph, k: int, budget: Optional[int] = None
) -> Optional[list[Edge]]:
    """k vertex-disjoint edges whose 2k endpoints induce exactly those edges.

    Returns the lexicographically first witness or None.  More than the
    `kp2` cap of copies are refused unless 2k > n makes the answer
    trivially None first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if 2 * k > g.n:
        return None
    budgets.check("kp2", k, budget)
    adj = _adj_masks(g)
    edges = g.edges
    chosen: list[Edge] = []

    def rec(start: int, endpoints: int) -> bool:
        if len(chosen) == k:
            return True
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            um, vm = 1 << (u - 1), 1 << (v - 1)
            if (um | vm) & endpoints:
                continue
            if (adj[u - 1] | adj[v - 1]) & endpoints:
                continue
            chosen.append((u, v))
            if rec(idx + 1, endpoints | um | vm):
                return True
            chosen.pop()
        return False

    return list(chosen) if rec(0, 0) else None


def enumerate_mis(g: Graph) -> Iterator[Coalition]:
    """Every maximal independent set once, by ascending mask: the complements
    of the minimal vertex covers, which the transversal kernel of `games`
    lists from the edges under the ``losing`` cap."""
    full = (1 << g.n) - 1
    covers = _minimal_transversals(g.n, [1 << (u - 1) | 1 << (v - 1) for u, v in g.edges])
    for mask in sorted(full ^ c for c in covers):
        yield Coalition(mask)


@dataclass(frozen=True)
class AlphaDecision:
    """Outcome of the fixed-threshold decision, with its evidence."""

    answer: bool
    branch: str  # "kp2" | "enumeration"
    kp2_witness: Optional[tuple[Edge, ...]] = None
    forced_set: Optional[Coalition] = None  # one endpoint per witness edge
    alpha: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        return {
            "answer": self.answer,
            "branch": self.branch,
            "kp2_witness": (
                None if self.kp2_witness is None else [list(e) for e in self.kp2_witness]
            ),
            "independent_set": (
                None if self.forced_set is None else list(self.forced_set.players())
            ),
            "alpha": None if self.alpha is None else rat(self.alpha),
        }


def _certify_kp2(g: Graph, witness: Sequence[Edge], k: int) -> Coalition:
    """The first endpoints of `witness`, checked: k disjoint edges of g whose
    endpoints induce no other edge, and those first endpoints independent."""
    if len(witness) != k or not set(g.edges).issuperset(witness):
        raise CertificateError(f"the kP2 witness is not {k} edges of the graph")
    ends = forced = 0
    for u, v in witness:
        ends |= 1 << (u - 1) | 1 << (v - 1)
        forced |= 1 << (u - 1)
    if ends.bit_count() != 2 * k:
        raise CertificateError("the kP2 witness edges are not disjoint")
    adj = _adj_masks(g)
    if sum((adj[x] & ends).bit_count() for x in range(g.n) if ends >> x & 1) != 2 * k:
        raise CertificateError("the kP2 witness endpoints induce another edge")
    if any(adj[u - 1] & forced for u, _ in witness):
        raise CertificateError("the kP2 forced set is not independent")
    return Coalition(forced)


def decide_alpha_at_most(g: Graph, a, budget: Optional[int] = None) -> AlphaDecision:
    """Decide whether the graphic threshold value is at most `a`.

    With k = floor(2a) + 1, the least k with k/2 > a, an induced kP2 answers
    no: under any payoff meeting the edge constraints each of its edges has
    an endpoint worth at least 1/2, and those k endpoints are independent, so
    some losing coalition is worth k/2 > a.  The witness is checked before it
    is returned.  Otherwise the maximal independent sets are enumerated and
    the threshold LP over them is solved and certified exactly.
    """
    a = frac(a)
    if a <= 0:
        raise ValueError("the decision threshold must be positive")
    if not g.edges:
        raise ValueError("an edgeless graph has no winning coalitions")
    k = math.floor(2 * a) + 1
    witness = find_induced_kp2(g, k, budget)
    if witness is not None:
        return AlphaDecision(
            answer=False,
            branch="kp2",
            kp2_witness=tuple(witness),
            forced_set=_certify_kp2(g, witness, k),
        )
    edges = _edge_masks(g)
    lp = ThresholdLP(g.n, edges, enumerate_mis(g))
    lp.solve()
    alpha = lp.certify().alpha
    return AlphaDecision(answer=alpha <= a, branch="enumeration", alpha=alpha)


# --- serialization ---------------------------------------------------------


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_to_json(g: Graph) -> str:
    return json.dumps(graph_to_json_dict(g), sort_keys=True)


def graph_from_json(source: Union[str, bytes, dict]) -> Graph:
    data = json.loads(source) if not isinstance(source, dict) else source
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('graph JSON must have keys "n" and "edges"')
    edges = data["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise ValueError('"edges" must be an array of vertex pairs')
    return make_graph(data["n"], edges)


def graph_from_dimacs(text: str) -> Graph:
    """One line "p [fmt] <n> <m>", then m lines "e <u> <v>"; comment lines start with c."""
    n = m = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"a second problem line: {line!r}")
            if len(parts) not in (3, 4):
                raise ValueError(f"problem line must read 'p [fmt] <n> <m>', got {line!r}")
            n, m = int(parts[-2]), int(parts[-1])
        elif parts[0] == "e" and len(parts) == 3:
            if n is None:
                raise ValueError(f"edge line before the problem line: {line!r}")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"unrecognized graph line: {line!r}")
    if n is None:
        raise ValueError("missing problem line 'p <n> <m>'")
    if len(edges) != m:
        raise ValueError(f"problem line declares {m} edges, found {len(edges)}")
    return make_graph(n, edges)


def graph_from_source(text: str) -> Graph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(text)
    return graph_from_dimacs(text)
