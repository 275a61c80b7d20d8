"""Graphic games: MWIS oracles, cutting planes, gadget, kP2, MIS enumeration."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from simplegames import (
    BudgetExceededError,
    CertificateError,
    Coalition,
    alpha_graph,
    blocker,
    build_gadget,
    compute_alpha_exact,
    cycle_game,
    cycle_graph,
    decide_alpha_at_most,
    enumerate_mis,
    find_induced_kp2,
    graph_from_json,
    graph_to_json,
    graphic_game,
    make_graph,
    mwis_bipartite,
    mwis_exact,
)
from simplegames import graphs
from simplegames.games import symmetric_classes
from simplegames.graphs import (
    WeightedVertexSet,
    bipartition,
    graph_from_dimacs,
    path_graph,
    random_bipartite_graph,
    random_graph,
)
from test_lp import run_optimized

C4 = cycle_graph(4)
C5 = cycle_graph(5)
C8 = cycle_graph(8)
K4 = make_graph(4, list(itertools.combinations(range(1, 5), 2)))


def kp2_endpoint_set(witness, payoff):
    """From each witness edge pick an endpoint with payoff >= 1/2.

    For any payoff meeting the edge constraints such a choice exists, and the
    k chosen endpoints form an independent set worth at least k/2."""
    return Coalition.from_players(u if F(payoff[u - 1]) >= F(1, 2) else v for u, v in witness)


def brute_mwis_weight(g, weights):
    adj = {e for e in g.edges}
    best = F(0)
    for r in range(g.n + 1):
        for s in itertools.combinations(range(1, g.n + 1), r):
            if any((min(a, b), max(a, b)) in adj for a, b in itertools.combinations(s, 2)):
                continue
            best = max(best, sum((F(weights[v - 1]) for v in s), F(0)))
    return best


def brute_maximal_independent_sets(g):
    adj = {e for e in g.edges}
    sets = []
    for r in range(g.n + 1):
        for s in itertools.combinations(range(1, g.n + 1), r):
            if any((min(a, b), max(a, b)) in adj for a, b in itertools.combinations(s, 2)):
                continue
            sets.append(frozenset(s))
    maximal = [s for s in sets if not any(s < t for t in sets)]
    return sorted(tuple(sorted(s)) for s in maximal)


def reference_mwis_exact(g, weights):
    """`mwis_exact` as it was written over Fraction weights, scanning the
    vertices in (-weight, index) order for the heaviest open one; kept as the
    reference for the integer, rank-relabeled search."""
    w = [F(x) for x in weights]
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    by_weight = sorted(range(n), key=lambda i: (-w[i], i))
    best_mask, best_weight, used = 0, F(0), 0
    for i in by_weight:
        if not used >> i & 1:
            best_mask |= 1 << i
            used |= adj[i] | 1 << i
            best_weight += w[i]

    def bound(cand):
        total, rem = F(0), cand
        while rem:
            v = next(i for i in by_weight if rem >> i & 1)
            total += w[v]
            clique, common = 1 << v, rem & adj[v]
            while common:
                u = next(i for i in by_weight if common >> i & 1)
                clique |= 1 << u
                common &= adj[u]
            rem &= ~clique
        return total

    def dfs(cand, cur_w, cur_mask):
        nonlocal best_mask, best_weight
        if cand == 0:
            if cur_w > best_weight:
                best_weight, best_mask = cur_w, cur_mask
            return
        if cur_w + bound(cand) <= best_weight:
            return
        v = next(i for i in by_weight if cand >> i & 1)
        dfs(cand & ~(adj[v] | 1 << v), cur_w + w[v], cur_mask | 1 << v)
        dfs(cand & ~(1 << v), cur_w, cur_mask)

    dfs((1 << n) - 1, F(0), 0)
    return WeightedVertexSet(Coalition(best_mask), best_weight)


# weights that tie often, with zeros and floats (exact through their binary value)
WEIGHT_POOL = [0, 0, 1, 1, 2, F(1, 2), F(2, 3), F(7, 3), 0.1, 0.25, 1.5, F(5, 4)]


def random_weights(rng, n):
    if rng.random() < 0.3:
        return [F(rng.randint(0, 9), rng.randint(1, 6)) for _ in range(n)]
    return [rng.choice(WEIGHT_POOL) for _ in range(n)]


# The true MWIS reported with weight 0 ends the cutting-plane loop at alpha =
# 0, which the certificate's losing bound must refuse.  Source text, so that
# tests can run it in-process and in a `python -O` child alike.
LYING_ORACLE = """
from fractions import Fraction as F
from simplegames import graphs
honest = graphs.mwis_bipartite
graphs.mwis_bipartite = lambda g, w: graphs.WeightedVertexSet(honest(g, w).vertices, F(0))
"""


class TestGraphBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            make_graph(3, [(1, 4)])
        for edges in ([(1, 2, 3), (2, 3)], [(1,)], [()]):
            with pytest.raises(ValueError):
                make_graph(3, edges)
        assert make_graph(3, [(2, 1), (1, 2)]).edges == ((1, 2),)

    def test_graphic_game_matches_cycle(self):
        assert graphic_game(C4) == cycle_game(4)

    def test_single_edge(self):
        g = graphic_game(make_graph(2, [(1, 2)]))
        assert [c.players() for c in g.minimal_winning] == [(1, 2)]

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            graphic_game(make_graph(3, []))

    def test_random_graphs_match_their_listed_pairs(self):
        # sampling pair indices draws the graph that sampling the listed pairs drew
        for n in range(2, 26):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            for m in sorted({0, 1, len(pairs) // 3, len(pairs)}):
                for seed in range(3):
                    drawn = random.Random(f"graph:{n}:{m}:{seed}").sample(pairs, m)
                    assert random_graph(n, m, seed) == make_graph(n, drawn)
        with pytest.raises(ValueError, match="7 edges do not fit"):
            random_graph(4, 7, 0)

    @staticmethod
    def listed_bipartite(n, m, seed):
        """`random_bipartite_graph` drawing from the listed, sorted cross pairs, as it once did."""
        rng = random.Random(f"bipartite:{n}:{m}:{seed}")
        verts = list(range(1, n + 1))
        rng.shuffle(verts)
        left = set(verts[: max(1, n // 2)])
        cross = sorted((min(u, v), max(u, v)) for u in left for v in set(verts) - left)
        return make_graph(n, rng.sample(cross, min(m, len(cross))))

    def test_bipartite_sampling_matches_the_listed_cross_pairs(self):
        # every m from no edge to past the n^2/4 cross pairs, so that both of
        # `random.sample`'s ways of drawing and the cap at every cross pair are
        # met; the graph-cuts corpus draws its bipartite graphs from this
        capped = 0
        for n in range(1, 22):
            for m in range(n * n // 4 + 3):
                for seed in range(3):
                    g = random_bipartite_graph(n, m, seed)
                    assert g == self.listed_bipartite(n, m, seed)
                    assert len(g.edges) == min(m, n * n // 4)
                    capped += m > n * n // 4
        assert capped > 100

    def test_json_round_trip(self):
        g = random_graph(7, 9, 3)
        assert graph_from_json(graph_to_json(g)) == g

    def test_dimacs(self):
        g = graph_from_dimacs("c a comment\np 4 2\ne 1 2\ne 3 4\n")
        assert g == make_graph(4, [(1, 2), (3, 4)])
        for bad_edge in ("e 1", "e 1 2 3"):
            with pytest.raises(ValueError):
                graph_from_dimacs(f"p 4 2\n{bad_edge}\ne 3 4\n")
        assert graph_from_dimacs("p edge 3 0\n") == make_graph(3, [])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("e 1 2\np 3 1\n", "edge line before the problem line"),
            ("p 3 1\ne 1 2\np 2 1\n", "a second problem line"),
            ("p 3 5\ne 1 2\n", "problem line declares 5 edges, found 1"),
            ("p 3 0\ne 1 2\n", "problem line declares 0 edges, found 1"),
        ],
    )
    def test_dimacs_outside_the_format(self, text, message):
        with pytest.raises(ValueError, match=message):
            graph_from_dimacs(text)

    def test_bipartition(self):
        assert bipartition(C4) is not None
        assert bipartition(C5) is None

    def test_cut_rounds_share_one_coloring(self, monkeypatch):
        # the coloring is cached per graph: alpha_graph and every oracle round
        # of its cutting-plane loop read one BFS
        rounds = []
        oracle = graphs.mwis_bipartite

        def spy(g, weights):
            rounds.append(g)
            return oracle(g, weights)

        monkeypatch.setattr(graphs, "mwis_bipartite", spy)
        g = random_bipartite_graph(10, 14, 0)
        bipartition.cache_clear()
        alpha_graph(g)
        info = bipartition.cache_info()
        assert len(rounds) > 1 and (info.misses, info.hits) == (1, len(rounds))


class TestMwisBipartite:
    def test_cycle4_half_weights(self):
        res = mwis_bipartite(C4, [F(1, 2)] * 4)
        assert res.weight == 1

    def test_single_edge(self):
        res = mwis_bipartite(make_graph(2, [(1, 2)]), [3, 1])
        assert res.vertices == Coalition.of(1) and res.weight == 3

    def test_path_middle_heavy(self):
        res = mwis_bipartite(path_graph(3), [1, 5, 1])
        assert res.vertices == Coalition.of(2) and res.weight == 5

    def test_non_bipartite_rejected(self):
        with pytest.raises(ValueError):
            mwis_bipartite(C5, [1] * 5)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_bipartite_graph(3 + seed % 6, rng.randint(1, 8), seed)
        w = [F(rng.randint(0, 9), 1 + rng.randint(0, 4)) for _ in range(g.n)]
        assert mwis_bipartite(g, w).weight == brute_mwis_weight(g, w)

    @pytest.mark.parametrize("seed", range(32))
    def test_integer_flow_matches_mwis_exact(self, seed):
        # the flow runs on the weights over their common denominator
        rng = random.Random(500 + seed)
        n = 6 + seed % 9
        g = random_bipartite_graph(n, rng.randint(n // 2, 2 * n), seed)
        w = [F(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(n)]
        res = mwis_bipartite(g, w)
        assert isinstance(res.weight, F)
        assert res.weight == mwis_exact(g, w).weight
        assert res.weight == sum((w[v - 1] for v in res.vertices.players()), F(0))
        assert not any(u in res.vertices and v in res.vertices for u, v in g.edges)

    @pytest.mark.parametrize("seed", range(8))
    def test_scaling_the_weights_keeps_the_set(self, seed):
        # one positive factor on every capacity leaves every BFS and bottleneck
        # choice alone, and every comparison of the branch and bound
        rng = random.Random(600 + seed)
        g = random_bipartite_graph(10, 16, seed)
        w = [F(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(g.n)]
        for oracle in (mwis_bipartite, mwis_exact):
            res = oracle(g, w)
            for factor in (F(1, 7), F(9, 4), F(1000)):
                scaled = oracle(g, [factor * x for x in w])
                assert scaled == WeightedVertexSet(res.vertices, factor * res.weight)
            # integer numerators x, as `alpha_graph` passes them, and the Fractions x/d
            nums, d = [rng.randint(0, 40) for _ in range(g.n)], rng.randint(2, 30)
            res = oracle(g, nums)
            assert oracle(g, [F(x, d) for x in nums]) == WeightedVertexSet(res.vertices, res.weight / d)


class TestMwisExact:
    def test_c5_unit(self):
        assert mwis_exact(C5, [1] * 5).weight == 2

    def test_k4_heaviest_singleton(self):
        res = mwis_exact(K4, [1, 2, 3, 4])
        assert res.vertices == Coalition.of(4) and res.weight == 4

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        n = 3 + seed % 6
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
        w = [F(rng.randint(0, 9), 1 + rng.randint(0, 4)) for _ in range(n)]
        assert mwis_exact(g, w).weight == brute_mwis_weight(g, w)

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_flow_oracle_on_c4(self, seed):
        rng = random.Random(seed)
        w = [F(rng.randint(0, 9), 1 + rng.randint(0, 5)) for _ in range(4)]
        assert mwis_exact(C4, w).weight == mwis_bipartite(C4, w).weight

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            mwis_exact(make_graph(50, [(1, 2)]), [1] * 50)

    def test_infinite_weight_rejected(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="not a finite rational"):
                mwis_exact(C5, [1, bad, 1, 1, 1])
            with pytest.raises(ValueError, match="not a finite rational"):
                mwis_bipartite(C4, [1, bad, 1, 1])
        # int weights skip `frac`, and both oracles still refuse a bad list of them
        for oracle in (mwis_exact, mwis_bipartite):
            for weights, message in [
                ([1, float("-inf"), 1, 1], "not a finite rational"),
                ([1, float("nan"), 1, 1], "not a finite rational"),
                ([1, -1, 1, 1], "nonnegative"),
                ([1, 1, 1], "3 weights for 4 vertices"),
                ([1, 1, 1, 1, 1], "5 weights for 4 vertices"),
            ]:
                with pytest.raises(ValueError, match=message):
                    oracle(C4, weights)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_fraction_reference(self, seed):
        # the same set, not only the same weight: ties break as they did
        rng = random.Random(f"mwis-reference:{seed}")
        for _ in range(6):
            n = rng.randint(1, 16)
            g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(1000))
            w = random_weights(rng, n)
            assert mwis_exact(g, w) == reference_mwis_exact(g, w)
        gadget = build_gadget(random_graph(8, 3 + seed % 15, seed))
        w = random_weights(rng, gadget.n)
        assert mwis_exact(gadget, w) == reference_mwis_exact(gadget, w)

    @pytest.mark.parametrize("seed", range(20))
    def test_relabeling_keeps_the_weight(self, seed):
        rng = random.Random(f"mwis-relabel:{seed}")
        n = rng.randint(2, 16)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
        w = random_weights(rng, n)
        order = list(range(1, n + 1))
        rng.shuffle(order)  # vertex v becomes order[v - 1]
        relabeled = make_graph(n, [(order[u - 1], order[v - 1]) for u, v in g.edges])
        moved = [None] * n
        for v in range(1, n + 1):
            moved[order[v - 1] - 1] = w[v - 1]
        res = mwis_exact(relabeled, moved)
        assert res.weight == mwis_exact(g, w).weight
        members = res.vertices.players()
        assert not any((min(a, b), max(a, b)) in set(relabeled.edges)
                       for a, b in itertools.combinations(members, 2))
        assert sum((F(moved[v - 1]) for v in members), F(0)) == res.weight


class TestAlphaGraph:
    def test_c4(self):
        assert alpha_graph(C4).alpha == 1

    def test_path4(self):
        assert alpha_graph(path_graph(4)).alpha == 1

    def test_c8(self):
        assert alpha_graph(C8).alpha == 2

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            alpha_graph(make_graph(3, []))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_full_enumeration(self, seed):
        rng = random.Random(seed)
        n = 3 + seed % 8
        g = random_graph(n, rng.randint(1, n * (n - 1) // 2), seed)
        assert alpha_graph(g).alpha == compute_alpha_exact(graphic_game(g)).alpha

    @pytest.mark.parametrize("seed", range(8))
    def test_certificate_payoff_is_tight(self, seed):
        rng = random.Random(40 + seed)
        n = 4 + seed % 6
        g = random_graph(n, rng.randint(1, n * (n - 1) // 2), seed)
        cert = alpha_graph(g)
        value = lambda c: sum(cert.payoff[i - 1] for i in c.players())
        assert all(value(c) == cert.alpha for c in cert.tight_losing)
        assert cert.tight_losing

    def test_only_the_cold_round_runs_the_lp_certificate(self, monkeypatch):
        # rounds are not certified one by one: lp._certify runs inside a cold
        # solve_lp, which only a wide opening LP makes, and once more when
        # `ThresholdLP.certify` checks the last round.  A tall opening is
        # solved by the LP's own TallLP, so every round of its loop is a
        # TallLP solve outside solve_lp and `certify` is the one check
        from simplegames import alpha, lp

        where, calls, tall = ["tall"], [], [0]
        solve_lp, certify, tall_solve = alpha.solve_lp, lp._certify, lp.TallLP.solve

        def spy_solve_lp(model):
            where[0] = "cold"
            try:
                return solve_lp(model)
            finally:
                where[0] = "tall"

        def spy_tall_solve(lp_):
            tall[0] += where[0] == "tall"  # solve_lp solves a tall LP through a TallLP too
            return tall_solve(lp_)

        monkeypatch.setattr(alpha, "solve_lp", spy_solve_lp)
        monkeypatch.setattr(lp, "_certify", lambda *args: calls.append(where[0]) or certify(*args))
        monkeypatch.setattr(alpha, "_certify", lambda *args: calls.append("certify") or certify(*args))
        monkeypatch.setattr(lp.TallLP, "solve", spy_tall_solve)
        per_graph = []
        for g in (build_gadget(random_graph(6, 7, 3)), random_bipartite_graph(10, 14, 0), C8):
            calls.clear()
            tall[0] = 0
            alpha_graph(g)
            per_graph.append((calls.copy(), tall[0]))
        # the gadget (5 classes, 9 edge rows) and the bipartite graph (10
        # classes, 14 edge rows) open tall, with more rows than the classes
        # and t have columns: 2 and 4 rounds, all in the TallLP.  C8 (8
        # classes, 8 edge rows) opens wide in solve_lp, then cuts once
        assert per_graph == [(["certify"], 2), (["certify"], 4), (["cold", "certify"], 2)]

    @pytest.mark.parametrize("seed", range(6))
    def test_relabelling_keeps_alpha(self, seed):
        rng = random.Random(700 + seed)
        for g in (build_gadget(random_graph(5, 4 + seed, seed)), random_bipartite_graph(10, 13, seed)):
            order = list(range(1, g.n + 1))
            rng.shuffle(order)
            relabelled = make_graph(g.n, [(order[u - 1], order[v - 1]) for u, v in g.edges])
            assert alpha_graph(relabelled).alpha == alpha_graph(g).alpha

    def test_lying_oracle_is_caught(self, monkeypatch):
        # monkeypatch keeps the honest oracle and puts it back afterwards
        monkeypatch.setattr(graphs, "mwis_bipartite", graphs.mwis_bipartite)
        exec(LYING_ORACLE, {})
        with pytest.raises(AssertionError, match="losing coalition more than alpha"):
            alpha_graph(C4)

    def test_lying_oracle_is_caught_optimized(self):
        script = LYING_ORACLE + """
assert False, "python -O should have stripped this assert"
graphs.alpha_graph(graphs.cycle_graph(4))
"""
        proc = run_optimized(script)
        assert proc.returncode == 1
        assert (
            "CertificateError: the payoff gives some losing coalition more than alpha"
            in proc.stderr
        )


def complete_bipartite(a, b, isolated=0):
    """K_{a,b} on the sides 1..a and a+1..a+b, then `isolated` isolated vertices."""
    return make_graph(a + b + isolated, [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)])


def add_twin(g, v, true):
    """g with the vertex n+1 a false twin of v (the same neighbours), or a
    true twin (the same neighbours and v)."""
    n = g.n + 1
    edges = list(g.edges) + [(u, n) for u in range(1, n) if (min(u, v), max(u, v)) in g.edges]
    return make_graph(n, edges + [(v, n)] * true)


def twin_graphs():
    """Graphs with twins of every kind: gadgets, stars, K_{a,b}, graphs with
    isolated vertices, and random graphs with an added false or true twin."""
    for seed in range(6):
        n = 3 + seed % 4
        yield build_gadget(random_graph(n, min(2 + seed, n * (n - 1) // 2), seed))
    for b in range(1, 6):
        yield complete_bipartite(1, b)
    for a, b in ((2, 2), (2, 3), (3, 3), (2, 5)):
        yield complete_bipartite(a, b)
    yield complete_bipartite(2, 3, isolated=2)
    yield make_graph(7, [(1, 2), (2, 3), (3, 4)])
    yield K4
    for seed in range(8):
        g = random_graph(6, 5 + seed, seed)
        yield add_twin(g, 1 + seed % 6, seed % 2 == 1)


def edge_classes(g):
    """The classes `alpha_graph` solves over: `games.symmetric_classes` of the edges."""
    return symmetric_classes(g.n, graphs._edge_masks(g))


def cut_lp_sizes(monkeypatch):
    """A list that gets (classes, vertices) of each `ThresholdLP` that `graphs` builds."""
    sizes = []
    init = graphs.ThresholdLP.__init__

    def spy(lp, *args, **kwargs):
        init(lp, *args, **kwargs)
        sizes.append((lp._k, lp.n))

    monkeypatch.setattr(graphs.ThresholdLP, "__init__", spy)
    return sizes


class TestTwinClasses:
    """`alpha_graph` solves its cut LP over the symmetric classes of the
    edges, which for a graph are its classes of twins: i and j share a class
    when N(i) minus j equals N(j) minus i.  The LP over all independent
    sets, `compute_alpha_exact(graphic_game(g))`, is the reference."""

    def test_known_classes(self):
        assert edge_classes(C4) == [0b0101, 0b1010]  # false twins
        assert edge_classes(C5) == [1 << i for i in range(5)]
        assert edge_classes(K4) == [0b1111]  # true twins
        assert edge_classes(complete_bipartite(1, 3)) == [0b0001, 0b1110]
        assert edge_classes(complete_bipartite(2, 3, isolated=2)) == [0b11, 0b11100, 0b1100000]
        # every vertex of a gadget is a true twin of its copy
        g = path_graph(3)
        assert edge_classes(build_gadget(g)) == [0b001001, 0b010010, 0b100100]

    def test_alpha_matches_enumeration(self, monkeypatch):
        sizes = cut_lp_sizes(monkeypatch)
        for g in twin_graphs():
            sizes.clear()
            cert = alpha_graph(g)
            [(k, n)] = sizes
            assert k == len(edge_classes(g)) < n
            assert cert.alpha == compute_alpha_exact(graphic_game(g)).alpha
            for c in edge_classes(g):
                assert len({cert.payoff[i - 1] for i in Coalition(c).players()}) == 1

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 4), (2, 3), (3, 5), (4, 4)])
    def test_complete_bipartite_closed_form(self, a, b):
        # the two sides are the classes, so p = (b, a)/(a + b) and alpha = ab/(a + b);
        # a false twin on the first side makes it K_{a+1,b}, a true one leaves two classes
        assert alpha_graph(complete_bipartite(a, b)).alpha == F(a * b, a + b)
        assert alpha_graph(add_twin(complete_bipartite(a, b), 1, False)).alpha == F((a + 1) * b, a + b + 1)
        assert alpha_graph(complete_bipartite(a, b, isolated=3)).alpha == F(a * b, a + b)

    @pytest.mark.parametrize("seed", range(10))
    def test_relabeling_permutes_the_classes(self, seed):
        rng = random.Random(f"twin-relabel:{seed}")
        for g in (build_gadget(random_graph(5, 1 + seed, seed)), add_twin(random_graph(7, 8 + seed, seed), 2, seed % 2)):
            order = list(range(1, g.n + 1))
            rng.shuffle(order)
            relabeled = make_graph(g.n, [(order[u - 1], order[v - 1]) for u, v in g.edges])
            moved = {sum(1 << (order[i - 1] - 1) for i in Coalition(c).players()) for c in edge_classes(g)}
            assert moved == set(edge_classes(relabeled))
            cert, other = alpha_graph(g), alpha_graph(relabeled)
            assert other.alpha == cert.alpha

    @pytest.mark.parametrize("seed", range(12))
    def test_adding_a_twin(self, seed):
        # the new vertex joins its twin's class; any added vertex keeps alpha in
        # [alpha, alpha + 1]: restrict a payoff to g, or pay the new vertex 1
        rng = random.Random(f"add-twin:{seed}")
        n = rng.randint(3, 9)
        g = random_graph(n, rng.randint(1, n * (n - 1) // 2), seed)
        before = alpha_graph(g).alpha
        v = rng.randint(1, n)
        for true in (False, True):
            h = add_twin(g, v, true)
            [joined] = [c for c in edge_classes(h) if c >> n & 1]
            assert joined >> (v - 1) & 1
            after = alpha_graph(h).alpha
            assert before <= after <= before + 1
            assert after == compute_alpha_exact(graphic_game(h)).alpha

    def test_cut_loop_past_64_vertices(self, monkeypatch):
        # K_{30,40} plus 2 isolated vertices has 72 vertices, more than a game
        # has players, so no `SimpleGame` stands for it: the cut loop runs on
        # the edges over the two sides and the isolated pair, 3 columns
        g = complete_bipartite(30, 40, isolated=2)
        with pytest.raises(ValueError, match="player count"):
            graphic_game(g)
        sizes = cut_lp_sizes(monkeypatch)
        assert alpha_graph(g).alpha == F(30 * 40, 70) == F(120, 7)
        assert sizes == [(3, 72)]

    def test_gadget_identity(self):
        # alpha(gadget(g)) = mwis(g) / 2 on 30 random graphs, each gadget over
        # at most half of its vertices' columns
        rng = random.Random("gadget-identity")
        for seed in range(30):
            n = rng.randint(2, 9)
            g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
            gadget = build_gadget(g)
            assert len(edge_classes(gadget)) <= n
            assert alpha_graph(gadget).alpha == F(mwis_exact(g, [1] * n).weight, 2)

    SYMMETRY = "the partition is not a symmetry: a swap inside a class moves a winning coalition"

    @pytest.mark.parametrize(
        "graph, patch, message",
        [
            # 1 and 2 are adjacent on C5 but no twins, so {1, 2} is no class
            ("graphs.cycle_graph(5)", "graphs.symmetric_classes = lambda n, masks: [0b00011, 0b00100, 0b01000, 0b10000]",
             SYMMETRY),
            # on the path 1-3-2-4 the swap of 1 and 2 maps the edge {1, 3} onto
            # {2, 3} but {2, 4} off the path: the check must test both directions
            ("graphs.make_graph(4, [(1, 3), (2, 3), (2, 4)])",
             "graphs.symmetric_classes = lambda n, masks: [0b0011, 0b0100, 0b1000]", SYMMETRY),
            # C4 over {1, 3}, {2, 4} ends on the rows W(1, 1), L(2, 0), L(0, 2) in some
            # order, at q = (1/2, 1/2) and t = 1; each dual fails one check and passes the others
            ("graphs.cycle_graph(4)", "fake_dual((1, 0, 0))", "simplex returned a dual-infeasible vector"),
            ("graphs.cycle_graph(4)", "fake_dual((0, 1, 1), 2)", "strong duality failed"),
            # the losing duals sum to more than t's cost 1
            ("graphs.cycle_graph(4)", "fake_dual((1, 1, 1))", "simplex returned a dual-infeasible vector"),
        ],
    )
    def test_classed_certificate_survives_optimize(self, graph, patch, message):
        script = f"""
from simplegames import graphs, lp
assert False, "python -O should have stripped this assert"
solve = lp.TallLP.solve
def fake_dual(y, yden=1):
    def fake(tall):
        status, (x, xden, real, _) = solve(tall)
        return status, (x, xden, list(y) if len(real) == 3 else real, yden)
    lp.TallLP.solve = fake
{patch}
graphs.alpha_graph({graph})
"""
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert f"CertificateError: {message}" in proc.stderr


class TestGadget:
    def test_c5_counts(self):
        gs = build_gadget(C5)
        assert gs.n == 10 and len(gs.edges) == 25

    def test_single_vertex(self):
        gs = build_gadget(make_graph(1, []))
        assert gs.n == 2 and gs.edges == ((1, 2),)

    def test_c5_alpha_is_half_independence_number(self):
        assert alpha_graph(build_gadget(C5)).alpha == F(2, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 5
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
        k = mwis_exact(g, [1] * n).weight
        assert alpha_graph(build_gadget(g)).alpha == F(k, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_gadget_mis_projects_to_original(self, seed):
        rng = random.Random(90 + seed)
        n = 2 + seed % 4
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
        edges = set(g.edges)
        for mis in enumerate_mis(build_gadget(g)):
            projected = {((v - 1) % n) + 1 for v in mis.players()}
            for a, b in itertools.combinations(sorted(projected), 2):
                assert (a, b) not in edges
            halves = {v for v in mis.players() if v <= n}
            assert halves.isdisjoint({v - n for v in mis.players() if v > n})


class TestInducedKp2:
    def test_c8_pair(self):
        found = find_induced_kp2(C8, 2)
        assert found == [(1, 2), (4, 5)]

    def test_c8_no_four(self):
        assert find_induced_kp2(C8, 4) is None

    def test_k4_none(self):
        assert find_induced_kp2(K4, 2) is None

    def test_trivial_when_too_many_vertices_needed(self):
        assert find_induced_kp2(C8, 6) is None  # 12 endpoints > 8 vertices

    def test_budget(self):
        g = random_graph(14, 20, 1)
        with pytest.raises(BudgetExceededError):
            find_induced_kp2(g, 6)

    @pytest.mark.parametrize("seed", range(15))
    def test_witness_is_induced(self, seed):
        rng = random.Random(seed)
        n = 6 + seed % 5
        g = random_graph(n, rng.randint(3, n * (n - 1) // 2), seed)
        k = 2 + seed % 2
        found = find_induced_kp2(g, k)
        if found is None:
            return
        ends = [v for e in found for v in e]
        assert len(set(ends)) == 2 * k
        induced = [
            (a, b)
            for a, b in itertools.combinations(sorted(set(ends)), 2)
            if (a, b) in set(g.edges)
        ]
        assert sorted(induced) == sorted(found)


class TestEnumerateMis:
    def test_c4(self):
        assert [c.players() for c in enumerate_mis(C4)] == [(1, 3), (2, 4)]

    def test_single_edge(self):
        g = make_graph(2, [(1, 2)])
        assert [c.players() for c in enumerate_mis(g)] == [(1,), (2,)]

    def test_c5_count(self):
        assert len(list(enumerate_mis(C5))) == 5

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 7
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
        ours = [c.players() for c in enumerate_mis(g)]
        assert sorted(ours) == brute_maximal_independent_sets(g)
        assert len(set(ours)) == len(ours)

    @staticmethod
    def random_case(seed):
        rng = random.Random(700 + seed)
        n = 1 + seed % 12
        return rng, random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)), seed)

    @pytest.mark.parametrize("seed", range(36))
    def test_ascending_complements_of_the_blocker(self, seed):
        _, g = self.random_case(seed)
        masks = [c.mask for c in enumerate_mis(g)]
        assert masks == sorted(set(masks))
        if g.edges:
            full = (1 << g.n) - 1
            assert masks == sorted(full ^ c.mask for c in blocker(graphic_game(g)))
        else:
            assert masks == [(1 << g.n) - 1]

    @pytest.mark.parametrize("seed", range(36))
    def test_relabeling_maps_the_sets(self, seed):
        rng, g = self.random_case(seed)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)  # vertex v becomes perm[v - 1]
        relabeled = make_graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
        mapped = {frozenset(perm[v - 1] for v in c.players()) for c in enumerate_mis(g)}
        assert {frozenset(c.players()) for c in enumerate_mis(relabeled)} == mapped

    @pytest.mark.parametrize("seed", range(36))
    def test_isolated_vertex_joins_every_set(self, seed):
        _, g = self.random_case(seed)
        extended = make_graph(g.n + 1, g.edges)
        new = 1 << g.n
        assert [c.mask for c in enumerate_mis(extended)] == [c.mask | new for c in enumerate_mis(g)]


class TestDecide:
    def test_c8_a1_lp_branch(self):
        d = decide_alpha_at_most(C8, 1)
        assert (d.answer, d.branch, d.alpha) == (False, "enumeration", F(2))

    def test_c8_a2_true(self):
        d = decide_alpha_at_most(C8, 2)
        assert d.answer and d.alpha == 2

    def test_c8_a_half_kp2_branch(self):
        d = decide_alpha_at_most(C8, F(1, 2))
        assert not d.answer and d.branch == "kp2"
        assert len(d.kp2_witness) == 2

    def test_smallest_kp2_fits_under_the_cap(self):
        # at a = 2 the search needs k = 5 pairs, within the kp2 cap of 5; the
        # graph has no induced 5P2, so the enumeration answers
        d = decide_alpha_at_most(random_graph(14, 12, 3), 2)
        assert (d.answer, d.branch, d.alpha) == (False, "enumeration", F(11, 4))

    @pytest.mark.parametrize(
        "witness, message",
        [
            ([(1, 3), (5, 6)], "not 2 edges of the graph"),
            ([(1, 2)], "not 2 edges of the graph"),
            ([(1, 2), (2, 3)], "edges are not disjoint"),
            ([(1, 2), (3, 4)], "endpoints induce another edge"),
        ],
    )
    def test_kp2_witness_is_checked(self, witness, message, monkeypatch):
        monkeypatch.setattr(graphs, "find_induced_kp2", lambda g, k, budget=None: witness)
        with pytest.raises(CertificateError, match=message):
            decide_alpha_at_most(C8, F(1, 2))

    def test_enumeration_answer_is_certified(self, monkeypatch):
        # a threshold LP that keeps alpha 1 on C8, whose alpha is 2, in the pair it certifies
        solve = graphs.ThresholdLP.solve

        def lying_solve(lp):
            solve(lp)
            x, den, y, yden = lp._last
            lp._last = x[:-1] + [den], den, y, yden
            return x[:-1] + [den], den

        monkeypatch.setattr(graphs.ThresholdLP, "solve", lying_solve)
        with pytest.raises(CertificateError, match="simplex returned a primal-infeasible point"):
            decide_alpha_at_most(C8, 1)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            decide_alpha_at_most(C8, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_sound_against_exact_alpha(self, seed):
        rng = random.Random(seed)
        n = 3 + seed % 8
        g = random_graph(n, rng.randint(1, n * (n - 1) // 2), seed)
        alpha = compute_alpha_exact(graphic_game(g)).alpha
        for a in (F(1, 2), F(1), F(3, 2), F(2)):
            d = decide_alpha_at_most(g, a)
            assert d.answer == (alpha <= a)
            if d.branch == "enumeration":
                assert d.alpha == alpha
            else:  # k = floor(2a) + 1, the least k with k/2 > a
                assert len(d.kp2_witness) == math.floor(2 * a) + 1

    @pytest.mark.parametrize("seed", range(10))
    def test_kp2_branch_forces_value(self, seed):
        rng = random.Random(300 + seed)
        n = 6 + seed % 5
        g = random_graph(n, rng.randint(3, 2 * n), seed)
        d = decide_alpha_at_most(g, F(1, 2))
        if d.branch != "kp2":
            return
        cert = alpha_graph(g)
        chosen = kp2_endpoint_set(d.kp2_witness, cert.payoff)
        assert len(chosen) == len(d.kp2_witness)
        value = sum(cert.payoff[i - 1] for i in chosen.players())
        assert value >= F(len(d.kp2_witness), 2) > F(1, 2)
        edges = set(g.edges)
        for a, b in itertools.combinations(sorted(chosen.players()), 2):
            assert (a, b) not in edges
