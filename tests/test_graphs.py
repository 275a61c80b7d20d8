"""Graphic games: MWIS oracles, cutting planes, gadget, kP2, MIS enumeration."""

import itertools
import random
from fractions import Fraction as F

import pytest

from simplegames import (
    BudgetExceededError,
    Coalition,
    alpha_graph,
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
from simplegames.graphs import (
    WeightedVertexSet,
    bipartition,
    graph_from_dimacs,
    kp2_endpoint_set,
    path_graph,
    random_bipartite_graph,
    random_graph,
)
from test_lp import run_optimized

C4 = cycle_graph(4)
C5 = cycle_graph(5)
C8 = cycle_graph(8)
K4 = make_graph(4, list(itertools.combinations(range(1, 5), 2)))


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

    def test_json_round_trip(self):
        g = random_graph(7, 9, 3)
        assert graph_from_json(graph_to_json(g)) == g

    def test_dimacs(self):
        g = graph_from_dimacs("c a comment\np 4 2\ne 1 2\ne 3 4\n")
        assert g == make_graph(4, [(1, 2), (3, 4)])
        for bad_edge in ("e 1", "e 1 2 3"):
            with pytest.raises(ValueError):
                graph_from_dimacs(f"p 4 2\n{bad_edge}\ne 3 4\n")

    def test_bipartition(self):
        assert bipartition(C4) is not None
        assert bipartition(C5) is None


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
        # one positive factor on every capacity leaves every BFS and bottleneck choice alone
        rng = random.Random(600 + seed)
        g = random_bipartite_graph(10, 16, seed)
        w = [F(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(g.n)]
        res = mwis_bipartite(g, w)
        for factor in (F(1, 7), F(9, 4), F(1000)):
            scaled = mwis_bipartite(g, [factor * x for x in w])
            assert scaled == WeightedVertexSet(res.vertices, factor * res.weight)


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
        with pytest.raises(ValueError, match="not a finite rational"):
            mwis_exact(C5, [1, float("inf"), 1, 1, 1])

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
            "CertificateError: the payoff gives some maximal losing coalition more than alpha"
            in proc.stderr
        )


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

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_mis(random_graph(12, 18, 0), limit=2))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 7
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed)
        ours = [c.players() for c in enumerate_mis(g)]
        assert sorted(ours) == brute_maximal_independent_sets(g)
        assert len(set(ours)) == len(ours)


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
