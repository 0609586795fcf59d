import hashlib
import itertools
import random
import sys
import time
from types import SimpleNamespace

import pytest

from sumprod import search
from sumprod.coloring import find_monochromatic
from sumprod.errors import DomainError
from sumprod.search import (PatternGraph, colorability, pattern_graph,
                            sp_number, verify_odd_cycle)


def brute_force_edges(N):
    out = set()
    for y in range(3, N):
        for x in range(y + 1, N):
            if x * y > N:
                break
            out.add((x + y, x * y))
    return sorted(out)


def exhaustive_two_colorable(graph):
    """Try all 2^k assignments component by component."""
    seen = set()
    for start in graph.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        i = 0
        while i < len(comp):
            for u in graph.adj[comp[i]]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
            i += 1
        ok = False
        for bits in itertools.product((0, 1), repeat=len(comp) - 1):
            colors = {comp[0]: 0}
            colors.update({v: b for v, b in zip(comp[1:], bits)})
            if all(colors[u] != colors[v] for u in comp
                   for v in graph.adj[u]):
                ok = True
                break
        if not ok:
            return False
    return True


class TestPatternGraph:
    def test_single_edge_at_12(self):
        g = pattern_graph(12)
        assert g.edges == [(7, 12)]

    def test_empty_at_11(self):
        assert pattern_graph(11).edges == []

    def test_counts_match_brute_force(self):
        for N in (50, 100, 237):
            assert pattern_graph(N).edges == brute_force_edges(N)

    def test_no_self_loops(self):
        g = pattern_graph(500)
        assert all(u != v for u, v in g.edges)

    def test_every_prefix_matches_brute_force(self):
        # the graph of [N] is the brute-force edges of product <= N, for
        # every N >= 0, with each neighbour list sorted
        brute = brute_force_edges(600)
        for N in range(601):
            prefix = [e for e in brute if e[1] <= N]
            nbrs = {}
            for u, v in prefix:
                nbrs.setdefault(u, set()).add(v)
                nbrs.setdefault(v, set()).add(u)
            g = pattern_graph(N)
            assert g.edges == prefix
            assert g.adj == {v: sorted(ns) for v, ns in nbrs.items()}

    def test_rejects_negative_N(self):
        with pytest.raises(DomainError):
            pattern_graph(-1)


class TestColorability:
    def test_one_color_forced(self):
        cert = colorability(12, 1)
        assert cert.verdict == "not-colorable"

    def test_two_colors_single_edge(self):
        cert = colorability(12, 2)
        assert cert.verdict == "colorable"
        assert cert.coloring.color_of(7) != cert.coloring.color_of(12)

    def test_many_colors_greedy(self):
        g = pattern_graph(300)
        maxdeg = max(len(v) for v in g.adj.values())
        cert = colorability(300, maxdeg + 1)
        assert cert.verdict == "colorable"

    def test_colorable_certificates_reverify(self):
        for N, r in ((11, 1), (12, 2), (53, 2), (300, 3), (200, 4)):
            cert = colorability(N, r)
            assert cert.verdict == "colorable"
            assert find_monochromatic(cert.coloring) is None

    def test_two_color_agrees_with_exhaustive(self):
        for N in range(12, 46):
            g = pattern_graph(N)
            if len(g.vertices) > 24:
                break
            got = colorability(N, 2).verdict == "colorable"
            assert got == exhaustive_two_colorable(g)

    def test_budget_indeterminate(self):
        cert = colorability(3000, 3, node_budget=3)
        assert cert.verdict in ("colorable", "indeterminate")
        if cert.verdict == "indeterminate":
            assert cert.trace["nodes"] >= 3

    def test_rejects_bad_r(self):
        with pytest.raises(DomainError):
            colorability(20, 0)

    def test_no_edge_below_12_one_graph_build(self, monkeypatch):
        # [N] with N < 12 has no pattern pair: every route colors it all
        # 0 from the one pattern_graph(N) build, with no search node
        calls = []

        def counted(N):
            calls.append(N)
            return pattern_graph(N)

        monkeypatch.setattr(search, "pattern_graph", counted)
        for N in range(12):
            for r in range(1, 5):
                cert = colorability(N, r)
                assert cert.verdict == "colorable"
                assert cert.coloring.colors.tolist() == [0] * N
                assert cert.trace == {"nodes": 0, "max_depth": 0}
                assert calls == [N]
                calls.clear()

    def test_recursion_limit_restored(self, monkeypatch):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(300)

        def refuse(limit):
            raise AssertionError("the search changed the recursion limit")

        try:
            monkeypatch.setattr(sys, "setrecursionlimit", refuse)
            colorability(600, 3)
            cert = colorability(773, 3)  # the search goes deeper than 300
            assert cert.trace["max_depth"] > 300
            assert sys.getrecursionlimit() == 300
        finally:
            monkeypatch.undo()
            sys.setrecursionlimit(saved)


def _sha(obj):
    return hashlib.sha256(obj.to_json().encode()).hexdigest()


class TestSearchTreePinned:
    """Node counts, depths and certificate digests of the r >= 3 search,
    recorded from the recursive DSATUR it replaced: the pick order, the
    symmetry rule and the budget check must give the same tree.  The
    sp_number digests at r = 1 and r = 2 were recorded from the
    first-edge and union-find scans that the one greedy scan replaced."""

    def test_refutation_at_774(self):
        cert = colorability(774, 3)
        assert cert.verdict == "not-colorable"
        assert cert.trace == {"nodes": 87982, "max_depth": 210}

    def test_coloring_at_773(self):
        cert = colorability(773, 3)
        assert cert.trace == {"nodes": 835, "max_depth": 637}
        assert _sha(cert) == ("e0b278f07f98ff0313f0a5332fb600b0"
                              "ecb68996a06552202821c9cf242b591a")

    def test_budget_cut_at_774(self):
        cert = colorability(774, 3, node_budget=1000)
        assert cert.verdict == "indeterminate"
        assert cert.trace == {"nodes": 1000, "max_depth": 171}

    @pytest.mark.parametrize("N, r, digest", [
        (611, 3, "7ce5bb423b422ec834dcb3521744381b"
                 "9752052d5e20d3434981d0fd2b874c3b"),
        (705, 3, "0d0cb485812c91a72067cf136b976c1b"
                 "5a220cce092e29a5d1b60110bdda9bc1"),
        (728, 3, "6a8f8ebc30540a510f96606b8d81e2b6"
                 "406dab49d8117f47901af730a8d01a9b"),
        (767, 3, "fb72669ddd48ee409cbcab68a63f4a74"
                 "18407feb14a7304e742ff13ba9c19b49"),
        (774, 4, "2ab3140a2a2146f2fb25cf5a692b14de"
                 "a9a8396975fbf70644b300a57b06450a"),
        (1200, 4, "48b7965053f2d79b2b4c2e8b585daea0"
                  "9b7be48963d285ed93afaafb4c57097c"),
        (2000, 4, "c5ad986e227be4160b3052a7c2556049"
                  "69e53abba81272aa54f6e896b16c1f46"),
    ])
    def test_certificate_digest(self, N, r, digest):
        assert _sha(colorability(N, r)) == digest

    @pytest.mark.parametrize("r, nmax, digest", [
        (1, None, "fdcc4e6c41d9a36c2e4ce903030dc9d2"
                  "c4d27f9a4c73efa3e22d560b79a6d76e"),
        (2, None, "0f4976df7cba7adb88afc1345e483cc7"
                  "df8e2dfddb2d4c12162c91d52f41c654"),
        (3, 800, "742a5f44a7a15782d57bd9e440134663"
                 "fa2d3dd393e22a1805963922053496bb"),
    ], ids=["r1", "r2", "r3"])
    def test_sp_number_digest(self, r, nmax, digest):
        assert _sha(sp_number(r, nmax)) == digest

    # the N at which the scan calls colorability, recorded from the scan
    # that repairs its coloring by Kempe chains before any exact re-solve
    R3_RESOLVES = [308, 450, 504, 558, 612, 666, 720, 774, 773]
    R4_RESOLVES = [1216]

    @pytest.mark.parametrize("r, nmax, resolves", [
        (1, None, [12, 11]),
        (2, None, [54, 53]),
        (3, 800, R3_RESOLVES),
        (4, 3000, R4_RESOLVES),
    ], ids=["r1", "r2", "r3", "r4"])
    def test_sp_number_resolves(self, monkeypatch, r, nmax, resolves):
        calls = []
        real = search.colorability

        def spy(N, r, *args):
            calls.append(N)
            return real(N, r, *args)

        monkeypatch.setattr(search, "colorability", spy)
        sp_number(r, nmax)
        assert calls == resolves


# A frozen copy of search._dsatur_decide from before its frames kept the
# vertex bit and the saturation: the body is unchanged, so the library's
# engine must walk the same tree and return the same result.
def reference_dsatur_decide(graph: PatternGraph, r: int, node_budget: int,
                            deadline: float | None):
    """Exists a proper r-coloring?  (verdict, assignment, trace).

    DSATUR order: most distinct neighbour colors, then highest degree,
    then smallest vertex; symmetry broken by allowing at most one fresh
    color per step (so the first vertex gets color 0, the second at
    most color 1).  Vertices are ranked once by (-degree, vertex) and
    every vertex set is a Python-int bitset over those ranks:
    level[s] holds the uncolored ranks with s distinct neighbour
    colors, so the pick is the lowest bit of the highest non-empty
    level, and has[c] holds the ranks with a neighbour colored c (the
    per-vertex color masks, stored by color).  The backtracking runs
    on an explicit stack of (vertex, color, used, touched) frames,
    touched being the neighbours that color moved up one level.
    Past the time.monotonic() deadline, checked every 1024 nodes, the
    verdict is "indeterminate", as when the node budget runs out.
    """
    verts = graph.vertices
    if not verts:
        return "colorable", {}, {"nodes": 0, "max_depth": 0}
    adj = graph.adj
    # the symmetry rule never reaches color len(verts), so the per-color
    # and per-level lists need no more entries than that
    r = min(r, len(verts))
    order = sorted(verts, key=lambda v: (-len(adj[v]), v))
    rank = {v: i for i, v in enumerate(order)}
    nbrs = [sum(1 << rank[u] for u in adj[v]) for v in order]
    uncolored = (1 << len(order)) - 1
    level = [uncolored] + [0] * r
    has = [0] * r
    stack: list[tuple[int, int, int, int]] = []
    nodes = 0
    max_depth = 0
    used = 0
    verdict = None
    while verdict is None:
        # enter a search node at depth len(stack)
        max_depth = max(max_depth, len(stack))
        if not uncolored:
            verdict = "colorable"
            break
        if nodes >= node_budget or (
                deadline is not None and not nodes & 1023
                and time.monotonic() > deadline):
            verdict = "indeterminate"
            break
        s = r
        while not level[s]:
            s -= 1
        low = level[s] & -level[s]
        i = low.bit_length() - 1
        level[s] ^= low
        uncolored ^= low
        c = 0
        while True:
            limit = min(used + 1, r)  # symmetry: at most one fresh color
            while c < limit and has[c] & low:
                c += 1
            if c < limit:
                nodes += 1
                touched = nbrs[i] & uncolored & ~has[c]
                has[c] |= touched
                for t in range(r - 1, -1, -1):
                    moved = level[t] & touched
                    if moved:
                        level[t] ^= moved
                        level[t + 1] |= moved
                stack.append((i, c, used, touched))
                used = max(used, c + 1)
                break
            # every color failed: uncolor i and resume its parent
            level[sum(1 for h in has if h & low)] |= low
            uncolored |= low
            if not stack:
                verdict = "not-colorable"
                break
            i, c, used, touched = stack.pop()
            low = 1 << i
            has[c] ^= touched
            for t in range(1, r + 1):
                moved = level[t] & touched
                if moved:
                    level[t] ^= moved
                    level[t - 1] |= moved
            c += 1
    trace = {"nodes": nodes, "max_depth": max_depth}
    if verdict != "colorable":
        return verdict, {}, trace
    return verdict, {order[i]: c for i, c, _, _ in stack}, trace


_GRAPHS = {}


def _graph(N):
    if N not in _GRAPHS:
        _GRAPHS[N] = pattern_graph(N)
    return _GRAPHS[N]


class TestSearchMatchesReference:
    """The library's DSATUR against the frozen reference engine: the same
    verdict, assignment and trace on a seeded sample of N, at r = 3 and 4
    and at node budgets that cut the search at its first nodes, inside a
    backtrack and not at all."""

    SAMPLE = sorted(random.Random(1979).sample(range(12, 1501), 6)) + [774]

    @pytest.mark.parametrize("budget", [1, 2, 1000, 30000,
                                        search.DEFAULT_NODE_BUDGET])
    @pytest.mark.parametrize("r", [3, 4])
    def test_same_result(self, r, budget):
        for N in self.SAMPLE:
            got = search._dsatur_decide(_graph(N), r, budget, None)
            want = reference_dsatur_decide(_graph(N), r, budget, None)
            assert got == want, (N, r, budget)

    # at r = 4 no N <= 1500 backtracks (nodes == max_depth); the search
    # of [4592], where sp_number(4) runs out of nodes, does
    @pytest.mark.parametrize("N, r", [(774, 3), (4592, 4)])
    def test_cut_inside_a_backtrack(self, N, r):
        verdict, assignment, trace = search._dsatur_decide(
            _graph(N), r, 30000, None)
        # the search has backed up from depth max_depth, at least once
        assert verdict == "indeterminate" and assignment == {}
        assert trace["nodes"] == 30000 and trace["max_depth"] < 30000
        assert (verdict, assignment, trace) == reference_dsatur_decide(
            _graph(N), r, 30000, None)


class TestSpNumber:
    def test_r1_is_12(self):
        res = sp_number(1)
        assert res.n_star == 12
        assert res.below.verdict == "colorable"
        assert res.at.verdict == "not-colorable"

    def test_r2_with_certificates(self):
        res = sp_number(2)
        assert res.n_star is not None
        assert res.below.verdict == "colorable"
        assert res.at.verdict == "not-colorable"
        assert find_monochromatic(res.below.coloring) is None
        cycle = res.at.odd_cycle
        g = pattern_graph(res.n_star)
        assert verify_odd_cycle(cycle, res.n_star)
        assert len(cycle) % 2 == 1

    def test_r2_independent_parity_walk(self):
        # second bipartiteness route: breadth-first parity labels
        res = sp_number(2)
        g = pattern_graph(res.n_star)
        side = {}
        conflict = False
        for s in g.vertices:
            if s in side:
                continue
            side[s] = 0
            queue = [s]
            while queue:
                u = queue.pop(0)
                for v in g.adj[u]:
                    if v not in side:
                        side[v] = side[u] ^ 1
                        queue.append(v)
                    elif side[v] == side[u]:
                        conflict = True
        assert conflict
        # and N* - 1 really is bipartite by the same walk
        g2 = pattern_graph(res.n_star - 1)
        side = {}
        for s in g2.vertices:
            if s in side:
                continue
            side[s] = 0
            queue = [s]
            while queue:
                u = queue.pop(0)
                for v in g2.adj[u]:
                    if v not in side:
                        side[v] = side[u] ^ 1
                        queue.append(v)
                    else:
                        assert side[v] != side[u]

    def test_thresholds_exceed_interval_bound(self):
        for r in (1, 2):
            res = sp_number(r)
            assert res.n_star > (3 ** r + 7) // 2

    def test_monotone_in_r(self):
        assert sp_number(1).n_star <= sp_number(2).n_star

    def test_r3_budgeted_probe_makes_no_claim(self):
        res = sp_number(3, nmax=500, time_budget_s=20)
        if res.n_star is not None:
            assert res.n_star > (3 ** 3 + 7) // 2
        else:
            assert res.note

    def test_time_budget_stops_inside_the_774_search(self, monkeypatch):
        # A clock that stands still until the 774 search starts and then
        # moves 0.125 s per reading, so the verdict does not depend on
        # the machine's speed: the 0.4 s budget runs out at the search's
        # fourth deadline check (node 3072 of the 87,982 that refute
        # 774), and a scan that read the clock only between values of N
        # would finish that refutation and return n_star = 774.
        clock = {"now": 0.0, "running": False}

        def monotonic():
            if clock["running"]:
                clock["now"] += 0.125
            return clock["now"]

        certs = {}
        real = search.colorability

        def spy(N, r, *args):
            clock["running"] = clock["running"] or N == 774
            certs[N] = real(N, r, *args)
            return certs[N]

        monkeypatch.setattr(search, "time", SimpleNamespace(
            monotonic=monotonic))
        monkeypatch.setattr(search, "colorability", spy)
        res = sp_number(3, nmax=800, time_budget_s=0.4)
        assert res.n_star is None and res.note == "time budget exhausted"
        assert res.exhausted_at == 774
        assert certs[774].verdict == "indeterminate"
        assert certs[774].trace["nodes"] == 3072
        assert clock["now"] < 0.7

    def test_node_budget_stops_the_scan(self):
        # nodes, not seconds: the stop is the same on every machine
        res = sp_number(3, nmax=800, node_budget=1000)
        assert res.n_star is None and res.note == "node budget exhausted"
        assert res.exhausted_at == 720

    def test_past_deadline_is_indeterminate_at_once(self):
        cert = colorability(774, 3, deadline=time.monotonic() - 1.0)
        assert cert.verdict == "indeterminate"
        assert cert.trace == {"nodes": 0, "max_depth": 0}

    def test_exhaustion_note(self):
        res = sp_number(2, nmax=40)
        assert res.n_star is None
        assert res.note == "2-colorable for all N <= nmax"
        assert res.exhausted_at == 40

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("nmax", [11, 12, 40, 53, 54, 100])
    def test_scan_matches_first_refuted_N(self, r, nmax):
        # the greedy scan may skip N; the exact verdict at every N may not
        first = next((N for N in range(7, nmax + 1)
                      if colorability(N, r).verdict == "not-colorable"),
                     None)
        assert sp_number(r, nmax).n_star == first

    def test_r3_scan_to_300_finds_nothing(self):
        res = sp_number(3, nmax=300)
        assert res.n_star is None
        assert res.exhausted_at == 300

    @pytest.mark.parametrize("r", [1, 2])
    def test_refutation_below_the_threshold_raises(self, monkeypatch, r):
        # the scan held a proper coloring of [N* - 1], so a refutation
        # there is a search fault, not the colorable-side certificate
        monkeypatch.setattr(
            search, "colorability",
            lambda N, r, *args: search.SearchCertificate(r, N,
                                                         "not-colorable"))
        with pytest.raises(RuntimeError, match="refuted"):
            sp_number(r)

    @pytest.mark.parametrize("r, p, stuck", [(1, 12, 14), (2, 54, 62),
                                             (3, 774, 800)])
    def test_planted_scan_fault_is_caught(self, monkeypatch, r, p, stuck):
        # the scan reads pair sums from _edges_with_product, the exact
        # search its own pattern_graph walk: with product p's pairs lost
        # to the scan alone, the scan colors a graph the search refutes
        # (r <= 2), or, where no product after p is stuck (r = 3), ends
        # with a coloring of [nmax] that the final check rejects
        real = search._edges_with_product
        monkeypatch.setattr(search, "_edges_with_product",
                            lambda N: [] if N == p else real(N))
        match = (rf"\[{stuck}\] refuted after the scan" if r < 3 else
                 rf"N = {stuck} pattern graph: 95 and 774 share a color")
        with pytest.raises(RuntimeError, match=match):
            sp_number(r, nmax=800)

    @pytest.mark.parametrize("budget", ["node", "time"])
    def test_planted_scan_fault_at_a_budget_stop_is_caught(self, monkeypatch,
                                                           budget):
        # with product 713's pairs lost to the scan, its coloring of [719]
        # gives 54 and 713 one color; a node budget of 1000, or a clock
        # that passes the deadline once N = 719 is scanned, stops the
        # scan at 720, and the coloring of [719] that stop reports on is
        # checked as the one of [nmax] is
        real = search._edges_with_product
        clock = {"now": 0.0}

        def edges(N):
            if N == 719:
                clock["now"] = 1.0
            return [] if N == 713 else real(N)

        monkeypatch.setattr(search, "_edges_with_product", edges)
        monkeypatch.setattr(search, "time", SimpleNamespace(
            monotonic=lambda: clock["now"]))
        budgets = ({"node_budget": 1000} if budget == "node"
                   else {"time_budget_s": 0.5})
        with pytest.raises(RuntimeError,
                           match="N = 719 pattern graph: 54 and 713 share"):
            sp_number(3, nmax=800, **budgets)

    def test_planted_repair_fault_is_caught(self, monkeypatch):
        # a repair that gives N the freed color without swapping the
        # chains: the check of the repaired coloring rejects it at once
        real = search._kempe_free
        monkeypatch.setattr(
            search, "_kempe_free",
            lambda sums, r, color, adj: real(sums, r, dict(color), adj))
        with pytest.raises(RuntimeError,
                           match="N = 180 pattern graph: 63 and 180 share"):
            sp_number(3, nmax=800)

    def test_negative_nmax_raises(self):
        # the scan's final coloring check needs a coloring of [nmax]
        with pytest.raises(DomainError, match="nmax >= 0"):
            sp_number(2, nmax=-1)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_time_budget_must_be_a_number_at_least_0(self, budget):
        # monotonic() > nan is never true, so a NaN budget was no budget
        with pytest.raises(DomainError, match="time budget"):
            sp_number(3, nmax=800, time_budget_s=budget)


class TestScanFacts:
    """What the coloring-only scan of sp_number rests on, for every
    N <= 3000: N is not a vertex of the graph of [N - 1], its neighbours
    in the graph of [N] are exactly the sums of its pairs, and a sum
    first seen at N has degree 1 there."""

    def test_each_product_meets_only_its_sums(self):
        full = pattern_graph(3000)
        assert full.edges == brute_force_edges(3000)
        for N in (12, 54, 773, 774, 2000):
            # the graph of [N] is the edges of product <= N
            prefix = [e for e in full.edges if e[1] <= N]
            assert pattern_graph(N).edges == prefix
        by_product = {}
        for s, p in full.edges:
            by_product.setdefault(p, []).append(s)
        adj = {}
        for N in range(12, 3001):
            assert N not in adj
            sums = sorted(by_product.get(N, []))
            assert sums == sorted(s for s, _ in search._edges_with_product(N))
            fresh = [s for s in sums if s not in adj]
            for s in sums:
                adj.setdefault(s, set()).add(N)
                adj.setdefault(N, set()).add(s)
            assert adj.get(N, set()) == set(sums)
            assert all(adj[s] == {N} for s in fresh)


class TestCertificateSerialization:
    def test_json_roundtrip_fields(self):
        import json
        res = sp_number(2)
        obj = json.loads(res.to_json())
        assert obj["n_star"] == res.n_star
        assert obj["at"]["odd_cycle"] == res.at.odd_cycle
        assert obj["below"]["coloring_rle"]["N"] == res.n_star - 1


class TestColoringReverified:
    """A colorable verdict is checked for its color range and against
    every edge, whichever route produced it: a faulty solver raises
    instead of certifying."""

    def test_improper_dsatur_coloring_raises(self, monkeypatch):
        monkeypatch.setattr(
            search, "_dsatur_decide",
            lambda g, r, budget, deadline: (
                "colorable", {v: 0 for v in g.vertices},
                {"nodes": 0, "max_depth": 0}))
        with pytest.raises(RuntimeError, match="improper 3-coloring"):
            colorability(100, 3)

    def test_improper_bipartite_coloring_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_bipartite_certificate",
                            lambda g: ({v: 0 for v in g.vertices}, None))
        with pytest.raises(RuntimeError, match="improper 2-coloring"):
            colorability(12, 2)

    def test_graph_missing_an_edge_raises(self, monkeypatch):
        # the coloring is checked against the pattern, not the graph: a
        # graph of [12] without its one edge (7, 12) must not certify
        # the all-zero coloring
        monkeypatch.setattr(search, "pattern_graph",
                            lambda N: search.PatternGraph(N=N, edges=[],
                                                          adj={}))
        with pytest.raises(RuntimeError, match="improper 1-coloring.*"
                                               "7 and 12 share a color"):
            colorability(12, 1)

    def test_graph_with_spurious_edge_cannot_refute(self, monkeypatch):
        # refutations are checked against the pattern, not the graph: with
        # the non-edge (7, 27), [11] would be refuted by that forced edge
        # and [53] by the odd cycle 27-7-12
        build = search.pattern_graph

        def faulty(N):
            edges = sorted(build(N).edges + [(7, 27)])
            adj = {}
            for u, v in edges:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            return search.PatternGraph(N=N, edges=edges, adj=adj)

        monkeypatch.setattr(search, "pattern_graph", faulty)
        with pytest.raises(RuntimeError, match=r"forced edge \(7, 27\)"):
            colorability(11, 1)
        with pytest.raises(RuntimeError, match="not an odd cycle"):
            colorability(53, 2)

    def test_verify_odd_cycle_reads_the_definition(self):
        assert verify_odd_cycle(colorability(54, 2).odd_cycle, 54)
        assert not verify_odd_cycle([27, 7, 12], 53)  # (7, 27) no edge
        assert not verify_odd_cycle(colorability(54, 2).odd_cycle, 53)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_color_out_of_range_raises(self, monkeypatch, bad):
        # a search fault, not a configuration error (DomainError, exit 2)
        monkeypatch.setattr(
            search, "_dsatur_decide",
            lambda g, r, budget, deadline: (
                "colorable", {v: bad for v in g.vertices},
                {"nodes": 0, "max_depth": 0}))
        with pytest.raises(RuntimeError, match=r"outside \[0, 3\)"):
            colorability(100, 3)


def kernelize_deg2(adj):
    """Delete vertices of degree <= 2 repeatedly; 3-colorability is
    preserved exactly (such vertices always have a free color left)."""
    adj = {v: set(ns) for v, ns in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) <= 2:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
                changed = True
    return adj


def fail_first_3colorable(adj, cap=5_000_000):
    """Plain fail-first exhaustive search, independent of the library's
    DSATUR implementation (static data structures, no symmetry breaking
    beyond the chromatic trivialities)."""
    import sys as _sys
    verts = sorted(adj)
    color = {}
    nodes = 0

    def choose():
        best, bestavail, bestdeg = None, 4, -1
        for v in verts:
            if v in color:
                continue
            avail = 3 - len({color[u] for u in adj[v] if u in color})
            deg = len(adj[v])
            if avail < bestavail or (avail == bestavail and deg > bestdeg):
                best, bestavail, bestdeg = v, avail, deg
        return best

    def dfs():
        nonlocal nodes
        if len(color) == len(verts):
            return True
        v = choose()
        used = {color[u] for u in adj[v] if u in color}
        for c in range(3):
            if c in used:
                continue
            nodes += 1
            if nodes > cap:
                raise RuntimeError("node cap exceeded")
            color[v] = c
            if dfs():
                return True
            del color[v]
        return False

    saved = _sys.getrecursionlimit()
    _sys.setrecursionlimit(len(verts) + 200)
    try:
        return dfs()
    finally:
        _sys.setrecursionlimit(saved)


class TestSpNumberThree:
    def test_r3_threshold_is_774(self):
        res = sp_number(3, nmax=800)
        assert res.n_star == 774
        assert res.below.verdict == "colorable"
        assert find_monochromatic(res.below.coloring) is None
        assert res.at.verdict == "not-colorable"
        assert res.n_star > (3 ** 3 + 7) // 2

    def test_r3_below_core_colorable_independent(self):
        core = kernelize_deg2(pattern_graph(773).adj)
        assert fail_first_3colorable(core)

    # A vertex-critical core of the pattern graph of [774]: a deletion
    # filter in descending vertex order over the 337-vertex degree-2
    # kernel leaves these 123 vertices, and deleting any one of them
    # makes the rest 3-colorable.
    CORE_774 = list(range(12, 57)) + [
        58, 60, 61, 63, 66, 72, 75, 80, 81, 84, 87, 88, 90, 93, 95, 96, 99,
        102, 105, 108, 112, 114, 117, 120, 123, 126, 132, 135, 140, 144,
        147, 150, 153, 156, 160, 165, 168, 180, 184, 192, 198, 204, 210,
        216, 220, 224, 228, 234, 240, 243, 252, 261, 270, 272, 276, 288,
        297, 306, 308, 315, 336, 342, 360, 368, 380, 396, 432, 440, 450,
        459, 468, 476, 560, 567, 608, 675, 720, 774]

    def test_r3_at_core_not_colorable_independent(self):
        # exhaustive confirmation on the critical core, with its edges
        # induced from the brute-force edge list rather than the
        # library's pattern_graph; a subgraph of the pattern graph of
        # [774] that is not 3-colorable proves [774] is not (~15 s)
        keep = set(self.CORE_774)
        assert len(keep) == 123
        adj = {v: set() for v in keep}
        edges = [(u, v) for u, v in brute_force_edges(774)
                 if u in keep and v in keep]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert len(edges) == 314
        assert not fail_first_3colorable(adj)

    def test_monotone_through_r3(self):
        assert sp_number(1).n_star <= sp_number(2).n_star <= 774
