"""Exact minimal-N thresholds for monochromatic {x+y, xy}.

Avoiding a monochromatic pair with r colors is exactly proper
r-colorability of the pattern graph on [7, N] whose edges join x+y to
xy over x > y > 2, xy <= N (no self-loops: xy >= 3x > x+y there).
r = 1 reduces to the first edge, r = 2 to bipartiteness (union-find
with parity, streaming edges in product order), r >= 3 to DSATUR
backtracking with symmetry breaking under a node budget.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .coloring import Coloring
from .errors import DomainError


@dataclass
class PatternGraph:
    N: int
    edges: list          # deduplicated (sum, prod) pairs
    adj: dict            # vertex -> sorted list of neighbors

    @property
    def vertices(self) -> list:
        return sorted(self.adj.keys())


def _edges_with_product(p: int) -> list:
    """All (x+y, xy) with x > y > 2 and xy == p."""
    out = []
    y = 3
    while y * y < p:
        if p % y == 0:
            x = p // y
            if x > y:
                out.append((x + y, p))
        y += 1
    return out


def pattern_graph(N: int) -> PatternGraph:
    if N < 7:
        raise DomainError("need N >= 7")
    edges = set()
    for p in range(12, N + 1):
        for e in _edges_with_product(p):
            edges.add(e)
    adj: dict[int, set] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return PatternGraph(N=N, edges=sorted(edges),
                        adj={v: sorted(ns) for v, ns in adj.items()})


@dataclass
class SearchCertificate:
    r: int
    N: int
    verdict: str                      # colorable | not-colorable | indeterminate
    coloring: Coloring | None = None
    odd_cycle: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {"r": self.r, "N": self.N, "verdict": self.verdict,
               "trace": self.trace, "odd_cycle": self.odd_cycle}
        if self.coloring is not None:
            obj["coloring_rle"] = json.loads(self.coloring.to_rle_json())
        return json.dumps(obj, sort_keys=True)


def _full_coloring(N: int, r: int, assigned: dict) -> Coloring:
    cols = np.zeros(N, dtype=np.int64)
    for v, c in assigned.items():
        cols[v - 1] = c
    return Coloring(N=N, r=max(r, 1), colors=cols)


def _bipartite_certificate(graph: PatternGraph):
    """(coloring dict) if bipartite, else an odd cycle vertex list."""
    side: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for start in graph.vertices:
        if start in side:
            continue
        side[start] = 0
        parent[start] = None
        stack = [start]
        while stack:
            u = stack.pop()
            for v in graph.adj[u]:
                if v not in side:
                    side[v] = side[u] ^ 1
                    parent[v] = u
                    stack.append(v)
                elif side[v] == side[u]:
                    return None, _extract_cycle(u, v, parent)
    return side, None


def _extract_cycle(u: int, v: int, parent: dict) -> list:
    anc_u = []
    w = u
    while w is not None:
        anc_u.append(w)
        w = parent[w]
    anc_set = {w: i for i, w in enumerate(anc_u)}
    path_v = []
    w = v
    while w not in anc_set:
        path_v.append(w)
        w = parent[w]
    lca = w
    cycle = anc_u[: anc_u.index(lca) + 1] + list(reversed(path_v))
    return cycle


def verify_odd_cycle(cycle: list, graph: PatternGraph) -> bool:
    if len(cycle) % 2 == 0 or len(cycle) < 3:
        return False
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if b not in graph.adj.get(a, []):
            return False
    return True


DEFAULT_NODE_BUDGET = 2_000_000


def _dsatur_decide(graph: PatternGraph, r: int, node_budget: int):
    """Exists a proper r-coloring?  (verdict, assignment, trace).

    DSATUR order, deterministic tie-break by smallest vertex; symmetry
    broken by allowing at most one fresh color per step (so the first
    vertex gets color 0, the second at most color 1).
    """
    verts = graph.vertices
    if not verts:
        return "colorable", {}, {"nodes": 0, "max_depth": 0}
    adj = graph.adj
    color: dict[int, int] = {}
    neigh_colors: dict[int, set] = {v: set() for v in verts}
    nodes = 0
    max_depth = 0

    def pick() -> int:
        best, best_sat, best_deg = -1, -1, -1
        for v in verts:
            if v in color:
                continue
            sat, deg = len(neigh_colors[v]), len(adj[v])
            if sat > best_sat or (sat == best_sat and deg > best_deg) or \
                    (sat == best_sat and deg == best_deg
                     and (best == -1 or v < best)):
                best, best_sat, best_deg = v, sat, deg
        return best

    def solve(depth: int, used: int):
        nonlocal nodes, max_depth
        max_depth = max(max_depth, depth)
        if len(color) == len(verts):
            return True
        if nodes >= node_budget:
            return None
        v = pick()
        limit = min(used + 1, r)  # symmetry: at most one fresh color
        for c in range(limit):
            if c in neigh_colors[v]:
                continue
            nodes += 1
            color[v] = c
            touched = []
            for u in adj[v]:
                if u not in color and c not in neigh_colors[u]:
                    neigh_colors[u].add(c)
                    touched.append(u)
            res = solve(depth + 1, max(used, c + 1))
            if res:
                return True
            for u in touched:
                neigh_colors[u].discard(c)
            del color[v]
            if res is None:
                return None
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(verts) + 200))
    try:
        res = solve(0, 0)
    finally:
        sys.setrecursionlimit(old_limit)
    trace = {"nodes": nodes, "max_depth": max_depth}
    if res is None:
        return "indeterminate", {}, trace
    return ("colorable" if res else "not-colorable"), dict(color), trace


def colorability(N: int, r: int, node_budget: int = DEFAULT_NODE_BUDGET,
                 solver=None) -> SearchCertificate:
    """Decision + certificate for one (N, r).

    solver, when given, replaces the built-in r >= 3 search: it is
    called as solver(graph, r) and must return an assignment dict
    (vertex -> color) or None for not-colorable.  The returned
    certificate is re-verified either way.
    """
    if r < 1:
        raise DomainError("need r >= 1")
    graph = pattern_graph(N) if N >= 7 else PatternGraph(N=N, edges=[],
                                                         adj={})
    if r == 1:
        if graph.edges:
            u, v = graph.edges[0]
            return SearchCertificate(
                r=r, N=N, verdict="not-colorable",
                trace={"nodes": 0, "max_depth": 0, "forced_edge": [u, v]})
        return SearchCertificate(r=r, N=N, verdict="colorable",
                                 coloring=_full_coloring(N, r, {}),
                                 trace={"nodes": 0, "max_depth": 0})
    if r == 2:
        side, cycle = _bipartite_certificate(graph)
        if cycle is not None:
            return SearchCertificate(r=r, N=N, verdict="not-colorable",
                                     odd_cycle=cycle,
                                     trace={"nodes": len(graph.edges),
                                            "max_depth": 0})
        return SearchCertificate(r=r, N=N, verdict="colorable",
                                 coloring=_full_coloring(N, r, side),
                                 trace={"nodes": len(graph.edges),
                                        "max_depth": 0})
    if solver is not None:
        assignment = solver(graph, r)
        verdict = "colorable" if assignment is not None else "not-colorable"
        trace = {"nodes": 0, "max_depth": 0, "external_solver": True}
        if assignment is not None:
            for u, v in graph.edges:
                if assignment.get(u) == assignment.get(v):
                    raise DomainError(
                        "external solver returned an improper coloring")
    else:
        verdict, assignment, trace = _dsatur_decide(graph, r, node_budget)
    cert = SearchCertificate(r=r, N=N, verdict=verdict, trace=trace)
    if verdict == "colorable":
        cert.coloring = _full_coloring(N, r, assignment)
    return cert


class _ParityDSU:
    """Union-find tracking parity of the path to the representative."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.par: dict[int, int] = {}

    def find(self, x: int) -> tuple[int, int]:
        if x not in self.parent:
            self.parent[x] = x
            self.par[x] = 0
            return x, 0
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        root = x
        p = 0
        for v in reversed(path):
            p ^= self.par[v]
            self.parent[v] = root
            self.par[v] = p
        return root, self.par[path[0]] if path else 0

    def union(self, a: int, b: int) -> bool:
        """Join with odd constraint (different sides); False on conflict."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa != pb
        self.parent[rb] = ra
        self.par[rb] = pa ^ pb ^ 1
        return True


@dataclass
class ThresholdResult:
    r: int
    n_star: int | None
    below: SearchCertificate | None
    at: SearchCertificate | None
    exhausted_at: int | None = None
    note: str = ""

    def to_json(self) -> str:
        obj = {"r": self.r, "n_star": self.n_star,
               "exhausted_at": self.exhausted_at, "note": self.note,
               "below": json.loads(self.below.to_json()) if self.below else None,
               "at": json.loads(self.at.to_json()) if self.at else None}
        return json.dumps(obj, sort_keys=True)


def sp_number(r: int, nmax: int | None = None,
              node_budget: int = DEFAULT_NODE_BUDGET,
              time_budget_s: float | None = None) -> ThresholdResult:
    """Smallest N <= nmax whose pattern graph is not r-colorable.

    The certificate pair re-verifies: colorable at N*-1, not-colorable
    at N*.  For r >= 3 nothing is asserted when the scan or the node
    budget is exhausted.
    """
    if r < 1:
        raise DomainError("need r >= 1")
    if nmax is None:
        nmax = {1: 100, 2: 10_000}.get(r, 1_000_000)
    if r == 1:
        n_star = 12  # first pattern is (x, y) = (4, 3): {7, 12}
        if nmax < n_star:
            return ThresholdResult(r, None, None, None, nmax,
                                   "no edge below nmax")
        return ThresholdResult(r, n_star, colorability(n_star - 1, r),
                               colorability(n_star, r))
    if r == 2:
        dsu = _ParityDSU()
        for N in range(12, nmax + 1):
            ok = True
            for u, v in _edges_with_product(N):
                if not dsu.union(u, v):
                    ok = False
            if not ok:
                return ThresholdResult(r, N, colorability(N - 1, r),
                                       colorability(N, r))
        return ThresholdResult(r, None, None, None, nmax,
                               "bipartite for all N <= nmax")
    # r >= 3: greedy extension of the last good coloring, full DSATUR
    # re-solve only when a new product vertex cannot be colored greedily
    import time
    t0 = time.monotonic()
    assignment: dict[int, int] = {}
    adj: dict[int, set] = {}
    for N in range(12, nmax + 1):
        if time_budget_s is not None and time.monotonic() - t0 > time_budget_s:
            return ThresholdResult(r, None, None, None, N,
                                   "time budget exhausted")
        new_edges = _edges_with_product(N)
        if not new_edges:
            continue
        for u, v in new_edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        stuck = False
        for w in sorted({w for e in new_edges for w in e}):
            if w in assignment:
                continue
            used = {assignment[u] for u in adj[w] if u in assignment}
            free = [c for c in range(r) if c not in used]
            if free:
                assignment[w] = free[0]
            else:
                stuck = True
        if not stuck:
            continue
        cert = colorability(N, r, node_budget=node_budget)
        if cert.verdict == "indeterminate":
            return ThresholdResult(r, None, None, None, N,
                                   "node budget exhausted")
        if cert.verdict == "not-colorable":
            below = colorability(N - 1, r, node_budget=node_budget)
            return ThresholdResult(r, N, below, cert)
        assignment = {v: cert.coloring.color_of(v) for v in adj}
    return ThresholdResult(r, None, None, None, nmax,
                           f"{r}-colorable for all N <= nmax")
