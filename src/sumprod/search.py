"""Exact minimal-N thresholds for monochromatic {x+y, xy}.

Avoiding a monochromatic pair with r colors is exactly proper
r-colorability of the pattern graph on [7, N] whose edges join x+y to
xy over x > y > 2, xy <= N (no self-loops: xy >= 3x > x+y there).
colorability decides one (N, r): r = 1 reduces to the first edge, r = 2
to bipartiteness (an odd cycle certifies failure), r >= 3 to DSATUR
backtracking with symmetry breaking under a node budget (Brelaz, CACM
1979).  The search runs on an explicit stack, so its depth is not
bounded by the recursion limit, and picks vertices from one bitset of
uncolored vertices per saturation level instead of scanning them all.
Every coloring is checked by find_monochromatic before it is returned,
and every r <= 2 refutation against the pattern's definition.
sp_number runs one scan for every r and keeps a coloring plus the
adjacency of the products scanned so far: each product N takes the
first color its pair sums leave free; where none is free, a Kempe-chain
swap tries to free one, and the scan re-solves exactly only where no
chain frees a color.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coloring import Coloring, find_monochromatic
from .errors import DomainError


@dataclass
class PatternGraph:
    N: int
    edges: list          # sorted (sum, prod) pairs
    adj: dict            # vertex -> sorted list of neighbors

    @property
    def vertices(self) -> list:
        return sorted(self.adj.keys())


def _edges_with_product(p: int) -> list:
    """All (x+y, xy) with x > y > 2 and xy == p (y^2 < p gives x > y).

    The scan's pair sums; pattern_graph walks the pairs on its own, so
    a fault in either shows up against the other."""
    return [(p // y + y, p) for y in range(3, math.isqrt(p - 1) + 1)
            if p % y == 0]


def pattern_graph(N: int) -> PatternGraph:
    if N < 0:
        raise DomainError("need N >= 0")
    # one walk of the pairs x > y > 2 with xy <= N, so no edge below 12;
    # edges are distinct and sorted: a vertex meets its smaller neighbours
    # (as the product) before its larger ones, so each list comes sorted
    edges = sorted((x + y, x * y) for y in range(3, math.isqrt(N) + 1)
                   for x in range(y + 1, N // y + 1))
    adj: dict[int, list] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return PatternGraph(N=N, edges=edges, adj=adj)


@dataclass
class SearchCertificate:
    r: int
    N: int
    verdict: str                      # colorable | not-colorable | indeterminate
    coloring: Coloring | None = None
    odd_cycle: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        """Every field; the coloring, when there is one, as coloring_rle."""
        obj = dict(vars(self))
        if obj.pop("coloring") is not None:
            obj["coloring_rle"] = self.coloring.to_rle_obj()
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)


def _checked_coloring(N: int, r: int, assigned: dict) -> Coloring:
    """The coloring of [N] a search assigned (color 0 off the graph).

    The colors are range-checked on the raw array, then checked against
    the pattern by find_monochromatic, not against the search's graph,
    so a search or graph fault raises RuntimeError, not DomainError.
    """
    cols = np.zeros(N, dtype=np.int64)
    for v, c in assigned.items():
        cols[v - 1] = c
    if N >= 1 and (cols.min() < 0 or cols.max() >= r):
        raise RuntimeError(
            f"a color outside [0, {r}) in the N = {N} search result")
    coloring = Coloring(N=N, r=r, colors=cols)
    wit = find_monochromatic(coloring)
    if wit is not None:
        raise RuntimeError(
            f"improper {r}-coloring of the N = {N} pattern graph: "
            f"{wit.sum} and {wit.prod} share a color")
    return coloring


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
    return anc_u[: anc_set[w] + 1] + list(reversed(path_v))  # w: the LCA


def _is_edge(a: int, b: int, N: int) -> bool:
    """Is {a, b} an edge of the [N] pattern, from its definition alone?

    With u < v it is iff v <= N and x + y = u, xy = v for some
    x > y > 2: x and y are the roots of t^2 - u t + v, so u^2 - 4v = d^2
    with d = x - y > 0 and y = (u - d)/2 an integer > 2.
    """
    u, v = sorted((a, b))
    disc = u * u - 4 * v
    if v > N or disc <= 0:
        return False
    d = math.isqrt(disc)
    return d * d == disc and (u - d) % 2 == 0 and (u - d) // 2 > 2


def verify_odd_cycle(cycle: list, N: int) -> bool:
    """Is cycle a closed odd walk in the [N] pattern graph?  Checked
    against the pattern's definition, not against a built graph."""
    if len(cycle) % 2 == 0 or len(cycle) < 3:
        return False
    return all(_is_edge(a, b, N)
               for a, b in zip(cycle, cycle[1:] + cycle[:1]))


DEFAULT_NODE_BUDGET = 2_000_000


def _dsatur_decide(graph: PatternGraph, r: int, node_budget: int,
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
    on an explicit stack of (low, nb, color, used, touched, s) frames:
    the picked vertex's bit and neighbour bitset, its color, the colors
    in use before it, the neighbours that color moved up one level and
    the saturation s it was picked at, so a vertex whose every color
    fails goes back to level[s] without a scan of has.
    Past the time.monotonic() deadline, checked every 1024 nodes, the
    verdict is "indeterminate", as when the node budget runs out.
    """
    adj = graph.adj
    # the symmetry rule never reaches color len(adj), so the per-color
    # and per-level lists need no more entries than that (none for the
    # empty graph, which the loop then finds colorable at once)
    r = min(r, len(adj))
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    rank = {v: i for i, v in enumerate(order)}
    nbrs = [sum(1 << rank[u] for u in adj[v]) for v in order]
    uncolored = (1 << len(order)) - 1
    level = [uncolored] + [0] * r
    has = [0] * r
    up = range(r - 1, -1, -1)
    down = range(1, r + 1)
    stack: list[tuple[int, int, int, int, int, int]] = []
    nodes = 0
    max_depth = 0
    used = 0
    verdict = None
    while verdict is None:
        # enter a search node at depth len(stack)
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
        level[s] ^= low
        uncolored ^= low
        nb = nbrs[low.bit_length() - 1]
        c = 0
        while True:
            limit = used + 1 if used < r else r  # at most one fresh color
            while c < limit and has[c] & low:
                c += 1
            if c < limit:
                nodes += 1
                touched = nb & uncolored & ~has[c]
                has[c] |= touched
                for t in up:
                    moved = level[t] & touched
                    if moved:
                        level[t] ^= moved
                        level[t + 1] |= moved
                stack.append((low, nb, c, used, touched, s))
                if c == used:
                    used += 1
                if len(stack) > max_depth:
                    max_depth = len(stack)
                break
            # every color failed: uncolor the vertex and resume its
            # parent.  Each deeper change to has is undone by now, so the
            # vertex has the s neighbour colors it was picked with.
            level[s] |= low
            uncolored |= low
            if not stack:
                verdict = "not-colorable"
                break
            low, nb, c, used, touched, s = stack.pop()
            has[c] ^= touched
            for t in down:
                moved = level[t] & touched
                if moved:
                    level[t] ^= moved
                    level[t - 1] |= moved
            c += 1
    trace = {"nodes": nodes, "max_depth": max_depth}
    if verdict != "colorable":
        return verdict, {}, trace
    return verdict, {order[low.bit_length() - 1]: c
                     for low, _, c, _, _, _ in stack}, trace


def colorability(N: int, r: int, node_budget: int = DEFAULT_NODE_BUDGET,
                 deadline: float | None = None) -> SearchCertificate:
    """Decision + certificate for one (N, r).

    A not-colorable verdict carries its witness: the forced edge
    (r = 1), an odd cycle (r = 2) or the exhausted DSATUR trace
    (r >= 3); the edge and the cycle are checked against the pattern's
    definition first.  A colorable verdict carries the coloring, which
    is checked first too; a color outside [0, r), a monochromatic
    {x+y, xy} or a witness that is not the pattern's raises
    RuntimeError, since it can only come from a fault in the search or
    its graph.
    The r >= 3 search gives up as "indeterminate" past the
    time.monotonic() deadline, if one is given.
    """
    if r < 1:
        raise DomainError("need r >= 1")
    graph = pattern_graph(N)
    cert = SearchCertificate(r=r, N=N, verdict="colorable")
    assignment: dict = {}
    if r == 1:
        cert.trace = {"nodes": 0, "max_depth": 0}
        if graph.edges:
            if not _is_edge(*graph.edges[0], N):
                raise RuntimeError(f"forced edge {graph.edges[0]} is not "
                                   f"a pattern edge of [{N}]")
            cert.verdict = "not-colorable"
            cert.trace["forced_edge"] = list(graph.edges[0])
    elif r == 2:
        side, cycle = _bipartite_certificate(graph)
        cert.trace = {"nodes": len(graph.edges), "max_depth": 0}
        if cycle is not None:
            if not verify_odd_cycle(cycle, N):
                raise RuntimeError(f"{cycle} is not an odd cycle of the "
                                   f"[{N}] pattern graph")
            cert.verdict, cert.odd_cycle = "not-colorable", cycle
        else:
            assignment = side
    else:
        cert.verdict, assignment, cert.trace = _dsatur_decide(
            graph, r, node_budget, deadline)
    if cert.verdict == "colorable":
        cert.coloring = _checked_coloring(N, r, assignment)
    return cert


@dataclass
class ThresholdResult:
    r: int
    n_star: int | None
    below: SearchCertificate | None
    at: SearchCertificate | None
    exhausted_at: int | None = None
    note: str = ""

    def to_obj(self) -> dict:
        return {**vars(self),
                "below": self.below.to_obj() if self.below else None,
                "at": self.at.to_obj() if self.at else None}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)


def _kempe_free(sums: list, r: int, color: dict, adj: dict) -> int | None:
    """Free a color for a new product whose pair sums use all r colors.

    For each color pair (a, b), high colors first since the scan's
    first-free step leaves them sparse, walk the (a, b)-chains of adj
    (colors as in _checked_coloring: 0 where unset) from the sums
    colored a.  If no chain reaches a sum colored b, swap a and b on
    those chains, in color, and return a; if every pair is blocked,
    return None with color unchanged (Kempe 1879).
    """
    targets = set(sums)
    top = range(r - 1, -1, -1)
    for a in top:
        for b in top:
            if a == b:
                continue
            chain = {s for s in sums if color.get(s, 0) == a}
            stack = list(chain)
            blocked = False
            while stack and not blocked:
                for v in adj.get(stack.pop(), ()):
                    c = color.get(v, 0)
                    if c == b and v in targets:
                        blocked = True
                        break
                    if c in (a, b) and v not in chain:
                        chain.add(v)
                        stack.append(v)
            if not blocked:
                for v in chain:
                    color[v] = b if color.get(v, 0) == a else a
                return a
    return None


def sp_number(r: int, nmax: int | None = None,
              node_budget: int = DEFAULT_NODE_BUDGET,
              time_budget_s: float | None = None) -> ThresholdResult:
    """Smallest N <= nmax whose pattern graph is not r-colorable.

    One scan for every r that holds a coloring (0 where unset) and the
    adjacency of the products scanned so far.  A sum is below its
    product, so product N is a new vertex adjacent to just its pair
    sums, and a sum first seen at N keeps color 0.  N takes the first
    color its sums leave free.  When none is free, a Kempe-chain swap on
    the adjacency of [N - 1] may free one (_kempe_free), and the swapped
    coloring of [N] is checked by _checked_coloring; only when no chain
    frees a color does the exact colorability(N, r) decide N (and, if
    colorable, replace the coloring).  N joins the adjacency after its
    chain walk.  The certificate pair re-verifies: colorable at N* - 1,
    not-colorable at N* (a refutation at N* - 1, which the scan colored,
    raises RuntimeError).  When the scan reaches nmax or runs out of its
    node or time budget at N, n_star is None and the note says which;
    every such exit first checks the scan's coloring of what it settled,
    [nmax] or [N - 1].  The time budget, a number >= 0, is checked
    between values of N and, as a deadline, inside every exact search.
    """
    if r < 1:
        raise DomainError("need r >= 1")
    if time_budget_s is not None and not time_budget_s >= 0:
        raise DomainError("need a time budget >= 0 s")
    if nmax is None:
        nmax = {1: 100, 2: 10_000}.get(r, 1_000_000)
    if nmax < 0:
        raise DomainError("need nmax >= 0")
    deadline = (None if time_budget_s is None
                else time.monotonic() + time_budget_s)
    color: dict[int, int] = {}
    adj: dict[int, list] = {}
    settled, note = nmax, f"{r}-colorable for all N <= nmax"
    for N in range(12, nmax + 1):
        if deadline is not None and time.monotonic() > deadline:
            settled, note = N - 1, "time budget exhausted"
            break
        sums = [s for s, _ in _edges_with_product(N)]
        used = {color.get(s, 0) for s in sums}
        free = next((c for c in range(r) if c not in used), None)
        if free is None:
            free = _kempe_free(sums, r, color, adj)
            if free is not None:
                color[N] = free
                _checked_coloring(N, r, color)
        adj[N] = sums
        for s in sums:
            adj.setdefault(s, []).append(N)
        if free is not None:
            color[N] = free
            continue
        cert = colorability(N, r, node_budget, deadline)
        if cert.verdict == "not-colorable":
            below = colorability(N - 1, r, node_budget, deadline)
            if below.verdict == "colorable":
                return ThresholdResult(r, N, below, cert)
            if below.verdict == "not-colorable":
                raise RuntimeError(f"[{N - 1}] refuted after the scan "
                                   f"{r}-colored it")
            cert = below
        if cert.verdict == "indeterminate":
            settled, note = N - 1, ("node budget exhausted"
                                    if cert.trace["nodes"] >= node_budget
                                    else "time budget exhausted")
            break
        color = dict(enumerate(cert.coloring.colors.tolist(), 1))
    _checked_coloring(settled, r, color)  # the note rests on it alone
    # a budget stop at N is reported at N, the end of the scan at nmax
    return ThresholdResult(r, None, None, None, min(settled + 1, nmax), note)
