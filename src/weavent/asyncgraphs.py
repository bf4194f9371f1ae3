"""Asynchronous graphs: transition graphs with declared commuting squares.

A square is an unordered pair of coinitial-cofinal length-2 paths.  The
declared squares generate an equivalence on length-2 paths, which extends to
arbitrary paths by contextual closure (rewriting a 2-segment into an
equivalent one).  Validation checks the square axioms; the cube axiom splits
into an upward (join) and a downward (stability) direction, and the weak
variant omits the downward one.  When all cofinal paths from the origin are
equivalent, the path classes ordered by prefix form a weak prime domain.

A graph never changes after construction, so each graph indexes its
out-edges once, and keeps its square classes, its validation report and its
origin-path classes once computed (``_common.once``): one ``async`` job
validates once and builds the path classes once.  The square classes carry
both the class of each 2-path and the sorted members of each class, and
every check reads them: since a square is coinitial and cofinal, the
members of a class share their source and their target, so the premises
and the conclusions of the axiom, cube and coherence checks walk the
members of the classes of the 2-paths they name instead of scanning
out-edges for 2-paths of one class.  The origin-path classes are grown
depth by depth, never by enumerating paths: a class at depth k+1 is a class
W at depth k extended by an out-edge e, and two such pairs (W, e) can only
be merged by rewriting the last segment, since rewrites inside the prefix
stay inside W.  ``oracles._origin_path_classes`` enumerates every path and
is the reference the tests compare against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ._common import Record, UnionFind, Value, _finishing_order, once
from .domains import COHERENT, FiniteDomain

Path2 = Tuple[str, str]
Path = Tuple[str, ...]


class AsyncError(ValueError):
    """Malformed asynchronous graph."""


class AsyncGraph(Record):
    """A finite acyclic transition graph with origin and square generators."""
    _fields = ("nodes", "edges", "origin", "squares")

    def __init__(self, nodes: FrozenSet[str], edges: Dict[str, Tuple[str, str]], origin: str,
                 squares: FrozenSet[FrozenSet[Path2]]):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)  # edge id -> (src, tgt)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "squares", squares)
        # results derived from the graph, and the sorted out-edges of each node
        object.__setattr__(self, "_derived", {})
        out: Dict[str, List[str]] = {n: [] for n in nodes}
        for e, (s, _) in sorted(edges.items()):
            out.setdefault(s, []).append(e)
        object.__setattr__(self, "_out", {n: tuple(es) for n, es in out.items()})

    @staticmethod
    def build(nodes: Iterable[str], edges: Iterable[Tuple[str, str, str]], origin: str,
              squares: Iterable[Tuple[Path2, Path2]] = ()) -> "AsyncGraph":
        emap = {}
        nodeset = frozenset(nodes)
        for eid, s, t in edges:
            if eid in emap:
                raise AsyncError(f"duplicate edge id {eid!r}")
            if s not in nodeset or t not in nodeset:
                raise AsyncError(f"edge {eid!r} has unknown endpoints")
            emap[eid] = (s, t)
        if origin not in nodeset:
            raise AsyncError(f"unknown origin {origin!r}")
        sqs = set()
        for p, q in squares:  # in input order, so the first bad square is named
            sq = frozenset((tuple(p), tuple(q)))
            members = sorted(sq)
            if any(len(w) != 2 or w[0] not in emap or w[1] not in emap
                   or emap[w[0]][1] != emap[w[1]][0] for w in members):
                raise AsyncError(f"square {members} is not a pair of length-2 paths")
            if len(members) != 2:
                raise AsyncError(f"square {members} does not name two distinct paths")
            first, last = members
            if emap[first[0]][0] != emap[last[0]][0] or emap[first[1]][1] != emap[last[1]][1]:
                raise AsyncError(f"square {members} is not coinitial-cofinal")
            sqs.add(sq)
        return AsyncGraph(nodeset, emap, origin, frozenset(sqs))

    def src(self, e: str) -> str:
        return self.edges[e][0]

    def tgt(self, e: str) -> str:
        return self.edges[e][1]

    def out_edges(self, n: str) -> Tuple[str, ...]:
        return self._out.get(n, ())

    def paths2(self) -> Tuple[Path2, ...]:
        return tuple((e1, e2) for e1, (_, t1) in sorted(self.edges.items())
                     for e2 in self.out_edges(t1))


@once
def _square_classes(a: AsyncGraph) -> Tuple[Dict[Path2, int], Tuple[Tuple[Path2, ...], ...]]:
    """Equivalence on length-2 paths generated by the declared squares,
    computed once per graph.

    Returns ``(cls, members)``: ``cls`` maps each 2-path to its class, the
    classes numbered by least member, and ``members[k]`` lists class k in
    sorted order.  Squares are coinitial and cofinal, so the members of a
    class share their source and their target.
    """
    uf = UnionFind(a.paths2())
    for sq in a.squares:  # checked by ``AsyncGraph.build``
        uf.union(min(sq), max(sq))
    members = uf.groups()  # each sorted, ordered by least member
    return {p: k for k, ms in enumerate(members) for p in ms}, tuple(map(tuple, members))


def _end(a: AsyncGraph, w: Path) -> str:
    """The node a path from the origin ends at."""
    return a.tgt(w[-1]) if w else a.origin


class AsyncReport(Value):
    _fields = ("acyclic", "reachable", "axiom1", "axiom2", "cube_up", "cube_down",
               "coherence", "all_cofinal_equivalent", "diagnostics")

    def __init__(self, acyclic: bool, reachable: bool, axiom1: bool, axiom2: bool,
                 cube_up: bool, cube_down: bool, coherence: bool,
                 all_cofinal_equivalent: bool, diagnostics: Tuple[str, ...] = ()):
        put = object.__setattr__
        put(self, "acyclic", acyclic)
        put(self, "reachable", reachable)
        put(self, "axiom1", axiom1)
        put(self, "axiom2", axiom2)
        put(self, "cube_up", cube_up)
        put(self, "cube_down", cube_down)
        put(self, "coherence", coherence)
        put(self, "all_cofinal_equivalent", all_cofinal_equivalent)
        put(self, "diagnostics", diagnostics)

    def weak_valid(self) -> bool:
        return (self.acyclic and self.reachable and self.axiom1 and self.axiom2
                and self.cube_up and self.coherence)

    def full_valid(self) -> bool:
        return self.weak_valid() and self.cube_down

    def weak_prime(self) -> bool:
        return self.weak_valid() and self.all_cofinal_equivalent

    def prime(self) -> bool:
        return self.full_valid() and self.all_cofinal_equivalent

    def __bool__(self):
        return self.weak_valid()


def _is_acyclic(a: AsyncGraph) -> bool:
    at = {n: k for k, n in enumerate(sorted(a.nodes))}
    succ = [0] * len(at)
    for s, t in a.edges.values():
        succ[at[s]] |= 1 << at[t]
    return _finishing_order(succ)[1] is None


def _reachable(a: AsyncGraph) -> bool:
    seen = {a.origin}
    todo = [a.origin]
    while todo:
        n = todo.pop()
        for e in a.out_edges(n):
            t = a.tgt(e)
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen == set(a.nodes)


@once
def _path_classes(a: AsyncGraph) -> Tuple[Tuple[Path, ...], FrozenSet[Tuple[int, int]]]:
    """The ≃-classes of origin paths of an acyclic graph, computed once.

    Returns ``(least, links)``: class k has least member ``least[k]``, the
    classes numbered by least member as in ``oracles._origin_path_classes``,
    and ``(j, k)`` is in ``links`` when a member of class k minus its last
    edge is in class j.  The prefix order on classes is the reflexive-transitive
    closure of ``links``.
    """
    # A class is named by its least member.  At depth k+1 the pair (W, e) is
    # named least(W)+(e,), which is the least path of the form w·e, w ∈ W;
    # so the root of a UnionFind over these names is the least member of
    # the merged class.  Pairs merge through a last-segment rewrite
    # U·a·b ≃ U·c·d with (a,b) ~ (c,d), where [U·a] depends only on [U].
    related: Dict[str, List[Tuple[Path2, ...]]] = {}  # source node -> square classes
    for members in _square_classes(a)[1]:
        if len(members) > 1:
            related.setdefault(a.src(members[0][0]), []).append(members)
    least: List[Path] = [()]
    parent_of: List[Tuple[Path, Path]] = []  # (class at depth k, class at depth k+1)
    above: List[Path] = []  # the classes at depth k-1
    level: List[Path] = [()]  # the classes at depth k
    name_at: Dict[Path, Path] = {(): ()}  # each pair name at depth k -> its class
    while level:
        uf = UnionFind(w + (e,) for w in level for e in a.out_edges(_end(a, w)))
        for u in above:
            for members in related.get(_end(a, u), ()):
                names = [name_at[u + (c,)] + (d,) for c, d in members]
                for x in names[1:]:
                    uf.union(names[0], x)
        name_at = {x: uf.find(x) for x in uf.parent}
        parent_of += [(x[:-1], root) for x, root in name_at.items()]
        above, level = level, sorted(set(name_at.values()))
        least += level
    least.sort()
    index = {w: k for k, w in enumerate(least)}
    return tuple(least), frozenset((index[w], index[v]) for w, v in parent_of)


@once
def validate_async_graph(a: AsyncGraph) -> AsyncReport:
    """Evaluate the asynchronous-graph axioms, once per graph.

    Reports each axiom separately; ``weak_valid`` ignores the downward
    (stability) direction of the cube, ``full_valid`` includes it.
    """
    diags = []
    cls, members = _square_classes(a)
    acyclic = _is_acyclic(a)
    reachable = _reachable(a)
    if not acyclic:
        diags.append("graph has a cycle")
    if not reachable:
        diags.append("nodes unreachable from the origin")

    # a class is sorted, so 2-paths sharing a first edge are adjacent in it
    bad1 = next(((p, q) for ms in members for p, q in zip(ms, ms[1:]) if p[0] == q[0]), None)
    if bad1:
        diags.append(f"axiom1: {bad1[0]} ~ {bad1[1]}")
    # ordered distinct related pairs of length-2 paths, and those by first edge
    related = [(p, q) for ms in members for p in ms for q in ms if p != q]
    by_first: Dict[str, List[Tuple[Path2, Path2]]] = {}
    for p, q in related:
        by_first.setdefault(p[0], []).append((p, q))
    bad2 = next(((p, q, p2, q2) for p, q in related for p2, q2 in by_first[p[0]]
                 if (p[1] == p2[1]) != (q[0] == q2[0])), None)
    if bad2:
        diags.append("axiom2: {}~{} vs {}~{}".format(*bad2))

    # The checks below ask for the 2-paths in the class of a given one; the
    # members of a class share their source and their target, so each walks
    # those members instead of scanning out-edges and dropping the 2-paths
    # of other classes.  A class is sorted, so a walk meets its candidates
    # in the order of that scan, or sorts them into it: every check returns
    # the first witness of the plain nested loops.
    firsts = [{p[0] for p in ms} for ms in members]  # first edges per class
    edges_from = a._out
    tgt = {e: t for e, (_, t) in a.edges.items()}
    # the sorted 2-paths by first edge
    starting = {e: [(e, e2) for e2 in edges_from[t]] for e, t in sorted(tgt.items())}

    def lower_medians() -> Iterator[Tuple[str, str, str, str, str]]:
        # the premise shared by the upward cube and coherence: lower median
        # squares m;c1 ~ u1;u2 and m;c2 ~ v1;v2 with m, u1 and v1 distinct
        for m, paths in starting.items():
            sides = [q for p in paths for q in members[cls[p]] if q[0] != m]
            for u1, u2 in sides:
                for v1, v2 in sides:
                    if v1 != u1:
                        yield m, u1, u2, v1, v2

    def cube_up_holds() -> Optional[tuple]:
        # premise: a lower median, outer paths extended by u3, v3 to a
        # common target; conclusion: an upper median closes the three faces.
        for m, u1, u2, v1, v2 in lower_medians():
            after_v2 = edges_from[tgt[v2]]
            for u3 in edges_from[tgt[u2]]:
                top = tgt[u3]
                for v3 in after_v2:
                    if (tgt[v3] == top
                            and not _cube_up_conclusion(u1, u2, u3, v1, v2, v3)):
                        return (m, (u1, u2, u3), (v1, v2, v3))
        return None

    def _cube_up_conclusion(u1, u2, u3, v1, v2, v3) -> bool:
        # w1;z ~ u2;u3 and w2;z ~ v2;v3 with u1;w1 ~ v1;w2
        return any(z == z2 and cls[(u1, w1)] == cls[(v1, w2)]
                   for w1, z in members[cls[(u2, u3)]]
                   for w2, z2 in members[cls[(v2, v3)]])

    def cube_down_holds() -> Optional[tuple]:
        # premise: u1;w1 ~ v1;w2 meeting at an upper median, with outer
        # paths through u2;u3 ~ w1;z and v2;v3 ~ w2;z; conclusion: a lower
        # median m with m;c1 ~ u1;u2 and m;c2 ~ v1;v2.  The loops run in
        # the order (b, u1, v1, w1, w2, u2, u3, z, v2, v3).
        outer: Dict[str, List[Tuple[str, str, str]]] = {}  # w1 -> sorted (u2, u3, z)
        for b in sorted(a.nodes):
            for u1 in edges_from[b]:
                for v1, w1, w2 in sorted((v1, w1, w2) for w1 in edges_from[tgt[u1]]
                                         for v1, w2 in members[cls[(u1, w1)]] if v1 != u1):
                    if w1 not in outer:
                        outer[w1] = sorted((u2, u3, z) for z in edges_from[tgt[w1]]
                                           for u2, u3 in members[cls[(w1, z)]])
                    for u2, u3, z in outer[w1]:
                        for v2, v3 in members[cls[(w2, z)]]:
                            if not firsts[cls[(u1, u2)]] & firsts[cls[(v1, v2)]]:
                                return (b, (u1, u2, u3), (v1, v2, v3))
        return None

    def coherence_holds() -> Optional[tuple]:
        # premise: a lower median and a commuting square u1;x1 ~ v1;x2;
        # conclusion: a top completing the two side squares over it.
        for m, u1, u2, v1, v2 in lower_medians():
            for x1 in edges_from[tgt[u1]]:
                for y, x2 in members[cls[(u1, x1)]]:
                    if y == v1 and not _coherence_conclusion(u2, v2, x1, x2):
                        return (m, (u1, u2), (v1, v2), (x1, x2))
        return None

    def _coherence_conclusion(u2, v2, x1, x2) -> bool:
        # u2;y1 ~ x1;z and v2;y2 ~ x2;z for some z
        return any(u2 in firsts[cls[(x1, z)]] and v2 in firsts[cls[(x2, z)]]
                   for z in edges_from[tgt[x1]])

    wup = cube_up_holds() if acyclic else ("cycle",)
    wdown = cube_down_holds() if acyclic else ("cycle",)
    wcoh = coherence_holds() if acyclic else ("cycle",)
    if wup:
        diags.append(f"cube (upward) fails at {wup}")
    if wdown:
        diags.append(f"cube (downward/stability) fails at {wdown}")
    if wcoh:
        diags.append(f"coherence fails at {wcoh}")

    all_equiv = True
    if acyclic:
        least, _ = _path_classes(a)
        all_equiv = len({_end(a, w) for w in least}) == len(least)
        if not all_equiv:
            diags.append("inequivalent cofinal paths from the origin")
    return AsyncReport(acyclic, reachable, bad1 is None, bad2 is None,
                       wup is None, wdown is None, wcoh is None,
                       all_equiv, tuple(diags))


def async_domain(a: AsyncGraph) -> FiniteDomain:
    """Prefix order on ≃-classes of origin paths (weak prime validation first)."""
    report = validate_async_graph(a)
    if not report.weak_prime():
        raise AsyncError("not a weak prime asynchronous graph: "
                         + "; ".join(report.diagnostics))
    least, links = _path_classes(a)
    ids = [f"p{k}:{';'.join(w) or 'ε'}" for k, w in enumerate(least)]
    return FiniteDomain(ids, [(ids[j], ids[k]) for j, k in links], COHERENT)


def hasse_as_async(dom: FiniteDomain) -> AsyncGraph:
    """The Hasse diagram of a poset as an asynchronous graph with every
    square declared commuting."""
    bottom = dom.bottom()
    if bottom is None:
        raise AsyncError("poset has no least element")
    edges = [(f"{x}>{y}", x, y) for x, y in dom.covers()]
    a = AsyncGraph.build(dom.elements, edges, bottom)
    spans: Dict[Tuple[str, str], List[Path2]] = {}  # (source, target) -> 2-paths
    for p in a.paths2():
        spans.setdefault((a.src(p[0]), a.tgt(p[1])), []).append(p)
    sqs = [pq for ps in spans.values() for pq in combinations(ps, 2)]
    return AsyncGraph.build(dom.elements, edges, bottom, sqs)
