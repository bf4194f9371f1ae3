"""Asynchronous graphs: transition graphs with declared commuting squares.

A square is an unordered pair of coinitial-cofinal length-2 paths.  The
declared squares generate an equivalence on length-2 paths, which extends to
arbitrary paths by contextual closure (rewriting a 2-segment into an
equivalent one).  Validation checks the square axioms; the cube axiom splits
into an upward (join) and a downward (stability) direction, and the weak
variant omits the downward one.  When all cofinal paths from the origin are
equivalent, the path classes ordered by prefix form a weak prime domain.

A graph never changes after construction, so each graph indexes its
out-edges once, and keeps its square classes, its validation report, its
origin-path classes and its domain once computed (``_common.once``): an
``async`` job and an ``async --weak`` job on the same graph validate once
and build the path classes and the domain once.  Each square is checked
once, in input order (``_square``).  The square classes carry both the
class of each 2-path and the sorted members of each class, and every check
reads them: since a square is coinitial and cofinal, the members of a class
share their source and their target, so the premises and the conclusions of
the axiom, cube and coherence checks walk the members of the classes of the
2-paths they name instead of scanning out-edges for 2-paths of one class,
and look a class up by edge (``after[e][f]``), not by a tuple key.

Premises and conclusions of the cube and coherence checks are symmetric in
their u and v sides: exchanging the sides maps a premise to a premise and
leaves its conclusion as it is.  So a premise fails exactly when its mirror
does, and the checks evaluate each unordered premise once, at its first
occurrence in the order of the plain nested loops, which keeps every first
witness (``validate_async_graph`` gives the proof).  The upward cube and
coherence share one walk of the lower medians (``_lower_medians``); the
downward cube walks the upper medians with u1 < v1 (``_upper_medians``).

The origin-path classes are grown depth by depth, never by enumerating
paths: a class at depth k+1 is a class W at depth k extended by an out-edge
e, and two such pairs (W, e) can only be merged by rewriting the last
segment, since rewrites inside the prefix stay inside W.
``oracles._origin_path_classes`` enumerates every path and is the reference
the tests compare against.  All members of a class have one length, so the
links from a class to its one-edge extensions are already the covers of the
domain, which ``async_domain`` takes as they are.
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
        nodeset = frozenset(nodes)
        emap = _edge_map(nodeset, edges, origin)
        # in input order, so the first bad square is named
        return AsyncGraph(nodeset, emap, origin,
                          frozenset([_square(emap, tuple(p), tuple(q)) for p, q in squares]))

    def src(self, e: str) -> str:
        return self.edges[e][0]

    def tgt(self, e: str) -> str:
        return self.edges[e][1]

    def out_edges(self, n: str) -> Tuple[str, ...]:
        return self._out.get(n, ())

    def paths2(self) -> Tuple[Path2, ...]:
        return tuple((e1, e2) for e1, (_, t1) in sorted(self.edges.items())
                     for e2 in self.out_edges(t1))


def _edge_map(nodes: FrozenSet[str], edges: Iterable[Tuple[str, str, str]],
              origin: str) -> Dict[str, Tuple[str, str]]:
    """Each edge id's (source, target), in input order; AsyncError at the
    first repeated id or unknown endpoint, then if the origin is unknown."""
    emap: Dict[str, Tuple[str, str]] = {}
    for eid, s, t in edges:
        if eid in emap:
            raise AsyncError(f"duplicate edge id {eid!r}")
        if s not in nodes or t not in nodes:
            raise AsyncError(f"edge {eid!r} has unknown endpoints")
        emap[eid] = (s, t)
    if origin not in nodes:
        raise AsyncError(f"unknown origin {origin!r}")
    return emap


def _square(emap: Dict[str, Tuple[str, str]], p: tuple, q: tuple) -> FrozenSet[Path2]:
    """The square p ~ q as the set of its two paths, checked once against
    the edges ``emap``: AsyncError unless p and q are length-2 paths, then
    unless they are distinct, then unless they are coinitial and cofinal."""
    ends = [emap.get(e) for w in (p, q) if len(w) == 2 for e in w]
    if (len(ends) != 4 or None in ends
            or ends[0][1] != ends[1][0] or ends[2][1] != ends[3][0]):
        raise AsyncError(f"square {sorted({p, q})} is not a pair of length-2 paths")
    if p == q:
        raise AsyncError(f"square {[p]} does not name two distinct paths")
    if ends[0][0] != ends[2][0] or ends[1][1] != ends[3][1]:
        raise AsyncError(f"square {sorted({p, q})} is not coinitial-cofinal")
    return frozenset((p, q))


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
    for sq in a.squares:  # checked by ``_square``; the least root makes the order moot
        uf.union(*sq)
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


def _lower_medians(after: Dict[str, Dict[str, int]],
                   members: Tuple[Tuple[Path2, ...], ...]) -> Iterator[Tuple[str, ...]]:
    """The lower medians ``(m, u1, u2, v1, v2)``: squares m;c1 ~ u1;u2 and
    m;c2 ~ v1;v2 with m, u1 and v1 distinct, each unordered pair of sides
    once, at its first ordered occurrence.

    ``after[e][f]`` is the class of the 2-path e;f, ``members[k]`` class k
    in sorted order.  The sides of m are the members of the classes of its
    2-paths m;c, by c, that do not start with m; side i is paired with
    side j only for i < j, so m;c1 ~ u1;u2 comes before m;c2 ~ v1;v2 in the
    list of sides.
    """
    for m, classes in after.items():
        sides = [q for k in classes.values() for q in members[k] if q[0] != m]
        for (u1, u2), (v1, v2) in combinations(sides, 2):
            if v1 != u1:
                yield m, u1, u2, v1, v2


def _upper_medians(a: AsyncGraph, after: Dict[str, Dict[str, int]],
                   members: Tuple[Tuple[Path2, ...], ...]) -> Iterator[Tuple[str, ...]]:
    """The upper medians ``(b, u1, v1, w1, w2)``: squares u1;w1 ~ v1;w2 out
    of the node b with u1 < v1, each unordered pair once, in the order
    (b, u1, v1, w1, w2); ``after`` and ``members`` as in ``_lower_medians``."""
    for b in sorted(a.nodes):
        for u1 in a._out[b]:
            for v1, w1, w2 in sorted((v1, w1, w2) for w1, k in after[u1].items()
                                     for v1, w2 in members[k] if v1 > u1):
                yield b, u1, v1, w1, w2


@once
def validate_async_graph(a: AsyncGraph) -> AsyncReport:
    """Evaluate the asynchronous-graph axioms, once per graph.

    Reports each axiom separately; ``weak_valid`` ignores the downward
    (stability) direction of the cube, ``full_valid`` includes it.

    Each cube and coherence check reports the first premise, in the order
    of the plain nested loops over out-edges, whose conclusion fails; it
    evaluates each unordered premise once.  Exchanging the u and v sides
    maps every premise to a premise, its mirror, and leaves every
    conclusion as it is, since ~ is symmetric: the upward cube's premise is
    a lower median m;c1 ~ u1;u2, m;c2 ~ v1;v2 with edges u3, v3 to one top,
    its conclusion edges w1, w2, z with w1;z ~ u2;u3, w2;z ~ v2;v3 and
    u1;w1 ~ v1;w2; coherence's premise is a lower median with a square
    u1;x1 ~ v1;x2, its conclusion a z with u2;y1 ~ x1;z and v2;y2 ~ x2;z;
    the downward cube's premise is an upper median u1;w1 ~ v1;w2 with
    u2;u3 ~ w1;z and v2;v3 ~ w2;z, its conclusion a first edge shared by
    the classes of u1;u2 and v1;v2.  So a premise fails exactly when its
    mirror fails.  The plain walks meet the two in a fixed order: the
    sides i < j of a lower median's m in that order, and at a node b, whose
    out-edges are sorted, u1 before v1 when u1 < v1.  Were the first
    failing premise of a plain walk the later of its pair, its mirror
    would have failed first; so it is the earlier one, and a walk over the
    earlier ones only (``_lower_medians``, ``_upper_medians``) meets the
    same premises in the same order up to it and reports the same witness,
    its orientation included.  The upward cube and coherence share one
    walk of the lower medians, each keeping its first witness.
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
    related_from: Dict[str, List[Tuple[Path2, Path2]]] = {}
    for p, q in related:
        related_from.setdefault(p[0], []).append((p, q))
    bad2 = next(((p, q, p2, q2) for p, q in related for p2, q2 in related_from[p[0]]
                 if (p[1] == p2[1]) != (q[0] == q2[0])), None)
    if bad2:
        diags.append("axiom2: {}~{} vs {}~{}".format(*bad2))

    # The checks below ask for the 2-paths in the class of a given one; the
    # members of a class share their source and their target, so each walks
    # those members instead of scanning out-edges and dropping the 2-paths
    # of other classes.  A class is sorted, so a walk meets its candidates
    # in the order of that scan, or sorts them into it: every check returns
    # the first witness of the plain nested loops.  Classes are looked up
    # by edge, ``after[e][f]`` for e;f, with f in sorted order.
    edges_from = a._out
    tgt = {e: t for e, (_, t) in a.edges.items()}
    after = {e: {f: cls[e, f] for f in edges_from[t]} for e, t in sorted(tgt.items())}
    by_first = []  # per class: first edge -> the second edges after it
    for ms in members:
        seconds: Dict[str, List[str]] = {}
        for e, f in ms:
            seconds.setdefault(e, []).append(f)
        by_first.append(seconds)
    by_top: Dict[str, Dict[str, List[str]]] = {}  # node -> target -> the edges to it
    for n, es in edges_from.items():
        tops = by_top[n] = {}
        for e in es:
            tops.setdefault(tgt[e], []).append(e)

    def cube_up_fails(m, u1, u2, v1, v2) -> Optional[tuple]:
        # premise: a lower median, outer paths extended by u3, v3 to a
        # common target; conclusion: an upper median closes the three faces.
        tops = by_top[tgt[v2]]
        after_u1, after_v1, after_v2 = after[u1], after[v1], after[v2]
        for u3, ku in after[u2].items():
            for v3 in tops.get(tgt[u3], ()):
                if not closes(members[ku], members[after_v2[v3]], after_u1, after_v1):
                    return (m, (u1, u2, u3), (v1, v2, v3))
        return None

    def closes(outer_u, outer_v, after_u1, after_v1) -> bool:
        # w1;z ~ u2;u3 and w2;z ~ v2;v3 with u1;w1 ~ v1;w2, the two
        # classes given as ``outer_u`` and ``outer_v``
        for w1, z in outer_u:
            side = after_u1[w1]
            for w2, z2 in outer_v:
                if z == z2 and side == after_v1[w2]:
                    return True
        return False

    def coherence_fails(m, u1, u2, v1, v2) -> Optional[tuple]:
        # premise: a lower median and a commuting square u1;x1 ~ v1;x2;
        # conclusion: a top completing the two side squares over it.
        for x1, k in after[u1].items():
            for x2 in by_first[k].get(v1, ()):
                if not tops_close(u2, v2, after[x1], after[x2]):
                    return (m, (u1, u2), (v1, v2), (x1, x2))
        return None

    def tops_close(u2, v2, after_x1, after_x2) -> bool:
        # u2;y1 ~ x1;z and v2;y2 ~ x2;z for some z
        for z, k in after_x1.items():
            if u2 in by_first[k] and v2 in by_first[after_x2[z]]:
                return True
        return False

    def cube_down_fails() -> Optional[tuple]:
        # premise: an upper median u1;w1 ~ v1;w2, with outer paths through
        # u2;u3 ~ w1;z and v2;v3 ~ w2;z; conclusion: a lower median m with
        # m;c1 ~ u1;u2 and m;c2 ~ v1;v2, that is, the classes of u1;u2 and
        # v1;v2 share a first edge.  The loops run in the order
        # (b, u1, v1, w1, w2, u2, u3, z, v2, v3).
        outer: Dict[str, List[Tuple[str, str, str]]] = {}  # w1 -> sorted (u2, u3, z)
        for b, u1, v1, w1, w2 in _upper_medians(a, after, members):
            if w1 not in outer:
                outer[w1] = sorted((u2, u3, z) for z, k in after[w1].items()
                                   for u2, u3 in members[k])
            after_u1, after_v1, after_w2 = after[u1], after[v1], after[w2]
            for u2, u3, z in outer[w1]:
                first_u = by_first[after_u1[u2]].keys()
                for v2, v3 in members[after_w2[z]]:
                    if first_u.isdisjoint(by_first[after_v1[v2]]):
                        return (b, (u1, u2, u3), (v1, v2, v3))
        return None

    wup = wdown = wcoh = ("cycle",)
    if acyclic:
        wup = wcoh = None
        for m, u1, u2, v1, v2 in _lower_medians(after, members):
            if wup is None:
                wup = cube_up_fails(m, u1, u2, v1, v2)
            if wcoh is None:
                wcoh = coherence_fails(m, u1, u2, v1, v2)
            if wup and wcoh:
                break
        wdown = cube_down_fails()
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


@once
def async_domain(a: AsyncGraph) -> FiniteDomain:
    """Prefix order on ≃-classes of origin paths (weak prime validation
    first), built once per graph from the links of ``_path_classes``.

    The elements are the ids ``p{k}:…`` of the classes, sorted, and the
    covers the links.  All members of a class have one length, since a
    rewrite replaces a 2-segment by a 2-segment, and a link (j, k) runs
    from a class of length d to one of length d + 1.  So every chain of
    links from j to k has length(k) - length(j) links: the links are
    acyclic, none is implied by two or more others, and rising length is
    an order with every class after the classes it covers.
    """
    report = validate_async_graph(a)
    if not report.weak_prime():
        raise AsyncError("not a weak prime asynchronous graph: "
                         + "; ".join(report.diagnostics))
    least, links = _path_classes(a)
    named = sorted((f"p{k}:{';'.join(w) or 'ε'}", k) for k, w in enumerate(least))
    at = {k: i for i, (_, k) in enumerate(named)}  # class -> index of its id
    return FiniteDomain._of_covers(tuple(x for x, _ in named),
                                   tuple(sorted((at[j], at[k]) for j, k in links)),
                                   sorted(at.values(), key=lambda i: len(least[named[i][1]])),
                                   COHERENT)


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
