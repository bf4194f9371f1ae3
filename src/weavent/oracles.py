"""The exhaustive references every fast path of the package is tested against.

Each function here builds its answer from the definitions, without the
shortcuts of the layer it checks, and is exponential or close to it; the
command line never calls one, so it never compiles this module.

- Domains: ``validate_domain_by_definition`` looks for a join of every
  pairwise-consistent (coherent) or bounded (bounded complete) subset,
  ``primes_by_definition`` and ``weak_primes_by_definition`` quantify over
  every consistent subset, and ``interchangeable_by_definition`` (over the
  down-closed consistent sets of irreducibles) and
  ``interchangeable_via_compacts`` (over the compacts above both
  predecessors) decide ↔; the fast paths are the pair pass and the join
  characterisation of ``domains``.
- Isomorphisms: ``es_isomorphic``, ``epes_isomorphic`` and
  ``poset_isomorphic`` search every signature-preserving bijection on
  ``_common.backtrack``, where ``roundtrip`` tests the one map the duality
  gives (``duality._counit_holds``, ``_fuse_counit_holds``,
  ``_unfold_unit_holds`` and the certificate of ``domains``).
- Intervals: ``interval_classes_by_definition`` unions every pair of covers
  related by ``interval_leq``, and ``_axiom_v_by_definition`` runs four
  nested loops over the named intervals.
- Asynchronous graphs: ``_origin_path_classes`` enumerates every path from
  the origin and quotients it by rewriting one 2-segment at a time, where
  ``asyncgraphs`` grows the classes depth by depth.
- Rewriting: ``pushout`` builds the pushout of a span whole, and
  ``apply_rule_by_definition`` builds ``D`` and ``H`` whole through it;
  ``colimit_by_definition`` glues every stage of a derivation at once,
  ``equivalent_traces`` searches the left-consistent permutations, and
  ``trace_classes_by_definition`` builds every interleaving with
  ``find_matches`` and ``apply_rule_by_definition`` and quotients the
  derivations pairwise.  ``is_pushout`` and ``verify_direct_derivation``
  check a step's squares against the pushout criterion.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from ._common import Report, UnionFind, _bits, backtrack
from .es import BINARY, EventStructure, minimal_enablings
from .domains import (COHERENT, FiniteDomain, OrderError, _irreducible_indices,
                      interchangeable, predecessor)
from .duality import Epes, _es_matches
from .intervals import Interval, interval_leq
from .asyncgraphs import AsyncGraph, _square_classes
from .graphs import GraphError, GraphMorphism, TypedGraph, find_matches, iso_hash
from .rewrite import (Derivation, DirectDerivation, Grammar, Rule, TraceDomainResult,
                      _span_names, _trace_result, is_fusion_safe)


# ---------------------------------------------------------------------- #
# Domains
# ---------------------------------------------------------------------- #

def validate_domain_by_definition(dom: FiniteDomain) -> Report:
    """Exhaustive oracle for ``validate_domain``.

    A least element, and a join for every pairwise-consistent subset
    (coherent) or for every bounded subset (bounded complete), with joins
    found from ``leq`` alone.  Exponential; meant for at most 10 elements.
    """
    if dom.bottom() is None:
        return Report(False, "no-least-element")
    names = dom.elements
    n = len(names)
    leq = [[dom.leq(a, b) for b in names] for a in names]
    pair_ok = [[any(leq[a][u] and leq[b][u] for u in range(n)) for b in range(n)]
               for a in range(n)]
    for mask in range(1 << n):
        xs = list(_bits(mask))
        ubs = [u for u in range(n) if all(leq[x][u] for x in xs)]
        if dom.kind == COHERENT:
            asked = all(pair_ok[a][b] for a, b in combinations(xs, 2))
        else:
            asked = bool(ubs)
        if asked and not any(all(leq[u][v] for v in ubs) for u in ubs):
            return Report(False, "missing-join", tuple(names[x] for x in xs))
    return Report(True)


def primes_by_definition(dom: FiniteDomain) -> Tuple[str, ...]:
    """Exhaustive oracle for ``primes`` over all pairwise-consistent subsets."""
    n = len(dom.elements)
    subsets = []
    for mask in range(1 << n):
        ok = True
        for i, j in combinations(list(_bits(mask)), 2):
            if not dom.consistent((dom.elements[i], dom.elements[j])):
                ok = False
                break
        if ok:
            jm = dom._join_mask(mask)
            if jm is not None:
                subsets.append((mask, jm))
    out = []
    for p in range(n):
        good = True
        for mask, jm in subsets:
            if dom._up[p] & (1 << jm):
                if not any(dom._up[p] & (1 << i) for i in _bits(mask)):
                    good = False
                    break
        if good:
            out.append(dom.elements[p])
    return tuple(out)


def interchangeable_by_definition(dom: FiniteDomain, i: str, i2: str) -> bool:
    """Oracle: the original quantifier over downward-closed consistent sets
    of irreducibles.  Exponential; meant for cross-checking on small posets."""
    irr = _irreducible_indices(dom)
    k = len(irr)
    pos = {e: t for t, e in enumerate(irr)}
    ii, jj = dom.index(i), dom.index(i2)
    if ii not in pos or jj not in pos:
        raise OrderError(f"{i!r} or {i2!r} is not irreducible")
    # per-irreducible mask of irreducibles strictly below (within irr indexing)
    below = []
    for e in irr:
        m = 0
        for t, e2 in enumerate(irr):
            if e2 != e and (dom._down[e] >> e2) & 1:
                m |= 1 << t
        below.append(m)

    def down_closed(mask: int) -> bool:
        rest = mask
        while rest:
            low = rest & -rest
            t = low.bit_length() - 1
            if below[t] & ~mask:
                return False
            rest ^= low
        return True

    def consistent_mask(mask: int) -> bool:
        ub = dom._full
        for t in _bits(mask):
            ub &= dom._up[irr[t]]
        return ub != 0

    def join_mask(mask: int) -> Optional[int]:
        m = 0
        for t in _bits(mask):
            m |= 1 << irr[t]
        return dom._join_mask(m)

    ti, tj = pos[ii], pos[jj]
    all_equal = True
    some_growth = False
    for mask in range(1 << k):
        mi, mj = mask | (1 << ti), mask | (1 << tj)
        if not (down_closed(mi) and down_closed(mj)):
            continue
        if not (consistent_mask(mi) and consistent_mask(mj)):
            continue
        ji, jjn = join_mask(mi), join_mask(mj)
        if ji != jjn or ji is None:
            all_equal = False
            break
        if join_mask(mask) != ji:
            some_growth = True
    return all_equal and some_growth


def interchangeable_via_compacts(dom: FiniteDomain, i: str, i2: str) -> bool:
    """Oracle: the characterisation quantifying over compacts above both
    predecessors (``d ⊔ i = d ⊔ i'`` for all such ``d``, with growth somewhere)."""
    pi, pi2 = predecessor(dom, i), predecessor(dom, i2)
    if not dom.consistent((i, i2)):
        return False
    base = dom._up[dom.index(pi)] & dom._up[dom.index(pi2)]
    some_growth = False
    for t in _bits(base):
        d = dom.elements[t]
        ji = dom.join((d, i)) if dom.consistent((d, i)) else None
        ji2 = dom.join((d, i2)) if dom.consistent((d, i2)) else None
        if ji != ji2:
            return False
        if ji is not None and ji != d:
            some_growth = True
    return some_growth


def weak_primes_by_definition(dom: FiniteDomain) -> Tuple[str, ...]:
    """Oracle for ``weak_primes`` quantifying over all consistent subsets."""
    irr_idx = _irreducible_indices(dom)
    irr = [dom.elements[t] for t in irr_idx]
    partners: Dict[str, List[int]] = {}
    for x in irr:
        partners[x] = [dom.index(y) for y in irr if x == y or interchangeable(dom, x, y)]
    n = len(dom.elements)
    out = []
    for x in irr:
        xi = dom.index(x)
        good = True
        for mask in range(1, 1 << n):
            ub = dom._full
            for t in _bits(mask):
                ub &= dom._up[t]
            if ub == 0:
                continue
            jm = dom._join_mask(mask)
            if jm is None or not (dom._up[xi] & (1 << jm)):
                continue
            if not any(dom._up[p] & mask for p in partners[x]):
                good = False
                break
        if good:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------- #
# Isomorphism search, on ``_common.backtrack``
# ---------------------------------------------------------------------- #

def _es_signature(es: EventStructure, e: str):
    # invariant data of an event: its minimal enablings and consistency
    # profile.  Enabling counts only as observed through configurations, so
    # different generator presentations of the same structure agree.
    mins = minimal_enablings(es, e)
    used = sum(1 for e2 in es.events for c in minimal_enablings(es, e2) if e in c)
    if es.conflict_kind == BINARY:
        deg = sum(1 for p in es.conflict if e in p)
        return (len(mins), tuple(sorted(len(c) for c in mins)), deg, used)
    sizes = tuple(sorted(len(m) for m in es.consistent_sets if e in m))
    return (len(mins), tuple(sorted(len(c) for c in mins)), sizes, used)


def _bijections(sig1: Mapping[str, tuple], sig2: Mapping[str, tuple],
                fitting: Callable[[List[str]], Callable]) -> Iterator[Dict[str, str]]:
    """The bijections that preserve the signatures and that ``fitting``
    accepts, in search order: items sorted by signature, each tried against
    the other side's items of equal signature.  ``fitting(order)`` gives the
    ``fits(k, y, chosen)`` of ``_common.backtrack`` for that order."""
    if sorted(sig1.values()) != sorted(sig2.values()):
        return
    order = sorted(sig1, key=lambda x: (sig1[x], x))
    by_sig: Dict[tuple, List[str]] = {}
    for y in sorted(sig2):
        by_sig.setdefault(sig2[y], []).append(y)
    for images in backtrack([by_sig[sig1[x]] for x in order], fitting(order), True):
        yield dict(zip(order, images))


def _es_isomorphisms(es1: EventStructure, es2: EventStructure) -> Iterator[Dict[str, str]]:
    if es1.conflict_kind != es2.conflict_kind or len(es1.events) != len(es2.events):
        return

    def rel(es):
        if es.conflict_kind == BINARY:
            return es.in_conflict
        return lambda a, b: es.is_consistent((a, b))

    rel1, rel2 = rel(es1), rel(es2)

    def fitting(order):
        # the new pair agrees with every pair chosen before it
        return lambda k, y, chosen: all(rel1(order[k], a) == rel2(y, b)
                                        for a, b in zip(order, chosen))

    for phi in _bijections({e: _es_signature(es1, e) for e in es1.events},
                           {e: _es_signature(es2, e) for e in es2.events}, fitting):
        if _es_matches(es1, es2, phi):
            yield phi


def es_isomorphic(es1: EventStructure, es2: EventStructure) -> Optional[Dict[str, str]]:
    """A bijection preserving and reflecting conflict and enabling, or None."""
    return next(_es_isomorphisms(es1, es2), None)


def epes_isomorphic(p1: Epes, p2: Epes) -> Optional[Dict[str, str]]:
    """A base isomorphism that carries the one equivalence onto the other."""
    if sorted(len(b) for b in p1.equiv) != sorted(len(b) for b in p2.equiv):
        return None
    blocks2 = set(p2.equiv)
    for phi in _es_isomorphisms(p1.base, p2.base):
        if {frozenset(phi[x] for x in b) for b in p1.equiv} == blocks2:
            return phi
    return None


def poset_isomorphic(dom1: FiniteDomain, dom2: FiniteDomain) -> Optional[Dict[str, str]]:
    """An order isomorphism between two finite posets, or None."""
    if len(dom1.elements) != len(dom2.elements):
        return None

    def sigs(dom):
        # each element's height, lower and upper cover counts, and down-
        # and up-set sizes; in rising order the elements come after their
        # lower covers, so each height is read after theirs
        lower, upper, down, up = dom._lower, dom._upper, dom._down, dom._up
        h = [0] * len(lower)
        for i in dom._rising:
            if lower[i]:
                h[i] = 1 + max(h[j] for j in _bits(lower[i]))
        return {x: (h[i], lower[i].bit_count(), upper[i].bit_count(),
                    down[i].bit_count(), up[i].bit_count())
                for i, x in enumerate(dom.elements)}

    def fitting(order):
        # Height leads the signature, so the lower covers of order[k] are
        # placed before it, at ``lows[k]``, and the placed elements form a
        # down-set.  A bijection is an order isomorphism iff it carries
        # each element's lower covers onto its image's; the signature
        # holds their count, so testing that each image is a lower cover
        # of y is enough.
        at = {x: k for k, x in enumerate(order)}
        lows = [[at[a] for a in dom1.lower_covers(x)] for x in order]
        at2, lower2 = dom2._idx, dom2._lower

        def fits(k, y, chosen):
            below = lower2[at2[y]]
            return all(below >> at2[chosen[p]] & 1 for p in lows[k])
        return fits

    return next(_bijections(sigs(dom1), sigs(dom2), fitting), None)


# ---------------------------------------------------------------------- #
# Intervals
# ---------------------------------------------------------------------- #

def interval_classes_by_definition(dom: FiniteDomain) -> Tuple[FrozenSet[Interval], ...]:
    """Oracle for ``interval_classes``: one union pass of ``interval_leq``
    over all pairs of covers, which is already the closure."""
    pairs = dom.covers()
    uf = UnionFind(pairs)
    for p, q in combinations(pairs, 2):
        if uf.find(p) != uf.find(q) and (interval_leq(dom, p, q) or interval_leq(dom, q, p)):
            uf.union(p, q)
    return tuple(frozenset(g) for g in uf.groups())


def _axiom_v_by_definition(dom: FiniteDomain, classes) -> Optional[tuple]:
    """Oracle for ``_axiom_v``: four nested loops over the named intervals."""
    cls_of = {iv: k for k, cls in enumerate(classes) for iv in cls}
    ivs = sorted(cls_of)
    for (x, x1) in ivs:
        for (y, y1) in ivs:
            if cls_of[(x, x1)] != cls_of[(y, y1)]:
                continue
            for (x_, x2) in ivs:
                if x_ != x:
                    continue
                for (y_, y2) in ivs:
                    if y_ != y or cls_of[(x_, x2)] != cls_of[(y_, y2)]:
                        continue
                    if dom.consistent((x1, x2)) and not dom.consistent((y1, y2)):
                        return (x, x1, x2, y, y1, y2)
    return None


# ---------------------------------------------------------------------- #
# Asynchronous graphs
# ---------------------------------------------------------------------- #

def _origin_path_classes(a: AsyncGraph) -> Tuple[Dict[Tuple[str, ...], int], List[Tuple[str, ...]]]:
    """All paths from the origin, sorted, and their classes under contextual
    closure, numbered in the order of their least members (``groups()``)."""
    cls2, members = _square_classes(a)
    paths = [()]
    stack = [((), a.origin)]
    while stack:
        path, node = stack.pop()
        for e in a.out_edges(node):
            p2 = path + (e,)
            paths.append(p2)
            stack.append((p2, a.tgt(e)))
    paths = sorted(set(paths))
    uf = UnionFind(paths)
    for w in paths:
        for i in range(len(w) - 1):
            seg = (w[i], w[i + 1])
            for seg2 in members[cls2[seg]]:
                if seg2 != seg:
                    w2 = w[:i] + seg2 + w[i + 2:]
                    if w2 in uf:
                        uf.union(w, w2)
    return {w: k for k, group in enumerate(uf.groups()) for w in group}, paths


# ---------------------------------------------------------------------- #
# Rewriting
# ---------------------------------------------------------------------- #

def pushout(f: GraphMorphism, g: GraphMorphism) -> Tuple[TypedGraph, GraphMorphism, GraphMorphism]:
    """Pushout of the span ``A ←f− C −g→ B``.

    Returns ``(P, inA, inB)``.  ``P`` is the disjoint union of ``A`` and
    ``B`` quotiented by ``f(c) ≈ g(c)``; item names prefer the ``B`` side
    (merged items join their ``B`` names with ``+``).  The naming rule is
    ``_span_names``, which ``apply_rule`` shares: the ``A`` items in sorted
    order, a glued class at its least member, then the ``B`` items outside
    the image of ``g``, in sorted order; a name taken again gets ``~2``.
    """
    if f.source is not g.source:
        raise GraphError("pushout legs must share their source")
    a, b = f.target, g.target
    names = []
    for c_items, fmap, gmap, a_items, b_items in (
            (f.source.nodes, f.node_map, g.node_map, a.nodes, b.nodes),
            (f.source.edges, f.edge_map, g.edge_map, a.edges, b.edges)):
        to_a, to_b, _ = _span_names(c_items, fmap, gmap, sorted(a_items), b_items)
        names.append((to_a, {y: to_b.get(y, y) for y in b_items}))
    (na, nb), (ea, eb) = names
    ntype = {na[x]: a.node_type[x] for x in na}
    ntype.update({nb[y]: b.node_type[y] for y in nb})
    edges = {}
    for gph, nmap, emap in ((a, na, ea), (b, nb, eb)):
        for x, name in emap.items():
            edges[name] = (name, gph.edge_type[x], nmap[gph.src[x]], nmap[gph.tgt[x]])
    p = TypedGraph(sorted(ntype), sorted(edges.values()), ntype)
    in_a = GraphMorphism(a, p, {n: na[n] for n in a.nodes}, {e: ea[e] for e in a.edges})
    in_b = GraphMorphism(b, p, {n: nb[n] for n in b.nodes}, {e: eb[e] for e in b.edges})
    return p, in_a, in_b


def is_pushout(f: GraphMorphism, g: GraphMorphism,
               pa: GraphMorphism, pb: GraphMorphism) -> bool:
    """Whether ``pa: A→P``, ``pb: B→P`` make the square over ``A←C→B`` a pushout.

    Concrete criterion: the square commutes and the canonical quotient of
    the disjoint union maps onto ``P`` bijectively (no extra or missing
    identifications).
    """
    if f.source is not g.source or pa.source is not f.target \
            or pb.source is not g.target or pa.target is not pb.target:
        raise GraphError("is_pushout: the four morphisms do not form a square")
    for c in f.source.nodes:
        if pa.node_map[f.node_map[c]] != pb.node_map[g.node_map[c]]:
            return False
    for c in f.source.edges:
        if pa.edge_map[f.edge_map[c]] != pb.edge_map[g.edge_map[c]]:
            return False
    canon, in_a, in_b = pushout(f, g)
    p = pa.target
    maps = []
    for items_a, items_b, ina, inb, to_a, to_b, canon_items, p_items in (
            (f.target.nodes, g.target.nodes, in_a.node_map, in_b.node_map,
             pa.node_map, pb.node_map, canon.nodes, p.nodes),
            (f.target.edges, g.target.edges, in_a.edge_map, in_b.edge_map,
             pa.edge_map, pb.edge_map, canon.edges, p.edges)):
        to: Dict[str, set] = {}
        for x in items_a:
            to.setdefault(ina[x], set()).add(to_a[x])
        for x in items_b:
            to.setdefault(inb[x], set()).add(to_b[x])
        if any(len(v) != 1 for v in to.values()):
            return False
        m = {k: v.pop() for k, v in to.items()}
        if not len(m) == len(set(m.values())) == len(canon_items) == len(p_items):
            return False
        maps.append(m)
    nmap, emap = maps
    mediating = GraphMorphism(canon, p, nmap, emap)
    try:
        mediating.validate()
    except GraphError:
        return False
    return True


def apply_rule_by_definition(g: TypedGraph, rule: Rule,
                             m: GraphMorphism) -> Optional[DirectDerivation]:
    """``apply_rule`` from the definition: ``D`` as the subgraph of ``G``
    without the deleted items, ``H`` as ``pushout(r, mK)``, each built
    whole; None when the gluing condition fails.

    With ``l`` mono the condition splits into the dangling check (no context
    edge may keep a deleted node alive) and the identification check (items
    identified by the match must all be preserved).
    """
    if m.source is not rule.L or m.target is not g:
        raise GraphError("match must map the rule's left-hand side into the host")
    m.validate()
    kept_nodes = {rule.l.node_map[k] for k in rule.K.nodes}
    kept_edges = {rule.l.edge_map[k] for k in rule.K.edges}
    gone_nodes, gone_edges = rule.L.nodes - kept_nodes, rule.L.edges - kept_edges
    del_nodes = {m.node_map[x] for x in gone_nodes}
    del_edges = {m.edge_map[x] for x in gone_edges}
    # identification condition: deleted items have distinct images, and
    # none of them is the image of a kept item
    if len(del_nodes) < len(gone_nodes) or len(del_edges) < len(gone_edges):
        return None
    if del_nodes & {m.node_map[x] for x in kept_nodes}:
        return None
    if del_edges & {m.edge_map[x] for x in kept_edges}:
        return None
    # dangling condition
    d_edges = g.edges - del_edges
    for e in d_edges:
        if g.src[e] in del_nodes or g.tgt[e] in del_nodes:
            return None
    d = g.subgraph(g.nodes - del_nodes, d_edges)
    lstar = GraphMorphism(d, g, {n: n for n in d.nodes}, {e: e for e in d.edges})
    mk = GraphMorphism(rule.K, d,
                       {k: m.node_map[rule.l.node_map[k]] for k in rule.K.nodes},
                       {k: m.edge_map[rule.l.edge_map[k]] for k in rule.K.edges})
    h, in_r, in_d = pushout(rule.r, mk)
    return DirectDerivation(rule, g, d, h, m, mk, in_r, lstar, in_d)


def verify_direct_derivation(d: DirectDerivation) -> bool:
    """Check both squares of a step against the pushout criterion."""
    left = is_pushout(d.rule.l, d.mK, d.match, d.lstar)
    right = is_pushout(d.rule.r, d.mK, d.mR, d.rstar)
    return left and right


def colimit_by_definition(deriv: Derivation
                          ) -> Tuple[TypedGraph, Dict[Tuple[int, str], str],
                                     Dict[Tuple[int, str], str]]:
    """The colimit of a derivation from scratch, with its injections.

    Returns the graph and the names of the nodes and of the edges of every
    stage, keyed by ``(stage, item)``.  Builds the whole row at once and
    names the classes in the order of ``groups()``; it is the reference
    ``Colimit`` is tested against.
    """
    gs = [deriv.source] + [st.H for st in deriv.steps]
    ufn, ufe = UnionFind(), UnionFind()
    for i, g in enumerate(gs):
        for n in g.nodes:
            ufn.add(("G", i, n))
        for e in g.edges:
            ufe.add(("G", i, e))
    for i, st in enumerate(deriv.steps, start=1):
        for uf, items, lstar, rstar in (
                (ufn, st.D.nodes, st.lstar.node_map, st.rstar.node_map),
                (ufe, st.D.edges, st.lstar.edge_map, st.rstar.edge_map)):
            for x in items:
                uf.add(("D", i, x))
                uf.union(("D", i, x), ("G", i - 1, lstar[x]))
                uf.union(("D", i, x), ("G", i, rstar[x]))
    nclass: Dict[tuple, str] = {}
    eclass: Dict[tuple, str] = {}
    nodes = []
    ntype = {}
    for idx, members in enumerate(ufn.groups()):
        name = f"n{idx}"
        nodes.append(name)
        for mtag in members:
            nclass[mtag] = name
        tag, i, x = members[0]
        gref = gs[i] if tag == "G" else deriv.steps[i - 1].D
        ntype[name] = gref.node_type[x]
    edges = []
    for idx, members in enumerate(ufe.groups()):
        name = f"e{idx}"
        for mtag in members:
            eclass[mtag] = name
        tag, i, x = members[0]
        gref = gs[i] if tag == "G" else deriv.steps[i - 1].D
        edges.append((name, gref.edge_type[x],
                      nclass[(tag, i, gref.src[x])], nclass[(tag, i, gref.tgt[x])]))
    graph = TypedGraph(nodes, edges, ntype)
    return (graph, {(i, x): name for (tag, i, x), name in nclass.items() if tag == "G"},
            {(i, x): name for (tag, i, x), name in eclass.items() if tag == "G"})


def _left_consistent_iso(psi1: Derivation, psi2: Derivation,
                         sigma: Sequence[int]) -> Optional[GraphMorphism]:
    """The colimit isomorphism pinned by the start graph and the matches, if
    consistent; None when some pin clashes or the pinned map is not an iso."""
    col1, col2 = psi1.colimit(), psi2.colimit()
    nmap: Dict[str, str] = {}
    emap: Dict[str, str] = {}

    def pin(m: Dict[str, str], a: str, b: str) -> bool:
        if m.get(a, b) != b:
            return False
        m[a] = b
        return True

    for n in psi1.source.nodes:
        if not pin(nmap, col1.node_in(0, n), col2.node_in(0, n)):
            return None
    for e in psi1.source.edges:
        if not pin(emap, col1.edge_in(0, e), col2.edge_in(0, e)):
            return None
    for i, st1 in enumerate(psi1.steps):
        j = sigma[i]
        st2 = psi2.steps[j]
        for i1, j1, side, m1, m2 in ((i, j, st1.rule.L, st1.match, st2.match),
                                     (i + 1, j + 1, st1.rule.R, st1.mR, st2.mR)):
            for x in side.nodes:
                if not pin(nmap, col1.node_in(i1, m1.node_map[x]),
                           col2.node_in(j1, m2.node_map[x])):
                    return None
            for x in side.edges:
                if not pin(emap, col1.edge_in(i1, m1.edge_map[x]),
                           col2.edge_in(j1, m2.edge_map[x])):
                    return None
    # a bijection: every class of each colimit pinned, none of them twice
    for m, items1, items2 in ((nmap, col1.graph.nodes, col2.graph.nodes),
                              (emap, col1.graph.edges, col2.graph.edges)):
        if not len(m) == len(set(m.values())) == len(items1) == len(items2):
            return None
    xi = GraphMorphism(col1.graph, col2.graph, nmap, emap)
    try:
        xi.validate()
    except GraphError:
        return None
    return xi


def equivalent_traces(psi1: Derivation, psi2: Derivation) -> Optional[Tuple[int, ...]]:
    """The left-consistent permutation relating two derivations, or None.

    Both derivations must start from the same graph on the nose (their
    decorations are identities).  The permutation is returned 0-indexed:
    position ``i`` of the first derivation plays position ``sigma[i]`` of
    the second.
    """
    if not psi1.source.same(psi2.source):
        raise GraphError("derivations start from different graphs")
    n = len(psi1)
    names1 = psi1.rule_names()
    names2 = psi2.rule_names()
    if sorted(names1) != sorted(names2):
        return None
    slots = [[j for j in range(n) if names2[j] == names1[i]] for i in range(n)]
    for sigma in backtrack(slots, lambda i, j, chosen: True, True):
        if _left_consistent_iso(psi1, psi2, sigma) is not None:
            return sigma
    return None


def trace_classes_by_definition(grammar: Grammar, depth: int,
                                fusion_safe: bool = False) -> TraceDomainResult:
    """The trace classes by definition: every derivation up to ``depth``,
    quotiented pairwise by ``equivalent_traces``.

    Builds every interleaving, each step by ``find_matches`` and
    ``apply_rule_by_definition``, so it grows like n!; it is the reference
    that ``trace_classes`` is tested against, and each class's ``members``
    holds all of its derivations in breadth-first order.
    """
    grammar.validate()
    rules = sorted(grammar.rules, key=lambda r: r.name)
    pool = [Derivation(grammar.start)]
    frontier = list(pool)
    for _ in range(depth):
        children: List[Derivation] = []
        for deriv in frontier:
            for rule in rules:
                for m in find_matches(rule.L, deriv.target):
                    step = apply_rule_by_definition(deriv.target, rule, m)
                    if step is not None and (not fusion_safe or is_fusion_safe(step)):
                        children.append(deriv.extend(step))
        frontier = children
        pool += frontier
    uf = UnionFind(range(len(pool)))
    buckets: Dict[tuple, List[int]] = {}
    for k, d in enumerate(pool):
        key = (len(d), tuple(sorted(d.rule_names())), iso_hash(d.target))
        buckets.setdefault(key, []).append(k)
    for key, members in sorted(buckets.items()):
        for pos, k1 in enumerate(members):
            for k2 in members[pos + 1:]:
                if uf.find(k1) == uf.find(k2):
                    continue
                if equivalent_traces(pool[k1], pool[k2]) is not None:
                    uf.union(k1, k2)
    classes = uf.groups()  # by least member, so in breadth-first order
    groups = [[pool[k] for k in members] for members in classes]
    cls = {k: c for c, members in enumerate(classes) for k in members}
    index = {id(d): k for k, d in enumerate(pool)}
    steps = [(cls[index[id(d.parent)]], cls[k])
             for k, d in enumerate(pool) if d.parent is not None]
    return _trace_result(groups, steps)
