"""Double-pushout rewriting with left-linear, possibly fusing rules.

Rules are spans ``L ← K → R`` with the left leg mono and consuming; the
right leg is arbitrary, so a step may merge items.  Applying a rule removes
the matched deleted part (when the gluing condition holds) and glues the
right-hand side back in as a pushout, a quotient of a disjoint union whose
union-find holds only the images of the interface.

Derivations from a grammar's start graph are compared by left-consistent
permutations: a permutation of equal-length derivations using the same rules
stepwise, for which an isomorphism of the two derivation colimits matches up
all matches, comatches and the start graph.  The classes, ordered by prefix,
form the trace domain of the grammar, which is weak prime algebraic (prime
when only fusion-safe steps are allowed).

The equivalence is a congruence for extension, so ``trace_classes`` reaches
every class by extending one representative per class, depth by depth; a
class's ``members`` are the derivations built for it.
``trace_classes_by_definition`` builds every interleaving and quotients
them pairwise; it is the reference the fast path is tested against.

A derivation's colimit is its parent's colimit glued with the last step:
its classes are integers, and only the step's new items open classes.  The
colimit graph and its injections are named on first use by
``colimit_by_definition``, which builds them from scratch.
``trace_classes`` decides a new derivation by one lookup of ``Colimit.key``,
the partition of the pin labels (start items, match and comatch images,
named by rule and rank among its steps) into colimit items, least over the
orders of each rule's steps, after the graph processes of Corradini,
Montanari and Rossi.  It is exact: every colimit item holds a label and
every edge label fixes its ends and type, so the map a name-preserving
permutation pins is an isomorphism exactly when the partitions, read in
matching orders, are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._common import UnionFind, _once, backtrack
from .es import EventStructure, EsError, classify, minimal_enablings
from .domains import COHERENT, FiniteDomain
from .graphs import (GraphError, GraphMorphism, TypedGraph, find_matches,
                     iso_hash, _index, _morphisms)


class TraceLimitError(GraphError):
    """Trace-class enumeration exceeded the configured ceiling."""


# ---------------------------------------------------------------------- #
# Rules and grammars
# ---------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class Rule:
    name: str
    L: TypedGraph
    K: TypedGraph
    R: TypedGraph
    l: GraphMorphism
    r: GraphMorphism

    def validate(self) -> None:
        if self.l.source is not self.K or self.l.target is not self.L:
            raise GraphError(f"rule {self.name!r}: l must map K into L")
        if self.r.source is not self.K or self.r.target is not self.R:
            raise GraphError(f"rule {self.name!r}: r must map K into R")
        self.l.validate()
        self.r.validate()
        if not self.l.is_injective():
            raise GraphError(f"rule {self.name!r}: left leg must be mono")
        if self.l.is_surjective():
            raise GraphError(f"rule {self.name!r}: rule must consume something")


@dataclass(frozen=True, eq=False)
class Grammar:
    type_graph: TypedGraph
    start: TypedGraph
    rules: Tuple[Rule, ...]

    def validate(self) -> None:
        self.type_graph.validate_typed_over(self.type_graph)
        self.start.validate_typed_over(self.type_graph)
        names = set()
        for rule in self.rules:
            if rule.name in names:
                raise GraphError(f"duplicate rule name {rule.name!r}")
            names.add(rule.name)
            rule.validate()
            for g in (rule.L, rule.K, rule.R):
                g.validate_typed_over(self.type_graph)

    def rule(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise GraphError(f"no rule named {name!r}")


# ---------------------------------------------------------------------- #
# Pushouts
# ---------------------------------------------------------------------- #

def _fresh(base: str, used: set) -> str:
    name = base
    k = 1
    while name in used:
        k += 1
        name = f"{base}~{k}"
    used.add(name)
    return name


def pushout(f: GraphMorphism, g: GraphMorphism) -> Tuple[TypedGraph, GraphMorphism, GraphMorphism]:
    """Pushout of the span ``A ←f− C −g→ B``.

    Returns ``(P, inA, inB)``.  ``P`` is the disjoint union of ``A`` and
    ``B`` quotiented by ``f(c) ≈ g(c)``; item names prefer the ``B`` side
    (merged items join their ``B`` names with ``+``).  Only the images of
    ``C`` enter a union-find, every other item is a class of its own.  The
    ``A`` items are named in sorted order, a class at its least member, then
    the ``B`` items outside the image of ``g``; a name taken again gets ``~2``.
    """
    if f.source is not g.source:
        raise GraphError("pushout legs must share their source")
    a, b = f.target, g.target
    names = []
    for c_items, fmap, gmap, a_items, b_items in (
            (f.source.nodes, f.node_map, g.node_map, a.nodes, b.nodes),
            (f.source.edges, f.edge_map, g.edge_map, a.edges, b.edges)):
        uf = UnionFind()
        for c in c_items:
            uf.add(("A", fmap[c]))
            uf.add(("B", gmap[c]))
            uf.union(("A", fmap[c]), ("B", gmap[c]))
        b_glued = {gmap[c] for c in c_items}
        glued: Dict[tuple, List[str]] = {}  # a class's root -> its B items
        for y in b_glued:
            glued.setdefault(uf.find(("B", y)), []).append(y)
        used: set = set()
        to_a, of_root = {}, {}
        for x in sorted(a_items):  # every glued class has a least A item
            root = uf.find(("A", x)) if ("A", x) in uf else None
            if root == ("A", x):
                of_root[root] = _fresh("+".join(sorted(glued[root])), used)
            to_a[x] = _fresh(x, used) if root is None else of_root[root]
        to_b = {y: of_root[uf.find(("B", y))] for y in b_glued}
        for y in sorted(b_items - b_glued):
            to_b[y] = _fresh(y, used)
        names.append((to_a, to_b))
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


# ---------------------------------------------------------------------- #
# Direct derivations
# ---------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class DirectDerivation:
    """One DPO step ``G ⇒ H`` with all six boundary morphisms."""
    rule: Rule
    G: TypedGraph
    D: TypedGraph
    H: TypedGraph
    match: GraphMorphism   # L -> G
    mK: GraphMorphism      # K -> D
    mR: GraphMorphism      # R -> H
    lstar: GraphMorphism   # D -> G (inclusion)
    rstar: GraphMorphism   # D -> H


def apply_rule(g: TypedGraph, rule: Rule, m: GraphMorphism) -> Optional[DirectDerivation]:
    """Apply a rule at a match; returns None when the gluing condition fails.

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


def is_fusion_safe(d: DirectDerivation) -> bool:
    """Whether the pair (match∘l, r) is jointly mono: the step never
    re-merges items that the host already identifies."""
    K, mk, r = d.rule.K, d.mK, d.rule.r
    return all(len({(m1[x], m2[x]) for x in items}) == len(items)
               for items, m1, m2 in ((K.nodes, mk.node_map, r.node_map),
                                     (K.edges, mk.edge_map, r.edge_map)))


# ---------------------------------------------------------------------- #
# Sequential independence and interchange
# ---------------------------------------------------------------------- #

def sequential_independence(d1: DirectDerivation, d2: DirectDerivation
                            ) -> Optional[Tuple[GraphMorphism, GraphMorphism]]:
    """An independence pair ``(i1: R1→D2, i2: L2→D1)`` or None.

    ``i1`` is unique if it exists because contexts embed into their hosts;
    ``i2`` is searched in deterministic order.
    """
    if d1.H is not d2.G:
        raise GraphError("steps are not consecutive")
    # i1: factor the comatch of d1 through the context of d2
    if not (set(d1.mR.node_map.values()) <= d2.D.nodes
            and set(d1.mR.edge_map.values()) <= d2.D.edges):
        return None
    i1 = GraphMorphism(d1.rule.R, d2.D, dict(d1.mR.node_map), dict(d1.mR.edge_map))
    # i2: factor the match of d2 through the context of d1
    want_n = d2.match.node_map
    want_e = d2.match.edge_map
    node_pre = {n: frozenset(x for x in d1.D.nodes if d1.rstar.node_map[x] == want_n[n])
                for n in d2.rule.L.nodes}
    edge_pre = {e: frozenset(x for x in d1.D.edges if d1.rstar.edge_map[x] == want_e[e])
                for e in d2.rule.L.edges}
    for i2 in _morphisms(d2.rule.L, d1.D,
                         node_candidates=lambda n: node_pre[n],
                         edge_candidates=lambda e: edge_pre[e]):
        return i1, i2
    return None


def interchange(d1: DirectDerivation, d2: DirectDerivation,
                pair: Tuple[GraphMorphism, GraphMorphism]
                ) -> Tuple[DirectDerivation, DirectDerivation]:
    """Swap two sequentially independent steps.

    Applies the second rule first (through ``i2``) and the first rule at the
    intermediate graph; the final graph is isomorphic to the original one.
    """
    i1, i2 = pair
    m2new = i2.compose(d1.lstar)
    d2new = apply_rule(d1.G, d2.rule, m2new)
    if d2new is None:
        raise GraphError("independence pair does not yield an applicable first step")
    if not (set(d1.match.node_map.values()) <= d2new.D.nodes
            and set(d1.match.edge_map.values()) <= d2new.D.edges):
        raise GraphError("invalid independence pair: first match not preserved")
    # d1's match lands in the context of d2new, which maps on into d2new.H
    m1new = d1.match.compose(d2new.rstar)
    d1new = apply_rule(d2new.H, d1.rule, m1new)
    if d1new is None:
        raise GraphError("interchange failed to reapply the first rule")
    return d2new, d1new


# ---------------------------------------------------------------------- #
# Derivations, colimits, trace equivalence
# ---------------------------------------------------------------------- #

class Derivation:
    """A sequence of direct derivations glued on the nose."""

    def __init__(self, source: TypedGraph, steps: Tuple[DirectDerivation, ...] = (),
                 parent: Optional["Derivation"] = None):
        for i, st in enumerate(steps):
            prev = source if i == 0 else steps[i - 1].H
            if st.G is not prev:
                raise GraphError(f"step {i + 1} does not start at the previous target")
        self.source = source
        self.steps = steps
        self.parent = parent
        self._colimit = None

    def extend(self, step: DirectDerivation) -> "Derivation":
        if step.G is not self.target:
            raise GraphError("step does not start at the derivation's target")
        return Derivation(self.source, self.steps + (step,), parent=self)

    @property
    def target(self) -> TypedGraph:
        return self.steps[-1].H if self.steps else self.source

    def __len__(self):
        return len(self.steps)

    def rule_names(self) -> Tuple[str, ...]:
        return tuple(st.rule.name for st in self.steps)

    def prefix(self, k: int) -> "Derivation":
        d = self
        while len(d) > k:
            if d.parent is not None and len(d.parent) == len(d) - 1:
                d = d.parent
            else:
                d = Derivation(self.source, d.steps[:-1])
        return d

    def colimit(self) -> "Colimit":
        """The colimit, built on the parent's colimit when there is one.

        Walks up the parent chain to the nearest derivation whose colimit is
        built, or to one without a parent, then builds and keeps the
        colimits on the way back down, one step each.
        """
        chain = [self]
        while chain[-1]._colimit is None and chain[-1].parent is not None:
            chain.append(chain[-1].parent)
        base = chain[-1]._colimit
        for d in reversed(chain):
            if d._colimit is None:
                d._colimit = Colimit(d.source, d.steps, base)
            base = d._colimit
        return base

    def __repr__(self):
        return f"Derivation({';'.join(self.rule_names()) or 'ε'})"


def _glue(uf: UnionFind, at_g: Dict[str, int], lstar: Dict[str, str],
          rstar: Dict[str, str], h_items: Iterable[str]) -> Dict[str, int]:
    """The colimit classes of the items of ``H`` from those of ``G``: each
    item of ``D`` carries its class over, two with one image merge theirs,
    and every other item of ``H`` opens a class in ``uf``."""
    at_h: Dict[str, int] = {}
    for x, y in lstar.items():
        c = at_h.setdefault(rstar[x], at_g[y])
        if c != at_g[y]:
            uf.union(c, at_g[y])
    for y in h_items:
        if y not in at_h:
            at_h[y] = len(uf.parent)
            uf.add(at_h[y])
    return at_h


class Colimit:
    """Colimit of the zig-zag of graphs of a derivation, on integer classes.

    ``_at`` maps the nodes and the edges of the target graph to classes,
    integers of the union-find ``_uf``.  With ``base``, the colimit of a
    prefix of the derivation (its parent's), only the later steps are glued
    (``_glue``) into a copy of its union-find, which so holds one integer
    per class opened.  ``_start`` and ``_pins`` hold the pin labels as the
    classes they had when glued: the start graph's items, then per step the
    rule name and the images of the sorted items of ``L`` and of ``R``.

    ``key`` reads the process key off the union-find roots.  ``graph``,
    ``node_in`` and ``edge_in`` come from ``colimit_by_definition`` on
    first use.  The colimit keeps the derivation's start graph and steps,
    not the derivation, so it holds no reference back to it.
    """

    def __init__(self, source: TypedGraph, steps: Tuple[DirectDerivation, ...],
                 base: Optional["Colimit"] = None):
        if base is None:
            uf = UnionFind()
            at = (_glue(uf, {}, {}, {}, source.nodes), _glue(uf, {}, {}, {}, source.edges))
            index = _index(source)
            start = ([at[0][x] for x in index.nodes], [at[1][x] for x in index.edges])
            pins: Tuple[tuple, ...] = ()
        else:
            uf, at, start, pins = base._uf.copy(), base._at, base._start, base._pins
        for st in steps[len(pins):]:
            h = (_glue(uf, at[0], st.lstar.node_map, st.rstar.node_map, st.H.nodes),
                 _glue(uf, at[1], st.lstar.edge_map, st.rstar.edge_map, st.H.edges))
            labels: Tuple[List[int], List[int]] = ([], [])
            for stage, side, m in ((at, st.rule.L, st.match), (h, st.rule.R, st.mR)):
                index = _index(side)
                labels[0].extend([stage[0][m.node_map[x]] for x in index.nodes])
                labels[1].extend([stage[1][m.edge_map[x]] for x in index.edges])
            pins += ((st.rule.name, *labels),)
            at = h
        self._uf, self._at, self._start, self._pins = uf, at, start, pins
        self._source, self._steps = source, steps
        self._derived: Dict[str, object] = {}  # the names, on first use

    def key(self) -> tuple:
        """The sorted rule names and the partition of the pin labels into
        node classes and into edge classes.

        A pin label is ``("s", x)`` for an item ``x`` of the start graph,
        and ``(rule, k, "L"|"R", x)`` for the image of an item ``x`` of a
        side of ``rule`` under the match or comatch of its ``k``-th step.
        An order of each rule's steps fixes ``k`` and lists the labels: the
        start graph, then the rules by name, each step's ``L`` then ``R``,
        items sorted.  Numbering classes by first occurrence gives the
        partitions; the key takes the least over all orders, one when no
        rule repeats.  The orders are searched step by step, and an order
        is dropped as soon as its node numbers exceed the least found.
        """
        find = self._uf.find
        pins = sorted(self._pins, key=lambda pin: pin[0])  # the steps by rule name
        rows = [[[find(c) for c in labels]  # per kind: the start graph's roots, then each step's
                 for labels in (self._start[kind], *[pin[1 + kind] for pin in pins])]
                for kind in (0, 1)]

        def numbered(kind: int, order: Iterable[int]) -> List[int]:
            num: Dict[int, int] = {}
            return [num.setdefault(c, len(num))
                    for c in chain(*[rows[kind][i] for i in (0, *order)])]

        steps = range(1, len(pins) + 1)
        best = [numbered(0, steps), numbered(1, steps)]
        runs = [list(run) for _, run in groupby(steps, key=lambda i: pins[i - 1][0])]
        if len(runs) < len(pins):  # renumber the other orders of a rule's steps
            # states[k]: the node numbering of the start graph and k steps chosen
            num: Dict[int, int] = {}
            states = [(num, [num.setdefault(c, len(num)) for c in rows[0][0]])]

            def fits(k: int, i: int, chosen: List[int]) -> bool:
                num = dict(states[k][0])
                seq = states[k][1] + [num.setdefault(c, len(num)) for c in rows[0][i]]
                states[k + 1:] = [(num, seq)]
                return seq <= best[0][:len(seq)]

            for order in backtrack([run for run in runs for _ in run], fits, True):
                best[:] = min(best, [states[-1][1], numbered(1, order)])
        return (tuple(pin[0] for pin in pins), *map(tuple, best))

    def _names(self) -> tuple:
        return _once(self, "names",
                     lambda c: colimit_by_definition(Derivation(c._source, c._steps)))

    @property
    def graph(self) -> TypedGraph:
        return self._names()[0]

    def node_in(self, stage: int, node: str) -> str:
        return self._names()[1][(stage, node)]

    def edge_in(self, stage: int, edge: str) -> str:
        return self._names()[2][(stage, edge)]


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


# ---------------------------------------------------------------------- #
# Trace classes and the trace domain
# ---------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class TraceClass:
    """One trace class: its id, its representative (the first derivation
    found in breadth-first order) and the derivations built for it,
    representative first.  ``trace_classes`` builds only one-step
    extensions of representatives, so ``members`` holds those, not every
    interleaving; ``trace_classes_by_definition`` holds every interleaving
    up to the depth."""
    element_id: str
    representative: Derivation
    members: Tuple[Derivation, ...]


@dataclass(frozen=True, eq=False)
class TraceDomainResult:
    domain: FiniteDomain
    classes: Tuple[TraceClass, ...]


def _extensions(deriv: Derivation, rules: Sequence[Rule],
                fusion_safe: bool) -> Iterable[Derivation]:
    """One-step extensions of a derivation: rules in the given order, matches
    in ``find_matches`` order."""
    host = deriv.target
    for rule in rules:
        for m in find_matches(rule.L, host):
            step = apply_rule(host, rule, m)
            if step is None:
                continue
            if fusion_safe and not is_fusion_safe(step):
                continue
            yield deriv.extend(step)


def _trace_result(groups: List[List[Derivation]],
                  steps: Iterable[Tuple[int, int]]) -> TraceDomainResult:
    """Number and order the classes.

    ``groups`` lists each class's derivations, representative first, with
    classes in order of discovery; ``steps`` holds ``(class of a derivation,
    class of a one-step extension of it)`` pairs, which generate the prefix
    order.  Classes are sorted by length, then by the representative's rule
    names, then by discovery.
    """
    order = sorted(range(len(groups)),
                   key=lambda c: (len(groups[c][0]), groups[c][0].rule_names(), c))
    ids: Dict[int, str] = {}
    classes = []
    for pos, c in enumerate(order):
        rep = groups[c][0]
        ids[c] = f"t{pos}:{';'.join(rep.rule_names()) or 'ε'}"
        classes.append(TraceClass(ids[c], rep, tuple(groups[c])))
    domain = FiniteDomain.from_leq(ids.values(), [(ids[a], ids[b]) for a, b in steps],
                                   COHERENT)
    return TraceDomainResult(domain, tuple(classes))


def trace_classes(grammar: Grammar, depth: int, fusion_safe: bool = False,
                  ceiling: int = 10000) -> TraceDomainResult:
    """The trace classes of derivations up to ``depth``, ordered by prefix.

    Grows a breadth-first tree that extends only class representatives.
    Trace equivalence is a congruence for extension, so every extension of
    a member is equivalent to an extension of its representative, and the
    classes, their representatives and their order are those of
    ``trace_classes_by_definition``.  A new derivation joins the class with
    its colimit's ``key``, or opens one: equal keys are exactly a
    left-consistent isomorphism (see the module docstring).  Raises
    ``TraceLimitError`` as soon as more than ``ceiling`` classes have been
    found.
    """
    grammar.validate()
    rules = sorted(grammar.rules, key=lambda r: r.name)
    groups: List[List[Derivation]] = []
    steps: List[Tuple[int, int]] = []
    buckets: Dict[tuple, int] = {}  # process key -> class

    def open_class(deriv: Derivation) -> int:
        if len(groups) >= ceiling:
            raise TraceLimitError(
                f"more than {ceiling} trace classes by depth {len(deriv)} of {depth}")
        groups.append([deriv])
        return len(groups) - 1

    frontier = [open_class(Derivation(grammar.start))]
    for _ in range(depth):
        found = []
        for parent in frontier:
            for child in _extensions(groups[parent][0], rules, fusion_safe):
                key = child.colimit().key()
                cls = buckets.get(key)
                if cls is None:
                    cls = buckets[key] = open_class(child)
                    found.append(cls)
                else:
                    groups[cls].append(child)
                steps.append((parent, cls))
        frontier = found
    return _trace_result(groups, steps)


def trace_classes_by_definition(grammar: Grammar, depth: int,
                                fusion_safe: bool = False) -> TraceDomainResult:
    """The trace classes by definition: every derivation up to ``depth``,
    quotiented pairwise by ``equivalent_traces``.

    Builds every interleaving, so it grows like n!; it is the reference
    that ``trace_classes`` is tested against, and each class's ``members``
    holds all of its derivations in breadth-first order.
    """
    grammar.validate()
    rules = sorted(grammar.rules, key=lambda r: r.name)
    pool = [Derivation(grammar.start)]
    frontier = list(pool)
    for _ in range(depth):
        frontier = [child for deriv in frontier
                    for child in _extensions(deriv, rules, fusion_safe)]
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


def trace_domain(grammar: Grammar, depth: int, fusion_safe: bool = False,
                 ceiling: int = 10000) -> FiniteDomain:
    """The prefix-ordered poset of trace classes of a grammar."""
    return trace_classes(grammar, depth, fusion_safe, ceiling).domain


def once_per_rule_depth(grammar: Grammar) -> Optional[int]:
    """The rule count, when it provably bounds every derivation.

    Holds when each rule consumes a node of a private type: created by no
    rule, deleted by no other rule, and present exactly once in the start
    graph.  Grammars produced by ``grammar_from_es`` have this shape, so
    enumerating to this depth is exhaustive.
    """
    created = set()
    for rule in grammar.rules:
        kept = {rule.r.node_map[k] for k in rule.K.nodes}
        for n in rule.R.nodes - kept:
            created.add(rule.R.node_type[n])
    for rule in grammar.rules:
        kept = {rule.l.node_map[k] for k in rule.K.nodes}
        deleted_types = {rule.L.node_type[n] for n in rule.L.nodes - kept}
        if not any(t not in created
                   and sum(1 for n in grammar.start.nodes
                           if grammar.start.node_type[n] == t) == 1
                   for t in deleted_types):
            return None
    return len(grammar.rules)


# ---------------------------------------------------------------------- #
# A grammar for a connected event structure
# ---------------------------------------------------------------------- #

def _tuple_label(u: Tuple[str, ...]) -> str:
    return "(" + ",".join(u) + ")"


def _pmin(es: EventStructure, e: str) -> List[Tuple[str, ...]]:
    """Choice tuples over the minimal enablings of ``e``: one event out of
    each minimal enabling, serialised as sorted duplicate-free tuples."""
    factors = sorted(minimal_enablings(es, e), key=sorted)
    if any(not f for f in factors):
        return []
    out = set()
    for combo in product(*[sorted(f) for f in factors]):
        u = tuple(sorted(set(combo)))
        if e in u:
            raise EsError(f"event {e!r} occurs in its own minimal enabling")
        out.add(u)
    return sorted(out)


def grammar_from_es(es: EventStructure) -> Grammar:
    """Synthesise a grammar whose trace domain regenerates the structure.

    One rule per event: it consumes a private item and one shared item per
    conflict pair, requires the event's loop-carrying nodes to have been
    merged, and merges, for every other event, the tuple nodes witnessing
    this event into that event's own node.
    """
    if es.conflict_kind != "binary":
        raise EsError("grammar synthesis needs a binary-conflict structure")
    cl = classify(es)
    if not cl.live:
        raise EsError("grammar synthesis needs a live structure: " + "; ".join(cl.diagnostics))
    if not cl.connected:
        raise EsError("grammar synthesis needs a connected structure")
    events = sorted(es.events)
    pmin = {e: _pmin(es, e) for e in events}
    conflicts = sorted(tuple(sorted(p)) for p in es.conflict) if es.conflict else []

    t_nodes = [f"ev:{e}" for e in events] + [f"init:{e}" for e in events] \
        + [f"cnf:{a}#{b}" for a, b in conflicts]
    t_edges = [(f"lab:{e}", f"lab:{e}", f"ev:{e}", f"ev:{e}") for e in events]
    for e in events:
        for u in pmin[e]:
            lu = _tuple_label(u)
            t_edges.append((f"lab:{lu}@{e}", f"lab:{lu}@{e}", f"ev:{e}", f"ev:{e}"))
    tg = TypedGraph(t_nodes, t_edges)

    s_nodes, s_edges, s_types = [], [], {}
    for e in events:
        s_nodes += [f"i_{e}", f"s_{e}"]
        s_types[f"i_{e}"] = f"init:{e}"
        s_types[f"s_{e}"] = f"ev:{e}"
        s_edges.append((f"es_{e}", f"lab:{e}", f"s_{e}", f"s_{e}"))
        for u in pmin[e]:
            lu = _tuple_label(u)
            node = f"l_{lu}@{e}"
            s_nodes.append(node)
            s_types[node] = f"ev:{e}"
            s_edges.append((f"el_{lu}@{e}", f"lab:{lu}@{e}", node, node))
    for a, b in conflicts:
        s_nodes.append(f"c_{a}#{b}")
        s_types[f"c_{a}#{b}"] = f"cnf:{a}#{b}"
    start = TypedGraph(s_nodes, s_edges, s_types)

    rules = []
    for e in events:
        l_nodes, l_edges, l_types = [], [], {}
        l_nodes.append(f"i_{e}")
        l_types[f"i_{e}"] = f"init:{e}"
        for a, b in conflicts:
            if e in (a, b):
                l_nodes.append(f"c_{a}#{b}")
                l_types[f"c_{a}#{b}"] = f"cnf:{a}#{b}"
        own = f"own_{e}"
        l_nodes.append(own)
        l_types[own] = f"ev:{e}"
        l_edges.append((f"es_{e}", f"lab:{e}", own, own))
        for u in pmin[e]:
            lu = _tuple_label(u)
            l_edges.append((f"el_{lu}@{e}", f"lab:{lu}@{e}", own, own))
        affected = []
        for e2 in events:
            if e2 == e:
                continue
            hits = [u for u in pmin[e2] if e in u]
            if hits:
                affected.append((e2, hits))
        for e2, hits in affected:
            l_nodes.append(f"s_{e2}")
            l_types[f"s_{e2}"] = f"ev:{e2}"
            l_edges.append((f"es_{e2}", f"lab:{e2}", f"s_{e2}", f"s_{e2}"))
            for u in hits:
                lu = _tuple_label(u)
                node = f"l_{lu}@{e2}"
                l_nodes.append(node)
                l_types[node] = f"ev:{e2}"
                l_edges.append((f"el_{lu}@{e2}", f"lab:{lu}@{e2}", node, node))
        lgraph = TypedGraph(l_nodes, l_edges, l_types)

        k_nodes = [n for n in l_nodes if n != f"i_{e}" and not n.startswith("c_")]
        kgraph = TypedGraph(k_nodes, l_edges, {n: l_types[n] for n in k_nodes})
        l_mor = GraphMorphism(kgraph, lgraph, {n: n for n in k_nodes},
                              {ed[0]: ed[0] for ed in l_edges})

        r_nodes, r_types, rmap_n = [], {}, {}
        r_nodes.append(own)
        r_types[own] = f"ev:{e}"
        rmap_n[own] = own
        for e2, hits in affected:
            merged = f"m_{e2}"
            r_nodes.append(merged)
            r_types[merged] = f"ev:{e2}"
            rmap_n[f"s_{e2}"] = merged
            for u in hits:
                lu = _tuple_label(u)
                rmap_n[f"l_{lu}@{e2}"] = merged
        r_edges = [(eid, etype, rmap_n[s], rmap_n[t]) for eid, etype, s, t in l_edges]
        rgraph = TypedGraph(r_nodes, r_edges, r_types)
        r_mor = GraphMorphism(kgraph, rgraph, dict(rmap_n),
                              {ed[0]: ed[0] for ed in l_edges})
        rules.append(Rule(e, lgraph, kgraph, rgraph, l_mor, r_mor))
    grammar = Grammar(tg, start, tuple(rules))
    grammar.validate()
    return grammar
