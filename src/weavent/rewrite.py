"""Double-pushout rewriting with left-linear, possibly fusing rules.

Rules are spans ``L ← K → R`` with the left leg mono and consuming; the
right leg is arbitrary, so a step may merge items.  Applying a rule removes
the matched deleted part (when the gluing condition holds) and glues the
right-hand side back in as a pushout.  The step is local: ``D`` and ``H``
are copies of the host's dicts with only the step's items changed, and only
the items of ``R`` and the host items whose names they take are named, by
the rule ``oracles.pushout`` names a whole span with (``_span_names``).  A
host's matches are carried from its parent's, so only the start graph is
searched whole.

Derivations from a grammar's start graph are compared by left-consistent
permutations: a permutation of equal-length derivations using the same rules
stepwise, for which an isomorphism of the two derivation colimits matches up
all matches, comatches and the start graph.  The classes, ordered by prefix,
form the trace domain of the grammar, which is weak prime algebraic (prime
when only fusion-safe steps are allowed).

The equivalence is a congruence for extension, so ``trace_classes`` reaches
every class by extending one representative per class, depth by depth.  It
decides the class of an extension before building its step: the gluing and
fusion checks read the match alone (``_gluing``, ``_jointly_mono``), and so
does the key, with the parent's colimit.  Only a step that opens a class is
built; a class's other ``members`` are built on first read.  The exhaustive
references the fast paths are tested against live in ``oracles``.

A derivation's colimit is its parent's colimit glued with the last step
(``_step_pins``): its classes are integers, an item of ``R`` takes the class
of its ``K`` preimages, merged where ``r`` merges them, and only the step's
created items open classes.  The colimit graph and its injections are named
on first use by ``oracles.colimit_by_definition``, which builds them from
scratch.  ``trace_classes`` decides a new derivation by one lookup of
``Colimit.key``,
the partition of the pin labels (start items, match and comatch images,
named by rule and rank among its steps) into colimit items, least over the
orders of each rule's steps, after the graph processes of Corradini,
Montanari and Rossi.  It is exact: every colimit item holds a label and
every edge label fixes its ends and type, so the map a name-preserving
permutation pins is an isomorphism exactly when the partitions, read in
matching orders, are equal.

``grammar_from_es`` gives a live connected event structure a grammar whose
trace domain regenerates it, built from one carrier per event: the event's
node and a node per choice tuple over its minimal enablings, each with a
label loop.  The start graph holds every carrier; the rule of an event
needs its carrier merged, and merges the parts of the other carriers that
name it.  Each rule fires at most once, so ``derive`` without ``--depth``
enumerates such a grammar to ``once_per_rule_depth``, its rule count.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, groupby, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ._common import Record, UnionFind, backtrack, once
from .es import EventStructure, EsError, classify, minimal_enablings
from .domains import COHERENT, FiniteDomain
from .graphs import (GraphError, GraphMorphism, TypedGraph, find_matches, _drop_indexes,
                     _images_at, _incidence, _index, _morphism, _morphisms, _pattern)

DEFAULT_CEILING = 10000


class TraceLimitError(GraphError):
    """Trace-class enumeration exceeded the configured ceiling."""


# ---------------------------------------------------------------------- #
# Rules and grammars
# ---------------------------------------------------------------------- #

class Rule(Record):
    _fields = ("name", "L", "K", "R", "l", "r")

    def __init__(self, name: str, L: TypedGraph, K: TypedGraph, R: TypedGraph,
                 l: GraphMorphism, r: GraphMorphism):
        put = object.__setattr__
        put(self, "name", name)
        put(self, "L", L)
        put(self, "K", K)
        put(self, "R", R)
        put(self, "l", l)
        put(self, "r", r)
        put(self, "_derived", {})

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


class Grammar(Record):
    _fields = ("type_graph", "start", "rules")

    def __init__(self, type_graph: TypedGraph, start: TypedGraph, rules: Tuple[Rule, ...]):
        object.__setattr__(self, "type_graph", type_graph)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_derived", {})

    @once
    def validate(self) -> None:
        """Raise GraphError at the first check the grammar fails.  A grammar
        that passes keeps that verdict (``_common.once``), so the parser and
        ``trace_classes`` check it once between them."""
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


def _span_names(c_items: Iterable[str], fmap: Dict[str, str], gmap: Dict[str, str],
                a_items: List[str], b_items: FrozenSet[str]
                ) -> Tuple[Dict[str, str], Dict[str, str], set]:
    """How the pushout of ``A ←f− C −g→ B`` names its items.

    ``a_items`` is sorted.  The ``A`` items are named in that order through
    ``_fresh``: a glued class (the items ``C`` joins, found by a union-find
    over ``A`` items keyed by their ``B`` image) at its least item, by its
    ``B`` items joined with ``+``, every other item by itself.  Then each
    ``B`` item outside the image of ``g`` keeps its name unless an earlier
    item took it, the ``B`` items in sorted order.  Only the taken ones are
    visited, in any order: a taken ``y`` gets ``y~k`` for the least ``k >= 2``
    whose name no ``A`` item has, since the names that the sorted walk keeps
    before ``y`` sort below ``y``, and a name given to another taken item
    ``w`` is ``w~j``, never ``y~k``.  When ``y~k`` is the name of another
    such ``B`` item, that item is taken in turn.  Returns the names of the
    ``A`` items, the new names of the ``B`` items that change name (glued or
    taken) and the set of every name given.
    """
    uf, owner = UnionFind(), {}  # owner: a B image -> the A item it was first met with
    for c in c_items:
        x, y = fmap[c], gmap[c]
        uf.add(x)
        if owner.setdefault(y, x) != x:
            uf.union(owner[y], x)
    find, glued = uf.find, uf.parent
    members: Dict[str, List[str]] = {}
    for y, x in owner.items():
        members.setdefault(find(x), []).append(y)
    used: set = set()
    to_a: Dict[str, str] = {}
    for x in a_items:
        if x not in glued:
            to_a[x] = _fresh(x, used)
        else:
            root = find(x)
            to_a[x] = _fresh("+".join(sorted(members[x])), used) if root == x else to_a[root]
    to_b = {y: to_a[x] for y, x in owner.items()}
    taken = [y for y in used if y in b_items and y not in to_b]
    while taken:
        y = taken.pop()
        to_b[y] = z = _fresh(y, used)
        if z in b_items and z not in to_b:
            taken.append(z)
    return to_a, to_b, used


# ---------------------------------------------------------------------- #
# Direct derivations
# ---------------------------------------------------------------------- #

class DirectDerivation(Record):
    """One DPO step ``G ⇒ H`` with all six boundary morphisms."""
    _fields = ("rule", "G", "D", "H", "match", "mK", "mR", "lstar", "rstar")

    def __init__(self, rule: Rule, G: TypedGraph, D: TypedGraph, H: TypedGraph,
                 match: GraphMorphism, mK: GraphMorphism, mR: GraphMorphism,
                 lstar: GraphMorphism, rstar: GraphMorphism):
        put = object.__setattr__
        put(self, "rule", rule)
        put(self, "G", G)
        put(self, "D", D)
        put(self, "H", H)
        put(self, "match", match)  # L -> G
        put(self, "mK", mK)  # K -> D
        put(self, "mR", mR)  # R -> H
        put(self, "lstar", lstar)  # D -> G (inclusion)
        put(self, "rstar", rstar)  # D -> H


@once
def _rule_parts(rule: Rule) -> list:
    """What every step of a rule reads off it, per kind (nodes, then edges):
    the gone items of ``L``, the sorted items of ``L``, the pair ``(l(k),
    r(k))`` of each item ``k`` of ``K``, and the sorted items of ``R``."""
    return [(l_items - {x for x, _ in pairs}, sorted(l_items), pairs, sorted(r_items))
            for pairs, l_items, r_items in (
                ([(rule.l.node_map[k], rule.r.node_map[k]) for k in rule.K.nodes],
                 rule.L.nodes, rule.R.nodes),
                ([(rule.l.edge_map[k], rule.r.edge_map[k]) for k in rule.K.edges],
                 rule.L.edges, rule.R.edges))]


def _gluing(g: TypedGraph, rule: Rule, m: GraphMorphism) -> Optional[list]:
    """The nodes and the edges of ``g`` a step of ``rule`` at ``m`` deletes,
    or None when the gluing condition fails.

    With ``l`` mono the condition splits into the identification check
    (items identified by the match must all be preserved) and the dangling
    check (no context edge may keep a deleted node alive, read off ``g``'s
    incidence index).
    """
    deleted = []
    for (gone, _, pairs, _), images in zip(_rule_parts(rule), (m.node_map, m.edge_map)):
        dels = {images[x] for x in gone}
        # identification: deleted items have distinct images, and none of
        # them is the image of a kept item
        if len(dels) < len(gone) or not dels.isdisjoint([images[x] for x, _ in pairs]):
            return None
        deleted.append(dels)
    # dangling: every edge at a deleted node is deleted too
    return deleted if all(deleted[1].issuperset(_incidence(g)[n]) for n in deleted[0]) else None


def apply_rule(g: TypedGraph, rule: Rule, m: GraphMorphism) -> Optional[DirectDerivation]:
    """Apply a rule at a match; returns None when the gluing condition
    fails (``_gluing``).

    The step is local: ``D`` and ``H`` are copies of ``g``'s dicts, with
    only the deleted items taken out of ``D`` and only the items of ``R``,
    the items they glue and the ``D`` items whose names they take changed
    in ``H``; edges are rewired only at the nodes that change name.  ``H``
    and its morphisms are named by ``oracles.pushout(r, mK)``'s rule
    (``_span_names``), byte for byte; ``oracles.apply_rule_by_definition``
    builds the step whole.
    """
    if m.source is not rule.L or m.target is not g:
        raise GraphError("match must map the rule's left-hand side into the host")
    m.validate()
    deleted = _gluing(g, rule, m)
    if not deleted:
        return None
    del_nodes, del_edges = deleted
    (*_, r_nodes), (*_, r_edges) = _rule_parts(rule)
    mn, me, at = m.node_map, m.edge_map, _incidence(g)
    src, tgt, etype, ntype = g.src.copy(), g.tgt.copy(), g.edge_type.copy(), g.node_type.copy()
    for e in del_edges:
        del src[e], tgt[e], etype[e]
    for n in del_nodes:
        del ntype[n]
    d = TypedGraph._of(g.nodes - del_nodes, src, tgt, etype, ntype)
    mk = GraphMorphism(rule.K, d, {k: mn[rule.l.node_map[k]] for k in rule.K.nodes},
                       {k: me[rule.l.edge_map[k]] for k in rule.K.edges})
    rn, n_new, n_used = _span_names(rule.K.nodes, rule.r.node_map, mk.node_map, r_nodes, d.nodes)
    re_, e_new, e_used = _span_names(rule.K.edges, rule.r.edge_map, mk.edge_map, r_edges, d.edges)
    lstar_n, lstar_e = dict(zip(d.nodes, d.nodes)), dict(zip(d.edges, d.edges))
    rstar_n, rstar_e = {**lstar_n, **n_new}, {**lstar_e, **e_new}
    # H's dicts: D's with the new entries merged in (sized for both), then
    # the names that are gone taken out
    new_n = {z: rule.R.node_type[x] for x, z in rn.items()}
    new_n.update({z: ntype[y] for y, z in n_new.items()})
    new_s, new_t, new_e = {}, {}, {}
    for e in {e for y in n_new for e in at[y]}:  # the edges at nodes that change name
        if e in src and e not in e_new:
            new_s[e], new_t[e] = rstar_n[src[e]], rstar_n[tgt[e]]
    for y, z in e_new.items():
        new_e[z], new_s[z], new_t[z] = etype[y], rstar_n[src[y]], rstar_n[tgt[y]]
    for x, z in re_.items():
        new_e[z], new_s[z], new_t[z] = rule.R.edge_type[x], rn[rule.R.src[x]], rn[rule.R.tgt[x]]
    h_ntype, h_src, h_tgt, h_etype = ({**old, **new} for old, new in (
        (ntype, new_n), (src, new_s), (tgt, new_t), (etype, new_e)))
    for y in n_new.keys() - n_used:
        del h_ntype[y]
    for y in e_new.keys() - e_used:
        del h_src[y], h_tgt[y], h_etype[y]
    h = TypedGraph._of(d.nodes.difference(n_new).union(n_used), h_src, h_tgt, h_etype, h_ntype)
    return DirectDerivation(rule, g, d, h, m, mk, GraphMorphism(rule.R, h, rn, re_),
                            GraphMorphism(d, g, lstar_n, lstar_e),
                            GraphMorphism(d, h, rstar_n, rstar_e))


def _jointly_mono(rule: Rule, m: GraphMorphism) -> bool:
    """Whether the pair ``(m∘l, r)`` is jointly mono: a step of ``rule`` at
    ``m`` never re-merges items that the host already identifies."""
    return all(len({(images[x], y) for x, y in pairs}) == len(pairs)
               for (*_, pairs, _), images in zip(_rule_parts(rule), (m.node_map, m.edge_map)))


def is_fusion_safe(d: DirectDerivation) -> bool:
    """Whether the step never re-merges items that its host already
    identifies (``_jointly_mono`` at its match)."""
    return _jointly_mono(d.rule, d.match)


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
                         node_candidates=node_pre.__getitem__,
                         edge_candidates=edge_pre.__getitem__):
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
        lineage = [self]
        while lineage[-1]._colimit is None and lineage[-1].parent is not None:
            lineage.append(lineage[-1].parent)
        base = lineage[-1]._colimit
        for d in reversed(lineage):
            if d._colimit is None:
                d._colimit = Colimit(d.source, d.steps, base)
            base = d._colimit
        return base

    def __repr__(self):
        return f"Derivation({';'.join(self.rule_names()) or 'ε'})"


def _step_pins(uf: UnionFind, at: tuple, rule: Rule, m: GraphMorphism) -> tuple:
    """The pin of a step of ``rule`` at ``m`` glued onto a colimit whose
    target's items have the classes ``at``, and the classes of ``R``'s items.

    An item of ``R`` in the image of ``r`` takes the class of the images of
    its ``K`` preimages, unioned in ``uf`` where ``r`` merges them (images
    the match identifies share a class already); a created item opens a
    class in ``uf``.  The pin is the rule name and, per kind, the
    classes of the images of ``L``'s sorted items, then of ``R``'s.
    """
    pin = [rule.name]
    classes = []
    for (_, l_items, pairs, r_items), a, images in zip(_rule_parts(rule), at,
                                                       (m.node_map, m.edge_map)):
        of: Dict[str, int] = {}
        for x, y in pairs:
            c = a[images[x]]
            if of.setdefault(y, c) != c:
                uf.union(of[y], c)
        for y in r_items:  # a created item opens a class
            uf.add(of.setdefault(y, len(uf.parent)))
        pin.append([a[images[x]] for x in l_items] + [of[y] for y in r_items])
        classes.append(of)
    return tuple(pin), classes


class Colimit:
    """Colimit of the zig-zag of graphs of a derivation, on integer classes.

    ``_at`` maps the nodes and the edges of the target graph to classes,
    integers of the union-find ``_uf``.  With ``base``, the colimit of a
    prefix of the derivation (its parent's), only the later steps are glued
    (``_step_pins``) into a copy of its union-find, which so holds one
    integer per class opened: the start graph's items, then each step's
    created items.  ``_start`` and ``_pins`` hold the pin labels as the
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
            index = _index(source)
            uf = UnionFind(range(len(index.nodes) + len(index.edges)))
            fresh = iter(uf.parent)  # one class per start item, in sorted order
            at = tuple(dict(zip(items, fresh)) for items in (index.nodes, index.edges))
            start = tuple(list(a.values()) for a in at)
            pins: Tuple[tuple, ...] = ()
        else:
            uf, at, start, pins = base._uf.copy(), base._at, base._start, base._pins
        for st in steps[len(pins):]:
            pin, classes = _step_pins(uf, at, st.rule, st.match)
            # H's items: a D item keeps its class, an R item takes its own
            at = tuple({**{z: a[x] for x, z in rstar.items()},
                        **{mr[y]: c for y, c in of.items()}}
                       for a, rstar, mr, of in zip(at, (st.rstar.node_map, st.rstar.edge_map),
                                                   (st.mR.node_map, st.mR.edge_map), classes))
            pins += (pin,)
        self._uf, self._at, self._start, self._pins = uf, at, start, pins
        self._source, self._steps = source, steps
        self._derived: Dict[object, object] = {}  # the names, on first use

    def key(self, rule: Optional[Rule] = None, match: Optional[GraphMorphism] = None) -> tuple:
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

        With a ``rule`` and a ``match`` into the target, it is the key of
        the derivation extended by that step, read off this colimit and the
        match alone (``_step_pins``), without the step being built.
        """
        uf, pins = self._uf, self._pins
        if rule:
            uf = uf.copy()
            pins += (_step_pins(uf, self._at, rule, match)[0],)
        find = uf.find
        pins = sorted(pins, key=lambda pin: pin[0])  # the steps by rule name
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

    @once
    def _names(self) -> tuple:
        from .oracles import colimit_by_definition
        return colimit_by_definition(Derivation(self._source, self._steps))

    @property
    def graph(self) -> TypedGraph:
        return self._names()[0]

    def node_in(self, stage: int, node: str) -> str:
        return self._names()[1][(stage, node)]

    def edge_in(self, stage: int, edge: str) -> str:
        return self._names()[2][(stage, edge)]


# ---------------------------------------------------------------------- #
# Trace classes and the trace domain
# ---------------------------------------------------------------------- #

class TraceClass(Record):
    """One trace class: its id, its representative (the first derivation
    found in breadth-first order) and the derivations found for it,
    representative first.  ``trace_classes`` builds only one-step
    extensions of representatives, so ``members`` holds those, not every
    interleaving; ``trace_classes_by_definition`` holds every interleaving
    up to the depth.

    ``_others`` lists the members after the representative, each built or,
    from ``trace_classes``, as the ``(parent, rule, images)`` of its last
    step; ``members`` builds the latter on first read, in that order.
    """
    _fields = ("element_id", "representative")

    def __init__(self, element_id: str, representative: Derivation, _others: tuple = ()):
        object.__setattr__(self, "element_id", element_id)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "_others", _others)
        object.__setattr__(self, "_derived", {})

    @property
    @once
    def members(self) -> Tuple[Derivation, ...]:
        return (self.representative, *map(_member, self._others))


def _member(other) -> Derivation:
    """A member kept built, or built from the ``(parent, rule, images)`` of
    its last step."""
    if isinstance(other, Derivation):
        return other
    parent, rule, images = other
    return parent.extend(apply_rule(parent.target, rule, _morphism(rule.L, parent.target, images)))


class TraceDomainResult(Record):
    _fields = ("domain", "classes")

    def __init__(self, domain: FiniteDomain, classes: Tuple[TraceClass, ...]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "classes", classes)


def _carried(st: DirectDerivation, patterns: Sequence[TypedGraph],
             found: Sequence[tuple]) -> tuple:
    """The images of the matches of each pattern into ``st.H`` from those
    into ``st.G``, ``found``, each in ``find_matches`` order.

    A match into ``H`` that avoids the comatch's nodes avoids its edges too,
    and is a match into ``G`` that avoids the step's match, carried along
    ``rstar``.  Every other one is found by a search anchored at the
    comatch's nodes (``graphs._images_at``), which a pattern with none of
    their types skips.  Candidates are tried in name order, so sorting the
    images sorts the matches as ``find_matches`` does.
    """
    rn, re_ = st.rstar.node_map, st.rstar.edge_map
    gone_n, gone_e = set(st.match.node_map.values()), set(st.match.edge_map.values())
    anchors: Dict[str, set] = {}
    for y in st.mR.node_map.values():
        anchors.setdefault(st.H.node_type[y], set()).add(y)
    out = []
    for pattern, images in zip(patterns, found):
        kept = _images_at(pattern, st.H, anchors)
        if images:
            nn = len(_pattern(pattern).nodes)
            kept += [(*map(rn.__getitem__, im[:nn]), *map(re_.__getitem__, im[nn:]))
                     for im in images
                     if gone_n.isdisjoint(im[:nn]) and gone_e.isdisjoint(im[nn:])]
        out.append(tuple(sorted(kept)) if kept else ())
    return tuple(out)


def _matches(deriv: Derivation, rules: Sequence[Rule]) -> tuple:
    """The images of the matches of each rule's ``L`` into the derivation's
    target, each in ``find_matches`` order, kept on each host per list of
    rules: found on the start graph, carried down the steps after it."""
    patterns = tuple(rule.L for rule in rules)
    steps = deriv.steps
    i = len(steps)
    while i and patterns not in steps[i - 1].H._derived:
        i -= 1
    host = steps[i - 1].H if i else deriv.source
    if patterns not in host._derived:
        host._derived[patterns] = tuple(tuple(
            (*map(m.node_map.get, _pattern(p).nodes), *map(m.edge_map.get, _pattern(p).edges))
            for m in find_matches(p, host)) for p in patterns)
    found = host._derived[patterns]
    for st in steps[i:]:
        found = st.H._derived[patterns] = _carried(st, patterns, found)
    return found


def _trace_result(groups: List[list], steps: Iterable[Tuple[int, int]]) -> TraceDomainResult:
    """Number and order the classes.

    ``groups`` lists each class's representative, then its other members
    as ``TraceClass._others`` takes them, with classes in order of
    discovery; ``steps`` holds ``(class of a derivation, class of a
    one-step extension of it)`` pairs, which generate the prefix order.
    Classes are sorted by length, then by the representative's rule names,
    then by discovery.
    """
    order = sorted(range(len(groups)),
                   key=lambda c: (len(groups[c][0]), groups[c][0].rule_names(), c))
    ids: Dict[int, str] = {}
    classes = []
    for pos, c in enumerate(order):
        rep = groups[c][0]
        ids[c] = f"t{pos}:{';'.join(rep.rule_names()) or 'ε'}"
        classes.append(TraceClass(ids[c], rep, tuple(groups[c][1:])))
    domain = FiniteDomain(ids.values(), [(ids[a], ids[b]) for a, b in steps], COHERENT)
    return TraceDomainResult(domain, tuple(classes))


def trace_classes(grammar: Grammar, depth: int, fusion_safe: bool = False,
                  ceiling: int = DEFAULT_CEILING) -> TraceDomainResult:
    """The trace classes of derivations up to ``depth``, ordered by prefix.

    Grows a breadth-first tree that extends only class representatives.
    Trace equivalence is a congruence for extension, so every extension of
    a member is equivalent to an extension of its representative, and the
    classes, their representatives and their order are those of
    ``trace_classes_by_definition``.  A new derivation joins the class with
    its colimit's ``key``, or opens one: equal keys are exactly a
    left-consistent isomorphism (see the module docstring).  Its class is
    decided from the representative's colimit and the match, before its
    step is built (``Colimit.key`` with a rule and a match); only a
    derivation that opens a class is built, and one that joins a class is
    kept as ``(representative, rule, images)`` until ``members`` is read.
    Raises ``TraceLimitError`` as soon as more than ``ceiling`` classes
    have been found.
    """
    grammar.validate()
    rules = sorted(grammar.rules, key=lambda r: r.name)
    groups: List[list] = []
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
            deriv = groups[parent][0]
            host, colimit = deriv.target, deriv.colimit()
            for rule, images in zip(rules, _matches(deriv, rules)):
                for im in images:
                    m = _morphism(rule.L, host, im)
                    if not _gluing(host, rule, m) or (
                            fusion_safe and not _jointly_mono(rule, m)):
                        continue
                    key = colimit.key(rule, m)
                    cls = buckets.get(key)
                    if cls is None:
                        cls = buckets[key] = open_class(deriv.extend(apply_rule(host, rule, m)))
                        found.append(cls)
                    else:
                        groups[cls].append((deriv, rule, im))
                    steps.append((parent, cls))
            # the host's matching and incidence indexes served these steps
            # alone, so the hosts of a trace tree keep only their matches
            _drop_indexes(host)
        frontier = found
    return _trace_result(groups, steps)


def trace_domain(grammar: Grammar, depth: int, fusion_safe: bool = False,
                 ceiling: int = DEFAULT_CEILING) -> FiniteDomain:
    """The prefix-ordered poset of trace classes of a grammar."""
    return trace_classes(grammar, depth, fusion_safe, ceiling).domain


def once_per_rule_depth(grammar: Grammar) -> Optional[int]:
    """The rule count, when it provably bounds every derivation.

    Holds when each rule deletes a node of a type that the start graph
    holds exactly once and that no rule creates: once that node is deleted
    no node of its type is left, so the rule applies at most once.  Grammars
    produced by ``grammar_from_es`` have this shape, so enumerating to this
    depth is exhaustive.
    """
    created = set()
    for rule in grammar.rules:
        kept = {rule.r.node_map[k] for k in rule.K.nodes}
        for n in rule.R.nodes - kept:
            created.add(rule.R.node_type[n])
    start = grammar.start
    held = Counter(start.node_type[n] for n in start.nodes)
    for rule in grammar.rules:
        kept = {rule.l.node_map[k] for k in rule.K.nodes}
        if not any(t not in created and held[t] == 1
                   for t in {rule.L.node_type[n] for n in rule.L.nodes - kept}):
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

    An event ``e``'s carrier is its node ``s_e`` and one node ``l_(u)@e``
    per choice tuple ``u`` over its minimal enablings (``_pmin``), each with
    a label loop.  The start graph holds every event's carrier, a private
    item ``i_e`` per event and a shared item ``c_a#b`` per conflict pair.
    The rule ``e`` consumes ``i_e`` and the conflict items of ``e``, needs
    ``e``'s carrier merged into one node ``own_e``, and for every other
    event ``e2`` merges the part of ``e2``'s carrier that names ``e`` (``s_e2``
    and the tuple nodes whose tuple holds ``e``) into one node ``m_e2``.
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
    conflicts = sorted(tuple(sorted(p)) for p in es.conflict)

    def carrier(e, tuples, types, edges):
        """Add ``e``'s node ``s_e`` and its tuple nodes for ``tuples`` to
        ``types``, each with its label loop to ``edges``; return the loops."""
        loops = [(f"es_{e}", f"lab:{e}", f"s_{e}")] + [
            (f"el_{x}", f"lab:{x}", f"l_{x}") for x in (f"{_tuple_label(u)}@{e}" for u in tuples)]
        for eid, t, n in loops:
            types[n] = f"ev:{e}"
            edges.append((eid, t, n, n))
        return loops

    types = {f"i_{e}": f"init:{e}" for e in events}
    types.update((f"c_{a}#{b}", f"cnf:{a}#{b}") for a, b in conflicts)
    edges = []
    loops = {e: carrier(e, pmin[e], types, edges) for e in events}
    start = TypedGraph(types, edges, types)
    tg = TypedGraph(types.values(), [(t, t, types[n], types[n]) for _, t, n, _ in edges])

    rules = []
    for e in events:
        own = f"own_{e}"
        types = {f"i_{e}": f"init:{e}", own: f"ev:{e}"}
        types.update((f"c_{a}#{b}", f"cnf:{a}#{b}") for a, b in conflicts if e in (a, b))
        edges = [(eid, t, own, own) for eid, t, _ in loops[e]]
        rmap = {own: own}
        for e2 in events:
            hits = [u for u in pmin[e2] if e in u]
            if hits:
                rmap.update((n, f"m_{e2}") for _, _, n in carrier(e2, hits, types, edges))
        # K is L less i_e and the conflict items: its nodes are the keys of r's map
        lgraph = TypedGraph(types, edges, types)
        kgraph = TypedGraph(rmap, edges, {n: types[n] for n in rmap})
        rgraph = TypedGraph(rmap.values(), [(eid, t, rmap[s], rmap[d]) for eid, t, s, d in edges],
                            {rmap[n]: types[n] for n in rmap})
        emap = {eid: eid for eid, *_ in edges}
        rules.append(Rule(e, lgraph, kgraph, rgraph,
                          GraphMorphism(kgraph, lgraph, {n: n for n in rmap}, emap),
                          GraphMorphism(kgraph, rgraph, rmap, dict(emap))))
    return Grammar(tg, start, tuple(rules))
