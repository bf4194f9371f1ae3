"""Typed directed graphs and their morphisms.

A graph has string-identified nodes and edges with total source/target maps.
Typing assigns every node and edge an item of a fixed type graph; a type
graph is itself a graph typed by the identity.  Morphisms must commute with
source, target and typing.  Matching is ``_common.backtrack`` over typed
candidates: the nodes, then the edges, each in sorted order, so matches
come in a deterministic order; they need not be injective.  Each host
keeps an index, built on its first match: its nodes and edges sorted and
grouped by type, and the set of ``(type, src, tgt)`` triples of its edges.
Each pattern keeps its sorted slots and the edges each node slot closes, and
a search returns at the first slot with no candidate.  A node is rejected as
soon as a pattern edge ending at it, whose other end is already chosen, has
no triple in the host.  ``_images_at`` lists the matches that send a node
into a given set, by one search per node slot that draws from the set, so
that rewriting can search only around what a step changed.

``iso_hash`` is an isomorphism-invariant fingerprint (three rounds of
Weisfeiler–Leman colour refinement, spelt out as nested strings), which
``graph_isomorphism`` compares before it searches.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, \
    Sequence, Set, Tuple

from ._common import Record, backtrack, once


class GraphError(ValueError):
    """Malformed graph, morphism, or argument."""


class TypedGraph:
    """Immutable typed graph.

    ``node_type``/``edge_type`` give the typing map; for a type graph these
    are identities.  ``_derived`` keeps what is computed from the graph once
    (its matching index).
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[Tuple[str, str, str, str]],
                 node_type: Optional[Mapping[str, str]] = None):
        """``edges`` are tuples ``(edge_id, type, src, tgt)``; ``node_type``
        maps node ids to type-node ids (identity when omitted)."""
        self.nodes: FrozenSet[str] = frozenset(nodes)
        self.src: Dict[str, str] = {}
        self.tgt: Dict[str, str] = {}
        self.edge_type: Dict[str, str] = {}
        for eid, etype, s, t in edges:
            if eid in self.edge_type:
                raise GraphError(f"duplicate edge id {eid!r}")
            if s not in self.nodes or t not in self.nodes:
                raise GraphError(f"edge {eid!r} has endpoints outside the node set")
            self.src[eid] = s
            self.tgt[eid] = t
            self.edge_type[eid] = etype
        self.edges: FrozenSet[str] = frozenset(self.edge_type)
        if node_type is None:
            self.node_type = {n: n for n in self.nodes}
        else:
            self.node_type = dict(node_type)
            missing = self.nodes - set(self.node_type)
            if missing:
                raise GraphError(f"nodes without a type: {sorted(missing)}")
        self._derived: Dict[Hashable, object] = {}

    @classmethod
    def _of(cls, nodes: FrozenSet[str], src: Dict[str, str], tgt: Dict[str, str],
            edge_type: Dict[str, str], node_type: Dict[str, str]) -> "TypedGraph":
        """A graph from parts that are correct by construction: neither
        checked nor copied."""
        g = cls.__new__(cls)
        g.nodes, g.src, g.tgt, g.edge_type, g.node_type = nodes, src, tgt, edge_type, node_type
        g.edges = frozenset(edge_type)
        g._derived = {}
        return g

    def validate_typed_over(self, tg: "TypedGraph") -> None:
        """Check that the typing maps form a graph morphism into ``tg``."""
        for n in self.nodes:
            if self.node_type[n] not in tg.nodes:
                raise GraphError(f"node {n!r} typed by unknown {self.node_type[n]!r}")
        for e in self.edges:
            te = self.edge_type[e]
            if te not in tg.edges:
                raise GraphError(f"edge {e!r} typed by unknown {te!r}")
            if tg.src[te] != self.node_type[self.src[e]] or tg.tgt[te] != self.node_type[self.tgt[e]]:
                raise GraphError(f"typing of edge {e!r} does not commute with src/tgt")

    def same(self, other: "TypedGraph") -> bool:
        return (self.nodes == other.nodes and self.edges == other.edges
                and self.src == other.src and self.tgt == other.tgt
                and self.node_type == other.node_type and self.edge_type == other.edge_type)

    def subgraph(self, nodes: Iterable[str], edges: Iterable[str]) -> "TypedGraph":
        nodes = set(nodes)
        return TypedGraph(nodes,
                          [(e, self.edge_type[e], self.src[e], self.tgt[e])
                           for e in edges],
                          {n: self.node_type[n] for n in nodes})

    def __repr__(self):
        return f"TypedGraph(|N|={len(self.nodes)}, |E|={len(self.edges)})"


class GraphMorphism(Record):
    _fields = ("source", "target", "node_map", "edge_map")

    def __init__(self, source: TypedGraph, target: TypedGraph, node_map: Dict[str, str],
                 edge_map: Dict[str, str]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "node_map", node_map)
        object.__setattr__(self, "edge_map", edge_map)

    def validate(self) -> None:
        for n in self.source.nodes:
            if n not in self.node_map or self.node_map[n] not in self.target.nodes:
                raise GraphError(f"node {n!r} unmapped or mapped outside the target")
            if self.source.node_type[n] != self.target.node_type[self.node_map[n]]:
                raise GraphError(f"node {n!r} changes type")
        for e in self.source.edges:
            if e not in self.edge_map or self.edge_map[e] not in self.target.edges:
                raise GraphError(f"edge {e!r} unmapped or mapped outside the target")
            img = self.edge_map[e]
            if self.source.edge_type[e] != self.target.edge_type[img]:
                raise GraphError(f"edge {e!r} changes type")
            if self.node_map[self.source.src[e]] != self.target.src[img] \
                    or self.node_map[self.source.tgt[e]] != self.target.tgt[img]:
                raise GraphError(f"edge {e!r} does not commute with src/tgt")

    def is_injective(self) -> bool:
        return (len(set(self.node_map.values())) == len(self.node_map)
                and len(set(self.edge_map.values())) == len(self.edge_map))

    def is_surjective(self) -> bool:
        return (set(self.node_map.values()) == self.target.nodes
                and set(self.edge_map.values()) == self.target.edges)

    def compose(self, then: "GraphMorphism") -> "GraphMorphism":
        """This morphism followed by ``then``."""
        return GraphMorphism(self.source, then.target,
                             {n: then.node_map[v] for n, v in self.node_map.items()},
                             {e: then.edge_map[v] for e, v in self.edge_map.items()})


class _Index:
    """A graph's items sorted and grouped by type, and its edge triples."""
    __slots__ = ("nodes", "edges", "nodes_of", "edges_of", "triples")

    def __init__(self, g: TypedGraph):
        self.nodes, self.edges = nodes, edges = sorted(g.nodes), sorted(g.edges)
        self.nodes_of: Dict[str, List[str]] = {}  # type -> its nodes, sorted
        self.edges_of: Dict[str, List[str]] = {}  # type -> its edges, sorted
        for n in nodes:
            self.nodes_of.setdefault(g.node_type[n], []).append(n)
        for e in edges:
            self.edges_of.setdefault(g.edge_type[e], []).append(e)
        # (type, src, tgt) of every edge
        self.triples: Set[Tuple[str, str, str]] = {(g.edge_type[e], g.src[e], g.tgt[e])
                                                   for e in edges}


_index = once(_Index)


@once
def _incidence(g: TypedGraph) -> Dict[str, List[str]]:
    """The edges at each node, in or out (a loop twice)."""
    at: Dict[str, List[str]] = {n: [] for n in g.nodes}
    for e, s in g.src.items():
        at[s].append(e)
        at[g.tgt[e]].append(e)
    return at


def _drop_indexes(g: TypedGraph) -> None:
    """Forget the graph's matching and incidence indexes; they are built
    again if asked for."""
    g._derived.pop(_index, None)
    g._derived.pop(_incidence, None)


class _Pattern:
    """A pattern's items sorted, the type of each node slot, and the edges
    each node slot closes."""
    __slots__ = ("nodes", "edges", "types", "kinds", "ends", "closes")

    def __init__(self, pattern: TypedGraph):
        self.nodes, self.edges = nodes, edges = sorted(pattern.nodes), sorted(pattern.edges)
        at = {n: k for k, n in enumerate(nodes)}
        # per edge, the node slots of its ends
        self.ends = [(at[pattern.src[e]], at[pattern.tgt[e]]) for e in edges]
        # per node slot, the pattern edges it closes: both ends chosen once it is
        self.closes: List[List[Tuple[str, int, int]]] = [[] for _ in nodes]
        for e, (s, t) in zip(edges, self.ends):
            self.closes[max(s, t)].append((pattern.edge_type[e], s, t))
        self.types = [pattern.node_type[n] for n in nodes]  # per node slot, its type
        # the node types and the edge types
        self.kinds = (frozenset(self.types), frozenset(pattern.edge_type.values()))


_pattern = once(_Pattern)


def _search(pat: _Pattern, host: TypedGraph, slots: List[Sequence[str]],
            injective: bool) -> Iterator[tuple]:
    """The images of the pattern's sorted nodes, then edges, one candidate
    per slot, in ``backtrack`` order."""
    nn, ends, closes = len(pat.nodes), pat.ends, pat.closes
    triples = _index(host).triples

    def fits(k, x, chosen):
        # injectivity is checked among nodes and among edges apart, since a
        # node and an edge may share an id
        if k < nn:
            if injective and x in chosen:
                return False
            for t, s, u in closes[k]:
                if (t, x if s == k else chosen[s], x if u == k else chosen[u]) not in triples:
                    return False
            return True
        s, t = ends[k - nn]
        return (host.src[x] == chosen[s] and host.tgt[x] == chosen[t]
                and not (injective and x in chosen[nn:]))

    return backtrack(slots, fits, False)


def _morphism(pattern: TypedGraph, host: TypedGraph, images: Sequence[str]) -> GraphMorphism:
    """The morphism with these images of the pattern's sorted nodes, then
    its sorted edges."""
    pat = _pattern(pattern)
    return GraphMorphism(pattern, host, dict(zip(pat.nodes, images)),
                         dict(zip(pat.edges, images[len(pat.nodes):])))


def _slots(pattern: TypedGraph, host: TypedGraph, node_candidates=None,
           edge_candidates=None) -> Optional[List[Sequence[str]]]:
    """The host's candidates for each slot of the pattern, or None as soon
    as a slot has none."""
    pat, index = _pattern(pattern), _index(host)
    slots = []
    for items, types, of_type, allowed in (
            (pat.nodes, pattern.node_type, index.nodes_of, node_candidates),
            (pat.edges, pattern.edge_type, index.edges_of, edge_candidates)):
        for x in items:
            base = of_type.get(types[x], ())
            slot = base if allowed is None else [y for y in base if y in allowed(x)]
            if not slot:
                return None
            slots.append(slot)
    return slots


def _morphisms(pattern: TypedGraph, host: TypedGraph,
               node_candidates=None, edge_candidates=None,
               injective: bool = False) -> Iterator[GraphMorphism]:
    """All typed morphisms pattern -> host, in deterministic order."""
    slots = _slots(pattern, host, node_candidates, edge_candidates)
    for images in () if slots is None else _search(_pattern(pattern), host, slots, injective):
        yield _morphism(pattern, host, images)


def _images_at(pattern: TypedGraph, host: TypedGraph,
               anchors: Mapping[str, Set[str]]) -> List[tuple]:
    """The images (as ``_search`` lists them) of the morphisms pattern ->
    host that send some node into ``anchors``, host nodes keyed by type.
    Each is found once: by the search in which its first such node slot
    draws from ``anchors`` and the slots before it from the other nodes."""
    pat = _pattern(pattern)
    # a pattern with a type the host lacks has no match: tell without the index
    if anchors.keys().isdisjoint(pat.types) or not (
            pat.kinds[0].issubset(host.node_type.values())
            and pat.kinds[1].issubset(host.edge_type.values())):
        return []
    slots = _slots(pattern, host)
    found: List[tuple] = []
    for k, t in enumerate(pat.types):
        at = anchors.get(t)
        if at:
            found += _search(pat, host, [*slots[:k], sorted(at), *slots[k + 1:]], False)
            slots[k] = [y for y in slots[k] if y not in at]
            if not slots[k]:
                break
    return found


def find_matches(pattern: TypedGraph, host: TypedGraph) -> List[GraphMorphism]:
    """All (not necessarily injective) typed morphisms, deterministically ordered."""
    return list(_morphisms(pattern, host))


def graph_isomorphism(g1: TypedGraph, g2: TypedGraph) -> Optional[GraphMorphism]:
    """A typed isomorphism between the two graphs, or None."""
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return None
    if iso_hash(g1) != iso_hash(g2):
        return None
    # an injective morphism between graphs of equal sizes is bijective
    return next(_morphisms(g1, g2, injective=True), None)


def _neighbours(g: TypedGraph) -> Tuple[Dict[str, List[Tuple[str, str]]],
                                        Dict[str, List[Tuple[str, str]]]]:
    """The ``(edge type, target)`` pairs out of each node and the ``(edge
    type, source)`` pairs into it."""
    outs: Dict[str, List[Tuple[str, str]]] = {n: [] for n in g.nodes}
    ins: Dict[str, List[Tuple[str, str]]] = {n: [] for n in g.nodes}
    for e in g.edges:
        outs[g.src[e]].append((g.edge_type[e], g.tgt[e]))
        ins[g.tgt[e]].append((g.edge_type[e], g.src[e]))
    return outs, ins


_ROUNDS = 3  # rounds of colour refinement in iso_hash


def iso_hash(g: TypedGraph) -> str:
    """Isomorphism-invariant fingerprint (Weisfeiler-Leman style refinement)."""
    colour = {n: g.node_type[n] for n in g.nodes}
    outs, ins = _neighbours(g)
    for _ in range(_ROUNDS):
        colour = {n: f"{colour[n]}|{sorted((t, colour[m]) for t, m in outs[n])}"
                     f"|{sorted((t, colour[m]) for t, m in ins[n])}"
                  for n in g.nodes}
    node_part = sorted(colour.values())
    edge_part = sorted(f"{g.edge_type[e]}:{colour[g.src[e]]}->{colour[g.tgt[e]]}" for e in g.edges)
    return str((node_part, edge_part))

