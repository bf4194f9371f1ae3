"""Seeded random structure generators, and one hand-made grammar, shared by
the test modules."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

from weavent import fixtures
from weavent.asyncgraphs import AsyncGraph
from weavent.es import EventStructure, LivenessError, saturate, classify
from weavent.domains import BOUNDED_COMPLETE, COHERENT, FiniteDomain
from weavent.duality import connect_es, dom_of_es
from weavent.graphs import GraphMorphism, TypedGraph
from weavent.io import load_structure
from weavent.rewrite import Grammar, Rule

EVENT_NAMES = "abcdefgh"


def random_enabling(rng: random.Random, events):
    """Random generators, most events with two incomparable ones, so that
    or-enablings (instability) and disconnected minimal enablings occur
    regularly."""
    gens = []
    for k, e in enumerate(events):
        others = events[:k] + events[k + 1:]
        if k == 0 or not others or rng.random() < 0.35:
            size = rng.randint(0, min(2, len(others)))
            gens.append((tuple(rng.sample(others, size)), e))
            continue
        first = rng.sample(others, rng.randint(1, min(2, len(others))))
        gens.append((tuple(first), e))
        if rng.random() < 0.7:
            rest = [x for x in others if x not in first]
            if rest:
                second = rng.sample(rest, rng.randint(1, min(2, len(rest))))
                gens.append((tuple(second), e))
    return gens


def random_live_es(rng: random.Random, max_events: int = 5,
                   conflict_p: float = 0.12) -> EventStructure:
    """A random live binary-conflict structure (conflict saturated)."""
    while True:
        n = rng.randint(max(1, max_events - 2), max_events)
        events = list(EVENT_NAMES[:n])
        conflict = [(a, b) for a, b in combinations(events, 2)
                    if rng.random() < conflict_p]
        es = EventStructure.binary(events, conflict, random_enabling(rng, events))
        try:
            return saturate(es)
        except LivenessError:
            continue


def random_consistency_es(rng: random.Random, max_events: int = 5,
                          live: bool = False) -> EventStructure:
    """A random consistency-kind structure.

    Enabling is drawn as for ``random_live_es``; the consistent sets are a
    few random subsets of two or more events, plus the singletons no subset
    covers.  Raw draws often have dead events or unrealised consistent sets;
    with ``live`` the draw is saturated, and redrawn when it cannot be.
    """
    while True:
        n = rng.randint(max(1, max_events - 2), max_events)
        events = list(EVENT_NAMES[:n])
        family = [rng.sample(events, rng.randint(min(2, n), n))
                  for _ in range(rng.randint(1, 3))]
        covered = set().union(*family)
        family += [[e] for e in events if e not in covered]
        es = EventStructure.with_consistency(events, family, random_enabling(rng, events))
        if not live:
            return es
        try:
            return saturate(es)
        except LivenessError:
            continue


def family_es(family: str, n: int) -> EventStructure:
    """The benchmark's closed-form families, with its event names: ``B``
    has ``n`` free events, ``X`` ``n`` binary choices, ``L`` ``n`` copies
    of the run ``a``, ``b`` ⊢ ``c``, and ``C`` a chain of ``n`` events."""
    if family == "B":
        events = [f"e{i}" for i in range(n)]
        return EventStructure.binary(events, (), [((), e) for e in events])
    if family == "X":
        pairs = [(f"x{i}", f"y{i}") for i in range(n)]
        events = [e for p in pairs for e in p]
        return EventStructure.binary(events, pairs, [((), e) for e in events])
    if family == "L":
        events, gens = [], []
        for i in range(n):
            a, b, c = f"a{i}", f"b{i}", f"c{i}"
            events += [a, b, c]
            gens += [((), a), ((), b), ((a,), c), ((b,), c)]
        return EventStructure.binary(events, (), gens)
    events = [f"s{i}" for i in range(n)]
    return EventStructure.binary(events, (), [((), events[0])] + [
        ((events[i - 1],), events[i]) for i in range(1, n)])


def _planted_or_enabling_es(rng: random.Random, max_events: int) -> EventStructure:
    """Conflict-free structure where later events carry two disjoint minimal
    enablings: connected by construction, usually unstable."""
    n = rng.randint(3, max_events)
    events = list(EVENT_NAMES[:n])
    gens = [((), events[0]), ((), events[1])]
    for k in range(2, n):
        earlier = events[:k]
        first = rng.sample(earlier, rng.randint(1, max(1, len(earlier) // 2)))
        rest = [x for x in earlier if x not in first]
        gens.append((tuple(first), events[k]))
        if rest and rng.random() < 0.8:
            gens.append((tuple(rng.sample(rest, rng.randint(1, len(rest)))), events[k]))
    return saturate(EventStructure.binary(events, (), gens))


def random_connected_es(rng: random.Random, max_events: int = 4) -> EventStructure:
    """A random live connected structure with at most ``max_events`` events.

    Mixes plain low-conflict draws with planted or-enablings so unstable
    connected structures show up regularly; disconnected draws fall back on
    the coreflection.
    """
    while True:
        if max_events >= 3 and rng.random() < 0.4:
            es = _planted_or_enabling_es(rng, max_events)
            if classify(es).connected:
                return es
            continue
        es = random_live_es(rng, max_events=max_events, conflict_p=0.03)
        if classify(es).connected:
            return es
        es = connect_es(es)
        if len(es.events) <= max_events:
            return es


def random_weak_prime_domain(rng: random.Random, max_events: int = 4,
                             max_elements: int = 12):
    """A random weak prime domain, generated as the configuration poset of a
    random live structure."""
    while True:
        dom = dom_of_es(random_live_es(rng, max_events=max_events))
        if 3 <= len(dom.elements) <= max_elements:
            return dom


def random_poset(rng: random.Random, n: int, bottom: bool = True,
                 kind: str = COHERENT) -> FiniteDomain:
    """A random poset on ``n`` elements, valid as a domain or not.

    Elements are related along a random linear extension, each pair with
    one probability per draw; with ``bottom`` the first element lies below
    all others.  Names are shuffled letters, so the sorted order of the
    elements is not a linear extension.
    """
    names = list("abcdefghijkl"[:n])
    rng.shuffle(names)
    p = rng.choice((0.2, 0.35, 0.5))
    leq = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
           if (bottom and i == 0) or rng.random() < p]
    return FiniteDomain(names, leq, kind)


def comparison_domains(rng: random.Random, draws: int):
    """Domains to compare a construction with a reference on: every domain
    fixture, the configuration domains of ``B``, ``X``, ``L`` and ``C`` up
    to size 4, those of ``draws`` live draws of each conflict kind, and
    ``10 * draws`` posets from ``random_poset`` of both kinds, a third of
    them no weak prime domain."""
    files = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*domain.json"))
    doms = [load_structure(str(path), "domain") for path in files]
    doms += [fixtures.m3(), fixtures.chain(3), fixtures.pair_no_join(),
             fixtures.nontransitive_poset(), fixtures.nontransitive_poset(with_top=False),
             fixtures.nontransitive_bdomain()]
    doms += [dom_of_es(family_es(family, n)) for family in "BXLC" for n in range(1, 5)]
    for _ in range(draws):
        doms.append(dom_of_es(random_live_es(rng, conflict_p=0.3)))
        doms.append(dom_of_es(random_consistency_es(rng, live=True)))
    doms += [random_poset(rng, rng.randint(2, 9), bottom=rng.random() < 0.8,
                          kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
             for _ in range(10 * draws)]
    return doms


def outcome(construct, dom):
    """What ``construct(dom)`` returns, or the type and message it raises."""
    try:
        return construct(dom)
    except Exception as exc:
        return type(exc), str(exc)


def random_async_graph(rng: random.Random, max_nodes: int = 7) -> AsyncGraph:
    """A random acyclic graph from ``n0`` with some of its squares declared.

    Edges run forward along the node numbering, with parallel edges now and
    then; edge names are shuffled, so their sorted order is not the
    topological one.  Each coinitial-cofinal pair of 2-paths is declared a
    square with one probability per draw, so cofinal paths from the origin
    are often inequivalent, and some nodes may be unreachable.
    """
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    p = rng.choice((0.3, 0.5, 0.7))
    arcs = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)
            for _ in range(rng.choice((1, 1, 1, 2))) if rng.random() < p]
    names = [f"e{k}" for k in range(len(arcs))]
    rng.shuffle(names)
    edges = [(name, s, t) for name, (s, t) in zip(names, arcs)]
    bare = AsyncGraph.build(nodes, edges, nodes[0])
    spans = {}
    for p2 in bare.paths2():
        spans.setdefault((bare.src(p2[0]), bare.tgt(p2[1])), []).append(p2)
    q = rng.choice((0.3, 0.6, 0.9))
    squares = [pq for ps in spans.values() for pq in combinations(ps, 2)
               if rng.random() < q]
    return AsyncGraph.build(nodes, edges, nodes[0], squares)


def growing_grammar() -> Grammar:
    """A grammar whose ``grow`` can fire again and again: it keeps a node of
    type ``N``, consumes the loop on it and creates another ``N`` with a
    loop.  ``fuse`` merges two ``N`` nodes, possibly one with itself, and
    consumes the one ``T`` node.  The start graph has two parallel loops on
    ``x``, so ``grow`` has two inequivalent matches there."""
    def rule(name, lg, kg, rg, r_nodes):
        return Rule(name, lg, kg, rg, GraphMorphism(kg, lg, {n: n for n in kg.nodes}, {}),
                    GraphMorphism(kg, rg, r_nodes, {}))

    kept = TypedGraph(["u"], [], {"u": "N"})
    grow = rule("grow", TypedGraph(["u"], [("eu", "E", "u", "u")], {"u": "N"}), kept,
                TypedGraph(["u", "n"], [("en", "E", "n", "n")], {"u": "N", "n": "N"}),
                {"u": "u"})
    pair = TypedGraph(["u", "v"], [], {"u": "N", "v": "N"})
    fuse = rule("fuse", TypedGraph(["u", "v", "t"], [], {"u": "N", "v": "N", "t": "T"}),
                pair, TypedGraph(["w"], [], {"w": "N"}), {"u": "w", "v": "w"})
    start = TypedGraph(["x", "y", "t"], [("ex1", "E", "x", "x"), ("ex2", "E", "x", "x"),
                                         ("ey", "E", "y", "y")],
                       {"x": "N", "y": "N", "t": "T"})
    return Grammar(TypedGraph(["N", "T"], [("E", "E", "N", "N")]), start, (grow, fuse))


def _epes_json(events, enabling, conflict=(), equiv=()) -> dict:
    return {"events": list(events), "conflict": [list(p) for p in conflict],
            "enabling": [{"needs": list(needs), "event": e} for needs, e in enabling],
            "equiv": [list(b) for b in equiv]}


# EPES files that break one axiom each, as ``roundtrip --epes`` reads them
# unvalidated: the base is not prime, equivalent events are causally
# related, concurrent or in conflict at the roots, a history is not
# saturated (``c`` is enabled inside ``b``'s history), or an event is dead
INVALID_EPES = {
    "non_prime.epes.json": _epes_json("abc", [((), "a"), ((), "b"), ("a", "c"), ("b", "c")]),
    "causal_equiv.epes.json": _epes_json("ab", [((), "a"), ("a", "b")], equiv=["ab"]),
    "concurrent_roots.epes.json": _epes_json("ab", [((), "a"), ((), "b")], equiv=["ab"]),
    "conflicting_roots.epes.json": _epes_json("ab", [((), "a"), ((), "b")], conflict=["ab"],
                                              equiv=["ab"]),
    "unsaturated.epes.json": _epes_json("abc", [((), "a"), ("a", "b"), ("a", "c")],
                                        conflict=["bc"], equiv=["bc"]),
    "dead.epes.json": _epes_json("ab", [((), "a"), ("a", "b")], conflict=["ab"]),
}
