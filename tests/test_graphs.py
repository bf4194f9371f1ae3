"""Matching against its definition.

``find_matches`` and ``graph_isomorphism`` search the host through its
index (items grouped by type, edge triples) and reject a node as soon as an
edge it closes has no image.  ``_morphisms_by_definition`` takes every
choice of typed candidates in sorted order and keeps what ``validate``
accepts: both must list the same morphisms in the same order.
"""

import random
from itertools import product
from pathlib import Path

import pytest

from weavent import graphs
from weavent.graphs import (GraphError, GraphMorphism, TypedGraph, _images_at, find_matches,
                            graph_isomorphism)
from weavent.io import load_structure
from weavent.oracles import trace_classes_by_definition

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _morphisms_by_definition(pattern, host, injective=False):
    nodes, edges = sorted(pattern.nodes), sorted(pattern.edges)
    slots = ([sorted(y for y in host.nodes if host.node_type[y] == pattern.node_type[n])
              for n in nodes]
             + [sorted(y for y in host.edges if host.edge_type[y] == pattern.edge_type[e])
                for e in edges])
    out = []
    for images in product(*slots):
        m = GraphMorphism(pattern, host, dict(zip(nodes, images)),
                          dict(zip(edges, images[len(nodes):])))
        try:
            m.validate()
        except GraphError:
            continue
        if injective and not m.is_injective():
            continue
        out.append(m)
    return out


def _maps(morphisms):
    return [(m.node_map, m.edge_map) for m in morphisms]


def _assert_matching_agrees(pattern, host):
    assert _maps(find_matches(pattern, host)) == _maps(_morphisms_by_definition(pattern, host))


def _assert_isomorphism_agrees(g1, g2):
    found = graph_isomorphism(g1, g2)
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        assert found is None
        return
    expected = _morphisms_by_definition(g1, g2, injective=True)[:1]
    assert _maps([found] if found is not None else []) == _maps(expected)


def _random_graph(rng, n_nodes, n_edges, prefix):
    nodes = [f"{prefix}{k}" for k in range(n_nodes)]
    edges = [(f"{prefix}e{k}", rng.choice("AB"), rng.choice(nodes), rng.choice(nodes))
             for k in range(n_edges)] if nodes else []
    return TypedGraph(nodes, edges, {n: rng.choice("NM") for n in nodes})


def _shuffled_copy(g, rng):
    nodes, edges = sorted(g.nodes), sorted(g.edges)
    rng.shuffle(nodes)
    new = {n: f"c{k}" for k, n in enumerate(nodes)}
    return TypedGraph(new.values(),
                      [(f"ce{k}", g.edge_type[e], new[g.src[e]], new[g.tgt[e]])
                       for k, e in enumerate(edges)],
                      {new[n]: g.node_type[n] for n in nodes})


@pytest.mark.parametrize("seed", range(12))
def test_random_small_graphs(seed):
    rng = random.Random(seed)
    for _ in range(40):
        pattern = _random_graph(rng, rng.randint(0, 3), rng.randint(0, 3), "p")
        host = _random_graph(rng, rng.randint(1, 3), rng.randint(0, 4), "h")
        _assert_matching_agrees(pattern, host)
        _assert_isomorphism_agrees(host, _shuffled_copy(host, rng))
        _assert_isomorphism_agrees(host, _random_graph(rng, len(host.nodes),
                                                       len(host.edges), "g"))
        _assert_isomorphism_agrees(pattern, host)


def _images(m):
    return (*[m.node_map[n] for n in sorted(m.source.nodes)],
            *[m.edge_map[e] for e in sorted(m.source.edges)])


@pytest.mark.parametrize("seed", range(12))
def test_anchored_search_finds_the_matches_at_its_anchors(seed):
    # _images_at lists each match that sends a node into the anchors once
    rng = random.Random(seed)
    for _ in range(40):
        pattern = _random_graph(rng, rng.randint(0, 3), rng.randint(0, 3), "p")
        host = _random_graph(rng, rng.randint(1, 4), rng.randint(0, 5), "h")
        anchors = set(rng.sample(sorted(host.nodes), rng.randint(0, len(host.nodes))))
        by_type = {}
        for y in anchors:
            by_type.setdefault(host.node_type[y], set()).add(y)
        found = _images_at(pattern, host, by_type)
        assert len(found) == len(set(found))
        assert sorted(found) == [_images(m) for m in _morphisms_by_definition(pattern, host)
                                 if anchors.intersection(m.node_map.values())]


@pytest.mark.parametrize("fusion_safe", [False, True])
def test_every_rule_and_host_of_the_fusion_grammar(fusion_safe):
    grammar = load_structure(str(FIXTURES / "fusion.grammar.json"), "grammar")
    result = trace_classes_by_definition(grammar, 5, fusion_safe)
    hosts = [d.target for c in result.classes for d in c.members]
    for host in hosts:
        for rule in grammar.rules:
            _assert_matching_agrees(rule.L, host)
        _assert_isomorphism_agrees(host, _shuffled_copy(host, random.Random(len(hosts))))
    for g1 in hosts:
        for g2 in hosts:
            _assert_isomorphism_agrees(g1, g2)


def test_index_is_built_once_per_graph():
    host = TypedGraph(["x", "y"], [("e", "A", "x", "y")], {"x": "N", "y": "N"})
    pattern = TypedGraph(["u"], [], {"u": "N"})
    find_matches(pattern, host)
    index = host._derived[graphs._index]
    find_matches(pattern, host)
    assert host._derived[graphs._index] is index
    assert index.triples == {("A", "x", "y")}


def test_pattern_setup_is_kept_and_a_failed_match_searches_nothing(monkeypatch):
    searched = []
    search = graphs._search
    monkeypatch.setattr(graphs, "_search", lambda *args: searched.append(args) or search(*args))
    pattern = TypedGraph(["u", "v"], [("e", "A", "u", "v")], {"u": "N", "v": "N"})
    assert find_matches(pattern, TypedGraph(["x"], [], {"x": "N"})) == []  # no A edge
    assert not searched
    setup = pattern._derived[graphs._pattern]
    host = TypedGraph(["x", "y"], [("f", "A", "x", "y")], {"x": "N", "y": "N"})
    assert [m.edge_map for m in find_matches(pattern, host)] == [{"e": "f"}]
    assert pattern._derived[graphs._pattern] is setup and len(searched) == 1
