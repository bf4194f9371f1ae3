"""``trace_classes`` against its exhaustive reference.

``trace_classes`` extends only class representatives;
``trace_classes_by_definition`` builds every interleaving and quotients it
pairwise.  They must agree on the class ids and their order, on the prefix
order, and on each representative, step by step.

The two steps ``trace_classes`` leans on have references of their own: the
colimit each derivation builds on its parent's equals
``colimit_by_definition``, and the ``iso_key`` buckets are the ``iso_hash``
buckets.
"""

import random
from pathlib import Path

import pytest

from weavent import rewrite
from weavent.es import EventStructure, classify
from weavent.graphs import TypedGraph, iso_hash, iso_key
from weavent.io import load_structure
from weavent.rewrite import (Derivation, colimit_by_definition, grammar_from_es,
                             once_per_rule_depth, trace_classes,
                             trace_classes_by_definition)
from tests._gen import random_connected_es

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _live_connected_fixtures():
    out = []
    for path in sorted(FIXTURES.glob("*.es.json")):
        es = load_structure(str(path), "es")
        cl = classify(es)
        if es.conflict_kind == "binary" and cl.live and cl.connected:
            out.append(path.name)
    return out


def _representative(cls):
    return [(st.rule.name, st.match.node_map, st.match.edge_map)
            for st in cls.representative.steps]


def assert_agree(grammar, depth, fusion_safe=False):
    fast = trace_classes(grammar, depth, fusion_safe)
    oracle = trace_classes_by_definition(grammar, depth, fusion_safe)
    assert [c.element_id for c in fast.classes] == [c.element_id for c in oracle.classes]
    assert fast.domain.covers() == oracle.domain.covers()
    for f, o in zip(fast.classes, oracle.classes):
        assert _representative(f) == _representative(o)
        assert f.members[0] is f.representative
        assert len(f.members) <= len(o.members)


@pytest.mark.parametrize("fusion_safe", [False, True])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_fusion_grammar(depth, fusion_safe):
    grammar = load_structure(str(FIXTURES / "fusion.grammar.json"), "grammar")
    assert_agree(grammar, depth, fusion_safe)


def test_live_connected_fixtures_are_found():
    assert len(_live_connected_fixtures()) >= 5


@pytest.mark.parametrize("name", _live_connected_fixtures())
def test_synthesised_fixture(name):
    grammar = grammar_from_es(load_structure(str(FIXTURES / name), "es"))
    assert_agree(grammar, once_per_rule_depth(grammar))


@pytest.mark.parametrize("seed", range(24))
def test_random_connected(seed):
    es = random_connected_es(random.Random(seed))
    grammar = grammar_from_es(es)
    assert_agree(grammar, once_per_rule_depth(grammar))


# ---------------------------------------------------------------------- #
# The colimits and bucket keys that trace_classes builds
# ---------------------------------------------------------------------- #

def _fusion():
    return load_structure(str(FIXTURES / "fusion.grammar.json"), "grammar")


def _reached(grammar, depth, fusion_safe=False):
    """Every derivation ``trace_classes`` builds: each one joins or opens a
    class, so the members of all classes."""
    result = trace_classes(grammar, depth, fusion_safe)
    return [d for c in result.classes for d in c.members]


def _synthesised(es):
    grammar = grammar_from_es(es)
    return grammar, once_per_rule_depth(grammar)


CASES = ([("fusion", safe) for safe in (False, True)]
         + [("fixture", name) for name in _live_connected_fixtures()]
         + [("random", seed) for seed in range(8)])


def _case(kind, arg):
    if kind == "fusion":
        return _reached(_fusion(), 5, arg)
    if kind == "fixture":
        es = load_structure(str(FIXTURES / arg), "es")
    else:
        es = random_connected_es(random.Random(arg))
    return _reached(*_synthesised(es))


def _renamed(g, rng):
    """``g`` with fresh node and edge ids, inserted in a random order."""
    nodes = sorted(g.nodes)
    edges = sorted(g.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    node_id = {n: f"v{k}" for k, n in enumerate(nodes)}
    return TypedGraph([node_id[n] for n in nodes],
                      [(f"f{k}", g.edge_type[e], node_id[g.src[e]], node_id[g.tgt[e]])
                       for k, e in enumerate(edges)],
                      {node_id[n]: g.node_type[n] for n in nodes})


@pytest.mark.parametrize("kind,arg", CASES)
def test_iso_key_partitions_like_iso_hash(kind, arg):
    targets = [d.target for d in _case(kind, arg)]
    hashes = [iso_hash(g) for g in targets]
    keys = [iso_key(g) for g in targets]
    assert len(set(hashes)) == len(set(keys)) == len(set(zip(hashes, keys)))
    rng = random.Random(f"{kind}:{arg}")
    for g, key in zip(targets, keys):
        assert iso_key(_renamed(g, rng)) == key


def test_iso_key_partitions_small_graphs_like_iso_hash():
    # graphs on three nodes typed N or M, each with a random set of E-edges
    # (at most one per ordered pair of nodes, loops included) and two F-edges
    rng = random.Random(9)
    pairs = [(s, t) for s in "xyz" for t in "xyz"]
    graphs = []
    for typing in range(8):
        types = {n: "NM"[typing >> k & 1] for k, n in enumerate("xyz")}
        for chosen in rng.sample(range(1 << len(pairs)), 128):
            edges = [(f"e{k}", "E", s, t) for k, (s, t) in enumerate(pairs) if chosen >> k & 1]
            edges += [(f"f{k}", "F", *rng.choice(pairs)) for k in range(2)]
            graphs.append(TypedGraph("xyz", edges, types))
    # two directed paths of 5 and 7 nodes against two of 6 (and so on):
    # only the third round of refinement tells them apart
    for lengths in ((5, 7), (6, 6), (5, 9), (6, 8), (7, 7)):
        nodes = [f"p{p}_{i}" for p, n in enumerate(lengths) for i in range(n)]
        edges = [(f"e{p}_{i}", "E", f"p{p}_{i}", f"p{p}_{i + 1}")
                 for p, n in enumerate(lengths) for i in range(n - 1)]
        graphs.append(TypedGraph(nodes, edges, dict.fromkeys(nodes, "N")))
    hashes = [iso_hash(g) for g in graphs]
    keys = [iso_key(g) for g in graphs]
    assert len(set(hashes)) == len(set(keys)) == len(set(zip(hashes, keys)))


def _assert_colimit_agrees(deriv):
    graph, node_in, edge_in = colimit_by_definition(deriv)
    col = deriv.colimit()
    assert col.graph.same(graph)
    stages = [deriv.source] + [st.H for st in deriv.steps]
    assert {(i, n): col.node_in(i, n)
            for i, g in enumerate(stages) for n in g.nodes} == node_in
    assert {(i, e): col.edge_in(i, e)
            for i, g in enumerate(stages) for e in g.edges} == edge_in


@pytest.mark.parametrize("kind,arg", CASES)
def test_incremental_colimit_matches_oracle(kind, arg):
    for deriv in _case(kind, arg):
        for k in range(len(deriv) + 1):
            _assert_colimit_agrees(deriv.prefix(k))
        # without a parent, the colimit is glued from stage 0 in one go
        _assert_colimit_agrees(Derivation(deriv.source, deriv.steps))


def _boolean(n):
    events = [f"e{i}" for i in range(n)]
    return EventStructure.binary(events, (), [((), e) for e in events])


def _choices(k):
    events, gens, conflict = [], [], []
    for i in range(k):
        events += [f"x{i}", f"y{i}"]
        gens += [((), f"x{i}"), ((), f"y{i}")]
        conflict.append((f"x{i}", f"y{i}"))
    return EventStructure.binary(events, conflict, gens)


def _runs(k):
    events, gens = [], []
    for i in range(k):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"
        events += [a, b, c]
        gens += [((), a), ((), b), ((a,), c), ((b,), c)]
    return EventStructure.binary(events, (), gens)


# computed with iso_hash buckets and colimits rebuilt from stage 0: the
# buckets, and so the equivalence checks, must not change
@pytest.mark.parametrize("case,calls,classes", [
    ("fusion", 3, 7), ("fusion-safe", 0, 5), ("B4", 17, 16), ("X3", 28, 27),
    ("L2", 78, 49)])
def test_equivalence_check_counts_pinned(monkeypatch, case, calls, classes):
    count = [0]
    check = rewrite.equivalent_traces

    def counted(psi1, psi2):
        count[0] += 1
        return check(psi1, psi2)

    monkeypatch.setattr(rewrite, "equivalent_traces", counted)
    if case.startswith("fusion"):
        result = trace_classes(_fusion(), 5, case == "fusion-safe")
    else:
        make = {"B": _boolean, "X": _choices, "L": _runs}[case[0]]
        result = trace_classes(*_synthesised(make(int(case[1:]))))
    assert (count[0], len(result.classes)) == (calls, classes)
