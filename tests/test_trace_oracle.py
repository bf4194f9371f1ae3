"""``trace_classes`` against its exhaustive reference.

``trace_classes`` extends only class representatives;
``trace_classes_by_definition`` builds every interleaving and quotients it
pairwise.  They must agree on the class ids and their order, on the prefix
order, and on each representative, step by step.

The steps ``trace_classes`` leans on have references of their own: the
colimit each derivation builds on its parent's equals
``colimit_by_definition``, the process key of a derivation that applies no
rule twice is equal exactly when ``equivalent_traces`` relates two of them,
and the ``iso_key`` buckets of the derivations that repeat a rule are the
``iso_hash`` buckets.
"""

import gc
import random
import weakref
from pathlib import Path

import pytest

from weavent import rewrite
from weavent.es import EventStructure, classify
from weavent.graphs import TypedGraph, iso_hash, iso_key
from weavent.io import load_structure
from weavent.rewrite import (Derivation, colimit_by_definition, grammar_from_es,
                             once_per_rule_depth, trace_classes,
                             trace_classes_by_definition)
from tests._gen import growing_grammar, random_connected_es

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


def _count_checks(monkeypatch):
    """Count the calls to ``equivalent_traces``: all of them, and those
    whose second derivation repeats a rule."""
    count = [0, 0]
    check = rewrite.equivalent_traces

    def counted(psi1, psi2):
        names = psi2.rule_names()
        count[0] += 1
        count[1] += len(set(names)) < len(names)
        return check(psi1, psi2)

    monkeypatch.setattr(rewrite, "equivalent_traces", counted)
    return count


@pytest.mark.parametrize("fusion_safe", [False, True])
@pytest.mark.parametrize("depth", [2, 3])
def test_repeated_rules_take_the_fallback(monkeypatch, depth, fusion_safe):
    calls = _count_checks(monkeypatch)
    trace_classes(growing_grammar(), depth, fusion_safe)
    assert calls[0] == calls[1] > 0  # only derivations that repeat a rule are checked
    assert_agree(growing_grammar(), depth, fusion_safe)


# No derivation of the first five cases applies a rule twice, so the process
# key decides them all without a check.  The growing grammar's counts were
# computed with every derivation bucketed by iso_key and checked by
# equivalent_traces, counting those that repeat "grow": the fallback's
# buckets, and so its checks, must not change.
@pytest.mark.parametrize("case,calls,classes", [
    ("fusion", 0, 7), ("fusion-safe", 0, 5), ("B4", 0, 16), ("X3", 0, 27),
    ("L2", 0, 49), ("growing", 1340, 101), ("growing-safe", 926, 66)])
def test_equivalence_check_counts_pinned(monkeypatch, case, calls, classes):
    count = _count_checks(monkeypatch)
    if case.startswith("fusion"):
        result = trace_classes(_fusion(), 5, case == "fusion-safe")
    elif case.startswith("growing"):
        result = trace_classes(growing_grammar(), 3, case == "growing-safe")
    else:
        make = {"B": _boolean, "X": _choices, "L": _runs}[case[0]]
        result = trace_classes(*_synthesised(make(int(case[1:]))))
    assert (count[0], len(result.classes)) == (calls, classes)


@pytest.mark.parametrize("case", ["fusion", "L2"])
def test_distinct_rule_names_skip_iso_key_and_checks(monkeypatch, case):
    for name in ("iso_key", "equivalent_traces"):
        monkeypatch.setattr(rewrite, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    if case == "fusion":
        assert len(trace_classes(_fusion(), 5).classes) == 7
    else:
        assert len(trace_classes(*_synthesised(_runs(2))).classes) == 49


# ---------------------------------------------------------------------- #
# The process key against equivalent_traces
# ---------------------------------------------------------------------- #

KEY_CASES = ([("fusion", safe) for safe in (False, True)]
             + [("growing", safe) for safe in (False, True)]
             + [("fixture", name) for name in _live_connected_fixtures()]
             + [("random", seed) for seed in range(24)]
             + [("family", name) for name in ("B4", "X3", "L2")])


def _pool(kind, arg):
    """Every derivation ``trace_classes_by_definition`` builds."""
    if kind in ("fusion", "growing"):
        grammar, depth, fusion_safe = (_fusion(), 5, arg) if kind == "fusion" \
            else (growing_grammar(), 3, arg)
    else:
        if kind == "fixture":
            es = load_structure(str(FIXTURES / arg), "es")
        elif kind == "random":
            es = random_connected_es(random.Random(arg))
        else:
            es = {"B": _boolean, "X": _choices, "L": _runs}[arg[0]](int(arg[1:]))
        (grammar, depth), fusion_safe = _synthesised(es), False
    result = trace_classes_by_definition(grammar, depth, fusion_safe)
    return [d for c in result.classes for d in c.members]


@pytest.mark.parametrize("kind,arg", KEY_CASES)
def test_process_key_decides_equivalence(kind, arg):
    # Among derivations of one length that apply no rule twice, keys are
    # equal exactly when equivalent_traces finds a permutation.  Every pair
    # with different keys is checked; a pair with equal keys is checked
    # through the first derivation with that key, since both relations are
    # equivalences (on L2, one pair per derivation, 877, instead of all
    # 61,662 pairs with equal keys).
    pool = [d for d in _pool(kind, arg) if len(set(d.rule_names())) == len(d)]
    keys = [d.colimit().key() for d in pool]
    first = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
        assert rewrite.equivalent_traces(pool[first[key]], pool[k]) is not None
        assert rewrite.equivalent_traces(pool[k], pool[first[key]]) is not None
    for k1, d1 in enumerate(pool):
        for k2 in range(k1 + 1, len(pool)):
            d2 = pool[k2]
            if len(d1) == len(d2) and keys[k1] != keys[k2]:
                assert rewrite.equivalent_traces(d1, d2) is None
                assert rewrite.equivalent_traces(d2, d1) is None


def test_process_key_tells_apart_what_the_rule_names_do_not():
    # grow on either parallel loop of x, and fuse of x with itself against
    # fuse of x with y: same rules, different classes
    pool = [d for d in _pool("growing", False) if len(d) == 1]
    names = [d.rule_names() for d in pool]
    assert len({d.colimit().key() for d in pool}) == 6 > len(set(names)) == 2


def test_colimit_holds_no_reference_to_its_derivation():
    grammar = _fusion()
    gc.disable()
    try:
        (deriv,) = [d for d in _reached(grammar, 2) if d.rule_names() == ("p_a", "p_b")]
        deriv = Derivation(deriv.source, deriv.steps)  # no parent, no colimit yet
        col = deriv.colimit()
        col.key()
        assert col.node_in(0, sorted(grammar.start.nodes)[0])
        ref = weakref.ref(deriv)
        del deriv
        assert ref() is None
    finally:
        gc.enable()
