"""``trace_classes`` against its exhaustive reference.

``trace_classes`` extends only class representatives;
``trace_classes_by_definition`` builds every interleaving and quotients it
pairwise.  They must agree on the class ids and their order, on the prefix
order, and on each representative, step by step.

The steps ``trace_classes`` leans on have references of their own: the
process key each derivation reads off the colimit classes it glues onto its
parent's equals the key recomputed from ``colimit_by_definition``'s
injections, its union-find holds one integer per class opened, and the
process keys of two derivations, whether or not they repeat a rule, are
equal exactly when ``equivalent_traces`` relates them.  Each step it builds
equals the step ``apply_rule_by_definition`` builds whole, and the matches
each host keeps, carried from its parent's, equal ``find_matches``'.

``trace_classes`` decides each extension's class from the match before it
builds the step: the gluing and fusion checks on the match agree with
``apply_rule`` and ``is_fusion_safe``, and the key read off the parent's
colimit and the match equals the key of the step built in full.  The
enumeration that built every examined step is kept as
``reference_trace_classes``; classes, covers and members must agree with
it, and a step is built only for a class opened, or on the first read of
``members``.
"""

import copy
import gc
import random
import weakref
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

from weavent import graphs, oracles, rewrite
from weavent._common import UnionFind
from weavent.es import EventStructure, classify
from weavent.graphs import (GraphMorphism, TypedGraph, _drop_indexes, _morphism, find_matches,
                            iso_hash)
from weavent.io import load_structure
from weavent.oracles import (apply_rule_by_definition, colimit_by_definition,
                             trace_classes_by_definition)
from weavent.rewrite import (DEFAULT_CEILING, Derivation, TraceLimitError, _matches,
                             _trace_result, apply_rule, grammar_from_es, is_fusion_safe,
                             once_per_rule_depth, trace_classes)
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


# grow fires again and again, so most of these derivations repeat a rule
@pytest.mark.parametrize("fusion_safe", [False, True])
@pytest.mark.parametrize("depth", [2, 3])
def test_growing_grammar(depth, fusion_safe):
    assert_agree(growing_grammar(), depth, fusion_safe)


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
# The colimits that trace_classes builds, and the fingerprint of their targets
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


# The name is that of the compact key this checked against iso_hash before
# the key was deleted; it is kept so that the ids of the cases stay stable.
@pytest.mark.parametrize("kind,arg", CASES)
def test_iso_key_partitions_like_iso_hash(kind, arg):
    rng = random.Random(f"{kind}:{arg}")
    for deriv in _case(kind, arg):
        assert iso_hash(_renamed(deriv.target, rng)) == iso_hash(deriv.target)


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
    """Count the calls to ``equivalent_traces``."""
    count = [0]
    check = oracles.equivalent_traces

    def counted(psi1, psi2):
        count[0] += 1
        return check(psi1, psi2)

    monkeypatch.setattr(oracles, "equivalent_traces", counted)
    return count


def _pinned_case(case):
    """``trace_classes`` on a case of the pinned work counts: the fusion
    grammar at depth 5, the growing grammar at depth 3 (either in
    fusion-safe mode when the name ends in "-safe"), or a synthesised
    family member at its exhaustive depth."""
    if case.startswith("fusion"):
        return trace_classes(_fusion(), 5, case == "fusion-safe")
    if case.startswith("growing"):
        return trace_classes(growing_grammar(), 3, case == "growing-safe")
    make = {"B": _boolean, "X": _choices, "L": _runs}[case[0]]
    return trace_classes(*_synthesised(make(int(case[1:]))))


# The process key decides every derivation, those of the growing grammar
# that repeat "grow" too, so trace_classes makes no equivalence check.
@pytest.mark.parametrize("case,calls,classes", [
    ("fusion", 0, 7), ("fusion-safe", 0, 5), ("B4", 0, 16), ("X3", 0, 27),
    ("L2", 0, 49), ("growing", 0, 101), ("growing-safe", 0, 66)])
def test_equivalence_check_counts_pinned(monkeypatch, case, calls, classes):
    count = _count_checks(monkeypatch)
    result = _pinned_case(case)
    assert (count[0], len(result.classes)) == (calls, classes)


# ---------------------------------------------------------------------- #
# The process key against equivalent_traces
# ---------------------------------------------------------------------- #

KEY_CASES = ([("fusion", safe) for safe in (False, True)]
             + [("growing", safe) for safe in (False, True)]
             + [("fixture", name) for name in _live_connected_fixtures()]
             + [("random", seed) for seed in range(24)]
             + [("family", name) for name in ("B4", "X3", "L2")])


def _key_case(kind, arg):
    """The grammar, depth and mode of a case of ``KEY_CASES``."""
    if kind in ("fusion", "growing"):
        return (_fusion(), 5, arg) if kind == "fusion" else (growing_grammar(), 3, arg)
    if kind == "fixture":
        es = load_structure(str(FIXTURES / arg), "es")
    elif kind == "random":
        es = random_connected_es(random.Random(arg))
    else:
        es = {"B": _boolean, "X": _choices, "L": _runs}[arg[0]](int(arg[1:]))
    return (*_synthesised(es), False)


def _pool(kind, arg):
    """Every derivation ``trace_classes_by_definition`` builds."""
    result = trace_classes_by_definition(*_key_case(kind, arg))
    return [d for c in result.classes for d in c.members]


@pytest.mark.parametrize("kind,arg", KEY_CASES)
def test_process_key_decides_equivalence(kind, arg):
    # Among derivations of one length, keys are equal exactly when
    # equivalent_traces finds a permutation.  Every pair with different keys
    # is checked; a pair with equal keys is checked through the first
    # derivation with that key, since both relations are equivalences (on
    # L2, one pair per derivation, 877, instead of all 61,662 pairs with
    # equal keys).
    pool = _pool(kind, arg)
    keys = [d.colimit().key() for d in pool]
    first = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
        assert oracles.equivalent_traces(pool[first[key]], pool[k]) is not None
        assert oracles.equivalent_traces(pool[k], pool[first[key]]) is not None
    for k1, d1 in enumerate(pool):
        for k2 in range(k1 + 1, len(pool)):
            d2 = pool[k2]
            if len(d1) == len(d2) and keys[k1] != keys[k2]:
                assert oracles.equivalent_traces(d1, d2) is None
                assert oracles.equivalent_traces(d2, d1) is None


def _key_by_definition(deriv):
    """``Colimit.key`` recomputed from ``colimit_by_definition``'s injections:
    the same labels listed in the same orders, classes numbered by first
    occurrence, and the least over every order of each rule's steps."""
    _, node_in, edge_in = colimit_by_definition(deriv)
    runs = {}  # rule name -> its steps
    for i in sorted(range(len(deriv)), key=lambda i: deriv.steps[i].rule.name):
        runs.setdefault(deriv.steps[i].rule.name, []).append(i)

    def numbered(order):
        key = []
        for items, into, image in ((lambda g: g.nodes, node_in, lambda m: m.node_map),
                                   (lambda g: g.edges, edge_in, lambda m: m.edge_map)):
            labels = [into[(0, x)] for x in sorted(items(deriv.source))]
            for i in order:
                st = deriv.steps[i]
                for stage, side, m in ((i, st.rule.L, st.match), (i + 1, st.rule.R, st.mR)):
                    labels += [into[(stage, image(m)[x])] for x in sorted(items(side))]
            num = {}
            key.append(tuple(num.setdefault(c, len(num)) for c in labels))
        return key

    best = min(numbered([i for run in order for i in run])
               for order in product(*map(permutations, runs.values())))
    return (tuple(sorted(deriv.rule_names())), *best)


def _assert_colimit_agrees(deriv):
    # the names come from colimit_by_definition on first use; the key is
    # read off the classes glued step by step
    graph, node_in, edge_in = colimit_by_definition(deriv)
    col = deriv.colimit()
    assert col.key() == _key_by_definition(deriv)
    assert col.graph.same(graph)
    stages = [deriv.source] + [st.H for st in deriv.steps]
    assert {(i, n): col.node_in(i, n)
            for i, g in enumerate(stages) for n in g.nodes} == node_in
    assert {(i, e): col.edge_in(i, e)
            for i, g in enumerate(stages) for e in g.edges} == edge_in


@pytest.mark.parametrize("kind,arg", KEY_CASES)
def test_incremental_colimit_matches_oracle(kind, arg):
    # each derivation of the pool, and so each of its prefixes, is built on
    # its parent; without a parent, the colimit is glued from stage 0 in one go
    for deriv in _pool(kind, arg):
        _assert_colimit_agrees(deriv)
        _assert_colimit_agrees(Derivation(deriv.source, deriv.steps))


def _classes_opened(deriv):
    """The start graph's items and, for each step, the items of ``H``
    outside the image of ``rstar``."""
    count = len(deriv.source.nodes) + len(deriv.source.edges)
    for st in deriv.steps:
        count += len(st.H.nodes - set(st.rstar.node_map.values()))
        count += len(st.H.edges - set(st.rstar.edge_map.values()))
    return count


@pytest.mark.parametrize("case", ["X3", "fusion"])
def test_colimit_union_find_holds_one_item_per_class_opened(case):
    # a colimit glues only a step's new classes, never the items of a stage;
    # the fusion grammar's steps merge classes too
    derivs = _reached(*_synthesised(_choices(3))) if case == "X3" else _reached(_fusion(), 5)
    assert case == "X3" or any(not st.rstar.is_injective() for d in derivs for st in d.steps)
    for deriv in derivs:
        for d in (deriv, Derivation(deriv.source, deriv.steps)):
            assert set(d.colimit()._uf.parent) == set(range(_classes_opened(d)))


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


# ---------------------------------------------------------------------- #
# The local step and the carried matches against their references
# ---------------------------------------------------------------------- #

def _maps(m):
    return m.node_map, m.edge_map


def assert_same_step(step, ref):
    """Two direct derivations agree: graphs by ``same``, and every map."""
    assert step.rule is ref.rule and step.G is ref.G
    assert step.D.same(ref.D) and step.H.same(ref.H)
    for a, b in ((step.match, ref.match), (step.mK, ref.mK), (step.mR, ref.mR),
                 (step.lstar, ref.lstar), (step.rstar, ref.rstar)):
        assert _maps(a) == _maps(b)


@pytest.mark.parametrize("kind,arg", KEY_CASES)
def test_local_step_and_carried_matches_match_oracle(kind, arg):
    # every host trace_classes extends: its carried matches are those
    # find_matches gives, in the same order, and apply_rule agrees with
    # apply_rule_by_definition at each of them, a failed gluing included;
    # every step trace_classes built agrees with the step built whole
    grammar, depth, fusion_safe = _key_case(kind, arg)
    result = trace_classes(grammar, depth, fusion_safe)
    rules = sorted(grammar.rules, key=lambda r: r.name)
    hosts = applied = 0
    for cls in result.classes:
        deriv = cls.representative
        if len(deriv) < depth:
            hosts += 1
            assert tuple(rule.L for rule in rules) in deriv.target._derived  # kept, not redone
            for rule, images in zip(rules, rewrite._matches(deriv, rules)):
                carried = [_morphism(rule.L, deriv.target, im) for im in images]
                assert [_maps(m) for m in carried] == \
                    [_maps(m) for m in find_matches(rule.L, deriv.target)]
                for m in carried:
                    step = rewrite.apply_rule(deriv.target, rule, m)
                    ref = apply_rule_by_definition(deriv.target, rule, m)
                    assert (step is None) == (ref is None)
                    if step is not None:
                        assert_same_step(step, ref)
                        applied += 1
        for member in cls.members:
            if member.steps:
                st = member.steps[-1]
                assert_same_step(st, apply_rule_by_definition(st.G, st.rule, st.match))
    assert hosts and (applied or depth == 0)


@pytest.mark.parametrize("case", ["X3", "fusion"])
def test_a_step_names_its_rule_and_collisions_only(monkeypatch, case):
    # each step calls _fresh at most once per item of R and once per host
    # item whose name an R item takes (directly or down a "~k" chain)
    calls, steps = [0], []
    fresh, step = graphs._fresh, rewrite._step

    def counted_fresh(base, used):
        calls[0] += 1
        return fresh(base, used)

    def counted_step(g, rule, m, deleted):
        before = calls[0]
        st = step(g, rule, m, deleted)
        steps.append((st, rule, calls[0] - before))
        return st

    monkeypatch.setattr(graphs, "_fresh", counted_fresh)
    monkeypatch.setattr(rewrite, "_step", counted_step)
    result = trace_classes(*_synthesised(_choices(3))) if case == "X3" \
        else trace_classes(_fusion(), 5)
    assert len(result.classes) == (27 if case == "X3" else 7)
    named = items = 0
    for st, rule, n in steps:
        if st is None:
            assert n == 0
            continue
        collisions = sum(y != z and y not in glued
                         for rstar, glued in ((st.rstar.node_map, set(st.mK.node_map.values())),
                                              (st.rstar.edge_map, set(st.mK.edge_map.values())))
                         for y, z in rstar.items())
        assert n <= len(rule.R.nodes) + len(rule.R.edges) + collisions
        named += n
        items += len(st.H.nodes) + len(st.H.edges)
    assert steps and named < items  # a step built whole calls it once per item of H


# ---------------------------------------------------------------------- #
# A class decided from the match, before its step is built
# ---------------------------------------------------------------------- #

def _examined(grammar, depth, fusion_safe):
    """Every ``(parent, rule, match)`` that ``trace_classes`` examines: each
    representative shorter than ``depth``, each rule in name order, and each
    match carried to the representative's target, in that order."""
    result = trace_classes(grammar, depth, fusion_safe)
    rules = sorted(grammar.rules, key=lambda r: r.name)
    for cls in result.classes:
        parent = cls.representative
        if len(parent) < depth:
            for rule, images in zip(rules, _matches(parent, rules)):
                for im in images:
                    yield parent, rule, _morphism(rule.L, parent.target, im)


@pytest.mark.parametrize("kind,arg", KEY_CASES)
def test_key_from_the_match_equals_the_key_of_the_step_built(kind, arg):
    # the gluing and fusion checks on the match reject exactly the steps
    # apply_rule and is_fusion_safe reject, and the key read off the
    # parent's colimit and the match is the key of the step built in full,
    # which is the key recomputed from colimit_by_definition
    grammar, depth, fusion_safe = _key_case(kind, arg)
    built = merged = 0
    for parent, rule, m in _examined(grammar, depth, fusion_safe):
        step = apply_rule(parent.target, rule, m)
        assert (rewrite._gluing(parent.target, rule, m) is None) == (step is None)
        if step is None:
            continue
        assert rewrite._jointly_mono(rule, m) == is_fusion_safe(step)
        child = parent.extend(step)
        assert parent.colimit().key(rule, m) == child.colimit().key() == _key_by_definition(child)
        built += 1
        merged += not rule.r.is_injective()
    assert built
    assert merged or kind not in ("fusion", "growing")


@pytest.mark.parametrize("kind,arg", KEY_CASES)
def test_key_from_the_match_leaves_the_colimit_untouched(kind, arg):
    # a key read off a parent's colimit and a match reads its union-find,
    # its classes, its pins and its cached rows, and changes none of them,
    # steps that merge classes included; the rows stay cached, the same object
    merging = 0
    for parent, rule, m in _examined(*_key_case(kind, arg)):
        col = parent.colimit()
        rows = col._rows()
        before = copy.deepcopy((col._uf.groups(), col._at, col._pins, rows))
        col.key(rule, m)
        assert col._rows() is rows
        assert (col._uf.groups(), col._at, col._pins, rows) == before
        merging += bool(rewrite._pin(col._uf, col._at, rule, m)[2])
    assert merging or kind not in ("fusion", "growing")


def test_work_of_trace_classes_on_synth_x3(monkeypatch):
    # synth-X3 reaches 27 classes from 54 candidate steps.  Each class's
    # colimit is built once, on a copy of its parent's union-find (26
    # copies: the start graph's colimit copies none), and key copies none;
    # each candidate's gluing is checked once, and no match is validated
    # (the grammar keeps the verdict of its check in the run above)
    grammar, depth = _synthesised(_choices(3))
    assert sum(1 for _ in _examined(grammar, depth, False)) == 54
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((UnionFind, "copy"), (rewrite.Colimit, "__init__"),
                        (rewrite, "_gluing"), (GraphMorphism, "validate")):
        count(owner, name)
    key = rewrite.Colimit.key

    def key_copying_nothing(self, *args):
        copies = calls["copy"]
        out = key(self, *args)
        assert calls["copy"] == copies
        calls["key"] += 1
        return out

    monkeypatch.setattr(rewrite.Colimit, "key", key_copying_nothing)
    assert len(trace_classes(grammar, depth).classes) == 27
    assert calls == {"copy": 26, "__init__": 27, "_gluing": 54, "key": 54}
    assert calls["validate"] == 0


# ---------------------------------------------------------------------- #
# The enumeration that built every examined step, kept verbatim as the
# reference of the one that decides a class before building its step.
# ---------------------------------------------------------------------- #

def reference_extensions(deriv, rules, fusion_safe):
    """One-step extensions of a derivation: rules in the given order, matches
    in ``find_matches`` order (``_matches``).  The host's matching index and
    incidence index serve these steps alone and are dropped after them, so
    the hosts of a trace tree keep only their matches."""
    host = deriv.target
    for rule, images in zip(rules, _matches(deriv, rules)):
        for im in images:
            step = apply_rule(host, rule, _morphism(rule.L, host, im))
            if step is None:
                continue
            if fusion_safe and not is_fusion_safe(step):
                continue
            yield deriv.extend(step)
    _drop_indexes(host)


def reference_trace_classes(grammar, depth, fusion_safe=False, ceiling=DEFAULT_CEILING):
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
    groups = []
    steps = []
    buckets = {}  # process key -> class

    def open_class(deriv):
        if len(groups) >= ceiling:
            raise TraceLimitError(
                f"more than {ceiling} trace classes by depth {len(deriv)} of {depth}")
        groups.append([deriv])
        return len(groups) - 1

    frontier = [open_class(Derivation(grammar.start))]
    for _ in range(depth):
        found = []
        for parent in frontier:
            for child in reference_extensions(groups[parent][0], rules, fusion_safe):
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


def _steps_of(deriv):
    return [(st.rule.name, st.match.node_map, st.match.edge_map) for st in deriv.steps]


@pytest.mark.parametrize("kind,arg", KEY_CASES)
def test_classes_and_members_match_the_reference(kind, arg):
    grammar, depth, fusion_safe = _key_case(kind, arg)
    fast = trace_classes(grammar, depth, fusion_safe)
    ref = reference_trace_classes(grammar, depth, fusion_safe)
    assert [c.element_id for c in fast.classes] == [c.element_id for c in ref.classes]
    assert fast.domain.covers() == ref.domain.covers()
    for f, r in zip(fast.classes, ref.classes):
        assert _steps_of(f.representative) == _steps_of(r.representative)
        members = f.members
        assert f.members is members and members[0] is f.representative
        assert [_steps_of(d) for d in members] == [_steps_of(d) for d in r.members]
        assert all(d.target.same(e.target) for d, e in zip(members, r.members))


def _count_steps(monkeypatch):
    """Count the steps built: the calls to ``rewrite._step``, which
    ``trace_classes`` calls for a class it opens and ``apply_rule`` for
    each member built on first read."""
    count = [0]
    step = rewrite._step

    def counted(g, rule, m, deleted):
        count[0] += 1
        return step(g, rule, m, deleted)

    monkeypatch.setattr(rewrite, "_step", counted)
    return count


# trace_classes builds a step only for a class it opens; the enumeration
# before it built one for every match it examined (32, 54, 126, 9, 8, 220
# and 187).  The other members are built on the first read of members,
# one step each, and kept.
@pytest.mark.parametrize("case,steps", [
    ("B4", 15), ("X3", 26), ("L2", 48), ("fusion", 6), ("fusion-safe", 4),
    ("growing", 100), ("growing-safe", 65)])
def test_a_step_is_built_once_per_class_opened(monkeypatch, case, steps):
    count = _count_steps(monkeypatch)
    result = _pinned_case(case)
    assert count[0] == steps == len(result.classes) - 1
    members = [c.members for c in result.classes]
    assert count[0] == steps + sum(len(m) - 1 for m in members)
    assert [c.members for c in result.classes] == members
    assert count[0] == steps + sum(len(m) - 1 for m in members)
