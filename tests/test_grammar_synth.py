import random
from pathlib import Path

import pytest

from weavent import io as iomod
from weavent.es import EsError, EventStructure, classify
from weavent.domains import algebraicity
from weavent.duality import dom_of_es, ev_of_domain
from weavent.fixtures import e_five, e_prime_conflict, e_run, e_three_independent, \
    running_grammar
from weavent.graphs import GraphMorphism, TypedGraph
from weavent.oracles import es_isomorphic, poset_isomorphic
from weavent import rewrite
from weavent.rewrite import Grammar, Rule, _pmin, _tuple_label, once_per_rule_depth, \
    trace_domain
from tests._gen import family_es, growing_grammar, random_connected_es

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def grammar_from_es(es: EventStructure) -> Grammar:
    """``rewrite.grammar_from_es``, and its output validated: the package
    does not validate a grammar it has built, so every test here does."""
    grammar = rewrite.grammar_from_es(es)
    grammar.validate()
    return grammar


def grammar_from_es_node_by_node(es: EventStructure) -> Grammar:
    """``grammar_from_es`` as it was before one helper built every carrier,
    kept verbatim as the reference: the start graph and each rule's ``L``
    are built node by node through parallel node, edge and type lists.

    Synthesise a grammar whose trace domain regenerates the structure.

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


def _written(synth, es: EventStructure) -> str:
    """The grammar file text ``synth`` gives for ``es``, or its EsError."""
    try:
        return iomod.dumps(iomod.grammar_to_json(synth(es)))
    except EsError as exc:
        return f"EsError: {exc}"


def _reference_inputs():
    for family in "BXLC":
        for n in range(1, 6):
            yield f"{family}{n}", family_es(family, n)
    for path in sorted(FIXTURES.glob("*.es.json")):
        yield path.name, iomod.load_structure(str(path), "es")
    rng = random.Random(7)
    for k in range(60):
        yield f"random-{k}", random_connected_es(rng)


class TestAgainstTheNodeByNodeBuild:
    def test_same_grammar_text(self):
        for name, es in _reference_inputs():
            assert _written(grammar_from_es, es) == _written(grammar_from_es_node_by_node, es), name

    @pytest.mark.parametrize("es", [
        EventStructure.with_consistency(["a", "b"], [["a", "b"]], [((), "a"), ((), "b")]),
        EventStructure.binary(["a", "b", "c"], [("a", "b")],
                              [((), "a"), ((), "b"), (("a", "b"), "c")]),
        e_prime_conflict(),
    ], ids=["consistency-kind", "not-live", "disconnected"])
    def test_same_error(self, es):
        text = _written(grammar_from_es, es)
        assert text.startswith("EsError: grammar synthesis needs a ")
        assert text == _written(grammar_from_es_node_by_node, es)


class TestConstruction:
    def test_run_shape(self):
        g = grammar_from_es(e_run())
        assert [r.name for r in g.rules] == ["a", "b", "c"]
        assert len(g.start.nodes) == 7
        assert sorted(g.start.nodes) == ["i_a", "i_b", "i_c", "l_(a,b)@c",
                                         "s_a", "s_b", "s_c"]
        # type graph: one carrier node and one start marker per event
        assert len(g.type_graph.nodes) == 6
        assert len(g.type_graph.edges) == 4

    def test_five_shape(self):
        g = grammar_from_es(e_five())
        assert len(g.rules) == 5
        assert len(g.start.nodes) == 13
        assert {"c_d#e", "l_(a,c)@d", "l_(b,c)@d"} <= set(g.start.nodes)

    def test_single_event(self):
        from weavent.es import EventStructure
        es = EventStructure.binary("e", enabling=[((), "e")])
        g = grammar_from_es(es)
        assert len(g.rules) == 1
        assert sorted(g.start.nodes) == ["i_e", "s_e"]

    def test_rules_are_consuming_and_left_linear(self):
        for es in (e_run(), e_five(), e_three_independent()):
            g = grammar_from_es(es)
            for rule in g.rules:
                assert rule.l.is_injective()
                assert not rule.l.is_surjective()

    def test_rejects_disconnected(self):
        with pytest.raises(EsError):
            grammar_from_es(e_prime_conflict())


class TestRoundTrip:
    def test_run(self):
        g = grammar_from_es(e_run())
        dom = trace_domain(g, depth=3)
        assert poset_isomorphic(dom, dom_of_es(e_run())) is not None
        assert es_isomorphic(ev_of_domain(dom), e_run()) is not None

    def test_five(self):
        es = e_five()
        dom = trace_domain(grammar_from_es(es), depth=5)
        assert poset_isomorphic(dom, dom_of_es(es)) is not None
        assert es_isomorphic(ev_of_domain(dom), es) is not None

    def test_random_connected(self):
        rng = random.Random(101)
        for _ in range(6):
            es = random_connected_es(rng)
            dom = trace_domain(grammar_from_es(es), depth=len(es.events))
            assert algebraicity(dom).weak_prime_algebraic
            assert es_isomorphic(ev_of_domain(dom), es) is not None

    def test_rules_fire_at_most_once(self):
        # the private marker of each rule is consumed and never re-created,
        # so depth |E| enumerates every derivation
        from weavent.rewrite import trace_classes
        g = grammar_from_es(e_run())
        res = trace_classes(g, depth=5)
        for cls in res.classes:
            names = cls.representative.rule_names()
            assert len(names) == len(set(names))
            assert len(names) <= 3


def once_per_rule_depth_per_rule(grammar: Grammar):
    """``once_per_rule_depth`` as it was before the start graph's node types
    were counted once, kept verbatim as the reference: it counts them again
    for every deleted type of every rule."""
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


def _depth_inputs():
    for family in "BXLC":
        for n in range(1, 6):
            yield f"{family}{n}", grammar_from_es(family_es(family, n))
    for path in sorted(FIXTURES.glob("*.grammar.json")):
        yield path.name, iomod.load_structure(str(path), "grammar")
    yield "running_grammar", running_grammar()
    yield "growing_grammar", growing_grammar()
    # two rules deleting the one node of a type: each still applies at most once
    g = grammar_from_es(e_run())
    yield "shared-type", Grammar(g.type_graph, g.start, g.rules + g.rules[:1])


def test_once_per_rule_depth_counts_the_start_types_once():
    depths = {}
    for name, grammar in _depth_inputs():
        depths[name] = once_per_rule_depth(grammar)
        assert depths[name] == once_per_rule_depth_per_rule(grammar), name
    assert depths["C5"] == 5 and depths["shared-type"] == 4
    assert None in depths.values()
