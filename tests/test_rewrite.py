import hashlib
import random
from pathlib import Path

import pytest

from weavent import rewrite
from weavent._common import UnionFind
from weavent.domains import algebraicity, validate_domain
from weavent.duality import dom_of_es, ev_of_domain
from weavent.es import EventStructure
from weavent.fixtures import e_run, running_grammar
from weavent.graphs import (GraphError, GraphMorphism, TypedGraph, find_matches,
                            graph_isomorphism, iso_hash)
from weavent.io import load_structure
from weavent.oracles import (apply_rule_by_definition, equivalent_traces, es_isomorphic,
                             is_pushout, poset_isomorphic, pushout,
                             trace_classes_by_definition, verify_direct_derivation)
from weavent.rewrite import (Derivation, Grammar, Rule, TraceLimitError, apply_rule,
                             grammar_from_es, interchange, is_fusion_safe,
                             sequential_independence, trace_classes, trace_domain)
from tests._gen import growing_grammar

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def runs_es(k):
    """k disjoint copies of the running structure: c_i is enabled by a_i or b_i."""
    events, gens = [], []
    for i in range(k):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"
        events += [a, b, c]
        gens += [((), a), ((), b), ((a,), c), ((b,), c)]
    return EventStructure.binary(events, (), gens)


def boolean_es(n):
    events = [f"e{i}" for i in range(n)]
    return EventStructure.binary(events, (), [((), e) for e in events])


def two_node_graph():
    """Two nodes with a loop each, two parallel edges one way and one back."""
    return TypedGraph(["p", "q"], [("lp", "L", "p", "p"), ("lq", "L", "q", "q"),
                                   ("a1", "A", "p", "q"), ("a2", "A", "p", "q"),
                                   ("b1", "A", "q", "p")], {"p": "N", "q": "N"})


@pytest.fixture(scope="module")
def grammar():
    return running_grammar()


@pytest.fixture(scope="module")
def start(grammar):
    return grammar.start


def step(grammar, host, rule_name, which=0):
    rule = grammar.rule(rule_name)
    matches = find_matches(rule.L, host)
    st = apply_rule(host, rule, matches[which])
    assert st is not None
    return st


class TestGraphs:
    def test_match_counts_at_start(self, grammar, start):
        assert len(find_matches(grammar.rule("p_a").L, start)) == 1
        assert len(find_matches(grammar.rule("p_b").L, start)) == 1
        assert len(find_matches(grammar.rule("p_c").L, start)) == 0

    def test_no_match_in_empty_graph(self, grammar):
        empty = TypedGraph([], [])
        assert find_matches(grammar.rule("p_a").L, empty) == []

    def test_noninjective_match_appears_after_merge(self, grammar, start):
        st = step(grammar, start, "p_a")
        ms = find_matches(grammar.rule("p_b").L, st.H)
        assert len(ms) == 1
        assert not ms[0].is_injective()

    def test_iso_hash_invariance(self, grammar, start):
        h1 = step(grammar, start, "p_a").H
        relabel = TypedGraph(["z"], [(e, h1.edge_type[e], "z", "z") for e in h1.edges],
                             {"z": "n"})
        assert iso_hash(h1) == iso_hash(relabel)
        assert graph_isomorphism(h1, relabel) is not None

    def test_iso_hash_strings_pinned(self):
        # trace classes are bucketed by these strings: any change to them
        # moves buckets and equivalence-check counts
        def digest(g):
            return hashlib.sha256(iso_hash(g).encode()).hexdigest()

        fusion = load_structure(str(FIXTURES / "fusion.grammar.json"), "grammar")
        assert digest(fusion.start) == \
            "d2bd391adcde589201a156d4ee0ef0fc460be2f9b025504c5a1603e39d23bbcd"
        assert digest(grammar_from_es(runs_es(2)).start) == \
            "db397810ad230de7e10fd8e4b80fe3ea77e8999859003596c4e4091ed2356ee8"
        mixed = TypedGraph(["x", "y", "z"],
                           [("e1", "E", "x", "y"), ("e2", "E", "y", "z"), ("e3", "F", "z", "z"),
                            ("e4", "E", "x", "y"), ("e5", "F", "z", "x")],
                           {"x": "N", "y": "N", "z": "M"})
        assert digest(mixed) == \
            "b578bdade13c666cd9df9399a7cc16270f12f0b6bc845627bf402ac2be7d74b9"

    def test_first_matches_pinned(self):
        # computed with the recursive matcher this engine replaced
        def maps(rule, host):
            return [(m.node_map, m.edge_map) for m in find_matches(fusion.rule(rule).L, host)]

        fusion = load_structure(str(FIXTURES / "fusion.grammar.json"), "grammar")
        start = fusion.start
        assert maps("p_a", start) == [({"c": "c", "v": "v"},
                                       {"e_abar": "e_abar", "e_nubar": "e_nubar"})]
        assert maps("p_b", start) == [({"c": "c", "v": "v"},
                                       {"e_bbar": "e_bbar", "e_nubar": "e_nubar"})]
        assert maps("p_c", start) == []
        after_a = apply_rule(start, fusion.rule("p_a"), find_matches(fusion.rule("p_a").L, start)[0]).H
        assert maps("p_a", after_a) == []
        assert maps("p_b", after_a) == [({"c": "c+v", "v": "c+v"},
                                         {"e_bbar": "e_bbar", "e_nubar": "e_nubar"})]
        assert maps("p_c", after_a) == [({"cv": "c+v"}, {"e_in": "e_in", "e_nubar": "e_nubar"})]
        after_b = apply_rule(start, fusion.rule("p_b"), find_matches(fusion.rule("p_b").L, start)[0]).H
        assert maps("p_a", after_b) == [({"c": "c+v", "v": "c+v"},
                                         {"e_abar": "e_abar", "e_nubar": "e_nubar"})]
        assert maps("p_b", after_b) == []
        assert maps("p_c", after_b) == [({"cv": "c+v"}, {"e_in": "e_in", "e_nubar": "e_nubar"})]

    def test_isomorphisms_pinned(self, start):
        # computed with the recursive matcher this engine replaced
        def maps(m):
            return m.node_map, m.edge_map

        renamed = TypedGraph(["k", "a"],
                             [("f3", "abar", "k", "k"), ("f2", "bbar", "k", "k"),
                              ("f1", "in", "k", "k"), ("f0", "nubar", "a", "a")],
                             {"k": "n", "a": "n"})
        assert maps(graph_isomorphism(start, renamed)) == (
            {"c": "k", "v": "a"},
            {"e_abar": "f3", "e_bbar": "f2", "e_in": "f1", "e_nubar": "f0"})
        sym = two_node_graph()
        sym2 = TypedGraph(["u", "w"], [("m1", "L", "w", "w"), ("m2", "L", "u", "u"),
                                       ("z", "A", "w", "u"), ("y", "A", "w", "u"),
                                       ("x", "A", "u", "w")], {"u": "N", "w": "N"})
        assert maps(graph_isomorphism(sym, sym2)) == (
            {"p": "w", "q": "u"}, {"a1": "y", "a2": "z", "b1": "x", "lp": "m1", "lq": "m2"})
        assert maps(graph_isomorphism(sym, sym)) == (
            {"p": "p", "q": "q"}, {e: e for e in sym.edges})
        discrete = TypedGraph(["a", "b"], [], {"a": "N", "b": "N"})
        assert maps(graph_isomorphism(discrete, TypedGraph(["y", "x"], [], {"x": "N", "y": "N"}))) \
            == ({"a": "x", "b": "y"}, {})

    def test_match_order_pinned(self):
        # nodes first, then edges, each in sorted order; computed with the
        # recursive matcher this engine replaced
        pattern = TypedGraph(["u", "w"], [("f1", "A", "u", "w"), ("f2", "A", "u", "w")],
                             {"u": "N", "w": "N"})
        pq, qp = {"u": "p", "w": "q"}, {"u": "q", "w": "p"}
        assert [(m.node_map, m.edge_map) for m in find_matches(pattern, two_node_graph())] == [
            (pq, {"f1": "a1", "f2": "a1"}), (pq, {"f1": "a1", "f2": "a2"}),
            (pq, {"f1": "a2", "f2": "a1"}), (pq, {"f1": "a2", "f2": "a2"}),
            (qp, {"f1": "b1", "f2": "b1"})]

    def test_node_and_edge_may_share_an_id(self):
        g = TypedGraph(["a", "b"], [("a", "E", "a", "b")], {"a": "N", "b": "N"})
        h = TypedGraph(["x", "y"], [("x", "E", "x", "y")], {"x": "N", "y": "N"})
        assert graph_isomorphism(g, h) is not None
        assert graph_isomorphism(g, g) is not None

    def test_large_discrete_pattern(self):
        pattern = TypedGraph([f"n{k}" for k in range(1500)], [],
                             {f"n{k}": "N" for k in range(1500)})
        host = TypedGraph(["x"], [], {"x": "N"})
        (m,) = find_matches(pattern, host)
        assert set(m.node_map.values()) == {"x"} and len(m.node_map) == 1500

    def test_morphism_validation(self, grammar, start):
        bad = GraphMorphism(grammar.rule("p_a").L, start,
                            {"c": "c", "v": "c"}, {"e_abar": "e_abar",
                                                   "e_nubar": "e_nubar"})
        with pytest.raises(GraphError):
            bad.validate()


class TestApplyRule:
    def test_running_first_step(self, grammar, start):
        st = step(grammar, start, "p_a")
        assert len(st.H.nodes) == 1
        assert sorted(st.H.edge_type[e] for e in st.H.edges) == ["bbar", "in", "nubar"]

    def test_second_step_reaches_gab(self, grammar, start):
        st2 = step(grammar, step(grammar, start, "p_a").H, "p_b")
        assert sorted(st2.H.edge_type[e] for e in st2.H.edges) == ["in", "nubar"]

    def test_dangling_returns_none(self):
        # deleting a node with an untouched incident edge
        tg = TypedGraph(["N"], [("E", "E", "N", "N")])
        host = TypedGraph(["x", "y"], [("e1", "E", "x", "y")], {"x": "N", "y": "N"})
        lg = TypedGraph(["u"], [], {"u": "N"})
        kg = TypedGraph([], [], {})
        rule = Rule("del", lg, kg, kg,
                    GraphMorphism(kg, lg, {}, {}), GraphMorphism(kg, kg, {}, {}))
        m = GraphMorphism(lg, host, {"u": "x"}, {})
        assert apply_rule(host, rule, m) is None

    def test_identification_of_deleted_items_returns_none(self):
        tg = TypedGraph(["N"], [])
        host = TypedGraph(["x"], [], {"x": "N"})
        lg = TypedGraph(["u", "w"], [], {"u": "N", "w": "N"})
        kg = TypedGraph([], [], {})
        rule = Rule("del2", lg, kg, kg,
                    GraphMorphism(kg, lg, {}, {}), GraphMorphism(kg, kg, {}, {}))
        m = GraphMorphism(lg, host, {"u": "x", "w": "x"}, {})
        assert apply_rule(host, rule, m) is None

    def test_created_name_takes_a_chain_of_names(self):
        # R creates x; the host's unglued x and x~2 are renamed in turn, as
        # the pushout built whole names them
        host = TypedGraph(["p", "x", "x~2"], [("e", "E", "p", "p")],
                          dict.fromkeys(["p", "x", "x~2"], "N"))
        lg = TypedGraph(["a"], [("d", "E", "a", "a")], {"a": "N"})
        kg = TypedGraph(["a"], [], {"a": "N"})
        rg = TypedGraph(["a", "x"], [], {"a": "N", "x": "N"})
        rule = Rule("make_x", lg, kg, rg, GraphMorphism(kg, lg, {"a": "a"}, {}),
                    GraphMorphism(kg, rg, {"a": "a"}, {}))
        m = GraphMorphism(lg, host, {"a": "p"}, {"d": "e"})
        st = apply_rule(host, rule, m)
        assert sorted(st.H.nodes) == ["p", "x", "x~2", "x~2~2"]
        assert st.mR.node_map == {"a": "p", "x": "x"}
        assert st.rstar.node_map == {"p": "p", "x": "x~2", "x~2": "x~2~2"}
        ref = apply_rule_by_definition(host, rule, m)
        assert st.H.same(ref.H) and st.D.same(ref.D)
        assert (st.mR.node_map, st.rstar.node_map) == (ref.mR.node_map, ref.rstar.node_map)

    def test_pushout_verifier_on_constructed_steps(self, grammar):
        for enumerate_classes in (trace_classes, trace_classes_by_definition):
            seen = 0
            for cls in enumerate_classes(grammar, 3).classes:
                for deriv in cls.members:
                    for st in deriv.steps:
                        assert verify_direct_derivation(st)
                        seen += 1
            assert seen > 10

    def test_is_pushout_rejects_extra_identification(self):
        empty = TypedGraph([], [], {})
        a = TypedGraph(["x"], [], {"x": "N"})
        b = TypedGraph(["y"], [], {"y": "N"})
        p_wrong = TypedGraph(["z"], [], {"z": "N"})
        f = GraphMorphism(empty, a, {}, {})
        g = GraphMorphism(empty, b, {}, {})
        pa = GraphMorphism(a, p_wrong, {"x": "z"}, {})
        pb = GraphMorphism(b, p_wrong, {"y": "z"}, {})
        assert not is_pushout(f, g, pa, pb)
        canon, in_a, in_b = pushout(f, g)
        assert is_pushout(f, g, in_a, in_b)
        assert len(canon.nodes) == 2


class TestFusionSafety:
    def test_first_step_safe(self, grammar, start):
        assert is_fusion_safe(step(grammar, start, "p_a"))

    def test_merged_rematch_unsafe(self, grammar, start):
        st2 = step(grammar, step(grammar, start, "p_a").H, "p_b")
        assert not is_fusion_safe(st2)

    def test_right_linear_always_safe(self, grammar, start):
        ga = step(grammar, start, "p_a").H
        st = step(grammar, ga, "p_c")
        assert st.rule.r.is_injective()
        assert is_fusion_safe(st)


class TestIndependence:
    def test_pa_pb_independent(self, grammar, start):
        d1 = step(grammar, start, "p_a")
        d2 = step(grammar, d1.H, "p_b")
        assert sequential_independence(d1, d2) is not None

    def test_pa_pc_dependent(self, grammar, start):
        d1 = step(grammar, start, "p_a")
        d2 = step(grammar, d1.H, "p_c")
        assert sequential_independence(d1, d2) is None

    def test_disjoint_steps_independent(self):
        tg = TypedGraph(["N"], [("E", "E", "N", "N")])
        host = TypedGraph(["x", "y"],
                          [("ex", "E", "x", "x"), ("ey", "E", "y", "y")],
                          {"x": "N", "y": "N"})
        lg = TypedGraph(["u"], [("eu", "E", "u", "u")], {"u": "N"})
        kg = TypedGraph(["u"], [], {"u": "N"})
        rule = Rule("drop", lg, kg, kg,
                    GraphMorphism(kg, lg, {"u": "u"}, {}),
                    GraphMorphism(kg, kg, {"u": "u"}, {}))
        d1 = apply_rule(host, rule, GraphMorphism(lg, host, {"u": "x"}, {"eu": "ex"}))
        m2 = GraphMorphism(lg, d1.H, {"u": "y"}, {"eu": "ey"})
        d2 = apply_rule(d1.H, rule, m2)
        assert sequential_independence(d1, d2) is not None


class TestInterchange:
    def test_swaps_pa_pb(self, grammar, start):
        d1 = step(grammar, start, "p_a")
        d2 = step(grammar, d1.H, "p_b")
        pair = sequential_independence(d1, d2)
        d2n, d1n = interchange(d1, d2, pair)
        assert (d2n.rule.name, d1n.rule.name) == ("p_b", "p_a")
        assert graph_isomorphism(d1n.H, d2.H) is not None
        psi1 = Derivation(start).extend(d1).extend(d2)
        psi2 = Derivation(start).extend(d2n).extend(d1n)
        assert equivalent_traces(psi1, psi2) == (1, 0)

    def test_double_interchange_equivalent(self, grammar, start):
        d1 = step(grammar, start, "p_a")
        d2 = step(grammar, d1.H, "p_b")
        pair = sequential_independence(d1, d2)
        d2n, d1n = interchange(d1, d2, pair)
        pair2 = sequential_independence(d2n, d1n)
        assert pair2 is not None
        e1, e2 = interchange(d2n, d1n, pair2)
        psi0 = Derivation(start).extend(d1).extend(d2)
        psi2 = Derivation(start).extend(e1).extend(e2)
        assert equivalent_traces(psi0, psi2) is not None

    def test_preserves_fusion_safety(self):
        # two disjoint loop-dropping steps: both safe, independent, and the
        # interchanged pair is safe again
        tg = TypedGraph(["N"], [("E", "E", "N", "N")])
        host = TypedGraph(["x", "y"],
                          [("ex", "E", "x", "x"), ("ey", "E", "y", "y")],
                          {"x": "N", "y": "N"})
        lg = TypedGraph(["u"], [("eu", "E", "u", "u")], {"u": "N"})
        kg = TypedGraph(["u"], [], {"u": "N"})
        rule = Rule("drop", lg, kg, kg,
                    GraphMorphism(kg, lg, {"u": "u"}, {}),
                    GraphMorphism(kg, kg, {"u": "u"}, {}))
        d1 = apply_rule(host, rule, GraphMorphism(lg, host, {"u": "x"}, {"eu": "ex"}))
        d2 = apply_rule(d1.H, rule,
                        GraphMorphism(lg, d1.H, {"u": "y"}, {"eu": "ey"}))
        assert is_fusion_safe(d1) and is_fusion_safe(d2)
        pair = sequential_independence(d1, d2)
        d2n, d1n = interchange(d1, d2, pair)
        assert is_fusion_safe(d2n) and is_fusion_safe(d1n)
        assert graph_isomorphism(d1n.H, d2.H) is not None
        assert sequential_independence(d2n, d1n) is not None


class TestEquivalentTraces:
    def test_identity(self, grammar, start):
        d1 = step(grammar, start, "p_a")
        psi = Derivation(start).extend(d1)
        assert equivalent_traces(psi, psi) == (0,)

    def test_different_rules_not_equivalent(self, grammar, start):
        da = step(grammar, start, "p_a")
        dc = step(grammar, da.H, "p_c")
        db = step(grammar, start, "p_b")
        dc2 = step(grammar, db.H, "p_c")
        psi1 = Derivation(start).extend(da).extend(dc)
        psi2 = Derivation(start).extend(db).extend(dc2)
        assert equivalent_traces(psi1, psi2) is None

    def test_repeated_rule_first_permutation_pinned(self):
        # one rule dropping one of three loops: every slot has three
        # candidates; values computed with the recursive search it replaced
        host = TypedGraph(["x"], [("e1", "E", "x", "x"), ("e2", "E", "x", "x"),
                                  ("e3", "E", "x", "x")], {"x": "N"})
        lg = TypedGraph(["u"], [("eu", "E", "u", "u")], {"u": "N"})
        kg = TypedGraph(["u"], [], {"u": "N"})
        drop = Rule("drop", lg, kg, kg, GraphMorphism(kg, lg, {"u": "u"}, {}),
                    GraphMorphism(kg, kg, {"u": "u"}, {}))

        def dropping(*loops):
            d = Derivation(host)
            for e in loops:
                (m,) = [m for m in find_matches(lg, d.target) if m.edge_map["eu"] == e]
                d = d.extend(apply_rule(d.target, drop, m))
            return d

        assert equivalent_traces(dropping("e1", "e2", "e3"), dropping("e3", "e1", "e2")) == (1, 2, 0)
        assert equivalent_traces(dropping("e1", "e2", "e3"), dropping("e1", "e2", "e3")) == (0, 1, 2)
        assert equivalent_traces(dropping("e2", "e3", "e1"), dropping("e1", "e3", "e2")) == (2, 1, 0)

    def test_a_pinned_map_that_merges_classes_is_no_isomorphism(self):
        # fuse of x with itself leaves three colimit nodes and fuse of x with
        # y two: pinning the first onto the second is onto but not one-to-one
        grammar = growing_grammar()
        fuse = grammar.rule("fuse")
        xx, xy = [Derivation(grammar.start).extend(apply_rule(grammar.start, fuse, m))
                  for m in find_matches(fuse.L, grammar.start)
                  if (m.node_map["u"], m.node_map["v"]) in (("x", "x"), ("x", "y"))]
        assert (len(xx.colimit().graph.nodes), len(xy.colimit().graph.nodes)) == (3, 2)
        assert equivalent_traces(xx, xy) is None
        assert equivalent_traces(xy, xx) is None

    def test_source_mismatch_rejected(self, grammar, start):
        other = TypedGraph(["c", "v"],
                           [("e_abar", "abar", "c", "c"),
                            ("e_nubar", "nubar", "v", "v")],
                           {"c": "n", "v": "n"})
        with pytest.raises(GraphError):
            equivalent_traces(Derivation(start), Derivation(other))


class TestTraceDomain:
    def test_running_depth3(self, grammar):
        dom = trace_domain(grammar, 3)
        assert len(dom.elements) == 7
        assert validate_domain(dom).ok
        assert poset_isomorphic(dom, dom_of_es(e_run())) is not None
        alg = algebraicity(dom)
        assert alg.weak_prime_algebraic and not alg.prime_algebraic

    def test_running_fusion_safe(self, grammar):
        dom = trace_domain(grammar, 3, fusion_safe=True)
        assert len(dom.elements) == 5
        assert algebraicity(dom).prime_algebraic

    def test_ev_recovers_run(self, grammar):
        dom = trace_domain(grammar, 3)
        assert es_isomorphic(ev_of_domain(dom), e_run()) is not None

    def test_depth_zero(self, grammar):
        dom = trace_domain(grammar, 0)
        assert len(dom.elements) == 1

    def test_no_applicable_rule(self, grammar):
        empty_start = TypedGraph([], [])
        g = Grammar(grammar.type_graph, empty_start, grammar.rules)
        assert len(trace_domain(g, 4).elements) == 1

    def test_class_ceiling(self, grammar):
        with pytest.raises(TraceLimitError):
            trace_domain(grammar, 3, ceiling=3)

    def test_class_ceiling_stops_growth(self, monkeypatch):
        # synth-B_7 has 128 classes; the ceiling must stop the growth at the
        # fourth class, not after the whole tree is built
        grammar = grammar_from_es(boolean_es(7))
        calls = []

        def counting_apply_rule(*args):
            calls.append(args)
            return apply_rule(*args)

        monkeypatch.setattr(rewrite, "apply_rule", counting_apply_rule)
        with pytest.raises(TraceLimitError):
            trace_classes(grammar, 7, ceiling=3)
        assert 0 < len(calls) < 20

    def test_minimal_common_extension_length(self, grammar):
        # consistent classes join at the length predicted by the overlap of
        # their permutation into a common extension; this needs every
        # interleaving of the join class, which only the reference builds
        res = trace_classes_by_definition(grammar, 3)
        dom = res.domain
        by_id = {c.element_id: c for c in res.classes}
        for id1 in dom.elements:
            for id2 in dom.elements:
                if not dom.consistent((id1, id2)):
                    continue
                join = dom.join((id1, id2))
                a, b, j = by_id[id1], by_id[id2], by_id[join]
                phi = next(d for d in j.members
                           if equivalent_traces(d.prefix(len(a.representative.steps)),
                                                a.representative) is not None)
                phi2 = next(d for d in j.members
                            if equivalent_traces(d.prefix(len(b.representative.steps)),
                                                 b.representative) is not None)
                sigma = equivalent_traces(phi, phi2)
                assert sigma is not None
                la = len(a.representative.steps)
                lb = len(b.representative.steps)
                n = sum(1 for k in range(la, len(phi.steps)) if sigma[k] < lb)
                assert len(j.representative.steps) == la + n


class TestPinnedNames:
    # pushout and colimit items are named in the order of their union-find
    # roots, each the least member of its class; these names reach derive
    # reports, so any change to the root choice shows here first

    def test_pushout_names_on_merging_span(self):
        def graph(nodes, edges):
            return TypedGraph(nodes, [(e, "E", s, t) for e, s, t in edges],
                              dict.fromkeys(nodes, "N"))

        # A's z and its loop "bu+bv" stay unmerged and clash with the names
        # of merged classes; which side gets the "~2" depends on the roots
        c = graph(["c1", "c2", "c3"], [("k1", "c1", "c3"), ("k2", "c2", "c3")])
        a = graph(["x", "y", "w", "z"], [("ax", "x", "y"), ("aw", "w", "w"), ("bu+bv", "z", "z")])
        b = graph(["u", "v", "w", "z"], [("bu", "u", "z"), ("bv", "v", "z"), ("aw", "w", "w")])
        f = GraphMorphism(c, a, {"c1": "x", "c2": "x", "c3": "y"}, {"k1": "ax", "k2": "ax"})
        g = GraphMorphism(c, b, {"c1": "u", "c2": "v", "c3": "z"}, {"k1": "bu", "k2": "bv"})
        p, in_a, in_b = pushout(f, g)
        assert sorted(p.nodes) == ["u+v", "w", "w~2", "z", "z~2"]
        assert sorted((e, p.src[e], p.tgt[e]) for e in p.edges) == [
            ("aw", "w", "w"), ("aw~2", "w~2", "w~2"), ("bu+bv", "u+v", "z"),
            ("bu+bv~2", "z~2", "z~2")]
        assert in_a.node_map == {"x": "u+v", "y": "z", "w": "w", "z": "z~2"}
        assert in_a.edge_map == {"ax": "bu+bv", "aw": "aw", "bu+bv": "bu+bv~2"}
        assert in_b.node_map == {"u": "u+v", "v": "u+v", "w": "w~2", "z": "z"}
        assert in_b.edge_map == {"bu": "bu+bv", "bv": "bu+bv", "aw": "aw~2"}
        assert is_pushout(f, g, in_a, in_b)

    @staticmethod
    def _colimit(grammar, rule_names):
        d = Derivation(grammar.start)
        for name in rule_names:
            rule = grammar.rule(name)
            d = d.extend(apply_rule(d.target, rule, find_matches(rule.L, d.target)[0]))
        stages = [d.source] + [st.H for st in d.steps]
        return d.colimit(), stages

    def test_colimit_names_on_fusion_grammar(self):
        fusion = load_structure(str(FIXTURES / "fusion.grammar.json"), "grammar")
        col, stages = self._colimit(fusion, ["p_a", "p_b"])
        assert sorted(col.graph.nodes) == ["n0"]
        assert [{n: col.node_in(i, n) for n in g.nodes} for i, g in enumerate(stages)] == [
            {"c": "n0", "v": "n0"}, {"c+v": "n0"}, {"c+v": "n0"}]
        assert [{e: col.edge_in(i, e) for e in g.edges} for i, g in enumerate(stages)] == [
            {"e_abar": "e3", "e_bbar": "e0", "e_in": "e1", "e_nubar": "e2"},
            {"e_bbar": "e0", "e_in": "e1", "e_nubar": "e2"},
            {"e_in": "e1", "e_nubar": "e2"}]

    def test_colimit_names_on_synthesised_grammar(self):
        col, stages = self._colimit(grammar_from_es(runs_es(1)), ["a0", "c0"])
        assert sorted(col.graph.nodes) == ["n0", "n1", "n2", "n3", "n4", "n5"]
        assert [{n: col.node_in(i, n) for n in g.nodes} for i, g in enumerate(stages)] == [
            {"i_a0": "n5", "i_b0": "n0", "i_c0": "n1", "l_(a0,b0)@c0": "n2",
             "s_a0": "n3", "s_b0": "n4", "s_c0": "n2"},
            {"i_b0": "n0", "i_c0": "n1", "l_(a0,b0)@c0+s_c0": "n2", "s_a0": "n3", "s_b0": "n4"},
            {"i_b0": "n0", "l_(a0,b0)@c0+s_c0": "n2", "s_a0": "n3", "s_b0": "n4"}]


# ---------------------------------------------------------------------- #
# pushout against the whole-graph reference
# ---------------------------------------------------------------------- #

def _pushout_reference(f, g):
    """The pushout with every item of ``A`` and ``B`` in one union-find,
    tagged by side, each class named in the order of ``groups()``: the
    naming ``pushout`` keeps while it joins only the images of ``C``."""
    a, b = f.target, g.target
    ufn = UnionFind([("A", n) for n in a.nodes] + [("B", n) for n in b.nodes])
    ufe = UnionFind([("A", e) for e in a.edges] + [("B", e) for e in b.edges])
    for c in f.source.nodes:
        ufn.union(("A", f.node_map[c]), ("B", g.node_map[c]))
    for c in f.source.edges:
        ufe.union(("A", f.edge_map[c]), ("B", g.edge_map[c]))
    node_name, edge_name = {}, {}
    for uf, name_of in ((ufn, node_name), (ufe, edge_name)):
        used = set()
        for members in uf.groups():
            bs = sorted({x for tag, x in members if tag == "B"})
            name = rewrite._fresh("+".join(bs) if bs else min(x for tag, x in members), used)
            for m in members:
                name_of[m] = name
    side = {"A": a, "B": b}
    ntype = {name: side[tag].node_type[x] for (tag, x), name in node_name.items()}
    edges = {name: (name, side[tag].edge_type[x], node_name[(tag, side[tag].src[x])],
                    node_name[(tag, side[tag].tgt[x])])
             for (tag, x), name in edge_name.items()}
    p = TypedGraph(sorted(set(node_name.values())), sorted(edges.values()), ntype)
    in_a = GraphMorphism(a, p, {n: node_name[("A", n)] for n in a.nodes},
                         {e: edge_name[("A", e)] for e in a.edges})
    in_b = GraphMorphism(b, p, {n: node_name[("B", n)] for n in b.nodes},
                         {e: edge_name[("B", e)] for e in b.edges})
    return p, in_a, in_b


# item names that the "+"-joined names of glued items run into, so that
# "~k" suffixes occur
_SPAN_NAMES = ["u", "v", "w", "u+v", "v+w", "u+w", "u+v+w", "x"]


def _random_leg(rng, c):
    """A random graph over ``_SPAN_NAMES`` and a random, often
    non-injective, morphism from ``c`` into it: each edge of ``c`` goes to
    an edge between the images of its ends, an old one or a new one."""
    nodes = rng.sample(_SPAN_NAMES, rng.randint(1, len(_SPAN_NAMES)))
    node_map = {n: rng.choice(nodes) for n in sorted(c.nodes)}
    ends = {x: (rng.choice(nodes), rng.choice(nodes))  # edge -> (src, tgt)
            for x in rng.sample(_SPAN_NAMES, rng.randint(0, 3))}
    edge_map = {}
    for e in sorted(c.edges):
        want = (node_map[c.src[e]], node_map[c.tgt[e]])
        old = sorted(x for x, xy in ends.items() if xy == want)
        if old and rng.random() < 0.6:
            edge_map[e] = rng.choice(old)
            continue
        edge_map[e] = next(x for x in rng.sample(_SPAN_NAMES, len(_SPAN_NAMES)) + [e]
                           if x not in ends)
        ends[edge_map[e]] = want
    g = TypedGraph(nodes, [(x, "E", s, t) for x, (s, t) in ends.items()],
                   dict.fromkeys(nodes, "N"))
    return GraphMorphism(c, g, node_map, edge_map)


def _random_span(seed):
    """A seeded span ``A ←f− C −g→ B`` with one node and one edge type."""
    rng = random.Random(seed)
    c_nodes = [f"c{k}" for k in range(rng.randint(0, 4))]
    c_edges = [(f"k{k}", "E", rng.choice(c_nodes), rng.choice(c_nodes))
               for k in range(rng.randint(0, 3) if c_nodes else 0)]
    c = TypedGraph(c_nodes, c_edges, dict.fromkeys(c_nodes, "N"))
    return _random_leg(rng, c), _random_leg(rng, c)


@pytest.mark.parametrize("seed", range(200))
def test_pushout_names_match_whole_graph_reference(seed):
    f, g = _random_span(seed)
    f.validate()
    g.validate()
    p, in_a, in_b = pushout(f, g)
    ref, ref_a, ref_b = _pushout_reference(f, g)
    assert p.same(ref)
    assert (in_a.node_map, in_a.edge_map) == (ref_a.node_map, ref_a.edge_map)
    assert (in_b.node_map, in_b.edge_map) == (ref_b.node_map, ref_b.edge_map)
    assert is_pushout(f, g, in_a, in_b)


def test_random_spans_merge_and_rename():
    # the spans above glue items on either side and meet "~k" suffixes
    merging = renamed = 0
    for seed in range(200):
        f, g = _random_span(seed)
        p, _, _ = pushout(f, g)
        merging += not (f.is_injective() and g.is_injective())
        renamed += any("~" in x for x in p.nodes | p.edges)
    assert merging >= 50 and renamed >= 50


# ---------------------------------------------------------------------- #
# apply_rule against the step built whole, on random fusing rules
# ---------------------------------------------------------------------- #

# host names that the names R creates, and their "~k" renames, run into
_HOST_NAMES = _SPAN_NAMES + ["u~2", "u~3", "u~2~2", "x~2", "u+v~2", "w~2", "v~10"]


def _random_step(seed):
    """A seeded host, fusing rule and match: ``L`` is a copy of a few host
    items (so it matches), ``K`` drops some of them, and ``r`` is a random
    leg over the host's names, so ``R`` creates items the host has."""
    rng = random.Random(seed)
    nodes = rng.sample(_HOST_NAMES, rng.randint(2, len(_HOST_NAMES)))
    edges = [(x, "E", rng.choice(nodes), rng.choice(nodes))
             for x in rng.sample(_HOST_NAMES, rng.randint(1, 6))]
    host = TypedGraph(nodes, edges, dict.fromkeys(nodes, "N"))
    l_nodes = rng.sample(nodes, rng.randint(1, min(4, len(nodes))))
    l_edges = [e for e in edges if e[2] in l_nodes and e[3] in l_nodes]
    l_edges = rng.sample(l_edges, rng.randint(0, len(l_edges)))
    lg = TypedGraph([f"l{n}" for n in l_nodes],
                    [(f"l{x}", t, f"l{s}", f"l{u}") for x, t, s, u in l_edges],
                    {f"l{n}": "N" for n in l_nodes})
    k_nodes = sorted(lg.nodes)
    if rng.random() < 0.3:  # a deleted node; most of them dangle
        k_nodes.remove(rng.choice(k_nodes))
    k_edges = [e for e in sorted(lg.edges) if lg.src[e] in k_nodes and lg.tgt[e] in k_nodes
               and rng.random() < 0.6]
    if len(k_nodes) + len(k_edges) == len(lg.nodes) + len(lg.edges):  # consume something
        if k_edges:
            k_edges = k_edges[1:]
        else:
            k_nodes = k_nodes[1:]
    kg = lg.subgraph(k_nodes, k_edges)
    r = _random_leg(rng, kg)
    rule = Rule(f"rule{seed}", lg, kg, r.target,
                GraphMorphism(kg, lg, {n: n for n in kg.nodes}, {e: e for e in kg.edges}), r)
    rule.validate()
    return host, rule, rng.choice(find_matches(lg, host))


@pytest.mark.parametrize("seed", range(200))
def test_local_step_matches_step_built_whole(seed):
    host, rule, m = _random_step(seed)
    st, ref = apply_rule(host, rule, m), apply_rule_by_definition(host, rule, m)
    assert (st is None) == (ref is None)
    if st is not None:
        assert st.D.same(ref.D) and st.H.same(ref.H)
        for a, b in ((st.mK, ref.mK), (st.mR, ref.mR), (st.lstar, ref.lstar),
                     (st.rstar, ref.rstar)):
            assert (a.node_map, a.edge_map) == (b.node_map, b.edge_map)
        assert verify_direct_derivation(st)


def test_random_steps_fuse_and_rename_chains():
    # the draws above apply, merge items and rename host items, some of
    # them twice ("~k~j")
    applied = merging = renamed = chained = 0
    for seed in range(200):
        host, rule, m = _random_step(seed)
        st = apply_rule(host, rule, m)
        if st is None:
            continue
        applied += 1
        merging += not st.rstar.is_injective()
        changed = {z for y, z in list(st.rstar.node_map.items()) + list(st.rstar.edge_map.items())
                   if y != z and "~" in z}
        renamed += bool(changed)
        chained += any(z.count("~") > 1 for z in changed)
    assert applied >= 80 and merging >= 20 and renamed >= 70 and chained >= 30
