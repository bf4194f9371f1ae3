"""Acceptance suite: worked examples reproduced exactly, structural
theorems verified exhaustively at desk scale.

Each criterion is one test that prints a single PASS line when it holds
(pytest -s shows them); any assertion failure marks the criterion red.
"""

import random
import time
from itertools import combinations

import pytest

from weavent.es import classify
from weavent.domains import (algebraicity, interchange_classes, interchangeable,
                             irreducible_elements, primes, weak_primes)
from weavent.duality import (connect_es, dom_of_es, epes_dom, epes_ev, ev_of_domain, fuse,
                             unfold)
from weavent.fixtures import (chain, e_ccs, e_five, e_prime_conflict, e_run,
                              e_split, m3, nontransitive_poset, nontransitive_bdomain,
                              running_grammar)
from weavent.graphs import find_matches, graph_isomorphism
from weavent.intervals import ev_wd, zeta
from weavent.asyncgraphs import async_domain, hasse_as_async, validate_async_graph
from weavent.oracles import (epes_isomorphic, equivalent_traces, es_isomorphic,
                             interchangeable_by_definition, interchangeable_via_compacts,
                             poset_isomorphic, trace_classes_by_definition,
                             verify_direct_derivation, weak_primes_by_definition)
from weavent.rewrite import (Derivation, apply_rule, grammar_from_es, interchange,
                             is_fusion_safe, sequential_independence, trace_classes,
                             trace_domain)
from tests._gen import random_connected_es, random_live_es, random_weak_prime_domain


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def random_es_suite():
    rng = random.Random(20240)
    return [random_live_es(rng, max_events=5) for _ in range(100)]


@pytest.fixture(scope="module")
def random_domain_suite():
    rng = random.Random(20241)
    return [random_weak_prime_domain(rng, max_events=4, max_elements=12)
            for _ in range(100)]


def test_criterion_1_running_example():
    t0 = time.perf_counter()
    dom = dom_of_es(e_run())
    assert len(dom.elements) == 7
    expected = {
        "{}": [], "{a}": ["{}"], "{b}": ["{}"], "{a,b}": ["{a}", "{b}"],
        "{a,c}": ["{a}"], "{b,c}": ["{b}"],
        "{a,b,c}": ["{a,b}", "{a,c}", "{b,c}"]}
    for elem, lows in expected.items():
        assert sorted(dom.lower_covers(elem)) == sorted(lows)
    assert set(irreducible_elements(dom)) == {"{a}", "{b}", "{a,c}", "{b,c}"}
    assert set(primes(dom)) == {"{a}", "{b}"}
    assert set(weak_primes(dom)) == {"{a}", "{b}", "{a,c}", "{b,c}"}
    assert len(interchange_classes(dom)) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"running example domain, decompositions and classes ({elapsed:.3f}s)")


def test_criterion_2_grammar_pipeline():
    t0 = time.perf_counter()
    g = running_grammar()
    dom = trace_domain(g, depth=3)
    assert poset_isomorphic(dom, dom_of_es(e_run())) is not None
    assert es_isomorphic(ev_of_domain(dom), e_run()) is not None
    safe = trace_domain(g, depth=3, fusion_safe=True)
    assert len(safe.elements) == 5
    assert algebraicity(safe).prime_algebraic
    assert poset_isomorphic(safe, dom_of_es(e_prime_conflict())) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"trace domains of the running grammar, both modes ({elapsed:.3f}s)")


def test_criterion_3_coreflection_suite(random_es_suite):
    t0 = time.perf_counter()
    connected_count = 0
    for es in random_es_suite:
        out = connect_es(es)
        assert classify(out).connected
        assert poset_isomorphic(dom_of_es(out), dom_of_es(es)) is not None
        if classify(es).connected:
            connected_count += 1
            assert es_isomorphic(out, es) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"coreflection on 100 random structures "
              f"({connected_count} connected; {elapsed:.1f}s)")


def test_criterion_4_duality_suite(random_domain_suite):
    fixtures = [dom_of_es(e_run()), dom_of_es(e_ccs()),
                dom_of_es(e_split()), chain(1), chain(3), chain(5)]
    suite = fixtures + random_domain_suite
    for dom in suite:
        assert poset_isomorphic(dom_of_es(ev_of_domain(dom)), dom) is not None
        assert es_isomorphic(ev_wd(dom), ev_of_domain(dom)) is not None
        pairs = zeta(dom)  # raises unless a verified bijection
        assert len(pairs) == len(interchange_classes(dom))
    report(4, f"duality round trips and zeta on {len(suite)} domains")


def test_criterion_5_interchangeability_oracles(random_domain_suite):
    fixtures = [dom_of_es(e_run()), dom_of_es(e_ccs()), dom_of_es(e_split()),
                m3(), chain(3), nontransitive_poset(), nontransitive_bdomain()]
    suite = fixtures + random_domain_suite
    pairs_checked = 0
    for dom in suite:
        irr = irreducible_elements(dom)
        for i, j in combinations(irr, 2):
            expected = interchangeable_by_definition(dom, i, j)
            assert interchangeable(dom, i, j) == expected
            assert interchangeable_via_compacts(dom, i, j) == expected
            pairs_checked += 1
    small = [dom for dom in suite if len(dom.elements) <= 10]
    for dom in small:
        assert set(weak_primes(dom)) == set(weak_primes_by_definition(dom))
    report(5, f"three interchangeability routes agree on {pairs_checked} pairs; "
              f"weak-prime oracle agrees on {len(small)} small posets")


def test_criterion_6_counterexample_fixtures():
    ladder = nontransitive_poset()
    assert interchangeable(ladder, "i1", "i2")
    assert interchangeable(ladder, "i2", "i3")
    assert not interchangeable(ladder, "i1", "i3")
    bd = nontransitive_bdomain()
    assert algebraicity(bd).weak_prime_algebraic
    assert interchangeable(bd, "i1", "i2")
    assert interchangeable(bd, "i2", "i3")
    assert bd.consistent(("i1", "i3"))
    assert not interchangeable(bd, "i1", "i3")
    assert not algebraicity(m3()).weak_prime_algebraic
    report(6, "non-transitive ladder, bounded-complete witness, and the "
              "three-atom lattice behave as documented")


def test_criterion_7_grammar_synthesis():
    t0 = time.perf_counter()
    g_run = grammar_from_es(e_run())
    assert len(g_run.rules) == 3 and len(g_run.start.nodes) == 7
    dom = trace_domain(g_run, depth=3)
    assert es_isomorphic(ev_of_domain(dom), e_run()) is not None

    g_five = grammar_from_es(e_five())
    assert len(g_five.rules) == 5 and len(g_five.start.nodes) == 13
    dom5 = trace_domain(g_five, depth=5)
    assert es_isomorphic(ev_of_domain(dom5), e_five()) is not None

    rng = random.Random(20247)
    for _ in range(20):
        es = random_connected_es(rng, max_events=4)
        dom = trace_domain(grammar_from_es(es), depth=len(es.events))
        assert es_isomorphic(ev_of_domain(dom), es) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, f"grammar synthesis round trips (22 structures, {elapsed:.1f}s)")


def test_criterion_8_rewriting_engine():
    g = running_grammar()
    start = g.start
    pa, pb = g.rule("p_a"), g.rule("p_b")
    d1 = apply_rule(start, pa, find_matches(pa.L, start)[0])
    d2 = apply_rule(d1.H, pb, find_matches(pb.L, d1.H)[0])
    pair = sequential_independence(d1, d2)
    assert pair is not None
    d2n, d1n = interchange(d1, d2, pair)
    assert (d2n.rule.name, d1n.rule.name) == ("p_b", "p_a")
    assert graph_isomorphism(d1n.H, d2.H) is not None
    psi = Derivation(start).extend(d1).extend(d2)
    swapped = Derivation(start).extend(d2n).extend(d1n)
    assert equivalent_traces(psi, swapped) == (1, 0)

    checked = 0
    for enumerate_classes in (trace_classes, trace_classes_by_definition):
        for cls in enumerate_classes(g, 3).classes:
            for deriv in cls.members:
                for st in deriv.steps:
                    assert verify_direct_derivation(st)
                    checked += 1
    assert checked > 0

    assert is_fusion_safe(d1)
    assert not is_fusion_safe(d2)
    report(8, f"interchange permutation, {checked} verified pushout squares, "
              "fusion-safety verdicts")


def test_criterion_9_epes_suite():
    fixture_es = [e_run(), e_ccs(), e_split(), e_five()]
    for es in fixture_es:
        assert es_isomorphic(fuse(unfold(es)), es) is not None
    for p in [unfold(e_run()), unfold(e_ccs()), epes_ev(dom_of_es(e_run()))]:
        assert epes_isomorphic(unfold(fuse(p)), p) is not None
        assert algebraicity(epes_dom(p)).weak_prime_algebraic
    u = unfold(e_run())
    assert len(u.base.events) == 4
    assert sorted(len(b) for b in u.equiv) == [1, 1, 2]
    report(9, "EPES round trips, saturated-configuration domains, instance counts")


def test_criterion_10_async_graphs():
    ccs_dom = hasse_as_async(dom_of_es(e_ccs()))
    rep2 = validate_async_graph(ccs_dom)
    assert rep2.full_valid() and rep2.prime()
    run_dom = hasse_as_async(dom_of_es(e_run()))
    rep1 = validate_async_graph(run_dom)
    assert rep1.weak_valid() and rep1.weak_prime()
    assert not rep1.cube_down
    assert poset_isomorphic(async_domain(run_dom), dom_of_es(e_run())) is not None
    assert poset_isomorphic(async_domain(ccs_dom), dom_of_es(e_ccs())) is not None
    report(10, "asynchronous-graph validation and path-class round trips")
