import random
from itertools import combinations, product
from pathlib import Path

import pytest

from weavent import fixtures
from weavent.domains import BOUNDED_COMPLETE, COHERENT, OrderError, algebraicity, \
    interchange_classes
from weavent.duality import dom_of_es, es_isomorphic, ev_of_domain
from weavent.fixtures import (chain, e_ccs, e_prime_conflict, e_run, e_split,
                              e_five, m3, nontransitive_bdomain)
from weavent.intervals import check_axioms, ev_wd, interval_classes, interval_leq, zeta
from weavent.io import load_structure
from tests._gen import random_poset, random_weak_prime_domain

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def run_dom():
    return dom_of_es(e_run())


@pytest.fixture(scope="module")
def ccs_dom():
    return dom_of_es(e_ccs())


class TestIntervalClasses:
    def test_run_domain_nine_in_three(self, run_dom):
        assert len(run_dom.covers()) == 9
        assert len(interval_classes(run_dom)) == 3

    def test_ccs_domain_seven_in_three(self, ccs_dom):
        assert len(ccs_dom.covers()) == 7
        assert len(interval_classes(ccs_dom)) == 3

    def test_chain(self):
        dom = chain(4)
        assert len(dom.covers()) == 4
        assert len(interval_classes(dom)) == 4

    def test_leq_example(self, run_dom):
        assert interval_leq(run_dom, ("{}", "{b}"), ("{a,c}", "{a,b,c}"))
        assert not interval_leq(run_dom, ("{}", "{b}"), ("{b,c}", "{a,b,c}"))


class TestAxioms:
    def test_weak_prime_fixtures_pass_fcrv(self, run_dom, ccs_dom):
        rng = random.Random(103)
        doms = [run_dom, ccs_dom, dom_of_es(e_prime_conflict()), chain(3),
                dom_of_es(e_five())]
        doms += [random_weak_prime_domain(rng) for _ in range(10)]
        for dom in doms:
            rep = check_axioms(dom)
            assert rep.F and rep.C and rep.R and rep.V

    def test_m3_fails_r(self):
        rep = check_axioms(m3())
        # all six intervals collapse into one class, so distinct covers of
        # the bottom witness a failure of (R); (C) holds because the top
        # covers every atom
        assert rep.F and rep.C and not rep.R and rep.V

    def test_fcrv_iff_weak_prime_on_coherent_fixtures(self, run_dom, ccs_dom):
        doms = [run_dom, ccs_dom, m3(), chain(2), dom_of_es(e_prime_conflict())]
        for dom in doms:
            rep = check_axioms(dom)
            assert (rep.C and rep.R and rep.V) == algebraicity(dom).weak_prime_algebraic

    def test_related_pairs_are_ordered(self):
        # the lemma behind (I) holding by construction: p ≤ q forces both
        # members of p and of q to be ordered, on any poset
        doms = [load_structure(str(path), "domain")
                for path in sorted(FIXTURES.glob("*domain.json"))]
        doms += [m3(), chain(3), fixtures.pair_no_join(), fixtures.nontransitive_poset(),
                 fixtures.nontransitive_poset(with_top=False), nontransitive_bdomain()]
        doms += [dom_of_es(es()) for es in (e_run, e_ccs, e_prime_conflict, e_five)]
        rng = random.Random(113)
        doms += [random_poset(rng, rng.randint(2, 6), bottom=rng.random() < 0.7,
                              kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
                 for _ in range(60)]
        related = 0
        for dom in doms:
            pairs = list(product(dom.elements, repeat=2))
            for p, q in product(pairs, repeat=2):
                if interval_leq(dom, p, q):
                    related += 1
                    assert dom.leq(*p) and dom.leq(*q), (dom.elements, p, q)
        assert related > 0

    def test_bdomain_fails_v_satisfies_i(self):
        rep = check_axioms(nontransitive_bdomain())
        assert rep.F and rep.C and rep.I
        assert not rep.V


class TestEvWd:
    def test_run_domain(self, run_dom):
        es = ev_wd(run_dom)
        assert es_isomorphic(es, e_run()) is not None

    def test_chain2(self):
        es = ev_wd(chain(2))
        assert len(es.events) == 2
        assert classify_causal_chain(es)

    def test_split_dom_gives_split(self):
        dom = dom_of_es(e_prime_conflict())
        assert es_isomorphic(ev_wd(dom), e_split()) is not None

    def test_agrees_with_irreducible_construction(self, run_dom, ccs_dom):
        rng = random.Random(107)
        doms = [run_dom, ccs_dom, chain(3), dom_of_es(e_prime_conflict()),
                dom_of_es(e_five())]
        doms += [random_weak_prime_domain(rng) for _ in range(10)]
        for dom in doms:
            assert es_isomorphic(ev_wd(dom), ev_of_domain(dom)) is not None

    def test_rejects_axiom_failure(self):
        with pytest.raises(OrderError):
            ev_wd(m3())


def classify_causal_chain(es):
    (first,) = [e for e in es.events if any(not g for g, ev in es.enabling_gens
                                            if ev == e)]
    (second,) = [e for e in es.events if e != first]
    return es.enables({first}, second) and not es.enables(set(), second)


class TestZeta:
    def test_run_domain_three_classes(self, run_dom):
        pairs = zeta(run_dom)
        assert len(pairs) == 3
        (image_of_a,) = [irc for ivc, irc in pairs if ("{}", "{a}") in ivc]
        assert image_of_a == frozenset({"{a}"})
        (image_of_c,) = [irc for ivc, irc in pairs if ("{a}", "{a,c}") in ivc]
        assert image_of_c == frozenset({"{a,c}", "{b,c}"})

    def test_prime_domain_singletons(self, ccs_dom):
        for ivc, irc in zeta(ccs_dom):
            assert len(irc) == 1

    def test_five_fixture(self):
        dom = dom_of_es(e_five())
        pairs = zeta(dom)
        assert len(pairs) == 5
        assert len(pairs) == len(interchange_classes(dom))

    def test_bijection_on_random(self):
        rng = random.Random(109)
        for _ in range(15):
            dom = random_weak_prime_domain(rng)
            pairs = zeta(dom)
            assert len(pairs) == len(interval_classes(dom))
            assert len(pairs) == len(interchange_classes(dom))
            assert len({irc for _, irc in pairs}) == len(pairs)

    def test_rejects_non_weak_prime(self):
        with pytest.raises(OrderError):
            zeta(m3())


def test_package_attribute_is_the_module():
    import types
    import weavent
    assert isinstance(weavent.intervals, types.ModuleType)
    assert weavent.intervals.interval_classes is interval_classes
