import random
from itertools import combinations, product
from pathlib import Path

import pytest

from weavent import cli, domains, fixtures, intervals
from weavent._common import _bits
from weavent.domains import BOUNDED_COMPLETE, COHERENT, OrderError, _irreducible_mask, \
    _require_weak_prime, algebraicity, diff, interchange_classes, predecessor, validate_domain
from weavent.duality import dom_of_es, ev_of_domain
from weavent.es import EventStructure
from weavent.fixtures import (chain, e_ccs, e_prime_conflict, e_run, e_split,
                              e_five, m3, nontransitive_bdomain)
from weavent.intervals import (AxiomReport, check_axioms, ev_wd, interval_classes,
                               interval_leq, zeta)
from weavent.io import load_structure
from weavent.oracles import _axiom_v_by_definition, es_isomorphic, interval_classes_by_definition
from tests._gen import comparison_domains, outcome, random_poset, random_weak_prime_domain

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def run_dom():
    return dom_of_es(e_run())


@pytest.fixture(scope="module")
def ccs_dom():
    return dom_of_es(e_ccs())


def fixture_domains():
    doms = [load_structure(str(path), "domain")
            for path in sorted(FIXTURES.glob("*domain.json"))]
    doms += [m3(), chain(3), fixtures.pair_no_join(), fixtures.nontransitive_poset(),
             fixtures.nontransitive_poset(with_top=False), nontransitive_bdomain()]
    return doms + [dom_of_es(es()) for es in (e_run, e_ccs, e_prime_conflict, e_five)]


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
        doms = fixture_domains()
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

    def test_follows_the_kind_of_a_bounded_complete_domain(self):
        # off a coherent domain ``ev_of_domain`` builds a consistency
        # structure, which no binary-conflict structure is isomorphic to
        built = 0
        for dom in random_posets(233, 1200):
            if dom.kind != BOUNDED_COMPLETE or not validate_domain(dom).ok \
                    or not algebraicity(dom).weak_prime_algebraic:
                continue
            rep = check_axioms(dom)
            if rep.C and rep.R and rep.V:
                built += 1
                es = ev_wd(dom)
                assert es.conflict_kind == "consistency"
                assert es == reference_ev_wd(dom)
                assert es_isomorphic(es, ev_of_domain(dom)) is not None, dom.elements
        assert built > 100


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


# ---------------------------------------------------------------------- #
# The mask layer against the definitions
# ---------------------------------------------------------------------- #

def random_posets(seed: int, count: int):
    rng = random.Random(seed)
    return [random_poset(rng, rng.randint(2, 9), bottom=rng.random() < 0.8,
                         kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
            for _ in range(count)]


def reference_report(dom) -> AxiomReport:
    """``check_axioms`` on the named intervals: the pairwise closure, the
    scans of (C) and (R) over names, and the (V) oracle."""
    classes = interval_classes_by_definition(dom)
    wc = next(((x, y, z) for x in dom.elements
               for y, z in combinations(dom.upper_covers(x), 2)
               if dom.consistent((y, z)) and not (
                   dom.join((y, z)) is not None and dom.is_cover(y, dom.join((y, z)))
                   and dom.is_cover(z, dom.join((y, z))))), None)
    wr = next(((x, y, z) for cls in classes for (x, y), (x2, z) in combinations(sorted(cls), 2)
               if x == x2 and y != z), None)
    wv = _axiom_v_by_definition(dom, classes)
    return AxiomReport(True, wc is None, wr is None, wv is None, True, wc or wr or wv)


def reference_ev_wd(dom) -> EventStructure:
    """``ev_wd`` from the named intervals and ``leq``/``consistent`` scans;
    off a coherent domain, the classes below each maximal element are the
    consistent sets."""
    classes = interval_classes_by_definition(dom)
    names = {iv: f"iv{k}:[{min(cls)[0]},{min(cls)[1]}]"
             for k, cls in enumerate(classes) for iv in cls}

    def s_of(d):
        return frozenset(names[(c, c2)] for (c, c2) in names if dom.leq(c2, d))

    gens = {(s_of(c), names[(c, c2)]) for c, c2 in names}
    if dom.kind != COHERENT:
        maximal = [d for d in dom.elements if not any(dom.leq(d, u) and u != d
                                                      for u in dom.elements)]
        return EventStructure.with_consistency(set(names.values()), map(s_of, maximal), gens)
    conflict = [(names[min(c1)], names[min(c2)]) for c1, c2 in combinations(classes, 2)
                if all(not dom.consistent((p[1], q[1])) for p in c1 for q in c2)]
    return EventStructure.binary(set(names.values()), conflict, gens)


def reference_zeta_by_names(dom):
    """``zeta`` from the named intervals and irreducible differences."""
    iv_classes = interval_classes_by_definition(dom)
    ir_classes = interchange_classes(dom)
    cls_of_irr = {i: k for k, cls in enumerate(ir_classes) for i in cls}
    pairs = []
    for cls in iv_classes:
        images = set()
        for d, d2 in cls:
            delta = diff(dom, d2, d)
            images |= {cls_of_irr[i] for i in delta
                       if not any(j != i and dom.leq(j, i) for j in delta)}
        (k,) = images
        pairs.append((cls, ir_classes[k]))
    return tuple(pairs)


def reference_zeta(dom):
    """``zeta`` as it was before it read the irreducible upper ends of each
    class's covers: the minimal elements of each cover's irreducible
    difference, walked on masks."""
    _require_weak_prime(dom)
    classes = intervals._classes(dom)
    iv_classes = interval_classes(dom)
    ir_classes = interchange_classes(dom)
    cls_of_irr = {dom.index(i): k for k, cls in enumerate(ir_classes) for i in cls}
    down, irr = dom._down, _irreducible_mask(dom)
    forward = []
    for cls, named in zip(classes, iv_classes):
        images = set()
        for d, d2 in cls:
            # the irreducible difference of a cover need not be flat; only
            # its minimal elements perform the step and share a class
            delta = down[d2] & irr & ~down[d]
            for i in _bits(delta):
                if down[i] & delta == 1 << i:
                    images.add(cls_of_irr[i])
        if len(images) != 1:
            raise OrderError(f"interval class {sorted(named)} maps to {len(images)} classes")
        forward.append(images.pop())
    if sorted(forward) != list(range(len(ir_classes))):
        raise OrderError("interval classes and interchange classes do not biject")
    return tuple((iv_classes[n], ir_classes[forward[n]]) for n in range(len(iv_classes)))


def test_zeta_agrees_with_the_difference_walk():
    built, raised = 0, set()
    for dom in comparison_domains(random.Random(11), 150):
        expected = outcome(reference_zeta, dom)
        assert outcome(zeta, dom) == expected, dom.elements
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            raised.add(expected[1].split(":")[0])
        else:
            built += 1
    assert built > 1000
    assert raised == {"not a valid domain", "not weak prime algebraic"}


class TestAgainstDefinitions:
    def test_classes_on_fixtures_and_random_posets(self):
        doms = fixture_domains() + random_posets(211, 400)
        doms += [random_weak_prime_domain(random.Random(k)) for k in range(20)]
        invalid = 0
        for dom in doms:
            invalid += not validate_domain(dom).ok
            assert interval_classes(dom) == interval_classes_by_definition(dom), dom.elements
        assert invalid > 50

    def test_axioms_on_fixtures_and_random_posets(self):
        # enough draws that some valid domains fail (V), which is rare
        failing = {"C": 0, "R": 0, "V": 0}
        valid = 0
        for dom in fixture_domains() + random_posets(223, 2400):
            if not validate_domain(dom).ok:
                with pytest.raises(OrderError, match="not a valid domain"):
                    check_axioms(dom)
                continue
            valid += 1
            rep = check_axioms(dom)
            assert rep == reference_report(dom), dom.elements
            for name in failing:
                failing[name] += not getattr(rep, name)
        assert valid > 1000
        assert min(failing.values()) >= 3, failing

    def test_v_witness_is_the_first_in_definition_order(self):
        checked = 0
        for dom in fixture_domains() + random_posets(227, 2400):
            if validate_domain(dom).ok:
                classes = intervals._classes(dom)
                fast = intervals._axiom_v(dom, classes)
                oracle = _axiom_v_by_definition(dom, interval_classes_by_definition(dom))
                if fast is not None:
                    fast = tuple(dom.elements[i] for i in fast)
                    checked += 1
                assert fast == oracle, dom.elements
        assert checked >= 3

    def test_ev_wd_and_zeta(self):
        rng = random.Random(229)
        doms = fixture_domains() + [random_weak_prime_domain(rng) for _ in range(40)]
        built = 0
        for dom in doms:
            if not validate_domain(dom).ok:
                continue
            rep = check_axioms(dom)
            if rep.C and rep.R and rep.V:
                built += 1
                assert ev_wd(dom) == reference_ev_wd(dom)
            if algebraicity(dom).weak_prime_algebraic:
                built += 1
                pairs = zeta(dom)
                assert pairs == reference_zeta_by_names(dom)
                # inverse to [i] ↦ [p(i), i]
                for ivc, irc in pairs:
                    assert all((predecessor(dom, i), i) in ivc for i in irc)
        assert built > 80


class TestPinnedWitnesses:
    # computed with the pairwise closure and the four nested (V) loops
    def test_m3(self):
        assert check_axioms(m3()).witness == ("b", "x", "y")

    def test_nontransitive_poset(self):
        rep = check_axioms(fixtures.nontransitive_poset())
        assert (rep.C, rep.R, rep.V) == (False, True, True)
        assert rep.witness == ("bot", "q1", "q3")

    def test_nontransitive_bdomain(self):
        dom = nontransitive_bdomain()
        rep = check_axioms(dom)
        assert (rep.C, rep.R, rep.V) == (True, False, False)
        assert rep.witness == ("p13", "A", "B")
        v = intervals._axiom_v(dom, intervals._classes(dom))
        assert tuple(dom.elements[i] for i in v) == ("bot", "p1", "p3", "i2", "i12", "i23")


def test_zeta_validates_the_domain_first():
    with pytest.raises(OrderError, match=r"^not a valid domain: missing-join \('x', 'y'\)$"):
        zeta(fixtures.pair_no_join())


def test_each_result_is_built_once_per_domain(monkeypatch, capsys):
    calls = []
    for target, name in ((intervals._classes, "__wrapped__"),
                         (intervals.check_axioms, "__wrapped__"), (domains, "_pair_pass"),
                         (domains, "_certify")):
        def counted(dom, *rest, _compute=getattr(target, name)):
            calls.append(_compute.__name__)
            return _compute(dom, *rest)
        monkeypatch.setattr(target, name, counted)
    once = ["_classes", "check_axioms"]
    # a domain of dom_of_es carries the certificate, by the coreflection theorem
    dom = dom_of_es(e_run())
    check_axioms(dom), ev_wd(dom), zeta(dom), interval_classes(dom), check_axioms(dom)
    assert sorted(calls) == once
    calls.clear()
    assert cli.main(["roundtrip", "--domain", str(FIXTURES / "run.domain.json")]) == 0
    assert '"zeta_classes": 3' in capsys.readouterr().out
    assert sorted(calls) == ["_certify"] + once
    calls.clear()
    dom = fixtures.m3()  # fails the certificate: the pair pass decides, once
    for _ in range(2):
        with pytest.raises(OrderError, match="axiom R fails"):
            ev_wd(dom)
    assert sorted(calls) == ["_certify", "_classes", "_pair_pass", "check_axioms"]
