import random
from functools import reduce
from itertools import combinations
from operator import or_
from pathlib import Path

import pytest

from weavent._common import backtrack
from weavent.es import EventStructure, LivenessError, classify, configurations, \
    minimal_enablings
from weavent import domains
from weavent.domains import (BOUNDED_COMPLETE, COHERENT, FiniteDomain, OrderError,
                             _require_weak_prime, algebraicity, decompose,
                             interchange_classes, interchangeable, irreducible_elements,
                             predecessor, validate_domain, validate_domain_morphism)
from weavent.duality import (configuration_id, connect_es, dom_of_es,
                             dom_of_es_morphism, ev_of_domain, unfold)
from weavent.fixtures import (chain, e_ccs, e_five, e_prime_conflict, e_run,
                              e_split, e_three_independent, m3,
                              nontransitive_bdomain)
from weavent.dot import poset_dot
from weavent.io import domain_to_json, load_structure
from weavent.oracles import es_isomorphic, poset_isomorphic
from tests._gen import (comparison_domains, family_es, outcome, random_connected_es,
                        random_consistency_es, random_live_es, random_poset,
                        random_weak_prime_domain)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def run_dom():
    return dom_of_es(e_run())


class TestDomOfEs:
    def test_run_seven_elements(self, run_dom):
        assert len(run_dom.elements) == 7
        assert len(run_dom.covers()) == 9
        assert algebraicity(run_dom).weak_prime_algebraic

    def test_ccs_six_elements(self):
        dom = dom_of_es(e_ccs())
        assert len(dom.elements) == 6
        assert algebraicity(dom).prime_algebraic

    def test_conflict_variant_five_elements(self):
        dom = dom_of_es(e_prime_conflict())
        assert sorted(dom.elements) == ["{a,c}", "{a}", "{b,c}", "{b}", "{}"]

    def test_covers_add_one_event(self, run_dom):
        def events_of(eid):
            inner = eid.strip("{}")
            return set(inner.split(",")) if inner else set()

        for a, b in run_dom.covers():
            assert len(events_of(b) - events_of(a)) == 1
        es = e_run()
        for c in configurations(es):
            for c2 in configurations(es):
                if c < c2 and len(c2 - c) == 1:
                    assert run_dom.is_cover(configuration_id(c), configuration_id(c2))

    def test_needs_liveness(self):
        es = EventStructure.binary("ab", enabling=[((), "a"), ((), "b")],
                                   conflict=[])
        broken = EventStructure.binary("ab", enabling=[((), "a"), (("b",), "b")])
        with pytest.raises(LivenessError):
            dom_of_es(broken)
        assert validate_domain(dom_of_es(es)).ok

    def test_liveness_message_is_shared_with_unfold(self):
        # b needs itself, and a and b are not in conflict though never together
        broken = EventStructure.binary("ab", enabling=[((), "a"), (("b",), "b")])
        expected = ("not live: dead events (in no configuration): ['b']; "
                    "conflict not saturated: 'a', 'b' never occur together")
        for passage in (dom_of_es, unfold):
            with pytest.raises(LivenessError) as exc:
                passage(broken)
            assert str(exc.value) == expected

    def test_irreducibles_are_minimal_enabling_instances(self):
        rng = random.Random(71)
        for _ in range(20):
            es = random_live_es(rng)
            dom = dom_of_es(es)
            expected = set()
            for e in es.events:
                for c in minimal_enablings(es, e):
                    if es.is_consistent(c | {e}):
                        expected.add(configuration_id(c | {e}))
            assert set(irreducible_elements(dom)) == expected

    def test_interchangeable_iff_same_event_and_consistent(self):
        rng = random.Random(73)
        for _ in range(15):
            es = random_live_es(rng, max_events=4)
            dom = dom_of_es(es)
            instances = []
            for e in es.events:
                for c in minimal_enablings(es, e):
                    if es.is_consistent(c | {e}):
                        instances.append((c, e))
            for (c1, e1), (c2, e2) in combinations(instances, 2):
                i1 = configuration_id(c1 | {e1})
                i2 = configuration_id(c2 | {e2})
                expected = e1 == e2 and es.is_consistent(c1 | c2 | {e1})
                assert interchangeable(dom, i1, i2) == expected


def dom_of_es_by_definition(es: EventStructure) -> FiniteDomain:
    """The configuration poset through the public constructor: covers add
    one event, and the order is worked out from them."""
    confs = configurations(es)
    ids = {c: configuration_id(c) for c in confs}
    covers = [(ids[c], ids[c | {e}]) for c in confs for e in es.events - c if c | {e} in ids]
    kind = COHERENT if es.conflict_kind == "binary" else BOUNDED_COMPLETE
    return FiniteDomain(ids.values(), covers, kind)


class TestDomOfEsByDefinition:
    """``dom_of_es`` builds its order from the configuration masks and skips
    the public constructor's search; the constructor is the oracle."""

    @staticmethod
    def _structures():
        yield from (load_structure(str(path), "es")
                    for path in sorted(FIXTURES.glob("*.es.json")))
        for family in "BXLC":
            for n in range(1, 5):
                yield family_es(family, n)
        rng = random.Random(41)
        yield from (random_live_es(rng, max_events=6) for _ in range(25))
        yield from (random_connected_es(rng) for _ in range(15))
        yield from (random_consistency_es(rng, live=True) for _ in range(25))

    def test_agrees_with_the_public_constructor(self):
        kinds = set()
        for es in self._structures():
            dom, expected = dom_of_es(es), dom_of_es_by_definition(es)
            assert dom.elements == expected.elements
            assert dom._cover_pairs == expected._cover_pairs
            assert dom._up == expected._up and dom._down == expected._down
            assert dom.kind == expected.kind
            assert dom.covers() == expected.covers()  # in the same order
            assert dom._lower == expected._lower and dom._upper == expected._upper
            assert dom._cons == expected._cons
            kinds.add(dom.kind)
        assert len(kinds) == 2  # both kinds of structure were drawn

    def test_writing_out_builds_no_order_mask(self):
        # the covers, the JSON form and the Hasse diagram need no order
        # mask; a verb that asks an order question computes them then
        dom = dom_of_es(family_es("L", 2))
        dom.covers()
        domain_to_json(dom)
        poset_dot(dom)
        assert "_up" not in vars(dom) and "_down" not in vars(dom)
        assert dom.leq("{}", "{a0,b0,c0}") and not dom.leq("{a0}", "{b0}")
        assert "_up" in vars(dom)


class TestTheRecordedWeakPrimeFact:
    """``dom_of_es`` records that the duality certificate holds on its
    domain, by the coreflection theorem, so neither the certificate nor a
    pair pass proves it again."""

    def test_agrees_with_the_pair_pass_on_a_fresh_copy(self, monkeypatch):
        passes, certified = [], []
        monkeypatch.setattr(domains, "_pair_pass",
                            lambda d, _real=domains._pair_pass: passes.append(d) or _real(d))
        monkeypatch.setattr(domains, "_certify", lambda d, es, _real=domains._certify:
                            certified.append(d) or _real(d, es))
        kinds = set()
        for es in TestDomOfEsByDefinition._structures():
            dom = dom_of_es(es)
            fresh = FiniteDomain(dom.elements, dom.covers(), dom.kind)
            assert (dom._derived[domains._certified] is True
                    and domains._certified not in fresh._derived)
            ev = ev_of_domain(dom)
            assert passes == [] and certified == []
            assert ev_of_domain(fresh) == ev
            assert [id(d) for d in certified] == [id(fresh)] and passes == []
            assert fresh._derived[domains._certified] is True
            assert validate_domain(fresh).ok and algebraicity(fresh).weak_prime_algebraic
            assert passes == []
            # the pair pass, run on its own, finds the same facts
            irr = domains._irreducible_mask(fresh)
            assert domains._pair_pass(fresh) == (validate_domain(fresh),
                                                 domains._class_primes(fresh), irr)
            certified.clear()
            passes.clear()
            kinds.add(dom.kind)
        assert kinds == {COHERENT, BOUNDED_COMPLETE}

    def test_a_domain_that_is_not_weak_prime_raises_on_every_call(self):
        dom = m3()
        for _ in range(2):
            with pytest.raises(OrderError, match="not weak prime algebraic"):
                ev_of_domain(dom)
        assert _require_weak_prime not in dom._derived


class TestEvOfDomain:
    def test_run_domain_roundtrip(self, run_dom):
        es = ev_of_domain(run_dom)
        assert len(es.events) == 3
        assert es_isomorphic(es, e_run()) is not None

    def test_split_dom_splits_c(self):
        dom = dom_of_es(e_prime_conflict())
        es = ev_of_domain(dom)
        assert len(es.events) == 4
        assert es_isomorphic(es, e_split()) is not None

    def test_chain(self):
        es = ev_of_domain(chain(2))
        assert len(es.events) == 2
        (g1,) = [g for g in es.enabling_gens if not g[0]]
        other = next(e for e in es.events if e != g1[1])
        assert es.enables({g1[1]}, other)

    def test_rejects_non_weak_prime(self):
        from weavent.domains import OrderError
        with pytest.raises(OrderError):
            ev_of_domain(m3())

    def test_bounded_complete_variant(self):
        es = ev_of_domain(nontransitive_bdomain())
        assert es.conflict_kind == "consistency"
        assert len(es.events) == 4

    def test_dom_of_ev_isomorphic(self, run_dom):
        rng = random.Random(79)
        doms = [run_dom, dom_of_es(e_ccs()), dom_of_es(e_prime_conflict()),
                chain(3), chain(1)]
        doms += [random_weak_prime_domain(rng) for _ in range(20)]
        for dom in doms:
            back = dom_of_es(ev_of_domain(dom))
            assert poset_isomorphic(back, dom) is not None

    def test_conflict_agrees_with_scan_over_elements(self, run_dom):
        # the up-set masks of two classes share no bit exactly when no
        # element dominates a member of each
        rng = random.Random(83)
        doms = [run_dom, chain(3)]
        doms += [dom_of_es(es()) for es in (e_ccs, e_prime_conflict, e_five,
                                             e_three_independent)]
        doms += [dom_of_es(random_live_es(rng, conflict_p=0.3)) for _ in range(40)]
        conflicts = 0
        for dom in doms:
            classes = interchange_classes(dom)
            name = {min(cls): f"class{k}:{min(cls)}" for k, cls in enumerate(classes)}
            scan = {frozenset((name[min(c1)], name[min(c2)]))
                    for c1, c2 in combinations(classes, 2)
                    if not any(any(dom.leq(i, d) for i in c1) and any(dom.leq(j, d) for j in c2)
                               for d in dom.elements)}
            assert ev_of_domain(dom).conflict == scan
            conflicts += len(scan)
        assert conflicts > 20


def reference_ev(dom: FiniteDomain) -> EventStructure:
    """``ev_of_domain`` as it was built before it shared one builder with
    ``intervals.ev_wd``: enablings from ``decompose`` of each predecessor,
    conflict from the OR of each class's up-sets, and consistent sets from
    ``decompose`` of each maximal element."""
    _require_weak_prime(dom)
    classes = interchange_classes(dom)
    name = {}
    for k, cls in enumerate(classes):
        nm = f"class{k}:{min(cls)}"
        for i in cls:
            name[i] = nm
    gens = set()
    for i in name:
        below = decompose(dom, predecessor(dom, i))
        gens.add((frozenset(name[j] for j in below), name[i]))
    events = sorted(set(name.values()))
    if dom.kind == COHERENT:
        ups = [reduce(or_, (dom._up[dom.index(i)] for i in cls)) for cls in classes]
        conflict = [(name[min(classes[k])], name[min(classes[m])])
                    for k, m in combinations(range(len(classes)), 2) if not ups[k] & ups[m]]
        return EventStructure.binary(events, conflict, [(x, e) for x, e in gens])
    cons = [frozenset(name[i] for i in decompose(dom, d)) for d in dom.maximal_elements()]
    return EventStructure.with_consistency(events, cons, [(x, e) for x, e in gens])


def test_ev_of_domain_agrees_with_its_reference():
    built, kinds, raised = 0, set(), set()
    for dom in comparison_domains(random.Random(3), 150):
        expected = outcome(reference_ev, dom)
        assert outcome(ev_of_domain, dom) == expected, dom.elements
        if isinstance(expected, EventStructure):
            built += 1
            kinds.add(expected.conflict_kind)
        else:
            raised.add(expected[1].split(":")[0])
    assert built > 1000 and kinds == {"binary", "consistency"}
    assert raised == {"not a valid domain", "not weak prime algebraic"}


class TestConnect:
    def test_fixes_connected(self):
        for es in (e_run(), e_ccs()):
            assert es_isomorphic(connect_es(es), es) is not None

    def test_splits_disconnected(self):
        out = connect_es(e_prime_conflict())
        assert len(out.events) == 4
        assert classify(out).connected
        assert es_isomorphic(out, e_split()) is not None

    def test_coreflection_small_suite(self):
        rng = random.Random(83)
        for _ in range(25):
            es = random_live_es(rng)
            out = connect_es(es)
            assert classify(out).connected
            assert poset_isomorphic(dom_of_es(out), dom_of_es(es)) is not None
            if classify(es).connected:
                assert es_isomorphic(out, es) is not None


class TestIsomorphisms:
    def test_relabelled_es(self):
        es = e_run()
        relabelled = EventStructure.binary(
            "xyz", enabling=[((), "x"), ((), "y"), (("x",), "z"), (("y",), "z")])
        phi = es_isomorphic(es, relabelled)
        assert phi is not None and phi["c"] == "z"

    def test_distinguishes_structures(self):
        assert es_isomorphic(e_run(), e_ccs()) is None

    def test_posets_of_different_size(self):
        assert poset_isomorphic(dom_of_es(e_run()), dom_of_es(e_ccs())) is None

    def test_split_relabel(self):
        a = dom_of_es(e_prime_conflict())
        b = dom_of_es(e_split())
        assert poset_isomorphic(a, b) is not None

    def test_poset_self(self):
        dom = dom_of_es(e_five())
        phi = poset_isomorphic(dom, dom)
        assert phi is not None
        for a, b in dom.covers():
            assert dom.leq(phi[a], phi[b])

    # The first isomorphism found, pinned on structures with automorphisms;
    # values computed with the recursive search the engine replaced.
    def test_first_poset_isomorphism_pinned(self):
        def renamed(dom, name):
            return FiniteDomain([name[x] for x in dom.elements],
                                [(name[a], name[b]) for a, b in dom.covers()], dom.kind)

        cube = dom_of_es(e_three_independent())
        name = {"{}": "n6", "{x}": "n2", "{y}": "n4", "{z}": "n1", "{x,y}": "n0",
                "{x,z}": "n5", "{y,z}": "n7", "{x,y,z}": "n3"}
        assert poset_isomorphic(cube, renamed(cube, name)) == {
            "{}": "n6", "{x}": "n1", "{y}": "n2", "{z}": "n4",
            "{x,y}": "n5", "{x,z}": "n7", "{y,z}": "n0", "{x,y,z}": "n3"}
        name = {"b": "q4", "x": "q2", "y": "q0", "z": "q3", "t": "q1"}
        assert poset_isomorphic(m3(), renamed(m3(), name)) == {
            "b": "q4", "t": "q1", "x": "q0", "y": "q2", "z": "q3"}

    def test_first_es_isomorphism_pinned(self):
        es = e_three_independent()
        relabelled = EventStructure.binary(["z1", "y1", "x1"],
                                           enabling=[((), "z1"), ((), "y1"), ((), "x1")])
        assert es_isomorphic(es, relabelled) == {"x": "x1", "y": "y1", "z": "z1"}
        relabelled = EventStructure.binary("rqp", enabling=[((), "r"), ((), "q"), ((), "p")])
        assert es_isomorphic(es, relabelled) == {"x": "p", "y": "q", "z": "r"}


def poset_isomorphic_all_pairs(dom1, dom2):
    """The search ``poset_isomorphic`` ran before it tested lower covers:
    the same signatures and search order, each new pair tested against
    every pair chosen before it through ``leq`` both ways."""
    if len(dom1.elements) != len(dom2.elements):
        return None

    def sigs(dom):
        h = {}
        for x in sorted(dom.elements, key=lambda x: dom._down[dom.index(x)].bit_count()):
            lows = dom.lower_covers(x)
            h[x] = 0 if not lows else 1 + max(h[y] for y in lows)
        return {x: (h[x], len(dom.lower_covers(x)), len(dom.upper_covers(x)),
                    dom._down[dom.index(x)].bit_count(), dom._up[dom.index(x)].bit_count())
                for x in dom.elements}

    sig1, sig2 = sigs(dom1), sigs(dom2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    order = sorted(sig1, key=lambda x: (sig1[x], x))
    by_sig = {}
    for y in sorted(sig2):
        by_sig.setdefault(sig2[y], []).append(y)

    def fits(k, y, chosen):
        x = order[k]
        return all((dom1.leq(x, a), dom1.leq(a, x)) == (dom2.leq(y, b), dom2.leq(b, y))
                   for a, b in zip(order, chosen))

    images = next(backtrack([by_sig[sig1[x]] for x in order], fits, True), None)
    return None if images is None else dict(zip(order, images))


def relabelled(dom, rng):
    names = list(dom.elements)
    rng.shuffle(names)
    name = dict(zip(dom.elements, names))
    return FiniteDomain(names, [(name[a], name[b]) for a, b in dom.covers()], dom.kind)


class TestPosetIsomorphismAgainstAllPairs:
    def test_random_posets(self):
        rng = random.Random(31)
        found = {True: 0, False: 0}  # of the pairs not drawn as copies
        for _ in range(2000):
            kind = rng.choice((COHERENT, BOUNDED_COMPLETE))
            n = rng.randint(1, 10)
            dom1 = random_poset(rng, n, rng.random() < 0.8, kind)
            copy = rng.random() < 0.5
            dom2 = relabelled(dom1, rng) if copy else \
                random_poset(rng, n, rng.random() < 0.8, kind)
            phi = poset_isomorphic(dom1, dom2)
            assert phi == poset_isomorphic_all_pairs(dom1, dom2)
            assert phi is not None or not copy
            if not copy:
                found[phi is not None] += 1
        assert min(found.values()) > 100

    @pytest.mark.parametrize("family, n", [("B", 4), ("X", 3), ("L", 2), ("C", 6)])
    def test_connect_round_trips(self, family, n):
        es = family_es(family, n)
        dom, back = dom_of_es(es), dom_of_es(connect_es(es))
        phi = poset_isomorphic(back, dom)
        assert phi is not None and phi == poset_isomorphic_all_pairs(back, dom)
        rng = random.Random(n)
        other = relabelled(dom, rng)
        assert poset_isomorphic(other, dom) == poset_isomorphic_all_pairs(other, dom)


class TestMorphismImages:
    def test_image_is_domain_morphism(self):
        src = e_run()
        target = EventStructure.binary(["c'"], enabling=[((), "c'")])
        f = dom_of_es_morphism({"c": "c'"}, src, target)
        rep = validate_domain_morphism(f, dom_of_es(src), dom_of_es(target))
        assert rep.ok

    def test_random_identity_images(self):
        rng = random.Random(89)
        for _ in range(10):
            es = random_live_es(rng, max_events=4)
            f = dom_of_es_morphism({e: e for e in es.events}, es, es)
            assert validate_domain_morphism(f, dom_of_es(es), dom_of_es(es)).ok
