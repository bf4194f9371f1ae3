import random
from itertools import combinations, permutations
from pathlib import Path
from typing import Mapping, Tuple

import pytest

from weavent import cli, domains
from weavent._common import Report, _bits
from weavent.domains import (BOUNDED_COMPLETE, COHERENT, Algebraicity, FiniteDomain,
                             OrderError, algebraicity, decompose, diff, interchange_classes,
                             interchangeable, irreducible_elements, irreducibles,
                             predecessor, primes, validate_domain,
                             validate_domain_morphism, weak_primes)
from weavent.duality import dom_of_es, dom_of_es_morphism, ev_of_domain
from weavent.es import EventStructure
from weavent.fixtures import (chain, e_ccs, e_run, m3, nontransitive_bdomain,
                              nontransitive_poset, pair_no_join)
from weavent.io import load_structure
from weavent.oracles import (interchangeable_by_definition, interchangeable_via_compacts,
                             primes_by_definition, validate_domain_by_definition,
                             weak_primes_by_definition)
from tests._gen import (random_connected_es, random_live_es, random_poset,
                        random_weak_prime_domain)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def run_dom():
    return dom_of_es(e_run())


@pytest.fixture(scope="module")
def ccs_dom():
    return dom_of_es(e_ccs())


class TestValidate:
    def test_run_domain_valid(self, run_dom):
        assert validate_domain(run_dom).ok

    def test_m3_valid(self):
        assert validate_domain(m3()).ok

    def test_missing_join_witnessed(self):
        rep = validate_domain(pair_no_join())
        assert not rep.ok
        assert rep.condition == "missing-join"
        assert set(rep.witness) == {"x", "y"}

    def test_cycle_rejected(self):
        with pytest.raises(OrderError):
            FiniteDomain("ab", [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("covers, element", [
        ([("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")], "b"),
        ([("d", "a"), ("a", "c"), ("c", "b"), ("b", "a")], "a"),
        ([("a", "c"), ("c", "e"), ("e", "b"), ("b", "c"), ("a", "d")], "c"),
        ([("a", "b"), ("a", "c"), ("b", "d"), ("d", "b"), ("c", "e"), ("e", "c")], "b"),
        ([("a", "b"), ("b", "c"), ("b", "d"), ("c", "e"), ("e", "c"), ("d", "e")], "c"),
    ])
    def test_cycle_names_the_first_element_met_twice(self, covers, element):
        # depth-first from the least index, successors in index order
        with pytest.raises(OrderError, match=f"^cycle through '{element}'$"):
            FiniteDomain("abcde", covers)

    def test_nontransitive_bdomain_valid(self):
        assert validate_domain(nontransitive_bdomain()).ok

    def test_bounded_witness_not_coherent(self):
        # same covers, read as a coherent domain: p1,p2,p3 are pairwise
        # consistent without a common bound
        bd = nontransitive_bdomain()
        as_coherent = FiniteDomain(bd.elements, bd.covers())
        assert not validate_domain(as_coherent).ok

    @pytest.mark.parametrize("kind", [COHERENT, BOUNDED_COMPLETE])
    def test_no_least_element_witnessed(self, kind):
        # the witness lists the minimal elements
        rep = validate_domain(FiniteDomain("abt", [("a", "t"), ("b", "t")], kind))
        assert (rep.ok, rep.condition, rep.witness) == (False, "no-least-element", ("a", "b"))
        rep = validate_domain(FiniteDomain("abct", [("a", "t"), ("b", "t"), ("c", "a")], kind))
        assert (rep.ok, rep.condition, rep.witness) == (False, "no-least-element", ("b", "c"))

    @pytest.mark.parametrize("kind, expected", [
        (COHERENT, ("join-breaks-consistency", ("a", "b", "x"))),
        (BOUNDED_COMPLETE, ("missing-join", ("x", "y")))])
    def test_coherence_and_bound_witnesses(self, kind, expected):
        # a ⊔ b = ab, while x and y are each consistent with a (via axy) and
        # with b (via bxy) but not with ab; the witness is the least such
        # element.  Read as bounded complete, only the bounded pair x, y
        # without a join fails.
        covers = [("0", "a"), ("0", "b"), ("0", "y"), ("0", "x"),
                  ("a", "ab"), ("b", "ab"),
                  ("a", "axy"), ("y", "axy"), ("x", "axy"),
                  ("b", "bxy"), ("y", "bxy"), ("x", "bxy")]
        dom = FiniteDomain({x for c in covers for x in c}, covers, kind)
        rep = validate_domain(dom)
        assert (rep.ok, rep.condition, rep.witness) == (False, *expected)

    def test_join_breaks_consistency_only_when_coherent(self):
        covers = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("b", "ab"),
                  ("a", "ac"), ("c", "ac"), ("b", "bc"), ("c", "bc")]
        rep = validate_domain(FiniteDomain("0 a b c ab ac bc".split(), covers))
        assert (rep.ok, rep.condition, rep.witness) == \
            (False, "join-breaks-consistency", ("a", "b", "c"))
        assert validate_domain(FiniteDomain("0 a b c ab ac bc".split(), covers,
                                            BOUNDED_COMPLETE)).ok

    def test_agrees_with_exhaustive_oracle(self, run_dom, ccs_dom):
        rng = random.Random(71)
        doms = [run_dom, ccs_dom, m3(), chain(3), pair_no_join()]
        doms += [random_poset(rng, rng.randint(2, 8),
                              kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
                 for _ in range(150)]
        verdicts = set()
        for dom in doms:
            ok = validate_domain(dom).ok
            assert validate_domain_by_definition(dom).ok == ok
            verdicts.add((dom.kind, ok))
        # both kinds, both verdicts: the comparison is not vacuous
        assert len(verdicts) == 4


class TestIrreducibles:
    def test_run_domain(self, run_dom):
        assert set(irreducible_elements(run_dom)) == {"{a}", "{b}", "{a,c}", "{b,c}"}

    def test_chain(self):
        assert set(irreducible_elements(chain(2))) == {"c1", "c2"}

    def test_m3_atoms(self):
        assert set(irreducible_elements(m3())) == {"x", "y", "z"}

    def test_infos_carry_predecessor_and_class(self, run_dom):
        infos = {i.element: i for i in irreducibles(run_dom)}
        assert infos["{a,c}"].unique_predecessor == "{a}"
        assert infos["{a,c}"].class_id == infos["{b,c}"].class_id
        assert infos["{a}"].class_id != infos["{b}"].class_id


class TestPrimes:
    def test_run_domain(self, run_dom):
        assert set(primes(run_dom)) == {"{a}", "{b}"}

    def test_ccs_domain_all_irreducible(self, ccs_dom):
        assert set(primes(ccs_dom)) == set(irreducible_elements(ccs_dom))

    def test_m3_none(self):
        assert primes(m3()) == ()

    def test_agrees_with_exhaustive_oracle(self, run_dom, ccs_dom):
        rng = random.Random(31)
        doms = [run_dom, ccs_dom, m3(), chain(3), nontransitive_poset()]
        doms += [random_weak_prime_domain(rng) for _ in range(15)]
        for dom in doms:
            assert set(primes(dom)) == set(primes_by_definition(dom))


class TestInterchangeability:
    def test_run_domain_histories_of_c(self, run_dom):
        assert interchangeable(run_dom, "{a,c}", "{b,c}")

    def test_run_domain_a_b_not(self, run_dom):
        assert not interchangeable(run_dom, "{a}", "{b}")

    def test_not_transitive_poset(self):
        dom = nontransitive_poset()
        assert interchangeable(dom, "i1", "i2")
        assert interchangeable(dom, "i2", "i3")
        assert not interchangeable(dom, "i1", "i3")

    def test_not_transitive_without_top(self):
        dom = nontransitive_poset(with_top=False)
        assert interchangeable(dom, "i1", "i2")
        assert interchangeable(dom, "i2", "i3")
        assert not interchangeable(dom, "i1", "i3")

    def test_three_routes_agree(self, run_dom, ccs_dom):
        rng = random.Random(37)
        doms = [run_dom, ccs_dom, m3(), chain(3), nontransitive_poset(), nontransitive_bdomain()]
        doms += [random_weak_prime_domain(rng) for _ in range(10)]
        for dom in doms:
            irr = irreducible_elements(dom)
            for i, j in combinations(irr, 2):
                expected = interchangeable_by_definition(dom, i, j)
                assert interchangeable(dom, i, j) == expected
                assert interchangeable_via_compacts(dom, i, j) == expected

    def test_interchangeable_implies_consistent(self, run_dom):
        rng = random.Random(41)
        doms = [run_dom, nontransitive_poset(), nontransitive_bdomain()]
        doms += [random_weak_prime_domain(rng) for _ in range(10)]
        for dom in doms:
            irr = irreducible_elements(dom)
            for i, j in combinations(irr, 2):
                if interchangeable(dom, i, j):
                    assert dom.consistent((i, j))
                    assert not dom.leq(i, j) and not dom.leq(j, i)

    def test_not_eq_below(self):
        # i ↔ i', i ↔ i'', i' ⊑ i'' forces i' = i''
        rng = random.Random(43)
        doms = [dom_of_es(e_run()), nontransitive_poset(), nontransitive_bdomain()]
        doms += [random_weak_prime_domain(rng) for _ in range(10)]
        for dom in doms:
            irr = irreducible_elements(dom)
            for i in irr:
                for i2, i3 in permutations(irr, 2):
                    if interchangeable(dom, i, i2) and interchangeable(dom, i, i3) \
                            and dom.leq(i2, i3):
                        assert i2 == i3

    def test_transitive_on_consistent_in_weak_prime(self, run_dom, ccs_dom):
        rng = random.Random(47)
        doms = [run_dom, ccs_dom] + [random_weak_prime_domain(rng) for _ in range(10)]
        for dom in doms:
            assert algebraicity(dom).weak_prime_algebraic
            irr = irreducible_elements(dom)
            for i, i2, i3 in permutations(irr, 3):
                if interchangeable(dom, i, i2) and interchangeable(dom, i, i3) \
                        and dom.consistent((i2, i3)):
                    assert interchangeable(dom, i2, i3)

    def test_bdomain_witnesses_nontransitivity(self):
        # pairwise consistency is not enough once coherence is dropped
        dom = nontransitive_bdomain()
        assert algebraicity(dom).weak_prime_algebraic
        assert interchangeable(dom, "i1", "i2")
        assert interchangeable(dom, "i2", "i3")
        assert dom.consistent(("i1", "i3"))
        assert not interchangeable(dom, "i1", "i3")
        assert not dom.consistent(("i1", "i2", "i3"))


class TestClasses:
    def test_run_domain(self, run_dom):
        assert interchange_classes(run_dom) == (
            frozenset({"{a,c}", "{b,c}"}), frozenset({"{a}"}), frozenset({"{b}"}))

    def test_prime_domain_singletons(self, ccs_dom):
        assert all(len(c) == 1 for c in interchange_classes(ccs_dom))

    def test_nontransitive_chains_into_one(self):
        classes = interchange_classes(nontransitive_poset())
        assert frozenset({"i1", "i2", "i3"}) in classes


class TestWeakPrimes:
    def test_run_domain_all(self, run_dom):
        assert set(weak_primes(run_dom)) == set(irreducible_elements(run_dom))

    def test_m3_none(self):
        assert weak_primes(m3()) == ()

    def test_ccs_domain_all(self, ccs_dom):
        assert set(weak_primes(ccs_dom)) == set(irreducible_elements(ccs_dom))

    def test_oracle_agreement_small(self, run_dom, ccs_dom):
        rng = random.Random(53)
        doms = [run_dom, ccs_dom, m3(), chain(3), nontransitive_poset(), nontransitive_bdomain()]
        doms += [random_weak_prime_domain(rng, max_elements=10) for _ in range(10)]
        for dom in doms:
            if len(dom.elements) > 10:
                continue
            assert set(weak_primes(dom)) == set(weak_primes_by_definition(dom))

    def test_partners_are_direct_not_closure(self):
        # b ↔ j and g ↔ j but not b ↔ g: read with the closure ↔*, b and g
        # would pass as weak primes too (the poset lacks the join of d and f)
        covers = [("b", "h"), ("d", "a"), ("d", "b"), ("d", "c"), ("d", "g"),
                  ("e", "d"), ("e", "f"), ("f", "c"), ("f", "i"), ("g", "h"),
                  ("i", "a"), ("i", "j"), ("j", "h")]
        dom = FiniteDomain("abcdefghij", covers)
        assert frozenset({"b", "g", "j"}) in interchange_classes(dom)
        assert not interchangeable(dom, "b", "g")
        assert weak_primes(dom) == weak_primes_by_definition(dom) == ("d", "j")


def partners_by_definition(dom):
    """``_partners`` by its definition: ``↔`` tested on every pair."""
    irr = irreducible_elements(dom)
    rows = {dom.index(i): 1 << dom.index(i) for i in irr}
    for i, j in combinations(irr, 2):
        if interchangeable(dom, i, j):
            rows[dom.index(i)] |= 1 << dom.index(j)
            rows[dom.index(j)] |= 1 << dom.index(i)
    return rows


class TestPartners:
    def test_fixtures_agree_with_all_pairs(self):
        doms = [load_structure(str(path), "domain")
                for path in sorted(FIXTURES.glob("*domain.json"))]
        doms += [dom_of_es(e_run()), dom_of_es(e_ccs()), nontransitive_poset(False)]
        for dom in doms:
            assert domains._partners(dom) == partners_by_definition(dom)

    def test_draws_agree_with_all_pairs(self):
        rng = random.Random(29)
        found = 0
        for _ in range(80):
            dom = random_weak_prime_domain(rng, max_elements=14) if rng.random() < 0.5 \
                else random_poset(rng, rng.randint(3, 10))
            if not validate_domain(dom).ok:
                continue
            expected = partners_by_definition(dom)
            assert domains._partners(dom) == expected
            found += sum(bin(row).count("1") - 1 for row in expected.values())
        assert found > 0

    def test_chain_tests_no_pair(self, monkeypatch):
        calls = []

        def counted(dom, a, b, _real=domains._interchangeable):
            calls.append((a, b))
            return _real(dom, a, b)

        monkeypatch.setattr(domains, "_interchangeable", counted)
        dom = chain(40)
        rows = domains._partners(dom)
        assert calls == []
        assert rows == {dom.index(x): 1 << dom.index(x) for x in dom.elements if x != "c0"}


class TestOraclesOnDraws:
    """The fast paths against their exhaustive oracles on seeded draws: the
    configuration domains of random live and connected structures, and the
    random posets that are valid domains."""

    @pytest.fixture(scope="class")
    def draws(self):
        rng = random.Random(73)
        doms = [dom_of_es(random_live_es(rng, max_events=4, conflict_p=0.3))
                for _ in range(12)]
        doms += [dom_of_es(random_connected_es(rng)) for _ in range(12)]
        doms += [random_poset(rng, rng.randint(3, 9),
                              kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
                 for _ in range(60)]
        doms = [d for d in doms if validate_domain(d).ok]
        assert len(doms) >= 60
        return doms

    def test_primes(self, draws):
        for dom in draws:
            if len(dom.elements) <= 12:
                assert primes(dom) == primes_by_definition(dom)

    def test_weak_primes(self, draws):
        for dom in draws:
            if len(dom.elements) <= 12:
                assert weak_primes(dom) == weak_primes_by_definition(dom)

    def test_interchangeable(self, draws):
        pairs = 0
        for dom in draws:
            for i, j in combinations(irreducible_elements(dom), 2):
                expected = interchangeable_by_definition(dom, i, j)
                assert interchangeable(dom, i, j) == expected
                assert interchangeable_via_compacts(dom, i, j) == expected
                pairs += expected
        assert pairs > 0

    def test_interchangeable_rejects_non_irreducibles(self, run_dom):
        with pytest.raises(OrderError):
            interchangeable(run_dom, "{a,b}", "{a}")
        with pytest.raises(OrderError):
            interchangeable(run_dom, "{a}", "{}")


class TestInvariantCache:
    def test_repeated_calls_return_the_same_object(self):
        dom = dom_of_es(e_run())
        for fn in (primes, weak_primes, interchange_classes, irreducible_elements,
                   algebraicity):
            assert fn(dom) is fn(dom)

    def test_check_computes_primes_and_weak_primes_once(self, monkeypatch, capsys):
        calls = []
        for fn in (primes, weak_primes):
            def counted(dom, _name=fn.__name__, _compute=fn.__wrapped__):
                calls.append(_name)
                return _compute(dom)
            monkeypatch.setattr(fn, "__wrapped__", counted)
        assert cli.main(["check", "--domain", str(FIXTURES / "run.domain.json")]) == 0
        assert '"weak_prime_algebraic": true' in capsys.readouterr().out
        assert sorted(calls) == ["primes", "weak_primes"]


# ---------------------------------------------------------------------- #
# The three pair passes and the meet loop that the one pair pass replaced,
# kept verbatim as its reference.
# ---------------------------------------------------------------------- #

def _incomparable_consistent_pairs(dom: FiniteDomain):
    """Each pair ``i < j`` of incomparable consistent elements with their
    join ``k`` (None when there is none), in lexicographic order of ``(i, j)``.

    Comparable pairs are left out: their join is the larger element, so no
    join condition and no primality test can fail on them.
    """
    up, down, cons, by_up = dom._up, dom._down, dom._cons, dom._by_up
    for i in range(len(up)):
        ui = up[i]
        for j in _bits(cons[i] & ~(ui | down[i] | ((2 << i) - 1))):
            yield i, j, by_up.get(ui & up[j])


def reference_validate_domain(dom: FiniteDomain) -> Report:
    if dom.bottom() is None:
        return Report(False, "no-least-element", tuple(
            x for x in dom.elements if not dom.lower_covers(x)))
    names, cons = dom.elements, dom._cons
    coherent = dom.kind == COHERENT
    for i, j, k in _incomparable_consistent_pairs(dom):
        if k is None:
            return Report(False, "missing-join", (names[i], names[j]))
        if coherent:
            bad = cons[i] & cons[j] & ~cons[k]
            if bad:
                c = (bad & -bad).bit_length() - 1
                return Report(False, "join-breaks-consistency", (names[i], names[j], names[c]))
    # meets of nonempty sets come for free; self-check on incomparable pairs
    # (a comparable pair meets in its smaller element)
    up, down, by_down = dom._up, dom._down, dom._by_down
    for i in range(len(names)):
        di = down[i]
        for j in _bits(dom._full & ~(up[i] | di | ((2 << i) - 1))):
            if (di & down[j]) not in by_down:
                return Report(False, "missing-meet", (names[i], names[j]))
    return Report(True)


def reference_primes(dom: FiniteDomain) -> Tuple[str, ...]:
    down = dom._down
    not_prime = 0
    for i, j, k in _incomparable_consistent_pairs(dom):
        if k is not None:
            not_prime |= down[k] & ~(down[i] | down[j])
    bot = dom.bottom()
    return tuple(x for p, x in enumerate(dom.elements)
                 if x != bot and not not_prime >> p & 1)


def reference_weak_primes(dom: FiniteDomain) -> Tuple[str, ...]:
    down = dom._down
    partners = domains._partners(dom)
    irr = domains._irreducible_mask(dom)
    bad = 0
    for i, j, k in _incomparable_consistent_pairs(dom):
        if k is None:
            continue
        below = down[i] | down[j]
        for x in _bits(down[k] & irr & ~below & ~bad):
            if not partners[x] & below:
                bad |= 1 << x
    return dom.ids(irr & ~bad)


def reference_algebraicity(dom: FiniteDomain) -> Algebraicity:
    irr = domains._irreducible_mask(dom)
    irr_alg = all(dom._join_mask(down & irr) == d for d, down in enumerate(dom._down))
    return Algebraicity(irr_alg, dom.mask_of(reference_primes(dom)) == irr,
                        dom.mask_of(reference_weak_primes(dom)) == irr)


def fixture_domains():
    """Every domain fixture: the files, the hand-made posets, and the
    configuration domains of the event-structure fixtures."""
    doms = [load_structure(str(path), "domain") for path in sorted(FIXTURES.glob("*domain.json"))]
    doms += [m3(), chain(1), chain(4), pair_no_join(), nontransitive_poset(),
             nontransitive_poset(with_top=False), nontransitive_bdomain()]
    doms += [dom_of_es(load_structure(str(path), "es"))
             for path in sorted(FIXTURES.glob("*.es.json"))]
    return doms


def poset_draws(count: int, seed: int):
    """Seeded random posets of 1 to 11 elements, of both kinds, with and
    without a forced least element, valid as domains or not."""
    rng = random.Random(seed)
    return [random_poset(rng, rng.randint(1, 11), bottom=rng.random() < 0.8,
                         kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
            for _ in range(count)]


class TestOnePairPass:
    def test_agrees_with_the_three_passes_and_the_meet_loop(self):
        # random draws never break coherence; here a ⊔ b = ab is consistent
        # with neither x nor y, although a and b each are with both
        covers = [("0", "a"), ("0", "b"), ("0", "y"), ("0", "x"), ("a", "ab"), ("b", "ab"),
                  ("a", "axy"), ("y", "axy"), ("x", "axy"),
                  ("b", "bxy"), ("y", "bxy"), ("x", "bxy")]
        made = [FiniteDomain({x for c in covers for x in c}, covers, kind)
                for kind in (COHERENT, BOUNDED_COMPLETE)]
        verdicts = set()
        for dom in made + fixture_domains() + poset_draws(2400, 17):
            rep, ref = validate_domain(dom), reference_validate_domain(dom)
            assert (rep.ok, rep.condition, rep.witness) == (ref.ok, ref.condition, ref.witness)
            assert primes(dom) == reference_primes(dom)
            assert weak_primes(dom) == reference_weak_primes(dom)
            assert algebraicity(dom) == reference_algebraicity(dom)
            verdicts.add((dom.kind, rep.condition))
        # every verdict of both kinds occurs, so the comparison is not vacuous
        assert verdicts == {(kind, condition) for kind in (COHERENT, BOUNDED_COMPLETE)
                            for condition in (None, "no-least-element", "missing-join")} | {
            (COHERENT, "join-breaks-consistency")}

    def test_every_pair_of_a_valid_domain_has_a_meet(self):
        """Why ``validate_domain`` checks no meets.

        Let ``a``, ``b`` be elements of a valid domain and ``L`` their set
        of lower bounds.  ``L`` holds ``⊥``, so it is not empty, and every
        element of ``L`` lies below ``a``, so ``L`` is bounded and hence
        pairwise consistent.  Under either kind, consistent pairs have
        joins, so folding binary joins over ``L`` gives a join ``m`` of
        ``L`` (each partial join stays below ``a``, so the next pair is
        consistent too).  ``a`` and ``b`` are upper bounds of ``L``, so
        ``m ⊑ a`` and ``m ⊑ b``; thus ``m`` is in ``L`` and is its greatest
        element, the meet of ``a`` and ``b``.
        """
        rng = random.Random(29)
        es_doms = [dom_of_es(random_live_es(rng, max_events=4, conflict_p=0.3))
                   for _ in range(40)]
        doms = [dom for dom in fixture_domains() + es_doms + poset_draws(2400, 19)
                if validate_domain(dom).ok]
        assert len(doms) > 1500
        for dom in doms:
            for a, b in combinations(dom.elements, 2):
                assert dom.meet((a, b)) is not None, (dom.elements, a, b)

    def test_check_runs_the_pass_once(self, monkeypatch, capsys):
        """The certificate runs once per domain; the pair pass runs only on
        a domain that fails it, and then once too."""
        certified, passes = [], []

        def counted(dom, es, _real=domains._certify):
            certified.append(dom)
            return _real(dom, es)
        monkeypatch.setattr(domains, "_certify", counted)
        monkeypatch.setattr(domains, "_pair_pass",
                            lambda d, _real=domains._pair_pass: passes.append(d) or _real(d))
        assert cli.main(["check", "--domain", str(FIXTURES / "run.domain.json")]) == 0
        capsys.readouterr()
        assert (len(certified), passes) == (1, [])
        dom = load_structure(str(FIXTURES / "run.domain.json"), "domain")
        for ask in (validate_domain, primes, weak_primes, algebraicity, ev_of_domain):
            ask(dom)
        assert certified[1:] == [dom] and passes == []
        bad = m3()
        for ask in (validate_domain, primes, weak_primes, algebraicity):
            ask(bad)
        with pytest.raises(OrderError, match="not weak prime algebraic"):
            ev_of_domain(bad)
        assert certified[2:] == [bad] and passes == [bad]


class TestAlgebraicity:
    def test_run_domain(self, run_dom):
        alg = algebraicity(run_dom)
        assert (alg.irreducible_algebraic, alg.prime_algebraic,
                alg.weak_prime_algebraic) == (True, False, True)

    def test_ccs_domain(self, ccs_dom):
        alg = algebraicity(ccs_dom)
        assert (alg.irreducible_algebraic, alg.prime_algebraic,
                alg.weak_prime_algebraic) == (True, True, True)

    def test_m3(self):
        alg = algebraicity(m3())
        assert (alg.irreducible_algebraic, alg.prime_algebraic,
                alg.weak_prime_algebraic) == (True, False, False)

    def test_prime_algebraic_iff_primes_equal_irreducibles(self):
        rng = random.Random(59)
        doms = [dom_of_es(e_run()), dom_of_es(e_ccs()), m3(), chain(4)]
        doms += [random_weak_prime_domain(rng) for _ in range(10)]
        for dom in doms:
            assert algebraicity(dom).prime_algebraic == \
                (set(primes(dom)) == set(irreducible_elements(dom)))


class TestDecomposeDiff:
    def test_decompose_top(self, run_dom):
        assert decompose(run_dom, "{a,b,c}") == {"{a}", "{b}", "{a,c}", "{b,c}"}

    def test_decompose_bottom(self, run_dom):
        assert decompose(run_dom, "{}") == frozenset()

    def test_decompose_ab(self, run_dom):
        assert decompose(run_dom, "{a,b}") == {"{a}", "{b}"}

    def test_diff_examples(self, run_dom):
        assert diff(run_dom, "{a,b,c}", "{a,b}") == {"{a,c}", "{b,c}"}
        assert diff(run_dom, "{a,c}", "{a,c}") == frozenset()
        assert diff(run_dom, "{a,c}", "{a}") == {"{a,c}"}

    def test_diff_requires_order(self, run_dom):
        with pytest.raises(OrderError):
            diff(run_dom, "{a}", "{b}")

    def test_cover_diff_minimal_elements_interchangeable(self, run_dom):
        # the difference across a cover need not be flat, but its minimal
        # elements are pairwise interchangeable and regenerate the step
        rng = random.Random(61)
        doms = [run_dom] + [random_weak_prime_domain(rng) for _ in range(8)]
        for dom in doms:
            for a, b in dom.covers():
                delta = diff(dom, b, a)
                assert delta
                assert dom.join((a, min(delta))) == b
                mins = [i for i in delta
                        if not any(j != i and dom.leq(j, i) for j in delta)]
                for i, j in combinations(sorted(mins), 2):
                    assert interchangeable(dom, i, j)

    def test_unique_decomposition_up_to_classes(self, run_dom):
        # a downward-closed set of irreducibles joins to d iff its classes
        # agree with the classes of the irreducibles below d
        dom = run_dom
        classes = interchange_classes(dom)
        cls_of = {i: k for k, c in enumerate(classes) for i in c}
        irr = list(irreducible_elements(dom))
        for d in dom.elements:
            want = {cls_of[i] for i in decompose(dom, d)}
            for mask in range(1 << len(irr)):
                xs = {irr[t] for t in range(len(irr)) if mask >> t & 1}
                if not all(set(decompose(dom, i) - {i}) <= xs for i in xs):
                    continue  # not downward closed
                if not dom.consistent(xs):
                    continue
                got = dom.join(xs)
                if set(xs) <= set(decompose(dom, d)):
                    assert (got == d) == ({cls_of[i] for i in xs} == want)


class TestChainDecompositions:
    def test_linearisations_give_cover_chains(self, run_dom):
        rng = random.Random(67)
        doms = [run_dom] + [random_weak_prime_domain(rng) for _ in range(5)]
        for dom in doms:
            for d in dom.elements:
                irr = sorted(decompose(dom, d))
                for seq in permutations(irr):
                    if any(dom.leq(seq[k], seq[j]) for j in range(len(seq))
                           for k in range(j + 1, len(seq))):
                        continue  # not compatible with the order
                    cur = dom.bottom()
                    for i in seq:
                        nxt = dom.join((cur, i))
                        assert nxt is not None
                        assert cur == nxt or dom.is_cover(cur, nxt)
                        cur = nxt
                    assert cur == d
                    break  # one linearisation per element keeps this cheap

    def test_chain_steps_recover_classes(self, run_dom):
        # extracting a minimal irreducible per strict cover of any chain
        # reproduces the classes of the decomposition
        dom = run_dom
        classes = interchange_classes(dom)
        cls_of = {i: k for k, c in enumerate(classes) for i in c}

        def chains_from(d):
            if d == dom.bottom():
                yield [d]
                return
            for c in dom.lower_covers(d):
                for ch in chains_from(c):
                    yield ch + [d]

        for d in dom.elements:
            want = {cls_of[i] for i in decompose(dom, d)}
            for ch in chains_from(d):
                got = set()
                for lo, hi in zip(ch, ch[1:]):
                    delta = diff(dom, hi, lo)
                    mins = [i for i in delta
                            if not any(j != i and dom.leq(j, i) for j in delta)]
                    got.add(cls_of[min(mins)])
                assert got == want


# ---------------------------------------------------------------------- #
# The morphism check that went through the name-level consistent, join,
# meet and is_cover, kept verbatim as the reference of the one on indices.
# ---------------------------------------------------------------------- #

def reference_validate_domain_morphism(f: Mapping[str, str], dom1: FiniteDomain,
                                       dom2: FiniteDomain, strict: bool = False) -> Report:
    """Check the weak-prime-domain morphism conditions for a total map.

    Condition on covers is read permissively by default (a cover may be
    preserved or collapsed); ``strict=True`` demands genuine preservation.
    Joins of consistent subsets must be preserved, meets only when the meet
    is an immediate predecessor of one argument.  When both posets are prime
    algebraic, full meet preservation is additionally required.
    """
    for x in dom1.elements:
        if x not in f:
            return Report(False, "not-total", (x,))
        if f[x] not in dom2._idx:
            return Report(False, "unknown-target", (x, f[x]))
    for a, b in ((dom1.elements[i], dom1.elements[j]) for i, j in dom1._cover_pairs):
        if f[a] == f[b]:
            if strict:
                return Report(False, "cover-collapsed", (a, b))
            continue
        if not dom2.is_cover(f[a], f[b]):
            return Report(False, "cover-not-preserved", (a, b))
    # joins of consistent sets: the empty set plus consistent pairs suffice,
    # larger consistent sets follow by iterating binary joins
    b1, b2 = dom1.bottom(), dom2.bottom()
    if b1 is not None and b2 is not None and f[b1] != b2:
        return Report(False, "join-not-preserved", ())
    for a, b in combinations(dom1.elements, 2):
        if not dom1.consistent((a, b)):
            continue
        j1 = dom1.join((a, b))
        if j1 is None:
            continue
        j2 = dom2.join((f[a], f[b]))
        if j2 != f[j1]:
            return Report(False, "join-not-preserved", (a, b))
    for a, b in combinations(dom1.elements, 2):
        if not dom1.consistent((a, b)):
            continue
        m = dom1.meet((a, b))
        if m is None:
            continue
        if dom1.is_cover(m, a) or dom1.is_cover(m, b):
            m2 = dom2.meet((f[a], f[b]))
            if m2 != f[m]:
                return Report(False, "meet-not-preserved", (a, b))
    if algebraicity(dom1).prime_algebraic and algebraicity(dom2).prime_algebraic:
        # binary meets suffice: meets of larger nonempty sets iterate them
        for a, b in combinations(dom1.elements, 2):
            m1 = dom1.meet((a, b))
            m2 = dom2.meet((f[a], f[b]))
            if m1 is not None and m2 != f[m1]:
                return Report(False, "prime-meet-not-preserved", (a, b))
    return Report(True)


def morphism_cases():
    """``(f, dom1, dom2)``: the hand-made cases of ``TestDomainMorphisms``,
    ``dom_of_es_morphism`` images of seeded draws (identities, projections
    onto independent kept events, and random event maps), and the inclusions
    of down-closed and up-closed sub-posets of seeded posets and random maps
    into them, some of them not total."""
    run_dom, ccs_dom = dom_of_es(e_run()), dom_of_es(e_ccs())
    target = EventStructure.binary(["c'"], enabling=[((), "c'")])
    cases = [({x: x for x in run_dom.elements}, run_dom, run_dom),
             (dom_of_es_morphism({"c": "c'"}, e_run(), target), run_dom, dom_of_es(target)),
             ({"c0": "x", "c1": "y"}, chain(1), FiniteDomain("bxy", [("b", "x"), ("b", "y")])),
             ({x: "c0" for x in run_dom.elements}, run_dom, chain(1)),
             ({x: x for x in ccs_dom.elements}, ccs_dom, ccs_dom)]
    rng = random.Random(41)
    for _ in range(300):
        src = random_live_es(rng, max_events=5)
        events = sorted(src.events)
        how = rng.random()
        if how < 0.3:
            dst, f = src, {e: e for e in events}
        elif how < 0.6:
            kept = [e for e in events if rng.random() < 0.6]
            dst, f = EventStructure.binary(kept, (), [((), e) for e in kept]), {e: e for e in kept}
        else:
            dst = random_live_es(rng, max_events=5)
            f = {e: rng.choice(sorted(dst.events)) for e in events if rng.random() < 0.7}
        cases.append((dom_of_es_morphism(f, src, dst), dom_of_es(src), dom_of_es(dst)))
    for _ in range(1500):
        q = random_poset(rng, rng.randint(2, 9), bottom=rng.random() < 0.8,
                         kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
        pick = [x for x in q.elements if rng.random() < 0.5] or [q.elements[0]]
        how = rng.random()
        if how < 0.4:
            s = {x for x in q.elements if any(q.leq(x, y) for y in pick)}
        elif how < 0.7:
            s = {x for x in q.elements if any(q.leq(y, x) for y in pick)}
        else:
            s = set(q.elements)
        p = FiniteDomain(s, [(a, b) for a in s for b in s if a != b and q.leq(a, b)], q.kind)
        f = {x: x for x in s} if how < 0.7 else {x: rng.choice(q.elements) for x in s}
        if rng.random() < 0.05:
            f.pop(rng.choice(sorted(f)))
        cases.append((f, p, q))
    return cases


class TestMorphismsOnIndices:
    def test_agrees_with_the_name_level_check(self):
        conditions = set()
        for f, dom1, dom2 in morphism_cases():
            for strict in (False, True):
                rep = validate_domain_morphism(f, dom1, dom2, strict)
                ref = reference_validate_domain_morphism(f, dom1, dom2, strict)
                assert (rep.ok, rep.condition, rep.witness) == \
                    (ref.ok, ref.condition, ref.witness)
                conditions.add(rep.condition)
        # every verdict occurs, so the comparison is not vacuous
        assert conditions == {None, "not-total", "unknown-target", "cover-collapsed",
                              "cover-not-preserved", "join-not-preserved",
                              "meet-not-preserved", "prime-meet-not-preserved"}


class TestDomainMorphisms:
    def test_identity(self, run_dom):
        f = {x: x for x in run_dom.elements}
        assert validate_domain_morphism(f, run_dom, run_dom).ok

    def test_forget_a_b_image(self, run_dom):
        # the image of the "forget a and b" map: meets may collapse
        from weavent.es import EventStructure
        from weavent.fixtures import e_run
        target = EventStructure.binary(["c'"], enabling=[((), "c'")])
        f = dom_of_es_morphism({"c": "c'"}, e_run(), target)
        dom2 = dom_of_es(target)
        rep = validate_domain_morphism(f, run_dom, dom2)
        assert rep.ok
        # general meets are not preserved here
        img_meet = dom2.meet((f["{a,c}"], f["{b,c}"]))
        assert img_meet != f[run_dom.meet(("{a,c}", "{b,c}"))]

    def test_cover_to_incomparable_fails(self):
        d1 = chain(1)
        d2 = FiniteDomain("bxy", [("b", "x"), ("b", "y")])
        rep = validate_domain_morphism({"c0": "x", "c1": "y"}, d1, d2)
        assert not rep.ok and rep.condition == "cover-not-preserved"

    def test_strict_mode_rejects_collapse(self, run_dom):
        f = {x: "c0" for x in run_dom.elements}
        d2 = chain(1)
        assert validate_domain_morphism(f, run_dom, d2).ok
        rep = validate_domain_morphism(f, run_dom, d2, strict=True)
        assert not rep.ok and rep.condition == "cover-collapsed"

    def test_prime_domains_preserve_meets(self, ccs_dom):
        f = {x: x for x in ccs_dom.elements}
        assert validate_domain_morphism(f, ccs_dom, ccs_dom).ok


class TestCovers:
    @staticmethod
    def by_name(dom):
        """The covers as named pairs sorted by name, the order ``covers()``
        promises."""
        return tuple(sorted((dom.elements[a], dom.elements[b]) for a, b in dom._cover_pairs))

    def test_index_order_is_name_order(self):
        rng = random.Random(29)
        doms = [random_poset(rng, rng.randint(1, 12), bottom=rng.random() < 0.5)
                for _ in range(60)]
        # user-built domains: names whose sorted order is not the order of
        # construction, a cover given twice, a transitive cover, one element
        doms += [FiniteDomain(["z", "b10", "b9", "B", "é", "a b"],
                              [("z", "b9"), ("b10", "b9"), ("B", "z"), ("B", "b9"),
                               ("a b", "é"), ("z", "b9")]),
                 FiniteDomain(["only"], []), m3(), nontransitive_bdomain(),
                 dom_of_es(e_ccs())]
        for dom in doms:
            assert dom.covers() == self.by_name(dom)

    def test_computed_once(self, run_dom):
        assert run_dom.covers() is run_dom.covers()
