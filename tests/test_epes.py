import random
from pathlib import Path

import pytest

from weavent.es import EsError, EventStructure, classify
from weavent.domains import BOUNDED_COMPLETE, COHERENT, OrderError, algebraicity
from weavent.duality import (Epes, dom_of_es, epes_dom, epes_ev,
                             epes_is_connected, epes_isomorphic, es_isomorphic,
                             fuse, poset_isomorphic, unfold, validate_epes)
from weavent.fixtures import chain, e_ccs, e_joint, e_run, e_split
from weavent.io import load_structure
from tests._gen import random_consistency_es, random_live_es, random_poset

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def unfolded_run():
    return unfold(e_run())


class TestUnfold:
    def test_run_instances(self, unfolded_run):
        assert len(unfolded_run.base.events) == 4
        nontrivial = [b for b in unfolded_run.equiv if len(b) > 1]
        assert len(nontrivial) == 1
        assert len(nontrivial[0]) == 2  # the two histories of c

    def test_joint_enabling_single_instance(self):
        p = unfold(e_joint())
        assert len(p.base.events) == 3
        assert all(len(b) == 1 for b in p.equiv)

    def test_prime_input_identity_equivalence(self):
        p = unfold(e_ccs())
        assert all(len(b) == 1 for b in p.equiv)
        assert es_isomorphic(p.base, e_ccs()) is not None

    def test_result_is_valid_epes(self, unfolded_run):
        ok, diags = validate_epes(unfolded_run)
        assert ok, diags
        assert classify(unfolded_run.base).prime

    def test_connected_flag(self, unfolded_run):
        assert epes_is_connected(unfolded_run)
        # identifying the two conflicting instances breaks connectedness
        split = Epes(e_split(), frozenset({frozenset({"c1", "c2"}),
                                           frozenset({"a"}), frozenset({"b"})}))
        assert validate_epes(split)[0]
        assert not epes_is_connected(split)


class TestFuse:
    def test_fuse_unfold_run(self, unfolded_run):
        assert es_isomorphic(fuse(unfolded_run), e_run()) is not None

    def test_identity_equivalence_is_noop(self):
        p = unfold(e_ccs())
        assert es_isomorphic(fuse(p), e_ccs()) is not None

    def test_roundtrip_on_fixtures(self):
        for es in (e_run(), e_ccs(), e_joint(), e_split()):
            assert es_isomorphic(fuse(unfold(es)), es) is not None

    def test_roundtrip_random(self):
        rng = random.Random(97)
        for _ in range(15):
            es = random_live_es(rng, max_events=4)
            assert es_isomorphic(fuse(unfold(es)), es) is not None

    def test_unfold_fuse_roundtrip(self, unfolded_run):
        for p in (unfolded_run, unfold(e_ccs()), unfold(e_split())):
            assert epes_isomorphic(unfold(fuse(p)), p) is not None


class TestEpesDom:
    def test_unfolded_run_matches_run_domain(self, unfolded_run):
        dom = epes_dom(unfolded_run)
        assert poset_isomorphic(dom, dom_of_es(e_run())) is not None
        assert algebraicity(dom).weak_prime_algebraic

    def test_identity_equivalence_gives_base_domain(self):
        p = unfold(e_ccs())
        assert poset_isomorphic(epes_dom(p), dom_of_es(e_ccs())) is not None

    def test_conflicting_instances_saturate_vacuously(self):
        # c1 ~ c2 are in conflict, so saturation never merges their steps
        p = Epes(e_split(), frozenset({frozenset({"c1", "c2"}),
                                       frozenset({"a"}), frozenset({"b"})}))
        dom = epes_dom(p)
        assert len(dom.elements) == 5

    def test_invalid_epes_rejected(self):
        base = e_ccs()  # a < c, so a ~ c violates the causality axiom
        bad = Epes(base, frozenset({frozenset({"a", "c"}), frozenset({"b"})}))
        ok, diags = validate_epes(bad)
        assert not ok
        with pytest.raises(EsError):
            epes_dom(bad)


class TestEpesEv:
    def test_run_domain(self):
        p = epes_ev(dom_of_es(e_run()))
        assert len(p.base.events) == 4
        sizes = sorted(len(b) for b in p.equiv)
        assert sizes == [1, 1, 2]

    def test_prime_domain_identity(self):
        p = epes_ev(dom_of_es(e_ccs()))
        assert all(len(b) == 1 for b in p.equiv)

    def test_chain(self):
        p = epes_ev(chain(2))
        assert len(p.base.events) == 2
        assert all(len(b) == 1 for b in p.equiv)

    def test_epes_dom_of_epes_ev_roundtrip(self):
        for dom in (dom_of_es(e_run()), dom_of_es(e_ccs()), chain(3)):
            p = epes_ev(dom)
            assert poset_isomorphic(epes_dom(p), dom) is not None

    def test_is_a_valid_epes(self):
        # epes_ev does not validate what it builds; its input guard is enough
        doms = [load_structure(str(path), "domain")
                for path in sorted(FIXTURES.glob("*domain.json"))]
        doms += [dom_of_es(load_structure(str(path), "es"))
                 for path in sorted(FIXTURES.glob("*.es.json"))]
        rng = random.Random(5)
        doms += [random_poset(rng, rng.randint(2, 7), True, kind)
                 for kind in (COHERENT, BOUNDED_COMPLETE) for _ in range(300)]
        doms += [dom_of_es(random_consistency_es(rng, live=True)) for _ in range(40)]
        kinds = set()
        for dom in doms:
            try:
                p = epes_ev(dom)
            except OrderError:
                continue
            assert validate_epes(p) == (True, ())
            kinds.add(dom.kind)
        assert kinds == {COHERENT, BOUNDED_COMPLETE}

    def test_fuse_of_epes_ev_recovers_es(self):
        p = epes_ev(dom_of_es(e_run()))
        assert es_isomorphic(fuse(p), e_run()) is not None
