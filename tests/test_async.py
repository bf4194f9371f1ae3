import random
from itertools import combinations

import pytest

from weavent.asyncgraphs import (AsyncError, AsyncGraph, async_domain,
                                 hasse_as_async, validate_async_graph,
                                 _origin_path_classes)
from weavent.duality import dom_of_es, poset_isomorphic
from weavent.fixtures import chain, e_ccs, e_run, e_three_independent, m3
from tests._gen import random_weak_prime_domain


@pytest.fixture(scope="module")
def run_async():
    return hasse_as_async(dom_of_es(e_run()))


@pytest.fixture(scope="module")
def ccs_async():
    return hasse_as_async(dom_of_es(e_ccs()))


class TestValidation:
    def test_ccs_domain_full(self, ccs_async):
        rep = validate_async_graph(ccs_async)
        assert rep.full_valid() and rep.prime()

    def test_run_domain_weak_only(self, run_async):
        rep = validate_async_graph(run_async)
        assert rep.weak_valid() and rep.weak_prime()
        assert not rep.cube_down
        assert not rep.full_valid()

    def test_single_edge(self):
        a = AsyncGraph.build(["o", "x"], [("e", "o", "x")], "o")
        rep = validate_async_graph(a)
        assert rep.full_valid() and rep.prime()

    def test_cube_fixture(self):
        a = hasse_as_async(dom_of_es(e_three_independent()))
        rep = validate_async_graph(a)
        assert rep.full_valid() and rep.prime()

    def test_m3_fails_axiom2(self):
        rep = validate_async_graph(hasse_as_async(m3()))
        assert not rep.axiom2

    def test_cube_up_failure_detected(self):
        a = AsyncGraph.build(
            ["o", "x", "y", "m", "p", "q", "T"],
            [("ox", "o", "x"), ("oy", "o", "y"), ("om", "o", "m"),
             ("mp", "m", "p"), ("mq", "m", "q"), ("xp", "x", "p"),
             ("yq", "y", "q"), ("pT", "p", "T"), ("qT", "q", "T")],
            "o",
            [(("ox", "xp"), ("om", "mp")), (("oy", "yq"), ("om", "mq"))])
        rep = validate_async_graph(a)
        assert rep.axiom1 and rep.axiom2
        assert not rep.cube_up

    def test_malformed_square_rejected(self):
        with pytest.raises(AsyncError):
            a = AsyncGraph.build(["o", "x", "y"],
                                 [("e1", "o", "x"), ("e2", "o", "y")], "o",
                                 [(("e1", "e2"), ("e2", "e1"))])
            validate_async_graph(a)

    def test_cycle_detected(self):
        a = AsyncGraph.build(["o", "x"], [("e1", "o", "x"), ("e2", "x", "o")], "o")
        rep = validate_async_graph(a)
        assert not rep.acyclic

    def test_at_most_two_inequivalent_two_paths(self, run_async, ccs_async):
        rng = random.Random(113)
        graphs = [run_async, ccs_async,
                  hasse_as_async(dom_of_es(e_three_independent()))]
        graphs += [hasse_as_async(random_weak_prime_domain(rng)) for _ in range(8)]
        for a in graphs:
            rep = validate_async_graph(a)
            if not rep.weak_valid():
                continue
            from weavent.asyncgraphs import _square_classes
            cls = _square_classes(a)
            span = {}
            for (e1, e2), k in cls.items():
                key = (a.src(e1), a.tgt(e2))
                span.setdefault(key, set()).add(k)
            assert all(len(v) <= 2 for v in span.values())


class TestAsyncDomain:
    def test_run_domain_roundtrip(self, run_async):
        dom = async_domain(run_async)
        assert poset_isomorphic(dom, dom_of_es(e_run())) is not None

    def test_ccs_domain_roundtrip(self, ccs_async):
        dom = async_domain(ccs_async)
        assert poset_isomorphic(dom, dom_of_es(e_ccs())) is not None

    def test_single_edge_chain(self):
        a = AsyncGraph.build(["o", "x"], [("e", "o", "x")], "o")
        assert len(async_domain(a).elements) == 2

    def test_random_weak_prime_roundtrips(self):
        rng = random.Random(127)
        for _ in range(8):
            dom = random_weak_prime_domain(rng)
            back = async_domain(hasse_as_async(dom))
            assert poset_isomorphic(back, dom) is not None

    def test_rejects_invalid(self):
        a = AsyncGraph.build(
            ["o", "x", "y", "t"],
            [("ox", "o", "x"), ("oy", "o", "y"),
             ("xt", "x", "t"), ("yt", "y", "t")],
            "o")  # no squares declared: cofinal paths are inequivalent
        with pytest.raises(AsyncError):
            async_domain(a)

    def test_path_classes_collapse_to_nodes(self, run_async):
        pcls, paths = _origin_path_classes(run_async)
        ends = {}
        for w in paths:
            node = run_async.origin if not w else run_async.tgt(w[-1])
            ends.setdefault(node, set()).add(pcls[w])
        assert all(len(v) == 1 for v in ends.values())
