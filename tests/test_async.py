import hashlib
import random
from itertools import combinations
from pathlib import Path

import pytest

from weavent import asyncgraphs, cli
from weavent import io as iomod
from weavent.asyncgraphs import (AsyncError, AsyncGraph, async_domain,
                                 hasse_as_async, validate_async_graph,
                                 _end, _origin_path_classes, _path_classes)
from weavent.duality import dom_of_es, poset_isomorphic
from weavent.es import EventStructure
from weavent.fixtures import chain, e_ccs, e_run, e_three_independent, m3
from tests._gen import random_async_graph, random_weak_prime_domain

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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

    def test_axiom2_diagnostic_names_the_first_failing_pairs(self):
        # expected texts computed with the scan over all pairs of related
        # 2-paths; the scan by first edge must stop at the same pairs
        m3_graph = hasse_as_async(m3())
        # all four 2-paths through the parallel edges form one square class,
        # so several pairs fail against the first failing one
        parallel = AsyncGraph.build(
            ["n0", "n1", "n2"],
            [("e0", "n1", "n2"), ("e1", "n0", "n1"), ("e2", "n0", "n1"),
             ("e3", "n1", "n2")],
            "n0",
            [(("e1", "e0"), ("e1", "e3")), (("e1", "e3"), ("e2", "e3")),
             (("e2", "e0"), ("e2", "e3"))])
        for a, expected in (
                (m3_graph, "axiom2: ('b>x', 'x>t')~('b>y', 'y>t') "
                           "vs ('b>x', 'x>t')~('b>z', 'z>t')"),
                (parallel, "axiom2: ('e1', 'e0')~('e1', 'e3') "
                           "vs ('e1', 'e0')~('e2', 'e0')")):
            rep = validate_async_graph(a)
            assert not rep.axiom2
            assert [d for d in rep.diagnostics if d.startswith("axiom2")] == [expected]

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

    def test_report_is_computed_once_per_graph(self, run_async):
        assert validate_async_graph(run_async) is validate_async_graph(run_async)

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
            cls, _ = _square_classes(a)
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


def _oracle_classes(a):
    """Least members (by class number), end nodes and prefix order of the
    classes, read off the enumeration of every origin path."""
    pcls, paths = _origin_path_classes(a)
    least, ends = {}, {}
    for w in paths:  # sorted, so the first member seen is the least
        least.setdefault(pcls[w], w)
        ends.setdefault(pcls[w], set()).add(_end(a, w))
    order = {(pcls[w[:j]], pcls[w]) for w in paths for j in range(len(w) + 1)}
    return [least[k] for k in range(len(least))], [ends[k] for k in range(len(ends))], order


def _closure(n, links):
    succ = {k: [] for k in range(n)}
    for j, k in links:
        succ[j].append(k)
    order = set()
    for j in range(n):
        todo, seen = [j], {j}
        while todo:
            x = todo.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        order |= {(j, k) for k in seen}
    return order


class TestPathClasses:
    """Classes grown depth by depth against the all-paths enumeration."""

    @staticmethod
    def _check(a):
        least, links = _path_classes(a)
        o_least, o_ends, o_order = _oracle_classes(a)
        assert list(least) == o_least
        assert [{_end(a, w)} for w in least] == o_ends
        assert _closure(len(least), links) == o_order
        cofinal = len({_end(a, w) for w in o_least}) == len(o_least)
        assert validate_async_graph(a).all_cofinal_equivalent == cofinal
        return cofinal

    def test_random_dags_with_partial_squares(self):
        rng = random.Random(131)
        verdicts = [self._check(random_async_graph(rng)) for _ in range(400)]
        assert True in verdicts and False in verdicts

    def test_hasse_graphs_of_weak_prime_domains(self):
        rng = random.Random(137)
        for _ in range(12):
            assert self._check(hasse_as_async(random_weak_prime_domain(rng)))

    @pytest.mark.parametrize("name", ["run.async.json", "ccs.async.json"])
    def test_fixtures(self, name):
        assert self._check(iomod.load_structure(str(FIXTURES / name), "asyncgraph"))

    def test_async_job_validates_and_grows_classes_once(self, monkeypatch, capsys):
        calls = []
        for name in ("_validate", "_grow_path_classes"):
            def counted(a, _name=name, _compute=getattr(asyncgraphs, name)):
                calls.append(_name)
                return _compute(a)
            monkeypatch.setattr(asyncgraphs, name, counted)

        def enumerate_paths(a):
            raise AssertionError("an async job enumerated origin paths")
        monkeypatch.setattr(asyncgraphs, "_origin_path_classes", enumerate_paths)
        assert cli.main(["async", "--async", str(FIXTURES / "run.async.json"), "--weak"]) == 0
        assert '"path_classes": 7' in capsys.readouterr().out
        assert sorted(calls) == ["_grow_path_classes", "_validate"]


def _family(name, n):
    """B_n (n independent events), X_n (n binary choices) or L_n (n copies
    of the running structure, where c is enabled by a or by b)."""
    if name == "B":
        events = [f"e{i}" for i in range(n)]
        return EventStructure.binary(events, (), [((), e) for e in events])
    if name == "X":
        events = [x for i in range(n) for x in (f"x{i}", f"y{i}")]
        return EventStructure.binary(events, [(f"x{i}", f"y{i}") for i in range(n)],
                                     [((), e) for e in events])
    events, enabling = [], []
    for i in range(n):
        events += [f"a{i}", f"b{i}", f"c{i}"]
        enabling += [((), f"a{i}"), ((), f"b{i}"), ((f"a{i}",), f"c{i}"), ((f"b{i}",), f"c{i}")]
    return EventStructure.binary(events, (), enabling)


def _record(a):
    """The report (diagnostics included), the origin-path classes and the
    domain of ``a``, as far as each is defined, as one text."""
    rep = validate_async_graph(a)
    text = repr(rep)
    if rep.acyclic:
        least, links = _path_classes(a)
        text += repr((least, sorted(links)))
    if rep.weak_prime():
        dom = async_domain(a)
        text += repr((sorted(dom.elements), sorted(dom.covers())))
    return rep, text


class TestPinnedReports:
    """Reports, path classes and domains pinned to the values computed by
    the validator that scanned out-edges for every cube and coherence
    conclusion; the lookups in the square classes must reproduce them,
    first witnesses included."""

    def test_random_graphs(self):
        rng = random.Random(2027)
        digest = hashlib.sha256()
        reports = []
        for _ in range(3000):
            rep, text = _record(random_async_graph(rng))
            digest.update(text.encode() + b"\n")
            reports.append(rep)
        assert digest.hexdigest() == \
            "fdedff8a55a3fec9af2f7e3611b5506b66199a1126b4f35db7b66a543824fece"
        failures = [sum(not getattr(r, k) for r in reports)
                    for k in ("cube_up", "cube_down", "coherence")]
        assert failures == [62, 61, 410]
        assert reports[3].diagnostics == (
            "nodes unreachable from the origin",
            "axiom2: ('e0', 'e5')~('e1', 'e5') vs ('e0', 'e5')~('e2', 'e4')",
            "coherence fails at ('e0', ('e1', 'e5'), ('e2', 'e4'), ('e5', 'e4'))",
            "inequivalent cofinal paths from the origin")
        assert reports[12].diagnostics == (
            "nodes unreachable from the origin",
            "axiom1: ('e17', 'e11') ~ ('e17', 'e18')",
            "axiom2: ('e1', 'e0')~('e5', 'e0') vs ('e1', 'e19')~('e5', 'e19')",
            "cube (upward) fails at ('e3', ('e16', 'e0', 'e11'), ('e9', 'e0', 'e18'))",
            "cube (downward/stability) fails at ('n0', ('e16', 'e19', 'e4'), ('e3', 'e1', 'e2'))",
            "coherence fails at ('e1', ('e5', 'e0'), ('e17', 'e11'), ('e19', 'e18'))",
            "inequivalent cofinal paths from the origin")

    @pytest.mark.parametrize("name,n,expected", [
        ("B", 6, "bba0a5bd2820caab774e86fd4e524bba1e559dd4279d4e08f6ee109296fb8d49"),
        ("X", 3, "331225d93ded6bfb97037c2ed9777ef1507897945bc24fc08e6c2e72911aac4e"),
        ("L", 2, "788e683af5c575eaf33b9184255e08929ab074ee727b7c801d944559ac196472"),
        ("L", 3, "9bd9d251bc7456dba840b0bc83087d22bbf29906a6df7348f27a4511a07d7b31"),
    ])
    def test_hasse_graphs(self, name, n, expected):
        rep, text = _record(hasse_as_async(dom_of_es(_family(name, n))))
        assert hashlib.sha256(text.encode()).hexdigest() == expected
        # L_n is unstable, so its graph fails only the downward cube
        assert rep.cube_down == (name != "L")
        assert rep.weak_prime()

    def test_hasse_graph_cube_down_witness(self):
        rep = validate_async_graph(hasse_as_async(dom_of_es(_family("L", 2))))
        assert rep.diagnostics == (
            "cube (downward/stability) fails at ('{a0,b0,c0}', "
            "('{a0,b0,c0}>{a0,a1,b0,c0}', '{a0,a1,b0,c0}>{a0,a1,b0,c0,c1}', "
            "'{a0,a1,b0,c0,c1}>{a0,a1,b0,b1,c0,c1}'), "
            "('{a0,b0,c0}>{a0,b0,b1,c0}', '{a0,b0,b1,c0}>{a0,b0,b1,c0,c1}', "
            "'{a0,b0,b1,c0,c1}>{a0,a1,b0,b1,c0,c1}'))",)


class TestHasseAsAsync:
    def test_squares_are_the_coinitial_cofinal_pairs(self):
        doms = [iomod.load_structure(str(p), "domain")
                for p in sorted(FIXTURES.glob("*.domain.json"))]
        doms += [dom_of_es(e) for e in (e_run(), e_ccs(), e_three_independent())]
        for dom in doms:
            if dom.bottom() is None:
                continue
            a = hasse_as_async(dom)
            p2 = a.paths2()
            assert a.squares == {frozenset((p, q)) for p, q in combinations(p2, 2)
                                 if a.src(p[0]) == a.src(q[0]) and a.tgt(p[1]) == a.tgt(q[1])}
