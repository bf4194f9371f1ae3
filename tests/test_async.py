import hashlib
import random
from itertools import combinations
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from weavent import asyncgraphs, cli, oracles
from weavent import io as iomod
from weavent.asyncgraphs import (AsyncError, AsyncGraph, AsyncReport, Path2,
                                 async_domain, hasse_as_async, validate_async_graph,
                                 _end, _is_acyclic, _path_classes, _reachable,
                                 _square_classes)
from weavent.domains import FiniteDomain
from weavent.duality import dom_of_es
from weavent.es import EventStructure
from weavent.fixtures import chain, e_ccs, e_run, e_three_independent, m3
from weavent.oracles import _origin_path_classes, poset_isomorphic
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

    @staticmethod
    def _by_definition(a):
        """The domain as ``FiniteDomain`` builds it from the path classes'
        ids and links, checking and reducing them."""
        least, links = _path_classes(a)
        ids = [f"p{k}:{';'.join(w) or 'ε'}" for k, w in enumerate(least)]
        return FiniteDomain(ids, [(ids[j], ids[k]) for j, k in links])

    def test_domain_of_the_links_is_the_checked_one(self):
        graphs = [hasse_as_async(dom_of_es(_family(name, n)))
                  for name, n in (("B", 6), ("X", 3), ("L", 2), ("L", 3))]
        rng = random.Random(2027)  # the draws of TestPinnedReports
        graphs += [a for a in (random_async_graph(rng) for _ in range(600))
                   if validate_async_graph(a).weak_prime()]
        assert len(graphs) > 30
        for a in graphs:
            dom, ref = async_domain(a), self._by_definition(a)
            assert dom.elements == ref.elements
            assert dom.covers() == ref.covers()
            assert (dom._down, dom._up) == (ref._down, ref._up)

    def test_async_then_weak_builds_the_domain_once(self, monkeypatch, capsys):
        built = []
        compute = async_domain.__wrapped__
        monkeypatch.setattr(async_domain, "__wrapped__",
                            lambda a: built.append(a) or compute(a))
        path = str(FIXTURES / "run.async.json")
        # run is unstable: the full check exits 1, the weak one 0
        assert cli.main(["async", "--async", path]) == 1
        assert cli.main(["async", "--async", path, "--weak"]) == 0
        assert capsys.readouterr().out.count('"path_classes": 7') == 2
        assert len(built) == 1

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
        for fn in (validate_async_graph, _path_classes):
            def counted(a, _name=fn.__name__, _compute=fn.__wrapped__):
                calls.append(_name)
                return _compute(a)
            monkeypatch.setattr(fn, "__wrapped__", counted)

        def enumerate_paths(a):
            raise AssertionError("an async job enumerated origin paths")
        monkeypatch.setattr(oracles, "_origin_path_classes", enumerate_paths)
        assert cli.main(["async", "--async", str(FIXTURES / "run.async.json"), "--weak"]) == 0
        assert '"path_classes": 7' in capsys.readouterr().out
        assert sorted(calls) == ["_path_classes", "validate_async_graph"]


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


def _ordered_premises(a):
    """How many premises the plain walks meet, each unordered one in both
    orders: lower medians (m, u1, u2, v1, v2) and upper medians
    (u1, w1, v1, w2) with u1 != v1."""
    cls, members = _square_classes(a)
    lower = upper = 0
    for m in a.edges:
        sides = [q for c in a.out_edges(a.tgt(m)) for q in members[cls[(m, c)]] if q[0] != m]
        lower += sum(1 for u in sides for v in sides if u[0] != v[0])
    for u1 in a.edges:
        upper += sum(1 for w1 in a.out_edges(a.tgt(u1))
                     for v1, _ in members[cls[(u1, w1)]] if v1 != u1)
    return lower, upper


class TestEachUnorderedPremiseOnce:
    """The upward cube and coherence share one walk of the lower medians,
    and the downward cube walks the upper medians with u1 < v1: each
    unordered premise is evaluated once, never also its mirror."""

    @staticmethod
    def _walked(monkeypatch, a):
        walked = {"_lower_medians": [], "_upper_medians": []}
        for name, got in walked.items():
            def counted(*args, _walk=getattr(asyncgraphs, name), _got=got):
                for premise in _walk(*args):
                    _got.append(premise)
                    yield premise
            monkeypatch.setattr(asyncgraphs, name, counted)
        validate_async_graph.__wrapped__(a)
        return walked["_lower_medians"], walked["_upper_medians"]

    @pytest.mark.parametrize("name,n,lower,upper", [("B", 6, 480, 240), ("L", 2, 162, 30)])
    def test_premises_evaluated(self, monkeypatch, name, n, lower, upper):
        a = hasse_as_async(dom_of_es(_family(name, n)))
        walked_lower, walked_upper = self._walked(monkeypatch, a)
        assert (len(walked_lower), len(walked_upper)) == (lower, upper)
        ordered_lower, ordered_upper = _ordered_premises(a)
        # both pass the upward cube and coherence, so the lower walk is whole
        assert 2 * lower == ordered_lower
        mirrors = {(m, v1, v2, u1, u2) for m, u1, u2, v1, v2 in walked_lower}
        assert mirrors.isdisjoint(walked_lower)
        assert all(u1 < v1 for _, u1, v1, _, _ in walked_upper)
        # B_6 passes the downward cube, L_2 stops at its witness
        if name == "B":
            assert 2 * upper == ordered_upper
        else:
            assert 2 * upper < ordered_upper
            b, u1, v1, _, _ = walked_upper[-1]
            assert validate_async_graph(a).diagnostics[0].startswith(
                f"cube (downward/stability) fails at ({b!r}, ({u1!r}, ")


# ---------------------------------------------------------------------- #
# The validator whose premises scanned out-edges and kept the candidates of
# one square class, kept verbatim as the reference of the walks over the
# classes' members.
# ---------------------------------------------------------------------- #

def reference_validate(a: AsyncGraph) -> AsyncReport:
    diags = []
    cls, members = _square_classes(a)
    acyclic = _is_acyclic(a)
    reachable = _reachable(a)
    if not acyclic:
        diags.append("graph has a cycle")
    if not reachable:
        diags.append("nodes unreachable from the origin")

    # ordered distinct related pairs of length-2 paths
    related = [(p, q) for ms in members for p in ms for q in ms if p != q]

    axiom1 = True
    for p, q in related:
        if p[1] != q[1] and p[0] == q[0]:
            axiom1 = False
            diags.append(f"axiom1: {p} ~ {q}")
            break
    by_first: Dict[str, List[Tuple[Path2, Path2]]] = {}  # in the order of related
    for p, q in related:
        by_first.setdefault(p[0], []).append((p, q))
    axiom2 = True
    for p, q in related:
        for p2, q2 in by_first[p[0]]:
            if (p[1] == p2[1]) != (q[0] == q2[0]):
                axiom2 = False
                diags.append(f"axiom2: {p}~{q} vs {p2}~{q2}")
                break
        if not axiom2:
            break

    # Every pair below is a pair of 2-paths, and the members of a class
    # share their source and their target; so a conclusion that asks for
    # edges closing a square is a question about the classes' members.
    firsts = [{p[0] for p in ms} for ms in members]  # first edges per class
    edges_from = a._out
    tgt = {e: t for e, (_, t) in a.edges.items()}

    def lower_medians() -> Iterator[Tuple[str, str, str, str, str]]:
        # the premise shared by the upward cube and coherence: lower median
        # squares m;c1 ~ u1;u2 and m;c2 ~ v1;v2 with m, u1 and v1 distinct
        for m in sorted(a.edges):
            after_m = edges_from[tgt[m]]
            for c1 in after_m:
                for u1, u2 in members[cls[(m, c1)]]:
                    if u1 == m:
                        continue
                    for c2 in after_m:
                        for v1, v2 in members[cls[(m, c2)]]:
                            if v1 != m and v1 != u1:
                                yield m, u1, u2, v1, v2

    def cube_up_holds() -> Optional[tuple]:
        # premise: a lower median, outer paths extended by u3, v3 to a
        # common target; conclusion: an upper median closes the three faces.
        for m, u1, u2, v1, v2 in lower_medians():
            after_v2 = edges_from[tgt[v2]]
            for u3 in edges_from[tgt[u2]]:
                top = tgt[u3]
                for v3 in after_v2:
                    if (tgt[v3] == top
                            and not _cube_up_conclusion(u1, u2, u3, v1, v2, v3)):
                        return (m, (u1, u2, u3), (v1, v2, v3))
        return None

    def _cube_up_conclusion(u1, u2, u3, v1, v2, v3) -> bool:
        # w1;z ~ u2;u3 and w2;z ~ v2;v3 with u1;w1 ~ v1;w2
        return any(z == z2 and cls[(u1, w1)] == cls[(v1, w2)]
                   for w1, z in members[cls[(u2, u3)]]
                   for w2, z2 in members[cls[(v2, v3)]])

    def cube_down_holds() -> Optional[tuple]:
        # premise: u1;w1 ~ v1;w2 meeting at an upper median, with outer
        # paths through u2;u3 ~ w1;z and v2;v3 ~ w2;z; conclusion: a lower
        # median m with m;c1 ~ u1;u2 and m;c2 ~ v1;v2.
        # the loops run in the order of the plain premise, so the first
        # witness is the same; what an inner loop rereads is looked up once
        for b in sorted(a.nodes):
            for u1 in edges_from[b]:
                after_u1 = edges_from[tgt[u1]]
                for v1 in edges_from[b]:
                    if v1 == u1:
                        continue
                    after_v1 = edges_from[tgt[v1]]
                    for w1 in after_u1:
                        side = cls[(u1, w1)]
                        after_w1 = edges_from[tgt[w1]]
                        for w2 in after_v1:
                            if side != cls[(v1, w2)]:
                                continue
                            for u2 in after_u1:
                                first_u = firsts[cls[(u1, u2)]]
                                for u3 in edges_from[tgt[u2]]:
                                    outer_u = cls[(u2, u3)]
                                    for z in after_w1:
                                        if outer_u != cls[(w1, z)]:
                                            continue
                                        outer_v = cls[(w2, z)]
                                        for v2 in after_v1:
                                            for v3 in edges_from[tgt[v2]]:
                                                if cls[(v2, v3)] != outer_v:
                                                    continue
                                                if not first_u & firsts[cls[(v1, v2)]]:
                                                    return (b, (u1, u2, u3), (v1, v2, v3))
        return None

    def coherence_holds() -> Optional[tuple]:
        # premise: a lower median and a commuting square u1;x1 ~ v1;x2;
        # conclusion: a top completing the two side squares over it.
        for m, u1, u2, v1, v2 in lower_medians():
            after_v1 = edges_from[tgt[v1]]
            for x1 in edges_from[tgt[u1]]:
                side = cls[(u1, x1)]
                for x2 in after_v1:
                    if (side == cls[(v1, x2)]
                            and not _coherence_conclusion(u2, v2, x1, x2)):
                        return (m, (u1, u2), (v1, v2), (x1, x2))
        return None

    def _coherence_conclusion(u2, v2, x1, x2) -> bool:
        # u2;y1 ~ x1;z and v2;y2 ~ x2;z for some z
        return any(u2 in firsts[cls[(x1, z)]] and v2 in firsts[cls[(x2, z)]]
                   for z in edges_from[tgt[x1]])

    wup = cube_up_holds() if acyclic else ("cycle",)
    wdown = cube_down_holds() if acyclic else ("cycle",)
    wcoh = coherence_holds() if acyclic else ("cycle",)
    if wup:
        diags.append(f"cube (upward) fails at {wup}")
    if wdown:
        diags.append(f"cube (downward/stability) fails at {wdown}")
    if wcoh:
        diags.append(f"coherence fails at {wcoh}")

    all_equiv = True
    if acyclic:
        least, _ = _path_classes(a)
        all_equiv = len({_end(a, w) for w in least}) == len(least)
        if not all_equiv:
            diags.append("inequivalent cofinal paths from the origin")
    return AsyncReport(acyclic, reachable, axiom1, axiom2,
                       wup is None, wdown is None, wcoh is None,
                       all_equiv, tuple(diags))


class TestAgainstTheOutEdgeScans:
    """The report of ``validate_async_graph``, diagnostics and so first
    witnesses included, is the reference validator's."""

    def test_random_graphs(self):
        rng = random.Random(2039)
        failed = set()
        for _ in range(2000):
            a = random_async_graph(rng, max_nodes=9)
            rep = validate_async_graph(a)
            assert repr(rep) == repr(reference_validate(a))
            failed |= {k for k in ("axiom1", "axiom2", "cube_up", "cube_down", "coherence")
                       if not getattr(rep, k)}
        # each axiom fails on some draw, so no witness goes unchecked
        assert failed == {"axiom1", "axiom2", "cube_up", "cube_down", "coherence"}

    @pytest.mark.parametrize("name,n", [("B", 7), ("X", 4), ("L", 3)])
    def test_hasse_graphs(self, name, n):
        a = hasse_as_async(dom_of_es(_family(name, n)))
        assert repr(validate_async_graph(a)) == repr(reference_validate(a))


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
