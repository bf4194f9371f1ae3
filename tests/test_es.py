import json
import os
import random
import subprocess
import sys
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weavent import es as esmod
from weavent._common import _bits
from weavent.es import (Classification, EventStructure, EsError, LivenessError, _minimal, _table,
                        classify, configuration_count, configurations, is_configuration,
                        is_secured, minimal_enablings, saturate, validate_es_morphism)
from weavent.domains import FiniteDomain, interchange_classes
from weavent.duality import dom_of_es, ev_of_domain
from weavent.intervals import ev_wd
from weavent.fixtures import (e_ccs, e_five, e_joint, e_prime_conflict, e_run,
                              e_split, e_three_independent)
from weavent.io import load_structure
from tests._gen import (family_es, random_connected_es, random_consistency_es,
                        random_enabling, random_live_es)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fz(*xs):
    return frozenset(xs)


class TestSecured:
    def test_run_ac(self):
        assert is_secured(e_run(), {"a", "c"})

    def test_run_c_alone(self):
        assert not is_secured(e_run(), {"c"})

    def test_empty_set(self):
        assert is_secured(e_run(), set())
        assert is_secured(e_ccs(), set())

    def test_unknown_event(self):
        with pytest.raises(EsError):
            is_secured(e_run(), {"zz"})


def _subsets(events):
    events = sorted(events)
    return chain.from_iterable(combinations(events, k) for k in range(len(events) + 1))


def _consistency_draws(seed, count=20):
    """Raw and saturated consistency-kind draws."""
    rng = random.Random(seed)
    return ([random_consistency_es(rng) for _ in range(count)]
            + [random_consistency_es(rng, live=True) for _ in range(count)])


def _consistent_by_definition(es, xs):
    if es.conflict_kind == "binary":
        return not any(frozenset(p) in es.conflict for p in combinations(sorted(xs), 2))
    return any(xs <= m for m in es.consistent_sets)


def _enables_by_definition(es, xs, e):
    return any(ev == e and needs <= xs for needs, ev in es.enabling_gens)


def classify_by_definition(es):
    """``classify`` from its definitions, over every subset of the events."""
    events = sorted(es.events)
    confs = [frozenset(xs) for xs in _subsets(events) if is_configuration(es, xs)]
    diags = []
    dead = sorted(es.events - set().union(*confs))
    if dead:
        diags.append(f"dead events (in no configuration): {dead}")
    live = not dead
    if es.conflict_kind == "binary":
        for a, b in combinations(events, 2):
            together = any({a, b} <= c for c in confs)
            conflicted = frozenset((a, b)) in es.conflict
            if together and conflicted:
                live = False
                diags.append(f"conflicting events {a!r}, {b!r} occur together")
            if not together and not conflicted:
                live = False
                diags.append(f"conflict not saturated: {a!r}, {b!r} never occur together")
    else:
        for xs in es.consistent_sets:
            if not any(xs <= c for c in confs):
                live = False
                diags.append(f"consistent set {sorted(xs)} inside no configuration")
    stable = prime = connected = True
    for e in events:
        enabling = [c for c in confs if _enables_by_definition(es, c, e)]
        mins = [c for c in enabling if not any(d < c for d in enabling)]
        linked = {(c1, c2) for c1, c2 in combinations(mins, 2)
                  if _consistent_by_definition(es, c1 | c2 | {e})}
        stable = stable and not linked
        if len(mins) > 1:
            prime = False
            reached, frontier = {mins[0]}, [mins[0]]
            while frontier:
                c = frontier.pop()
                for c1, c2 in linked:
                    for x, y in ((c1, c2), (c2, c1)):
                        if x == c and y not in reached:
                            reached.add(y)
                            frontier.append(y)
            connected = connected and len(reached) == len(mins)
    return Classification(live, stable, prime, connected, tuple(diags))


class TestEnables:
    """``enables`` reads each event's generators from an index built once;
    the definition scans every generator of the structure."""

    @staticmethod
    def _structures():
        rng = random.Random(139)
        yield from (e_run(), e_ccs(), e_prime_conflict(), e_split(), e_joint(),
                    e_five(), e_three_independent())
        yield EventStructure.with_consistency("abc", [("a", "b"), ("b", "c")],
                                              [((), "a"), (("a",), "b"), ((), "c")])
        for _ in range(30):
            yield random_live_es(rng)
        for _ in range(10):
            yield random_connected_es(rng)
        yield from _consistency_draws(139, 10)

    def test_agrees_with_a_scan_of_the_generators(self):
        for es in self._structures():
            for xs in map(frozenset, _subsets(es.events)):
                for e in sorted(es.events):
                    assert es.enables(xs, e) == _enables_by_definition(es, xs, e)

    def test_consistency_and_conflict_agree_with_the_definition(self):
        # both read the per-event conflict masks or the consistent-set masks
        for es in self._structures():
            for xs in map(frozenset, _subsets(es.events)):
                assert es.is_consistent(xs) == _consistent_by_definition(es, xs)
            for a in sorted(es.events):
                for b in sorted(es.events):
                    expected = (frozenset((a, b)) in es.conflict if es.conflict_kind == "binary"
                                else not _consistent_by_definition(es, frozenset((a, b))))
                    assert es.in_conflict(a, b) == expected

    def test_unknown_events_are_refused(self):
        for es in (e_run(), EventStructure.with_consistency("ab", [("a", "b")])):
            with pytest.raises(EsError, match=r"unknown events \['y', 'z'\]"):
                es.is_consistent(["a", "z", "y"])
        # outside the structure an event is in conflict with nothing
        assert not e_run().in_conflict("a", "zz")

    def test_separately_built_structures_stay_equal(self):
        for es in self._structures():
            gens = sorted(es.enabling_gens, key=lambda g: (g[1], sorted(g[0])), reverse=True)
            twin = EventStructure(frozenset(sorted(es.events)), frozenset(gens),
                                  es.conflict_kind, frozenset(es.conflict),
                                  frozenset(es.consistent_sets))
            assert twin == es and hash(twin) == hash(es)
            assert configurations(twin) == configurations(es)
            assert configurations(es) is configurations(es)  # kept on the structure


class TestConfigurations:
    def test_run_has_seven(self):
        confs = configurations(e_run())
        assert len(confs) == 7
        assert fz() in confs and fz("a", "b", "c") in confs
        assert fz("c") not in confs

    def test_ccs_has_six(self):
        assert len(configurations(e_ccs())) == 6

    def test_empty_es(self):
        es = EventStructure.binary([])
        assert configurations(es) == {fz()}

    def test_configurations_by_definition(self):
        # configurations tests only the added event against the conflict
        # index; the definition tests every subset in full
        structures = [load_structure(str(path), "es")
                      for path in sorted(FIXTURES.glob("*.es.json"))]
        rng = random.Random(17)
        structures += [random_live_es(rng, max_events=6, conflict_p=p)
                       for p in (0.12, 0.3, 0.5) for _ in range(10)]
        structures += _consistency_draws(17)
        for es in structures:
            events = sorted(es.events)
            subsets = chain.from_iterable(combinations(events, k)
                                          for k in range(len(events) + 1))
            assert configurations(es) == {frozenset(xs) for xs in subsets
                                          if is_configuration(es, xs)}
            assert configuration_count(es) == len(configurations(es))

    def test_all_configurations_consistent_and_secured(self):
        rng = random.Random(7)
        for _ in range(25):
            es = random_live_es(rng)
            for c in configurations(es):
                assert es.is_consistent(c)
                assert is_secured(es, c)


class TestMinimalEnablings:
    def test_run_c(self):
        assert minimal_enablings(e_run(), "c") == {fz("a"), fz("b")}

    def test_run_a(self):
        assert minimal_enablings(e_run(), "a") == {fz()}

    def test_conflicting_variant(self):
        assert minimal_enablings(e_prime_conflict(), "c") == {fz("a"), fz("b")}

    def test_incomparable(self):
        rng = random.Random(11)
        for _ in range(25):
            es = random_live_es(rng)
            for e in es.events:
                mins = minimal_enablings(es, e)
                for c1, c2 in combinations(mins, 2):
                    assert not (c1 < c2 or c2 < c1)

    def test_unknown_event(self):
        with pytest.raises(EsError):
            minimal_enablings(e_run(), "zz")

    def test_agrees_with_subset_definition(self):
        rng = random.Random(29)
        structures = [e_run(), e_ccs(), e_five(), e_joint(), e_prime_conflict(), e_split(),
                      EventStructure.with_consistency(
                          "abc", [("a", "b"), ("b", "c")],
                          enabling=[((), "a"), ((), "b"), (("a",), "c"), (("b",), "c")])]
        structures += [random_live_es(rng) for _ in range(40)]
        structures += [random_connected_es(rng) for _ in range(20)]
        structures += _consistency_draws(29)
        for es in structures:
            for e in sorted(es.events):
                enabling = [c for c in configurations(es) if es.enables(c, e)]
                assert minimal_enablings(es, e) == {
                    c for c in enabling if not any(d < c for d in enabling)}


def mins_by_second_pass(es):
    """The minimal enablings read off the finished table in a second pass:
    ``c`` minimally enables ``k`` when it enables ``k`` and none of its
    lower covers ``c ^ x`` does, taken in the order of ``lower``."""
    def en(c):
        return sum(1 << k for k, needs in enumerate(es._needs)
                   if any(not need & ~c for need in needs))
    mins = [[] for _ in es._names]
    for c, low in _table(es).lower.items():
        below = 0
        for x in _bits(low):
            below |= en(c ^ 1 << x)
        for k in _bits(en(c) & ~below):
            mins[k].append(c)
    return mins


class TestTableWalk:
    """The walk reads the minimal enablings while it grows the layers; a
    second pass over the finished table is the reference, order included."""

    @staticmethod
    def _structures():
        out = [family_es(f, n) for f in "BXLC" for n in range(1, 5)]
        for path in sorted(FIXTURES.glob("*.es.json")):
            out.append(load_structure(str(path), "es"))
        rng = random.Random(41)
        out += [random_live_es(rng) for _ in range(40)]
        out += [random_connected_es(rng) for _ in range(20)]
        out += _consistency_draws(41)
        return out

    def test_mins_equal_the_second_pass_in_order(self):
        for es in self._structures():
            assert _table(es).mins == mins_by_second_pass(es), sorted(es.events)


class TestMinimalNeeds:
    """The walk watches only each event's ⊆-minimal needs; the table is
    that of the walk that watches every need, order included, and the
    generators themselves are kept whole."""

    @staticmethod
    def _structures():
        out = TestTableWalk._structures()
        rng = random.Random(43)
        # the interval construction names a step for every cover, so most
        # of its generators are not minimal
        out += [ev_wd(dom_of_es(es)) for es in out
                if classify(es).live and configuration_count(es) <= 60]
        for es in [random_live_es(rng) for _ in range(30)] + _consistency_draws(43, 10):
            # each generator again, with one more need
            extra = [(needs | {x}, e) for needs, e in es.enabling_gens for x in es.events
                     if x != e and rng.random() < 0.3]
            out.append(EventStructure(es.events, es.enabling_gens | frozenset(extra),
                                      es.conflict_kind, es.conflict, es.consistent_sets))
        return out

    def test_minimal_keeps_the_needs_with_no_smaller_need(self):
        rng = random.Random(44)
        for _ in range(500):
            needs = {rng.getrandbits(5) for _ in range(rng.randint(0, 8))}
            assert sorted(_minimal(needs)) == sorted(
                a for a in needs if not any(b != a and not b & ~a for b in needs))

    def test_the_table_is_that_of_every_need(self, monkeypatch):
        structures = self._structures()
        filtered = [esmod._find_table(es) for es in structures]
        monkeypatch.setattr(esmod, "_minimal", list)  # watch every need
        redundant = 0
        for es, got in zip(structures, filtered):
            want = esmod._find_table(es)
            assert (got.lower, got.maximal, got.together, got.mins) == (
                want.lower, want.maximal, want.together, want.mins), sorted(es.events)
            assert sum(map(len, es._needs)) == len(es.enabling_gens)
            redundant += any(a != b and not a & ~b for needs in es._needs
                             for a in needs for b in needs)
        assert redundant > 50



def _table_by_definition(es):
    """Every part of the table from the configurations, found among all
    subsets of the events with ``is_configuration``."""
    names = es._names
    confs = [c for c in range(1 << len(names)) if is_configuration(es, es._names_of(c))]
    held = set(confs)
    lower = {c: sum(1 << x for x in _bits(c) if c ^ 1 << x in held) for c in confs}
    maximal = {c for c in confs
               if not any(c | 1 << x in held for x in range(len(names)) if not c >> x & 1)}
    together = [0] * len(names)
    for m in maximal:
        for k in _bits(m):
            together[k] |= m
    mins = []
    for e in names:
        enabling = [c for c in confs if es.enables(es._names_of(c), e)]
        mins.append({c for c in enabling if not any(d != c and not d & ~c for d in enabling)})
    return lower, maximal, together, mins


class TestWatchesAndFences:
    """The walk watches a need only outside the cores of its events, and
    tries only the events inside a configuration's fence; the table is the
    one read off all subsets of the events."""

    @staticmethod
    def _structures():
        rng = random.Random(47)
        out = [es for es in TestMinimalNeeds._structures() if len(es.events) <= 8]
        # the candidates of domains: every need is a whole history
        out += [ev_of_domain(FiniteDomain(d.elements, d.covers(), d.kind)) for d in
                (dom_of_es(random_live_es(rng, max_events=6, conflict_p=0.3)) for _ in range(30))
                if len(interchange_classes(d)) <= 8]
        for _ in range(120):
            # needs along a random causal order, with conflict or consistent
            # sets across it
            events = list("abcdefgh"[:rng.randint(2, 8)])
            gens = [(tuple(rng.sample(events[:k], rng.randint(0, k))), e)
                    for k, e in enumerate(events) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                pairs = [p for p in combinations(events, 2) if rng.random() < 0.2]
                out.append(EventStructure.binary(events, pairs, gens))
            else:
                family = [rng.sample(events, rng.randint(1, len(events))) for _ in range(3)]
                out.append(EventStructure.with_consistency(events, family + [[e] for e in events],
                                                           gens))
        return out

    def test_the_table_is_that_of_every_subset(self):
        structures = self._structures()
        cut = 0
        for es in structures:
            table = _table(es)
            lower, maximal, together, mins = _table_by_definition(es)
            assert table.lower == lower and set(table.maximal) == maximal, sorted(es.events)
            assert table.together == together and list(map(set, table.mins)) == mins
            core = [esmod.reduce(esmod.and_, needs) if needs else 0 for needs in es._needs]
            cut += any(core[x] & need for needs in es._needs for need in needs
                       for x in _bits(need))
        assert len(structures) > 300 and cut > 100

    def test_a_chain_of_needs_is_watched_at_its_last_event(self):
        """Event ``k`` of ``s0, …, s{n-1}`` needs all the events before it:
        the walk looks at one need per configuration it reaches."""
        events = [f"s{k:02d}" for k in range(40)]
        es = EventStructure.binary(events, (), [(events[:k], e) for k, e in enumerate(events)])
        looked = []

        class Counted(int):
            def __and__(self, other):
                looked.append(self)
                return int.__and__(self, other)
        object.__setattr__(es, "_needs", tuple((Counted(need),) for (need,) in es._needs))
        table = esmod._find_table(es)
        assert len(table.lower) == 41
        assert len([x for x in looked if x]) <= 2 * 40


def test_named_masks_are_the_structures_the_constructors_build():
    """``_structure_of`` names a structure given as masks: the same value
    as ``EventStructure.binary`` or ``with_consistency`` builds from the
    names, with a consistent-set family stored by its maximal members."""
    rng = random.Random(48)
    kinds, nested = set(), 0
    for _ in range(300):
        names = tuple(sorted(rng.sample("abcdefgh", rng.randint(1, 6))))
        n, full = len(names), (1 << len(names)) - 1
        needs = [[rng.getrandbits(n) & ~(1 << k) for _ in range(rng.randint(0, 3))]
                 for k in range(n)]
        gens = [(es_names(names, need), e) for e, row in zip(names, needs) for need in row]
        if rng.random() < 0.5:
            clash = [0] * n
            for a, b in combinations(range(n), 2):
                if rng.random() < 0.3:
                    clash[a] |= 1 << b
                    clash[b] |= 1 << a
            masks = esmod._Masks(names, "binary", needs, clash, [])
            pairs = [(names[a], names[b]) for a, b in combinations(range(n), 2)
                     if clash[a] >> b & 1]
            want = EventStructure.binary(names, pairs, gens)
        else:
            # nested and repeated members, and a singleton for every event
            family = [rng.getrandbits(n) for _ in range(3)]
            family += [m & rng.getrandbits(n) for m in family] + [1 << k for k in range(n)]
            masks = esmod._Masks(names, "consistency", needs, [0] * n, family)
            want = EventStructure.with_consistency(
                names, [es_names(names, m) for m in family], gens)
            nested += len(want.consistent_sets) < len({m & full for m in family if m})
        assert esmod._structure_of(masks) == want
        kinds.add(want.conflict_kind)
    assert kinds == {"binary", "consistency"} and nested > 50


def es_names(names, mask):
    return [names[k] for k in _bits(mask)]

def test_two_bad_generators_name_the_same_one_under_any_hash_seed(tmp_path):
    """The generators are checked in sorted ``(event, sorted needs)``
    order, not in the iteration order of a frozenset."""
    path = tmp_path / "bad.es.json"
    # four bad generators, which the frozenset order of hash seeds 0 and 1
    # takes in different orders
    path.write_text(json.dumps({"events": ["b"], "conflict": [], "enabling": [
        {"event": "b", "needs": []}, {"event": "b", "needs": ["a"]},
        {"event": "b", "needs": ["c"]}, {"event": "b", "needs": ["d"]},
        {"event": "a", "needs": []}]}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    errs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "weavent", "check", "--es", str(path)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2, "")
        errs.add(proc.stderr)
    assert errs == {'{\n  "error": "enabling generator for unknown event \'a\'"\n}\n'}
    with pytest.raises(EsError, match=r"^enabling generator mentions unknown events \['y'\]$"):
        EventStructure.binary("bc", (), [((), "b"), (("y",), "c")])


class TestClassify:
    def test_run(self):
        cl = classify(e_run())
        assert (cl.live, cl.stable, cl.prime, cl.connected) == (True, False, False, True)

    def test_ccs(self):
        cl = classify(e_ccs())
        assert (cl.live, cl.stable, cl.prime, cl.connected) == (True, True, True, True)

    def test_prime_conflict(self):
        cl = classify(e_prime_conflict())
        assert (cl.live, cl.stable, cl.prime, cl.connected) == (True, True, False, False)

    def test_joint(self):
        assert classify(e_joint()).prime

    def test_five(self):
        cl = classify(e_five())
        assert cl.live and not cl.stable and cl.connected

    def test_prime_iff_stable_and_connected(self):
        rng = random.Random(23)
        fixtures = [e_run(), e_ccs(), e_prime_conflict(), e_joint(), e_five(), e_split()]
        suite = fixtures + [random_live_es(rng) for _ in range(40)]
        for es in suite:
            cl = classify(es)
            assert cl.prime == (cl.stable and cl.connected)

    def test_by_definition(self):
        # verdicts and diagnostics, in order, on live and unlive draws of
        # both kinds
        rng = random.Random(31)
        structures = [e_run(), e_ccs(), e_five(), e_joint(), e_prime_conflict(), e_split(),
                      e_three_independent(), EventStructure.binary("ad", enabling=[
                          ((), "a"), (("d",), "d")])]
        structures += [random_live_es(rng) for _ in range(20)]
        structures += [random_connected_es(rng) for _ in range(10)]
        for _ in range(20):
            events = list("abcde"[:rng.randint(2, 5)])
            conflict = [p for p in combinations(events, 2) if rng.random() < 0.3]
            structures.append(EventStructure.binary(events, conflict,
                                                    random_enabling(rng, events)))
        structures += _consistency_draws(31)
        for es in structures:
            assert classify(es) == classify_by_definition(es)

    def test_stable_unique_minimal_enabling_per_configuration(self):
        rng = random.Random(29)
        for _ in range(40):
            es = random_live_es(rng)
            if not classify(es).stable:
                continue
            for c in configurations(es):
                for e in c:
                    inside = [m for m in minimal_enablings(es, e) if m <= c]
                    assert len(inside) == 1


class TestSaturate:
    def test_already_saturated(self):
        es = e_run()
        assert saturate(es) == es

    def test_restores_missing_conflict(self):
        # drop the conflict of the stable variant: a, b never occur together
        # in the unsaturated structure only if the conflict was intended
        broken = EventStructure.binary(
            ["a", "b", "c1", "c2"],
            conflict=[("a", "b")],
            enabling=[((), "a"), ((), "b"), (("a",), "c1"), (("b",), "c2")])
        fixed = saturate(broken)
        # oracle: the configuration co-occurrence table of the input
        confs = configurations(broken)
        for x, y in combinations(sorted(broken.events), 2):
            expected = not any(x in c and y in c for c in confs)
            assert fixed.in_conflict(x, y) == expected
        assert fixed == e_split()

    def test_by_definition(self):
        # binary: conflict on every pair that never occurs together;
        # consistency: the family shrunk to what configurations realise
        rng = random.Random(37)
        structures = [e_run(), e_ccs(), e_five(), e_prime_conflict()]
        for _ in range(20):
            events = list("abcde"[:rng.randint(2, 5)])
            conflict = [p for p in combinations(events, 2) if rng.random() < 0.2]
            structures.append(EventStructure.binary(events, conflict,
                                                    random_enabling(rng, events)))
        structures += _consistency_draws(37)
        for es in structures:
            confs = [frozenset(xs) for xs in _subsets(es.events) if is_configuration(es, xs)]
            if set().union(*confs) != es.events:
                with pytest.raises(LivenessError):
                    saturate(es)
                continue
            if es.conflict_kind == "binary":
                pairs = set(es.conflict) | {
                    frozenset(p) for p in combinations(sorted(es.events), 2)
                    if not any(set(p) <= c for c in confs)}
                expected = EventStructure(es.events, es.enabling_gens, "binary",
                                          frozenset(pairs))
            else:
                realised = [xs for xs in es.consistent_sets if any(xs <= c for c in confs)]
                realised += confs
                expected = EventStructure.with_consistency(es.events, realised, ())
                expected = EventStructure(es.events, es.enabling_gens, "consistency",
                                          consistent_sets=expected.consistent_sets)
            assert saturate(es) == expected

    def test_dead_event_rejected(self):
        es = EventStructure.binary("ad", enabling=[((), "a"), (("d",), "d")])
        with pytest.raises(LivenessError):
            saturate(es)


class TestMorphisms:
    def test_identity(self):
        es = e_run()
        assert validate_es_morphism({e: e for e in es.events}, es, es).ok

    def test_forget_a_b(self):
        target = EventStructure.binary(["c'"], enabling=[((), "c'")])
        rep = validate_es_morphism({"c": "c'"}, e_run(), target)
        assert rep.ok

    def test_collapse_consistent_pair_fails(self):
        target = EventStructure.binary(["u", "c"],
                                       enabling=[((), "u"), (("u",), "c")])
        rep = validate_es_morphism({"a": "u", "b": "u", "c": "c"}, e_run(), target)
        assert not rep.ok
        assert rep.condition == "injectivity-up-to-conflict"
        assert set(rep.witness) == {"a", "b"}

    def test_enabling_violation_detected(self):
        # target enables c' only after u, source enables c immediately
        src = EventStructure.binary("c", enabling=[((), "c")])
        dst = EventStructure.binary("uc", enabling=[((), "u"), (("u",), "c")])
        rep = validate_es_morphism({"c": "c"}, src, dst)
        assert not rep.ok
        assert rep.condition == "enabling-preservation"


class TestConsistencyVariant:
    def test_ternary_conflict(self):
        # any two of x, y, z may occur; all three may not
        es = EventStructure.with_consistency(
            "xyz", [("x", "y"), ("y", "z"), ("x", "z")],
            enabling=[((), "x"), ((), "y"), ((), "z")])
        confs = configurations(es)
        assert fz("x", "y") in confs and fz("x", "y", "z") not in confs
        assert classify(es).live

    def test_singleton_rule(self):
        with pytest.raises(EsError):
            EventStructure.with_consistency("xy", [("x",)],
                                            enabling=[((), "x"), ((), "y")])

    def test_morphism_consistency_preservation(self):
        src = EventStructure.with_consistency(
            "xyz", [("x", "y"), ("y", "z"), ("x", "z")],
            enabling=[((), "x"), ((), "y"), ((), "z")])
        dst = EventStructure.with_consistency(
            "xyz", [("x", "y", "z")],
            enabling=[((), "x"), ((), "y"), ((), "z")])
        assert validate_es_morphism({e: e for e in "xyz"}, src, dst).ok
        rep = validate_es_morphism({e: e for e in "xyz"}, dst, src)
        assert not rep.ok and rep.condition == "consistency-preservation"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_live_structures_are_live(seed):
    es = random_live_es(random.Random(seed))
    assert classify(es).live


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_configuration_extension_stays_secured(seed):
    es = random_live_es(random.Random(seed))
    for c in configurations(es):
        for e in es.events - c:
            if es.enables(c, e) and es.is_consistent(c | {e}):
                assert is_secured(es, c | {e})
