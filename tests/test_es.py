import random
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weavent._common import _bits
from weavent.es import (Classification, EventStructure, EsError, LivenessError, _table,
                        classify, configuration_count, configurations, is_configuration,
                        is_secured, minimal_enablings, saturate, validate_es_morphism)
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
