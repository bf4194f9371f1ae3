"""The fifteen records against dataclasses of the same fields and flags.

Every record is a plain class on ``_common.Record`` (identity equality) or
``_common.Value`` (equality and hash over the shown fields).  Each is
compared here with a frozen dataclass of the same name, fields, defaults
and flags, built by ``make_dataclass``: the ``repr``, equality, hashing,
keyword construction, defaults, the errors on assignment and deletion,
``copy`` and ``pickle`` must behave the same.
"""

import copy
import pickle
from dataclasses import MISSING, field, make_dataclass

import pytest

from weavent._common import Report
from weavent.asyncgraphs import AsyncGraph, AsyncReport
from weavent.domains import Algebraicity, IrreducibleInfo
from weavent.duality import Epes
from weavent.es import BINARY, Classification, EventStructure
from weavent.graphs import GraphMorphism
from weavent.intervals import AxiomReport
from weavent.rewrite import DirectDerivation, Grammar, Rule, TraceClass, TraceDomainResult

_ES = EventStructure(frozenset("ab"), frozenset({(frozenset(), "a"), (frozenset("a"), "b")}))
_ES2 = EventStructure(frozenset("ab"), frozenset({(frozenset(), "a"), (frozenset(), "b")}))

# class, compared by value, fields as (name, default or MISSING, shown in repr),
# the arguments of one instance and of one that differs from it in a field
RECORDS = [
    (Report, True, [("ok", MISSING, True), ("condition", None, True), ("witness", None, True)],
     (False, "C", ("x", "y")), (False, "R", ("x", "y"))),
    (EventStructure, True,
     [("events", MISSING, True), ("enabling_gens", MISSING, True),
      ("conflict_kind", BINARY, True), ("conflict", frozenset(), True),
      ("consistent_sets", frozenset(), True)],
     (_ES.events, _ES.enabling_gens), (_ES2.events, _ES2.enabling_gens)),
    (Classification, True,
     [("live", MISSING, True), ("stable", MISSING, True), ("prime", MISSING, True),
      ("connected", MISSING, True), ("diagnostics", (), True)],
     (True, True, False, True, ("d",)), (True, True, True, True, ("d",))),
    (IrreducibleInfo, True,
     [("element", MISSING, True), ("unique_predecessor", MISSING, True),
      ("class_id", MISSING, True)],
     ("a", "0", 1), ("a", "0", 2)),
    (Algebraicity, True,
     [("irreducible_algebraic", MISSING, True), ("prime_algebraic", MISSING, True),
      ("weak_prime_algebraic", MISSING, True)],
     (True, False, True), (True, True, True)),
    (Epes, True, [("base", MISSING, True), ("equiv", MISSING, True)],
     (_ES, frozenset({frozenset("a"), frozenset("b")})), (_ES, frozenset({frozenset("ab")}))),
    (AxiomReport, True,
     [("F", MISSING, True), ("C", MISSING, True), ("R", MISSING, True), ("V", MISSING, True),
      ("I", MISSING, True), ("witness", None, True)],
     (True, True, False, True, True, ("a", "b", "c")),
     (True, True, False, True, True, ("a", "b", "d"))),
    (AsyncReport, True,
     [(name, MISSING, True) for name in ("acyclic", "reachable", "axiom1", "axiom2", "cube_up",
                                         "cube_down", "coherence", "all_cofinal_equivalent")]
     + [("diagnostics", (), True)],
     (True,) * 8 + (("none",),), (True,) * 7 + (False, ("none",))),
    (GraphMorphism, False,
     [("source", MISSING, True), ("target", MISSING, True), ("node_map", MISSING, True),
      ("edge_map", MISSING, True)],
     ("K", "L", {"n": "m"}, {}), None),
    (AsyncGraph, False,
     [("nodes", MISSING, True), ("edges", MISSING, True), ("origin", MISSING, True),
      ("squares", MISSING, True)],
     (frozenset("ab"), {"e": ("a", "b")}, "a", frozenset()), None),
    (Rule, False, [(name, MISSING, True) for name in ("name", "L", "K", "R", "l", "r")],
     ("r0", "L", "K", "R", "l", "r"), None),
    (Grammar, False,
     [("type_graph", MISSING, True), ("start", MISSING, True), ("rules", MISSING, True)],
     ("T", "S", ("r0", "r1")), None),
    (DirectDerivation, False,
     [(name, MISSING, True) for name in ("rule", "G", "D", "H", "match", "mK", "mR", "lstar",
                                         "rstar")],
     tuple("rule G D H match mK mR lstar rstar".split()), None),
    (TraceClass, False,
     [("element_id", MISSING, True), ("representative", MISSING, True),
      ("_others", (), False)],
     ("t0", "rep", ("m1", "m2")), None),
    (TraceDomainResult, False, [("domain", MISSING, True), ("classes", MISSING, True)],
     ("D", ("t0", "t1")), None),
]
IDS = [spec[0].__name__ for spec in RECORDS]
VALUES = [spec for spec in RECORDS if spec[1]]
IDENTITIES = [spec for spec in RECORDS if not spec[1]]


def reference(cls, eq, fields):
    """A frozen dataclass named like ``cls``, with its fields and flags."""
    return make_dataclass(cls.__name__, [
        (name, object) if default is MISSING else
        (name, object, field(default=default, repr=shown))
        for name, default, shown in fields], frozen=True, eq=eq)


def test_every_record_is_covered():
    assert len(RECORDS) == 15 and len(VALUES) == 8


@pytest.mark.parametrize("cls, eq, fields, args, other", RECORDS, ids=IDS)
def test_repr_and_construction_match_the_dataclass(cls, eq, fields, args, other):
    ref = reference(cls, eq, fields)
    names = [name for name, _, _ in fields]
    assert repr(cls(*args)) == repr(ref(*args))
    # by keyword, and with every default left out
    assert repr(cls(**dict(zip(names, args)))) == repr(ref(*args))
    required = [a for a, (_, default, _) in zip(args, fields) if default is MISSING]
    rec, back = cls(*required), ref(*required)
    assert repr(rec) == repr(back)
    assert [getattr(rec, name) for name in names] == [getattr(back, name) for name in names]
    for bad in ({"unknown": 1}, {names[0]: args[0]}):
        with pytest.raises(TypeError):
            cls(*args, **bad)


@pytest.mark.parametrize("cls, eq, fields, args, other", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_as_in_the_dataclass(cls, eq, fields, args, other):
    rec, back = cls(*args), reference(cls, eq, fields)(*args)
    for name in [fields[0][0], "_derived", "new"]:
        for act in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
            with pytest.raises(AttributeError) as mine:
                act(rec)
            with pytest.raises(AttributeError) as theirs:
                act(back)
            assert str(mine.value) == str(theirs.value)
    assert getattr(rec, fields[0][0]) == args[0]


@pytest.mark.parametrize("cls, eq, fields, args, other", VALUES,
                         ids=[s[0].__name__ for s in VALUES])
def test_value_records_compare_and_hash_by_field(cls, eq, fields, args, other):
    ref = reference(cls, eq, fields)
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    # the same hash as the dataclass: the hash of the field tuple
    assert hash(a) == hash(ref(*args)) == hash(tuple(args) + tuple(
        default for _, default, _ in fields[len(args):]))
    # never equal to a tuple of its fields or to a record of another class
    assert a != tuple(getattr(a, name) for name, _, _ in fields)
    assert a != ref(*args) and ref(*args) != a
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls, eq, fields, args, other", IDENTITIES,
                         ids=[s[0].__name__ for s in IDENTITIES])
def test_identity_records_are_equal_only_to_themselves(cls, eq, fields, args, other):
    a, b = cls(*args), cls(*args)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("cls, eq, fields, args, other", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trips(cls, eq, fields, args, other):
    rec = cls(*args)
    # a shallow copy shares the fields, so it prints the same; an unpickled
    # set may iterate in another order, so only its fields compare equal
    assert repr(copy.copy(rec)) == repr(rec)
    for twin in (copy.copy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin is not rec
        assert vars(twin) == vars(rec)
        assert (twin == rec) is eq
        with pytest.raises(AttributeError):
            setattr(twin, fields[0][0], 1)


def test_derived_caches_start_empty_and_apart():
    for cls, _, _, args, _ in RECORDS:
        if cls in (EventStructure, AsyncGraph, Grammar, Rule, TraceClass):
            a, b = cls(*args), cls(*args)
            assert a._derived == {} and a._derived is not b._derived
        else:
            assert "_derived" not in vars(cls(*args))
