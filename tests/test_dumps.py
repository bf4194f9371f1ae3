"""``io.dumps`` against its oracle: the text of ``json.dumps(obj, indent=2,
sort_keys=True)``, byte for byte, on drawn values and on every payload the
package writes."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weavent import io as iomod
from weavent.asyncgraphs import hasse_as_async
from weavent.domains import BOUNDED_COMPLETE, FiniteDomain
from weavent.duality import dom_of_es, unfold
from weavent.es import EsError
from weavent.fixtures import running_grammar
from weavent.graphs import GraphMorphism, TypedGraph
from weavent.rewrite import Grammar, Rule, grammar_from_es
from tests._gen import family_es, growing_grammar, random_connected_es

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def oracle(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


# strings JSON must escape (and '%'): quotes, backslashes, control characters, lone
# surrogates, characters outside ASCII and outside the BMP
chars = (st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
         | st.sampled_from('"\\/%\x00\x1f\x7f\b\f\n\r\t é漢\U0001f600'))
strings = st.text(chars, max_size=6)
scalars = (strings | st.booleans() | st.sampled_from([0, 1, -1, None])
           | st.integers(min_value=-2**200, max_value=2**200)
           | st.floats(allow_nan=False))  # a float is written by json.dumps
# the values of a record: strings, ints, bools, None, lists of strings
fields = (strings | st.booleans() | st.none() | st.integers(min_value=-2**70, max_value=2**70)
          | st.lists(strings, max_size=3))
# the shapes written in one join: flat string lists, objects of scalars and
# lists of records that share one set of string keys; and lists of string
# lists of one length (covers, conflict pairs), which the general walk writes
flat = (st.lists(strings, max_size=5)
        | st.integers(1, 3).flatmap(lambda k: st.lists(
            st.lists(strings, min_size=k, max_size=k).map(tuple) | st.lists(
                strings, min_size=k, max_size=k), max_size=4))
        | st.dictionaries(strings, scalars, max_size=5)
        | st.lists(strings, min_size=1, max_size=4, unique=True).flatmap(lambda keys: st.lists(
            st.fixed_dictionaries({k: fields for k in keys}), min_size=1, max_size=4)))
values = st.recursive(
    scalars | flat,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(strings, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(values)
def test_dumps_is_json_dumps(x):
    assert iomod.dumps(x) == oracle(x)


@pytest.mark.parametrize("x", [
    [], {}, (), [[]], [[], []], [[[]]], {"a": []}, [{}], [["a"], []], [["a"], ["b", "c"]],
    [["a", "b"], ("c", "d")], [True, False, 1, 0], {"t": True, "one": 1, "n": None},
    [10 ** 300, -10 ** 300], [1.5, float("inf"), float("nan")], {"f": 0.1},
    "x", 7, None, False, 2.5, ["\ud800", "\udfff\ud800"], {"é\n": "\"\\"},
    {1: "a", 2: "b"}, {None: 0}, {True: [1]}, {0.5: "h"},
])
def test_dumps_edge_values(x):
    assert iomod.dumps(x) == oracle(x)


def _circular_records():
    inner = [{"a": "x"}]
    inner.append({"a": inner})
    selfish = {"a": None}
    selfish["a"] = selfish
    return [inner, [selfish], [{"a": ["x", inner]}]]


# lists of records written in one template, then near misses that must take
# the general walk: another key set, a non-string key, a nested object, a
# tuple, a float, a list holding a non-string, no keys, and cycles
@pytest.mark.parametrize("x", [
    [{"b": "x", "a": 1}], ({"a": "x"}, {"a": "y"}), [{"k": []}, {"k": ["", '"\\']}],
    [{"%s": "%d", "a%%": ["%"]}], [{"t": True, "f": False, "n": None, "i": -10 ** 40}],
    [{"v": "x"}, {"v": ["x"]}, {"v": None}, {"v": 0}],
    [{"a": "x"}, {"b": "x"}], [{"a": "x"}, {"a": "x", "b": "y"}],
    [{"a": "x", 1: "y"}, {"a": "z", 1: "w"}], [{1: "x"}, {1: "y"}], [{None: "x"}],
    [{"a": {"b": "c"}}], [{"a": {}}, {"a": {}}], [{"a": ("x", "y")}], [{"a": 1.5}],
    [{"a": ["x", 1]}], [{"a": [["x"]]}], [{}], [{}, {"a": "x"}],
    *_circular_records(),
])
def test_dumps_record_lists_and_near_misses(x):
    try:
        expected = oracle(x)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            iomod.dumps(x)
        assert str(got.value) == str(exc)
    else:
        assert iomod.dumps(x) == expected


def test_dumps_raises_where_json_dumps_does():
    loop = []
    loop.append([loop])
    deep = {"a": None}
    deep["a"] = {"b": deep}
    for bad, error in (({1, 2}, TypeError), ({(1, 2): "k"}, TypeError),
                       ({"a": 1, 2: "b"}, TypeError), (loop, ValueError), (deep, ValueError)):
        with pytest.raises(error):
            oracle(bad)
        with pytest.raises(error):
            iomod.dumps(bad)


def test_dumps_nests_past_the_recursion_limit():
    x = "leaf"
    for _ in range(1500):  # json.dumps itself stops at the recursion limit
        x = [x, {}]
    text = iomod.dumps(x)
    assert text.count("leaf") == 1 and text.endswith("\n  {}\n]")


def _payloads():
    """Every ``*_to_json`` payload of the fixtures and of B, X, L and C up
    to size 4, with the raw JSON of each fixture file."""
    kinds = {".es": ("es", iomod.es_to_json), ".domain": ("domain", iomod.domain_to_json),
             ".bdomain": ("domain", iomod.domain_to_json),
             ".grammar": ("grammar", iomod.grammar_to_json),
             ".async": ("asyncgraph", iomod.async_to_json),
             ".epes": ("epes", iomod.epes_to_json)}
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        kind, to_json = kinds[path.suffixes[-2]]
        out += [json.loads(path.read_text(encoding="utf-8")),
                to_json(iomod.load_structure(str(path), kind))]
    ess = [family_es(f, n) for f in "BXLC" for n in range(1, 5)]
    rng = random.Random(4)
    ess += [random_connected_es(rng) for _ in range(6)]
    for es in ess:
        dom = dom_of_es(es)
        out += [iomod.es_to_json(es), iomod.domain_to_json(dom),
                iomod.epes_to_json(unfold(es)), iomod.grammar_to_json(grammar_from_es(es)),
                iomod.async_to_json(hasse_as_async(dom))]
    return out


def test_dumps_of_every_payload():
    payloads = _payloads()
    assert len(payloads) > 100
    for x in payloads:
        assert iomod.dumps(x) == oracle(x)


def _domains():
    """Every domain fixture, the configuration domains of the families and
    of seeded draws, a one-element domain and names that JSON must escape."""
    doms = [iomod.load_structure(str(path), "domain")
            for pattern in ("*.domain.json", "*.bdomain.json")
            for path in sorted(FIXTURES.glob(pattern))]
    doms += [dom_of_es(family_es(f, n)) for f in "BXLC" for n in range(1, 5)]
    rng = random.Random(8)
    doms += [dom_of_es(random_connected_es(rng)) for _ in range(6)]
    doms += [FiniteDomain(["only"], []), FiniteDomain(["%s"], [], BOUNDED_COMPLETE),
             FiniteDomain(['a"b', "c\\d", "e\nf", "%s", "na\u00efve", "\ud800"],
                          [('a"b', "c\\d"), ('a"b', "e\nf"), ("c\\d", "%s"),
                           ("e\nf", "%s"), ("%s", "na\u00efve"), ("%s", "\ud800")])]
    return doms


def test_dumps_domain_is_dumps_of_domain_to_json():
    doms = _domains()
    assert len(doms) > 25
    for dom in doms:
        payload = iomod.domain_to_json(dom)
        assert iomod.dumps_domain(dom) == iomod.dumps(payload) == oracle(payload), dom.elements


def _escaped_grammar() -> Grammar:
    """A grammar whose ids, types and rule names JSON must escape or that
    hold '%', with graphs with no edges or no items and rule legs with
    empty maps."""
    t, u = 'T"%s', "\u00dc\\%%"
    tg = TypedGraph([t, u], [("E%d", "E%d", t, u), ("\u6f22\n", "\u6f22\n", u, u)])
    start = TypedGraph(["x\\y", "%", "\ud800"], [("e\"1", "E%d", "x\\y", "%")],
                       {"x\\y": t, "%": u, "\ud800": u})
    empty = TypedGraph([], [])
    lone = TypedGraph(["%(a)s"], [], {"%(a)s": u})
    drop = Rule('drop "%s"', lone, empty, empty,
                GraphMorphism(empty, lone, {}, {}), GraphMorphism(empty, empty, {}, {}))
    both = TypedGraph(["a\\", "b%"], [("l\u00e9", "\u6f22\n", "b%", "b%")], {"a\\": t, "b%": u})
    kept = TypedGraph(["b%"], [("l\u00e9", "\u6f22\n", "b%", "b%")], {"b%": u})
    keep = Rule("na\u00efve\\", both, kept, kept,
                GraphMorphism(kept, both, {"b%": "b%"}, {"l\u00e9": "l\u00e9"}),
                GraphMorphism(kept, kept, {"b%": "b%"}, {"l\u00e9": "l\u00e9"}))
    return Grammar(tg, start, (drop, keep))


def _grammars():
    """Every grammar fixture, the synthesised grammars of every
    event-structure fixture that has one, of the families and of seeded
    draws, and grammars with names to escape, with no rules and with
    empty graphs."""
    grammars = [iomod.load_structure(str(path), "grammar")
                for path in sorted(FIXTURES.glob("*.grammar.json"))]
    grammars += [running_grammar(), growing_grammar()]
    for path in sorted(FIXTURES.glob("*.es.json")):
        try:
            grammars.append(grammar_from_es(iomod.load_structure(str(path), "es")))
        except EsError:  # not live, not connected or not binary
            pass
    grammars += [grammar_from_es(family_es(f, n)) for f in "BXLC" for n in range(1, 5)]
    rng = random.Random(12)
    grammars += [grammar_from_es(random_connected_es(rng)) for _ in range(8)]
    escaped = _escaped_grammar()
    empty = TypedGraph([], [])
    grammars += [escaped, Grammar(escaped.type_graph, escaped.start, ()),
                 Grammar(empty, empty, ())]
    return grammars


def test_dumps_grammar_is_dumps_of_grammar_to_json():
    grammars = _grammars()
    assert len(grammars) > 30
    for g in grammars:
        payload = iomod.grammar_to_json(g)
        assert iomod.dumps_grammar(g) == iomod.dumps(payload) == oracle(payload), g.rules


def test_the_escaped_grammar_reads_back_as_written():
    g = _escaped_grammar()
    g.validate()
    text = iomod.dumps_grammar(g)
    again = iomod.parse_bytes(text.encode("utf-8"), "escaped", "grammar")
    assert iomod.dumps_grammar(again) == text
    assert [r.name for r in again.rules] == ['drop "%s"', "na\u00efve\\"]
    assert '"edges": {}' in text and '"nodes": {}' in text and '"edges": []' in text
