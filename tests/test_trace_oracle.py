"""``trace_classes`` against its exhaustive reference.

``trace_classes`` extends only class representatives;
``trace_classes_by_definition`` builds every interleaving and quotients it
pairwise.  They must agree on the class ids and their order, on the prefix
order, and on each representative, step by step.
"""

import random
from pathlib import Path

import pytest

from weavent.es import classify
from weavent.io import load_structure
from weavent.rewrite import (grammar_from_es, once_per_rule_depth, trace_classes,
                             trace_classes_by_definition)
from tests._gen import random_connected_es

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _live_connected_fixtures():
    out = []
    for path in sorted(FIXTURES.glob("*.es.json")):
        es = load_structure(str(path), "es")
        cl = classify(es)
        if es.conflict_kind == "binary" and cl.live and cl.connected:
            out.append(path.name)
    return out


def _representative(cls):
    return [(st.rule.name, st.match.node_map, st.match.edge_map)
            for st in cls.representative.steps]


def assert_agree(grammar, depth, fusion_safe=False):
    fast = trace_classes(grammar, depth, fusion_safe)
    oracle = trace_classes_by_definition(grammar, depth, fusion_safe)
    assert [c.element_id for c in fast.classes] == [c.element_id for c in oracle.classes]
    assert fast.domain.covers() == oracle.domain.covers()
    for f, o in zip(fast.classes, oracle.classes):
        assert _representative(f) == _representative(o)
        assert f.members[0] is f.representative
        assert len(f.members) <= len(o.members)


@pytest.mark.parametrize("fusion_safe", [False, True])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_fusion_grammar(depth, fusion_safe):
    grammar = load_structure(str(FIXTURES / "fusion.grammar.json"), "grammar")
    assert_agree(grammar, depth, fusion_safe)


def test_live_connected_fixtures_are_found():
    assert len(_live_connected_fixtures()) >= 5


@pytest.mark.parametrize("name", _live_connected_fixtures())
def test_synthesised_fixture(name):
    grammar = grammar_from_es(load_structure(str(FIXTURES / name), "es"))
    assert_agree(grammar, once_per_rule_depth(grammar))


@pytest.mark.parametrize("seed", range(24))
def test_random_connected(seed):
    es = random_connected_es(random.Random(seed))
    grammar = grammar_from_es(es)
    assert_agree(grammar, once_per_rule_depth(grammar))
