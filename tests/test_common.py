import random
from itertools import product

import pytest

from weavent._common import Report, UnionFind, _finishing_order, backtrack, once


def _components(n, edges):
    adj = {k: set() for k in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for k in range(n):
        if k in seen:
            continue
        comp, todo = set(), [k]
        while todo:
            x = todo.pop()
            if x not in comp:
                comp.add(x)
                todo.extend(adj[x] - comp)
        seen |= comp
        comps.append(sorted(comp))
    return sorted(comps)


def test_union_find_matches_bfs_components():
    rng = random.Random(2017)
    for _ in range(200):
        n = rng.randint(1, 30)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        items = list(range(n))
        rng.shuffle(items)
        uf = UnionFind(items)
        for a, b in edges:
            uf.union(a, b)
        groups = uf.groups()
        assert groups == _components(n, edges)
        for g in groups:
            assert all(uf.find(x) == g[0] == min(g) for x in g)


def test_union_find_add_and_membership():
    uf = UnionFind()
    for x in ("b", "c", "a", "b"):
        uf.add(x)
    assert "a" in uf and "d" not in uf
    uf.union("c", "b")
    uf.union("c", "a")
    assert uf.find("c") == "a"
    assert uf.groups() == [["a", "b", "c"]]


def test_report_truth():
    assert Report(True)
    rep = Report(False, "missing-join", ("a", "b"))
    assert not rep and rep.condition == "missing-join" and rep.witness == ("a", "b")


def _backtrack_by_definition(slots, fits, distinct):
    """Every tuple of the product whose every prefix is accepted, in
    product order."""
    return [t for t in product(*slots)
            if all((not distinct or t[k] not in t[:k]) and fits(k, t[k], list(t[:k]))
                   for k in range(len(t)))]


def test_backtrack_matches_filtered_product():
    rng = random.Random(6)
    for _ in range(300):
        pool = list(range(rng.randint(1, 5)))
        slots = [rng.sample(pool, rng.randint(0, len(pool)))
                 for _ in range(rng.randint(0, 5))]
        salt = rng.random()

        def fits(k, x, chosen, salt=salt):
            return random.Random(f"{salt}/{k}/{x}/{chosen}").random() < 0.7

        for distinct in (False, True):
            got = list(backtrack(slots, fits, distinct))
            assert got == _backtrack_by_definition(slots, fits, distinct)


def test_backtrack_edge_cases():
    assert list(backtrack([], lambda k, x, chosen: False, True)) == [()]
    assert list(backtrack([[1, 2], []], lambda k, x, chosen: True, False)) == []
    assert list(backtrack([[1, 2], [1, 2]], lambda k, x, chosen: True, True)) == [(1, 2), (2, 1)]
    seen = []
    first = next(backtrack([["a", "b"]] * 3, lambda k, x, chosen: seen.append(k) or True, False))
    assert first == ("a", "a", "a") and seen == [0, 1, 2]


def test_backtrack_depth_is_not_bounded_by_recursion():
    n = 5000
    slots = [[k - 1, k, k + 1] for k in range(n)]
    # a permutation of 0..n-1 that moves every element: forced to swap pairs
    results = backtrack(slots, lambda k, x, chosen: 0 <= x < n and x != k, True)
    first = next(results)
    assert first == tuple(k + 1 if k % 2 == 0 else k - 1 for k in range(n))


def test_finishing_order_lists_each_node_after_the_nodes_it_reaches():
    # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, and 4 alone
    assert _finishing_order([0b0110, 0b1000, 0b1000, 0, 0]) == ([3, 1, 2, 0, 4], None)
    # 0 -> 2 -> 1 -> 2: the walk meets 2 again while its path is open
    assert _finishing_order([0b100, 0b100, 0b010]) == ([], 2)
    # a chain longer than the recursion limit
    n = 5000
    assert _finishing_order([1 << k + 1 for k in range(n - 1)] + [0]) == (
        list(range(n - 1, -1, -1)), None)


class _Structure:
    def __init__(self):
        self._derived = {}


def test_once_keeps_one_value_per_object():
    runs = []

    @once
    def size(obj):
        runs.append(obj)
        return len(runs)

    a, b = _Structure(), _Structure()
    assert [size(a), size(a), size(b), size(a), size(b)] == [1, 1, 2, 1, 2]
    assert runs == [a, b]
    assert a._derived == {size: 1} and b._derived == {size: 2}


def test_once_keeps_nothing_when_the_compute_raises():
    runs = []

    @once
    def fragile(obj):
        runs.append(obj)
        if len(runs) == 1:
            raise KeyError("first run")
        return "second run"

    obj = _Structure()
    with pytest.raises(KeyError, match="first run") as raised:
        fragile(obj)
    assert raised.value.__context__ is None and obj._derived == {}
    assert fragile(obj) == fragile(obj) == "second run" and len(runs) == 2


def _documented(obj):
    """What the wrapper shows of its compute."""
    return obj


def test_once_carries_the_name_module_and_docstring():
    wrapped = once(_documented)
    assert (wrapped.__name__, wrapped.__qualname__, wrapped.__module__, wrapped.__doc__) == (
        "_documented", "_documented", __name__, "What the wrapper shows of its compute.")
    assert wrapped.__wrapped__ is _documented


def test_replacing_wrapped_changes_what_a_miss_runs():
    wrapped = once(_documented)
    hit, miss = _Structure(), _Structure()
    assert wrapped(hit) is hit
    wrapped.__wrapped__ = lambda obj: "replaced"
    assert wrapped(hit) is hit and wrapped(miss) == "replaced"
