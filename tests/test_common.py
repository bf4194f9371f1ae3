import random

from weavent._common import Report, UnionFind


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
