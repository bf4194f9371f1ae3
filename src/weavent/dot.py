"""Deterministic DOT emission.

Posets come out as Hasse diagrams (one node per element, one edge per
cover), typed graphs with ``id:type`` labels, asynchronous graphs with the
commuting squares listed as comments.  Nodes and edges are emitted in sorted
order so repeated runs are byte-identical.
"""

from __future__ import annotations

from typing import List

from .domains import FiniteDomain
from .graphs import TypedGraph
from .asyncgraphs import AsyncGraph


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _digraph(name: str, lines: List[str]) -> str:
    head = f"digraph {_q(name)} {{\n"
    return head + "  " + "\n  ".join(lines) + "\n}\n" if lines else head + "}\n"


def poset_dot(dom: FiniteDomain, name: str = "hasse") -> str:
    # the elements and the cover index pairs come sorted; each element is
    # quoted once
    q = [_q(x) for x in dom.elements]
    return _digraph(name, ["rankdir=BT;", *(f"{x};" for x in q),
                           *(f"{q[a]} -> {q[b]};" for a, b in dom._cover_pairs)])


def typed_graph_dot(g: TypedGraph, name: str = "graph") -> str:
    nodes = [f"{_q(n)} [label={_q(n + ':' + g.node_type[n])}];" for n in sorted(g.nodes)]
    edges = [f"{_q(g.src[e])} -> {_q(g.tgt[e])} [label={_q(e + ':' + g.edge_type[e])}];"
             for e in sorted(g.edges)]
    return _digraph(name, nodes + edges)


def async_dot(a: AsyncGraph) -> str:
    squares = sorted(sorted(map(list, sq)) for sq in a.squares)
    shape = {n: "doublecircle" if n == a.origin else "circle" for n in a.nodes}
    return _digraph("async", [f"// square: {p} ~ {q}" for p, q in squares]
                    + [f"{_q(n)} [shape={shape[n]}];" for n in sorted(a.nodes)]
                    + [f"{_q(s)} -> {_q(t)} [label={_q(e)}];"
                       for e, (s, t) in sorted(a.edges.items())])
