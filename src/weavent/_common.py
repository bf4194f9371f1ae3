"""The building blocks every layer shares: a union-find, a report and a
per-structure cache.

This module imports nothing from weavent, so any layer may import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


class UnionFind:
    """Disjoint sets over mutually comparable items.

    The least member of a class is always its root, so roots and the order
    of ``groups()`` do not depend on the order of the unions.
    """

    def __init__(self, items: Iterable = ()):
        self.parent: Dict = {x: x for x in items}

    def __contains__(self, x) -> bool:
        return x in self.parent

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        parent = self.parent
        while parent[x] != x:  # path halving
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def groups(self) -> List[List]:
        """The classes, each sorted, ordered by their least member."""
        out: Dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return [sorted(out[root]) for root in sorted(out)]


@dataclass(frozen=True)
class Report:
    """A verdict; when it is negative, the failed condition and a witness."""
    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def _once(obj, key: str, compute: Callable):
    """``compute(obj)``, computed on the first call and kept on ``obj``.

    ``obj`` is an immutable structure with a ``_derived`` dict, so what is
    derived from it never goes stale.
    """
    derived = obj._derived
    if key not in derived:
        derived[key] = compute(obj)
    return derived[key]
