"""The building blocks every layer shares: a union-find, a report, a
per-structure cache, the bits of a mask and ``backtrack``, the one
depth-first search behind graph matching, trace permutations and
isomorphism tests.

This module imports nothing from weavent, so any layer may import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set


class UnionFind:
    """Disjoint sets over mutually comparable items.

    The least member of a class is always its root, so roots and the order
    of ``groups()`` do not depend on the order of the unions.  ``roots``
    holds the root of every class, kept as items are added and unions
    happen, and ``copy`` starts an independent union-find from this one.
    """

    def __init__(self, items: Iterable = ()):
        self.parent: Dict = {x: x for x in items}
        self.roots: Set = set(self.parent)

    def __contains__(self, x) -> bool:
        return x in self.parent

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.roots.add(x)

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
            self.roots.discard(rb)

    def copy(self) -> "UnionFind":
        uf = UnionFind()
        uf.parent = dict(self.parent)
        uf.roots = set(self.roots)
        return uf

    def groups(self) -> List[List]:
        """The classes, each sorted, ordered by their least member."""
        out: Dict = {root: [] for root in sorted(self.roots)}
        for x in self.parent:
            out[self.find(x)].append(x)
        return [sorted(members) for members in out.values()]


@dataclass(frozen=True)
class Report:
    """A verdict; when it is negative, the failed condition and a witness."""
    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _once(obj, key: Hashable, compute: Callable):
    """``compute(obj)``, computed on the first call and kept on ``obj``.

    ``obj`` is an immutable structure with a ``_derived`` dict, so what is
    derived from it never goes stale.
    """
    derived = obj._derived
    if key not in derived:
        derived[key] = compute(obj)
    return derived[key]


def backtrack(slots: Sequence[Sequence], fits: Callable[[int, object, List], bool],
              distinct: bool) -> Iterator[tuple]:
    """Every choice of one candidate per slot that ``fits`` accepts.

    ``slots[k]`` lists the candidates for slot ``k`` in the order they are
    tried; ``fits(k, x, chosen)`` says whether ``x`` may fill slot ``k``
    after the choices ``chosen`` (a list it must not change) for slots
    ``0..k-1``.  When ``distinct`` is set, no candidate fills two slots.
    Choices come as tuples in lexicographic order of candidate positions,
    the order of a recursive depth-first search; the stack is explicit, so
    the number of slots is not bounded by the recursion limit.
    """
    n = len(slots)
    if n == 0:
        yield ()
        return
    chosen: List = []
    used = set()
    tried = [0]  # per open slot, the position of its next candidate
    while tried:
        k = len(chosen)
        cands = slots[k]
        i = tried[-1]
        while i < len(cands) and ((distinct and cands[i] in used)
                                  or not fits(k, cands[i], chosen)):
            i += 1
        if i == len(cands):
            tried.pop()
            if chosen:
                used.discard(chosen.pop())
            continue
        tried[-1] = i + 1
        x = cands[i]
        if k + 1 == n:
            yield (*chosen, x)
        else:
            chosen.append(x)
            if distinct:
                used.add(x)
            tried.append(0)
