"""The building blocks every layer shares: the immutable records, a
union-find, a report, ``once``, which keeps what is derived from a
structure on it, the bits of a mask, ``_finishing_order``, the one cycle
walk behind a domain's rising order and an asynchronous graph's
acyclicity, and ``backtrack``, the one depth-first search behind graph
matching, trace permutations and isomorphism tests.

This module imports nothing from weavent, so any layer may import it.
"""

from __future__ import annotations

import functools
from operator import attrgetter
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)


class Record:
    """An immutable record, equal only to itself.

    A subclass names in ``_fields`` the fields its ``repr`` shows, in
    order, and sets every attribute once in its own ``__init__`` through
    ``object.__setattr__``; attributes outside ``_fields`` (``_derived``
    and the like) are left out of ``repr``.  Assigning or deleting an
    attribute afterwards raises ``AttributeError``.  The instance keeps its
    ``__dict__``, so ``copy`` and ``pickle`` work on it.
    """

    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Value(Record):
    """A record equal to another of its own class with equal ``_fields``,
    and hashed by them."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class attribute, not a method: ``self._key(x)`` is the tuple of
        # x's fields (every value class has two or more)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))


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


class Report(Value):
    """A verdict; when it is negative, the failed condition and a witness."""
    _fields = ("ok", "condition", "witness")

    def __init__(self, ok: bool, condition: Optional[str] = None,
                 witness: Optional[tuple] = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "witness", witness)

    def __bool__(self):
        return self.ok


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _finishing_order(succ: Sequence[int]) -> Tuple[List[int], Optional[int]]:
    """The depth-first walk of the graph whose node ``i`` has the successor
    mask ``succ[i]``: ``(finished, None)``, with every node finished after
    all nodes reachable from it, or ``(finished so far, j)`` at the first
    node ``j`` met on the path still open, which lies on a cycle.

    Roots and successors are visited in index order, the order of a
    recursive walk; the stack is explicit, so long chains cannot exhaust
    the recursion limit.
    """
    state = [0] * len(succ)  # 0 unvisited, 1 on the open path, 2 finished
    finished: List[int] = []
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, _bits(succ[root]))]
        while stack:
            i, after = stack[-1]
            for j in after:
                if state[j] == 1:
                    return finished, j
                if not state[j]:
                    state[j] = 1
                    stack.append((j, _bits(succ[j])))
                    break
            else:
                stack.pop()
                state[i] = 2
                finished.append(i)
    return finished, None


def once(compute: Callable) -> Callable:
    """``compute`` as a function of one immutable structure whose value is
    computed on the first call and kept in the structure's ``_derived``
    dict, under the returned function itself.

    A ``compute`` that raises keeps nothing, so the next call runs it
    again.  The returned function carries ``compute``'s name, module and
    docstring, and a miss runs its ``__wrapped__``, which a test may
    replace to count the runs.
    """
    def derived(obj):
        kept = obj._derived
        if derived not in kept:
            kept[derived] = derived.__wrapped__(obj)
        return kept[derived]
    # a class's namespace (``once(_Index)``) is not copied onto the function
    return functools.update_wrapper(derived, compute, updated=())


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
