"""Finite posets playing the role of compact skeletons of domains.

Elements are string ids.  The order is stored as the cover (Hasse) relation
plus its computed reflexive-transitive closure; subsets are manipulated as
integer bitmasks, so joins, meets and the various primality notions stay
cheap at desk scale.

Two kinds are supported: ``coherent`` (every pairwise-consistent subset has
a join) and ``bounded_complete`` (every bounded subset has a join).  A set
is *consistent* when it has an upper bound in the poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._common import Report, UnionFind

COHERENT = "coherent"
BOUNDED_COMPLETE = "bounded_complete"


class OrderError(ValueError):
    """Covers do not describe a partial order (or bad arguments)."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteDomain:
    """A finite poset given by covers, with cached closure and join/meet tables."""

    def __init__(self, elements: Iterable[str], covers: Iterable[Tuple[str, str]],
                 kind: str = COHERENT):
        if kind not in (COHERENT, BOUNDED_COMPLETE):
            raise OrderError(f"unknown domain kind {kind!r}")
        self.kind = kind
        self.elements: Tuple[str, ...] = tuple(sorted(set(elements)))
        if not self.elements:
            raise OrderError("a domain needs at least one element")
        self._idx: Dict[str, int] = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        cov = set()
        for a, b in covers:
            if a not in self._idx or b not in self._idx:
                raise OrderError(f"cover ({a!r}, {b!r}) mentions unknown elements")
            if a == b:
                raise OrderError(f"reflexive cover on {a!r}")
            cov.add((self._idx[a], self._idx[b]))
        self._cover_pairs = cov
        # up[i] = mask of elements ⊒ i, computed by DFS over covers
        succ = [0] * n
        for a, b in cov:
            succ[a] |= 1 << b
        up = [None] * n
        state = [0] * n  # 0 unvisited, 1 in progress, 2 done

        def visit(i: int) -> int:
            if state[i] == 1:
                raise OrderError(f"cycle through {self.elements[i]!r}")
            if state[i] == 2:
                return up[i]
            state[i] = 1
            m = 1 << i
            for j in _bits(succ[i]):
                m |= visit(j)
            up[i] = m
            state[i] = 2
            return m

        for i in range(n):
            visit(i)
        self._up: List[int] = up
        self._down: List[int] = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                self._down[j] |= 1 << i
        # covers must be transitively reduced; normalise so that input given
        # as a full order still yields a Hasse diagram
        reduced = set()
        for a, b in cov:
            direct = True
            for k in _bits(self._up[a] & self._down[b] & ~(1 << a) & ~(1 << b)):
                direct = False
                break
            if direct:
                reduced.add((a, b))
        self._cover_pairs = reduced
        self._full = (1 << n) - 1
        self._join_cache: Dict[int, Optional[int]] = {}
        self._meet_cache: Dict[int, Optional[int]] = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_leq(elements: Iterable[str], leq: Iterable[Tuple[str, str]],
                 kind: str = COHERENT) -> "FiniteDomain":
        """Build from an arbitrary (reflexive-transitive) order relation."""
        return FiniteDomain(elements, [(a, b) for a, b in leq if a != b], kind)

    # ------------------------------------------------------------------ #
    # Order primitives
    # ------------------------------------------------------------------ #

    def index(self, x: str) -> int:
        try:
            return self._idx[x]
        except KeyError:
            raise OrderError(f"unknown element {x!r}") from None

    def mask_of(self, xs: Iterable[str]) -> int:
        m = 0
        for x in xs:
            m |= 1 << self.index(x)
        return m

    def ids(self, mask: int) -> Tuple[str, ...]:
        return tuple(self.elements[i] for i in _bits(mask))

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self.index(a)] & (1 << self.index(b)))

    def covers(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted((self.elements[a], self.elements[b])
                            for a, b in self._cover_pairs))

    def lower_covers(self, x: str) -> Tuple[str, ...]:
        i = self.index(x)
        return tuple(sorted(self.elements[a] for a, b in self._cover_pairs if b == i))

    def upper_covers(self, x: str) -> Tuple[str, ...]:
        i = self.index(x)
        return tuple(sorted(self.elements[b] for a, b in self._cover_pairs if a == i))

    def is_cover(self, a: str, b: str) -> bool:
        return (self.index(a), self.index(b)) in self._cover_pairs

    def bottom(self) -> Optional[str]:
        mins = [i for i in range(len(self.elements)) if self._down[i] == (1 << i)]
        if len(mins) == 1:
            return self.elements[mins[0]]
        return None

    def maximal_elements(self) -> Tuple[str, ...]:
        return tuple(self.elements[i] for i in range(len(self.elements))
                     if self._up[i] == (1 << i))

    # ------------------------------------------------------------------ #
    # Joins and meets (None when they do not exist)
    # ------------------------------------------------------------------ #

    def _join_mask(self, mask: int) -> Optional[int]:
        if mask in self._join_cache:
            return self._join_cache[mask]
        ub = self._full
        for i in _bits(mask):
            ub &= self._up[i]
        result = self._least_of(ub)
        self._join_cache[mask] = result
        return result

    def _meet_mask(self, mask: int) -> Optional[int]:
        if mask in self._meet_cache:
            return self._meet_cache[mask]
        lb = self._full
        for i in _bits(mask):
            lb &= self._down[i]
        result = self._greatest_of(lb)
        self._meet_cache[mask] = result
        return result

    def _least_of(self, mask: int) -> Optional[int]:
        mins = [i for i in _bits(mask) if (self._down[i] & mask) == (1 << i)]
        return mins[0] if len(mins) == 1 else None

    def _greatest_of(self, mask: int) -> Optional[int]:
        maxs = [i for i in _bits(mask) if (self._up[i] & mask) == (1 << i)]
        return maxs[0] if len(maxs) == 1 else None

    def join(self, xs: Iterable[str]) -> Optional[str]:
        """Least upper bound of ``xs`` (``⊥`` for the empty set), or None."""
        j = self._join_mask(self.mask_of(xs))
        return self.elements[j] if j is not None else None

    def meet(self, xs: Iterable[str]) -> Optional[str]:
        m = self._meet_mask(self.mask_of(xs))
        return self.elements[m] if m is not None else None

    def consistent(self, xs: Iterable[str]) -> bool:
        """Whether ``xs`` has an upper bound in the poset."""
        ub = self._full
        for x in xs:
            ub &= self._up[self.index(x)]
        return ub != 0

    def downset(self, x: str) -> Tuple[str, ...]:
        return self.ids(self._down[self.index(x)])

    # internal mask accessors used by sibling modules
    def _upm(self, i: int) -> int:
        return self._up[i]

    def _downm(self, i: int) -> int:
        return self._down[i]


# ---------------------------------------------------------------------- #
# Validation
# ---------------------------------------------------------------------- #

def validate_domain(dom: FiniteDomain) -> Report:
    """Check least element and the join condition for the domain's kind.

    Coherence is checked through the generator criterion: for pairwise
    consistent ``{d, d', d''}`` the join ``d ⊔ d'`` exists and stays
    consistent with ``d''`` (equivalent, on a finite poset, to every pairwise
    consistent subset having a join).  Bounded completeness reduces to
    binary joins of bounded pairs.
    """
    if dom.bottom() is None:
        return Report(False, "no-least-element", tuple(
            x for x in dom.elements if not dom.lower_covers(x)))
    names = dom.elements
    n = len(names)
    for i, j in combinations(range(n), 2):
        a, b = names[i], names[j]
        if not dom.consistent((a, b)):
            continue
        jm = dom._join_mask((1 << i) | (1 << j))
        if jm is None:
            return Report(False, "missing-join", (a, b))
        if dom.kind == COHERENT:
            for k in range(n):
                c = names[k]
                if dom.consistent((a, c)) and dom.consistent((b, c)):
                    if not dom.consistent((names[jm], c)):
                        return Report(False, "join-breaks-consistency", (a, b, c))
    # meets of nonempty sets come for free; self-check on pairs
    for i, j in combinations(range(n), 2):
        if dom._meet_mask((1 << i) | (1 << j)) is None:
            return Report(False, "missing-meet", (names[i], names[j]))
    return Report(True)


# ---------------------------------------------------------------------- #
# Irreducibles, primes, weak primes
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class IrreducibleInfo:
    element: str
    unique_predecessor: str
    class_id: int


def _irreducible_indices(dom: FiniteDomain) -> List[int]:
    out = []
    for x in dom.elements:
        lows = dom.lower_covers(x)
        if len(lows) == 1:
            out.append(dom.index(x))
    return out


def irreducibles(dom: FiniteDomain) -> Tuple[IrreducibleInfo, ...]:
    """All elements with a unique lower cover, with their ↔*-class index."""
    classes = interchange_classes(dom)
    cls_of = {x: k for k, xs in enumerate(classes) for x in xs}
    infos = []
    for i in _irreducible_indices(dom):
        x = dom.elements[i]
        infos.append(IrreducibleInfo(x, dom.lower_covers(x)[0], cls_of[x]))
    return tuple(infos)


def irreducible_elements(dom: FiniteDomain) -> Tuple[str, ...]:
    return tuple(dom.elements[i] for i in _irreducible_indices(dom))


def predecessor(dom: FiniteDomain, i: str) -> str:
    lows = dom.lower_covers(i)
    if len(lows) != 1:
        raise OrderError(f"{i!r} is not irreducible")
    return lows[0]


def primes(dom: FiniteDomain) -> Tuple[str, ...]:
    """Elements below a join only via one of the joined elements.

    Uses the binary-join criterion, which on a finite domain agrees with
    quantification over all pairwise-consistent subsets (joins of larger
    sets are reached by repeated binary joins).
    """
    n = len(dom.elements)
    bot = dom.bottom()
    out = []
    for p in range(n):
        x = dom.elements[p]
        if x == bot:
            continue
        good = True
        for i, j in combinations(range(n), 2):
            if not dom.consistent((dom.elements[i], dom.elements[j])):
                continue
            jm = dom._join_mask((1 << i) | (1 << j))
            if jm is None:
                continue
            if dom._up[p] & (1 << jm) and not (dom._up[p] & ((1 << i) | (1 << j))):
                good = False
                break
        if good:
            out.append(x)
    return tuple(out)


def primes_by_definition(dom: FiniteDomain) -> Tuple[str, ...]:
    """Exhaustive oracle for ``primes`` over all pairwise-consistent subsets."""
    n = len(dom.elements)
    subsets = []
    for mask in range(1 << n):
        ok = True
        for i, j in combinations(list(_bits(mask)), 2):
            if not dom.consistent((dom.elements[i], dom.elements[j])):
                ok = False
                break
        if ok:
            jm = dom._join_mask(mask)
            if jm is not None:
                subsets.append((mask, jm))
    out = []
    for p in range(n):
        good = True
        for mask, jm in subsets:
            if dom._up[p] & (1 << jm):
                if not any(dom._up[p] & (1 << i) for i in _bits(mask)):
                    good = False
                    break
        if good:
            out.append(dom.elements[p])
    return tuple(out)


def interchangeable(dom: FiniteDomain, i: str, i2: str) -> bool:
    """Interchangeability of two irreducibles.

    Decided by the join characterisation: the two are consistent and
    ``i ⊔ p(i') = p(i) ⊔ i' ≠ p(i) ⊔ p(i')`` where ``p`` takes the unique
    predecessor.
    """
    pi = predecessor(dom, i)
    pi2 = predecessor(dom, i2)
    if not dom.consistent((i, i2)):
        return False
    a = dom.join((i, pi2))
    b = dom.join((pi, i2))
    c = dom.join((pi, pi2))
    return a is not None and a == b and a != c


def interchangeable_by_definition(dom: FiniteDomain, i: str, i2: str) -> bool:
    """Oracle: the original quantifier over downward-closed consistent sets
    of irreducibles.  Exponential; meant for cross-checking on small posets."""
    irr = _irreducible_indices(dom)
    k = len(irr)
    pos = {e: t for t, e in enumerate(irr)}
    ii, jj = dom.index(i), dom.index(i2)
    if ii not in pos or jj not in pos:
        raise OrderError(f"{i!r} or {i2!r} is not irreducible")
    # per-irreducible mask of irreducibles strictly below (within irr indexing)
    below = []
    for e in irr:
        m = 0
        for t, e2 in enumerate(irr):
            if e2 != e and (dom._down[e] >> e2) & 1:
                m |= 1 << t
        below.append(m)

    def down_closed(mask: int) -> bool:
        rest = mask
        while rest:
            low = rest & -rest
            t = low.bit_length() - 1
            if below[t] & ~mask:
                return False
            rest ^= low
        return True

    def consistent_mask(mask: int) -> bool:
        ub = dom._full
        for t in _bits(mask):
            ub &= dom._up[irr[t]]
        return ub != 0

    def join_mask(mask: int) -> Optional[int]:
        m = 0
        for t in _bits(mask):
            m |= 1 << irr[t]
        return dom._join_mask(m)

    ti, tj = pos[ii], pos[jj]
    all_equal = True
    some_growth = False
    for mask in range(1 << k):
        mi, mj = mask | (1 << ti), mask | (1 << tj)
        if not (down_closed(mi) and down_closed(mj)):
            continue
        if not (consistent_mask(mi) and consistent_mask(mj)):
            continue
        ji, jjn = join_mask(mi), join_mask(mj)
        if ji != jjn or ji is None:
            all_equal = False
            break
        if join_mask(mask) != ji:
            some_growth = True
    return all_equal and some_growth


def interchangeable_via_compacts(dom: FiniteDomain, i: str, i2: str) -> bool:
    """Oracle: the characterisation quantifying over compacts above both
    predecessors (``d ⊔ i = d ⊔ i'`` for all such ``d``, with growth somewhere)."""
    pi, pi2 = predecessor(dom, i), predecessor(dom, i2)
    if not dom.consistent((i, i2)):
        return False
    base = dom._up[dom.index(pi)] & dom._up[dom.index(pi2)]
    some_growth = False
    for t in _bits(base):
        d = dom.elements[t]
        ji = dom.join((d, i)) if dom.consistent((d, i)) else None
        ji2 = dom.join((d, i2)) if dom.consistent((d, i2)) else None
        if ji != ji2:
            return False
        if ji is not None and ji != d:
            some_growth = True
    return some_growth


def interchange_classes(dom: FiniteDomain) -> Tuple[FrozenSet[str], ...]:
    """Partition of the irreducibles by the reflexive-transitive closure of ↔.

    Classes are ordered by their lexicographically least member.
    """
    irr = [dom.elements[i] for i in _irreducible_indices(dom)]
    uf = UnionFind(irr)
    for a, b in combinations(irr, 2):
        if interchangeable(dom, a, b):
            uf.union(a, b)
    return tuple(frozenset(g) for g in uf.groups())


def weak_primes(dom: FiniteDomain) -> Tuple[str, ...]:
    """Irreducibles that are prime up to interchangeability.

    Checked on binary joins: whenever ``i ⊑ d ⊔ d'`` for a consistent pair,
    some interchangeable ``i'`` sits below ``d`` or ``d'``.  Larger joins
    follow by iterating binary ones (the full-quantifier oracle is
    ``weak_primes_by_definition``).
    """
    irr_idx = _irreducible_indices(dom)
    irr = [dom.elements[t] for t in irr_idx]
    partners: Dict[str, List[int]] = {}
    for x in irr:
        partners[x] = [dom.index(y) for y in irr if x == y or interchangeable(dom, x, y)]
    n = len(dom.elements)
    out = []
    for x in irr:
        xi = dom.index(x)
        good = True
        for i, j in combinations(range(n), 2):
            pair_mask = (1 << i) | (1 << j)
            if not dom.consistent((dom.elements[i], dom.elements[j])):
                continue
            jm = dom._join_mask(pair_mask)
            if jm is None or not (dom._up[xi] & (1 << jm)):
                continue
            if not any((dom._up[p] & pair_mask) for p in partners[x]):
                good = False
                break
        if good:
            out.append(x)
    return tuple(out)


def weak_primes_by_definition(dom: FiniteDomain) -> Tuple[str, ...]:
    """Oracle for ``weak_primes`` quantifying over all consistent subsets."""
    irr_idx = _irreducible_indices(dom)
    irr = [dom.elements[t] for t in irr_idx]
    partners: Dict[str, List[int]] = {}
    for x in irr:
        partners[x] = [dom.index(y) for y in irr if x == y or interchangeable(dom, x, y)]
    n = len(dom.elements)
    out = []
    for x in irr:
        xi = dom.index(x)
        good = True
        for mask in range(1, 1 << n):
            ub = dom._full
            for t in _bits(mask):
                ub &= dom._up[t]
            if ub == 0:
                continue
            jm = dom._join_mask(mask)
            if jm is None or not (dom._up[xi] & (1 << jm)):
                continue
            if not any(dom._up[p] & mask for p in partners[x]):
                good = False
                break
        if good:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Algebraicity:
    irreducible_algebraic: bool
    prime_algebraic: bool
    weak_prime_algebraic: bool


def decompose(dom: FiniteDomain, d: str) -> FrozenSet[str]:
    """The irreducibles below ``d`` (whose join recovers ``d``)."""
    di = dom.index(d)
    return frozenset(dom.elements[t] for t in _irreducible_indices(dom)
                     if dom._down[di] & (1 << t))


def algebraicity(dom: FiniteDomain) -> Algebraicity:
    """Irreducible/prime/weak-prime algebraicity flags.

    Irreducible algebraicity (every element is the join of the irreducibles
    below it) holds in any valid domain and is recomputed as a self-test;
    the other two reduce to primes, resp. weak primes, exhausting the
    irreducibles.
    """
    irr = set(irreducible_elements(dom))
    irr_alg = all(dom.join(decompose(dom, d)) == d for d in dom.elements)
    return Algebraicity(irr_alg, set(primes(dom)) == irr, set(weak_primes(dom)) == irr)


def diff(dom: FiniteDomain, d2: str, d1: str) -> FrozenSet[str]:
    """Irreducible difference ``ir(d2) \\ ir(d1)``; requires ``d1 ⊑ d2``."""
    if not dom.leq(d1, d2):
        raise OrderError(f"{d1!r} is not below {d2!r}")
    return decompose(dom, d2) - decompose(dom, d1)


# ---------------------------------------------------------------------- #
# Morphisms
# ---------------------------------------------------------------------- #

def validate_domain_morphism(f: Mapping[str, str], dom1: FiniteDomain,
                             dom2: FiniteDomain, strict: bool = False) -> Report:
    """Check the weak-prime-domain morphism conditions for a total map.

    Condition on covers is read permissively by default (a cover may be
    preserved or collapsed); ``strict=True`` demands genuine preservation.
    Joins of consistent subsets must be preserved, meets only when the meet
    is an immediate predecessor of one argument.  When both posets are prime
    algebraic, full meet preservation is additionally required.
    """
    for x in dom1.elements:
        if x not in f:
            return Report(False, "not-total", (x,))
        if f[x] not in dom2._idx:
            return Report(False, "unknown-target", (x, f[x]))
    for a, b in ((dom1.elements[i], dom1.elements[j]) for i, j in dom1._cover_pairs):
        if f[a] == f[b]:
            if strict:
                return Report(False, "cover-collapsed", (a, b))
            continue
        if not dom2.is_cover(f[a], f[b]):
            return Report(False, "cover-not-preserved", (a, b))
    # joins of consistent sets: the empty set plus consistent pairs suffice,
    # larger consistent sets follow by iterating binary joins
    b1, b2 = dom1.bottom(), dom2.bottom()
    if b1 is not None and b2 is not None and f[b1] != b2:
        return Report(False, "join-not-preserved", ())
    for a, b in combinations(dom1.elements, 2):
        if not dom1.consistent((a, b)):
            continue
        j1 = dom1.join((a, b))
        if j1 is None:
            continue
        j2 = dom2.join((f[a], f[b]))
        if j2 != f[j1]:
            return Report(False, "join-not-preserved", (a, b))
    for a, b in combinations(dom1.elements, 2):
        if not dom1.consistent((a, b)):
            continue
        m = dom1.meet((a, b))
        if m is None:
            continue
        if dom1.is_cover(m, a) or dom1.is_cover(m, b):
            m2 = dom2.meet((f[a], f[b]))
            if m2 != f[m]:
                return Report(False, "meet-not-preserved", (a, b))
    if algebraicity(dom1).prime_algebraic and algebraicity(dom2).prime_algebraic:
        # binary meets suffice: meets of larger nonempty sets iterate them
        for a, b in combinations(dom1.elements, 2):
            m1 = dom1.meet((a, b))
            m2 = dom2.meet((f[a], f[b]))
            if m1 is not None and m2 != f[m1]:
                return Report(False, "prime-meet-not-preserved", (a, b))
    return Report(True)
