"""Interval-based view of finite domains.

A (prime) interval is a cover pair ``[d, d']``.  Intervals are preordered by
``[c,c'] ≤ [d,d']`` iff ``c = c' ⊓ d`` and ``c' ⊔ d = d'``; the induced
equivalence groups intervals that perform the same quantum of change.  On a
weak prime domain the interval classes biject with the interchangeability
classes of irreducibles, and the classical axioms (C), (R), (V) carve out
exactly the weak prime domains among finite coherent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Optional, Tuple

from ._common import UnionFind
from .es import EventStructure
from .domains import (FiniteDomain, OrderError, diff, interchange_classes,
                      irreducible_elements, predecessor, validate_domain,
                      weak_primes)

Interval = Tuple[str, str]


def interval_leq(dom: FiniteDomain, first: Interval, second: Interval) -> bool:
    """``[c,c'] ≤ [d,d']``: the lower pair is the meet-side restriction of
    the upper one and pushes up to it by join."""
    c, c2 = first
    d, d2 = second
    return dom.meet((c2, d)) == c and dom.consistent((c2, d)) and dom.join((c2, d)) == d2


def interval_classes(dom: FiniteDomain) -> Tuple[FrozenSet[Interval], ...]:
    """Partition of the cover pairs by the symmetric-transitive closure of ≤,
    ordered by least member.

    One union pass over all pairs of pairs is that closure: each related
    pair is joined when it is met, and joined classes stay joined.
    """
    pairs = dom.covers()
    uf = UnionFind(pairs)
    for p, q in combinations(pairs, 2):
        if uf.find(p) != uf.find(q) and (interval_leq(dom, p, q) or interval_leq(dom, q, p)):
            uf.union(p, q)
    return tuple(frozenset(g) for g in uf.groups())


@dataclass(frozen=True)
class AxiomReport:
    F: bool
    C: bool
    R: bool
    V: bool
    # (I) holds on every poset: interval_leq((c,c'),(d,d')) requires c = c'⊓d
    # and d' = c'⊔d, so c ⊑ c' and d ⊑ d'.  A pair related to any other pair
    # is therefore ordered, and no class of the closure mixes ordered and
    # unordered pairs.
    I: bool
    witness: Optional[tuple] = None


def _axiom_c(dom: FiniteDomain) -> Optional[tuple]:
    for x in dom.elements:
        ups = dom.upper_covers(x)
        for y, z in combinations(ups, 2):
            if not dom.consistent((y, z)):
                continue
            j = dom.join((y, z))
            if j is None or not dom.is_cover(y, j) or not dom.is_cover(z, j):
                return (x, y, z)
    return None


def _axiom_r(dom: FiniteDomain, classes) -> Optional[tuple]:
    for cls in classes:
        for (x, y), (x2, z) in combinations(sorted(cls), 2):
            if x == x2 and y != z:
                return (x, y, z)
    return None


def _axiom_v(dom: FiniteDomain, classes) -> Optional[tuple]:
    cls_of = {iv: k for k, cls in enumerate(classes) for iv in cls}
    ivs = sorted(cls_of)
    for (x, x1) in ivs:
        for (y, y1) in ivs:
            if cls_of[(x, x1)] != cls_of[(y, y1)]:
                continue
            for (x_, x2) in ivs:
                if x_ != x:
                    continue
                for (y_, y2) in ivs:
                    if y_ != y or cls_of[(x_, x2)] != cls_of[(y_, y2)]:
                        continue
                    if dom.consistent((x1, x2)) and not dom.consistent((y1, y2)):
                        return (x, x1, x2, y, y1, y2)
    return None


def check_axioms(dom: FiniteDomain) -> AxiomReport:
    """Evaluate the interval axioms exhaustively on the finite poset.

    (F) is automatic at this scale.  (C): covers of a common element with
    consistent targets close to a covering square.  (R): equivalent
    intervals sharing their lower endpoint coincide.  (V): equivalence
    preserves consistency of the upper endpoints.  (I), the
    consistency-variant axiom over arbitrary element pairs, holds by
    construction (see ``AxiomReport.I``) and is not evaluated.
    """
    rep = validate_domain(dom)
    if not rep.ok:
        raise OrderError(f"not a valid domain: {rep.condition} {rep.witness}")
    classes = interval_classes(dom)
    wc = _axiom_c(dom)
    wr = _axiom_r(dom, classes)
    wv = _axiom_v(dom, classes)
    return AxiomReport(True, wc is None, wr is None, wv is None, True, wc or wr or wv)


def ev_wd(dom: FiniteDomain) -> EventStructure:
    """The event structure of interval classes (the interval-based
    construction); isomorphic to the one built from irreducibles.

    Events are ~-classes of intervals; a class is enabled by a set covering
    all classes strictly below the lower endpoint of one representative;
    two classes conflict when upper endpoints of representatives are never
    consistent.
    """
    report = check_axioms(dom)
    for name in ("C", "R", "V"):
        if not getattr(report, name):
            raise OrderError(f"axiom {name} fails: {report.witness}")
    classes = interval_classes(dom)
    names = {}
    for k, cls in enumerate(classes):
        nm = f"iv{k}:[{min(cls)[0]},{min(cls)[1]}]"
        for iv in cls:
            names[iv] = nm
    events = sorted(set(names.values()))

    def s_of(d: str) -> FrozenSet[str]:
        return frozenset(names[(c, c2)] for (c, c2) in names if dom.leq(c2, d))

    gens = set()
    for iv in names:
        gens.add((s_of(iv[0]), names[iv]))
    conflict = []
    for cls1, cls2 in combinations(classes, 2):
        if all(not dom.consistent((p[1], q[1])) for p in cls1 for q in cls2):
            conflict.append((names[min(cls1)], names[min(cls2)]))
    return EventStructure.binary(events, conflict, [(x, e) for x, e in gens])


def zeta(dom: FiniteDomain) -> Tuple[Tuple[FrozenSet[Interval], FrozenSet[str]], ...]:
    """The bijection between interval classes and interchangeability classes.

    Maps an interval class to the class of any irreducible in the
    difference of its endpoints; verified well-defined, bijective, and
    inverse to ``[i] ↦ [p(i), i]``.
    """
    wps = set(weak_primes(dom))
    for i in irreducible_elements(dom):
        if i not in wps:
            raise OrderError(f"not weak prime algebraic: irreducible {i!r} is not a weak prime")
    iv_classes = interval_classes(dom)
    ir_classes = interchange_classes(dom)
    cls_of_irr = {i: k for k, cls in enumerate(ir_classes) for i in cls}
    forward: List[Optional[int]] = []
    for cls in iv_classes:
        images = set()
        for (d, d2) in cls:
            # the irreducible difference of a cover need not be flat; only
            # its minimal elements perform the step and share a class
            delta = diff(dom, d2, d)
            for i in delta:
                if not any(j != i and dom.leq(j, i) for j in delta):
                    images.add(cls_of_irr[i])
        if len(images) != 1:
            raise OrderError(f"interval class {sorted(cls)} maps to {len(images)} classes")
        forward.append(images.pop())
    if sorted(forward) != list(range(len(ir_classes))):
        raise OrderError("interval classes and interchange classes do not biject")
    # inverse: [i] -> class of [p(i), i]
    iv_of = {iv: k for k, cls in enumerate(iv_classes) for iv in cls}
    for k, cls in enumerate(ir_classes):
        for i in cls:
            iv = (predecessor(dom, i), i)
            if forward[iv_of[iv]] != k:
                raise OrderError(f"ζ and ι are not mutually inverse at {i!r}")
    return tuple((iv_classes[n], ir_classes[forward[n]]) for n in range(len(iv_classes)))
