"""Interval-based view of finite domains.

A (prime) interval is a cover pair ``[d, d']``.  Intervals are preordered by
``[c,c'] ≤ [d,d']`` iff ``c = c' ⊓ d`` and ``c' ⊔ d = d'``; the induced
equivalence groups intervals that perform the same quantum of change.  On a
weak prime domain the interval classes biject with the interchangeability
classes of irreducibles, and the classical axioms (C), (R), (V) carve out
exactly the weak prime domains among finite coherent ones.

The layer reads the domain's masks and keeps the interval classes and the
axiom report on the domain; the oracles, ``interval_classes_by_definition``
and ``_axiom_v_by_definition``, live in ``oracles``.  An irreducible ``i`` is
the prime interval ``[p(i), i]``: ``ev_wd`` builds its structure through
``domains._steps_masks``, as ``ev_of_domain`` does from those intervals
alone, and ``zeta`` reads each class's image off the irreducible upper
ends of its covers.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from ._common import UnionFind, Value, _bits, once
from .es import EventStructure, _structure_of
from .domains import (FiniteDomain, OrderError, _event_names, _require_valid,
                      _require_weak_prime, _steps_masks, interchange_classes)

Interval = Tuple[str, str]
_Pair = Tuple[int, int]  # an interval as a pair of element indices


def interval_leq(dom: FiniteDomain, first: Interval, second: Interval) -> bool:
    """``[c,c'] ≤ [d,d']``: the lower pair is the meet-side restriction of
    the upper one and pushes up to it by join."""
    c, c2 = first
    d, d2 = second
    return dom.meet((c2, d)) == c and dom.consistent((c2, d)) and dom.join((c2, d)) == d2


@once
def _classes(dom: FiniteDomain) -> List[List[_Pair]]:
    """``interval_classes`` on element indices, which follow the names' order."""
    # [c,c'] ≤ [d,d'] forces c ⊑ d and d' = c' ⊔ d, so walk the d ⊒ c
    # consistent with c'; d = c is [c,c'] itself, and d ⊒ c' meets c' in c'
    up, down, cons, by_up, upper = dom._up, dom._down, dom._cons, dom._by_up, dom._upper
    covers = dom._cover_pairs
    uf = UnionFind(covers)
    for c, c2 in covers:
        below, down2, up2 = down[c], down[c2], up[c2]
        for d in _bits(up[c] & cons[c2] & ~up2 & ~(1 << c)):
            if down2 & down[d] == below:
                j = by_up.get(up2 & up[d])
                if j is not None and upper[d] >> j & 1:
                    uf.union((c, c2), (d, j))
    return uf.groups()


def interval_classes(dom: FiniteDomain) -> Tuple[FrozenSet[Interval], ...]:
    """Partition of the cover pairs by the symmetric-transitive closure of ≤,
    ordered by least member."""
    names = dom.elements
    return tuple(frozenset((names[c], names[c2]) for c, c2 in cls) for cls in _classes(dom))


class AxiomReport(Value):
    _fields = ("F", "C", "R", "V", "I", "witness")

    def __init__(self, F: bool, C: bool, R: bool, V: bool, I: bool,
                 witness: Optional[tuple] = None):
        put = object.__setattr__
        put(self, "F", F)
        put(self, "C", C)
        put(self, "R", R)
        put(self, "V", V)
        # (I) holds on every poset: interval_leq((c,c'),(d,d')) requires c = c'⊓d
        # and d' = c'⊔d, so c ⊑ c' and d ⊑ d'.  A pair related to any other pair
        # is therefore ordered, and no class of the closure mixes ordered and
        # unordered pairs.
        put(self, "I", I)
        put(self, "witness", witness)


def _axiom_c(dom: FiniteDomain) -> Optional[tuple]:
    up, cons, by_up, upper = dom._up, dom._cons, dom._by_up, dom._upper
    for x, ups in enumerate(upper):
        for y, z in combinations(_bits(ups), 2):
            if cons[y] >> z & 1:
                j = by_up.get(up[y] & up[z])
                if j is None or not (upper[y] & upper[z]) >> j & 1:
                    return (x, y, z)
    return None


def _axiom_r(classes: List[List[_Pair]]) -> Optional[tuple]:
    # a class is sorted, so intervals sharing a lower endpoint are adjacent
    for cls in classes:
        for (x, y), (x2, z) in zip(cls, cls[1:]):
            if x == x2:
                return (x, y, z)
    return None


def _axiom_v(dom: FiniteDomain, classes: List[List[_Pair]]) -> Optional[tuple]:
    """The first (V) witness in the order of ``oracles._axiom_v_by_definition``.

    Without (R) a class may hold several intervals at one lower endpoint,
    so the uppers at (lower endpoint, class) are a mask, tested against a
    consistency row at once; its lowest bit is the first upper in order.
    ``breaks[k]`` marks the classes ``k2`` such that some ``[y,y1]`` of
    class ``k`` has an upper at ``(y, k2)`` inconsistent with ``y1``, so a
    witness starts at ``[x,x1]`` of class ``k`` exactly when ``breaks[k]``
    holds a class at ``x`` consistent with ``x1``.
    """
    cons, upper = dom._cons, dom._upper
    cls_of = {iv: k for k, cls in enumerate(classes) for iv in cls}
    at: Dict[int, Dict[int, int]] = {}  # lower endpoint -> class -> uppers
    for (y, y1), k in cls_of.items():
        row = at.setdefault(y, {})
        row[k] = row.get(k, 0) | 1 << y1
    breaks = [0] * len(classes)
    for (y, y1), k in cls_of.items():
        for k2, uppers in at[y].items():
            if uppers & ~cons[y1]:
                breaks[k] |= 1 << k2
    for x, x1 in sorted(cls_of):
        k = cls_of[(x, x1)]
        seconds = [(x2, cls_of[(x, x2)]) for x2 in _bits(upper[x] & cons[x1])]
        if any(breaks[k] >> k2 & 1 for _, k2 in seconds):
            for y, y1 in classes[k]:
                for x2, k2 in seconds:
                    bad = at[y].get(k2, 0) & ~cons[y1]
                    if bad:
                        return (x, x1, x2, y, y1, (bad & -bad).bit_length() - 1)
    return None


@once
def check_axioms(dom: FiniteDomain) -> AxiomReport:
    """Evaluate the interval axioms exhaustively on the finite poset.

    (F) is automatic at this scale.  (C): covers of a common element with
    consistent targets close to a covering square.  (R): equivalent
    intervals sharing their lower endpoint coincide.  (V): equivalence
    preserves consistency of the upper endpoints.  (I), the
    consistency-variant axiom over arbitrary element pairs, holds by
    construction (see ``AxiomReport.I``) and is not evaluated.
    """
    _require_valid(dom)
    classes = _classes(dom)
    wc, wr, wv = _axiom_c(dom), _axiom_r(classes), _axiom_v(dom, classes)
    witness = wc or wr or wv
    return AxiomReport(True, wc is None, wr is None, wv is None, True,
                       witness and tuple(dom.elements[i] for i in witness))


def ev_wd(dom: FiniteDomain) -> EventStructure:
    """The event structure of interval classes (the interval-based
    construction); isomorphic to the one built from irreducibles.

    Events are ~-classes of intervals, and a class performs each of its
    covers (``domains._steps_masks``, which ``ev_of_domain`` shares): a
    class is enabled by a set covering all classes strictly below the lower
    endpoint of one representative.  On a coherent domain two classes
    conflict when upper endpoints of representatives are never consistent;
    on any other the consistent sets are the classes below each maximal
    element.  The domain must satisfy (C), (R) and (V).
    """
    report = check_axioms(dom)
    for name in ("C", "R", "V"):
        if not getattr(report, name):
            raise OrderError(f"axiom {name} fails: {report.witness}")
    return _structure_of(_steps_masks(dom, _interval_events(dom), _classes(dom)))


def _interval_events(dom: FiniteDomain) -> List[str]:
    """``iv{k}:[d,d']``, the event of the ``k``-th class, after its least cover."""
    names = dom.elements
    return [f"iv{k}:[{names[c]},{names[c2]}]" for k, [(c, c2), *_] in enumerate(_classes(dom))]


@once
def zeta(dom: FiniteDomain) -> Tuple[Tuple[FrozenSet[Interval], FrozenSet[str]], ...]:
    """The bijection between interval classes and interchangeability classes.

    Maps an interval class to the ↔*-classes of the irreducible upper ends
    of its covers, and checks that there is one each and that the map is a
    bijection.  It is inverse to ``[i] ↦ [p(i), i]``.  It is computed once
    per domain, and ``_zeta_events`` reads it as a map of event names.

    These are the classes of the minimal irreducibles of ``ir(d') \\ ir(d)``
    over the covers ``[d, d']`` of the class.  A cover ``[p(i), i]`` has the
    difference ``{i}``.  Conversely, on a valid domain a minimal ``i`` of
    ``ir(d') \\ ir(d)`` has every irreducible strictly below it in ``ir(d)``,
    so ``p(i) ⊑ d`` by irreducible algebraicity (``p(i)`` is the join of
    those irreducibles).  As ``i ⋢ d``, ``d ⊏ i ⊔ d ⊑ d'``, so
    ``i ⊔ d = d'``; and ``p(i) ⊑ i ⊓ d ⊏ i`` with ``p(i)`` the only lower
    cover of ``i``, so ``i ⊓ d = p(i)``.  Hence ``[p(i), i] ≤ [d, d']``, and
    the two lie in one class.
    """
    _require_weak_prime(dom)
    iv_classes = interval_classes(dom)
    ir_classes = interchange_classes(dom)
    cls_of_irr = {dom.index(i): k for k, cls in enumerate(ir_classes) for i in cls}
    forward: List[int] = []
    for cls, named in zip(_classes(dom), iv_classes):
        images = {cls_of_irr[d2] for _, d2 in cls if d2 in cls_of_irr}
        if len(images) != 1:
            raise OrderError(f"interval class {sorted(named)} maps to {len(images)} classes")
        forward.append(images.pop())
    if sorted(forward) != list(range(len(ir_classes))):
        raise OrderError("interval classes and interchange classes do not biject")
    return tuple((iv_classes[n], ir_classes[forward[n]]) for n in range(len(iv_classes)))


def _zeta_events(dom: FiniteDomain) -> Dict[str, str]:
    """``zeta`` as a map of event names, from the ``iv{k}:…`` events of
    ``ev_wd`` to the ``class{m}:…`` events of ``ev_of_domain``."""
    event = dict(zip(interchange_classes(dom), _event_names(dom)))
    return {iv: event[ir] for iv, (_, ir) in zip(_interval_events(dom), zeta(dom))}
