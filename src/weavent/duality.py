"""Passages between event structures and weak prime domains, and prime
event structures with equivalence.

``dom_of_es`` orders the configurations by inclusion; ``ev_of_domain`` reads
an event structure back off a weak prime domain, with events the
interchangeability classes of irreducibles.  Their composite ``connect_es``
replaces a live structure by a connected one with the same configuration
poset.  ``ev_of_domain`` shares one builder, ``domains._steps_masks``,
with the interval construction ``intervals.ev_wd``: an event performs a
set of covers (its steps), and enabling, conflict and consistency are read
off the ends of those covers.  Its structure is the candidate that the
duality certificate of ``domains`` tests.  ``roundtrip`` reports the unit
(that certificate), the counit (``_counit_holds``) and ζ
(``intervals._zeta_events``) by testing the maps the duality gives, with
no search.  The EPES constructions present the same correspondence through
prime structures carrying an event equivalence.
"""

from __future__ import annotations

from itertools import combinations
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from ._common import UnionFind, Value, _bits, _once, backtrack
from .es import (BINARY, EsError, EventStructure, _require_live, _structure_of, _table,
                 classify, configurations, minimal_enablings)
from .domains import (BOUNDED_COMPLETE, COHERENT, FiniteDomain, _candidate, _class_groups,
                      _event_names, _require_weak_prime, decompose, interchange_classes,
                      irreducible_elements, predecessor)

EventSet = FrozenSet[str]


def configuration_id(c: Iterable[str]) -> str:
    """Canonical element id of a configuration, e.g. ``{a,c}``."""
    return "{" + ",".join(sorted(c)) + "}"


# ---------------------------------------------------------------------- #
# ES -> domain
# ---------------------------------------------------------------------- #

def dom_of_es(es: EventStructure) -> FiniteDomain:
    """The configurations of a live structure ordered by inclusion.

    Joins of consistent sets are unions and covers add exactly one event;
    the result is weak prime algebraic (the coreflection theorem) and keeps
    that fact, which no pair pass proves again.  The covers are read straight
    off the configuration table, kept once as sorted index pairs: the lower
    covers of ``c`` are the configurations ``c ^ x`` for events ``x`` of
    ``c``, and inclusion needs no cycle check or transitive reduction.  No
    order mask is built here; the domain sweeps ``down`` and ``up`` along
    the configurations, smaller first, when a verb first asks for them.
    The domain is built once per structure and kept on it (``_once``).
    """
    return _once(es, "domain", _find_domain)


def _find_domain(es: EventStructure) -> FiniteDomain:
    _require_live(es)
    lower = _table(es).lower  # configuration -> events x with c ^ x one too
    names = es._names
    ids = {}
    for c in lower:
        parts, m = [], c
        while m:  # the names of c's events, in sorted order
            b = m & -m
            m ^= b
            parts.append(names[b.bit_length() - 1])
        ids[c] = "{" + ",".join(parts) + "}"
    order = sorted(lower, key=ids.__getitem__)
    idx = {c: i for i, c in enumerate(order)}
    # the upper covers of each configuration, filled in id order, so sorted
    above = [[] for _ in order]
    for i, c in enumerate(order):
        low = lower[c]
        while low:
            b = low & -low
            low ^= b
            above[idx[c ^ b]].append(i)
    covers = tuple([(j, i) for j, ups in enumerate(above) for i in ups])
    rising = [idx[c] for c in lower]  # smaller configurations first
    kind = COHERENT if es.conflict_kind == BINARY else BOUNDED_COMPLETE
    dom = FiniteDomain._of_covers(tuple(ids[c] for c in order), covers, rising, kind)
    dom._derived["certified"] = True  # the coreflection theorem
    dom._derived["configuration_masks"] = order  # read by ``_counit_holds``
    return dom


def dom_of_es_morphism(f: Mapping[str, str], src: EventStructure,
                       dst: EventStructure) -> Dict[str, str]:
    """Image of an ES morphism on configuration posets (``C ↦ f(C)``)."""
    out = {}
    for c in configurations(src):
        img = frozenset(f[e] for e in c if e in f)
        out[configuration_id(c)] = configuration_id(img)
    return out


# ---------------------------------------------------------------------- #
# Domain -> ES
# ---------------------------------------------------------------------- #

def ev_of_domain(dom: FiniteDomain) -> EventStructure:
    """The event structure of a weak prime domain.

    Events are ↔*-classes of irreducibles, and the class of ``i`` performs
    the step ``[p(i), i]`` (``domains._steps_masks``): a set enables a class
    when it contains the classes of all strict predecessors of one of its
    members; two classes are in conflict when no element dominates members
    of both.  The domain is proved weak prime first.  The structure is the
    candidate of ``domains._candidate``, which the duality certificate
    tests, named once and kept on the domain with the table that test
    walked.
    """
    _require_weak_prime(dom)
    return _once(dom, "ev", lambda d: _structure_of(_candidate(d)))


def _counit_holds(es: EventStructure, connected: EventStructure) -> bool:
    """Whether the counit, read as a map of event names, is an isomorphism
    of ``connected = ev_of_domain(dom_of_es(es))`` onto ``es``: the class of
    an irreducible configuration goes to the one event it adds to its
    predecessor.  ``roundtrip --es`` reports it as the counit; where it
    holds, so does the search of ``es_isomorphic``."""
    dom = dom_of_es(es)
    masks, lower = dom._derived["configuration_masks"], dom._lower
    psi = {}
    for name, (i, *_) in zip(_event_names(dom), _class_groups(dom)):
        added = masks[i] ^ masks[lower[i].bit_length() - 1]
        psi[name] = es._names[added.bit_length() - 1]
    return (connected.conflict_kind == es.conflict_kind and connected.events == set(psi)
            and len(psi) == len(es.events) == len(set(psi.values()))
            and _es_matches(connected, es, psi))


def connect_es(es: EventStructure) -> EventStructure:
    """The connected structure with the same configuration domain."""
    return ev_of_domain(dom_of_es(es))


# ---------------------------------------------------------------------- #
# Isomorphism search, on ``_common.backtrack``
# ---------------------------------------------------------------------- #

def _es_signature(es: EventStructure, e: str):
    # invariant data of an event: its minimal enablings and consistency
    # profile.  Enabling counts only as observed through configurations, so
    # different generator presentations of the same structure agree.
    mins = minimal_enablings(es, e)
    used = sum(1 for e2 in es.events for c in minimal_enablings(es, e2) if e in c)
    if es.conflict_kind == BINARY:
        deg = sum(1 for p in es.conflict if e in p)
        return (len(mins), tuple(sorted(len(c) for c in mins)), deg, used)
    sizes = tuple(sorted(len(m) for m in es.consistent_sets if e in m))
    return (len(mins), tuple(sorted(len(c) for c in mins)), sizes, used)


def _es_matches(es1: EventStructure, es2: EventStructure, phi: Dict[str, str]) -> bool:
    if es1.conflict_kind == BINARY:
        if {frozenset((phi[a], phi[b])) for p in es1.conflict for a, b in [sorted(p)]} \
                != es2.conflict:
            return False
    else:
        if {frozenset(phi[x] for x in m) for m in es1.consistent_sets} != es2.consistent_sets:
            return False
    for e in es1.events:
        mins1 = {frozenset(phi[x] for x in c) for c in minimal_enablings(es1, e)}
        if mins1 != set(minimal_enablings(es2, phi[e])):
            return False
    return True


def _bijections(sig1: Mapping[str, tuple], sig2: Mapping[str, tuple],
                fitting: Callable[[List[str]], Callable]) -> Iterator[Dict[str, str]]:
    """The bijections that preserve the signatures and that ``fitting``
    accepts, in search order: items sorted by signature, each tried against
    the other side's items of equal signature.  ``fitting(order)`` gives the
    ``fits(k, y, chosen)`` of ``_common.backtrack`` for that order."""
    if sorted(sig1.values()) != sorted(sig2.values()):
        return
    order = sorted(sig1, key=lambda x: (sig1[x], x))
    by_sig: Dict[tuple, List[str]] = {}
    for y in sorted(sig2):
        by_sig.setdefault(sig2[y], []).append(y)
    for images in backtrack([by_sig[sig1[x]] for x in order], fitting(order), True):
        yield dict(zip(order, images))


def _es_isomorphisms(es1: EventStructure, es2: EventStructure) -> Iterator[Dict[str, str]]:
    if es1.conflict_kind != es2.conflict_kind or len(es1.events) != len(es2.events):
        return

    def rel(es):
        if es.conflict_kind == BINARY:
            return es.in_conflict
        return lambda a, b: es.is_consistent((a, b))

    rel1, rel2 = rel(es1), rel(es2)

    def fitting(order):
        # the new pair agrees with every pair chosen before it
        return lambda k, y, chosen: all(rel1(order[k], a) == rel2(y, b)
                                        for a, b in zip(order, chosen))

    for phi in _bijections({e: _es_signature(es1, e) for e in es1.events},
                           {e: _es_signature(es2, e) for e in es2.events}, fitting):
        if _es_matches(es1, es2, phi):
            yield phi


def es_isomorphic(es1: EventStructure, es2: EventStructure) -> Optional[Dict[str, str]]:
    """A bijection preserving and reflecting conflict and enabling, or None."""
    return next(_es_isomorphisms(es1, es2), None)


def poset_isomorphic(dom1: FiniteDomain, dom2: FiniteDomain) -> Optional[Dict[str, str]]:
    """An order isomorphism between two finite posets, or None."""
    if len(dom1.elements) != len(dom2.elements):
        return None

    def sigs(dom):
        # each element's height, lower and upper cover counts, and down-
        # and up-set sizes; in rising order the elements come after their
        # lower covers, so each height is read after theirs
        lower, upper, down, up = dom._lower, dom._upper, dom._down, dom._up
        h = [0] * len(lower)
        for i in dom._rising:
            if lower[i]:
                h[i] = 1 + max(h[j] for j in _bits(lower[i]))
        return {x: (h[i], lower[i].bit_count(), upper[i].bit_count(),
                    down[i].bit_count(), up[i].bit_count())
                for i, x in enumerate(dom.elements)}

    def fitting(order):
        # Height leads the signature, so the lower covers of order[k] are
        # placed before it, at ``lows[k]``, and the placed elements form a
        # down-set.  A bijection is an order isomorphism iff it carries
        # each element's lower covers onto its image's; the signature
        # holds their count, so testing that each image is a lower cover
        # of y is enough.
        at = {x: k for k, x in enumerate(order)}
        lows = [[at[a] for a in dom1.lower_covers(x)] for x in order]
        at2, lower2 = dom2._idx, dom2._lower

        def fits(k, y, chosen):
            below = lower2[at2[y]]
            return all(below >> at2[chosen[p]] & 1 for p in lows[k])
        return fits

    return next(_bijections(sigs(dom1), sigs(dom2), fitting), None)


# ---------------------------------------------------------------------- #
# Prime event structures with equivalence
# ---------------------------------------------------------------------- #

class Epes(Value):
    """A prime event structure together with an equivalence on its events.

    The equivalence is stored as a partition (every event appears in exactly
    one block).  Valid instances satisfy: the base classifies as live and
    prime, every history ``⌈e⌉ ∪ {e}`` is saturated, and causally related
    events are never equivalent.
    """
    _fields = ("base", "equiv")

    def __init__(self, base: EventStructure, equiv: FrozenSet[EventSet]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "equiv", equiv)

    def block_of(self, e: str) -> EventSet:
        for b in self.equiv:
            if e in b:
                return b
        raise EsError(f"event {e!r} not covered by the equivalence")

    def equivalent(self, a: str, b: str) -> bool:
        return b in self.block_of(a)


def causes(es: EventStructure, e: str) -> EventSet:
    mins = sorted(minimal_enablings(es, e), key=sorted)
    if len(mins) != 1:
        raise EsError(f"event {e!r} has {len(mins)} minimal enablings; need a prime base")
    return mins[0]


def _saturated(p: Epes, xs: EventSet, cause_map: Mapping[str, EventSet]) -> bool:
    # every event equivalent to a member and enabled inside xs must belong
    for e in xs:
        for e2 in p.block_of(e):
            if e2 not in xs and cause_map[e2] <= xs:
                return False
    return True


def validate_epes(p: Epes) -> Tuple[bool, Tuple[str, ...]]:
    """Check the EPES axioms; returns (ok, diagnostics)."""
    diags = []
    seen = set()
    for b in p.equiv:
        if b & seen:
            diags.append("equivalence blocks overlap")
        seen |= b
    if seen != p.base.events:
        diags.append("equivalence does not cover the events")
    if p.base.conflict_kind != BINARY:
        diags.append("EPES base must use binary conflict")
        return (False, tuple(diags))
    cl = classify(p.base)
    if not cl.live:
        diags.append("base not live")
    if not cl.prime:
        diags.append("base not prime")
    if diags:
        return (False, tuple(diags))
    cmap = {e: causes(p.base, e) for e in p.base.events}
    for e in sorted(p.base.events):
        hist = cmap[e] | {e}
        if not _saturated(p, hist, cmap):
            diags.append(f"history of {e!r} is not saturated")
        for c in cmap[e]:
            if p.equivalent(c, e):
                diags.append(f"causally related events {c!r} < {e!r} are equivalent")
    return (not diags, tuple(diags))


def epes_is_connected(p: Epes) -> bool:
    """Whether the equivalence is regenerated by its conflict-free pairs."""
    for block in p.equiv:
        uf = UnionFind(block)
        for a, b in combinations(sorted(block), 2):
            if not p.base.in_conflict(a, b):
                uf.union(a, b)
        if len(uf.groups()) > 1:
            return False
    return True


def epes_dom(p: Epes) -> FiniteDomain:
    """The poset of saturated configurations of an EPES."""
    ok, diags = validate_epes(p)
    if not ok:
        raise EsError("invalid EPES: " + "; ".join(diags))
    cmap = {e: causes(p.base, e) for e in p.base.events}
    sat = [c for c in configurations(p.base) if _saturated(p, c, cmap)]
    leq = [(configuration_id(c1), configuration_id(c2))
           for c1 in sat for c2 in sat if c1 < c2]
    return FiniteDomain([configuration_id(c) for c in sat], leq, COHERENT)


def epes_ev(dom: FiniteDomain) -> Epes:
    """The EPES of a weak prime domain: irreducibles as events,
    interchangeability classes as the equivalence."""
    _require_weak_prime(dom)
    irr = irreducible_elements(dom)
    conflict = [(a, b) for a, b in combinations(sorted(irr), 2)
                if not dom.consistent((a, b))]
    gens = []
    for i in irr:
        below = decompose(dom, predecessor(dom, i))
        gens.append((tuple(sorted(below)), i))
    base = EventStructure.binary(irr, conflict, gens)
    return Epes(base, frozenset(interchange_classes(dom)))


def fuse(p: Epes) -> EventStructure:
    """Quotient an EPES by its equivalence.

    Enabling descends through representatives; two classes are in conflict
    only when all representative pairs are.
    """
    name = {}
    for b in p.equiv:
        nm = min(b)
        for e in b:
            name[e] = nm
    events = sorted(set(name.values()))
    gens = set()
    for needs, e in p.base.enabling_gens:
        gens.add((frozenset(name[x] for x in needs), name[e]))
    conflict = []
    for b1, b2 in combinations(sorted(p.equiv, key=min), 2):
        if all(p.base.in_conflict(a, b) for a in b1 for b in b2):
            conflict.append((name[min(b1)], name[min(b2)]))
    return EventStructure.binary(events, conflict, [(x, e) for x, e in gens])


def unfold(es: EventStructure) -> Epes:
    """Split every event into its minimal enablings.

    Events of the result are pairs ``⟨C, e⟩`` with ``C`` a minimal enabling
    of ``e`` (and ``C ∪ {e}`` consistent); all instances of one event are
    equivalent.  ``fuse(unfold(es))`` is isomorphic to ``es``.
    """
    _require_live(es)
    if es.conflict_kind != BINARY:
        raise EsError("unfold is defined on binary-conflict structures")
    inst = []  # (C, e, id)
    for e in sorted(es.events):
        for c in sorted(minimal_enablings(es, e), key=sorted):
            if es.is_consistent(c | {e}):
                inst.append((c, e, f"<{configuration_id(c)}:{e}>"))
    flat = {x: c | {e} for c, e, x in inst}
    covers_of = {}  # base event c -> instances whose flat part contains c
    for c, e, x in inst:
        for ev in flat[x]:
            covers_of.setdefault(ev, []).append(x)
    # an instance is enabled by one instance covering each event of its
    # enabling, picked in every way (none when some event has no cover);
    # the picks are a set, so equal partial picks merge before they grow
    gens = set()
    for c, _, x in inst:
        picks = {frozenset()}
        for ev in c:
            picks = {base | {pick} for base in picks for pick in covers_of.get(ev, ())}
        gens.update((xs, x) for xs in picks)
    conflict = []
    for (c1, e1, x1), (c2, e2, x2) in combinations(inst, 2):
        if not es.is_consistent(c1 | c2 | {e1, e2}):
            conflict.append((x1, x2))
    base = EventStructure.binary([x for _, _, x in inst], conflict,
                                 [(xs, x) for xs, x in gens])
    blocks: Dict[str, set] = {}
    for c, e, x in inst:
        blocks.setdefault(e, set()).add(x)
    return Epes(base, frozenset(frozenset(b) for b in blocks.values()))


def epes_isomorphic(p1: Epes, p2: Epes) -> Optional[Dict[str, str]]:
    """A base isomorphism that carries the one equivalence onto the other."""
    if sorted(len(b) for b in p1.equiv) != sorted(len(b) for b in p2.equiv):
        return None
    blocks2 = set(p2.equiv)
    for phi in _es_isomorphisms(p1.base, p2.base):
        if {frozenset(phi[x] for x in b) for b in p1.equiv} == blocks2:
            return phi
    return None
