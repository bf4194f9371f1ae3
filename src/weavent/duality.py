"""Passages between event structures and weak prime domains, and prime
event structures with equivalence.

``dom_of_es`` orders the configurations by inclusion; ``ev_of_domain`` reads
an event structure back off a weak prime domain, with events the
interchangeability classes of irreducibles.  Their composite ``connect_es``
replaces a live structure by a connected one with the same configuration
poset.  ``ev_of_domain`` shares one builder, ``domains._steps_masks``,
with the interval construction ``intervals.ev_wd`` and with ``epes_ev``:
an event performs a set of covers (its steps), and enabling, conflict and
consistency are read off the ends of those covers.  Its structure is the
candidate that the duality certificate of ``domains`` tests.  The EPES
constructions present the same correspondence through prime structures
carrying an event equivalence.

``roundtrip`` reports each round trip by testing the map the duality
gives, with no search: for ``--es`` the unit (that certificate) and the
counit (``_counit_holds``); for ``--domain`` the unit and ζ
(``intervals._zeta_events``); for ``--epes`` the unit η of
``_unfold_unit_holds`` and the counit ε of ``_fuse_counit_holds``, the
isomorphism ``fuse(unfold(F)) ≅ F``.  Each map is put to ``_es_matches``,
the test the isomorphism searches put every bijection they find to; the
searches are test oracles, in ``oracles``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

from ._common import UnionFind, Value, once
from .es import (BINARY, EsError, EventStructure, _Masks, _require_live, _structure_of,
                 _table, classify, configurations, minimal_enablings)
from .domains import (BOUNDED_COMPLETE, COHERENT, FiniteDomain, _candidate, _certified,
                      _clashes, _class_groups, _event_names, _irreducible_indices,
                      _require_weak_prime, _steps_masks, interchange_classes)

EventSet = FrozenSet[str]


def configuration_id(c: Iterable[str]) -> str:
    """Canonical element id of a configuration, e.g. ``{a,c}``."""
    return "{" + ",".join(sorted(c)) + "}"


# ---------------------------------------------------------------------- #
# ES -> domain
# ---------------------------------------------------------------------- #

@once
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
    The domain is built once per structure and kept on it.
    """
    _require_live(es)
    elements, order = _configurations_by_id(es)
    lower = _table(es).lower  # configuration -> events x with c ^ x one too
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
    dom = FiniteDomain._of_covers(elements, covers, rising, kind)
    dom._derived[_certified] = True  # the coreflection theorem
    return dom


@once
def _configurations_by_id(es: EventStructure) -> Tuple[Tuple[str, ...], List[int]]:
    """The ids of the configurations in sorted order, the elements of
    ``dom_of_es(es)``, and the configurations as masks in that order, which
    ``_counit_holds`` reads."""
    names = es._names
    ids = {}
    for c in _table(es).lower:
        parts, m = [], c
        while m:  # the names of c's events, in sorted order
            b = m & -m
            m ^= b
            parts.append(names[b.bit_length() - 1])
        ids[c] = "{" + ",".join(parts) + "}"
    order = sorted(ids, key=ids.__getitem__)
    return tuple(ids[c] for c in order), order


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

@once
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
    return _structure_of(_candidate(dom))


def _counit_holds(es: EventStructure, connected: EventStructure) -> bool:
    """Whether the counit, read as a map of event names, is an isomorphism
    of ``connected = ev_of_domain(dom_of_es(es))`` onto ``es``: the class of
    an irreducible configuration goes to the one event it adds to its
    predecessor.  ``roundtrip --es`` reports it as the counit; where it
    holds, so does the search of ``oracles.es_isomorphic``."""
    dom = dom_of_es(es)
    masks, lower = _configurations_by_id(es)[1], dom._lower
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


def _es_matches(es1: EventStructure, es2: EventStructure, phi: Dict[str, str]) -> bool:
    """Whether the bijection ``phi`` carries the conflict (or consistency)
    and the minimal enablings of ``es1`` onto those of ``es2``: the test of
    each map ``roundtrip`` reports, and of each bijection the searches of
    ``oracles`` try."""
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
    interchangeability classes as the equivalence.

    The irreducible ``i`` performs the step ``[p(i), i]``, so it is enabled
    by the irreducibles below ``p(i)`` (``domains._steps_masks``, one step
    per event).  Two irreducibles conflict when no maximal element lies
    above both (``domains._clashes``), on either kind of domain: the
    conflict is read as binary, as ``validate_epes`` asks.
    """
    _require_weak_prime(dom)
    irr, lower = _irreducible_indices(dom), dom._lower
    m = _steps_masks(dom, [dom.elements[i] for i in irr],
                     [[(lower[i].bit_length() - 1, i)] for i in irr])
    if m.conflict_kind != BINARY:  # the tops are the consistent sets
        m = _Masks(m._names, BINARY, m._needs, _clashes(m._cons, len(irr)), [])
    return Epes(_structure_of(m), frozenset(interchange_classes(dom)))


def _block_names(p: Epes) -> Dict[str, str]:
    """Each event's block, named by its least member."""
    return {e: min(b) for b in p.equiv for e in b}


def fuse(p: Epes) -> EventStructure:
    """Quotient an EPES by its equivalence.

    Enabling descends through representatives; two classes are in conflict
    only when all representative pairs are.
    """
    name = _block_names(p)
    gens = {(frozenset(name[x] for x in needs), name[e]) for needs, e in p.base.enabling_gens}
    conflict = []
    for b1, b2 in combinations(sorted(p.equiv, key=min), 2):
        if all(p.base.in_conflict(a, b) for a in b1 for b in b2):
            conflict.append((name[min(b1)], name[min(b2)]))
    return EventStructure.binary(set(name.values()), conflict, gens)


def _instance(c: Iterable[str], e: str) -> str:
    """The name of ``unfold``'s instance ``⟨C, e⟩``."""
    return f"<{configuration_id(c)}:{e}>"


def _instances(es: EventStructure) -> Iterator[Tuple[EventSet, str, str]]:
    """``(C, e, name)`` for each instance ``⟨C, e⟩`` of ``unfold(es)``: ``C``
    a minimal enabling of ``e`` with ``C ∪ {e}`` consistent, in the order of
    ``e`` and then of ``C``."""
    for e in sorted(es.events):
        for c in sorted(minimal_enablings(es, e), key=sorted):
            if es.is_consistent(c | {e}):
                yield c, e, _instance(c, e)


def unfold(es: EventStructure) -> Epes:
    """Split every event into its minimal enablings.

    Base events are pairs ``⟨C, e⟩``, ``C`` a minimal enabling of ``e``
    (``C ∪ {e}`` consistent); instances of ``e`` are equivalent.  On an
    unstable ``es`` the base need not be prime, nor the result an EPES.
    ``fuse(unfold(es))`` ≅ ``es`` by the counit ε (``_fuse_counit_holds``).
    """
    _require_live(es)
    if es.conflict_kind != BINARY:
        raise EsError("unfold is defined on binary-conflict structures")
    inst = list(_instances(es))
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
    base = EventStructure.binary([x for _, _, x in inst], conflict, gens)
    blocks: Dict[str, set] = {}
    for c, e, x in inst:
        blocks.setdefault(e, set()).add(x)
    return Epes(base, frozenset(frozenset(b) for b in blocks.values()))


def _fuse_counit_holds(es: EventStructure, back: EventStructure) -> bool:
    """Whether the counit ε is an isomorphism of ``back = fuse(unfold(es))``
    onto ``es``: ε sends the least instance name of each event's block to
    the event.  The names are built from the minimal enablings of ``es``,
    as ``unfold`` builds them (``_instances``), never parsed, since an
    event name may hold ``:``.  ``roundtrip --epes`` reports it as
    ``fuse_unfold_isomorphic``.

    Proof that it holds exactly where an isomorphism exists, in the sense
    of the search (``oracles.es_isomorphic``: a bijection that keeps the
    conflict kind and passes ``_es_matches``).  Write F = ``es``, live and
    binary (``unfold`` asks it), U = ``unfold(es)`` and G = ``back``, and
    read G's events through ε.  Instance names are taken to be distinct, as
    they are unless event names hold ``,`` or ``}``.  The test is the
    search's own test at one bijection, so where it holds the search finds
    one.  Conversely:

    1. ε is a bijection.  Each event e lies in a configuration X, as F is
       live; the events before e in a securing of X form a configuration
       that enables e, and a minimal one C inside it gives the instance
       ``⟨C, e⟩``.  (So every configuration holds an instance of each of
       its events, with its enabling inside the configuration.)
    2. ε carries G's conflict onto F's.  Two blocks conflict when all their
       instances do, and ``⟨C, e⟩`` and ``⟨C', f⟩`` conflict when
       ``C ∪ C' ∪ {e, f}`` is inconsistent.  If e # f, all of them do.  If
       not, liveness puts e and f in one configuration, which holds one
       instance of each by 1, not in conflict.
    3. Conf(F) ⊆ Conf(G).  For an instance ``⟨C, e⟩``, picking for each
       d ∈ C an instance ``⟨C_d, d⟩`` with C_d ⊆ C (by 1) is one of its
       generators, so C ⊢ e in G.  With 2, a securing of a configuration
       of F secures it in G.
    4. An isomorphism keeps conflict and minimal enablings, so it keeps the
       configurations (a conflict-free set is one exactly when each of its
       events has a minimal enabling inside it) and their number.  Where
       G ≅ F, 3 gives Conf(G) = Conf(F).
    5. Then, for X a configuration and X ∪ {e} conflict-free, X ⊢ e in G
       exactly when it does in F: in either, exactly when X ∪ {e} is a
       configuration.  A minimal enabling C of e with C ∪ {e} consistent
       is minimal among subsets of C only, so G and F have the same such
       enablings.  Suppose (H) every minimal enabling of F is consistent
       with its event.  An isomorphism keeps the number of minimal
       enablings, and of those consistent with their event, so G has no
       other kind either, and ``_es_matches`` holds of ε.

    Where (H) fails, U has no instance for the enabling C of e with
    ``C ∪ {e}`` inconsistent, and this proof does not close: the
    enablings inconsistent with their event may differ in G and F under
    ε while another bijection matches them.  There the verdict rests on the
    agreement tests, which compare the two on thousands of structures.
    """
    least: Dict[str, str] = {}
    for _, e, x in _instances(es):
        least[e] = min(least.get(e, x), x)
    eps = {x: e for e, x in least.items()}
    return (back.conflict_kind == es.conflict_kind and back.events == set(eps)
            and len(eps) == len(es.events) and _es_matches(back, es, eps))


def _unfold_unit_holds(p: Epes, again: Epes) -> bool:
    """Whether the unit η is an isomorphism of ``p`` onto
    ``again = unfold(fuse(p))`` that carries the blocks onto the blocks: η
    sends x to the instance ``⟨N, name[x]⟩``, where ``name[y]`` is the
    least member of y's block and N the least of the sets
    ``{name[y] : y ∈ C}`` over x's minimal enablings C; on a prime base,
    over x's one minimal enabling.  Where those sets have no least one,
    η is not defined and the test fails; the input is not validated
    first.  ``roundtrip --epes`` reports it as ``unfold_fuse_isomorphic``.

    Proof that it holds exactly where an isomorphism exists, in the sense
    of the search (``oracles.epes_isomorphic``: a base isomorphism as in
    ``_fuse_counit_holds`` that carries the blocks onto the blocks).  The
    test is the search's own test at one bijection, so where it holds the
    search finds one.  Conversely, write F = ``fuse(p)`` (live, or
    ``unfold`` raises first), U = ``again``, and base(X) for the events of
    F whose instances a set X holds.

    1. The sets base(X) over the minimal enablings X of an instance
       ``u = ⟨D, f⟩`` of U have the least one D.  Each X holds a generator
       of u, one instance covering each d ∈ D, and along a securing of X
       the flat part ``C ∪ {e}`` of each instance lies in the base of the
       instances up to it, so base(X) ⊇ D.  And D is a configuration of F,
       so for each d ∈ D it holds an instance ``⟨D_d, d⟩`` with D_d ⊆ D
       (step 1 of ``_fuse_counit_holds``); these instances form a
       configuration of U, as their flat parts lie in D, and it enables u,
       so a minimal enabling X inside it has base(X) = D.
    2. Let ψ: p ≅ U.  It carries blocks onto blocks, and a block of U is
       the instances of one event, so base(ψ(y)) = β(name[y]) for a
       bijection β of F's events.  It carries x's minimal enablings onto
       those of ψ(x) = ``⟨D, f⟩``, so by 1 the sets ``{name[y] : y ∈ C}``
       have the least one β⁻¹(D), and η(x) = ``⟨β⁻¹(D), β⁻¹(f)⟩``: ψ is
       β̂ ∘ η, where β̂ sends ``⟨D, f⟩`` to ``⟨β(D), β(f)⟩``.
    3. Where β is an automorphism of F, β̂ is one of U, since it carries
       the instances, flat parts, generators, conflict and blocks of U
       onto themselves; then η = β̂⁻¹ ∘ ψ is an isomorphism.

    The step that does not close is that β is an automorphism of F: ψ
    carries the conflict, minimal enablings and blocks of p, but ``fuse``
    reads p's generators, and a generator that no configuration holds
    changes F without changing p up to isomorphism.  There the verdict
    rests on the agreement tests, which compare the two on thousands of
    structures, invalid ones among them.
    """
    base, name = p.base, _block_names(p)
    eta = {}
    for x in base.events:
        named = [{name[y] for y in c} for c in minimal_enablings(base, x)]
        least = min(named, key=len, default=None)
        if least is None or not all(least <= c for c in named):
            return False
        eta[x] = _instance(least, name[x])
    return (base.conflict_kind == BINARY and again.base.events == set(eta.values())
            and len(again.base.events) == len(eta)
            and {frozenset(map(eta.__getitem__, b)) for b in p.equiv} == again.equiv
            and _es_matches(base, again.base, eta))
