"""Finite event structures with binary conflict or a consistency predicate.

An event structure is a finite set of events, an enabling relation and a
notion of consistency.  Enabling is stored by finite generators: ``X``
enables ``e`` exactly when some stored pair ``(Y, e)`` has ``Y ⊆ X``, which
makes the relation monotone by construction.  Consistency is either a binary
irreflexive conflict or a subset-closed family of consistent sets given by
its maximal members.

Each structure indexes its events once as bits, in sorted name order, so a
set of events is an integer mask.  It keeps each event's generator needs and
conflict partners, and the consistent sets, as masks.  One pass over the
configurations, grown as masks by single-event extension, gives everything
the module reads off them: each configuration's removable events (its lower
covers), the maximal configurations, which events occur together and the
minimal enablings of every event.  ``configurations``, ``minimal_enablings``,
``classify``, ``saturate`` and ``duality.dom_of_es`` all read that table;
the public results stay frozensets of event names.  The table, the
configurations, the minimal enablings and the classification are kept on
the structure (``_common.once``).
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ._common import Report, UnionFind, Value, _bits, once

EventSet = FrozenSet[str]

BINARY = "binary"
CONSISTENCY = "consistency"


class EsError(ValueError):
    """Malformed event structure or invalid argument."""


class LivenessError(EsError):
    """Raised when an operation requires liveness that cannot be restored."""


def _reject_generators(enabling_gens, events) -> None:
    """Raise the ``EsError`` of the first bad generator in sorted
    ``(event, sorted needs)`` order, so that the message does not depend on
    the iteration order of the frozenset (``str`` keys, since a bad event
    need not be a string)."""
    for ns, e in sorted(enabling_gens, key=lambda g: (str(g[1]), sorted(map(str, g[0])))):
        if e not in events:
            raise EsError(f"enabling generator for unknown event {e!r}")
        unknown = ns - events
        if unknown:
            raise EsError(f"enabling generator mentions unknown events {sorted(unknown)}")


class EventStructure(Value):
    """Immutable finite event structure.

    Attributes:
        events: the finite event set (nonempty string names).
        enabling_gens: generator pairs ``(needs, event)``; the full enabling
            relation is their upward closure.
        conflict_kind: ``"binary"`` or ``"consistency"``.
        conflict: unordered conflict pairs (binary kind only).
        consistent_sets: maximal consistent sets (consistency kind only).

    The events are indexed once as bits, in sorted name order, and the
    relations are kept as masks over them; the masks are left out of
    equality and hashing, which stay those of the fields above.
    """

    _fields = ("events", "enabling_gens", "conflict_kind", "conflict", "consistent_sets")

    def __init__(self, events: EventSet, enabling_gens: FrozenSet[Tuple[EventSet, str]],
                 conflict_kind: str = BINARY, conflict: FrozenSet[EventSet] = frozenset(),
                 consistent_sets: FrozenSet[EventSet] = frozenset()):
        put = object.__setattr__
        put(self, "events", events)
        put(self, "enabling_gens", enabling_gens)
        put(self, "conflict_kind", conflict_kind)
        put(self, "conflict", conflict)
        put(self, "consistent_sets", consistent_sets)
        # results derived from the structure, each under its ``once`` function
        put(self, "_derived", {})
        if conflict_kind not in (BINARY, CONSISTENCY):
            raise EsError(f"unknown conflict kind {conflict_kind!r}")
        for e in events:
            if not isinstance(e, str) or not e:
                raise EsError(f"event names must be nonempty strings, got {e!r}")
        # the events in sorted order, and the bit of each
        names = tuple(sorted(events))
        bit = {e: k for k, e in enumerate(names)}
        put(self, "_names", names)
        put(self, "_bit", bit)
        # _needs[k]: the need masks of the generators of event k
        needs: List[List[int]] = [[] for _ in names]
        for ns, e in enabling_gens:
            if e not in bit or not ns <= events:
                _reject_generators(enabling_gens, events)
            needs[bit[e]].append(self._mask(ns))
        put(self, "_needs", tuple(map(tuple, needs)))
        # binary kind: _clash[k] is the mask of the events in conflict with k
        clash = [0] * len(names)
        if conflict_kind == BINARY:
            if consistent_sets:
                raise EsError("binary-conflict structure cannot carry consistent_sets")
            for pair in conflict:
                if len(pair) != 2:
                    raise EsError(f"conflict entries must be unordered pairs, got {sorted(pair)}")
                if pair - events:
                    raise EsError(f"conflict pair mentions unknown events {sorted(pair - events)}")
                a, b = (bit[x] for x in pair)
                clash[a] |= 1 << b
                clash[b] |= 1 << a
        else:
            if conflict:
                raise EsError("consistency-kind structure cannot carry a binary conflict")
            covered = set()
            for xs in consistent_sets:
                if xs - events:
                    raise EsError(f"consistent set mentions unknown events {sorted(xs - events)}")
                covered |= xs
            missing = events - covered
            if missing:
                raise EsError(
                    f"events {sorted(missing)} belong to no consistent set (singletons must be consistent)")
        put(self, "_clash", tuple(clash))
        # consistency kind: the masks of the maximal consistent sets
        put(self, "_cons", tuple(self._mask(xs) for xs in consistent_sets))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def binary(events: Iterable[str],
               conflict: Iterable[Tuple[str, str]] = (),
               enabling: Iterable[Tuple[Iterable[str], str]] = ()) -> "EventStructure":
        """Build a binary-conflict event structure from plain iterables."""
        pairs = set()
        for a, b in conflict:
            if a == b:
                raise EsError(f"conflict must be irreflexive, got ({a!r}, {b!r})")
            pairs.add(frozenset((a, b)))
        gens = frozenset((frozenset(needs), e) for needs, e in enabling)
        return EventStructure(frozenset(events), gens, BINARY, frozenset(pairs))

    @staticmethod
    def with_consistency(events: Iterable[str],
                         consistent_sets: Iterable[Iterable[str]],
                         enabling: Iterable[Tuple[Iterable[str], str]] = ()) -> "EventStructure":
        """Build a consistency-predicate structure; the family is stored by
        its inclusion-maximal members."""
        family = [frozenset(xs) for xs in consistent_sets]
        maximal = frozenset(xs for xs in family
                            if not any(xs < ys for ys in family))
        gens = frozenset((frozenset(needs), e) for needs, e in enabling)
        return EventStructure(frozenset(events), gens, CONSISTENCY,
                              consistent_sets=maximal)

    # ------------------------------------------------------------------ #
    # Basic relations
    # ------------------------------------------------------------------ #

    def _mask(self, xs: EventSet) -> int:
        """The mask of the events ``xs``; EsError if some are not events."""
        bit = self._bit
        mask = 0
        try:
            for x in xs:
                mask |= 1 << bit[x]
        except KeyError:
            raise EsError(f"unknown events {sorted(xs - self.events)}") from None
        return mask

    def _names_of(self, mask: int) -> EventSet:
        names = self._names
        return frozenset({names[k] for k in _bits(mask)})

    def _consistent_mask(self, mask: int) -> bool:
        if self.conflict_kind == BINARY:
            clash = self._clash
            return not any(clash[k] & mask for k in _bits(mask))
        return any(not mask & ~m for m in self._cons)

    def is_consistent(self, xs: Iterable[str]) -> bool:
        return self._consistent_mask(self._mask(frozenset(xs)))

    def enables(self, xs: Iterable[str], e: str) -> bool:
        """True when ``xs ⊢ e`` in the derived monotone relation."""
        bit = self._bit
        if e not in bit:
            raise EsError(f"unknown event {e!r}")
        mask = 0
        for x in xs:  # events outside the structure enable nothing
            if x in bit:
                mask |= 1 << bit[x]
        return any(not need & ~mask for need in self._needs[bit[e]])

    def in_conflict(self, a: str, b: str) -> bool:
        if self.conflict_kind == BINARY:
            bit = self._bit
            return a in bit and b in bit and bool(self._clash[bit[a]] >> bit[b] & 1)
        return not self.is_consistent((a, b))


class _Masks:
    """An event structure as masks alone, over its events in sorted name
    order: the fields of ``EventStructure`` that ``_find_table`` reads, with
    ``_cons`` any family whose subsets are the consistent sets.  A domain's
    candidate structure is built and tested this way, and named
    (``_structure_of``) only where it is asked for."""
    __slots__ = ("_names", "_bit", "conflict_kind", "_needs", "_clash", "_cons", "_derived")

    def __init__(self, names: Tuple[str, ...], conflict_kind: str, needs: List[List[int]],
                 clash: List[int], cons: List[int]):
        self._names, self.conflict_kind, self._needs = names, conflict_kind, needs
        self._bit = {e: k for k, e in enumerate(names)}
        self._clash, self._cons, self._derived = clash, cons, {}


def _structure_of(m: _Masks) -> EventStructure:
    """The ``EventStructure`` of ``m``, with the table ``m`` was walked to."""
    names = m._names

    def named(mask):
        return frozenset({names[k] for k in _bits(mask)})
    gens = frozenset((named(need), e) for e, needs in zip(names, m._needs) for need in needs)
    if m.conflict_kind == BINARY:
        pairs = frozenset(frozenset((names[a], names[b])) for a, row in enumerate(m._clash)
                          for b in _bits(row & ~((2 << a) - 1)))
        es = EventStructure(frozenset(names), gens, BINARY, pairs)
    else:
        family = set(m._cons)
        cons = frozenset(named(c) for c in family if not any(c != d and not c & ~d for d in family))
        es = EventStructure(frozenset(names), gens, CONSISTENCY, consistent_sets=cons)
    if _table in m._derived:
        es._derived[_table] = m._derived[_table]
    return es


# ---------------------------------------------------------------------- #
# Configurations
# ---------------------------------------------------------------------- #

def is_secured(es: EventStructure, xs: Iterable[str]) -> bool:
    """Whether every member of ``xs`` can be reached by a securing sequence
    inside ``xs``.

    Decided as a least fixpoint: starting from the empty set, repeatedly add
    any ``e`` in ``xs`` enabled by what has been added so far.  ``xs`` is
    secured iff the fixpoint is all of ``xs``.
    """
    xs = frozenset(xs)
    if xs - es.events:
        raise EsError(f"unknown events {sorted(xs - es.events)}")
    reached: set = set()
    grew = True
    while grew:
        grew = False
        for e in xs - reached:
            if es.enables(reached, e):
                reached.add(e)
                grew = True
    return reached == set(xs)


class _Table:
    """What a structure's configurations say, over the event masks.

    ``lower`` maps each configuration to the mask of its events ``x`` for
    which ``c ^ x`` is a configuration too, ordered by size.  ``maximal``
    lists the configurations with no single-event extension, ``together[k]``
    is the OR of the configurations holding event ``k``, and ``mins[k]``
    lists the minimal enablings of ``k``.
    """
    __slots__ = ("lower", "maximal", "together", "mins")

    def __init__(self, lower: Dict[int, int], maximal: List[int], together: List[int],
                 mins: List[List[int]]):
        self.lower, self.maximal, self.together, self.mins = lower, maximal, together, mins


@once
def _table(es: EventStructure) -> _Table:
    return _find_table(es)


def _table_within(es, limit: int) -> Optional[_Table]:
    """``_table(es)`` when ``es`` has at most ``limit`` configurations, else
    None.  A walk that gives up is not kept, so ``_table`` walks afresh."""
    derived = es._derived
    if _table not in derived:
        table = _find_table(es, limit)
        if table is None:
            return None
        derived[_table] = table
    table = derived[_table]
    return table if len(table.lower) <= limit else None


def _minimal(needs) -> List[int]:
    """The ⊆-minimal masks of ``needs``: taken by popcount, a mask is kept
    unless a kept one is a subset of it."""
    kept: List[int] = []
    for need in sorted(needs, key=int.bit_count):
        if all(m & ~need for m in kept):
            kept.append(need)
    return kept


def _find_table(es: EventStructure, limit: Optional[int] = None) -> Optional[_Table]:
    """The configurations of ``es`` and what is read off them, in one pass;
    None as soon as a configuration past the first ``limit`` is found.

    Configurations grow by single-event extensions from the empty one, size
    by size; every configuration is reached this way because securing
    sequences pass through configurations.  ``en``, the events that a
    configuration ``c`` enables, is that of the parent it was first reached
    from, plus what the generators watching the added event now enable.
    Only each event's ⊆-minimal needs are watched: if a need ``N ∋ x`` of
    ``k`` holds in ``c2 = c | x``, so does a minimal ``M ⊆ N``, and either
    ``x ∈ M`` and ``M`` is watched at ``x``, or ``M ⊆ c`` and ``k`` is in
    the ``en`` of ``c`` already.  Nor is a need watched at an event of the
    core of another of its events ``y``, the events in every minimal need
    of ``y``: a configuration holding ``y`` holds its core, so if ``N``
    first holds in ``c2 = c | x`` with ``x`` in the core of ``y ∈ N``, then
    ``y ∈ c``, and ``x ∈ c`` too.  The members of ``N`` are taken from the
    highest bit down, each dropping its core, so a need whose events lie
    on one causal chain, as in a domain's candidate, is watched at few of
    them.  Each configuration carries its fence: with
    binary conflict the events in conflict with none of its own, else the
    consistent sets that hold it, as a mask over their positions.  Only the
    enabled events inside the fence are tried, so an event that conflicts
    with ``c`` costs nothing at ``c``.
    """
    n = len(es._names)
    binary = es.conflict_kind == BINARY
    clash, cons = es._clash, es._cons
    holds = [0] * n  # holds[x]: the positions of the consistent sets holding x
    for j, m in enumerate(cons):
        for x in _bits(m):
            holds[x] |= 1 << j
    spread: Dict[int, int] = {}  # a fence of consistent sets -> their union
    watch: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    minimal = [_minimal(needs) if len(needs) > 1 else needs for needs in es._needs]
    core = [reduce(and_, needs) if needs else 0 for needs in minimal]
    first = 0
    for k, needs in enumerate(minimal):
        for need in needs:
            if not need:
                first |= 1 << k
            rest = need
            while rest:
                x = rest.bit_length() - 1
                watch[x].append((need, 1 << k))
                rest &= ~(core[x] | 1 << x)
    room = -1 if limit is None else limit - 1  # configurations still allowed
    # c minimally enables e iff it enables e and no c ^ x does.  If
    # configurations d ⊂ c, a securing sequence of c, with the events of d
    # skipped, takes d to c through configurations; so some c ^ x is a
    # configuration containing d, and by monotonicity it enables e.  Every
    # c ^ x lies one layer below c, so the walk ORs what each enables into
    # ``below[c]`` as it reaches c from it, and reads c's minimal enablings
    # when it walks c's layer; ``en`` and ``below`` are kept for the current
    # and the next layer only.
    mins: List[List[int]] = [[] for _ in range(n)]
    lower = {0: 0}
    maximal = []
    layer = {0: first}  # the configurations of one size, each with its en
    below = {0: 0}
    fences = {0: (1 << (n if binary else len(cons))) - 1}
    while layer:
        grown: Dict[int, int] = {}
        under: Dict[int, int] = {}
        fenced: Dict[int, int] = {}
        for c, en in layer.items():
            m = en & ~below[c]
            if m:
                for k in _bits(m):
                    mins[k].append(c)
            fence = fences[c]
            if binary:
                new = en & ~c & fence
            else:
                if fence not in spread:
                    spread[fence] = reduce(or_, (cons[j] for j in _bits(fence)), 0)
                new = en & ~c & spread[fence]
            if not new:
                maximal.append(c)
            while new:
                b = new & -new
                new ^= b
                c2 = c | b
                if c2 in grown:
                    lower[c2] |= b
                    under[c2] |= en
                    continue
                x = b.bit_length() - 1
                fence2 = fence & ~clash[x] if binary else fence & holds[x]
                if not room:
                    return None
                room -= 1
                lower[c2] = b
                under[c2] = en
                fenced[c2] = fence2
                e2 = en
                for need, kb in watch[x]:
                    if not need & ~c2:
                        e2 |= kb
                grown[c2] = e2
        layer, below, fences = grown, under, fenced
    together = [0] * n
    for m in maximal:
        for k in _bits(m):
            together[k] |= m
    return _Table(lower, maximal, together, mins)


@once
def configurations(es: EventStructure) -> FrozenSet[EventSet]:
    """All configurations: consistent, secured subsets of the events."""
    names = es._names
    sets: Dict[int, EventSet] = {}
    for c, low in _table(es).lower.items():  # each after those it covers
        x = low.bit_length() - 1
        sets[c] = sets[c ^ 1 << x] | {names[x]} if low else frozenset()
    return frozenset(sets.values())


def configuration_count(es: EventStructure) -> int:
    """The number of configurations, read off the table without building them."""
    return len(_table(es).lower)


def is_configuration(es: EventStructure, xs: Iterable[str]) -> bool:
    xs = frozenset(xs)
    return es.is_consistent(xs) and is_secured(es, xs)


def minimal_enablings(es: EventStructure, e: str) -> FrozenSet[EventSet]:
    """All inclusion-minimal configurations enabling ``e``."""
    if e not in es.events:
        raise EsError(f"unknown event {e!r}")
    return _minimal_enablings(es)[es._bit[e]]


@once
def _minimal_enablings(es: EventStructure) -> Tuple[FrozenSet[EventSet], ...]:
    """The minimal enablings of each event, in bit order."""
    return tuple(frozenset(map(es._names_of, mins)) for mins in _table(es).mins)


def _enabling_links(es: EventStructure, k: int) -> List[Tuple[int, int]]:
    """Positions in ``mins[k]`` of the pairs of minimal enablings of event
    ``k`` that are consistent together with it."""
    mins = _table(es).mins[k]
    b = 1 << k
    return [(i, j) for i, j in combinations(range(len(mins)), 2)
            if es._consistent_mask(mins[i] | mins[j] | b)]


class Classification(Value):
    _fields = ("live", "stable", "prime", "connected", "diagnostics")

    def __init__(self, live: bool, stable: bool, prime: bool, connected: bool,
                 diagnostics: Tuple[str, ...] = ()):
        put = object.__setattr__
        put(self, "live", live)
        put(self, "stable", stable)
        put(self, "prime", prime)
        put(self, "connected", connected)
        put(self, "diagnostics", diagnostics)


def _after(k: int, n: int) -> int:
    """The mask of the events after ``k`` of ``n``."""
    return (1 << n) - (2 << k)


def _dead(es: EventStructure) -> List[str]:
    occurs = 0
    for m in _table(es).maximal:
        occurs |= m
    return [e for k, e in enumerate(es._names) if not occurs >> k & 1]


@once
def classify(es: EventStructure) -> Classification:
    """Liveness, stability, primality and connectedness of a structure.

    Stability, primality and connectedness are decided by quantifying over
    configurations and minimal enablings: stability means no event has two
    distinct minimal enablings that are consistent together with the event,
    primality that every event has exactly one minimal enabling, and
    connectedness that the consistency links between minimal enablings of an
    event form a connected graph.
    """
    diags = []
    table = _table(es)
    names = es._names
    dead = _dead(es)
    if dead:
        diags.append(f"dead events (in no configuration): {dead}")
    live = not dead
    if es.conflict_kind == BINARY:
        # a pair is wrong when it is in conflict exactly when it occurs together
        for a, (together, clash) in enumerate(zip(table.together, es._clash)):
            for b in _bits(~(together ^ clash) & _after(a, len(names))):
                live = False
                if clash >> b & 1:
                    diags.append(f"conflicting events {names[a]!r}, {names[b]!r} occur together")
                else:
                    diags.append(f"conflict not saturated: {names[a]!r}, {names[b]!r} "
                                 "never occur together")
    else:
        for xs in es.consistent_sets:
            m = es._mask(xs)
            if all(m & ~c for c in table.maximal):
                live = False
                diags.append(f"consistent set {sorted(xs)} inside no configuration")

    stable = True
    prime = True
    connected = True
    for k, mins in enumerate(table.mins):
        links = _enabling_links(es, k)
        if links:
            stable = False
        # connectedness of the link graph over the minimal enablings
        if len(mins) > 1:
            prime = False
            uf = UnionFind(range(len(mins)))
            for i, j in links:
                uf.union(i, j)
            if len(uf.roots) > 1:
                connected = False
    return Classification(live, stable, prime, connected, tuple(diags))


def _require_live(es: EventStructure) -> None:
    cl = classify(es)
    if not cl.live:
        raise LivenessError("not live: " + "; ".join(cl.diagnostics))


def saturate(es: EventStructure) -> EventStructure:
    """Extend conflict to all pairs that never occur together.

    Fails if some event occurs in no configuration, since no amount of added
    conflict can make such a structure live.  On the consistency kind the
    family is shrunk to the sets realised inside configurations, whose
    maximal members are the maximal configurations.
    """
    dead = _dead(es)
    if dead:
        raise LivenessError(f"events {dead} occur in no configuration")
    table = _table(es)
    names = es._names
    if es.conflict_kind == BINARY:
        pairs = set(es.conflict)
        for a, together in enumerate(table.together):
            for b in _bits(~together & _after(a, len(names))):
                pairs.add(frozenset((names[a], names[b])))
        return EventStructure(es.events, es.enabling_gens, BINARY, frozenset(pairs))
    return EventStructure(es.events, es.enabling_gens, CONSISTENCY,
                          consistent_sets=frozenset(map(es._names_of, table.maximal)))


# ---------------------------------------------------------------------- #
# Morphisms
# ---------------------------------------------------------------------- #

def validate_es_morphism(f: Mapping[str, str],
                         src: EventStructure,
                         dst: EventStructure) -> Report:
    """Check the partial-map morphism conditions between event structures.

    Binary kind: conflict reflection, injectivity up to conflict, and
    preservation of enabling on every source configuration.  Consistency
    kind: image of a consistent set is consistent, injectivity on consistent
    pairs, and the same enabling preservation.
    """
    if src.conflict_kind != dst.conflict_kind:
        return Report(False, "kind-mismatch", (src.conflict_kind, dst.conflict_kind))
    for a, b in f.items():
        if a not in src.events:
            return Report(False, "unknown-source-event", (a,))
        if b not in dst.events:
            return Report(False, "unknown-target-event", (b,))

    defined = sorted(f)
    if src.conflict_kind == BINARY:
        for a, b in combinations(defined, 2):
            if dst.in_conflict(f[a], f[b]) and not src.in_conflict(a, b):
                return Report(False, "conflict-reflection", (a, b))
            if f[a] == f[b] and not src.in_conflict(a, b):
                return Report(False, "injectivity-up-to-conflict", (a, b))
    else:
        for xs in src.consistent_sets:
            img = frozenset(f[e] for e in xs if e in f)
            if img and not dst.is_consistent(img):
                return Report(False, "consistency-preservation", (tuple(sorted(xs)),))
        for a, b in combinations(defined, 2):
            if src.is_consistent((a, b)) and f[a] == f[b]:
                return Report(False, "injectivity-on-consistent", (a, b))

    for c in sorted(configurations(src), key=sorted):
        img = frozenset(f[x] for x in c if x in f)
        for e in defined:
            if src.enables(c, e) and not dst.enables(img, f[e]):
                return Report(False, "enabling-preservation", (tuple(sorted(c)), e))
    return Report(True)
