"""Finite event structures with binary conflict or a consistency predicate.

An event structure is a finite set of events, an enabling relation and a
notion of consistency.  Enabling is stored by finite generators: ``X``
enables ``e`` exactly when some stored pair ``(Y, e)`` has ``Y ⊆ X``, which
makes the relation monotone by construction.  Consistency is either a binary
irreflexive conflict or a subset-closed family of consistent sets given by
its maximal members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from ._common import Report, UnionFind

EventSet = FrozenSet[str]

BINARY = "binary"
CONSISTENCY = "consistency"


class EsError(ValueError):
    """Malformed event structure or invalid argument."""


class LivenessError(EsError):
    """Raised when an operation requires liveness that cannot be restored."""


def _evset(events: Iterable[str]) -> EventSet:
    return frozenset(events)


@dataclass(frozen=True)
class EventStructure:
    """Immutable finite event structure.

    Attributes:
        events: the finite event set (nonempty string names).
        enabling_gens: generator pairs ``(needs, event)``; the full enabling
            relation is their upward closure.
        conflict_kind: ``"binary"`` or ``"consistency"``.
        conflict: unordered conflict pairs (binary kind only).
        consistent_sets: maximal consistent sets (consistency kind only).
    """

    events: EventSet
    enabling_gens: FrozenSet[Tuple[EventSet, str]]
    conflict_kind: str = BINARY
    conflict: FrozenSet[EventSet] = frozenset()
    consistent_sets: FrozenSet[EventSet] = frozenset()
    # the needs of each event's generators, indexed once; left out of
    # equality and hashing, which stay those of the fields above
    _gens_of: Dict[str, List[EventSet]] = field(init=False, repr=False, compare=False)
    # binary kind: the conflict partners of each event, indexed the same way
    _partners: Dict[str, EventSet] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.conflict_kind not in (BINARY, CONSISTENCY):
            raise EsError(f"unknown conflict kind {self.conflict_kind!r}")
        for e in self.events:
            if not isinstance(e, str) or not e:
                raise EsError(f"event names must be nonempty strings, got {e!r}")
        gens_of: Dict[str, List[EventSet]] = {e: [] for e in self.events}
        for needs, e in self.enabling_gens:
            if e not in self.events:
                raise EsError(f"enabling generator for unknown event {e!r}")
            unknown = needs - self.events
            if unknown:
                raise EsError(f"enabling generator mentions unknown events {sorted(unknown)}")
            gens_of[e].append(needs)
        object.__setattr__(self, "_gens_of", gens_of)
        if self.conflict_kind == BINARY:
            if self.consistent_sets:
                raise EsError("binary-conflict structure cannot carry consistent_sets")
            partners: Dict[str, set] = {e: set() for e in self.events}
            for pair in self.conflict:
                if len(pair) != 2:
                    raise EsError(f"conflict entries must be unordered pairs, got {sorted(pair)}")
                if pair - self.events:
                    raise EsError(f"conflict pair mentions unknown events {sorted(pair - self.events)}")
                a, b = pair
                partners[a].add(b)
                partners[b].add(a)
            object.__setattr__(self, "_partners",
                               {e: frozenset(p) for e, p in partners.items()})
        else:
            if self.conflict:
                raise EsError("consistency-kind structure cannot carry a binary conflict")
            covered = set()
            for xs in self.consistent_sets:
                if xs - self.events:
                    raise EsError(f"consistent set mentions unknown events {sorted(xs - self.events)}")
                covered |= xs
            missing = self.events - covered
            if missing:
                raise EsError(
                    f"events {sorted(missing)} belong to no consistent set (singletons must be consistent)")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def binary(events: Iterable[str],
               conflict: Iterable[Tuple[str, str]] = (),
               enabling: Iterable[Tuple[Iterable[str], str]] = ()) -> "EventStructure":
        """Build a binary-conflict event structure from plain iterables."""
        pairs = set()
        evs = _evset(events)
        for a, b in conflict:
            if a == b:
                raise EsError(f"conflict must be irreflexive, got ({a!r}, {b!r})")
            pairs.add(frozenset((a, b)))
        gens = frozenset((frozenset(needs), e) for needs, e in enabling)
        return EventStructure(evs, gens, BINARY, frozenset(pairs))

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
        return EventStructure(_evset(events), gens, CONSISTENCY,
                              consistent_sets=maximal)

    # ------------------------------------------------------------------ #
    # Basic relations
    # ------------------------------------------------------------------ #

    def is_consistent(self, xs: Iterable[str]) -> bool:
        xs = frozenset(xs)
        if xs - self.events:
            raise EsError(f"unknown events {sorted(xs - self.events)}")
        if self.conflict_kind == BINARY:
            return not any(frozenset(p) in self.conflict for p in combinations(sorted(xs), 2))
        return any(xs <= ys for ys in self.consistent_sets)

    def enables(self, xs: Iterable[str], e: str) -> bool:
        """True when ``xs ⊢ e`` in the derived monotone relation."""
        xs = frozenset(xs)
        if e not in self.events:
            raise EsError(f"unknown event {e!r}")
        return any(needs <= xs for needs in self._gens_of[e])

    def in_conflict(self, a: str, b: str) -> bool:
        if self.conflict_kind == BINARY:
            return frozenset((a, b)) in self.conflict
        return not self.is_consistent((a, b))


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


@lru_cache(maxsize=None)
def configurations(es: EventStructure) -> FrozenSet[EventSet]:
    """All configurations: consistent, secured subsets of the events.

    Enumerated by single-event extensions from the empty configuration;
    every configuration is reachable this way because securing sequences
    pass through configurations.
    """
    binary = es.conflict_kind == BINARY
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        c = frontier.pop()
        for e in es.events - c:
            if not es.enables(c, e):
                continue
            c2 = c | {e}
            if c2 in found:
                continue
            # c is consistent, so with binary conflict only e can clash
            if binary:
                if not es._partners[e].isdisjoint(c):
                    continue
            elif not es.is_consistent(c2):
                continue
            found.add(c2)
            frontier.append(c2)
    return frozenset(found)


def is_configuration(es: EventStructure, xs: Iterable[str]) -> bool:
    xs = frozenset(xs)
    return es.is_consistent(xs) and is_secured(es, xs)


@lru_cache(maxsize=None)
def minimal_enablings(es: EventStructure, e: str) -> FrozenSet[EventSet]:
    """All inclusion-minimal configurations enabling ``e``."""
    if e not in es.events:
        raise EsError(f"unknown event {e!r}")
    enabling = {c for c in configurations(es) if es.enables(c, e)}
    # c is minimal iff no c - {x} enables e.  If configurations d ⊂ c, a
    # securing sequence of c, with the events of d skipped, takes d to c
    # through configurations; so c minus the last event added is a
    # configuration containing d, and by monotonicity it enables e.
    return frozenset(c for c in enabling if not any(c - {x} in enabling for x in c))


@lru_cache(maxsize=None)
def _enabling_links(es: EventStructure, e: str) -> FrozenSet[Tuple[EventSet, EventSet]]:
    """Pairs of distinct minimal enablings of ``e`` consistent together with ``e``."""
    mins = sorted(minimal_enablings(es, e), key=sorted)
    return frozenset((c1, c2) for c1, c2 in combinations(mins, 2)
                     if es.is_consistent(c1 | c2 | {e}))


@dataclass(frozen=True)
class Classification:
    live: bool
    stable: bool
    prime: bool
    connected: bool
    diagnostics: Tuple[str, ...] = ()


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
    confs = configurations(es)
    occurs = set().union(*confs) if confs else set()
    dead = es.events - occurs
    if dead:
        diags.append(f"dead events (in no configuration): {sorted(dead)}")
    live = not dead
    if es.conflict_kind == BINARY:
        for a, b in combinations(sorted(es.events), 2):
            together = any(a in c and b in c for c in confs)
            conflicted = es.in_conflict(a, b)
            if together and conflicted:
                live = False
                diags.append(f"conflicting events {a!r}, {b!r} occur together")
            if not together and not conflicted:
                live = False
                diags.append(f"conflict not saturated: {a!r}, {b!r} never occur together")
    else:
        for xs in es.consistent_sets:
            if not any(xs <= c for c in confs):
                live = False
                diags.append(f"consistent set {sorted(xs)} inside no configuration")

    stable = True
    prime = True
    connected = True
    for e in sorted(es.events):
        mins = minimal_enablings(es, e)
        if len(mins) > 1:
            prime = False
        links = _enabling_links(es, e)
        if links:
            stable = False
        # connectedness of the link graph over the minimal enablings
        if len(mins) > 1:
            pos = {c: k for k, c in enumerate(mins)}
            uf = UnionFind(range(len(mins)))
            for c1, c2 in links:
                uf.union(pos[c1], pos[c2])
            if len(uf.groups()) > 1:
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
    family is shrunk to the sets realised inside configurations.
    """
    confs = configurations(es)
    occurs = set().union(*confs) if confs else set()
    dead = sorted(es.events - occurs)
    if dead:
        raise LivenessError(f"events {dead} occur in no configuration")
    if es.conflict_kind == BINARY:
        pairs = set(es.conflict)
        for a, b in combinations(sorted(es.events), 2):
            if not any(a in c and b in c for c in confs):
                pairs.add(frozenset((a, b)))
        return EventStructure(es.events, es.enabling_gens, BINARY, frozenset(pairs))
    realised = [xs for xs in es.consistent_sets if any(xs <= c for c in confs)]
    realised += [c for c in confs]
    maximal = frozenset(xs for xs in realised if not any(xs < ys for ys in realised))
    return EventStructure(es.events, es.enabling_gens, CONSISTENCY,
                          consistent_sets=maximal)


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
