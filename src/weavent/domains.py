"""Finite posets playing the role of compact skeletons of domains.

Elements are string ids, indexed in sorted order; a subset is an integer
bitmask over those indices.  The order is stored once, as the cover (Hasse)
relation: the index pairs in sorted order, which is the order of the named
pairs too.  Every other table is built from it on first read, so a domain
that is only listed or drawn never pays for them:

- ``lower``/``upper``: the lower and upper covers of each element;
- ``up``/``down``: the order masks, ``up[i]`` the elements ⊒ i and
  ``down[i]`` the elements ⊑ i, swept along the covers in ``rising``
  order, which lists every element after the elements it covers (the
  validating constructor takes it from the walk that checks for cycles,
  ``_common._finishing_order``, and sweeps both masks at once);
- ``by_up``/``by_down``: each element keyed by its up-set, resp. down-set.
  The upper bounds of any set form an up-set U, and U has a least element
  k exactly when ``U == up[k]``; so a join is ``by_up.get(U)`` and a meet
  is ``by_down.get(L)``, one dictionary lookup each;
- ``cons``: the consistency rows, ``cons[i]`` the elements with an upper
  bound in common with ``i``, i.e. the OR of ``down[m]`` over the maximal
  elements ``m ⊒ i``.

The invariants the paper reads off a domain (irreducibles, ↔-partners,
↔*-classes, primes, weak primes, algebraicity) are computed once per
domain and kept on it, since a domain never changes after construction.
The join condition, primality and weak primality are decided by a
certificate first (``_certify``), on every domain with a least element:
the candidate ``ev(D)`` is built from the ↔*-classes as masks, without a
proof, and the map taking each element to the events of the irreducibles
below it is tested to be an order isomorphism onto the candidate's
configurations, which the coreflection theorem makes a weak prime domain.
Where it holds, ``D`` is valid, its weak primes are its irreducibles, its
primes are the irreducibles consistent with no other member of their
class (``_class_primes``), and the candidate is ``ev(D)``.  Where it
fails, one pass over the incomparable consistent pairs decides them all
(``_pair_pass``), with its witnesses; meets need none, since a least
element and binary joins make them exist.  ``_pair_facts`` holds the one
decision.  The domains of ``duality.dom_of_es`` carry the certificate, by
the coreflection theorem.  The exhaustive references these are tested
against, ``*_by_definition`` and ``interchangeable_via_compacts``, live in
``oracles``.

There is deliberately no memo keyed by subset masks: Python hashes an int
modulo 2⁶¹−1, so ``hash(1 << k) == hash(1 << (k + 61))`` and the pair masks
of a poset with more than 61 elements collapse onto few hash values, which
makes such a dictionary slower than the lookup it saves.

Two kinds are supported: ``coherent`` (every pairwise-consistent subset has
a join) and ``bounded_complete`` (every bounded subset has a join).  A set
is *consistent* when it has an upper bound in the poset.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from operator import and_
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ._common import Report, UnionFind, Value, _bits, _finishing_order, once
from .es import BINARY, CONSISTENCY, _Masks, _table_within

COHERENT = "coherent"
BOUNDED_COMPLETE = "bounded_complete"


class OrderError(ValueError):
    """Covers do not describe a partial order (or bad arguments)."""


def _swept(order: Iterable[int], links: List[int]) -> List[int]:
    """``m[i] = 1 << i | m[j]`` OR-ed over the ``j`` in ``links[i]``, filled
    in ``order``, which puts each ``j`` of ``links[i]`` before ``i``: the
    down-sets from the lower covers in rising order, the up-sets from the
    upper covers in falling order."""
    masks = [0] * len(links)
    for i in order:
        m = 1 << i
        for j in _bits(links[i]):
            m |= masks[j]
        masks[i] = m
    return masks


class FiniteDomain:
    """A finite poset given by covers.

    The covers are kept once, as sorted index pairs (``_cover_pairs``); the
    cover and order masks and the lookup tables are computed on first read.
    """

    def __init__(self, elements: Iterable[str], covers: Iterable[Tuple[str, str]],
                 kind: str = COHERENT):
        if kind not in (COHERENT, BOUNDED_COMPLETE):
            raise OrderError(f"unknown domain kind {kind!r}")
        self.kind = kind
        self.elements: Tuple[str, ...] = tuple(sorted(set(elements)))
        if not self.elements:
            raise OrderError("a domain needs at least one element")
        n = len(self.elements)
        idx = self._idx
        succ, pred = [0] * n, [0] * n  # the elements given as covering, covered by each
        for a, b in covers:
            if a not in idx or b not in idx:
                raise OrderError(f"cover ({a!r}, {b!r}) mentions unknown elements")
            if a == b:
                raise OrderError(f"reflexive cover on {a!r}")
            i, j = idx[a], idx[b]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        finished, cycle = _finishing_order(succ)  # every element after all above it
        if cycle is not None:
            raise OrderError(f"cycle through {self.elements[cycle]!r}")
        self._rising = finished[::-1]
        # up[i] = mask of elements ⊒ i, down[j] = mask of elements ⊑ j
        up = _swept(finished, succ)
        down = _swept(self._rising, pred)
        # covers must be transitively reduced; normalise so that input given
        # as a full order still yields a Hasse diagram
        self._set_covers(tuple((a, b) for a in range(n) for b in _bits(succ[a])
                               if not up[a] & down[b] & ~(1 << a) & ~(1 << b)))
        self._up, self._down = up, down

    @classmethod
    def _of_covers(cls, elements: Tuple[str, ...], cover_pairs: Tuple[Tuple[int, int], ...],
                   rising: List[int], kind: str) -> "FiniteDomain":
        """A domain whose covers the caller has already worked out.

        Nothing is checked: ``elements`` must be sorted and distinct,
        ``cover_pairs`` the sorted, acyclic, transitively reduced covers
        over their indices, and ``rising`` every index, each after the
        indices it covers; the order masks are swept along it when first read.
        """
        dom = cls.__new__(cls)
        dom.kind = kind
        dom.elements = elements
        dom._set_covers(cover_pairs)
        dom._rising = rising
        return dom

    def _set_covers(self, cover_pairs: Tuple[Tuple[int, int], ...]) -> None:
        self._cover_pairs = cover_pairs
        self._full = (1 << len(self.elements)) - 1
        # derived invariants, each kept under the ``once`` function that
        # computes it
        self._derived: Dict[object, object] = {}

    # ------------------------------------------------------------------ #
    # Tables built on first use
    # ------------------------------------------------------------------ #

    @cached_property
    def _idx(self) -> Dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _lower(self) -> List[int]:
        """``_lower[i]``: mask of the elements that ``i`` covers."""
        low = [0] * len(self.elements)
        for a, b in self._cover_pairs:
            low[b] |= 1 << a
        return low

    @cached_property
    def _upper(self) -> List[int]:
        """``_upper[i]``: mask of the elements that cover ``i``."""
        high = [0] * len(self.elements)
        for a, b in self._cover_pairs:
            high[a] |= 1 << b
        return high

    @cached_property
    def _down(self) -> List[int]:
        """``_down[i]``: mask of the elements ⊑ ``i``."""
        return _swept(self._rising, self._lower)

    @cached_property
    def _up(self) -> List[int]:
        """``_up[i]``: mask of the elements ⊒ ``i``."""
        return _swept(reversed(self._rising), self._upper)

    @cached_property
    def _by_up(self) -> Dict[int, int]:
        return {m: i for i, m in enumerate(self._up)}

    @cached_property
    def _by_down(self) -> Dict[int, int]:
        return {m: i for i, m in enumerate(self._down)}

    @cached_property
    def _cons(self) -> List[int]:
        """``_cons[i]``: mask of the elements consistent with ``i``."""
        down = self._down
        maximal = sum(1 << i for i, m in enumerate(self._up) if m == 1 << i)
        rows = []
        for m in self._up:
            row = 0
            for t in _bits(m & maximal):
                row |= down[t]
            rows.append(row)
        return rows

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

    @once
    def covers(self) -> Tuple[Tuple[str, str], ...]:
        """The cover pairs in sorted order, named once: elements are indexed
        in sorted order, so the sorted index pairs are the sorted names."""
        return tuple((self.elements[a], self.elements[b]) for a, b in self._cover_pairs)

    def lower_covers(self, x: str) -> Tuple[str, ...]:
        return self.ids(self._lower[self.index(x)])

    def upper_covers(self, x: str) -> Tuple[str, ...]:
        return self.ids(self._upper[self.index(x)])

    def is_cover(self, a: str, b: str) -> bool:
        return bool(self._upper[self.index(a)] >> self.index(b) & 1)

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
        ub = self._full
        for i in _bits(mask):
            ub &= self._up[i]
        return self._by_up.get(ub)

    def _meet_mask(self, mask: int) -> Optional[int]:
        lb = self._full
        for i in _bits(mask):
            lb &= self._down[i]
        return self._by_down.get(lb)

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


@once
def _pair_facts(dom: FiniteDomain) -> Tuple[Report, int, int]:
    """The verdict of ``validate_domain`` on the join condition, and the
    masks of the primes and of the weak primes, decided once: on a domain
    the duality certificate holds on, valid, the primes of
    ``_class_primes`` and every irreducible (``_certify``); elsewhere from
    ``_pair_pass``."""
    if _certified(dom):
        return Report(True), _class_primes(dom), _irreducible_mask(dom)
    return _pair_pass(dom)


def _pair_pass(dom: FiniteDomain) -> Tuple[Report, int, int]:
    """Look up the join ``k`` of each pair ``i < j`` of incomparable
    consistent elements once, in lexicographic order (a comparable pair
    joins in its larger element, where no test can fail).  The verdict is
    the first pair failing the join condition; the walk goes on, since
    invalid posets are asked for primes too.  An element below ``k`` but
    not below ``i`` or ``j`` is not prime, and no weak prime unless a
    ↔-partner of it is below ``i`` or ``j``.
    """
    names, up, down, cons, by_up = dom.elements, dom._up, dom._down, dom._cons, dom._by_up
    partners, lower, full = _partners(dom), dom._lower, dom._full
    # unreached[x]: the elements that are no ↔-partner of an irreducible
    # below x (partner rows are symmetric and hold their own element), built
    # along the covers in rising order
    unreached = [0] * len(names)
    for x in dom._rising:
        unreached[x] = reduce(and_, (unreached[c] for c in _bits(lower[x])),
                              full ^ partners.get(x, 0))
    # complements, so that each test costs a pair two ANDs; a bounded
    # complete poset has no consistency for a join to break
    not_below = [full ^ m for m in down]
    inconsistent = [full ^ m if dom.kind == COHERENT else 0 for m in cons]
    verdict = Report(True)
    not_prime = not_weak = 0
    for i in range(len(names)):
        ui, ci, not_below_i, unreached_i = up[i], cons[i], not_below[i], unreached[i]
        for j in _bits(ci & ~(ui | down[i] | ((2 << i) - 1))):
            k = by_up.get(ui & up[j])
            if k is None:
                if verdict.ok:
                    verdict = Report(False, "missing-join", (names[i], names[j]))
                continue
            bad = ci & inconsistent[k] & cons[j]
            if bad and verdict.ok:
                c = (bad & -bad).bit_length() - 1
                verdict = Report(False, "join-breaks-consistency", (names[i], names[j], names[c]))
            not_prime |= down[k] & not_below_i & not_below[j]
            not_weak |= down[k] & unreached_i & unreached[j]
    bot = dom.bottom()
    not_prime |= (1 << dom.index(bot)) if bot is not None else 0
    return verdict, full & ~not_prime, _irreducible_mask(dom) & ~not_weak


# ---------------------------------------------------------------------- #
# Validation
# ---------------------------------------------------------------------- #

def validate_domain(dom: FiniteDomain) -> Report:
    """Check least element and the join condition for the domain's kind.

    Coherence is checked through the generator criterion: for pairwise
    consistent ``{d, d', d''}`` the join ``d ⊔ d'`` exists and stays
    consistent with ``d''`` (equivalent, on a finite poset, to every pairwise
    consistent subset having a join); the witness ``d''`` is the lowest
    element of ``cons[d] & cons[d'] & ~cons[d ⊔ d']``.  Bounded completeness
    reduces to binary joins of bounded pairs.  Both are read off the one
    pair pass, which runs only where the duality certificate is not found
    to hold: where it holds, the domain is valid (``_pair_facts``).  Meets need no check:
    the lower bounds of a pair hold ``⊥`` and are bounded, so their join
    exists and is the meet.  The exhaustive oracle is
    ``oracles.validate_domain_by_definition``.
    """
    if dom.bottom() is None:
        return Report(False, "no-least-element", tuple(
            x for x in dom.elements if not dom.lower_covers(x)))
    return _pair_facts(dom)[0]


def _require_valid(dom: FiniteDomain) -> None:
    rep = validate_domain(dom)
    if not rep.ok:
        raise OrderError(f"not a valid domain: {rep.condition} {rep.witness}")


@once
def _require_weak_prime(dom: FiniteDomain) -> bool:
    """``OrderError`` unless ``dom`` is weak prime, proved once: by the
    duality certificate, or else by the pair pass, whose verdict and
    witness the error names."""
    _require_valid(dom)
    for i in dom.ids(_irreducible_mask(dom) & ~_pair_facts(dom)[2]):
        raise OrderError(f"not weak prime algebraic: irreducible {i!r} is not a weak prime")
    return True


# ---------------------------------------------------------------------- #
# The duality certificate
# ---------------------------------------------------------------------- #

@once
def _certified(dom: FiniteDomain) -> bool:
    """Whether ``_certify`` holds on ``dom`` and its candidate structure,
    decided once, on any domain with a least element: whether the unit φ
    is an isomorphism ``D ≅ dom(ev(D))``, which ``roundtrip --domain``
    reports.  ``duality.dom_of_es`` records it on its domains, where the
    coreflection theorem proves it."""
    return dom.bottom() is not None and _certify(dom, _candidate(dom))


def _certify(dom: FiniteDomain, es) -> bool:
    """Whether φ is an order isomorphism of ``dom`` onto the configurations
    of ``es``, where φ(d) is the set of the events of the irreducibles below
    ``d`` and the irreducibles of the ``k``-th ↔*-class have the event
    ``class{k}:{least member}``, as in ``_candidate``.

    The tests, cheapest first: each cover of ``dom`` adds exactly one event
    under φ; φ is injective; ``es`` has exactly ``|dom|`` configurations
    (the walk gives up after ``|dom| + 1``), every φ(d) is one, and their
    inclusion order has exactly as many covers as ``dom``.

    Proof that they suffice.  φ is injective into a set of the same size,
    so it is a bijection onto ``Conf(es)``.  A cover ``d ⋖ d'`` goes to
    ``φ(d) ⊂ φ(d')`` with one event more, which is a cover of
    ``Conf(es)``; distinct covers go to distinct covers, and the counts are
    equal, so every cover of ``Conf(es)`` is the image of one.  Both orders
    are the reflexive-transitive closures of their covers, so φ and its
    inverse are monotone: φ is an order isomorphism.  The configurations of
    any event structure form a weak prime domain (the coreflection
    theorem): coherent under binary conflict, which ``_steps_masks`` builds
    for a coherent ``dom``, and bounded complete under a consistency
    predicate.  So ``dom`` is valid for its kind, and its irreducibles, the
    images of those of ``Conf(es)``, are all weak primes.  Where the
    certificate fails, the pair pass decides.  It fails wherever the pair
    pass finds a fault, and it may fail on a domain the pair pass accepts:
    the bounded complete ``fixtures.nontransitive_bdomain`` is weak prime,
    and its 15 elements are not the 13 configurations of its candidate.
    """
    n, bit = len(dom.elements), es._bit
    event = [0] * n  # the bit of the event of each irreducible, else 0
    for name, g in zip(_event_names(dom), _class_groups(dom)):
        if name not in bit:
            return False
        for i in g:
            event[i] = 1 << bit[name]
    phi = _swept_or(dom, event)
    for a, b in dom._cover_pairs:  # phi[a] ⊆ phi[b], as phi ORs along covers
        x = phi[a] ^ phi[b]
        if not x or x & (x - 1):
            return False
    if len(set(phi)) < n:
        return False
    table = _table_within(es, n)
    if table is None:
        return False
    confs = table.lower
    return (len(confs) == n and all(m in confs for m in phi)
            and sum(map(int.bit_count, confs.values())) == len(dom._cover_pairs))


def _swept_or(dom: FiniteDomain, own: List[int]) -> List[int]:
    """``m[d]``, the OR of ``own[x]`` over the ``x ⊑ d``, swept along the
    lower covers in rising order."""
    lower, m = dom._lower, [0] * len(own)
    for d in dom._rising:
        x = own[d]
        for c in _bits(lower[d]):
            x |= m[c]
        m[d] = x
    return m


@once
def _candidate(dom: FiniteDomain) -> _Masks:
    """ev of ``dom`` as masks, built without a proof that ``dom`` is weak
    prime: the event ``class{k}:{least member}`` performs the steps
    ``[p(i), i]`` of the irreducibles ``i`` of the ``k``-th ↔*-class
    (``_steps_masks``).  Built once per domain; ``duality.ev_of_domain``
    names it."""
    return _steps_masks(dom, _event_names(dom), [[(dom._lower[i].bit_length() - 1, i) for i in g]
                                                 for g in _class_groups(dom)])


def _event_names(dom: FiniteDomain) -> List[str]:
    """``class{k}:{least member}``, the event of the ``k``-th ↔*-class."""
    names = dom.elements
    return [f"class{k}:{names[g[0]]}" for k, g in enumerate(_class_groups(dom))]


def _steps_masks(dom: FiniteDomain, names: List[str],
                 steps: List[List[Tuple[int, int]]]) -> _Masks:
    """The masks of the structure whose event ``names[k]`` performs the
    covers ``steps[k]`` of ``dom``; it is the one construction behind
    ``_candidate`` (one step ``[p(i), i]`` per irreducible ``i``, grouped by
    ↔*-class), ``intervals.ev_wd`` (every cover, grouped by interval
    class) and ``duality.epes_ev`` (the step ``[p(i), i]`` of each
    irreducible ``i`` as its own event).

    Let ψ(d) be the events with a step ending below ``d``, swept along the
    covers.  A step ``(d, d')`` is enabled by ψ(d).  On a coherent domain
    two events conflict when no element dominates an upper end of each,
    that is when no maximal element ``m`` has both in ψ(m), since every
    upper bound lies below a maximal element: an event's row of consistent
    partners is the OR of the ψ(m) that hold it.  On any other domain the
    consistent sets are the ψ(m).  Each step is visited once, and each
    maximal element once per event below it; no pair of events is.
    """
    k = len(names)
    order = sorted(range(k), key=names.__getitem__)  # the events' bits
    rank = [0] * k
    for r, e in enumerate(order):
        rank[e] = r
    own = [0] * len(dom.elements)
    for e, s in enumerate(steps):
        for _, d2 in s:
            own[d2] |= 1 << rank[e]
    psi = _swept_or(dom, own)
    needs = [list(dict.fromkeys(psi[d] for d, _ in steps[e])) for e in order]
    tops = [psi[m] for m, high in enumerate(dom._upper) if not high]
    names = tuple(map(names.__getitem__, order))
    if dom.kind != COHERENT:
        return _Masks(names, CONSISTENCY, needs, [0] * k, tops)
    return _Masks(names, BINARY, needs, _clashes(tops, k), [])


def _clashes(tops: List[int], k: int) -> List[int]:
    """The conflict rows of ``k`` events that are consistent exactly when
    one of ``tops`` holds both: an event's row of consistent partners is
    the OR of the tops that hold it, and it clashes with every other
    event.  ``_steps_masks`` reads a coherent domain's conflict this way,
    and ``duality.epes_ev`` the binary conflict of either kind."""
    rows = [0] * k
    for top in tops:
        for e in _bits(top):
            rows[e] |= top
    full = (1 << k) - 1
    return [full ^ row for row in rows]


def _class_primes(dom: FiniteDomain) -> int:
    """The mask of the primes of a certified domain: the irreducibles
    consistent with no other member of their ↔*-class.

    Proof.  Let φ be the isomorphism of ``_certify`` onto ``Conf(E)``, and
    ``e`` the event of the class ``K`` of an irreducible ``i``.  The cover
    ``p(i) ⋖ i`` adds one event, and ``e ∈ φ(i)``; if ``e`` were in
    ``φ(p(i))``, some ``j ∈ K`` below ``p(i)`` would give it, and the cover
    would add none, so it adds ``e``.  The join of a set with an upper
    bound is the union of the configurations, in either kind, so φ takes
    joins of bounded sets to unions.
    (⇒) Let ``j ∈ K``, ``j ≠ i``, be consistent with ``i``.  Then
    ``{p(i), j}`` is bounded, and φ of its join is
    ``φ(p(i)) ∪ φ(j) ∋ e``, which holds ``φ(i) = φ(p(i)) ∪ {e}``, so
    ``i ⊑ p(i) ⊔ j``.  If ``i`` were prime, ``i ⊑ j`` as ``i ⋢ p(i)``;
    then ``i ⊑ p(j)``, since ``i ≠ j`` and ``p(j)`` is the only lower cover
    of ``j``, and ``e ∈ φ(i) ⊆ φ(p(j))``, but the cover ``p(j) ⋖ j`` adds
    ``e``.  So ``i`` is not prime.
    (⇐) Let ``i ⊑ ⊔X`` for a bounded ``X``.  Then ``e ∈ φ(⊔X)``, the union
    of the ``φ(x)``, so some irreducible ``j ∈ K`` lies below some
    ``x ∈ X``; ``j`` and ``i`` are both below ``⊔X``, so ``j = i`` by the
    hypothesis, and ``i ⊑ x``: ``i`` is prime.
    No other element is prime: ``⊥`` is the join of the empty set, and an
    element with two lower covers is their join.  This is the mask that
    ``_pair_pass`` finds, with binary joins.
    """
    cons, out = dom._cons, 0
    for g in _class_groups(dom):
        cls = sum(1 << i for i in g)
        for i in g:
            if not cons[i] & (cls ^ 1 << i):
                out |= 1 << i
    return out


# ---------------------------------------------------------------------- #
# Irreducibles, primes, weak primes
# ---------------------------------------------------------------------- #

class IrreducibleInfo(Value):
    _fields = ("element", "unique_predecessor", "class_id")

    def __init__(self, element: str, unique_predecessor: str, class_id: int):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "unique_predecessor", unique_predecessor)
        object.__setattr__(self, "class_id", class_id)


@once
def _irreducible_mask(dom: FiniteDomain) -> int:
    """Mask of the elements with exactly one lower cover."""
    return sum(1 << i for i, low in enumerate(dom._lower) if low and not low & (low - 1))


def _irreducible_indices(dom: FiniteDomain) -> List[int]:
    return list(_bits(_irreducible_mask(dom)))


def _irreducible_index(dom: FiniteDomain, x: str) -> int:
    i = dom.index(x)
    if not _irreducible_mask(dom) >> i & 1:
        raise OrderError(f"{x!r} is not irreducible")
    return i


def irreducibles(dom: FiniteDomain) -> Tuple[IrreducibleInfo, ...]:
    """All elements with a unique lower cover, with their ↔*-class index."""
    classes = interchange_classes(dom)
    cls_of = {x: k for k, xs in enumerate(classes) for x in xs}
    infos = []
    for i in _irreducible_indices(dom):
        x = dom.elements[i]
        infos.append(IrreducibleInfo(x, dom.lower_covers(x)[0], cls_of[x]))
    return tuple(infos)


@once
def irreducible_elements(dom: FiniteDomain) -> Tuple[str, ...]:
    return dom.ids(_irreducible_mask(dom))


def predecessor(dom: FiniteDomain, i: str) -> str:
    return dom.ids(dom._lower[_irreducible_index(dom, i)])[0]


@once
def primes(dom: FiniteDomain) -> Tuple[str, ...]:
    """Elements below a join only via one of the joined elements.

    On a certified domain, the irreducibles consistent with no other member
    of their ↔*-class (``_class_primes``).  Elsewhere the binary-join
    criterion, which on a finite domain agrees with quantification over all
    pairwise-consistent subsets (joins of larger sets are reached by
    repeated binary joins): the non-primes are the OR, in the one pair
    pass, of ``down[i ⊔ j] & ~down[i] & ~down[j]``.
    """
    return dom.ids(_pair_facts(dom)[1])


def _interchangeable(dom: FiniteDomain, a: int, b: int) -> bool:
    """``↔`` on the irreducibles with indices ``a`` and ``b``."""
    if not dom._cons[a] >> b & 1:
        return False
    up, by_up = dom._up, dom._by_up
    pa = dom._lower[a].bit_length() - 1
    pb = dom._lower[b].bit_length() - 1
    j = by_up.get(up[a] & up[pb])
    return j is not None and j == by_up.get(up[pa] & up[b]) and j != by_up.get(up[pa] & up[pb])


def interchangeable(dom: FiniteDomain, i: str, i2: str) -> bool:
    """Interchangeability of two irreducibles.

    Decided by the join characterisation: the two are consistent and
    ``i ⊔ p(i') = p(i) ⊔ i' ≠ p(i) ⊔ p(i')`` where ``p`` takes the unique
    predecessor.
    """
    return _interchangeable(dom, _irreducible_index(dom, i), _irreducible_index(dom, i2))


@once
def _partners(dom: FiniteDomain) -> Dict[int, int]:
    """For each irreducible ``x``, the mask of ``x`` and of the irreducibles
    directly interchangeable with it (``↔``, not its closure ``↔*``)."""
    # Only consistent, incomparable pairs can be interchangeable: if a < b
    # then a ⊔ p(b) = p(b) ≠ b = p(a) ⊔ b.
    up, down, cons = dom._up, dom._down, dom._cons
    irr = _irreducible_mask(dom)
    rows = {x: 1 << x for x in _bits(irr)}
    for a in rows:
        later = irr & cons[a] & ~(up[a] | down[a] | ((2 << a) - 1))
        for b in _bits(later):
            if _interchangeable(dom, a, b):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


@once
def interchange_classes(dom: FiniteDomain) -> Tuple[FrozenSet[str], ...]:
    """Partition of the irreducibles by the reflexive-transitive closure of ↔.

    Classes are ordered by their lexicographically least member.
    """
    return tuple(frozenset(dom.elements[i] for i in g) for g in _class_groups(dom))


@once
def _class_groups(dom: FiniteDomain) -> List[List[int]]:
    """The ↔*-classes as sorted lists of indices, ordered by least member."""
    rows = _partners(dom)
    uf = UnionFind(rows)
    for x, row in rows.items():
        for y in _bits(row):
            uf.union(x, y)
    return uf.groups()


@once
def weak_primes(dom: FiniteDomain) -> Tuple[str, ...]:
    """Irreducibles that are prime up to interchangeability.

    On a certified domain, every irreducible (``_certify``).  Elsewhere
    checked on binary joins, in the one pair pass: whenever ``i ⊑ d ⊔ d'``
    for a consistent pair, some interchangeable ``i'`` sits below ``d`` or
    ``d'``.  Larger joins follow by iterating binary ones (the
    full-quantifier oracle is ``oracles.weak_primes_by_definition``).
    """
    return dom.ids(_pair_facts(dom)[2])


class Algebraicity(Value):
    _fields = ("irreducible_algebraic", "prime_algebraic", "weak_prime_algebraic")

    def __init__(self, irreducible_algebraic: bool, prime_algebraic: bool,
                 weak_prime_algebraic: bool):
        object.__setattr__(self, "irreducible_algebraic", irreducible_algebraic)
        object.__setattr__(self, "prime_algebraic", prime_algebraic)
        object.__setattr__(self, "weak_prime_algebraic", weak_prime_algebraic)


def decompose(dom: FiniteDomain, d: str) -> FrozenSet[str]:
    """The irreducibles below ``d`` (whose join recovers ``d``)."""
    return frozenset(dom.ids(dom._down[dom.index(d)] & _irreducible_mask(dom)))


@once
def algebraicity(dom: FiniteDomain) -> Algebraicity:
    """Irreducible/prime/weak-prime algebraicity flags.

    Irreducible algebraicity (every element is the join of the irreducibles
    below it) holds in any valid domain.  On a certified domain it is read
    off the isomorphism φ of ``_certify``: φ of the join of the
    irreducibles below ``d`` is the union of their φ, which is φ(d), so the
    join is ``d``.  Elsewhere it is recomputed as a self-test.  The other
    two reduce to primes, resp. weak primes, exhausting the irreducibles.
    """
    irr = _irreducible_mask(dom)
    irr_alg = _certified(dom) or all(dom._join_mask(down & irr) == d
                                     for d, down in enumerate(dom._down))
    _, prime_mask, weak_prime_mask = _pair_facts(dom)
    return Algebraicity(irr_alg, prime_mask == irr, weak_prime_mask == irr)


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
    names, img = dom1.elements, [dom2._idx[f[x]] for x in dom1.elements]
    upper1, upper2 = dom1._upper, dom2._upper
    for i, j in dom1._cover_pairs:
        if img[i] == img[j]:
            if strict:
                return Report(False, "cover-collapsed", (names[i], names[j]))
            continue
        if not upper2[img[i]] >> img[j] & 1:
            return Report(False, "cover-not-preserved", (names[i], names[j]))
    # joins of consistent sets: the empty set plus consistent pairs suffice,
    # larger consistent sets follow by iterating binary joins
    b1, b2 = dom1.bottom(), dom2.bottom()
    if b1 is not None and b2 is not None and f[b1] != b2:
        return Report(False, "join-not-preserved", ())
    up1, down1, by_up1, by_down1 = dom1._up, dom1._down, dom1._by_up, dom1._by_down
    up2, down2, by_up2, by_down2 = dom2._up, dom2._down, dom2._by_up, dom2._by_down
    # the consistent pairs i < j, in the order of combinations(dom1.elements, 2)
    consistent = [(i, j) for i, row in enumerate(dom1._cons) for j in _bits(row & ~((2 << i) - 1))]
    for i, j in consistent:
        k = by_up1.get(up1[i] & up1[j])
        if k is not None and by_up2.get(up2[img[i]] & up2[img[j]]) != img[k]:
            return Report(False, "join-not-preserved", (names[i], names[j]))
    for i, j in consistent:
        m = by_down1.get(down1[i] & down1[j])
        if m is not None and upper1[m] & (1 << i | 1 << j) and \
                by_down2.get(down2[img[i]] & down2[img[j]]) != img[m]:
            return Report(False, "meet-not-preserved", (names[i], names[j]))
    if algebraicity(dom1).prime_algebraic and algebraicity(dom2).prime_algebraic:
        # binary meets suffice: meets of larger nonempty sets iterate them
        for i, j in combinations(range(len(names)), 2):
            m = by_down1.get(down1[i] & down1[j])
            if m is not None and by_down2.get(down2[img[i]] & down2[img[j]]) != img[m]:
                return Report(False, "prime-meet-not-preserved", (names[i], names[j]))
    return Report(True)
