"""Input structures for the benchmark, with answers known in advance.

Closed-form families:

- ``B_n``: n independent events (the Boolean lattice, 2^n configurations).
- ``X_k``: k binary choices x_i # y_i (3^k configurations).
- ``L_k``: k disjoint copies of the running structure ``e_run``, where c is
  enabled by a or by b (7^k configurations, unstable).
- ``C_n``: a chain of n events, each needing the previous one.

Their answers are written down by hand from the closed forms.  Seeded random
draws are live and connected by construction; their answers come from the
small enumerator in this module, never from weavent.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Tuple

Config = FrozenSet[str]


# ---------------------------------------------------------------------- #
# Event structures as JSON objects
# ---------------------------------------------------------------------- #

def es_json(events, enabling, conflict=()) -> dict:
    return {"events": sorted(events),
            "conflict": sorted(sorted(p) for p in conflict),
            "enabling": [{"needs": sorted(needs), "event": e}
                         for needs, e in sorted(enabling, key=lambda g: (g[1], sorted(g[0])))]}


def boolean_es(n: int) -> dict:
    events = [f"e{i}" for i in range(n)]
    return es_json(events, [((), e) for e in events])


def choices_es(k: int) -> dict:
    events, enabling, conflict = [], [], []
    for i in range(k):
        x, y = f"x{i}", f"y{i}"
        events += [x, y]
        enabling += [((), x), ((), y)]
        conflict.append((x, y))
    return es_json(events, enabling, conflict)


def runs_es(k: int) -> dict:
    events, enabling = [], []
    for i in range(k):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"
        events += [a, b, c]
        enabling += [((), a), ((), b), ((a,), c), ((b,), c)]
    return es_json(events, enabling)


def chain_es(n: int) -> dict:
    events = [f"s{i}" for i in range(n)]
    return es_json(events, [((), events[0])]
                   + [((events[i - 1],), events[i]) for i in range(1, n)])


def random_connected_es(rng: random.Random, core: int, leaves: int) -> dict:
    """A live, connected structure, conflict-free among its ``core`` events.

    Core events are enabled by one or two random sets of earlier core
    events, so or-enablings (instability) occur often.  Leaf events are
    enabled from the core and needed by nobody; some of them are paired in
    conflict.  No event needs a conflicting one, so every event occurs,
    every non-conflicting pair occurs together (the structure is live and
    its conflict saturated), and every minimal enabling is conflict-free
    (so the structure is connected).
    """
    core_ev = [f"k{i}" for i in range(core)]
    leaf_ev = [f"f{i}" for i in range(leaves)]
    enabling = []
    for i, e in enumerate(core_ev):
        earlier = core_ev[:i]
        if not earlier:
            enabling.append(((), e))
            continue
        first = rng.sample(earlier, rng.randint(0, min(2, len(earlier))))
        enabling.append((tuple(first), e))
        rest = [x for x in earlier if x not in first]
        if first and rest and rng.random() < 0.6:
            enabling.append((tuple(rng.sample(rest, rng.randint(1, min(2, len(rest))))), e))
    for e in leaf_ev:
        enabling.append((tuple(rng.sample(core_ev, rng.randint(0, min(2, core)))), e))
    shuffled = rng.sample(leaf_ev, len(leaf_ev))
    conflict = [(shuffled[i], shuffled[i + 1]) for i in range(0, len(shuffled) - 1, 2)
                if rng.random() < 0.7]
    return es_json(core_ev + leaf_ev, enabling, conflict)


# ---------------------------------------------------------------------- #
# The benchmark's own enumerator
# ---------------------------------------------------------------------- #

def configurations(es: dict) -> List[Config]:
    """Consistent, secured subsets, by single-event extension from {}.

    Sorted by size, then by sorted members."""
    gens: Dict[str, List[Config]] = {e: [] for e in es["events"]}
    for g in es["enabling"]:
        gens[g["event"]].append(frozenset(g["needs"]))
    rivals: Dict[str, set] = {e: set() for e in es["events"]}
    for a, b in es["conflict"]:
        rivals[a].add(b)
        rivals[b].add(a)
    found = {frozenset()}
    todo = [frozenset()]
    while todo:
        c = todo.pop()
        for e in es["events"]:
            if e in c or rivals[e] & c or not any(g <= c for g in gens[e]):
                continue
            c2 = c | {e}
            if c2 not in found:
                found.add(c2)
                todo.append(c2)
    return sorted(found, key=lambda c: (len(c), sorted(c)))


def path_count(confs: List[Config]) -> int:
    """Paths from {} to every configuration (securing sequences): the
    derivations a grammar synthesised from the structure enumerates."""
    present = set(confs)
    paths: Dict[Config, int] = {}
    for c in confs:  # sorted by size, so lower covers come first
        paths[c] = sum(paths[c - {e}] for e in c if c - {e} in present) if c else 1
    return sum(paths.values())


def choice_tuples(es: dict, confs: List[Config]) -> int:
    """Choice tuples over all events: for each event, the distinct sets
    picking one member from each of its minimal enablings (none when the
    empty set enables it).  Each is a start-graph node of the synthesised
    grammar, so they drive the size of its derivations."""
    gens: Dict[str, List[Config]] = {e: [] for e in es["events"]}
    for g in es["enabling"]:
        gens[g["event"]].append(frozenset(g["needs"]))
    total = 0
    for e in es["events"]:
        enabling = [c for c in confs if e not in c and any(g <= c for g in gens[e])]
        minimal = [c for c in enabling if not any(d < c for d in enabling)]
        if any(not c for c in minimal):
            continue
        total += len({frozenset(pick) for pick in product(*[sorted(c) for c in minimal])})
    return total


def config_id(c: Config) -> str:
    return "{" + ",".join(sorted(c)) + "}"


def domain_json(confs: List[Config]) -> dict:
    """The configurations ordered by inclusion, given by covers."""
    present = set(confs)
    covers = []
    for c in confs:
        for e in sorted(set().union(*confs) - c):
            if c | {e} in present:
                covers.append([config_id(c), config_id(c | {e})])
    return {"elements": [config_id(c) for c in confs], "covers": covers,
            "kind": "coherent"}


def hasse_async_json(confs: List[Config]) -> dict:
    """The Hasse diagram as an asynchronous graph, every square commuting."""
    dom = domain_json(confs)
    present = set(confs)
    events = sorted(set().union(*confs))
    squares = []
    for c in confs:
        for e, f in combinations([x for x in events if x not in c], 2):
            ce, cf, cef = c | {e}, c | {f}, c | {e, f}
            if ce in present and cf in present and cef in present:
                via_e = [f"{config_id(c)}>{config_id(ce)}", f"{config_id(ce)}>{config_id(cef)}"]
                via_f = [f"{config_id(c)}>{config_id(cf)}", f"{config_id(cf)}>{config_id(cef)}"]
                squares.append(sorted([via_e, via_f]))
    return {"nodes": dom["elements"],
            "edges": [{"id": f"{x}>{y}", "src": x, "tgt": y} for x, y in dom["covers"]],
            "origin": "{}", "squares": squares}


# ---------------------------------------------------------------------- #
# Known answers of the closed-form families
# ---------------------------------------------------------------------- #

def answers(family: str, n: int) -> dict:
    """Hand-written closed forms.

    ``elements``/``covers``: size of the configuration poset; ``irreducibles``,
    ``primes``, ``classes`` (interchangeability classes, one per event of the
    connected structure); ``stable``/``prime_algebraic``; ``events`` and
    ``conflicts`` of the input structure; ``synth_nodes``: start-graph nodes
    of the synthesised grammar (two per event, one per choice tuple, one per
    conflict pair; in ``C_n`` event i has i one-event choice tuples).
    """
    if family == "B":
        return dict(elements=2 ** n, covers=n * 2 ** (n - 1), irreducibles=n,
                    primes=n, classes=n, stable=True, prime_algebraic=True,
                    events=n, conflicts=0, synth_nodes=2 * n)
    if family == "X":
        return dict(elements=3 ** n, covers=2 * n * 3 ** (n - 1), irreducibles=2 * n,
                    primes=2 * n, classes=2 * n, stable=True, prime_algebraic=True,
                    events=2 * n, conflicts=n, synth_nodes=5 * n)
    if family == "L":
        return dict(elements=7 ** n, covers=9 * n * 7 ** (n - 1), irreducibles=4 * n,
                    primes=2 * n, classes=3 * n, stable=False, prime_algebraic=False,
                    events=3 * n, conflicts=0, synth_nodes=7 * n)
    if family == "C":
        return dict(elements=n + 1, covers=n, irreducibles=n, primes=n, classes=n,
                    stable=True, prime_algebraic=True, events=n, conflicts=0,
                    synth_nodes=2 * n + n * (n - 1) // 2)
    raise ValueError(f"unknown family {family!r}")


FAMILIES = {"B": boolean_es, "X": choices_es, "L": runs_es, "C": chain_es}
