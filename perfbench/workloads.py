"""The three batch workloads: their input files and their jobs.

A job is one CLI call (a verb on one structure file) with its expected exit
code and the known answers its report must carry.  ``build`` returns the
files a pass writes before its first job and the jobs in the order they run;
both depend only on the workload and the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import families as fam

# Fixture files copied into every pass, with answers taken from the
# hand-written values in the repository's acceptance and CLI tests.
FIXTURES = ("run.domain.json", "chain2.domain.json", "m3.domain.json",
            "pair_no_join.domain.json", "e_run.es.json", "e_prime_conflict.es.json",
            "run.async.json", "fusion.grammar.json")


@dataclass
class Job:
    verb: str
    argv: List[str]
    family: str
    size: int
    code: int = 0
    expect: Dict[str, Any] = field(default_factory=dict)
    dot_edges: Optional[int] = None  # "->" lines expected in the written DOT file

    def check(self, code: int, out: str, err: str) -> Optional[str]:
        """The first mismatch with the known answers, or None."""
        if code != self.code:
            return f"exit {code}, expected {self.code}: {err.strip()[:200]}"
        if code == 2:
            if out or "error" not in json.loads(err):
                return "exit 2 without a JSON error on stderr only"
            return None
        report = json.loads(out)
        if report.get("verb") != self.verb:
            return f"report verb {report.get('verb')!r}"
        for path, want in self.expect.items():
            got = _lookup(report, path)
            if got != want:
                return f"{path} = {got!r}, expected {want!r}"
        if self.dot_edges is not None:
            with open(report["results"]["written"], encoding="utf-8") as fh:
                text = fh.read()
            if text.count(" -> ") != self.dot_edges:
                return f"DOT file has {text.count(' -> ')} edges, expected {self.dot_edges}"
        return None


def _lookup(report: dict, path: str):
    """``results.x.y`` reads a value; a leading ``#`` takes its length."""
    value: Any = report
    for key in path.lstrip("#").split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return len(value) if path.startswith("#") and value is not None else value


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #

class Inputs:
    """The files of one pass, and the known answers of each structure."""

    def __init__(self):
        self.files: Dict[str, Any] = {}

    def es(self, family: str, n: int) -> Tuple[str, dict]:
        obj = fam.FAMILIES[family](n)
        name = f"{family}{n}.es.json"
        self.files[name] = obj
        return name, fam.answers(family, n)

    def domain(self, family: str, n: int) -> Tuple[str, dict]:
        name = f"{family}{n}.domain.json"
        self.files[name] = fam.domain_json(fam.configurations(fam.FAMILIES[family](n)))
        return name, fam.answers(family, n)

    def hasse(self, family: str, n: int) -> Tuple[str, dict]:
        name = f"{family}{n}.async.json"
        self.files[name] = fam.hasse_async_json(fam.configurations(fam.FAMILIES[family](n)))
        return name, fam.answers(family, n)

    def random_es(self, rng: random.Random, core: int, leaves: int,
                  elements: Tuple[int, int], paths: Tuple[int, int],
                  tuples: Tuple[int, int]) -> Tuple[dict, dict, list]:
        """A random connected structure whose configurations, securing
        sequences and choice tuples each lie in the given windows, so that
        the draws of different seeds cost about the same."""
        while True:
            obj = fam.random_connected_es(rng, core, leaves)
            confs = fam.configurations(obj)
            if not elements[0] <= len(confs) <= elements[1]:
                continue
            n_tuples = fam.choice_tuples(obj, confs)
            if (paths[0] <= fam.path_count(confs) <= paths[1]
                    and tuples[0] <= n_tuples <= tuples[1]):
                break
        events, conflicts = len(obj["events"]), len(obj["conflict"])
        return obj, {"elements": len(confs), "covers": len(fam.domain_json(confs)["covers"]),
                      "events": events,
                      "synth_nodes": 2 * events + n_tuples + conflicts}, confs


def _domain_answers(a: dict) -> dict:
    return {"results.valid": True, "results.elements": a["elements"],
            "results.covers": a["covers"], "#results.irreducibles": a["irreducibles"],
            "#results.primes": a["primes"], "#results.weak_primes": a["irreducibles"],
            "#results.interchange_classes": a["classes"],
            "results.prime_algebraic": a["prime_algebraic"],
            "results.weak_prime_algebraic": True}


def _axiom_answers(a: dict) -> dict:
    # (C), (R), (V) and (I) hold on every weak prime domain; interval classes
    # correspond one to one to interchangeability classes.
    return {"results.F": True, "results.C": True, "results.R": True,
            "results.V": True, "results.I": True, "results.intervals": a["covers"],
            "results.interval_classes": a["classes"],
            "results.weak_prime_algebraic": True}


# ---------------------------------------------------------------------- #
# domain-verdicts
# ---------------------------------------------------------------------- #

def domain_verdicts(rng: random.Random) -> Tuple[Inputs, List[Job]]:
    """Domain files through check, axioms, roundtrip and convert: intervals
    and domains do most of their work here, rewrite, graphs and asyncgraphs
    none."""
    inp = Inputs()
    jobs: List[Job] = []
    for family, n in (("B", 3), ("B", 6), ("X", 4), ("L", 2), ("C", 8)):
        path, a = inp.domain(family, n)
        jobs.append(Job("check", ["check", "--domain", path], family, n,
                        expect=_domain_answers(a)))
    for family, n in (("B", 4), ("X", 2), ("L", 1), ("C", 12)):
        path, a = inp.domain(family, n)
        jobs.append(Job("axioms", ["axioms", "--domain", path], family, n,
                        expect=_axiom_answers(a)))
    for family, n in (("B", 4), ("X", 2), ("L", 1), ("C", 8)):
        path, a = inp.domain(family, n)
        jobs.append(Job("roundtrip", ["roundtrip", "--domain", path], family, n, expect={
            "results.dom_of_ev_isomorphic": True,
            "results.interval_construction_agrees": True,
            "results.zeta_classes": a["classes"]}))
    for family, n, to in (("B", 6, "es"), ("X", 3, "es"), ("L", 2, "epes"),
                          ("B", 4, "es-intervals"), ("L", 1, "es-intervals")):
        path, a = inp.domain(family, n)
        events = a["irreducibles"] if to == "epes" else a["classes"]
        expect = {"#results.structure.events": events}
        if to == "epes":
            # classes here hold one or two irreducibles; each pair is a block
            expect["#results.structure.equiv"] = a["irreducibles"] - a["classes"]
        else:
            expect["#results.structure.conflict"] = a["conflicts"]
        jobs.append(Job("convert", ["convert", "--domain", path, "--to", to,
                                    "--out", f"{family}{n}.{to}.json"],
                        family, n, expect=expect))
    # Random draws: the benchmark's own enumerator fixes elements and covers;
    # weavent's axioms and round trip must hold on every weak prime domain.
    for k in range(2):
        _, a, confs = inp.random_es(rng, core=3, leaves=1, elements=(8, 10),
                                    paths=(14, 26), tuples=(0, 4))
        dpath = f"R{k}.domain.json"
        inp.files[dpath] = fam.domain_json(confs)
        jobs.append(Job("check", ["check", "--domain", dpath], "R", a["events"], expect={
            "results.valid": True, "results.elements": a["elements"],
            "results.covers": a["covers"], "results.weak_prime_algebraic": True}))
        jobs.append(Job("axioms", ["axioms", "--domain", dpath], "R", a["events"], expect={
            "results.intervals": a["covers"], "results.weak_prime_algebraic": True,
            "results.C": True, "results.R": True, "results.V": True, "results.I": True}))
        jobs.append(Job("roundtrip", ["roundtrip", "--domain", dpath], "R", a["events"],
                        expect={"results.dom_of_ev_isomorphic": True,
                                "results.interval_construction_agrees": True}))
    # Fixtures (answers from the acceptance and CLI tests).
    jobs.append(Job("check", ["check", "--domain", "run.domain.json"], "run", 3, expect={
        "results.elements": 7, "#results.irreducibles": 4, "#results.primes": 2,
        "#results.weak_primes": 4, "#results.interchange_classes": 3}))
    jobs.append(Job("check", ["check", "--domain", "chain2.domain.json"], "C", 2,
                    expect=_domain_answers(fam.answers("C", 2))))
    jobs.append(Job("axioms", ["axioms", "--domain", "m3.domain.json"], "m3", 3, expect={
        "results.R": False, "results.weak_prime_algebraic": False}))
    jobs.append(Job("check", ["check", "--domain", "pair_no_join.domain.json"],
                    "pair_no_join", 2, code=1, expect={"results.valid": False}))
    inp.files["bad_key.domain.json"] = {"elements": ["a"], "covers": [], "order": []}
    jobs.append(Job("check", ["check", "--domain", "bad_key.domain.json"],
                    "bad_key", 1, code=2))
    return inp, jobs


# ---------------------------------------------------------------------- #
# trace-derive
# ---------------------------------------------------------------------- #

def _synth_derive(path: str, stem: str, family: str, n: int, a: dict) -> List[Job]:
    grammar = f"{stem}.grammar.json"
    synth_expect = {"#results.rules": a["events"], "results.exhaustive_depth": a["events"]}
    if "synth_nodes" in a:
        synth_expect["results.start_nodes"] = a["synth_nodes"]
    derive_expect = {"results.trace_classes": a["elements"], "results.weak_prime": True,
                     "results.depth": a["events"]}
    if "prime_algebraic" in a:
        derive_expect["results.prime"] = a["prime_algebraic"]
    return [Job("synth", ["synth", "--es", path, "--out", grammar], family, n,
                expect=synth_expect),
            Job("derive", ["derive", "--grammar", grammar], family, n,
                expect=derive_expect)]


def trace_derive(rng: random.Random) -> Tuple[Inputs, List[Job]]:
    """synth, then derive on the grammar it wrote: rewrite and graphs do most
    of their work here, domains only judges small trace posets and intervals
    does nothing."""
    inp = Inputs()
    jobs: List[Job] = []
    for family, n in (("B", 4), ("B", 5), ("X", 3), ("X", 4), ("L", 1), ("L", 2),
                      ("C", 4), ("C", 5)):
        path, a = inp.es(family, n)
        jobs += _synth_derive(path, f"{family}{n}", family, n, a)
    # Random draws: check --es configurations, the benchmark's enumerator and
    # derive's trace classes must agree.
    for k in range(3):
        obj, a, _ = inp.random_es(rng, core=4, leaves=1, elements=(14, 20),
                                  paths=(50, 80), tuples=(3, 4))
        path = f"R{k}.es.json"
        inp.files[path] = obj
        jobs.append(Job("check", ["check", "--es", path], "R", a["events"], expect={
            "results.live": True, "results.connected": True,
            "results.configurations": a["elements"]}))
        jobs += _synth_derive(path, f"R{k}", "R", a["events"], a)
    for depth in (3, 4, 5):
        for safe in (False, True):
            # p_a, p_b and p_c each delete a loop present once in the start
            # graph, so no derivation is longer than 3 and depths 4, 5 add
            # nothing: 7 classes, 5 in fusion-safe mode.
            argv = ["derive", "--grammar", "fusion.grammar.json", "--depth", str(depth)]
            expect = {"results.trace_classes": 5 if safe else 7, "results.weak_prime": True}
            if safe:
                argv.append("--fusion-safe")
                expect["results.prime"] = True
            jobs.append(Job("derive", argv, "fusion", depth, expect=expect))
    jobs.append(Job("derive", ["derive", "--grammar", "fusion.grammar.json"],
                    "fusion", 0, code=2))
    return inp, jobs


# ---------------------------------------------------------------------- #
# es-session
# ---------------------------------------------------------------------- #

def _es_verbs(path: str, stem: str, family: str, n: int, a: dict,
              full: bool = True) -> List[Job]:
    """check, convert, connect, synth, emit, roundtrip on one file, in order.

    ``full=False`` leaves out connect and roundtrip: their domain validation
    takes minutes today on the large files (thousands of configurations)."""
    closed = "stable" in a
    check = {"results.live": True, "results.connected": True,
             "results.configurations": a["elements"]}
    if closed:
        check["results.stable"] = a["stable"]
        # a live structure is prime exactly when its domain is prime algebraic
        check["results.prime"] = a["prime_algebraic"]
    jobs = [Job("check", ["check", "--es", path], family, n, expect=check),
            Job("convert", ["convert", "--es", path, "--to", "domain",
                            "--out", f"{stem}.domain.json"], family, n, expect={
                "#results.structure.elements": a["elements"],
                "#results.structure.covers": a["covers"]})]
    epes = {"#results.structure.events": a["irreducibles"]} if closed else {}
    jobs.append(Job("convert", ["convert", "--es", path, "--to", "epes"], family, n,
                    expect=epes))
    if full:
        connect = {"results.connected": True}
        if closed:
            connect["results.events"] = a["classes"]
        jobs.append(Job("connect", ["connect", "--es", path], family, n, expect=connect))
    synth = {"#results.rules": a["events"], "results.start_nodes": a["synth_nodes"]}
    jobs.append(Job("synth", ["synth", "--es", path], family, n, expect=synth))
    jobs.append(Job("emit", ["emit", "--es", path, "--out", f"{stem}.dot"], family, n,
                    dot_edges=a["covers"]))
    if full:
        jobs.append(Job("roundtrip", ["roundtrip", "--es", path], family, n, expect={
            "results.dom_preserved": True, "results.connected_fixed_point": True}))
    return jobs


def es_session(rng: random.Random) -> Tuple[Inputs, List[Job]]:
    """Each event-structure file through every verb taking --es, reusing the
    file so es's caches are in play, plus async on Hasse graphs: es, duality,
    asyncgraphs, io and dot do most of their work here."""
    inp = Inputs()
    jobs: List[Job] = []
    for family, n in (("B", 6), ("X", 4), ("L", 2), ("C", 8)):
        path, a = inp.es(family, n)
        jobs += _es_verbs(path, f"{family}{n}", family, n, a)
    for family, n in (("B", 10), ("L", 4)):
        path, a = inp.es(family, n)
        jobs += _es_verbs(path, f"{family}{n}", family, n, a, full=False)
    for k in range(3):
        obj, a, confs = inp.random_es(rng, core=4, leaves=2, elements=(18, 24),
                                      paths=(80, 120), tuples=(4, 6))
        path = f"R{k}.es.json"
        inp.files[path] = obj
        jobs += _es_verbs(path, f"R{k}", "R", a["events"], a)
        apath = f"R{k}.async.json"
        inp.files[apath] = fam.hasse_async_json(confs)
        jobs.append(Job("async", ["async", "--async", apath, "--weak"], "R", a["events"],
                        expect={"results.weak_valid": True,
                                "results.path_classes": a["elements"]}))
    # Hasse graphs: prime domains pass the full axioms; L_k fails the
    # downward cube (it is unstable) and passes the weak ones.
    for family, n in (("B", 6), ("X", 3), ("L", 2), ("C", 8)):
        path, a = inp.hasse(family, n)
        for weak in (False, True):
            argv = ["async", "--async", path] + (["--weak"] if weak else [])
            code = 0 if weak or a["stable"] else 1
            jobs.append(Job("async", argv, family, n, code=code, expect={
                "results.weak_valid": True, "results.full_valid": a["stable"],
                "results.prime": a["prime_algebraic"],
                "results.path_classes": a["elements"]}))
    jobs.append(Job("async", ["async", "--async", "run.async.json"], "run", 3, code=1))
    jobs.append(Job("roundtrip", ["roundtrip", "--es", "e_run.es.json"], "run", 3,
                    expect={"results.dom_preserved": True}))
    jobs.append(Job("connect", ["connect", "--es", "e_prime_conflict.es.json"],
                    "prime_conflict", 3, expect={"results.events": 4}))
    # Exit 1: a structure with a dead event fails check; exit 2: the same
    # structure given to roundtrip, and an unknown key.
    inp.files["dead.es.json"] = fam.es_json(["a", "b"], [((), "a"), (("a",), "b")],
                                            [("a", "b")])
    jobs.append(Job("check", ["check", "--es", "dead.es.json"], "dead", 2, code=1,
                    expect={"results.live": False}))
    jobs.append(Job("roundtrip", ["roundtrip", "--es", "dead.es.json"], "dead", 2, code=2))
    inp.files["bad_key.es.json"] = {"events": ["a"], "enabling": [], "extra": 1}
    jobs.append(Job("check", ["check", "--es", "bad_key.es.json"], "bad_key", 1, code=2))
    return inp, jobs


WORKLOADS = {"domain-verdicts": domain_verdicts, "trace-derive": trace_derive,
             "es-session": es_session}


def build(workload: str, seed: int) -> Tuple[Inputs, List[Job]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
