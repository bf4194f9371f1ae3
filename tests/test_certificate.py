"""The duality certificate: a domain D is decided valid and weak prime
when φ(d), the events of the irreducibles below d, is an order isomorphism
of D onto the configurations of its candidate ev(D) (``domains._certify``).

The pair pass and the exhaustive oracles are the references: where the
certificate holds they agree with it, and where the pair pass rejects a
domain the certificate fails, so the pair pass decides, with its verdicts,
witnesses and messages.
"""

import hashlib
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from weavent import cli, domains, duality, es as esmod, intervals, io as iomod, oracles
from weavent._common import Report
from weavent.es import EventStructure
from weavent.domains import (BOUNDED_COMPLETE, COHERENT, FiniteDomain, OrderError,
                             algebraicity, primes, validate_domain, weak_primes)
from weavent.duality import _counit_holds, _es_matches, dom_of_es, ev_of_domain
from weavent.es import classify
from weavent.intervals import ev_wd
from weavent.fixtures import e_run, nontransitive_bdomain
from weavent.oracles import (es_isomorphic, poset_isomorphic, primes_by_definition,
                             validate_domain_by_definition, weak_primes_by_definition)
from tests._gen import (INVALID_EPES, comparison_domains, random_connected_es,
                        random_consistency_es, random_live_es, random_poset)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _accepted_by_the_pair_pass(dom):
    if dom.bottom() is None:
        return False
    verdict, _, weak = domains._pair_pass(dom)
    return verdict.ok and weak == domains._irreducible_mask(dom)


def _draws():
    rng = random.Random(17)
    doms = [random_poset(rng, rng.randint(1, 9), bottom=rng.random() < 0.85,
                         kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
            for _ in range(1500)]
    return doms + [dom for dom in comparison_domains(random.Random(18), 30)
                   if len(dom.elements) <= 100]


def test_the_certificate_holds_only_where_the_pair_pass_accepts():
    """And, on these draws, wherever it accepts, but for the bounded
    complete ``nontransitive_bdomain``: the pair pass finds it weak prime,
    yet its 15 elements are not the 13 configurations of its ev."""
    held = {COHERENT: 0, BOUNDED_COMPLETE: 0}
    failed, missed = 0, []
    for dom in _draws():
        # a domain of dom_of_es records the certificate; test it afresh
        fresh = FiniteDomain(dom.elements, dom.covers(), dom.kind)
        ok = fresh.bottom() is not None and domains._certify(fresh, domains._candidate(fresh))
        assert domains._certified(fresh) == ok
        if not ok:
            failed += 1
            if _accepted_by_the_pair_pass(fresh):
                missed.append(fresh)
            continue
        assert _accepted_by_the_pair_pass(fresh), (dom.elements, dom.covers(), dom.kind)
        held[dom.kind] += 1
        irr = domains._irreducible_mask(fresh)
        assert domains._pair_pass(fresh) == (Report(True), domains._class_primes(fresh), irr)
        assert validate_domain(fresh) == Report(True)
        alg = algebraicity(fresh)
        assert alg.irreducible_algebraic and alg.weak_prime_algebraic
        assert alg.prime_algebraic == (domains._class_primes(fresh) == irr)
        if len(dom.elements) <= 10:
            assert validate_domain_by_definition(fresh).ok
            assert primes(fresh) == primes_by_definition(fresh)
            assert weak_primes(fresh) == weak_primes_by_definition(fresh)
    assert min(held.values()) > 100 and failed > 300
    bdomain = nontransitive_bdomain()
    assert [(d.elements, d.covers(), d.kind) for d in missed] == 2 * [
        (bdomain.elements, bdomain.covers(), BOUNDED_COMPLETE)]  # the fixture and its file


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, hashlib.sha256(out.encode()).hexdigest(), err


_MISSING_JOIN = '{\n  "error": "not a valid domain: missing-join (\'x\', \'y\')"\n}\n'
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# Exit code, sha256 of stdout, and stderr, as printed before the
# certificate existed.  It fails on every fixture here.  The bounded
# complete one is weak prime, so the pair pass proves it so, and its ev is
# built as before; the interval axioms fail on it.
FALLBACK = [
    ("check pair_no_join.domain.json", 1,
     "2d7869a77cbbfe63eb75dd6231c20746e2ae8145b1f70c760e692dd5688390f8", ""),
    ("axioms pair_no_join.domain.json", 2, _EMPTY, _MISSING_JOIN),
    ("roundtrip pair_no_join.domain.json", 2, _EMPTY, _MISSING_JOIN),
    ("convert pair_no_join.domain.json --to es", 2, _EMPTY, _MISSING_JOIN),
    ("convert pair_no_join.domain.json --to epes", 2, _EMPTY, _MISSING_JOIN),
    ("check m3.domain.json", 0,
     "a84fe8d7a21b7d8c58126aebce2ad92f582fc81d1b2647fa8d6ab69bebf485f8", ""),
    ("axioms m3.domain.json", 0,
     "e0c57f2581fccd5edbb2f6c65af88d57d6baa1febd7368c0a40ae01ceb453fc5", ""),
    ("roundtrip m3.domain.json", 2, _EMPTY,
     '{\n  "error": "not weak prime algebraic: irreducible \'x\' is not a weak prime"\n}\n'),
    ("convert m3.domain.json --to es", 2, _EMPTY,
     '{\n  "error": "not weak prime algebraic: irreducible \'x\' is not a weak prime"\n}\n'),
    ("convert m3.domain.json --to epes", 2, _EMPTY,
     '{\n  "error": "not weak prime algebraic: irreducible \'x\' is not a weak prime"\n}\n'),
    ("check nontransitive.domain.json", 0,
     "152b1b0c3f6ee30c8cf978ba6b012fea9533f65791f55522bcd42238986f3e73", ""),
    ("axioms nontransitive.domain.json", 0,
     "95bc2cb846c5676638208af9b1d1b4baebd082197471053a8875ef051c9676ee", ""),
    ("convert nontransitive.domain.json --to es", 2, _EMPTY,
     '{\n  "error": "not weak prime algebraic: irreducible \'i1\' is not a weak prime"\n}\n'),
    ("convert nontransitive.domain.json --to es-intervals", 2, _EMPTY,
     '{\n  "error": "axiom C fails: (\'bot\', \'q1\', \'q3\')"\n}\n'),
    ("check nontransitive.bdomain.json", 0,
     "13ea3d38ce7955aff83d592253637b575079c5e76e5ecbae84d64e7ab689f416", ""),
    ("axioms nontransitive.bdomain.json", 0,
     "7336471072afb626416fa2a6f643a3f565df394beaa0c21124bd306b17901a3b", ""),
    ("roundtrip nontransitive.bdomain.json", 2, _EMPTY,
     '{\n  "error": "axiom R fails: (\'p13\', \'A\', \'B\')"\n}\n'),
    ("convert nontransitive.bdomain.json --to es", 0,
     "1028f780336d39c06d2417165bece2f27a84e8d65e0d120fb1f802769a142a12", ""),
    ("convert nontransitive.bdomain.json --to epes", 0,
     "90d7e5dca640fcd1675fafda1b1fbab51923e4d0fd01ae224558415d17ddb2c9", ""),
]


@pytest.mark.parametrize("call,code,out,err", FALLBACK, ids=[c[0] for c in FALLBACK])
def test_where_the_certificate_fails_the_pair_pass_prints_what_it_did(
        call, code, out, err, monkeypatch, capsys):
    verb, name, *rest = call.split()
    monkeypatch.chdir(FIXTURES)
    cli._SESSION.clear()
    dom = cli._load(name, "domain")
    assert not domains._certified(dom)
    assert _run([verb, "--domain", name, *rest], capsys) == (code, out, err)


def _write(tmp_path, monkeypatch, name, elements, covers, kind=COHERENT):
    """The domain file ``name`` in ``tmp_path``, the working directory, so
    that the report names the input as the pinned runs did."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps({"elements": elements, "covers": covers,
                                             "kind": kind}))
    return name


def _counting_walks(monkeypatch):
    """Record the configurations each walk of the table visits: all of a
    finished one, ``limit + 1`` for one that gives up."""
    visited = []

    def walk(es, limit=None, _real=esmod._find_table):
        table = _real(es, limit)
        visited.append(len(table.lower) if table is not None else limit + 1)
        return table
    monkeypatch.setattr(esmod, "_find_table", walk)
    return visited


def test_the_fan_is_rejected_before_any_walk(tmp_path, monkeypatch, capsys):
    """⊥, 16 atoms and a top: valid, not weak prime, and its candidate has
    2¹⁶ configurations.  The top's covers add 15 events each under φ, so
    the certificate gives up without walking, and ``check`` prints what it
    printed before the certificate existed."""
    atoms = [f"a{i:02d}" for i in range(16)]
    path = _write(tmp_path, monkeypatch, "fan.domain.json", ["bot", *atoms, "top"],
                  [["bot", a] for a in atoms] + [[a, "top"] for a in atoms])
    visited = _counting_walks(monkeypatch)
    assert _run(["check", "--domain", path], capsys) == (
        0, "487927c4a437e8603f92af54c00af84fd292c871c2688d0648388ee637c31009", "")
    assert visited == []
    dom = cli._SESSION["domain"][1]
    candidate = domains._candidate(dom)
    assert not domains._certified(dom) and esmod._table not in candidate._derived
    # the walk itself gives up at the configuration past its limit.  The
    # candidate has no conflict, so the walk reads one conflict row for each
    # configuration it reaches past the empty one: it reaches |D| + 1
    lookups = []

    class Rows(tuple):
        def __getitem__(self, k):
            lookups.append(k)
            return tuple.__getitem__(self, k)
    object.__setattr__(candidate, "_clash", Rows(candidate._clash))
    assert esmod._table_within(candidate, len(dom.elements)) is None
    assert 1 + len(lookups) == len(dom.elements) + 1 == 19
    assert visited == [19] and esmod._table not in candidate._derived
    # and the limit is exact: the candidate has 2¹⁶ configurations
    assert esmod._find_table(candidate, 2 ** 16 - 1) is None
    assert len(esmod._find_table(candidate, 2 ** 16).lower) == 2 ** 16


def test_a_walk_past_the_domain_gives_up_and_is_not_kept(tmp_path, monkeypatch, capsys):
    """Three atoms with pairwise joins and no top: under φ every cover adds
    one event and φ is injective, but the candidate has the configuration
    of all three events too.  The walk gives up at the eighth
    configuration; as a bounded-complete domain the same poset is
    certified, with a consistency predicate that leaves the triple out."""
    elements = ["bot", "a", "b", "c", "ab", "ac", "bc"]
    covers = [["bot", "a"], ["bot", "b"], ["bot", "c"], ["a", "ab"], ["b", "ab"],
              ["a", "ac"], ["c", "ac"], ["b", "bc"], ["c", "bc"]]
    visited = _counting_walks(monkeypatch)
    path = _write(tmp_path, monkeypatch, "tri.domain.json", elements, covers)
    assert _run(["check", "--domain", path], capsys) == (
        1, "abe8ffa3592a6b50a601c5fc42b760db016fed512e30b32e9173947b4cf83a25", "")
    dom = cli._SESSION["domain"][1]
    assert visited == [8] and esmod._table not in domains._candidate(dom)._derived
    assert validate_domain(dom) == Report(False, "join-breaks-consistency", ("a", "b", "c"))
    visited.clear()
    path = _write(tmp_path, monkeypatch, "tri.domain.json", elements, covers, BOUNDED_COMPLETE)
    assert _run(["check", "--domain", path], capsys) == (
        0, "800f29a2825766c68fb9e0a811727932049ad92149b86a2531d93c090291db1c", "")
    dom = cli._SESSION["domain"][1]
    assert visited == [7] and domains._certified(dom)
    # the structure named for ev(D) keeps the table the certificate walked
    assert (ev_of_domain(dom)._derived[esmod._table]
            is domains._candidate(dom)._derived[esmod._table])
    assert visited == [7]


def _chain_and_double_join():
    """A chain ⊥ < a < b, and atoms x, y, z with two joins s, t of x and y."""
    chain = FiniteDomain(["bot", "a", "b"], [("bot", "a"), ("a", "b")])
    joins = FiniteDomain(["bot", "x", "y", "z", "s", "t"],
                         [("bot", "x"), ("bot", "y"), ("bot", "z"), ("x", "s"), ("y", "s"),
                          ("x", "t"), ("y", "t")])
    return chain, joins


def test_each_test_of_the_certificate_is_needed():
    """Against structures other than the candidate, with its event names:
    every cover adds one event and the counts agree, but φ misses a
    configuration, or two elements share one."""
    chain, joins = _chain_and_double_join()
    # A and B both enabled at once and in conflict: three configurations,
    # two covers, but φ(b) = {A, B} is none of them
    es = EventStructure.binary(["class0:a", "class1:b"], [("class0:a", "class1:b")],
                               [((), "class0:a"), ((), "class1:b")])
    assert len(esmod._table(es).lower) == 3 and not domains._certify(chain, es)
    assert domains._certify(chain, domains._candidate(chain))
    # X, Y, Z with Y # Z: six configurations and seven covers, as the
    # domain has, but φ(s) = φ(t) = {X, Y} and {X, Z} is no φ(d)
    es = EventStructure.binary(["class0:x", "class1:y", "class2:z"], [("class1:y", "class2:z")],
                               [((), "class0:x"), ((), "class1:y"), ((), "class2:z")])
    table = esmod._table(es)
    assert (len(table.lower), sum(map(int.bit_count, table.lower.values()))) == (6, 7)
    assert (len(joins.elements), len(joins.covers())) == (6, 7)
    assert not domains._certify(joins, es) and not domains._certified(joins)
    assert not domains._certify(joins, domains._candidate(joins))


def test_the_counit_is_tested_before_it_is_trusted():
    es = e_run()
    connected = ev_of_domain(dom_of_es(es))
    assert _counit_holds(es, connected)
    # the same events, all enabled at once: the counit is a bijection onto
    # the events of e_run, and no isomorphism
    free = EventStructure.binary(connected.events, (), [((), e) for e in connected.events])
    assert not _counit_holds(es, free)


def test_the_unit_and_the_counit_hold_where_the_searches_find_isomorphisms():
    """``roundtrip --es`` reports the unit map φ (``_certify``) and the
    counit map (``_counit_holds``) without searching: on live structures
    of both kinds each holds, as the searches find, and ``dom_of_es`` is
    right to record the certificate, which a fresh copy proves again."""
    rng = random.Random(23)
    draws = ([random_live_es(rng, max_events=6, conflict_p=0.3) for _ in range(60)]
             + [random_consistency_es(rng, max_events=6, live=True) for _ in range(60)]
             + [random_connected_es(rng, max_events=5) for _ in range(60)])
    connected = 0
    for es in draws:
        dom = dom_of_es(es)
        ev = ev_of_domain(dom)
        assert domains._certify(dom, ev) and poset_isomorphic(dom_of_es(ev), dom) is not None
        assert domains._certified(FiniteDomain(dom.elements, dom.covers(), dom.kind))
        if classify(es).connected:
            assert _counit_holds(es, ev) and es_isomorphic(ev, es) is not None
            connected += 1
    assert connected > 100


def _lines_run(f):
    """The lines of ``domains`` and ``es`` that ``f()`` runs."""
    files, count = {domains.__file__, esmod.__file__}, 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename not in files:
            return None
        count += event == "line"
        return trace
    before = sys.gettrace()
    sys.settrace(trace)
    try:
        f()
    finally:
        sys.settrace(before)
    return count


@pytest.mark.parametrize("kind", [COHERENT, BOUNDED_COMPLETE])
@pytest.mark.parametrize("shape", ["chain", "flat"])
def test_the_certificate_runs_in_linear_steps_on_chains_and_flat_domains(shape, kind):
    """Where no pair of elements is both incomparable and consistent, the
    pair pass visits none; the certificate then visits each element, cover
    and event a bounded number of times, and no pair of events.  Doubling
    ``n`` about doubles the lines it runs, where a pass over pairs would
    about quadruple them."""
    def domain(n):
        if shape == "chain":
            names = [f"c{i:04d}" for i in range(n + 1)]
            return FiniteDomain(names, list(zip(names, names[1:])), kind)
        return FiniteDomain(["bot"] + [f"a{i:04d}" for i in range(n)],
                            [("bot", f"a{i:04d}") for i in range(n)], kind)
    lines = []
    for n in (150, 300):
        dom = domain(n)
        lines.append(_lines_run(lambda: domains._certified(dom)))
        assert domains._certified(dom)
    assert lines[1] < 2.5 * lines[0], lines


def _check_a_chain_both_ways(n, tmp_path, monkeypatch, capsys):
    """``check --domain`` on a chain file of ``n`` elements, once as it is and
    once with ``_certify`` made to fail: each run's printed result and its
    counts of certificates and pair passes."""
    names = [f"c{i:02d}" for i in range(n)]
    path = _write(tmp_path, monkeypatch, "chain.domain.json", names,
                  [list(p) for p in zip(names, names[1:])])
    certified, passes, runs = [], [], []
    monkeypatch.setattr(domains, "_pair_pass", lambda d, _real=domains._pair_pass:
                        passes.append(d) or _real(d))

    def counted(d, es, _real=domains._certify):
        certified.append(d)
        return _real(d, es)
    for certify in (counted, lambda d, es: False):
        monkeypatch.setattr(domains, "_certify", certify)
        certified.clear(), passes.clear(), cli._SESSION.clear()
        runs.append((_run(["check", "--domain", path], capsys), len(certified), len(passes)))
    return runs


def test_the_pair_pass_prints_what_the_certificate_prints(tmp_path, monkeypatch, capsys):
    """``check`` on a chain file runs the certificate and no pair pass; with
    ``_certify`` made to fail, the pair pass alone decides, with the same
    exit code and bytes."""
    (printed, *counts), (again, *fallback) = _check_a_chain_both_ways(
        12, tmp_path, monkeypatch, capsys)
    assert printed == again and printed[0] == 0
    assert (counts, fallback) == ([1, 0], [0, 1])


@pytest.mark.parametrize("n", [31, 32])
def test_the_pair_pass_decides_below_the_size_the_certificate_is_tried_from(
        n, tmp_path, monkeypatch, capsys):
    """The certificate is tried from the smallest size on, so no size
    decides which path runs: on chains of 31 and 32 elements, either side
    of the 32 from which it was once tried, ``check`` runs one certificate
    and no pair pass, and the pair pass decides only where ``_certify``
    fails, printing the same bytes."""
    runs = _check_a_chain_both_ways(n, tmp_path, monkeypatch, capsys)
    assert [counts for _, *counts in runs] == [[1, 0], [0, 1]]
    assert runs[0][0] == runs[1][0] and runs[0][0][0] == 0


def _oracle_draws():
    rng = random.Random(31)
    doms = comparison_domains(random.Random(3), 40) + comparison_domains(random.Random(11), 40)
    return doms + [random_poset(rng, rng.randint(1, 11), bottom=rng.random() < 0.85,
                                kind=rng.choice((COHERENT, BOUNDED_COMPLETE)))
                   for _ in range(1500)]


def test_the_unit_and_zeta_hold_where_the_searches_find_isomorphisms():
    """``roundtrip --domain`` reports the unit φ (``_certified``) and ζ read
    as a map of events (``intervals._zeta_events``) in place of the two
    searches.  Wherever ``ev_of_domain`` builds, the unit holds exactly
    where ``poset_isomorphic`` finds ``dom(ev(D)) ≅ D``, and wherever
    ``ev_wd`` builds too, the ζ map is an isomorphism exactly where
    ``es_isomorphic`` finds one.  The unit fails only on the copies of
    ``nontransitive_bdomain``, where ``ev_wd`` fails axiom R."""
    built = wd = 0
    failed = []
    for dom in _oracle_draws():
        fresh = FiniteDomain(dom.elements, dom.covers(), dom.kind)
        try:
            ev = ev_of_domain(fresh)
        except OrderError:
            continue
        built += 1
        unit = domains._certified(fresh)
        assert unit == (poset_isomorphic(dom_of_es(ev), fresh) is not None), fresh.elements
        if not unit:
            failed.append(fresh)
        try:
            interval_es = ev_wd(fresh)
        except OrderError as exc:
            assert unit or str(exc) == "axiom R fails: ('p13', 'A', 'B')"
            continue
        wd += 1
        assert _es_matches(interval_es, ev, intervals._zeta_events(fresh)) == (
            es_isomorphic(interval_es, ev) is not None), fresh.elements
    assert built > 1500 and wd > 1500
    bdomain = nontransitive_bdomain()
    assert [(d.elements, d.covers(), d.kind) for d in failed] == 4 * [
        (bdomain.elements, bdomain.covers(), BOUNDED_COMPLETE)]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*domain.json")))
def test_roundtrip_on_a_domain_searches_for_no_isomorphism(name, monkeypatch, capsys):
    """With both searches made to raise, ``roundtrip --domain`` prints what
    it prints with them."""
    monkeypatch.chdir(FIXTURES)
    cli._SESSION.clear()
    expected = _run(["roundtrip", "--domain", name], capsys)

    def search(*args):
        raise AssertionError("an isomorphism was searched for")
    for module in (cli, duality):
        for found in ("poset_isomorphic", "es_isomorphic"):
            monkeypatch.setattr(module, found, search, raising=False)
    cli._SESSION.clear()
    assert _run(["roundtrip", "--domain", name], capsys) == expected


_SEARCHES = ("_es_signature", "_bijections", "_es_isomorphisms", "es_isomorphic",
             "poset_isomorphic", "epes_isomorphic")
# the structure and domain fixtures, each with the option that reads it
_CONVERTED = [("--es" if p.name.endswith(".es.json") else "--domain", p.name)
              for p in sorted(FIXTURES.glob("*.json"))
              if p.name.endswith((".es.json", "domain.json"))]
# what ``roundtrip --epes`` runs on: the fixture, the ``convert --to epes``
# output of each of ``_CONVERTED`` that has one, and EPES files that break
# one axiom each
_EPES_INPUTS = (["unfold_run.epes.json"] + sorted(INVALID_EPES)
                + [name + ".epes.json" for _, name in _CONVERTED])


def _epes_inputs(capsys):
    """Write the inputs of ``_EPES_INPUTS`` into the working directory;
    a fixture ``convert --to epes`` refuses writes none."""
    shutil.copy(FIXTURES / "unfold_run.epes.json", ".")
    for name, obj in INVALID_EPES.items():
        iomod.dump_json(obj, name)
    for option, name in _CONVERTED:
        cli.main(["convert", option, str(FIXTURES / name), "--to", "epes",
                  "--out", name + ".epes.json"])
    capsys.readouterr()


def test_roundtrip_on_an_epes_searches_for_no_isomorphism(tmp_path, monkeypatch, capsys):
    """With the six search functions made to raise wherever they could be
    found, ``roundtrip --epes`` prints what it prints with them."""
    monkeypatch.chdir(tmp_path)
    cli._SESSION.clear()
    _epes_inputs(capsys)
    names = [name for name in _EPES_INPUTS if Path(name).exists()]
    assert len(names) == 19  # three domain fixtures are no weak prime domain
    expected = []
    for name in names:
        cli._SESSION.clear()
        expected.append(_run(["roundtrip", "--epes", name], capsys))
    assert sorted({code for code, _, _ in expected}) == [0, 1, 2]

    def search(*args):
        raise AssertionError("an isomorphism was searched for")
    for module in (oracles, duality, cli):
        for found in _SEARCHES:
            monkeypatch.setattr(module, found, search, raising=False)
    for name, want in zip(names, expected):
        cli._SESSION.clear()
        assert _run(["roundtrip", "--epes", name], capsys) == want, name
    cli._SESSION.clear()
