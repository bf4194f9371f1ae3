"""The batch session: ``cli.main`` calls in one process share one structure
per input kind, keyed by the file's bytes, with what was derived from it.

Each oracle test runs the same calls twice, in one session and with the
session emptied before every call, and asks for the same exit codes,
stdout, stderr and written bytes.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from weavent import cli, domains, duality, es as esmod, io as iomod
from weavent.graphs import GraphError
from weavent.rewrite import Grammar, grammar_from_es
from tests._gen import family_es, random_connected_es

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

FLAG = {"es": "--es", "domain": "--domain", "grammar": "--grammar",
        "asyncgraph": "--async", "epes": "--epes"}
OUT = "OUT"  # stands for the path of the call's written file
VERBS = {
    "es": [["check"], ["convert", "--to", "domain", "--out", OUT], ["convert", "--to", "epes"],
           ["connect", "--out", OUT], ["synth", "--out", OUT], ["emit", "--out", OUT],
           ["roundtrip"]],
    "domain": [["check"], ["axioms"], ["roundtrip"], ["convert", "--to", "es", "--out", OUT],
               ["convert", "--to", "epes"], ["convert", "--to", "es-intervals"],
               ["emit", "--out", OUT]],
    "grammar": [["check"], ["emit", "--out", OUT], ["derive", "--depth", "3", "--out", OUT]],
    "asyncgraph": [["check"], ["check", "--weak"], ["async", "--out", OUT],
                   ["async", "--weak"], ["emit", "--out", OUT]],
    "epes": [["check"], ["roundtrip"], ["convert", "--to", "es"],
             ["convert", "--to", "domain", "--out", OUT]],
}


def kind_of(path: Path) -> str:
    suffix = path.name.split(".")[-2]
    return {"bdomain": "domain", "async": "asyncgraph"}.get(suffix, suffix)


def call(argv, out: Path, capsys):
    """Exit code, stdout, stderr and the bytes written to ``out`` (None when
    nothing was) of ``cli.main(argv)``."""
    code = cli.main([str(out) if a == OUT else a for a in argv])
    stdout, stderr = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    if written is not None:
        out.unlink()
    return code, stdout, stderr, written


def in_session_and_fresh(calls, out: Path, capsys):
    """The results of ``calls`` in one session, and those with the session
    emptied before each call."""
    cli._SESSION.clear()
    warm = [call(argv, out, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        cli._SESSION.clear()
        fresh.append(call(argv, out, capsys))
    return warm, fresh


def every_valid_call(tmp_path: Path):
    inputs = sorted(FIXTURES.glob("*.json"))
    for family in "BXLC":
        for n in range(1, 5):
            path = tmp_path / f"{family}{n}.es.json"
            iomod.dump_json(iomod.es_to_json(family_es(family, n)), str(path))
            inputs.append(path)
    return [[verb[0], FLAG[kind_of(path)], str(path), *verb[1:]]
            for path in inputs for verb in VERBS[kind_of(path)]]


def test_a_session_answers_as_fresh_calls_do(tmp_path, capsys):
    calls = every_valid_call(tmp_path)
    assert len(calls) > 150
    warm, fresh = in_session_and_fresh(calls, tmp_path / "written", capsys)
    for argv, got, want in zip(calls, warm, fresh):
        assert got == want, argv
    assert {code for code, *_ in warm} == {0, 1, 2}


def test_a_file_rewritten_in_place_is_read_again(tmp_path, capsys):
    # same path, same size, same modification time: only the bytes differ
    path = tmp_path / "e.es.json"
    enabling = b'"enabling": [{"event": "a", "needs": []}, {"event": "b", "needs": []}]'
    one = b'{"events": ["a", "b"], "conflict": [["a", "b"]], ' + enabling + b"}"
    two = b'{"events": ["a", "b"], "conflict": [],           ' + enabling + b"}"
    assert len(one) == len(two)
    calls = [["check", "--es", str(path)], ["convert", "--es", str(path), "--to", "domain"]]
    answers = []
    for data in (one, two):
        path.write_bytes(data)
        os.utime(path, ns=(10**18, 10**18))
        answers.append(in_session_and_fresh(calls, tmp_path / "written", capsys))
    cli._SESSION.clear()
    for data in (one, two):  # now both in one session, the rewrite between verbs
        path.write_bytes(data)
        os.utime(path, ns=(10**18, 10**18))
        got = [call(argv, tmp_path / "written", capsys) for argv in calls]
        assert got == answers[data is two][1]
    (_, first), (_, second) = answers
    assert first != second
    assert '"configurations": 3' in first[0][1] and '"configurations": 4' in second[0][1]


def test_a_file_that_failed_to_parse_is_never_held(tmp_path, capsys):
    path = tmp_path / "e.es.json"
    good = (FIXTURES / "e_run.es.json").read_bytes()
    bad = good.replace(b'"events"', b'"evente"')
    calls = [["check", "--es", str(path)]] * 2
    for data in (good, bad, good, bad, bad):
        path.write_bytes(data)
        warm = [call(argv, tmp_path / "written", capsys) for argv in calls]
        cli._SESSION.clear()
        assert warm == [call(calls[0], tmp_path / "written", capsys)] * 2
        if data is bad:
            assert warm[0][0] == 2 and "es" not in cli._SESSION
        else:
            assert warm[0][0] == 0 and cli._SESSION["es"][0] == good


def test_the_session_holds_one_structure_per_kind(tmp_path, capsys):
    last = {}
    for argv in every_valid_call(tmp_path):
        *_, written = call(argv, tmp_path / "written", capsys)
        path = Path(argv[2])
        last[kind_of(path)] = path.read_bytes()
        if argv[0] == "synth" and written is not None:  # the grammar it wrote
            last["grammar"] = written
        assert set(cli._SESSION) <= set(last)
        assert {k: data for k, (data, _) in cli._SESSION.items()} == {
            k: data for k, data in last.items() if k in cli._SESSION}
    assert set(cli._SESSION) == {"es", "domain", "grammar", "asyncgraph", "epes"}


def test_verbs_on_one_file_build_each_structure_once(monkeypatch, capsys):
    built = {"table": [], "pairs": [], "certificates": [], "domain": [], "classes": []}
    for target, name, key in ((esmod, "_find_table", "table"),
                              (domains, "_pair_pass", "pairs"),
                              (domains, "_certify", "certificates"),
                              (duality.dom_of_es, "__wrapped__", "domain"),
                              (esmod.classify, "__wrapped__", "classes")):
        def counted(x, *rest, _real=getattr(target, name), _seen=built[key]):
            _seen.append(x)
            return _real(x, *rest)
        monkeypatch.setattr(target, name, counted)
    path = str(FIXTURES / "e_run.es.json")
    for verb in (["check"], ["convert", "--to", "domain"], ["connect"], ["emit"],
                 ["roundtrip"]):
        argv = [verb[0], "--es", path, *verb[1:]]
        if verb == ["emit"]:
            argv += ["--out", os.devnull]
        assert cli.main(argv) == 0
    capsys.readouterr()
    es = cli._SESSION["es"][1]
    dom = duality.dom_of_es(es)
    connected = duality.ev_of_domain(dom)
    # one table and one classification for the file's structure and for its
    # connected form, and one domain, the file's: ``roundtrip`` tests the
    # unit map with the certificate, once, and needs no domain of the
    # connected form to search.  No pair pass: the domain is weak prime by
    # the coreflection theorem, which ``dom_of_es`` records on it
    assert list(map(id, built["table"])) == [id(es), id(connected)]
    assert list(map(id, built["domain"])) == [id(es)]
    assert list(map(id, built["certificates"])) == [id(dom)]
    assert list(map(id, built["classes"])) == [id(es), id(connected)]
    assert built["pairs"] == []


@pytest.mark.parametrize("name", ["e_run.es.json", "L2.es.json"])
@pytest.mark.parametrize("verb", ["connect", "roundtrip"])
def test_connect_and_roundtrip_run_no_pair_pass(verb, name, tmp_path, monkeypatch, capsys):
    path = FIXTURES / name
    if name == "L2.es.json":
        path = tmp_path / name
        iomod.write_text(str(path), iomod.dumps(iomod.es_to_json(family_es("L", 2))))
    passes = []
    monkeypatch.setattr(domains, "_pair_pass", passes.append)
    assert cli.main([verb, "--es", str(path)]) == 0
    assert passes == []
    capsys.readouterr()


def _run(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _handoffs(work: str) -> list:
    """``derive`` on the grammar ``synth --out`` wrote, per event-structure
    input: in the session that wrote it and after ``cli._SESSION.clear()``,
    each as exit code, stdout, stderr, the bytes ``derive --out`` wrote and
    the number of grammars parsed.  The inputs are every event-structure
    fixture, B_4, X_3, L_2, C_5 and seeded draws.  Runs in an interpreter
    of its own (``handoffs``), whose grammar parser it wraps to count."""
    work = Path(work)
    inputs = sorted(FIXTURES.glob("*.es.json"))
    rng = random.Random(31)
    for name, es in [(f"{f}{n}", family_es(f, n)) for f, n in (("B", 4), ("X", 3), ("L", 2),
                                                                ("C", 5))] + [
            (f"draw{k}", random_connected_es(rng)) for k in range(6)]:
        inputs.append(work / f"{name}.es.json")
        iomod.dump_json(iomod.es_to_json(es), str(inputs[-1]))
    grammar, trace = str(work / "g.json"), work / "t.json"
    parsed = []  # each call of io.parse_grammar, the parser of grammar files
    iomod._PARSERS["grammar"] = lambda obj, _real=iomod.parse_grammar: (
        parsed.append(obj), _real(obj))[1]
    out = []
    for path in inputs:
        cli._SESSION.clear()
        if os.path.exists(grammar):
            os.unlink(grammar)
        synth = _run(["synth", "--es", str(path), "--out", grammar])
        sides = []
        for fresh in (False, True):
            if fresh:
                cli._SESSION.clear()
            del parsed[:]
            got = _run(["derive", "--grammar", grammar, "--out", str(trace)])
            sides.append(got + [trace.read_text(encoding="utf-8") if trace.exists() else None,
                                len(parsed)])
            if trace.exists():
                trace.unlink()
        out.append([path.name, synth[0], *sides])
    return out


@pytest.fixture(scope="module")
def handoffs(tmp_path_factory):
    """``_handoffs`` run in a fresh interpreter under each of two hash
    seeds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")])}
    runs, work = {}, tmp_path_factory.mktemp("handoff")
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", "import json, sys; from tests.test_session import _handoffs; "
             "print(json.dumps(_handoffs(sys.argv[1])))", str(work)],
            capture_output=True, text=True, cwd=str(ROOT), env={**env, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        runs[seed] = json.loads(proc.stdout)
    return runs


def test_derive_on_the_grammar_synth_wrote_answers_as_a_fresh_derive(handoffs):
    for seed, rows in handoffs.items():
        assert len(rows) == 17
        for name, synth_code, held, fresh in rows:
            assert held[:4] == fresh[:4], (seed, name)
            # the session holds what synth wrote, so only a fresh derive parses
            assert (held[4], fresh[4]) == ((0, 1) if synth_code == 0 else (0, 0)), (seed, name)
        # synthesis refuses the one fixture that is not connected, and the
        # derive after it finds no file
        refused = [(name, held[0]) for name, code, held, _ in rows if code]
        assert refused == [("e_prime_conflict.es.json", 2)]
    assert handoffs["0"] == handoffs["1"]


def _derive(grammar: Path, capsys):
    code = cli.main(["derive", "--grammar", str(grammar)])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("rewrite", ["another grammar", "crlf newlines"])
def test_a_grammar_rewritten_after_synth_is_parsed_again(rewrite, tmp_path, monkeypatch, capsys):
    path, grammar = tmp_path / "e.es.json", tmp_path / "g.json"
    iomod.dump_json(iomod.es_to_json(family_es("X", 2)), str(path))
    other = iomod.dumps_grammar(grammar_from_es(family_es("B", 3)))
    assert cli.main(["synth", "--es", str(path), "--out", str(grammar)]) == 0
    written = grammar.read_bytes()
    parsed = []
    monkeypatch.setitem(iomod._PARSERS, "grammar",
                        lambda obj, _real=iomod.parse_grammar: parsed.append(obj) or _real(obj))
    if rewrite == "another grammar":
        grammar.write_bytes(other.encode("utf-8") + b"\n")
    else:
        grammar.write_bytes(written.replace(b"\n", b"\r\n"))
    capsys.readouterr()
    held = _derive(grammar, capsys)
    assert len(parsed) == 1 and cli._SESSION["grammar"][0] == grammar.read_bytes()
    cli._SESSION.clear()
    assert _derive(grammar, capsys) == held and len(parsed) == 2
    assert ('"trace_classes": 8' if rewrite == "another grammar"
            else '"trace_classes": 9') in held[1]


def test_a_grammar_is_checked_once_per_session(tmp_path, monkeypatch, capsys):
    checked = []
    validate = Grammar.validate
    monkeypatch.setattr(validate, "__wrapped__", lambda g, _real=validate.__wrapped__: (
        checked.append(g), _real(g))[1])
    fusion = str(FIXTURES / "fusion.grammar.json")
    for argv in (["check", "--grammar", fusion], ["derive", "--grammar", fusion, "--depth", "3"],
                 ["derive", "--grammar", fusion, "--depth", "4", "--fusion-safe"]):
        assert cli.main(argv) == 0
    assert checked == [cli._SESSION["grammar"][1]]
    # a synthesised grammar is first checked by the derive that reads it
    path, grammar = tmp_path / "e.es.json", str(tmp_path / "g.json")
    iomod.dump_json(iomod.es_to_json(family_es("B", 2)), str(path))
    assert cli.main(["synth", "--es", str(path), "--out", grammar]) == 0
    assert len(checked) == 1
    for _ in range(2):
        assert cli.main(["derive", "--grammar", grammar]) == 0
    assert checked[1:] == [cli._SESSION["grammar"][1]]
    capsys.readouterr()


def test_a_grammar_that_fails_its_check_fails_it_on_every_call():
    g = grammar_from_es(family_es("B", 2))
    twice = Grammar(g.type_graph, g.start, g.rules + g.rules[:1])
    for _ in range(2):
        with pytest.raises(GraphError, match=r"^duplicate rule name 'e0'$"):
            twice.validate()
    assert twice._derived == {}
