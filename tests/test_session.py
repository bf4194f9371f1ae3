"""The batch session: ``cli.main`` calls in one process share one structure
per input kind, keyed by the file's bytes, with what was derived from it.

Each oracle test runs the same calls twice, in one session and with the
session emptied before every call, and asks for the same exit codes,
stdout, stderr and written bytes.
"""

import os
from pathlib import Path

import pytest

from weavent import cli, domains, duality, es as esmod, io as iomod
from tests._gen import family_es

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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
        call(argv, tmp_path / "written", capsys)
        path = Path(argv[2])
        kind = kind_of(path)
        if kind != "grammar":
            last[kind] = path.read_bytes()
        assert set(cli._SESSION) <= set(last)
        assert {k: data for k, (data, _) in cli._SESSION.items()} == {
            k: data for k, data in last.items() if k in cli._SESSION}
    assert set(cli._SESSION) == {"es", "domain", "asyncgraph", "epes"}


def test_verbs_on_one_file_build_each_structure_once(monkeypatch, capsys):
    built = {"table": [], "pairs": [], "certificates": [], "domain": [], "classes": []}
    for module, name, key in ((esmod, "_find_table", "table"),
                              (domains, "_pair_pass", "pairs"),
                              (domains, "_certify", "certificates"),
                              (duality, "_find_domain", "domain"),
                              (esmod, "_find_classification", "classes")):
        def counted(x, *rest, _real=getattr(module, name), _seen=built[key]):
            _seen.append(x)
            return _real(x, *rest)
        monkeypatch.setattr(module, name, counted)
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
