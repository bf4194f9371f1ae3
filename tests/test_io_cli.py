import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weavent import cli, io as iomod
from weavent.cli import main
from weavent import fixtures as fx
from weavent.asyncgraphs import hasse_as_async
from weavent.duality import dom_of_es, unfold
from weavent.fixtures import e_run, nontransitive_bdomain, running_grammar
from weavent.io import SchemaError
from weavent.oracles import es_isomorphic

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

# how each file in fixtures/ is written: (serialiser, constructor)
FIXTURE_SOURCES = {
    "ccs.async.json": (iomod.async_to_json, lambda: hasse_as_async(dom_of_es(fx.e_ccs()))),
    "ccs.domain.json": (iomod.domain_to_json, lambda: dom_of_es(fx.e_ccs())),
    "chain2.domain.json": (iomod.domain_to_json, lambda: fx.chain(2)),
    "e_ccs.es.json": (iomod.es_to_json, fx.e_ccs),
    "e_five.es.json": (iomod.es_to_json, fx.e_five),
    "e_joint.es.json": (iomod.es_to_json, fx.e_joint),
    "e_prime_conflict.es.json": (iomod.es_to_json, fx.e_prime_conflict),
    "e_run.es.json": (iomod.es_to_json, fx.e_run),
    "e_split.es.json": (iomod.es_to_json, fx.e_split),
    "e_three_independent.es.json": (iomod.es_to_json, fx.e_three_independent),
    "fusion.grammar.json": (iomod.grammar_to_json, fx.running_grammar),
    "m3.domain.json": (iomod.domain_to_json, fx.m3),
    "nontransitive.bdomain.json": (iomod.domain_to_json, fx.nontransitive_bdomain),
    "nontransitive.domain.json": (iomod.domain_to_json, fx.nontransitive_poset),
    "pair_no_join.domain.json": (iomod.domain_to_json, fx.pair_no_join),
    "run.async.json": (iomod.async_to_json, lambda: hasse_as_async(dom_of_es(fx.e_run()))),
    "run.domain.json": (iomod.domain_to_json, lambda: dom_of_es(fx.e_run())),
    "split.domain.json": (iomod.domain_to_json, lambda: dom_of_es(fx.e_prime_conflict())),
    "unfold_run.epes.json": (iomod.epes_to_json, lambda: unfold(fx.e_run())),
}


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestJson:
    def test_es_roundtrip(self, tmp_path):
        path = tmp_path / "es.json"
        iomod.dump_json(iomod.es_to_json(e_run()), str(path))
        assert iomod.load_structure(str(path), "es") == e_run()

    def test_consistency_kind_roundtrip(self, tmp_path):
        from weavent.es import EventStructure
        es = EventStructure.with_consistency(
            "xyz", [("x", "y"), ("y", "z"), ("x", "z")],
            enabling=[((), "x"), ((), "y"), ((), "z")])
        path = tmp_path / "es.json"
        iomod.dump_json(iomod.es_to_json(es), str(path))
        assert iomod.load_structure(str(path), "es") == es

    def test_domain_roundtrip(self, tmp_path):
        dom = nontransitive_bdomain()
        path = tmp_path / "d.json"
        iomod.dump_json(iomod.domain_to_json(dom), str(path))
        back = iomod.load_structure(str(path), "domain")
        assert back.elements == dom.elements
        assert back.covers() == dom.covers()
        assert back.kind == dom.kind

    def test_grammar_roundtrip(self, tmp_path):
        g = running_grammar()
        path = tmp_path / "g.json"
        iomod.dump_json(iomod.grammar_to_json(g), str(path))
        back = iomod.load_structure(str(path), "grammar")
        assert [r.name for r in back.rules] == [r.name for r in g.rules]
        assert back.start.same(g.start)

    def test_epes_roundtrip(self, tmp_path):
        p = unfold(e_run())
        path = tmp_path / "p.json"
        iomod.dump_json(iomod.epes_to_json(p), str(path))
        back = iomod.load_structure(str(path), "epes")
        assert back.base == p.base
        assert back.equiv == p.equiv

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"events": ["a"], "enabling": [], "extra": 1}))
        with pytest.raises(SchemaError):
            iomod.load_structure(str(path), "es")

    def test_both_conflict_kinds_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"events": ["a"], "conflict": [],
                                    "consistent": [["a"]]}))
        with pytest.raises(SchemaError):
            iomod.load_structure(str(path), "es")

    def test_cyclic_covers_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"elements": ["a", "b"],
                                    "covers": [["a", "b"], ["b", "a"]]}))
        with pytest.raises(SchemaError):
            iomod.load_structure(str(path), "domain")

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixture_files_match_constructors(self, name):
        # every file in fixtures/ must have an entry in FIXTURE_SOURCES
        to_json, build = FIXTURE_SOURCES[name]
        built = to_json(build())
        path = FIXTURES / name
        assert path.read_text(encoding="utf-8") == json.dumps(built, indent=2, sort_keys=True) + "\n"
        kind = {"bdomain": "domain", "async": "asyncgraph"}.get(path.suffixes[0][1:],
                                                                path.suffixes[0][1:])
        assert to_json(iomod.load_structure(str(path), kind)) == built


class TestCli:
    @pytest.mark.parametrize("kind, name, passage, built", [
        # the connected structure is read off the domain already built
        ("--es", "e_run.es.json", "ev_of_domain", 1),
        ("--es", "e_run.es.json", "connect_es", 0),
        ("--domain", "run.domain.json", "ev_of_domain", 1),
        # fuse of the input, and of its unfolding
        ("--epes", "unfold_run.epes.json", "fuse", 2)])
    def test_roundtrip_builds_each_passage_once(self, monkeypatch, capsys,
                                                kind, name, passage, built):
        calls = []

        def counted(value, _compute=getattr(cli, passage)):
            calls.append(value)
            return _compute(value)
        monkeypatch.setattr(cli, passage, counted)
        code, _, _ = run_cli("roundtrip", kind, str(FIXTURES / name), capsys=capsys)
        assert code == 0
        assert len(calls) == built

    def test_roundtrip_e_run(self, capsys):
        code, out, _ = run_cli("roundtrip", "--es", str(FIXTURES / "e_run.es.json"),
                               capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["dom_preserved"] is True

    def test_roundtrip_es_beyond_the_recursion_limit(self, tmp_path, capsys):
        # B_10: 1,024 configurations, more than the default recursion limit
        events = [f"e{k}" for k in range(10)]
        path = tmp_path / "b10.es.json"
        iomod.dump_json({"events": events, "conflict": [],
                         "enabling": [{"event": e, "needs": []} for e in events]}, str(path))
        code, out, _ = run_cli("roundtrip", "--es", str(path), capsys=capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["dom_preserved"] is True
        assert results["connected_fixed_point"] is True

    def test_derive_running(self, capsys):
        code, out, _ = run_cli("derive", "--grammar",
                               str(FIXTURES / "fusion.grammar.json"),
                               "--depth", "3", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["trace_classes"] == 7
        assert report["results"]["weak_prime"] is True

    def test_derive_fusion_safe(self, capsys):
        code, out, _ = run_cli("derive", "--grammar",
                               str(FIXTURES / "fusion.grammar.json"),
                               "--depth", "3", "--fusion-safe", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["trace_classes"] == 5
        assert report["results"]["prime"] is True

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"elements": ["a", "b"],
                                   "covers": [["a", "b"], ["b", "a"]]}))
        code, out, err = run_cli("check", "--domain", str(bad), capsys=capsys)
        assert code == 2
        assert "error" in json.loads(err)

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli("check", "--es", "no-such-file.json", capsys=capsys)
        assert code == 2

    def test_connect_splits(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli("connect", "--es",
                               str(FIXTURES / "e_prime_conflict.es.json"),
                               "--out", str(out_path), capsys=capsys)
        assert code == 0
        back = iomod.load_structure(str(out_path), "es")
        assert len(back.events) == 4

    def test_convert_and_back(self, tmp_path, capsys):
        dom_path = tmp_path / "dom.json"
        code, _, _ = run_cli("convert", "--es", str(FIXTURES / "e_run.es.json"),
                             "--to", "domain", "--out", str(dom_path), capsys=capsys)
        assert code == 0
        code, out, _ = run_cli("convert", "--domain", str(dom_path), "--to", "es",
                               capsys=capsys)
        assert code == 0
        es = iomod.parse_es(json.loads(out)["results"]["structure"])
        assert es_isomorphic(es, e_run()) is not None

    def test_axioms_m3(self, capsys):
        code, out, _ = run_cli("axioms", "--domain", str(FIXTURES / "m3.domain.json"),
                               capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["R"] is False
        assert report["results"]["weak_prime_algebraic"] is False

    def test_async_weak(self, capsys):
        code, out, _ = run_cli("async", "--async", str(FIXTURES / "run.async.json"),
                               "--weak", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["weak_prime"] is True
        assert report["results"]["cube_down"] is False
        assert report["results"]["path_classes"] == 7

    def test_async_full_fails_on_run_domain(self, capsys):
        code, out, _ = run_cli("async", "--async", str(FIXTURES / "run.async.json"),
                               capsys=capsys)
        assert code == 1

    def test_async_on_a_long_chain(self, tmp_path, capsys):
        # 1,500 edges: deeper than Python's default recursion limit
        nodes = [f"c{k}" for k in range(1501)]
        path = tmp_path / "chain.async.json"
        iomod.dump_json({"nodes": nodes, "origin": "c0", "squares": [],
                         "edges": [{"id": f"e{k}", "src": nodes[k], "tgt": nodes[k + 1]}
                                   for k in range(1500)]}, str(path))
        code, out, _ = run_cli("async", "--async", str(path), capsys=capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["prime"] is True
        assert results["path_classes"] == 1501

    def test_check_domain_on_a_long_chain(self, tmp_path, capsys):
        elements = [f"c{k}" for k in range(1501)]
        path = tmp_path / "chain.domain.json"
        iomod.dump_json({"elements": elements, "kind": "coherent",
                         "covers": [[elements[k], elements[k + 1]] for k in range(1500)]},
                        str(path))
        code, out, _ = run_cli("check", "--domain", str(path), capsys=capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["valid"] is True
        assert len(results["irreducibles"]) == 1500

    def test_synth_report(self, capsys):
        code, out, _ = run_cli("synth", "--es", str(FIXTURES / "e_run.es.json"),
                               capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["rules"] == ["a", "b", "c"]
        assert report["results"]["start_nodes"] == 7
        assert report["results"]["exhaustive_depth"] == 3

    def test_emit_dot_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
        for p in (p1, p2):
            code, _, _ = run_cli("emit", "--domain",
                                 str(FIXTURES / "run.domain.json"),
                                 "--out", str(p), capsys=capsys)
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.count("->") == 9
        assert text.count(";") >= 16

    def test_dot_bodies_are_indented_lines(self):
        from weavent.dot import typed_graph_dot
        from weavent.graphs import TypedGraph
        assert typed_graph_dot(TypedGraph([], [])) == 'digraph "graph" {\n}\n'
        assert typed_graph_dot(TypedGraph(["n"], [("e", "n", "n", "n")]), "g") == (
            'digraph "g" {\n  "n" [label="n:n"];\n  "n" -> "n" [label="e:n"];\n}\n')

    def test_emit_grammar_start(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        code, _, _ = run_cli("emit", "--grammar",
                             str(FIXTURES / "fusion.grammar.json"),
                             "--out", str(out), capsys=capsys)
        assert code == 0
        text = out.read_text()
        assert text.count("->") == 4  # four loops

    def test_reports_are_deterministic(self, capsys):
        outs = set()
        for _ in range(2):
            code, out, _ = run_cli("check", "--es", str(FIXTURES / "e_run.es.json"),
                                   capsys=capsys)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    @staticmethod
    def _env():
        # the child imports the package under test, installed or not
        src = str(Path(iomod.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}

    def _run_module(self, *args):
        return subprocess.run([sys.executable, "-m", *args],
                              capture_output=True, text=True, env=self._env())

    def test_script_entry_point(self):
        proc = self._run_module("weavent.cli", "check", "--es", str(FIXTURES / "e_run.es.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["live"] is True

    def test_package_entry_point(self):
        proc = self._run_module("weavent", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: weavent")

    def test_a_reader_that_closes_early_gets_no_traceback(self, tmp_path):
        # the report on a 200-element chain (about 640 kB) outgrows a pipe,
        # so the writer is still writing when the reader closes after a line
        path = tmp_path / "chain.domain.json"
        iomod.write_text(str(path), iomod.dumps_domain(fx.chain(200)))
        proc = subprocess.Popen([sys.executable, "-m", "weavent", "convert", "--domain",
                                 str(path), "--to", "es-intervals"], env=self._env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0  # the verdict of convert
        assert b"Traceback" not in err and err == b""


def _dead_event_es(tmp_path):
    # b needs a but conflicts with it, so b is in no configuration
    from weavent.es import EventStructure
    es = EventStructure.binary("ab", [("a", "b")], [((), "a"), (("a",), "b")])
    path = tmp_path / "dead.es.json"
    iomod.dump_json(iomod.es_to_json(es), str(path))
    return ["convert", "--es", str(path), "--to", "domain"], "not live"


def _over_ceiling(tmp_path):
    return (["derive", "--grammar", str(FIXTURES / "fusion.grammar.json"), "--depth", "2"],
            "more than 1 trace classes")


@pytest.mark.parametrize("case", [_dead_event_es, _over_ceiling],
                         ids=["liveness-error", "trace-limit-error"])
def test_error_subclasses_exit_2(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEAVENT_CLASS_CEILING", "1")
    argv, message = case(tmp_path)
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert message in json.loads(err)["error"]


_FOUR_EDGES = {"nodes": ["a", "b", "c", "d"], "origin": "a",
               "edges": [{"id": "e1", "src": "a", "tgt": "b"},
                         {"id": "e2", "src": "b", "tgt": "c"},
                         {"id": "e3", "src": "a", "tgt": "d"},
                         {"id": "e4", "src": "d", "tgt": "c"},
                         {"id": "e5", "src": "d", "tgt": "a"}]}


@pytest.mark.parametrize("graph, message", [
    ({"nodes": ["a"], "edges": [], "origin": "a", "squares": [[["x", "y"], ["z", "w"]]]},
     "square [('x', 'y'), ('z', 'w')] is not a pair of length-2 paths"),
    ({**_FOUR_EDGES, "squares": [[["x", "y"], ["x", "y"]]]},
     "square [('x', 'y')] is not a pair of length-2 paths"),
    # the first bad square in input order is named, whatever the hash seed
    ({**_FOUR_EDGES, "squares": [[["e1", "e2"], ["e3", "e4"]], [["e1", "e2"], ["e3", "e5"]],
                                 [["x", "y"], ["z", "w"]]]},
     "square [('e1', 'e2'), ('e3', 'e5')] is not coinitial-cofinal"),
], ids=["unknown-edges", "one-path-over-unknown-edges", "first-bad-square"])
def test_emit_rejects_a_malformed_square_at_load(graph, message, tmp_path, capsys):
    path, out = tmp_path / "bad.async.json", tmp_path / "bad.dot"
    path.write_text(json.dumps(graph))
    code, stdout, err = run_cli("emit", "--async", str(path), "--out", str(out), capsys=capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(err) == {"error": message}
    assert not out.exists()


@pytest.mark.parametrize("verb", ["check", "async", "emit"])
def test_a_square_that_names_one_path_twice_exits_2(verb, tmp_path, capsys):
    # a one-path square is no square: every verb rejects it at load, and
    # emit, which reads each square as two paths, never sees it
    path, out = tmp_path / "bad.async.json", tmp_path / "bad.dot"
    path.write_text(json.dumps({**_FOUR_EDGES, "squares": [[["e1", "e2"], ["e1", "e2"]]]}))
    argv = [verb, "--async", str(path)] + (["--out", str(out)] if verb == "emit" else [])
    code, stdout, err = run_cli(*argv, capsys=capsys)
    assert (code, stdout) == (2, "")
    assert json.loads(err) == {"error": "square [('e1', 'e2')] does not name two distinct paths"}
    assert not out.exists()


@pytest.mark.parametrize("kind", ["coherent", "bounded_complete"])
def test_roundtrip_of_b2_agrees_whatever_its_kind(kind, tmp_path, capsys):
    # the interval construction follows the domain's kind, as ev_of_domain
    # does, so the two agree on a bounded-complete domain too
    path = tmp_path / "b2.domain.json"
    path.write_text(json.dumps({"elements": ["0", "a", "b", "ab"], "kind": kind,
                                "covers": [["0", "a"], ["0", "b"], ["a", "ab"], ["b", "ab"]]}))
    code, out, _ = run_cli("roundtrip", "--domain", str(path), capsys=capsys)
    assert code == 0
    assert json.loads(out)["results"] == {"dom_of_ev_isomorphic": True,
                                          "interval_construction_agrees": True,
                                          "kind": "domain", "zeta_classes": 2}


_DERIVE = ["derive", "--grammar", str(FIXTURES / "fusion.grammar.json")]


def test_a_ceiling_that_is_not_an_integer_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("WEAVENT_CLASS_CEILING", "abc")
    code, out, err = run_cli(*_DERIVE, "--depth", "2", capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "WEAVENT_CLASS_CEILING is not an integer: 'abc'"


def test_derive_rejects_a_negative_depth(capsys):
    code, out, err = run_cli(*_DERIVE, "--depth", "-1", capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "--depth must not be negative, got -1"


def test_derive_rejects_a_negative_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("WEAVENT_CLASS_CEILING", "-1")
    code, out, err = run_cli(*_DERIVE, "--depth", "2", capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "WEAVENT_CLASS_CEILING must not be negative, got -1"


def test_derive_rejects_an_unknown_format(tmp_path, capsys):
    out_path = tmp_path / "traces.svg"
    code, out, err = run_cli(*_DERIVE, "--depth", "2", "--format", "svg",
                             "--out", str(out_path), capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "unknown format 'svg'"
    assert not out_path.exists()


def test_derive_format_json_writes_what_no_format_writes(tmp_path, capsys):
    written = []
    for fmt in ([], ["--format", "json"]):
        out_path = tmp_path / f"traces{len(fmt)}.json"
        code, _, _ = run_cli(*_DERIVE, "--depth", "2", *fmt, "--out", str(out_path),
                             capsys=capsys)
        assert code == 0
        written.append(out_path.read_bytes())
    assert written[0] == written[1]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for _ in range(2):
        code, _, _ = run_cli("check", "--es", str(FIXTURES / "e_run.es.json"), capsys=capsys)
        assert code == 0
    # a line the option table reads builds no parser
    assert built == []
    for argv in (["check", "--no-such-flag"], ["check", "--es"]):
        with pytest.raises(SystemExit):
            main(argv)
    # the two lines argparse must reject build the root parser and one
    # subparser per verb, once between them
    assert built == ["weavent"] + [f"weavent {verb}" for verb in cli._VERBS]


# the verbs run on each kind of fixture file, after the input flag
_FLAG_AND_VERBS = {
    ".es.json": ("--es", [["check"], ["convert", "--to", "domain"],
                          ["convert", "--to", "epes"], ["connect"], ["synth"],
                          ["roundtrip"], ["emit", "--out", "{out}"]]),
    ".domain.json": ("--domain", [["check"], ["axioms"], ["roundtrip"],
                                  ["convert", "--to", "es"], ["emit", "--out", "{out}"]]),
    ".grammar.json": ("--grammar", [["derive", "--depth", "3"],
                                    ["derive", "--depth", "3", "--fusion-safe"],
                                    ["emit", "--out", "{out}"]]),
    ".async.json": ("--async", [["async"], ["async", "--weak"], ["emit", "--out", "{out}"]]),
    ".epes.json": ("--epes", [["check"], ["roundtrip"]]),
}


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_verbs_repeat_byte_identical_in_one_process(name, tmp_path, capsys):
    suffix = "." + name.split(".", 1)[1].replace("bdomain", "domain")
    flag, verbs = _FLAG_AND_VERBS[suffix]
    for verb, *rest in verbs:
        argv = [verb, flag, str(FIXTURES / name)]
        argv += [x.format(out=tmp_path / "out") for x in rest]
        first = run_cli(*argv, capsys=capsys)[:2]
        assert run_cli(*argv, capsys=capsys)[:2] == first, argv


def test_argparse_errors_exit_2_with_the_parser_reused(capsys):
    # a flag is registered only on the verbs that read it
    domain = str(FIXTURES / "run.domain.json")
    for argv in (["check", "--no-such-flag"], ["no-such-verb"], ["check", "--no-such-flag"],
                 ["check", "--domain", domain, "--out", "x"],
                 ["check", "--domain", domain, "--format", "svg"],
                 ["axioms", "--domain", domain, "--weak"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    code, _, _ = run_cli("check", "--es", str(FIXTURES / "e_run.es.json"), capsys=capsys)
    assert code == 0


# Verbs writing to a path that is a directory: each must exit 2, not raise.
_OUT_TO_A_DIRECTORY = {
    "convert": ["convert", "--es", str(FIXTURES / "e_run.es.json"), "--to", "domain"],
    "connect": ["connect", "--es", str(FIXTURES / "e_prime_conflict.es.json")],
    "synth": ["synth", "--es", str(FIXTURES / "e_run.es.json")],
    "async": ["async", "--async", str(FIXTURES / "run.async.json"), "--weak"],
    "derive": ["derive", "--grammar", str(FIXTURES / "fusion.grammar.json"), "--depth", "3"],
    "derive-dot": ["derive", "--grammar", str(FIXTURES / "fusion.grammar.json"),
                   "--depth", "3", "--format", "dot"],
    "emit": ["emit", "--es", str(FIXTURES / "e_run.es.json")],
}


@pytest.mark.parametrize("case", sorted(_OUT_TO_A_DIRECTORY))
def test_writing_to_a_directory_exits_2(case, tmp_path, capsys):
    code, out, err = run_cli(*_OUT_TO_A_DIRECTORY[case], "--out", str(tmp_path),
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"cannot write {str(tmp_path)!r}: ")


def test_reading_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli("check", "--es", str(tmp_path), capsys=capsys)
    assert (code, out) == (2, "")
    assert "Is a directory" in json.loads(err)["error"]


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.es.json"
    path.write_bytes('{"events": ["café"]}'.encode("latin-1"))
    code, out, err = run_cli("check", "--es", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"{path}: invalid JSON: 'utf-8' codec ")


def test_a_file_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.domain.json"
    path.write_text('{"elements": ' + "[" * 5000 + "]" * 5000 + ', "covers": []}')
    code, out, err = run_cli("check", "--domain", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(
        f"{path}: invalid JSON: maximum recursion depth exceeded")


def _read_as_text(path: str) -> str:
    """What a load of the event structure at ``path`` gave when the file was
    opened in text mode: the structure's file text, or the SchemaError
    message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:
        return f"{path}: invalid JSON: {exc}"
    try:
        return iomod.dumps(iomod.es_to_json(iomod.parse_es(obj)))
    except SchemaError as exc:
        return str(exc)


# pieces of a damaged event-structure file: newlines of every convention,
# bytes that are no UTF-8 and a multi-byte character cut short
_PIECES = [b"\r\n", b"\r", b"\n", b"\r\r\n", b"\xe9", b"\xc3", b"\xff", b"\xe2\x82",
           "\u20ac".encode(), b"\xef\xbb\xbf", b" ", b"}", b'"']


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 400), st.sampled_from(_PIECES)), max_size=4))
def test_bytes_parse_as_a_text_mode_read(tmp_path_factory, edits):
    data = bytearray((FIXTURES / "e_five.es.json").read_bytes())
    for at, piece in edits:
        data[at:at] = piece
    path = tmp_path_factory.mktemp("bytes") / "e.es.json"
    path.write_bytes(bytes(data))
    try:
        got = iomod.dumps(iomod.es_to_json(iomod.load_structure(str(path), "es")))
    except SchemaError as exc:
        got = str(exc)
    assert got == _read_as_text(str(path))


def test_a_crlf_file_names_the_error_where_a_text_read_did(tmp_path):
    path = tmp_path / "crlf.es.json"
    path.write_bytes(b'{\r\n  "events": ["a"],\r\n  "enabling": [,]\r\n}\r\n')
    with pytest.raises(SchemaError) as err:
        iomod.load_structure(str(path), "es")
    assert str(err.value) == f"{path}: invalid JSON: Expecting value: line 3 column 16 (char 36)"
    assert str(err.value) == _read_as_text(str(path))


def test_write_text_encodes_a_slice_at_a_time(tmp_path):
    import tracemalloc
    from weavent.rewrite import grammar_from_es
    from tests._gen import family_es
    text = iomod.dumps(iomod.grammar_to_json(grammar_from_es(family_es("C", 120))))
    assert len(text) > 17_000_000
    path = tmp_path / "c120.grammar.json"
    tracemalloc.start()
    try:
        iomod.write_text(str(path), text, "\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the whole text encoded at once took 17.8 MB
    assert path.read_bytes() == (text + "\n").encode()


def test_write_text_slices_keep_every_character(tmp_path):
    text = ("\u20ac\U0001f600a\n" * iomod._SLICE)[1:]
    path = tmp_path / "wide.txt"
    iomod.write_text(str(path), text, "\u00e9")
    assert path.read_bytes() == (text + "\u00e9").encode()


def test_missing_file_message(capsys):
    code, out, err = run_cli("check", "--es", "no-such-file.json", capsys=capsys)
    assert (code, out) == (2, "")
    assert err == ('{\n  "error": "[Errno 2] No such file or directory: '
                   '\'no-such-file.json\'"\n}\n')


@pytest.mark.parametrize("argv", [["check"], ["convert", "--to", "domain"]])
def test_one_job_builds_the_configuration_table_once(argv, monkeypatch, capsys):
    import weavent.es as esmod
    built = []

    def counted(es, _find=esmod._find_table):
        built.append(es)
        return _find(es)
    monkeypatch.setattr(esmod, "_find_table", counted)
    code, _, _ = run_cli(argv[0], "--es", str(FIXTURES / "e_run.es.json"), *argv[1:],
                         capsys=capsys)
    assert code == 0
    assert len(built) == 1


def _set(obj, path, value):
    """``obj`` with the value at ``path`` (keys and indices) set to ``value``."""
    if not path:
        return value
    *at, last = path
    target = obj
    for key in at:
        target = target[key]
    target[last] = value
    return obj


def _with(name, path, value):
    """The JSON of a fixture file with the field at ``path`` set to ``value``."""
    return _set(json.loads((FIXTURES / name).read_text()), path, value)


# Input of the right shape but for one field, which holds a JSON value of
# the wrong type: a non-list where a list belongs, then a list where a
# string belongs.  Each one raised a TypeError from inside a parser.
_WRONG_TYPES = [
    ("--es", _with("e_run.es.json", ["enabling"], 1), "enabling: expected a list"),
    ("--es", _with("e_run.es.json", ["conflict"], 1), "conflict: expected a list"),
    ("--es", {"events": ["a"], "consistent": 1}, "consistent: expected a list"),
    ("--domain", _with("run.domain.json", ["covers"], 1), "covers: expected a list"),
    ("--async", _with("run.async.json", ["edges"], 1), "edges: expected a list"),
    ("--async", _with("run.async.json", ["squares"], 1), "squares: expected a list"),
    ("--grammar", _with("fusion.grammar.json", ["start", "nodes"], 1),
     "start.nodes: expected a list"),
    ("--grammar", _with("fusion.grammar.json", ["start", "edges"], 1),
     "start.edges: expected a list"),
    ("--grammar", _with("fusion.grammar.json", ["rules"], 1), "rules: expected a list"),
    ("--epes", _with("unfold_run.epes.json", ["equiv"], 1), "equiv: expected a list"),
    ("--es", _with("e_run.es.json", ["enabling", 0, "event"], ["a"]),
     "enabling[0].event: expected a string"),
    ("--async", _with("run.async.json", ["origin"], ["{}"]), "origin: expected a string"),
    ("--async", _with("run.async.json", ["edges", 0, "id"], ["x"]),
     "edges[0].id: expected a string"),
    ("--grammar", _with("fusion.grammar.json", ["start", "edges", 0, "id"], ["x"]),
     "start.edges[0].id: expected a string"),
    ("--grammar", _with("fusion.grammar.json", ["start", "nodes", 0, "id"], ["c"]),
     "start.nodes[0].id: expected a string"),
    ("--grammar", _with("fusion.grammar.json", ["start", "nodes", 0, "type"], ["n"]),
     "start.nodes[0].type: expected a string"),
    ("--grammar", _with("fusion.grammar.json", ["start", "edges", 0, "src"], ["c"]),
     "start.edges[0].src: expected a string"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 0, "name"], ["x"]),
     "rules[0].name: expected a string"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 0, "l", "nodes", "c"], ["c"]),
     "rules[0].l: node/edge maps must map ids to strings"),
    ("--es", {"events": ["a"], "consistent": [1]}, "consistent[*]: expected a list of strings"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 0], 1), "rules[0]: expected an object"),
]


@pytest.mark.parametrize("flag, obj, message", _WRONG_TYPES,
                         ids=[m.split(":")[0] for _, _, m in _WRONG_TYPES])
def test_a_value_of_the_wrong_type_exits_2(flag, obj, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("check", flag, str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message}


# The k-th item of a list, for k past 0, that fails in each parser: the
# message names the item and its field as it always has.
_BAD_ITEMS = [
    ("--es", _with("e_run.es.json", ["enabling", 2], {"needs": []}),
     "enabling[2]: missing keys ['event']"),
    ("--es", _with("e_run.es.json", ["enabling", 1, "needs"], "a"),
     "enabling[1].needs: expected a list of strings"),
    ("--es", {"events": ["a", "b", "c"], "conflict": [["a", "b"], ["a", "b", "c"]]},
     "conflict[1]: expected a pair"),
    ("--domain", _with("run.domain.json", ["covers", 3], ["c0"]), "covers[3]: expected a pair"),
    ("--domain", _with("run.domain.json", ["covers", 1], [1, 2]),
     "covers[1]: expected a list of strings"),
    ("--grammar", _with("fusion.grammar.json", ["start", "nodes", 1], {"id": "x"}),
     "start.nodes[1]: missing type"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 0, "L", "edges", 1, "tgt"], 3),
     "rules[0].L.edges[1].tgt: expected a string"),
    ("--async", _with("run.async.json", ["edges", 1], {"id": "e", "src": "a"}),
     "edges[1]: missing keys ['tgt']"),
    ("--async", _with("run.async.json", ["squares"], [[["x", "y"], ["z", "w"]], [["x"], ["y"]]]),
     "squares[1]: expected a pair of 2-edge paths"),
    ("--async", _with("run.async.json", ["squares"], [[["x", "y"], ["z", "w"]], [["x", "y"], 1]]),
     "squares[1]: expected a list of strings"),
    ("--epes", _with("unfold_run.epes.json", ["equiv"], [[], ["a", 1]]),
     "equiv[1]: expected a list of strings"),
    ("--epes", _with("unfold_run.epes.json", ["equiv"], [["<{}:a>"], ["<{}:b>"], ["zz"]]),
     "equiv[2]: unknown event 'zz'"),
    ("--epes", _with("unfold_run.epes.json", ["equiv"],
                     [["<{}:a>"], ["<{}:b>"], ["<{a}:c>"], ["<{}:a>"]]),
     "equiv[3]: event '<{}:a>' in two blocks"),
    ("--grammar", _with("fusion.grammar.json", ["type_graph", "nodes"],
                        [{"id": "n"}, {"id": "m", "kind": "x"}]),
     "type_graph.nodes[1]: unknown keys ['kind']"),
    ("--grammar", _with("fusion.grammar.json", ["type_graph", "edges", 1], {"id": "x", "src": "n"}),
     "type_graph.edges[1]: missing keys ['tgt']"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 1], {"name": "x"}),
     "rules[1]: missing keys ['K', 'L', 'R', 'l', 'r']"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 1, "L", "kind"], 1),
     "rules[1].L: unknown keys ['kind']"),
]


@pytest.mark.parametrize("flag, obj, message", _BAD_ITEMS,
                         ids=[m.split(":")[0] for _, _, m in _BAD_ITEMS])
def test_a_bad_item_past_the_first_is_named(flag, obj, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("check", flag, str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message}


# Input that every field check passes but a constructor or validator
# rejects: the message is the constructor's, behind the graph or map it
# names, if any.
_REJECTED = [
    ("--es", _with("e_run.es.json", ["enabling", 2, "event"], "z"),
     "enabling generator for unknown event 'z'"),
    ("--domain", _with("run.domain.json", ["covers", 0], ["{a,b,c}", "{}"]),
     "cycle through '{a,b,c}'"),
    ("--grammar", _with("fusion.grammar.json", ["start", "edges", 1, "id"], "e_abar"),
     "start: duplicate edge id 'e_abar'"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 0, "l", "nodes"], {"c": "c"}),
     "rules[0].l: node 'v' unmapped or mapped outside the target"),
    ("--grammar", _with("fusion.grammar.json", ["rules", 1, "name"], "p_a"),
     "duplicate rule name 'p_a'"),
    ("--async", _with("run.async.json", ["edges", 1, "id"], "{a,b}>{a,b,c}"),
     "duplicate edge id '{a,b}>{a,b,c}'"),
]


@pytest.mark.parametrize("flag, obj, message", _REJECTED,
                         ids=[m.split(":")[0] for _, _, m in _REJECTED])
def test_a_rejected_structure_exits_2_with_its_message(flag, obj, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("check", flag, str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message}


@pytest.mark.parametrize("verb", [["check"], ["convert", "--to", "es"], ["roundtrip"]])
def test_an_empty_equiv_block_is_ignored(verb, tmp_path, capsys):
    """An empty block names no event, so the file reads as one without it;
    ``convert`` and ``roundtrip`` once ended in a traceback on it."""
    path = tmp_path / "empty.epes.json"
    obj = _with("unfold_run.epes.json", ["equiv"], [[]])
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(verb[0], "--epes", str(path), *verb[1:], capsys=capsys)
    assert (code, err) == (0, "")
    del obj["equiv"]
    path.write_text(json.dumps(obj))
    assert run_cli(verb[0], "--epes", str(path), *verb[1:], capsys=capsys) == (code, out, err)


_FILES = {"es": "e_run.es.json", "domain": "run.domain.json",
          "grammar": "fusion.grammar.json", "asyncgraph": "run.async.json",
          "epes": "unfold_run.epes.json"}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False)
    | st.sampled_from(["a", "b", "c", "n", "{}", "coherent", "bounded_complete"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("abc", max_size=2),
                                                                inner, max_size=4),
    max_leaves=20)


def _places(obj, path=()):
    """The path of ``obj`` and of every value inside it."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_FILES)), st.data())
def test_any_json_loads_or_raises_schema_error(tmp_path_factory, kind, data):
    # a fixture of the kind, with one to three of its values (or the whole
    # of it) replaced by any JSON value
    obj = json.loads((FIXTURES / _FILES[kind]).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _set(obj, data.draw(st.sampled_from(list(_places(obj)))), data.draw(_JSON))
    path = tmp_path_factory.mktemp("any") / "structure.json"
    path.write_text(json.dumps(obj))
    try:
        iomod.load_structure(str(path), kind)
    except SchemaError:
        pass
