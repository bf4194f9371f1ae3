"""The bytes the verbs print and write, pinned.

The ``--es`` digests on B_10 and L_2 were taken before the event-structure
layer moved to masks, so any change in what ``check``, ``convert --to
domain`` or ``emit`` produce shows up here.  The L_4 digests (2,401
configurations, 12,348 covers) were taken while ``io.dumps`` still ran
every payload through ``json``'s own indenting encoder and ``covers()``
still sorted name pairs on each call.  The digests of the verbs that
write a file (``convert``, ``connect``, ``synth``, ``derive`` and ``emit``)
were taken while each report still encoded its payload a second time; those
of ``convert --to epes`` and ``synth`` on C_8 (897 enabling records) and of
``async --weak --out`` were taken while every list of objects and every
domain file still went through ``io.dumps``' general walk.  Those of
``synth`` on X_4 (conflict items) and on ``e_five`` (tuple nodes that
several events name) were taken while ``grammar_from_es`` still built the
start graph and each rule's ``L`` node by node.
``roundtrip`` on B_10 runs the CLI through more than a thousand
configurations.  The ``derive`` digests on the growing grammar, most of
whose derivations apply ``grow`` more than once, were taken while
``trace_classes`` still compared those derivations by ``equivalent_traces``.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from weavent import cli, domains, io as iomod
from weavent.asyncgraphs import hasse_as_async
from weavent.cli import main
from weavent.domains import FiniteDomain
from weavent.duality import dom_of_es
from weavent.es import EventStructure
from tests._gen import INVALID_EPES, family_es, growing_grammar

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (family, n) -> verb -> sha256 of its stdout, or of the DOT file for emit
PINS = {
    ("B", 10): {
        "check": "737be43a96cd329aae400ba3169487f9699efce535255574a28a0630f664ef19",
        "convert": "9d5ddb9d74f296566b300a1146e5de17a6dba6a672e76e5509a41d78193a0bda",
        "emit": "7abbfa3d76dd7cf2a1bfbb49332c767fb091563dfdff276a458f99602ba54d5f",
    },
    ("L", 4): {
        "check": "b8c374521b65f6fd733411724137435f097563fdd4282942869acf34edf2600e",
        "convert": "b7730af31c70c08f814d404ad721fcda3c428809955e32c6f0e9b8bf4ddda898",
        "emit": "1ba4386f4bcd5cf3b307ca3350b4a7e14d4030055728302eb31ae35d1c2d96a3",
    },
    ("L", 2): {
        "check": "625506b4243079e0d9f7b8c961e99cefcbc03008f290176c15d1b2763813f18a",
        "convert": "dd4f1ae756d429732bcbac43c9e0a1aa4cc7af91ae4c13992974cd670c85fc0a",
        "emit": "4bfaeb33510f31df96d87ddd83a45d075d42e3a4525a48fd225e86bf4f1df271",
    },
}


_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("family, n", sorted(PINS))
def test_es_verbs_print_and_write_the_pinned_bytes(family, n, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = f"{family}{n}.es.json"
    iomod.dump_json(iomod.es_to_json(family_es(family, n)), path)
    got = {}
    code, out = _run(capsys, ["check", "--es", path])
    assert code == 0
    got["check"] = _sha(out)
    code, out = _run(capsys, ["convert", "--es", path, "--to", "domain"])
    assert code == 0
    got["convert"] = _sha(out)
    code, _ = _run(capsys, ["emit", "--es", path, "--out", f"{family}{n}.dot"])
    assert code == 0
    got["emit"] = _sha((tmp_path / f"{family}{n}.dot").read_text(encoding="utf-8"))
    assert got == PINS[family, n]


def test_roundtrip_on_a_thousand_configurations(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    iomod.dump_json(iomod.es_to_json(family_es("B", 10)), "B10.es.json")
    code, out = _run(capsys, ["roundtrip", "--es", "B10.es.json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dom_preserved"] is True
    assert results["connected_fixed_point"] is True


# derive --depth 4 on the growing grammar: --fusion-safe given -> sha256 of stdout
GROWING = {
    False: "247204f425795126a7fbbe395bd78bccb72fcf24b4aa91a0af622f62b1a15d9a",
    True: "5b6d13b515c31fcd1161576f6580c0f5e8bac68be4ac4e6fbdb0f2f6de1f60c3",
}


@pytest.mark.parametrize("fusion_safe", sorted(GROWING))
def test_derive_with_repeated_rules_prints_the_pinned_bytes(fusion_safe, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    iomod.dump_json(iomod.grammar_to_json(growing_grammar()), "growing.grammar.json")
    argv = ["derive", "--grammar", "growing.grammar.json", "--depth", "4"]
    code, out = _run(capsys, argv + ["--fusion-safe"] * fusion_safe)
    assert code == 0
    assert _sha(out) == GROWING[fusion_safe]


# argv -> (sha256 of stdout, sha256 of the file written to the --out path)
WRITTEN = {
    "convert --es e_run.es.json --to domain --out dom.json": (
        "af75ff2cdbb7cdd11f37406c5db5f25ab04c5c4c196441ced93420519d5667cc",
        "1bfbd5be94ab2f2f862e0962c4b6e126355725a6a9b9251f140bbbcee0fac2ff"),
    "convert --es e_run.es.json --to epes --out epes.json": (
        "c3a249a1b473f11d588262363ed5fe07678bb9392a5f9c2c95d7a1b7623a41a5",
        "478b9b3136862bde20944b4490a7d54c3d298e22d2ae436bb6a0b04fd96bcc96"),
    "connect --es e_run.es.json --out conn.es.json": (
        "bd8533e4f8be72448a54e42b755ad42e9723b805c1a28d540bc7df5c4e848200",
        "ac7a618d3cdb2794f611f64a4f637204bf069384916aba2c990033f0e6b99fe4"),
    "synth --es e_run.es.json --out synth.grammar.json": (
        "ac57e25b6384be288e5aede97ed12ca9c28727f852dacbe976b700a124c2e87a",
        "d73fa8b8499f2948067d9a6c258987106fb452e85d1e517861f96371c31a3777"),
    "convert --es L2.es.json --to domain --out dom.json": (
        "19601fc0be838a5e070f14bb8b02d6e54a75689a308e2aec58e593b7c04a5d38",
        "888bb07dc01f5244a0d9f430a0a4d6f02c7934da215634e0fa4b139e1adc2827"),
    "convert --es L4.es.json --to domain --out dom.json": (
        "dbc48c9bdffceb15b58852d4e62546acbdbbdc1a178d44f96d7fc380fd2687f0",
        "cd4f379f065a60182488fa9cc796cba6cc7454e7ae20140c16bdb0d7ee437eee"),
    "convert --es L2.es.json --to epes --out epes.json": (
        "c8185bb5ff03e488aea70e8bb93e86d262aba5de5a86c9101643dff2bf188b16",
        "96bfa505a44a5782834c3f189fc6d46d2c0ec4638991890ad3b9e1da4444bba0"),
    "connect --es L2.es.json --out conn.es.json": (
        "e3937b54ead7e2dfecd54bf1968cb8ef047853a6fe8ead3d5d0ade77f5627e83",
        "805aa1344e4fde679ba68dea478af8c1a6a01b33de9ab339c13136963cb1c9ae"),
    "synth --es L2.es.json --out synth.grammar.json": (
        "f2266c5d8bf95d79ed67914ec3a4a9cce8572babba81ed1fc78802d042ee2158",
        "a22db29aabd92484f9aa08e7a4ff2b3e1e9093c44865b5b94186f5bf6d5dba0c"),
    "derive --grammar fusion.grammar.json --depth 3 --out traces.json": (
        "e561a302be1d2ba4b51b4320b67c9fd20f75b7cae05688dfb9a45eb79f6f00d6",
        "e673ac82014380b87ed7f88770d66702d3d1bc71182f5d5145eab1152438cdda"),
    "derive --grammar fusion.grammar.json --depth 3 --fusion-safe --out safe.json": (
        "3f1bae30c26ab348a26d2398eca18ac14d1f51473978c03c4ab2e164d0e854dd",
        "3826602d91d66af85b301c04d79e0f15e2c052c62db4c77de4caec0c01f239ba"),
    "derive --grammar fusion.grammar.json --depth 3 --format dot --out traces.dot": (
        "dde1e920ccdee81043af2ebbfbb68ade0d445ee39efd51f04daabc135d23625f",
        "09588afd2f09f461869846f668830cce029e119302044cfdfdb7831a7fcca295"),
    "convert --es C8.es.json --to epes --out epes.json": (
        "accae763958b88b025cc60b4cb9272a3b0771898fe5ba61346e3e3c421e3d2ce",
        "0fd2311b5f0cc531eef9d45441f82bb158aa5844e036d89722bf3ee05a7c9e6a"),
    "synth --es C8.es.json --out synth.grammar.json": (
        "4b87e4353077e52afc0d92bce0ca0884d35cdfa58749792f3c2ec7d2b085f35c",
        "2a5c8711a5187ddb9dffb018e328d684560a6aec8a85e926135c64c3fcbbec56"),
    "synth --es X4.es.json --out synth.grammar.json": (
        "2317269499ad38d97e0711031ea5558925fdf7a9a83df74ed90e78c60a655a8b",
        "79fdf431fad095ff795cc9f820a458b50ba86a3b52c491d1ff66a1476e8d51eb"),
    "synth --es e_five.es.json --out synth.grammar.json": (
        "1a1b5fff66daf176fcacd9bf485301c5605a13cc76ce8d23b48ccb2b8ff0c8ed",
        "890a2b3d90335abae6e7e60e0380a986fd385afd43747baa2fdc761984b96a18"),
    "async --async L2.async.json --weak --out async.domain.json": (
        "473a1f52b07a3bd131e695c6cfb794c945f4820ce6b4336f518c2a5265e10c69",
        "974a9545413bb5b8096fecb73a91f4e9efe034a5933843e6f2a7af5736dd98f3"),
    "emit --es L2.es.json --out x.dot": (
        "8740f5e1ee5920b75fc427ab40f2818c8096e1bbfdab262f16c4212514753915",
        "4bfaeb33510f31df96d87ddd83a45d075d42e3a4525a48fd225e86bf4f1df271"),
    "emit --domain quote.domain.json --out x.dot": (
        "d02adc5939caa255d2991740db1ac036ef82315a28e90ba16cc82fb8cb59bc13",
        "45ccb8498d67545bfc17fcb6ed00f8ea4ebd3f1966580a8bc8f034dee0edc493"),
    "emit --async run.async.json --out x.dot": (
        "2e87d3e1ebb500c041a4bf9e785db3111a4ceb353eb47677bdf1e2b20ca85a97",
        "a5b8b0d31963b092a4a9b13927c3cc4f89cb451bbf1a7afddf0d6ff891569d60"),
    "emit --grammar fusion.grammar.json --out x.dot": (
        "8e1b91b2b6bd57dc856b79bfc9fee73d7877573e21f4b6f5b97ba366541c87c1",
        "1e724cac5cf4675c36c11cfc2e0e5a1cfe5d13fc7cde192da283db8348096837"),
}


def _write_inputs(argv):
    for name in ("e_run.es.json", "e_five.es.json", "fusion.grammar.json", "run.async.json"):
        shutil.copyfile(FIXTURES / name, name)
    iomod.dump_json(iomod.es_to_json(family_es("L", 2)), "L2.es.json")
    if "L4.es.json" in argv:
        iomod.dump_json(iomod.es_to_json(family_es("L", 4)), "L4.es.json")
    if "C8.es.json" in argv:
        iomod.dump_json(iomod.es_to_json(family_es("C", 8)), "C8.es.json")
    if "X4.es.json" in argv:
        iomod.dump_json(iomod.es_to_json(family_es("X", 4)), "X4.es.json")
    if "L2.async.json" in argv:
        hasse = hasse_as_async(dom_of_es(family_es("L", 2)))
        iomod.dump_json(iomod.async_to_json(hasse), "L2.async.json")
    # element names that DOT must escape
    dom = FiniteDomain(['a"b', "c\\d", "e f"], [('a"b', "c\\d"), ('a"b', "e f")])
    iomod.dump_json(iomod.domain_to_json(dom), "quote.domain.json")


@pytest.mark.parametrize("argv", sorted(WRITTEN))
def test_written_files_and_reports_keep_the_pinned_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = argv.split()
    _write_inputs(argv)
    code, out = _run(capsys, argv)
    assert code == 0
    written = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
    assert (_sha(out), hashlib.sha256(written).hexdigest()) == WRITTEN[" ".join(argv)]


def _awkward_es() -> EventStructure:
    """Event names that JSON must escape, one of them the text the report
    splices its structure in at."""
    quote, slash, newline, accents, marker = (
        'say "hi"', "back\\slash", "two\nlines", "na\u00efve \u6f22", '"structure": null')
    return EventStructure.binary(
        [quote, slash, newline, accents, marker],
        [(quote, slash), (slash, newline), (slash, marker)],
        [((), quote), ((), slash), ((quote,), newline), ((), accents), ((newline,), marker)])


@pytest.mark.parametrize("verb", [["convert", "--to", "domain"], ["convert", "--to", "epes"],
                                  ["connect"], ["synth"]])
def test_spliced_structure_equals_one_encoding_of_the_report(verb, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.chdir(tmp_path)
    iomod.dump_json(iomod.es_to_json(_awkward_es()), "awkward.es.json")
    out_path = 'out "structure": null.json'
    code, out = _run(capsys, [verb[0], "--es", "awkward.es.json", *verb[1:],
                              "--out", out_path])
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["results"]["written"] == out_path
    written = (tmp_path / out_path).read_text(encoding="utf-8")
    structure = report["results"]["structure"]
    assert written == json.dumps(structure, indent=2, sort_keys=True) + "\n"


# The domain verbs that read an event structure off a domain, pinned while
# ``ev_of_domain`` and ``ev_wd`` still built their structures each in its
# own way and ``zeta`` still walked each cover's irreducible difference.
# argv -> sha256 of stdout, and of the file written to the --out path if any
DOMAIN_READS = {
    "convert --domain run.domain.json --to es --out out.json": (
        "ad81cf2177724cd9e3b997c2013f878079f1374c3e2e11e714dacc2317d5139a",
        "ac7a618d3cdb2794f611f64a4f637204bf069384916aba2c990033f0e6b99fe4"),
    "convert --domain run.domain.json --to epes --out out.json": (
        "2f38091046d5199076f4c76d57d04124e9510e229e0c2dc55410f643ee359f56",
        "7d3314ff037ae5139f2ffaa9e9a0375699b9e2c78ed55aebff0e2d7499c5e3a4"),
    "convert --domain run.domain.json --to es-intervals --out out.json": (
        "54a715070c265e86d856ba3ec99803493aa87ee58fae2f8b11f1711a293b2ebe",
        "21f327d60f8abb16b2f27e15d764c76abdd4edb31a9d39a863291615e1ea685a"),
    "convert --domain split.domain.json --to es --out out.json": (
        "691aaf4246a8f24e30efaa2fd52d63f544315e5fcf0907ca797966ac8c6cdacd",
        "1dbaf12b98828b062e6c9e35766be8c39f7bcc5b7848a819096a18e8f4c41fd0"),
    "convert --domain split.domain.json --to epes --out out.json": (
        "f9b71652363467ced15c7e55ca126397db02ace16ffe5ad5dc639896c0522c86",
        "dcd8d30488beebc751befc6999e54737347ac4c9e7cd58ce35f816d7eb7bf0cf"),
    "convert --domain split.domain.json --to es-intervals --out out.json": (
        "6d46d5591cc1d836732b21af7b0a55236a8356ca400068de8cc73a634e261b5e",
        "e57780d21b73fdcc9421d3f69cb3e0c2d50050a702dfc3ceecb5e3b149d297c3"),
    "convert --domain L2.domain.json --to es --out out.json": (
        "8b877d5edced01836c592b89bf3f1f00aa93c960718443d4766ee330d9253abc",
        "805aa1344e4fde679ba68dea478af8c1a6a01b33de9ab339c13136963cb1c9ae"),
    "convert --domain L2.domain.json --to epes --out out.json": (
        "dfcc007215826e2543c3f18b2cbfd76136c1abd0eb3b086d9cec319d375105dd",
        "45436bbaa265faa769e7544ef775bc35543cdf96689e662a82a4ada30c7c0d1e"),
    "convert --domain L2.domain.json --to es-intervals --out out.json": (
        "1e4c81341eb71f501a93047bb5d054e790eb7ae837a7ffb898aa86986b8aefb7",
        "05042e7574b178831164ae02859304f6c30971fdbe751855a0f004fe13e339c0"),
    "convert --domain B4.domain.json --to es --out out.json": (
        "8a2109da3b6b4d4f65306b9ee5411a79d6bf9b08b5d0534981a8af36bf43ad92",
        "17409e56dc1cdeb28544c3f9dde2a8a16a1d55dc8c71544859a45194db55986b"),
    "convert --domain B4.domain.json --to epes --out out.json": (
        "09d20b0ff46441d1dce4c2bbfdc1a1839884c3a9c166787c50616625a71be247",
        "59e545783273d73ca9b2296321101be3ac5ea5d00a6acf9cecf155a3a2dccb42"),
    "convert --domain B4.domain.json --to es-intervals --out out.json": (
        "45a151092ca4794c3b4f9786d5edc88b69bc257a93e7f50d1ddd9ce983113cac",
        "bb96a5e6d5a9a24e3b00997bba17f229d19741dffc5f8a9e74f4f52301c8b7aa"),
    "convert --domain X3.domain.json --to es --out out.json": (
        "73a0df8a64944d8392d4b2ddf4491bda73cebd15dc494a0dc832db71aa16e1c6",
        "248bf7276c9aa05a436d214a72833a9c580c21a9b89007a49c5d29bcaa370c12"),
    "convert --domain X3.domain.json --to epes --out out.json": (
        "94d6485364f6562579eddaeb95636c4f88a66f758b3c197e26502e2756eb1784",
        "291908b0d9ad0f82d06befdc7de7eb92a5af32e78aaebf166ccb910f78affee6"),
    "convert --domain X3.domain.json --to es-intervals --out out.json": (
        "2e06600479000c9ca9d9f3ac2b18221c59c31c8d3a9ba66f65ed7514a806d83d",
        "244c7ec48215f8feff523cefc286294e9bf22118f75324eb83423c0c05dc5b8c"),
    "convert --domain nontransitive.bdomain.json --to es --out out.json": (
        "7ab7c9ad077d87792699b891c250edd4981dde04f91eb99a23173fe09ff2b233",
        "e25ee6f0aca30710327c40689f696c9b2ac3798dbda863e08a8c6c9c308b5dbe"),
    "roundtrip --domain run.domain.json": (
        "17010aa7f86fb6b99771b991149b8fcbba77cc0b8ac57eb1b1f141401f1893e9",),
    "roundtrip --domain split.domain.json": (
        "9ce5aa041dbdf2c360ad20c456f74af2a3f04bc7d8bc5e133979dc0832f0a820",),
    "roundtrip --domain L2.domain.json": (
        "2df0ce9106d73194954a1c48ad154845c2b4e024ccd5a33bb517c31d13a90cfb",),
}


def _write_domains():
    for name in ("run", "split"):
        shutil.copyfile(FIXTURES / f"{name}.domain.json", f"{name}.domain.json")
    shutil.copyfile(FIXTURES / "nontransitive.bdomain.json", "nontransitive.bdomain.json")
    for family, n in (("L", 2), ("B", 4), ("X", 3)):
        dom = dom_of_es(family_es(family, n))
        iomod.dump_json(iomod.domain_to_json(dom), f"{family}{n}.domain.json")


@pytest.mark.parametrize("argv", sorted(DOMAIN_READS))
def test_domain_reads_keep_the_pinned_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_domains()
    argv = argv.split()
    code, out = _run(capsys, argv)
    assert code == 0
    got = (_sha(out),)
    if "--out" in argv:
        got += (hashlib.sha256((tmp_path / argv[argv.index("--out") + 1]).read_bytes())
                .hexdigest(),)
    assert got == DOMAIN_READS[" ".join(argv)]


def test_roundtrip_on_the_nontransitive_bdomain_exits_on_axiom_r(tmp_path, monkeypatch, capsys):
    """``ev(D)`` builds on this bounded-complete domain, which the pair pass
    finds weak prime, but its 13 configurations are not the domain's 15
    elements, so the unit fails; ``roundtrip`` stops first, at ``ev_wd``,
    whose axiom R fails.  Pinned before the unit was read off the
    certificate."""
    monkeypatch.chdir(tmp_path)
    _write_domains()
    assert main(["roundtrip", "--domain", "nontransitive.bdomain.json"]) == 2
    error = "axiom R fails: ('p13', 'A', 'B')"
    assert capsys.readouterr() == ("", '{\n  "error": "' + error + '"\n}\n')


# roundtrip with every check made to fail -> (exit code, sha256 of stdout),
# pinned while ``roundtrip --domain`` still searched with
# ``poset_isomorphic`` and ``es_isomorphic``, and ``roundtrip --epes`` with
# ``epes_isomorphic`` and ``es_isomorphic``
FAILED_ROUNDTRIPS = {
    "--domain run.domain.json": (
        1, "7e28002f04543692519f9739cd42bd4b70d56cafe55e041ad073f1fa300a747a"),
    "--es e_run.es.json": (
        1, "c44a0bacd839e08a5b4a06905dd849bcbbb7a3b886f5080863c917b3df0a65f8"),
    "--es e_ccs.es.json": (
        1, "44eb873ec2496bd422cc405537deef2295af4474a3880fe4523342b39e6ea862"),
    "--epes unfold_run.epes.json": (
        1, "7fcbc0390016431bc9283f2afd7da1dc952484061e169a97e01a254059c0721a"),
}


@pytest.mark.parametrize("args", sorted(FAILED_ROUNDTRIPS))
def test_failed_roundtrip_checks_are_reported_with_their_witnesses(args, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    cli._SESSION.clear()
    monkeypatch.setattr(domains, "_certify", lambda dom, es: False)
    monkeypatch.setattr(domains, "_certified", lambda dom: False)
    for name in ("_counit_holds", "_es_matches", "_unfold_unit_holds", "_fuse_counit_holds"):
        monkeypatch.setattr(cli, name, lambda *maps: False)
    code, out = _run(capsys, ["roundtrip", *args.split()])
    cli._SESSION.clear()
    assert (code, _sha(out)) == FAILED_ROUNDTRIPS[args]


# roundtrip --epes on an EPES that breaks one axiom -> (exit code, sha256 of
# stdout, sha256 of stderr), pinned while both checks still searched with
# ``epes_isomorphic`` and ``es_isomorphic``
INVALID_EPES_ROUNDTRIPS = {
    "non_prime.epes.json": (
        1, "d36ef7c737a995572ee7e08055cc89baccf70c6fcdebe1820b291e1cddaad27f", _EMPTY),
    "causal_equiv.epes.json": (
        1, "fa78f3f6e0bfa871ca1ffe59caa50ffe595e9670fee2b6ce2376cf73e0ca5731", _EMPTY),
    "concurrent_roots.epes.json": (
        1, "50c0bfd7eb6ca4af97509e12dd97e70ff7e84143a405ec0d4b48c68768370b00", _EMPTY),
    "conflicting_roots.epes.json": (
        1, "4515111d4e8157e5e97a764f726d6988116fb641f04fc639c2f2312b96b75085", _EMPTY),
    "unsaturated.epes.json": (
        1, "927db5244c4d7b68e433bad30b7aa00e995f828c29a0c5f9c91ce750da03f915", _EMPTY),
    "dead.epes.json": (
        2, _EMPTY, "25a9c3f23de1083bcf8593772af53422e0727cad94bcab775ccc56f72c35a95d"),
}


@pytest.mark.parametrize("name", sorted(INVALID_EPES_ROUNDTRIPS))
def test_roundtrip_on_an_invalid_epes_prints_the_pinned_bytes(name, tmp_path, monkeypatch,
                                                              capsys):
    """Five of them fail the unit and pass the counit, exit 1; the dead
    event exits 2 before either check, as ``unfold`` needs a live
    structure."""
    monkeypatch.chdir(tmp_path)
    iomod.dump_json(INVALID_EPES[name], name)
    cli._SESSION.clear()
    code = main(["roundtrip", "--epes", name])
    out, err = capsys.readouterr()
    cli._SESSION.clear()
    assert (code, _sha(out), _sha(err)) == INVALID_EPES_ROUNDTRIPS[name]


# lines the option table does not read, which argparse parses or rejects ->
# (exit code, sha256 of stdout, sha256 of stderr), run in the fixtures
# directory with COLUMNS=80 and pinned while argparse parsed every line
_DERIVE = "derive --grammar fusion.grammar.json"
_RUN_DOMAIN = "eeaff676122c473ff7e6e80beb55f29b5659266da897bee78088dd992e31710b"
ARGPARSE_LINES = {
    "--help": (0, "4051e5dd100fbe878532252feccc199ca1c1ec16f82f19d4b289639b05fec679", _EMPTY),
    "check --help": (
        0, "5d4973b0d67e1dd15556371b43432f5a9b0a09f234cd508b04f269f5d3bebd6e", _EMPTY),
    "": (2, _EMPTY, "cfc80a830a661bfed6d0f3a6157acd6b84d783828ed67e24c6f45fa8c88fab2f"),
    "no-such-verb": (
        2, _EMPTY, "961f0d4960647bc95826647f4de1fb4eae556de07781a644e8dcec7b6adcff90"),
    "check --no-such-flag": (
        2, _EMPTY, "1f196477076d1ca71d1430a89d40e68fe880b4d130bd8d2e4029493a7bdbfcf8"),
    "check --domain run.domain.json --out x": (
        2, _EMPTY, "647ad7fe29a4e48718ec65f0a5d008ef7821d947b552df9391f1949cf5e92e5f"),
    "convert --domain run.domain.json": (
        2, _EMPTY, "8441c511cf21b32bec81324255ecb08e492b5f4a762a92288afaf0923a5f7c11"),
    f"{_DERIVE} --depth abc": (
        2, _EMPTY, "7065b4b3fbfbf0dad9877cea0291bd99e8f1ffdc0b539422841acfe96e14a099"),
    f"{_DERIVE} --depth -1": (
        2, _EMPTY, "2fbd693434cde05728f0668bfbe6c40594e97d6b23b2fc0ac9515b720a1c39be"),
    "check --dom run.domain.json": (0, _RUN_DOMAIN, _EMPTY),
    "check --domain=run.domain.json": (0, _RUN_DOMAIN, _EMPTY),
    # the last --domain wins
    "check --domain chain2.domain.json --domain run.domain.json": (0, _RUN_DOMAIN, _EMPTY),
}


@pytest.mark.parametrize("line", sorted(ARGPARSE_LINES))
def test_lines_argparse_parses_keep_the_pinned_bytes(line, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    assert cli._read_argv(argv) is None
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    cli._SESSION.clear()
    assert (code, _sha(out), _sha(err)) == ARGPARSE_LINES[line]


# async on the Hasse graphs of B_3, X_2 and L_2 -> (exit code, sha256 of
# stdout, sha256 of the domain written to --out), pinned while the upward
# cube and coherence still walked every ordered lower median; L_2 is
# unstable, so without --weak it exits 1 on its downward-cube witness
HASSE_ASYNC = {
    "B3": (
        0, "4a94b9acd8973029f5bf93cc5a742b024ccf035a7d156bb829e84a3946c40441",
        "4df008cded2014a886dfa6e1b2006567810ba0df017a2c24ed6fa0d5b07e7639"),
    "B3 --weak": (
        0, "4a94b9acd8973029f5bf93cc5a742b024ccf035a7d156bb829e84a3946c40441",
        "4df008cded2014a886dfa6e1b2006567810ba0df017a2c24ed6fa0d5b07e7639"),
    "X2": (
        0, "e66e9ecd8e3ad143742b433d33a918012bea17b7f63ed58cf926586de78d0216",
        "c3f148345168891fdcc488f14f2eb2d597f6527eab76b8b8a626b4f68669b4b7"),
    "X2 --weak": (
        0, "e66e9ecd8e3ad143742b433d33a918012bea17b7f63ed58cf926586de78d0216",
        "c3f148345168891fdcc488f14f2eb2d597f6527eab76b8b8a626b4f68669b4b7"),
    "L2": (
        1, "539f47545ab3d717719429f63ea43cef342c6a074be0dc26fe8ad82949656490",
        "974a9545413bb5b8096fecb73a91f4e9efe034a5933843e6f2a7af5736dd98f3"),
    "L2 --weak": (
        0, "5e44692b4d722e7d5cc2184e0745c6a413fabeaa17625329f108dcaba6dbc42e",
        "974a9545413bb5b8096fecb73a91f4e9efe034a5933843e6f2a7af5736dd98f3"),
}


@pytest.mark.parametrize("line", sorted(HASSE_ASYNC))
def test_async_on_hasse_graphs_keeps_the_pinned_bytes(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name, *flags = line.split()
    hasse = hasse_as_async(dom_of_es(family_es(name[0], int(name[1:]))))
    iomod.dump_json(iomod.async_to_json(hasse), "hasse.async.json")
    code, out = _run(capsys, ["async", "--async", "hasse.async.json", *flags,
                              "--out", "dom.json"])
    written = hashlib.sha256((tmp_path / "dom.json").read_bytes()).hexdigest()
    assert (code, _sha(out), written) == HASSE_ASYNC[line]


# a square a;c ~ b;d over the nodes n0..n3
_SQUARE_EDGES = [{"id": "a", "src": "n0", "tgt": "n1"}, {"id": "b", "src": "n0", "tgt": "n2"},
                 {"id": "c", "src": "n1", "tgt": "n3"}, {"id": "d", "src": "n2", "tgt": "n3"}]
_LOOPS = [{"id": "l", "src": "n3", "tgt": "n3"}, {"id": "m", "src": "n3", "tgt": "n3"}]
_NODES = ["n0", "n1", "n2", "n3"]


def _graph(squares, edges=_SQUARE_EDGES, origin="n0", nodes=_NODES):
    return {"nodes": nodes, "edges": edges, "origin": origin, "squares": squares}


# odd async files: name -> (verb and flags, file), the file given as
# ``--async odd.async.json``
ODD_ASYNC_FILES = {
    "a square path given as a string": (
        "async", _graph([[["a", "c"], ["b", "d"]], ["ac", ["b", "d"]]])),
    "integer edge names in a square": ("async", _graph([[[0, 1], [2, 3]]])),
    "integer edge ids": ("async", _graph([], [{"id": 0, "src": "n0", "tgt": "n1"}])),
    "a self-loop square": ("async", _graph([[["l", "l"], ["l", "l"]]], _SQUARE_EDGES + _LOOPS)),
    "a square of two self-loops": (
        "async --weak", _graph([[["l", "m"], ["m", "l"]]], _SQUARE_EDGES + _LOOPS)),
    "a cyclic graph": (
        "check", _graph([], [{"id": "a", "src": "n0", "tgt": "n1"},
                             {"id": "b", "src": "n1", "tgt": "n0"}], nodes=["n0", "n1"])),
    "a square that is not a pair of paths": ("async", _graph([[["a", "d"], ["b", "c"]]])),
    "a square of one path": ("async", _graph([[["a", "c"], ["a", "c"]]])),
    "a square that is not coinitial-cofinal": (
        "async", _graph([[["a", "c"], ["b", "d"]]], _SQUARE_EDGES[:3] + [
            {"id": "d", "src": "n2", "tgt": "n1"}])),
    "a path of three edges": ("async", _graph([[["a", "c", "c"], ["b", "d"]]])),
    "a square of three paths": ("async", _graph([[["a", "c"], ["b", "d"], ["a", "c"]]])),
    "a square naming an unknown edge": ("async", _graph([[["a", "c"], ["b", "x"]]])),
    "a bad square before a malformed one": (
        "async", _graph([[["a", "d"], ["b", "c"]], [["a"], ["b", "d"]]])),
    "a bad square and a duplicate edge": (
        "async", _graph([[["a", "d"], ["b", "c"]]], _SQUARE_EDGES + _SQUARE_EDGES[:1])),
    "a bad square and an unknown endpoint": (
        "async", _graph([[["a", "d"], ["b", "c"]]], _SQUARE_EDGES + [
            {"id": "e", "src": "n0", "tgt": "n9"}])),
    "a bad square and an origin that is not a string": (
        "async", _graph([[["a", "d"], ["b", "c"]]], origin=0)),
    "a bad square and an unknown origin": (
        "async", _graph([[["a", "d"], ["b", "c"]]], origin="n9")),
    "two bad squares": (
        "async", _graph([[["a", "c"], ["b", "c"]], [["a", "d"], ["b", "c"]]])),
    "squares that are not a list": ("async", _graph({"a": "c"})),
}

# name -> (exit code, sha256 of stdout, stderr), pinned while ``io._square``
# checked each square's shape and ``AsyncGraph.build`` its paths
ODD_ASYNC = {
    "a bad square and a duplicate edge": (
        2, _EMPTY,
        '{\n  "error": "duplicate edge id \'a\'"\n}\n'),
    "a bad square and an origin that is not a string": (
        2, _EMPTY,
        '{\n  "error": "origin: expected a string"\n}\n'),
    "a bad square and an unknown endpoint": (
        2, _EMPTY,
        '{\n  "error": "edge \'e\' has unknown endpoints"\n}\n'),
    "a bad square and an unknown origin": (
        2, _EMPTY,
        '{\n  "error": "unknown origin \'n9\'"\n}\n'),
    "a bad square before a malformed one": (
        2, _EMPTY,
        '{\n  "error": "squares[1]: expected a pair of 2-edge paths"\n}\n'),
    "a cyclic graph": (
        1, "6e63005a1dac05c98684eb8bcd5232588fc07424bd8aa9ffab7f304834a005b2",
        ''),
    "a path of three edges": (
        2, _EMPTY,
        '{\n  "error": "squares[0]: expected a pair of 2-edge paths"\n}\n'),
    "a self-loop square": (
        2, _EMPTY,
        '{\n  "error": "square [(\'l\', \'l\')] does not name two distinct paths"\n}\n'),
    "a square naming an unknown edge": (
        2, _EMPTY,
        '{\n  "error": "square [(\'a\', \'c\'), (\'b\', \'x\')] '
        'is not a pair of length-2 paths"\n}\n'),
    "a square of one path": (
        2, _EMPTY,
        '{\n  "error": "square [(\'a\', \'c\')] does not name two distinct paths"\n}\n'),
    "a square of three paths": (
        2, _EMPTY,
        '{\n  "error": "squares[0]: expected a pair of 2-edge paths"\n}\n'),
    "a square of two self-loops": (
        1, "e1f234dfb17a67b5780aafe603c5179914705dba2e3ad3d6bc2f714e3f0f1483",
        ''),
    "a square path given as a string": (
        2, _EMPTY,
        '{\n  "error": "squares[1]: expected a list of strings"\n}\n'),
    "a square that is not a pair of paths": (
        2, _EMPTY,
        '{\n  "error": "square [(\'a\', \'d\'), (\'b\', \'c\')] '
        'is not a pair of length-2 paths"\n}\n'),
    "a square that is not coinitial-cofinal": (
        2, _EMPTY,
        '{\n  "error": "square [(\'a\', \'c\'), (\'b\', \'d\')] is not coinitial-cofinal"\n}\n'),
    "integer edge ids": (
        2, _EMPTY,
        '{\n  "error": "edges[0].id: expected a string"\n}\n'),
    "integer edge names in a square": (
        2, _EMPTY,
        '{\n  "error": "squares[0]: expected a list of strings"\n}\n'),
    "squares that are not a list": (
        2, _EMPTY,
        '{\n  "error": "squares: expected a list"\n}\n'),
    "two bad squares": (
        2, _EMPTY,
        '{\n  "error": "square [(\'a\', \'c\'), (\'b\', \'c\')] '
        'is not a pair of length-2 paths"\n}\n'),
}


@pytest.mark.parametrize("name", sorted(ODD_ASYNC_FILES))
def test_odd_async_files_keep_the_pinned_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    line, obj = ODD_ASYNC_FILES[name]
    iomod.dump_json(obj, "odd.async.json")
    verb, *flags = line.split()
    code = main([verb, "--async", "odd.async.json", *flags])
    out, err = capsys.readouterr()
    assert (code, _sha(out), err) == ODD_ASYNC[name]
