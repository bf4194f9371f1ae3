"""The bytes the ``--es`` verbs print and write, pinned on B_10 and L_2.

The digests were taken before the event-structure layer moved to masks, so
any change in what ``check``, ``convert --to domain`` or ``emit`` produce
shows up here.  ``roundtrip`` on B_10 runs the CLI through more than a
thousand configurations.
"""

import hashlib
import json

import pytest

from weavent import io as iomod
from weavent.cli import main
from tests._gen import family_es

# (family, n) -> verb -> sha256 of its stdout, or of the DOT file for emit
PINS = {
    ("B", 10): {
        "check": "737be43a96cd329aae400ba3169487f9699efce535255574a28a0630f664ef19",
        "convert": "9d5ddb9d74f296566b300a1146e5de17a6dba6a672e76e5509a41d78193a0bda",
        "emit": "7abbfa3d76dd7cf2a1bfbb49332c767fb091563dfdff276a458f99602ba54d5f",
    },
    ("L", 2): {
        "check": "625506b4243079e0d9f7b8c961e99cefcbc03008f290176c15d1b2763813f18a",
        "convert": "dd4f1ae756d429732bcbac43c9e0a1aa4cc7af91ae4c13992974cd670c85fc0a",
        "emit": "4bfaeb33510f31df96d87ddd83a45d075d42e3a4525a48fd225e86bf4f1df271",
    },
}


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
