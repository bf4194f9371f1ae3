"""One cache mechanism and one JSON writer in the package.

What is derived from a structure is kept on it by ``_common._once``, so no
``lru_cache`` holds structures beyond their life.  JSON text is made by
``io.dumps`` alone, and files are written by ``io.write_text`` alone, so
every report and file has one format and every write failure one exit code.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weavent"


def findings(source: str):
    """``(what, function)`` for each ``lru_cache`` mention, ``json`` import,
    ``json.dump``/``json.dumps`` call and ``open(..., "w")`` call in
    ``source``; ``function`` is the innermost enclosing function, or None."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Name) and node.id == "lru_cache" or (
                isinstance(node, ast.Attribute) and node.attr == "lru_cache") or (
                isinstance(node, ast.alias) and node.name == "lru_cache"):
            found.append(("lru_cache", fn))
        elif isinstance(node, ast.Import) and any(a.name == "json" for a in node.names) or (
                isinstance(node, ast.ImportFrom) and node.module == "json"):
            found.append(("import json", fn))
        elif isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
                    and isinstance(f.value, ast.Name) and f.value.id == "json"):
                found.append(("json." + f.attr, fn))
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if isinstance(f, ast.Name) and f.id == "open" and any(
                    isinstance(m, ast.Constant) and "w" in str(m.value) for m in modes):
                found.append(("open for writing", fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_detector_flags_caches_encoders_and_writes():
    source = '''
import json
from functools import lru_cache

@lru_cache(maxsize=None)
def table(x):
    return json.dumps(x)

def save(path, text):
    with open(path, "w") as fh:
        json.dump(text, fh)
    with open(path, mode="wb") as fh:
        pass
    with open(path) as fh:
        return fh.read()
'''
    assert findings(source) == [
        ("import json", None), ("lru_cache", None), ("json.dumps", "table"),
        ("lru_cache", "table"), ("open for writing", "save"), ("json.dump", "save"),
        ("open for writing", "save")]


def test_one_cache_one_encoder_one_writer():
    found = {f"{path.stem}: {what} in {fn}"
             for path in sorted(PACKAGE.glob("*.py"))
             for what, fn in findings(path.read_text(encoding="utf-8"))}
    assert found == {"io: import json in None", "io: json.dumps in dumps",
                     "io: open for writing in write_text"}
