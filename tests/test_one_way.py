"""One way to keep what is derived from a structure, one JSON writer in
the package, and no shadowed module names.

What is derived from a structure is kept on it by ``_common.once``, under
the function that computes it, never under a string; ``rewrite._matches``
keeps the matches of a list of patterns under that list.  There are two
other caches: ``FiniteDomain``'s order tables are ``cached_property``
attributes of the domain, and ``cli.build_parser`` keeps the parser under
``functools.cache``.  The one store that outlives a command is the batch
session, ``cli._SESSION``, which holds at most one structure per input
kind; no ``lru_cache`` or ``functools.cache`` holds structures beyond
their life.  JSON text is made by ``io.dumps`` alone, and
files are written by ``io.write_text`` alone, so every report and file has
one format and every write failure one exit code.  ``io`` names a bad
list item in its list reader alone, and turns a constructor's
``ValueError`` into a ``SchemaError`` in one wrapper.
No function binds a name that its module binds at top level, so every
function in a module reads one meaning of each module name.  Every
exhaustive oracle, the isomorphism searches among them, lives in
``oracles``, which no other module imports at top level, so the command
line compiles fast paths only.  The records
are plain classes on ``_common.Record``, and the private tables plain
classes too: nothing generates code for a class at import (no
``dataclass``, no ``NamedTuple``), and ``import weavent.cli`` loads
neither ``dataclasses`` nor ``inspect``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weavent"


def findings(source: str):
    """``(what, function)`` for each ``lru_cache`` or ``cache`` mention,
    ``json`` import, ``json.dump``/``json.dumps`` call and ``open(..., "w")``
    call in ``source``; ``function`` is the innermost enclosing function, or
    None."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in ("lru_cache", "cache"):
            found.append((name, fn))
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
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def table(x):
    return json.dumps(x)

@functools.cache
def parser():
    return cache

def save(path, text):
    with open(path, "w") as fh:
        json.dump(text, fh)
    with open(path, mode="wb") as fh:
        pass
    with open(path) as fh:
        return fh.read()
'''
    assert findings(source) == [
        ("import json", None), ("cache", None), ("lru_cache", None),
        ("json.dumps", "table"), ("lru_cache", "table"), ("cache", "parser"),
        ("cache", "parser"), ("open for writing", "save"), ("json.dump", "save"),
        ("open for writing", "save")]


def test_one_cache_one_encoder_one_writer():
    found = {f"{path.stem}: {what} in {fn}"
             for path in sorted(PACKAGE.glob("*.py"))
             for what, fn in findings(path.read_text(encoding="utf-8"))}
    assert found == {"cli: cache in build_parser", "io: import json in None",
                     "io: json.dumps in dumps", "io: open for writing in write_text"}


def string_keys(source: str):
    """``(what, function)`` for each call of ``_once``, and each subscript,
    ``in`` test or ``pop`` of a ``_derived`` attribute with a string
    constant, in ``source``; ``function`` is the innermost enclosing
    function, or None."""
    found = []

    def derived(node):
        return isinstance(node, ast.Attribute) and node.attr == "_derived"

    def text(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", getattr(f, "attr", None)) == "_once":
                found.append(("_once", fn))
            elif (isinstance(f, ast.Attribute) and f.attr == "pop" and derived(f.value)
                    and node.args and text(node.args[0])):
                found.append(("pop", fn))
        elif isinstance(node, ast.Subscript) and derived(node.value) and text(node.slice):
            found.append(("subscript", fn))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            found.extend(("in", fn) for left, op, right in zip(sides, node.ops, sides[1:])
                         if isinstance(op, (ast.In, ast.NotIn)) and text(left) and derived(right))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_detector_flags_once_calls_and_string_keys():
    source = '''
def primes(dom):
    return _once(dom, "primes", _find_primes)

def seed(dom, es, key):
    dom._derived["certified"] = True
    if "table" not in es._derived and "x" in es.other and key in es._derived:
        es._derived.pop("index", None)
    es._derived.pop(_index, None)
    return dom._derived[_certified], weavent._common._once(es, "t", f)

covers = lambda d: (d._derived["covers"], 0 < len(d._derived) < 2)
'''
    assert string_keys(source) == [
        ("_once", "primes"), ("subscript", "seed"), ("in", "seed"), ("pop", "seed"),
        ("_once", "seed"), ("subscript", None)]


def test_nothing_is_kept_under_a_string():
    found = [f"{path.stem}: {what} in {fn}"
             for path in sorted(PACKAGE.glob("*.py"))
             for what, fn in string_keys(path.read_text(encoding="utf-8"))]
    assert found == []


def handlers(source: str):
    """``(exception, function)`` for each exception name that an ``except``
    clause in ``source`` catches; ``function`` is the innermost enclosing
    function, or None."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.extend((c.id, fn) for c in caught if isinstance(c, ast.Name))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_detector_flags_each_caught_exception():
    source = '''
try:
    import fast
except ImportError:
    fast = None

def load(path):
    try:
        return read(path)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(str(exc))
    except OSError:
        def retry():
            try:
                return read(path)
            except SchemaError:
                return None
        return retry()
'''
    assert handlers(source) == [("ImportError", None), ("ValueError", "load"),
                                ("RecursionError", "load"), ("OSError", "load"),
                                ("SchemaError", "retry")]


def test_io_names_items_and_wraps_constructor_errors_in_one_place_each():
    # a bad list item is named by the list reader alone, and a constructor's
    # or validator's ValueError becomes a SchemaError in the one wrapper
    # (and, for a file that is no JSON, where the text is decoded)
    found = handlers((PACKAGE / "io.py").read_text(encoding="utf-8"))
    assert [fn for name, fn in found if name == "SchemaError"] == ["_items"]
    assert [fn for name, fn in found if name == "ValueError"] == ["_built", "parse_bytes"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCTIONS + (ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def shadowed(source: str):
    """``(function, name)`` for each name that a function binds by
    assignment, loop target, comprehension or parameter while its module
    binds it at top level (by assignment, import, ``def`` or ``class``)."""
    tree = ast.parse(source)
    top = set()

    def bind_top(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top.add(node.name)
        elif isinstance(node, ast.alias):
            top.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            top.add(node.id)
        if not isinstance(node, SCOPES):
            for child in ast.iter_child_nodes(node):
                bind_top(child)

    found = []

    def visit(node, fn):
        if isinstance(node, FUNCTIONS):
            fn = getattr(node, "name", "<lambda>")
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            found.extend((fn, p.arg) for p in params if p.arg in top)
        elif fn and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                and node.id in top:
            found.append((fn, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    bind_top(tree)
    visit(tree, None)
    return found


def test_detector_flags_function_bindings_of_module_names():
    source = '''
import os.path
from itertools import chain as link, product
LIMIT = 3
squares = [n * n for n in range(LIMIT)]

class Box:
    size = LIMIT

    def grow(self, product=None):
        Box = self
        return [link for link in ()], {os: 1 for os in ()}

def walk(xs, *Box, **kw):
    for squares, n in xs:
        LIMIT = n
    return lambda walk: (n := walk)
'''
    assert shadowed(source) == [
        ("grow", "product"), ("grow", "Box"), ("grow", "link"), ("grow", "os"),
        ("walk", "Box"), ("walk", "squares"), ("walk", "LIMIT"), ("<lambda>", "walk")]


def test_no_function_shadows_a_module_name():
    found = [f"{path.stem}.{fn}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for fn, name in shadowed(path.read_text(encoding="utf-8"))]
    assert found == []


def is_oracle(name: str) -> bool:
    return name.endswith("_by_definition") or name in (
        "interchangeable_via_compacts", "_origin_path_classes", "pushout",
        "_es_signature", "_bijections", "_es_isomorphisms", "es_isomorphic",
        "poset_isomorphic", "epes_isomorphic")


def test_only_oracles_defines_or_imports_an_oracle():
    defined, imported = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and is_oracle(node.name)}
        # an import inside a function (``Colimit._names``) runs on use only
        imported |= {f"{path.stem}: {node.module}" for node in tree.body
                     if isinstance(node, ast.ImportFrom) and (node.module == "oracles" or any(
                         is_oracle(alias.name) or alias.name == "oracles"
                         for alias in node.names))}
    assert {name.split(".")[0] for name in defined} == {"oracles"}
    assert imported == set()


def modules_loaded_by_the_command_line():
    """The names in ``sys.modules`` after ``import weavent.cli`` in a fresh
    interpreter."""
    code = "import sys, weavent.cli; print(*sorted(sys.modules))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          check=True).stdout.split()


def test_the_command_line_loads_every_layer_and_no_oracle():
    # perfbench/tracer.py wraps the functions of each module in its LAYERS
    # after ``import weavent.cli``, so each of them must be loaded by then
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    loaded = modules_loaded_by_the_command_line()
    assert "weavent.oracles" not in loaded
    assert [layer for layer in layers if f"weavent.{layer}" not in loaded] == []


TRACED = ("domains.primes", "domains.weak_primes", "intervals.check_axioms", "es.classify",
          "duality.dom_of_es")


def test_the_tracer_wraps_the_functions_kept_once():
    # ``Tracer.install`` wraps a public function only where its
    # ``__module__`` is its layer's, so ``once`` must carry it over
    paths = [str(ROOT / "perfbench"), str(PACKAGE.parent)]
    domain, es = (str(ROOT / "fixtures" / name) for name in ("run.domain.json", "e_run.es.json"))
    code = f"""
import contextlib, io, json, sys
sys.path[:0] = {paths!r}
import weavent.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["check", "--domain", {domain!r}], ["axioms", "--domain", {domain!r}],
                 ["roundtrip", "--es", {es!r}]):
        weavent.cli.main(argv)
print(json.dumps([tracer.stats.get(name, {{}}).get("calls", 0) for name in {TRACED!r}]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    calls = dict(zip(TRACED, json.loads(out)))
    assert [name for name, n in calls.items() if n < 1] == []


def modules_mentioning(word: str):
    return [path.name for path in sorted(PACKAGE.glob("*.py"))
            if word in path.read_text(encoding="utf-8")]


def test_no_module_mentions_dataclass():
    assert modules_mentioning("dataclass") == []


def test_no_module_mentions_namedtuple():
    assert modules_mentioning("NamedTuple") == []


def test_the_command_line_loads_no_code_generator():
    loaded = modules_loaded_by_the_command_line()
    assert "weavent.cli" in loaded
    assert [name for name in ("dataclasses", "inspect") if name in loaded] == []
