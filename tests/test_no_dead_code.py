"""Every function, method and class of the package is used somewhere, and
every name a module imports is used in that module.

A definition counts as used when its name occurs as a name, an attribute or
an imported name anywhere in the package, the tests or the demos; an export
from ``weavent/__init__.py`` is such an import.  Dunder methods are called
by the interpreter and are exempt.  An import counts as used when the name
it binds occurs as a name in its module; the imports of ``__init__.py``
are its exports, and ``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weavent"


def definitions(source: str):
    """Names of the functions, methods and classes defined in ``source``,
    dunders left out, in source order."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def uses(source: str):
    """The names ``source`` refers to: names, attributes and imported names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def unused(defining, using):
    """``module.name`` for each definition in the ``defining`` sources (a
    mapping from module name to source) that no ``using`` source refers to."""
    used = set().union(*(uses(source) for source in using))
    return [f"{module}.{name}" for module, source in defining.items()
            for name in definitions(source) if name not in used]


def test_detector_flags_names_used_nowhere():
    lib = '''
class Kept:
    def used_method(self):
        return helper()

    def dead_method(self):
        return 1

    def __repr__(self):
        return "Kept"

def helper():
    return 2

def exported():
    return 3

def dead():
    return 4

class DeadClass:
    pass
'''
    user = '''
from lib import exported as public, Kept
Kept().used_method()
'''
    # ``exported`` is used by its import alone; ``__repr__`` is exempt
    assert sorted(unused({"lib": lib}, [lib, user])) == [
        "lib.DeadClass", "lib.dead", "lib.dead_method"]


def test_every_definition_is_used():
    defining = {path.stem: path.read_text(encoding="utf-8")
                for path in sorted(PACKAGE.glob("*.py"))}
    using = list(defining.values()) + [
        path.read_text(encoding="utf-8")
        for folder in ("tests", "demos") for path in sorted((ROOT / folder).glob("*.py"))]
    assert unused(defining, using) == []


def unused_imports(source: str):
    """The names ``source`` imports and never refers to."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    return [name for name in bound if name not in used]


def test_detector_flags_imports_used_nowhere():
    source = '''
from __future__ import annotations
import os.path
import json as j
from .duality import dom_of_es, poset_isomorphic
from . import domains as dommod

def roundtrip(value):
    """poset_isomorphic is named only here, in a string."""
    return dommod._certified(value) and os.path.exists(dom_of_es(value))
'''
    assert unused_imports(source) == ["j", "poset_isomorphic"]


def test_every_import_is_used():
    unused = {path.stem: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {module: names for module, names in unused.items() if names} == {}
