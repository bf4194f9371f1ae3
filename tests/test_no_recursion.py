"""No function in the package calls itself.

Exhaustive searches run on ``_common.backtrack`` and walks use explicit
stacks, so no verdict depends on the interpreter's recursion limit.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weavent"


def self_calls(source: str):
    """Names of the functions in ``source`` that call themselves by name,
    directly or as ``self.name``/``cls.name``, each once, in source order."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                found.append(fn.name)
                break
    return found


def test_detector_flags_direct_and_method_recursion():
    source = '''
def fact(n):
    return 1 if n == 0 else n * fact(n - 1)

class Tree:
    def size(self):
        return 1 + sum(c.size() for c in self.kids) + self.size()

def outer():
    def walk(k):
        return [] if not k else walk(k - 1)
    return walk(3)

def flat(xs):
    return sorted(xs)
'''
    assert sorted(self_calls(source)) == ["fact", "size", "walk"]


def test_no_function_calls_itself():
    offenders = [f"{path.stem}.{name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in self_calls(path.read_text(encoding="utf-8"))]
    assert offenders == []
