"""Every definition in src/ has a caller outside the tests: a module-level
function or class, or a public method of RootDatum, is referenced somewhere
in src/ or bench/ other than its own body, or weylcalc exports it.  Code
that only tests reach belongs in the tests."""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "weylcalc")
BENCH = os.path.join(ROOT, "bench")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _references(node):
    """Names, attributes and imported names under node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name] += 1
    return refs


def _definitions(tree):
    """(name, node) of each module-level function and class, and of each
    public method of RootDatum."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and node.name == "RootDatum":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield method.name, method


def test_every_definition_has_a_caller_outside_the_tests():
    init = os.path.join(PKG, "__init__.py")
    modules = sorted(p for p in glob.glob(os.path.join(PKG, "*.py")) if p != init)
    trees = {path: _parse(path) for path in modules + sorted(glob.glob(os.path.join(BENCH, "*.py")))}
    assert len(trees) > len(modules), "bench/ was not found"
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    exported = {alias.name for node in _parse(init).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unreached = [
        f"{os.path.basename(path)}:{name}"
        for path in modules
        for name, node in _definitions(trees[path])
        if name not in exported and refs[name] - _references(node)[name] == 0
    ]
    assert unreached == []
