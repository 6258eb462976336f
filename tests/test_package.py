"""The package's source as a whole: every import is used, every export resolves."""

import ast
import glob
import importlib
import os

import pytest

import ectorsion

PACKAGE = os.path.dirname(os.path.abspath(ectorsion.__file__))
MODULES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))


def _module_name(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    return "ectorsion" if stem == "__init__" else "ectorsion." + stem


def _names_read(tree):
    """Every name the module reads.  A name listed in ``__all__`` counts as
    read, so a re-export (all of ``__init__.py``'s imports) is a use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = _names_read(tree)
    return [f"{os.path.basename(path)}:{line} {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def test_every_imported_name_is_used():
    unused = []
    for path in MODULES:
        unused += _unused_imports(path)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_exported_name_resolves_once(path):
    module = importlib.import_module(_module_name(path))
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
