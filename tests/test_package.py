"""The package's source as a whole: every import is used, every export resolves,
every module-level name is read."""

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


PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _defined(tree):
    """(name, line) of every module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def _reads(tree):
    """(names this module reads by ast.Name, names any module may read):
    the second holds every name an import, an ast.Attribute or a string
    constant reads, since perfbench/spans.py looks names up by string."""
    local, shared = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            local.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            shared.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            shared.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            shared.add(node.value)
    return local, shared


def test_every_module_level_name_is_read():
    """A module-level function, class or assignment of the package is read
    somewhere in src/ or perfbench/, or is listed in its module's __all__:
    no dead name is left behind when its last caller goes.  A bare name
    reads its own module's; __all__ is the export list itself, and
    __version__ is read by packaging tools."""
    trees, reads = {}, {}
    for path in MODULES + sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
        reads[path] = _reads(trees[path])
    shared = {"__all__", "__version__"}.union(*(s for _, s in reads.values()))
    dead = []
    for path in MODULES:
        exported = set(getattr(importlib.import_module(_module_name(path)), "__all__", ()))
        dead += [f"{os.path.basename(path)}:{line} {name}" for name, line in _defined(trees[path])
                 if name not in reads[path][0] | shared | exported]
    assert dead == []


def test_family_constructors_have_one_home():
    """Only families.py defines a name ending in ``_new``, and only
    __init__.py imports one, to export it: every other module reaches a
    constructor through ``families.FAMILIES``, so a new family is one entry
    there."""
    misplaced = []
    for path in MODULES:
        base = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and base != "__init__.py":
                names = [a.name for a in node.names]
            elif base == "families.py":
                continue
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            misplaced += [f"{base}:{node.lineno} {n}" for n in names if n.endswith("_new")]
    assert misplaced == []


def test_one_element_class():
    """``field.FieldElement`` is the package's one element class: no other class
    defines arithmetic operators.  A value of K_g is a coordinate pair, and a
    root triple is three elements of K."""
    operators = {"__add__", "__mul__", "__truediv__", "__pow__"}
    defining = []
    for path in MODULES:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                names |= {t.id for n in node.body if isinstance(n, ast.Assign)
                          for t in n.targets if isinstance(t, ast.Name)}
                if names & operators:
                    defining.append(f"{os.path.basename(path)} {node.name}")
    assert defining == ["field.py FieldElement"]
