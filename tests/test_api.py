"""The package's public name list and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fermigraph

#: Every module a compile runs: ``import fermigraph`` loads each of them.
COMPILE_PATH = ("pauli", "graph", "geometries", "localbasis", "encoding",
                "fermion", "transform", "analytics")


def test_all_names_resolve_without_duplicates():
    """Every public name resolves, ``dense_oracle_check`` (bound on first
    use) to the one function of ``fermigraph.dense``, and a star import
    binds them all."""
    names = fermigraph.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(fermigraph, n)]
    assert missing == []
    assert fermigraph.dense_oracle_check is fermigraph.dense.dense_oracle_check
    scope = {}
    exec("from fermigraph import *", scope)
    assert set(names) <= set(scope)


def loaded_after(statement):
    """The ``sys.modules`` names after ``statement`` in a fresh interpreter
    that reads fermigraph from this source tree."""
    src = os.path.dirname(os.path.dirname(fermigraph.__file__))
    code = f"import sys; {statement}; print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return set(out.stdout.split())


def test_import_leaves_scipy_out():
    """The package is numpy-only: a fresh import must not load scipy,
    whose import would add to every process's start-up time."""
    assert "scipy" not in loaded_after("import fermigraph")


def test_import_leaves_numpy_out():
    """Nothing a compile runs needs numpy: it and the dense oracle load on
    first use, so neither the package nor the command line pays for them
    at start-up, while every compile-path module is loaded up front."""
    for statement in ("import fermigraph", "import fermigraph.cli"):
        loaded = loaded_after(statement)
        assert "numpy" not in loaded, statement
        assert "fermigraph.dense" not in loaded, statement
        missing = [m for m in COMPILE_PATH if f"fermigraph.{m}" not in loaded]
        assert missing == [], statement


def test_modules_use_every_name_they_import():
    """No module of the package imports a name it never reads: each
    imported name appears as a name in the module's code, or in its
    ``__all__``.  This stands in for a linter's unused-import rule when a
    helper moves between modules."""
    unused = []
    for path in sorted(Path(fermigraph.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            imported.update(dict.fromkeys(names, node.lineno))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def decorated(node, name, **keywords):
    """Whether ``node`` carries the decorator ``name``, bare, dotted or
    called, and when called with at least ``keywords`` as constants."""
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) != name:
            continue
        given = {k.arg: getattr(k.value, "value", None) for k in getattr(d, "keywords", ())}
        if all(given.get(k) == v for k, v in keywords.items()):
            return True
    return False


def test_frozen_dataclasses_keep_no_memo():
    """No method of a ``@dataclass(frozen=True)`` class in the package is a
    ``cached_property``: such a memo writes into the instance dict, so a
    value that compares equal no longer pickles the same.  This stands in
    for a lint rule, like the unused-import check above."""
    memos = []
    for path in sorted(Path(fermigraph.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and decorated(cls, "dataclass", frozen=True):
                memos += [
                    f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and decorated(node, "cached_property")
                ]
    assert memos == []


def test_private_helpers_are_read():
    """Every module-level function, class or assignment of the package
    whose name starts with ``_`` (dunders aside) is read somewhere in the
    package outside its own definition: as a name, an attribute or an
    imported name.  A helper whose last caller went away fails this, as a
    linter's dead-code rule would, and so does one that only calls itself."""
    defined, read = {}, set()
    for path in sorted(Path(fermigraph.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((n, f"{path.name}:{node.lineno} {n}") for n in names
                           if n.startswith("_") and not n.startswith("__"))
        for top in tree.body:
            own = getattr(top, "name", None)  # a def reading its own name is no reader
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id != own:
                        read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(a.name for a in node.names)
    assert sorted(where for name, where in defined.items() if name not in read) == []
