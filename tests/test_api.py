"""The package's public name list and what importing it loads."""

import os
import subprocess
import sys

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
