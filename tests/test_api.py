"""The package's public name list and what importing it loads."""

import os
import subprocess
import sys

import fermigraph


def test_all_names_resolve_without_duplicates():
    names = fermigraph.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(fermigraph, n)]
    assert missing == []



def test_import_leaves_scipy_out():
    """The package is numpy-only: a fresh import must not load scipy,
    whose import would add to every process's start-up time."""
    src = os.path.dirname(os.path.dirname(fermigraph.__file__))
    code = "import sys, fermigraph; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "False"
