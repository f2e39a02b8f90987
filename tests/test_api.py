"""The package's public name list."""

import fermigraph


def test_all_names_resolve_without_duplicates():
    names = fermigraph.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(fermigraph, n)]
    assert missing == []

