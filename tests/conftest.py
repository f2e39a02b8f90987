"""Shared test helpers: tiny dense matrices, random graph generation and
the per-pair reference router."""

import heapq
from typing import List, Tuple

import numpy as np
import pytest

from fermigraph.errors import RoutingError

from fermigraph.graph import SystemGraph

I2 = np.eye(2, dtype=complex)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
YM = np.array([[0, -1j], [1j, 0]], dtype=complex)
ZM = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER_MATS = {"I": I2, "X": XM, "Y": YM, "Z": ZM}


def label_matrix(label: str, n: int) -> np.ndarray:
    """Dense matrix of a 1-based letter label like "X1 Z3", independent of
    the package's symplectic representation."""
    letters = ["I"] * n
    if label.strip() not in ("", "I"):
        for tok in label.split():
            letters[int(tok[1:]) - 1] = tok[0].upper()
    m = np.eye(1, dtype=complex)
    for c in letters:
        m = np.kron(m, LETTER_MATS[c])
    return m


def string_matrix(p) -> np.ndarray:
    """Dense matrix of a PauliString via its textual form."""
    return p.label_coefficient() * label_matrix(p.ops_label(), p.n)


def random_connected_graph(rng, max_vertices=10, max_edges=20) -> SystemGraph:
    """Random connected multigraph with ascending-id ports."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    extra = int(rng.integers(0, max_edges - n + 2))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b and len(edges) < max_edges:
            edges.append((min(int(a), int(b)), max(int(a), int(b))))
    return SystemGraph.from_edges(edges, n_vertices=n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reference_route(enc, j: int, k: int) -> List[int]:
    """The per-pair Dijkstra that ``Router`` replaced, kept as its
    reference: one fresh search from j with k absorbing.  Edge sequence
    from j to k minimizing the routing cost: endpoint single-operator
    weights plus, at each interior vertex, the weight of the local
    operator pair its ports contribute.  Ties break to the
    lexicographically smallest vertex sequence."""
    g = enc.graph
    if j not in g or k not in g:
        raise RoutingError(f"unknown endpoint {j if j not in g else k}")
    adj = g.adjacency()

    def single_w(v: int, eidx: int) -> int:
        return enc.local_bases[v].ops[g.port_of_edge(v, eidx)].weight()

    heap: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
    for eidx, u in sorted(adj[j]):
        w = single_w(j, eidx)
        if u == k:
            w += single_w(k, eidx)
        heapq.heappush(heap, (w, (j, u), (eidx,)))
    seen: set = set()
    while heap:
        w, verts, edges = heapq.heappop(heap)
        v, e_in = verts[-1], edges[-1]
        if v == k:
            return list(edges)
        if (v, e_in) in seen:
            continue
        seen.add((v, e_in))
        pw = enc.local_bases[v].pair_weights
        p_in = g.port_of_edge(v, e_in)
        for e_out, u in sorted(adj[v]):
            if e_out == e_in or (u, e_out) in seen:
                continue
            step = pw[p_in][g.port_of_edge(v, e_out)]
            if u == k:
                step += single_w(k, e_out)
            heapq.heappush(heap, (w + step, verts + (u,), edges + (e_out,)))
    raise RoutingError(f"no path between {j} and {k}")
