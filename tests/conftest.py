"""Shared test helpers: tiny dense matrices, the kron-chain fermionic
reference matrices, random graph generation, the per-pair reference router,
the whole-register reference tables, the pairwise reference algebra check,
the unsummed reference oracle entries and the ungauged reference oracle."""

import heapq
from functools import reduce
from operator import mul
from typing import List, Tuple

import numpy as np
import pytest

from fermigraph.analytics import SWEEP_GEOMETRIES
from fermigraph.dense import (
    _IPOW,
    _block_entries,
    _eigvalsh_by_components,
    _index_order,
    _orbits,
    _parity,
    _phase_exponents,
    _reference_entries,
    even_sector_states,
)
from fermigraph.encoding import verify_encoding_algebra
from fermigraph.errors import RoutingError, VerifyError
from fermigraph.geometries import (
    gen_blocked_square,
    gen_heavy_hex,
    gen_lattice,
    gen_square_with_diagonals,
    gen_syk_geometry,
)
from fermigraph.graph import SystemGraph
from fermigraph.pauli import PauliString

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


def majorana_matrix(n_modes: int, index: int) -> np.ndarray:
    """g_{2m} = Z..Z X_m, g_{2m+1} = Z..Z Y_m on mode qubits 0..n-1, built
    from kron products: an independent reference for the package's
    ``fermion_operator_matrix``."""
    mode, imag = index // 2, index % 2
    m = np.eye(1, dtype=complex)
    for q in range(n_modes):
        if q < mode:
            f = ZM
        elif q == mode:
            f = YM if imag else XM
        else:
            f = I2
        m = np.kron(m, f)
    return m


def ladder_matrix(n_modes: int, mode: int, dagger: bool) -> np.ndarray:
    """a_m = (g_{2m} + i g_{2m+1}) / 2, or its adjoint, from the kron-chain
    Majoranas."""
    g_re = majorana_matrix(n_modes, 2 * mode)
    g_im = majorana_matrix(n_modes, 2 * mode + 1)
    return (g_re - 1j * g_im) / 2 if dagger else (g_re + 1j * g_im) / 2


def fermion_kron_matrix(f) -> np.ndarray:
    """Dense matrix of a FermionOperator as kron-chain ladder products."""
    out = np.zeros((2**f.n_modes, 2**f.n_modes), dtype=complex)
    for coeff, factors in f.terms:
        m = np.eye(2**f.n_modes, dtype=complex)
        for mode, dagger in factors:
            m = m @ ladder_matrix(f.n_modes, mode, dagger)
        out += coeff * m
    return out


def monomial_matrix(n_modes: int, mono) -> np.ndarray:
    m = np.eye(2**n_modes, dtype=complex)
    for g in mono.indices:
        m = m @ majorana_matrix(n_modes, g)
    return mono.coefficient * m


def coupling_matrix(n_modes: int, p: int, q: int) -> np.ndarray:
    """A(p,q) = -i g_{2p} g_{2q}."""
    return -1j * majorana_matrix(n_modes, 2 * p) @ majorana_matrix(n_modes, 2 * q)


def parity_matrix(n_modes: int, p: int) -> np.ndarray:
    """B(p) = -i g_{2p} g_{2p+1}."""
    return -1j * majorana_matrix(n_modes, 2 * p) @ majorana_matrix(n_modes, 2 * p + 1)


def ev_term_matrix(n_modes: int, ev) -> np.ndarray:
    """Dense image of an edge/vertex term in the reference representation."""
    m = np.eye(2**n_modes, dtype=complex)
    for p, q in ev.edge_factors:
        m = m @ coupling_matrix(n_modes, p, q)
    for p in sorted(ev.vertex_factors):
        m = m @ parity_matrix(n_modes, p)
    return ev.coefficient * m


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
        ops = enc.local_bases[v].ops
        c_in = ops[g.port_of_edge(v, e_in)]
        for e_out, u in sorted(adj[v]):
            if e_out == e_in or (u, e_out) in seen:
                continue
            step = (c_in * ops[g.port_of_edge(v, e_out)]).weight()
            if u == k:
                step += single_w(k, e_out)
            heapq.heappush(heap, (w + step, verts + (u,), edges + (e_out,)))
    raise RoutingError(f"no path between {j} and {k}")


def reference_algebra_violations(enc) -> List[str]:
    """The pairwise form of ``verify_encoding_algebra`` that the column
    bitset check replaced, kept as its reference: one ``commutes`` call per
    operator pair, the same messages in the same order, first 20 kept."""
    violations: List[str] = []
    g = enc.graph

    def note(msg: str) -> None:
        if len(violations) < 20:
            violations.append(msg)

    everything = (
        [("edge", i, op) for i, op in enumerate(enc.edge_ops)]
        + [("vertex", v, op) for v, op in sorted(enc.vertex_ops.items())]
        + [("stab", i, op) for i, op in enumerate(enc.stabilizers)]
    )
    for kind, tag, op in everything:
        if op.weight() == 0 and kind != "vertex":
            note(f"{kind} {tag} is trivial")
        if not op.is_hermitian():
            note(f"{kind} {tag} is not Hermitian")
        if (op * op).phase != 0:
            note(f"{kind} {tag} squares to -I")

    ne = len(enc.edge_ops)
    for i in range(ne):
        a, b = g.edges[i]
        for j in range(i + 1, ne):
            c, d = g.edges[j]
            share = len({a, b} & {c, d})
            expect = share != 1  # commute unless exactly one shared endpoint
            if enc.edge_ops[i].commutes(enc.edge_ops[j]) != expect:
                note(f"edges {i} and {j} have wrong commutation")
    verts = g.vertex_ids()
    for vi, v in enumerate(verts):
        for u in verts[vi + 1 :]:
            if not enc.vertex_ops[v].commutes(enc.vertex_ops[u]):
                note(f"vertex ops {v} and {u} anticommute")
    for i, (a, b) in enumerate(g.edges):
        for v in verts:
            expect = v not in (a, b)
            if enc.edge_ops[i].commutes(enc.vertex_ops[v]) != expect:
                note(f"edge {i} vs vertex {v}: wrong commutation")
    for si, s in enumerate(enc.stabilizers):
        for kind, tag, op in everything:
            if not s.commutes(op):
                note(f"stabilizer {si} fails to commute with {kind} {tag}")
    try:
        loops_ok = enc.stabilizers == [
            enc.loop_stabilizer(c) for c in enc.cycles.cycles
        ]
    except VerifyError:
        loops_ok = False
    if not loops_ok:
        note("stabilizers are not the loop stabilizers of the cycle basis")
    return violations


def reference_tables(enc):
    """(edge, vertex, stabilizer) tables built as ``build_encoding`` once
    built them, kept as the reference for its shifted local operators and
    walk folds: every port operator embedded in the full register, an edge
    operator as the product of its two, a vertex operator as the product of
    all of its vertex's, and a loop stabilizer as i^|c| times the product
    of the directed edge operators around the cycle."""
    g, n = enc.graph, enc.total_qubits
    ports = {
        v: [op.embed(n, enc.layout[v][0]) for op in enc.local_bases[v].ops]
        for v in g.vertex_ids()
    }
    edges = [
        ports[a][g.port_of_edge(a, e)] * ports[b][g.port_of_edge(b, e)]
        for e, (a, b) in enumerate(g.edges)
    ]
    vertices = {
        v: reduce(mul, ports[v], PauliString.identity(n)).with_phase(enc.layout[v][1])
        for v in g.vertex_ids()
    }
    stabilizers = []
    for c in enc.cycles.cycles:
        factors, src = [], c.vertices[0]
        for e in c.edges:
            factors.append(enc.directed_edge_operator(e, src))
            a, b = g.edges[e]
            src = b if src == a else a
        stabilizers.append(reduce(mul, factors).with_phase(len(c)))
    return edges, vertices, stabilizers


def table_graphs() -> List[SystemGraph]:
    """The six sweep geometries at N = 5, 8, 16, 27; square and triangular
    3x4 lattices, open and periodic; periodic 4x4 and open 16x16 square
    lattices with diagonals; blocked_square 8/4; the heavy hexagon; a 2-site
    periodic chain (two parallel edges); a triangle beside an isolated
    vertex."""
    graphs = [gen_syk_geometry(k, n) for k in SWEEP_GEOMETRIES for n in (5, 8, 16, 27)]
    graphs += [
        gen_lattice(kind, (3, 4), bc)
        for kind in ("square", "triangular")
        for bc in ("open", "periodic")
    ]
    return graphs + [
        gen_square_with_diagonals(4, 4, "periodic"),
        gen_square_with_diagonals(16, 16, "open"),
        gen_blocked_square(8, 4),
        gen_heavy_hex(),
        gen_lattice("linear", 2, "periodic"),
        SystemGraph.from_edges([(0, 1), (1, 2), (0, 2)], n_vertices=4),
    ]


def reference_sum_duplicates(entries):
    """One entry per (row, col) of an entry list with duplicates, in
    row-major order, exact zeros dropped: the ``np.unique`` summing the
    oracle once applied to its entry lists."""
    dim, rows, cols, vals = entries
    key, slot = np.unique(rows * dim + cols, return_inverse=True)
    summed = np.bincount(slot, vals.real, len(key)) + 1j * np.bincount(
        slot, vals.imag, len(key)
    )
    nonzero = summed != 0
    key = key[nonzero]
    return dim, key // max(dim, 1), key % max(dim, 1), summed[nonzero]


def reference_block_entries(s, orbits):
    """The codespace block entries as ``dense._block_entries`` once built
    them, kept as the reference for its pivot reduction and X-part sums:
    one entry per (commuting term, orbit), each image walked back to its
    representative one pivot element at a time, then summed by
    ``reference_sum_duplicates``."""
    terms = [(_index_order(p), c) for p, c in s.terms()]
    cons = orbits.pivots + orbits.z_type
    terms = [(q, c) for q, c in terms if all(q.commutes(t) for t in cons)]
    reps = orbits.representatives()
    tx = np.array([q.x for q, _ in terms], dtype=np.int64)
    tz = np.array([q.z for q, _ in terms], dtype=np.int64)
    state = reps ^ tx[:, None]
    k = 2 * _parity(reps & tz[:, None])
    for g in orbits.pivots:
        hit = (state >> (g.x.bit_length() - 1)) & 1
        k += hit * _phase_exponents(g, state)
        state ^= hit * g.x
    vals = np.array([c for _, c in terms], dtype=complex)[:, None] * _IPOW[k & 3]
    rows = np.searchsorted(reps, state)
    cols = np.broadcast_to(np.arange(len(reps)), state.shape)
    return reference_sum_duplicates(
        (len(reps), rows.ravel(), cols.ravel(), vals.ravel())
    )


def reference_fermion_entries(f, even):
    """The chain-representation entries as ``dense._reference_entries``
    once built them: one entry per (term, state it keeps), then summed by
    ``reference_sum_duplicates``."""
    n = f.n_modes
    dim = 2**n >> 1 if even and n else 2**n
    states = even_sector_states(n) if even else np.arange(dim)
    rows, cols, vals = [], [], []
    for coeff, factors in f.terms:
        if even and len(factors) % 2:
            continue
        state = states.copy()
        alive = np.ones(dim, dtype=bool)
        flips = np.zeros(dim, dtype=np.int64)
        for mode, dagger in reversed(factors):
            bit = 1 << (n - 1 - mode)
            alive &= ((state & bit) == 0) == dagger
            flips += np.bitwise_count(state & -(bit << 1))
            state ^= bit
        rows.append((state >> 1 if even else state)[alive])
        cols.append(np.arange(dim)[alive])
        vals.append((coeff * (1 - 2 * (flips & 1)))[alive])
    return reference_sum_duplicates((
        dim,
        np.concatenate([np.zeros(0, np.int64)] + rows),
        np.concatenate([np.zeros(0, np.int64)] + cols),
        np.concatenate([np.zeros(0, complex)] + vals),
    ))


def reference_oracle(f, enc, compiled, tol=1e-9):
    """The oracle as ``dense.dense_oracle_check`` ran it before the
    commutant gauge, on the compiled sum ``compiled`` of ``f``: the whole
    codespace block, every isospectral copy of a gauge sector included, is
    diagonalized.  Returns (passed, codespace_dim, multiplicity,
    max_spectrum_diff)."""
    orbits = _orbits(enc.total_qubits, list(enc.stabilizers) + enc.virtual_parity_ops())
    block = _block_entries(compiled.terms(), orbits)
    odd = any(enc.graph.degree(v) % 2 for v in enc.graph.physical_ids())
    spec_ref = _eigvalsh_by_components(_reference_entries(f, even=not odd))
    mult, rem = divmod(block[0], len(spec_ref))
    if rem or mult < 1:
        return False, block[0], 0, float("inf")
    diff = float(np.max(np.abs(np.repeat(spec_ref, mult) - _eigvalsh_by_components(block))))
    return verify_encoding_algebra(enc).ok and diff <= tol, block[0], mult, diff
