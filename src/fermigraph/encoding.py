"""Build encoded edge/vertex operators, stabilizers, and routed strings.

Given a system graph and a local basis per vertex, each vertex v receives
a contiguous block of ceil(d(v)/2) qubits and its local Majorana
operators c_v^1..c_v^d are embedded there (one per port, in port order;
odd-degree vertices keep one extra unpaired operator).  The encoded
tables are then

    edge (u,v), u < v:   A(u,v) = c_u^p c_v^q            (sign +1 for u<v,
                         the reversed direction is the negation)
    vertex v:            B(v) = i^{ceil(d/2)} c_v^1 ... c_v^{2 ceil(d/2)}
    cycle c:             S(c) = i^{|c|} prod of directed edge operators
                         around the walk

These conventions make every table Hermitian and mutually consistent: a
product of directed edge operators around any closed walk equals the
corresponding product of cycle stabilizers exactly, so the joint +1
eigenspace of the stabilizers is the codespace on which the encoded
algebra reproduces the fermionic one (checked against a dense oracle in
the analytics module).

A coupling between non-adjacent vertices is realized by a routed string:
the raw product of directed edge operators along an n-edge path, times
i^(n-1) for the canonical Hermitian form.  Default routing minimizes the
exact Pauli weight the string picks up, using the per-port operator pair
weights at interior vertices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import ParseError, ResourceError, RoutingError, VerifyError
from .graph import Cycle, CycleBasis, SystemGraph, VIRTUAL, cycle_basis
from .localbasis import (
    MajoranaBasis,
    basis_from_labels,
    basis_verify,
    get_basis,
    gf2_pivots,
    gf2_reduce,
)
from .pauli import PauliString

BasisChoice = Union[str, Dict[int, Union[str, Sequence[str]]], None]


@dataclass(frozen=True)
class Encoding:
    """The tables derived from a system graph and its per-vertex local
    bases by ``build_encoding``, the only constructor.  No cache or other
    state: encodings of the same graph and bases compare equal whatever
    has been routed on them."""

    graph: SystemGraph
    total_qubits: int
    layout: Dict[int, Tuple[int, int]]  # vertex -> (offset, n_qubits)
    local_bases: Dict[int, MajoranaBasis]
    edge_ops: List[PauliString]  # per edge index, oriented min->max
    vertex_ops: Dict[int, PauliString]
    stabilizers: List[PauliString]  # one per cycle of ``cycles``, in order
    cycles: CycleBasis

    # ------------------------------------------------------------------
    # operator queries

    def edge_operator(self, j: int, k: int) -> PauliString:
        """The encoded coupling operator for graph edge (j, k); the
        reversed query returns the negation.  Parallel edges resolve to
        the lowest edge index."""
        if j == k:
            raise ParseError("edge endpoints must differ")
        cands = self.graph.edges_between(j, k)
        if not cands:
            raise RoutingError(
                f"({j},{k}) is not a system-graph edge; use path_edge_operator"
            )
        return self.directed_edge_operator(cands[0], j)

    def directed_edge_operator(self, eidx: int, source: int) -> PauliString:
        op = self.edge_ops[eidx]
        a, _ = self.graph.edges[eidx]
        return op if source == a else -op

    def vertex_operator(self, j: int) -> PauliString:
        if j not in self.vertex_ops:
            raise ParseError(f"unknown vertex {j}")
        return self.vertex_ops[j]

    def unpaired_majorana(self, j: int) -> PauliString:
        op = self.local_bases[j].unpaired_op()
        return op.embed(self.total_qubits, self.layout[j][0])

    def virtual_parity_ops(self) -> List[PauliString]:
        """Vertex operators of virtual modes; these are fixed to +1 on the
        codespace (virtual modes stay unoccupied)."""
        return [
            self.vertex_ops[v]
            for v in self.graph.vertex_ids()
            if self.graph.vertices[v].kind == VIRTUAL
        ]

    # ------------------------------------------------------------------
    # routed strings

    def path_edge_operator(
        self,
        j: int,
        k: int,
        path: Optional[Sequence[int]] = None,
        raw: bool = False,
    ) -> PauliString:
        """Coupling operator between j and k along a path of system edges.

        ``path`` may be a vertex sequence or None for automatic routing.
        The raw product of the n directed edge operators along the path is
        returned when ``raw`` is set; the default multiplies by i^(n-1),
        which is the Hermitian canonical form (equal to the direct edge
        operator whenever (j, k) is itself an edge).
        """
        edges = self._resolve_route(j, k, path)
        op = PauliString.identity(self.total_qubits)
        src = j
        for eidx in edges:
            op = op * self.directed_edge_operator(eidx, src)
            a, b = self.graph.edges[eidx]
            src = b if src == a else a
        if raw:
            return op
        op = op.with_phase(len(edges) - 1)
        if not op.is_hermitian():
            raise VerifyError("canonical path operator failed the Hermiticity check")
        return op

    def _resolve_route(
        self, j: int, k: int, path: Optional[Sequence[int]]
    ) -> List[int]:
        if path is not None:
            if list(path)[0] != j or list(path)[-1] != k:
                raise RoutingError(f"explicit path does not join {j} to {k}")
            return _walk_edges(self.graph, list(path))
        if j == k:
            raise RoutingError("path endpoints must differ")
        return self.route_min_weight(j, k)

    def route_min_weight(self, j: int, k: int) -> List[int]:
        """Edge sequence from j to k minimizing the exact Pauli weight of
        the resulting string: endpoint single-operator weights plus, at
        each interior vertex, the weight of the local operator pair its
        ports contribute.  Ties break to the lexicographically smallest
        vertex sequence."""
        g = self.graph
        if j not in g or k not in g:
            raise RoutingError(f"unknown endpoint {j if j not in g else k}")
        adj = g.adjacency()

        def single_w(v: int, eidx: int) -> int:
            return self.local_bases[v].ops[g.port_of_edge(v, eidx)].weight()

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
            pw = self.local_bases[v].pair_weights
            p_in = g.port_of_edge(v, e_in)
            for e_out, u in sorted(adj[v]):
                if e_out == e_in or (u, e_out) in seen:
                    continue
                step = pw[p_in][g.port_of_edge(v, e_out)]
                if u == k:
                    step += single_w(k, e_out)
                heapq.heappush(heap, (w + step, verts + (u,), edges + (e_out,)))
        raise RoutingError(f"no path between {j} and {k}")

    # ------------------------------------------------------------------
    # stabilizers

    def loop_stabilizer(self, cycle: Union[Cycle, Sequence[int]]) -> PauliString:
        """i^{|cycle|} times the product of directed edge operators around
        the closed walk; Hermitian and squaring to +I."""
        if isinstance(cycle, Cycle):
            verts, edges = list(cycle.vertices), list(cycle.edges)
        else:
            verts = list(cycle)
            if len(verts) > 1 and verts[0] == verts[-1]:
                verts = verts[:-1]
            edges = _walk_edges(self.graph, verts + [verts[0]])
        if len(edges) < 2:
            raise ParseError("a closed walk needs at least 2 edges")
        op = PauliString.identity(self.total_qubits)
        for src, eidx in zip(verts, edges):
            op = op * self.directed_edge_operator(eidx, src)
        op = op.with_phase(len(edges))
        if not op.is_hermitian():
            raise VerifyError("cycle stabilizer failed the Hermiticity check")
        return op

    def reduce_mod_stabilizers(self, p: PauliString) -> PauliString:
        """Greedily multiply by stabilizer generators while the Pauli
        weight strictly decreases (steepest descent, ties to the earliest
        generator); the result acts identically on the codespace."""
        while True:
            best = None
            for s in self.stabilizers:
                cand = p * s
                if cand.weight() < p.weight() and (
                    best is None or cand.weight() < best.weight()
                ):
                    best = cand
            if best is None:
                return p
            p = best

    def stabilizer_group_member(self, p: PauliString) -> Optional[PauliString]:
        """The product of stabilizer generators with the same (x, z)
        support as ``p``, or None when ``p`` is outside the group.

        The returned element carries its exact phase, so comparing it to
        ``p`` distinguishes membership in the group from membership up to
        a sign."""
        n = self.total_qubits
        pivots = gf2_pivots([s.x | (s.z << n) for s in self.stabilizers])
        row, mask = gf2_reduce(p.x | (p.z << n), pivots)
        if row:
            return None
        combo = PauliString.identity(n)
        for i, s in enumerate(self.stabilizers):
            if (mask >> i) & 1:
                combo = combo * s
        return combo

    # ------------------------------------------------------------------

    def mode_vertex(self, mode: int) -> int:
        """Physical vertex carrying fermionic mode ``mode`` (physical
        vertices in ascending id order)."""
        phys = self.graph.physical_ids()
        if not 0 <= mode < len(phys):
            raise ParseError(f"mode {mode} out of range for {len(phys)} physical modes")
        return phys[mode]

    @property
    def n_modes(self) -> int:
        return len(self.graph.physical_ids())


def _walk_edges(g: SystemGraph, verts: Sequence[int]) -> List[int]:
    """Resolve consecutive vertex pairs to edge indices; repeated visits
    to the same pair cycle through parallel copies."""
    used: Dict[Tuple[int, int], int] = {}
    out = []
    for a, b in zip(verts, verts[1:]):
        key = (min(a, b), max(a, b))
        cands = g.edges_between(a, b)
        if not cands:
            raise RoutingError(f"({a},{b}) is not an edge")
        idx = used.get(key, 0)
        out.append(cands[idx % len(cands)])
        used[key] = idx + 1
    return out


def resolve_bases(g: SystemGraph, basis_choice: BasisChoice) -> Dict[int, MajoranaBasis]:
    """Per-vertex basis resolution: a single name, or a map from vertex id
    to a name or an explicit operator label list."""
    if basis_choice is None:
        basis_choice = "jw"
    out: Dict[int, MajoranaBasis] = {}
    for v in g.vertex_ids():
        d = g.degree(v)
        if d == 0:
            out[v] = MajoranaBasis(0, 0, (), "empty")
            continue
        choice = basis_choice
        if isinstance(basis_choice, dict):
            choice = basis_choice.get(v, basis_choice.get("default", "jw"))
        if isinstance(choice, str):
            basis = get_basis(choice, d)
        else:
            basis = basis_from_labels(d, list(choice))
        report = basis_verify(basis)
        if not report.ok:
            raise VerifyError(
                f"basis for vertex {v} is invalid: " + "; ".join(report.violations)
            )
        out[v] = basis
    return out


def build_encoding(
    g: SystemGraph,
    basis_choice: BasisChoice = "jw",
    max_qubits: Optional[int] = None,
) -> Encoding:
    """Assemble the full encoding for a system graph.

    Qubits are laid out contiguously per vertex in ascending id order.
    Stabilizers are built for a fundamental cycle basis; disconnected
    graphs get a basis per component.
    """
    bases = resolve_bases(g, basis_choice)
    layout: Dict[int, Tuple[int, int]] = {}
    offset = 0
    for v in g.vertex_ids():
        nv = bases[v].n_qubits
        layout[v] = (offset, nv)
        offset += nv
    total = offset
    if max_qubits is not None and total > max_qubits:
        raise ResourceError(
            f"encoding needs {total} qubits, above the cap of {max_qubits}"
        )

    port_ops: Dict[int, Tuple[PauliString, ...]] = {}  # embedded, 2n per vertex
    for v in g.vertex_ids():
        off, _ = layout[v]
        port_ops[v] = tuple(op.embed(total, off) for op in bases[v].ops)

    edge_ops: List[PauliString] = []
    for eidx, (a, b) in enumerate(g.edges):
        p = g.port_of_edge(a, eidx)
        q = g.port_of_edge(b, eidx)
        op = port_ops[a][p] * port_ops[b][q]
        if not op.is_hermitian():
            raise VerifyError(f"edge operator {eidx} is not Hermitian")
        edge_ops.append(op)

    vertex_ops: Dict[int, PauliString] = {}
    for v in g.vertex_ids():
        op = PauliString.identity(total)
        for c in port_ops[v]:
            op = op * c
        op = op.with_phase(bases[v].n_qubits)
        if not op.is_hermitian():
            raise VerifyError(f"vertex operator {v} is not Hermitian")
        vertex_ops[v] = op

    enc = Encoding(
        graph=g,
        total_qubits=total,
        layout=layout,
        local_bases=bases,
        edge_ops=edge_ops,
        vertex_ops=vertex_ops,
        stabilizers=[],
        cycles=cycle_basis(g),
    )
    return replace(
        enc, stabilizers=[enc.loop_stabilizer(c) for c in enc.cycles.cycles]
    )


# ----------------------------------------------------------------------
# algebra validation


@dataclass
class AlgebraReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_encoding_algebra(enc: Encoding) -> AlgebraReport:
    """Check the full operator algebra of an encoding.

    Edge operators anticommute exactly when they share one endpoint;
    vertex operators commute among themselves and anticommute with the
    edge operators at their vertex; stabilizers commute with everything;
    every operator is Hermitian and squares to +I; reversed edge queries
    negate; the stabilizers are exactly the loop stabilizers of the cycle
    basis, in order.  The report keeps the first 20 findings.
    """
    rep = AlgebraReport()
    g = enc.graph

    def note(msg: str) -> None:
        if len(rep.violations) < 20:
            rep.violations.append(msg)

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
    for i, (a, b) in enumerate(g.edges):
        if enc.directed_edge_operator(i, b) != -enc.directed_edge_operator(i, a):
            note(f"edge {i} is not antisymmetric")
    try:
        loops_ok = enc.stabilizers == [
            enc.loop_stabilizer(c) for c in enc.cycles.cycles
        ]
    except VerifyError:
        loops_ok = False
    if not loops_ok:
        note("stabilizers are not the loop stabilizers of the cycle basis")
    return rep
