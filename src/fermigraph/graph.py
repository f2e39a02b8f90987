"""System graphs with ordered ports.

A ``SystemGraph`` is the geometry actually laid out in qubits: vertices
carry an ordered list of ports, one per incident edge, and a vertex of
degree d is allotted ceil(d/2) qubits.  Parallel edges are allowed (a 2x2
periodic lattice needs them), so ports reference *edge indices* rather
than neighbor ids; for simple graphs the two views coincide, and
``SystemGraph.from_edges`` orders ports by ascending neighbor id.

The port tuples are the graph's one incidence; only ``edges_between``
keeps an index of its own, keyed by endpoint pair.

Canonical form: edges are sorted lexicographically as (min, max) pairs at
construction and ports are remapped accordingly, so equal graphs have
identical serializations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter, gt, index
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ParseError

Edge = Tuple[int, int]

PHYSICAL = "physical"
VIRTUAL = "virtual"


def _integer(value, rule: str) -> int:
    """``value`` as a plain int: an int or integer-like (``operator.index``),
    never a bool, a float or a string, which raise ParseError(``rule``)."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ParseError(f"{rule}, got {value!r}")


def _id(value) -> int:
    return _integer(value, "vertex ids, edge endpoints and ports must be integers")


@dataclass(frozen=True, slots=True)
class Vertex:
    id: int
    kind: str = PHYSICAL
    ports: Tuple[int, ...] = ()  # ordered incident edge indices


class SystemGraph:
    """Undirected multigraph with per-vertex ordered ports; vertex ids,
    edge endpoints and ports are stored as plain ints."""

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Sequence[Edge],
        meta: Optional[dict] = None,
    ):
        def plain_vertex(v) -> Vertex:
            if type(v) is Vertex and type(v.id) is int and type(v.ports) is tuple:
                if set(map(type, v.ports)) <= {int}:
                    return v
            return Vertex(_id(v.id), v.kind, tuple(map(_id, v.ports)))

        # input already in plain ints and canonical order, as ``from_edges``
        # gives it, passes every check below without being copied or sorted
        vlist = sorted(map(plain_vertex, vertices), key=attrgetter("id"))
        ids = [v.id for v in vlist]
        idset = set(ids)
        if len(idset) != len(ids):
            raise ParseError("duplicate vertex ids")

        norm = []
        for e in edges:
            a, b = e
            if type(a) is not int or type(b) is not int:
                a, b = e = _id(a), _id(b)
            if a == b:
                raise ParseError(f"self loop at vertex {a}")
            if a not in idset or b not in idset:
                raise ParseError(f"edge ({a},{b}) references unknown vertex")
            # a tuple of plain ints with a < b is already canonical: keep it
            norm.append(e if type(e) is tuple and a < b else (a, b) if a < b else (b, a))

        # canonical edge order, stable among parallel copies
        remap = None
        if any(map(gt, norm, islice(norm, 1, None))):
            order = sorted(range(len(norm)), key=norm.__getitem__)
            remap = dict(zip(order, range(len(order))))
            norm = [norm[i] for i in order]
        self.edges: Tuple[Edge, ...] = tuple(norm)

        incident = _incidence(ids, self.edges)
        self.vertices: Dict[int, Vertex] = {}
        for v in vlist:
            if remap is not None:
                # -1 is no edge's index: a port naming no edge fails below
                v = Vertex(v.id, v.kind, tuple(remap.get(p, -1) for p in v.ports))
            if sorted(v.ports) != incident[v.id]:
                raise ParseError(
                    f"ports of vertex {v.id} are not a permutation of its edges"
                )
            if v.kind not in (PHYSICAL, VIRTUAL):
                raise ParseError(f"unknown vertex kind {v.kind!r}")
            self.vertices[v.id] = v
        self.meta = dict(meta or {})
        # tuples, not one-element lists: the collector stops tracking tuples of ints
        self._pair_index: Dict[Edge, Tuple[int, ...]] = {}
        for eidx, e in enumerate(self.edges):
            self._pair_index[e] = self._pair_index.get(e, ()) + (eidx,)

    # ------------------------------------------------------------------
    # convenience constructors

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[Edge],
        kinds: Optional[Dict[int, str]] = None,
        n_vertices: Optional[int] = None,
        meta: Optional[dict] = None,
    ) -> "SystemGraph":
        """Build with ports in ascending (neighbor, edge) order."""
        kinds = kinds or {}
        ids = set(chain.from_iterable(edges))
        # a bool or float equal to an int id hides in the set: __init__ refuses it
        if not set(map(type, ids)) <= {int}:
            edges = [(_id(a), _id(b)) for a, b in edges]
            ids = set(chain.from_iterable(edges))
        if n_vertices is not None:
            ids.update(range(_integer(n_vertices, "n_vertices must be an integer")))
        norm = []
        for e in edges:
            a, b = e
            # a tuple already canonical (a < b) is kept, as ``__init__`` keeps it
            norm.append(e if type(e) is tuple and a < b else (a, b) if a < b else (b, a))
        norm.sort()
        # sorted edges list each vertex's edges in (neighbor, edge) order
        incident = _incidence(ids, norm)
        vlist = [
            Vertex(vid, kinds.get(vid, PHYSICAL), tuple(incident[vid]))
            for vid in sorted(ids)
        ]
        return cls(vlist, norm, meta)

    # ------------------------------------------------------------------
    # queries

    def __contains__(self, vid: int) -> bool:
        return vid in self.vertices

    def vertex_ids(self) -> List[int]:
        return sorted(self.vertices)

    def physical_ids(self) -> List[int]:
        return [v for v in self.vertex_ids() if self.vertices[v].kind == PHYSICAL]

    def degree(self, vid: int) -> int:
        return len(self.vertices[vid].ports)

    def qubits_at(self, vid: int) -> int:
        return (self.degree(vid) + 1) // 2

    def neighbors(self, vid: int) -> List[int]:
        """Neighbor ids in port order (repeats for parallel edges)."""
        return [_other(self.edges[e], vid) for e in self.vertices[vid].ports]

    def port_of_edge(self, vid: int, eidx: int) -> int:
        """0-based position of edge ``eidx`` in ``vid``'s ports, else ParseError."""
        ports = self.vertices[vid].ports
        if eidx in ports:
            return ports.index(eidx)
        raise ParseError(f"edge {eidx!r} is not a port of vertex {vid}")

    def edges_between(self, a: int, b: int) -> Tuple[int, ...]:
        """Indices of the edges joining a and b, ascending; () if none."""
        return self._pair_index.get((a, b) if a < b else (b, a), ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.meta == other.meta
        )


def _incidence(ids: Iterable[int], edges: Sequence[Edge]) -> Dict[int, List[int]]:
    """vertex id -> the indices of its edges, ascending."""
    incident: Dict[int, List[int]] = {i: [] for i in ids}
    for eidx, (a, b) in enumerate(edges):
        incident[a].append(eidx)
        incident[b].append(eidx)
    return incident


def _other(edge: Edge, vid: int) -> int:
    a, b = edge
    return b if vid == a else a


def qubit_count(g: SystemGraph) -> int:
    """Total qubits: sum over vertices of ceil(degree/2)."""
    isolated = [v for v in g.vertex_ids() if g.degree(v) == 0]
    if isolated:
        warnings.warn(
            f"vertices {isolated} are isolated and receive no qubits",
            stacklevel=2,
        )
    return sum(g.qubits_at(v) for v in g.vertex_ids())


# ----------------------------------------------------------------------
# cycle basis


@dataclass(slots=True)
class Cycle:
    """A closed walk stored as (vertex sequence, edge index sequence).

    ``vertices`` has one entry per step and is implicitly closed:
    edge ``edges[i]`` joins vertices[i] to vertices[(i+1) % len]."""

    vertices: Tuple[int, ...]
    edges: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


def cycle_basis(g: SystemGraph) -> List[Cycle]:
    """Fundamental cycles of a BFS spanning tree (forest per component).

    Deterministic given the canonical vertex/edge ordering: the BFS root is
    the smallest vertex id of each component, neighbors are explored in
    edge-index order (sorted ports, not port order), and a vertex's parent
    is the other end of its parent edge.  Each cycle uses one non-tree edge.
    """
    parent_edge: Dict[int, Optional[int]] = {}
    depth: Dict[int, int] = {}
    for root in g.vertex_ids():
        if root in parent_edge:
            continue
        parent_edge[root] = None
        depth[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for eidx in sorted(g.vertices[v].ports):
                u = _other(g.edges[eidx], v)
                if u not in parent_edge:
                    parent_edge[u] = eidx
                    depth[u] = depth[v] + 1
                    queue.append(u)

    tree_edges = set(parent_edge.values())
    cycles: List[Cycle] = []
    for eidx, (a, b) in enumerate(g.edges):
        if eidx in tree_edges:
            continue
        # walk both endpoints up to their common ancestor
        pa, pb = [a], [b]
        ea: List[int] = []
        eb: List[int] = []
        va, vb = a, b
        while va != vb:
            if depth[va] >= depth[vb]:
                ea.append(parent_edge[va])
                va = _other(g.edges[ea[-1]], va)
                pa.append(va)
            else:
                eb.append(parent_edge[vb])
                vb = _other(g.edges[eb[-1]], vb)
                pb.append(vb)
        # vertices: a ... ancestor ... b, then edge eidx closes b -> a
        eb.reverse()
        eb.append(eidx)
        cycles.append(Cycle(tuple(pa + pb[-2::-1]), tuple(ea + eb)))

    return cycles
