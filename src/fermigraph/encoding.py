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
the dense module).

The tables hold edges + vertices + cycles strings of n qubits each, so
their size follows n x (edges + vertices + cycles), not n alone: an
all-to-all graph on N modes grows like N^4.  ``build_encoding`` checks
that product against ``TABLE_BUDGET`` before it embeds any operator;
there is no separate limit on the qubit count.

A coupling between non-adjacent vertices is realized by a routed string:
the raw product of directed edge operators along an n-edge path, times
i^(n-1) for the canonical Hermitian form.  Default routing (``Router``)
minimizes an additive cost built from the per-port operator weights,
which is not always the Pauli weight of the string; see ``Router``.

``build_encoding`` builds the layout, the local bases and the edge and
vertex operators, which a compile multiplies by.  The cycles and their
stabilizers only fix the codespace, and no compile or routing call reads
them: both tables are built together the first time either is read, and
kept (``_LazyTable``).  ``Encoding`` states why that memo never shows.

Every table string is built on raw ints from local operators.  An edge
operator ORs its two port operators shifted to their disjoint blocks, so
their phases add with no cross term; a vertex operator is multiplied out
on its block once per basis object (``resolve_bases`` shares one per name
and degree) and embedded at each vertex of that basis.  A routed string
folds the directed edge operators along its walk (``_walk_product``, which
``Router.operator`` runs state by state to share one source's prefixes);
the loop stabilizers of the cycle basis are read off products of
spanning-tree prefixes (``_cycle_tables``), while
``Encoding.loop_stabilizer`` folds a given cycle's walk.
"""

from __future__ import annotations

from collections import abc, defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import mul, xor
from typing import (
    Callable, DefaultDict, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .errors import DimensionError, ParseError, ResourceError, RoutingError, VerifyError
from .graph import Cycle, SystemGraph, VIRTUAL, _forest_cycles, _integer
from .localbasis import (
    CheckReport,
    MajoranaBasis,
    basis_from_labels,
    basis_verify,
    get_basis,
    gf2_pivots,
    gf2_reduce,
)
from .pauli import PauliString, set_bits

BasisChoice = Union[str, Dict[int, Union[str, Sequence[str]]]]

#: Most total qubits x table strings (edges + vertices + cycles, the cycles
#: counted at their bound of one per edge) an encoding may hold.  A table
#: string keeps two masks of one bit per qubit, a quarter byte per unit;
#: the tables peak near 0.2 byte per unit once the stabilizers are read
#: (complete/150, just under the budget: ``build_encoding`` peaks at 24 MB
#: traced, and reading the stabilizers brings the tables to 50 MB), while
#: complete/96 needs 16 % of it and complete/300 is refused.
TABLE_BUDGET = 1 << 28


def check_table_budget(qubits: int, strings: int) -> None:
    """Refuse, with ``ResourceError``, tables of ``strings`` strings on
    ``qubits`` qubits when their product exceeds ``TABLE_BUDGET``."""
    if qubits * strings > TABLE_BUDGET:
        raise ResourceError(
            f"encoding tables need {qubits} qubits x {strings} strings = "
            f"{qubits * strings}, above the budget of {TABLE_BUDGET}"
        )


class _LazyTable(abc.Sequence):
    """A read-only list built by ``build`` the first time it is read (its
    length, an item, an iteration, ``==`` or ``repr``); the built list is
    kept and ``build`` dropped.  Whether it has been built shows nowhere:
    it compares equal to the built list, reprs and pickles as that list
    (``copy`` and ``deepcopy`` follow the pickle form), and a copy is
    built already."""

    __slots__ = ("_items", "_build")

    def __init__(self, build: Optional[Callable[[], Sequence]]):
        self._items: Optional[Sequence] = None
        self._build = build

    def _list(self) -> Sequence:
        build = self._build
        if build is not None:
            self._items, self._build = build(), None
        return self._items

    def __len__(self) -> int:
        return len(self._list())

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyTable):
            other = other._list()
        return self._list() == other

    def __repr__(self) -> str:
        return repr(self._list())

    def __reduce__(self):
        return _LazyTable, (None,), self._list()

    def __setstate__(self, items: Sequence) -> None:
        self._items = items


@dataclass(frozen=True)
class Encoding:
    """The tables derived from a system graph and its per-vertex local
    bases by ``build_encoding``, the only constructor.  It builds every
    table but ``stabilizers`` and ``cycles``, which are built together the
    first time either is read.  That memo never shows: ``==``, ``repr``,
    ``pickle.dumps`` and ``copy.deepcopy`` give the same result whether or
    not the tables were read, a loaded table pickles to the bytes it was
    loaded from, and no compile or routing call writes into an encoding,
    so encodings of the same graph and bases compare equal whatever has
    been routed on them."""

    graph: SystemGraph
    total_qubits: int
    layout: Dict[int, Tuple[int, int]]  # vertex -> (offset, n_qubits)
    local_bases: Dict[int, MajoranaBasis]
    edge_ops: List[PauliString]  # per edge index, oriented min->max
    vertex_ops: Dict[int, PauliString]
    stabilizers: Sequence[PauliString]  # one per cycle of ``cycles``, in order
    cycles: Sequence[Cycle]  # ``cycle_basis(graph)``

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
        self, j: int, k: int, path: Optional[Sequence[int]] = None
    ) -> PauliString:
        """Canonical coupling operator between j and k along ``path``, a
        vertex sequence whose ids obey ``SystemGraph``'s integer rule, or
        along ``Router``'s route when ``path`` is None; a caller routing
        many pairs keeps one ``Router`` instead."""
        if path is None:
            return Router(self).operator(j, k)
        verts = [_integer(v, "explicit path vertices must be integers") for v in path]
        if not verts or verts[0] != j or verts[-1] != k:
            raise RoutingError(f"explicit path does not join {j} to {k}")
        return self.walk_operator(j, _walk_edges(self.graph, verts))

    def walk_operator(self, j: int, edges: Sequence[int]) -> PauliString:
        """i^(n-1) times the product of the directed edge operators along
        the n edges ``edges`` walked from j: the Hermitian canonical form,
        equal to the direct edge operator whenever the walk is one edge."""
        if not edges:
            raise RoutingError("a walk needs at least one edge")
        x, z, phase = _walk_product(self.graph, self.edge_ops, j, edges)
        return _hermitian(
            PauliString._raw(self.total_qubits, x, z, phase + len(edges) - 1),
            "canonical path operator",
        )

    # ------------------------------------------------------------------
    # stabilizers

    def loop_stabilizer(self, cycle: Cycle) -> PauliString:
        """i^{|cycle|} times the product of directed edge operators around
        the closed walk; Hermitian and squaring to +I."""
        return _loop_stabilizer(self.graph, self.edge_ops, self.total_qubits, cycle)

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

    @property
    def n_modes(self) -> int:
        return len(self.graph.physical_ids())


#: A route: (cost, end state, the predecessor list of the search that
#: settled it), from which its walk is read back.
_Route = Tuple[int, int, List[int]]
#: The candidate cost of a state no walk has reached yet, above any cost.
_UNSEEN = 1 << 62
#: A move of a transition table: (step weight, next state).
_Move = Tuple[int, int]
#: The transition row of an in-state: (vertex, single-port weight, moves).
_Row = Tuple[int, int, Tuple[_Move, ...]]


class Router:
    """Minimum-cost routes between the vertices of an encoding's graph.

    The cost of a walk from j to k is additive: the weights of j's and k's
    single local operators on the walk's end ports plus, at each interior
    vertex, the weight of the local operator pair its in and out ports
    contribute.  It equals the Pauli weight of the routed string when the
    walk visits no vertex twice.  ``route`` minimizes it over walks that
    meet k only at their end, breaking ties to the lexicographically
    smallest vertex sequence, then edge sequence.  A walk that re-enters k
    can weigh less; it is not considered.

    A search is a resumable Dijkstra from one source over (vertex, in-edge)
    states, numbered ``2*e + (v == edges[e][0])``.  Every single-operator
    weight and every pair weight of two different ports is at least 1 (a
    Majorana operator is never the identity, and two anticommuting ones
    never multiply to it), so each step costs at least 1 and the search
    settles states a cost bucket at a time: every candidate of cost c is
    known once all states below c have settled.  Each state keeps only
    its least candidate under (cost, vertex sequence, edge sequence),
    and sequences are compared only when two candidates tie on cost; a
    settled state records its predecessor, and the walk is read back from
    those.  Each settled state at u offers u a terminal candidate, its
    cost plus u's single-port weight there, and u's least one by the same
    rule is the route to u.  It is read off u's states when u is asked
    for, once no state left to settle could offer one as cheap, so the
    vertices no route ends at cost the search nothing.  Each vertex's
    transition table is built the first time the vertex is expanded, from
    weights computed once per local basis object, and kept for the
    router's life.

    The search of the latest source stays live, so routing one source's
    destinations one after another runs one search for all of them;
    returning to an earlier source starts its search again.  When the
    route passes through its destination before its end, that one pair
    is searched again with the destination absorbing; both kinds of route
    are read alike.  ``operator`` runs ``_walk_product``'s fold state by
    state and keeps the raw product at each state on a returned route of
    the live search, so every route from one source multiplies out only
    the states no earlier route reached.
    ``Encoding.path_edge_operator`` with no path is the one-shot form: a
    fresh router's ``operator``.

    ``searches`` counts the single-source searches started and
    ``re_searches`` the pairs searched again.
    """

    def __init__(self, enc: Encoding):
        self._enc = enc
        self._graph = enc.graph
        # per in-state its row once built; per vertex its moves as a source
        self._rows: List[Optional[_Row]] = [None] * (2 * len(enc.graph.edges))
        self._starts: Dict[int, Tuple[_Move, ...]] = {}
        # id of a local basis -> (its single-operator weights, its port-pair weights)
        self._weights: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        # the vertex of each state: state 2e is edge e's second end, 2e+1 its first
        self._vertex_of = [v for a, b in enc.graph.edges for v in (b, a)]
        self.searches = 0
        self.re_searches = 0
        self._source: Optional[int] = None
        self._search: Iterator[int] = iter(())  # the live search's ``_settle``
        self._level = -1  # the live search has settled every state this cheap
        self._pred: List[int] = []  # state -> predecessor, -1 at the source
        self._best: List[int] = []  # state -> candidate cost, as ``_settle`` keeps it
        self._found: Dict[int, _Route] = {}  # end vertex -> its route
        # state -> (x, z, phase, edges) of the walk's product up to it
        self._prefix: Dict[int, Tuple[int, int, int, int]] = {}

    def route(self, j: int, k: int) -> List[int]:
        """Edge sequence of the minimum-cost walk from j to k."""
        _, s, pred = self._entry(j, k)
        edges = []
        while s >= 0:
            edges.append(s >> 1)
            s = pred[s]
        edges.reverse()
        return edges

    def cost(self, j: int, k: int) -> int:
        """The additive cost ``route`` minimized for (j, k); it is the
        Pauli weight of the routed string when the walk visits no vertex
        twice."""
        return self._entry(j, k)[0]

    def operator(self, j: int, k: int) -> PauliString:
        """The canonical routed string of (j, k), equal to
        ``enc.walk_operator(j, route(j, k))``: the product of the states
        on the route that no earlier route from j reached, on the stored
        product of the last one that was, times i^(n-1).  A re-searched
        route's states belong to another search, so it shares no prefix."""
        _, s, pred = self._entry(j, k)
        prefix = self._prefix if pred is self._pred else {}
        chain = []
        while s >= 0 and s not in prefix:
            chain.append(s)
            s = pred[s]
        x, z, phase, n = prefix[s] if s >= 0 else (0, 0, 0, 0)
        ops = self._enc.edge_ops
        for s in reversed(chain):
            # the edge walked into state s, negated when entered at its first end
            op = ops[s >> 1]
            phase += op.phase + 2 * (s & 1) + 2 * (z & op.x).bit_count()
            x, z, n = x ^ op.x if x else op.x, z ^ op.z if z else op.z, n + 1
            prefix[s] = x, z, phase, n
        return _hermitian(
            PauliString._raw(self._enc.total_qubits, x, z, phase + n - 1),
            "canonical path operator",
        )

    def _check(self, j: int, k: int) -> None:
        g = self._graph
        if j not in g or k not in g:
            raise RoutingError(f"unknown endpoint {j if j not in g else k}")
        if j == k:
            raise RoutingError("path endpoints must differ")

    def _absorbing(self, j: int, k: int) -> _Route:
        """k's route from a search of its own with k absorbing."""
        pred, best = [-1] * len(self._rows), [_UNSEEN] * len(self._rows)
        cost, s, _ = self._end(j, k, self._settle(j, k, pred, best), best, pred, -1)
        return cost, s, pred

    def _entry(self, j: int, k: int) -> _Route:
        """The route from j to k, from j's live search, started here when
        j is not its source, or from the re-search."""
        self._check(j, k)
        if j != self._source:
            self.searches += 1
            self._source, self._found, self._prefix = j, {}, {}
            self._pred = [-1] * len(self._rows)
            self._best = [_UNSEEN] * len(self._rows)
            self._search = self._settle(j, None, self._pred, self._best)
            self._level = -1
        found = self._found
        if k not in found:
            pred, of = self._pred, self._vertex_of
            cost, s, self._level = self._end(
                j, k, self._search, self._best, pred, self._level)
            t = pred[s]
            while t >= 0 and of[t] != k:
                t = pred[t]
            if t >= 0:  # the walk passes through k before its end
                self.re_searches += 1
                found[k] = self._absorbing(j, k)
            else:
                found[k] = cost, s, pred
        return found[k]

    def _end(
        self, j: int, k: int, search: Iterator[int], best: List[int],
        pred: List[int], level: int,
    ) -> Tuple[int, int, int]:
        """(cost, end state) of k's route from j, and the cost to which
        ``search`` has now settled every state (``level`` before the call).
        Each settled state at k offers k its cost plus k's single-port
        weight there, and the least offer under (cost, vertex sequence,
        edge sequence) is the route; ``search`` settles further until no
        state left to settle could offer one as cheap."""
        g, rows = self._graph, self._rows
        ins = [2 * e + (g.edges[e][0] == k) for e in g.vertices[k].ports]
        while True:
            end = None
            for s in ins:
                if best[s] < 0:  # settled, at cost ~best[s]
                    c = ~best[s] + rows[s][1]
                    if end is None or c < end[0] or (
                        c == end[0] and self._before(s, end[1], best, pred)
                    ):
                        end = c, s
            # a state still to settle costs level + 1 or more, and every
            # step adds at least 1
            if end is not None and end[0] <= level + 1:
                return end[0], end[1], level
            level = next(search, _UNSEEN)
            if level == _UNSEEN:
                if end is None:
                    raise RoutingError(f"no path between {j} and {k}")
                return end[0], end[1], level

    def _before(
        self, a: int, b: int, best: List[int], pred: List[int], t: int = -1
    ) -> bool:
        """Whether the walk to settled state a, then state t when t >= 0,
        comes before the walk to settled state b, then t, under (vertex
        sequence, edge sequence).  Both are read back only to the deepest
        state they share: costs grow along a walk, so the costlier end is
        never that state."""
        ta, tb = ([t], [t]) if t >= 0 else ([], [])
        while a != b:
            if b < 0 or a >= 0 and best[a] <= best[b]:
                ta.append(a)
                a = pred[a]
            else:
                tb.append(b)
                b = pred[b]
        of = self._vertex_of
        if ta and tb and of[ta[-1]] != of[tb[-1]]:  # most walks differ at once
            return of[ta[-1]] < of[tb[-1]]
        va, vb = [of[s] for s in reversed(ta)], [of[s] for s in reversed(tb)]
        if va != vb:
            return va < vb
        return [s >> 1 for s in reversed(ta)] < [s >> 1 for s in reversed(tb)]

    def _table(self, v: int) -> None:
        """Build v's transition rows: a move per out-port, to the state at
        the port edge's far end, weighing v's single operator there when v
        is the source and the in/out pair otherwise."""
        g, basis = self._graph, self._enc.local_bases[v]
        weights = self._weights.get(id(basis))
        if weights is None:
            ops, d = basis.ops, basis.degree
            weights = self._weights[id(basis)] = [op.weight() for op in ops], [
                [(ops[p] * ops[q]).weight() if p != q else 0 for q in range(d)]
                for p in range(d)
            ]
        single, pairs = weights
        ports = g.vertices[v].ports
        far = [2 * e + (g.edges[e][0] != v) for e in ports]
        self._starts[v] = tuple(zip(single, far))
        for p, (e, row) in enumerate(zip(ports, pairs)):
            moves = tuple(m for q, m in enumerate(zip(row, far)) if q != p)
            self._rows[2 * e + (g.edges[e][0] == v)] = (v, single[p], moves)

    def _settle(
        self, j: int, stop: Optional[int], pred: List[int], best: List[int]
    ) -> Iterator[int]:
        """Settle the states reachable from j in order of cost, filling in
        ``pred`` and ``best`` (a state's least candidate cost, ``_UNSEEN``
        until it is offered one, ~cost once settled), and yield each cost
        once every state of that cost has settled.  With a ``stop``
        vertex, its states are not expanded, so no walk passes through it."""
        rows = self._rows
        if j not in self._starts:
            self._table(j)
        buckets: DefaultDict[int, List[int]] = defaultdict(list)  # states by cost
        for step, t in self._starts[j]:
            best[t], pred[t] = step, -1
            buckets[step].append(t)
        cost = 0
        while buckets:
            for s in buckets.pop(cost, ()):
                if best[s] != cost:
                    continue
                best[s] = ~cost
                row = rows[s]
                if row is None:
                    self._table(self._vertex_of[s])
                    row = rows[s]
                v, _, moves = row
                if v == stop:
                    continue
                for step, t in moves:
                    c = cost + step
                    old = best[t]
                    if c < old:
                        best[t] = c
                        pred[t] = s
                        buckets[c].append(t)
                    elif c == old and self._before(s, pred[t], best, pred, t):
                        pred[t] = s
            yield cost
            cost += 1


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


def _walk_product(
    g: SystemGraph, edge_ops: Sequence[PauliString], j: int, edges: Sequence[int]
) -> Tuple[int, int, int]:
    """(x, z, phase) of the product of the directed edge operators along
    ``edges`` walked from j, an edge walked from its second end negated:
    the fold ``Router.operator`` runs state by state."""
    x = z = phase = 0
    for e in edges:
        op, (a, b) = edge_ops[e], g.edges[e]
        phase += op.phase + 2 * (z & op.x).bit_count() + 2 * (j != a)
        # a zero mask takes the operator's own int, where XOR would copy it
        x, z, j = x ^ op.x if x else op.x, z ^ op.z if z else op.z, b if j == a else a
    return x, z, phase


def _loop_stabilizer(
    g: SystemGraph, edge_ops: Sequence[PauliString], n: int, cycle: Cycle
) -> PauliString:
    edges = cycle.edges
    if len(edges) < 2:
        raise ParseError("a closed walk needs at least 2 edges")
    x, z, phase = _walk_product(g, edge_ops, cycle.vertices[0], edges)
    return _hermitian(PauliString._raw(n, x, z, phase + len(edges)), "cycle stabilizer")


def _cycle_tables(
    g: SystemGraph, edge_ops: Sequence[PauliString], n: int
) -> Tuple[List[Cycle], List[PauliString]]:
    """``cycle_basis(g)`` and the loop stabilizer of each of its cycles.
    With T(v) the raw product of the directed tree edges from v's root
    down to v, a fundamental cycle c climbs l_a tree edges from
    a = c.vertices[0] to its shallowest vertex, descends to
    b = c.vertices[-1] and closes along e = c.edges[-1].  Edge operators
    are Hermitian, so the climb is (-1)^{l_a} times the adjoint of the
    descent from there to a, and

        S(c) = i^{|c|} (-1)^{l_a} T(a)^dagger T(b) D(e, b -> a),

    one adjoint and two products per cycle, where ``_loop_stabilizer``
    folds |c| - 1.  The BFS depths that ``cycle_basis`` reads give
    2 l_a = |c| - 1 + depth(a) - depth(b)."""
    cycles, order, parent_edge, depth = _forest_cycles(g)
    prefix: Dict[int, Tuple[int, int, int]] = {}  # v -> (x, z, phase) of T(v)
    for v in order:
        e = parent_edge[v]
        if e is None:
            prefix[v] = 0, 0, 0
            continue
        op, (a, b) = edge_ops[e], g.edges[e]
        x, z, phase = prefix[b if v == a else a]
        # the tree edge walked from v's parent, negated when that is b
        prefix[v] = (x ^ op.x, z ^ op.z,
                     phase + op.phase + 2 * (z & op.x).bit_count() + 2 * (v == a))
    stabilizers = []
    for c in cycles:
        a, b, e = c.vertices[0], c.vertices[-1], c.edges[-1]
        (xa, za, pa), (xb, zb, pb) = prefix[a], prefix[b]
        op = edge_ops[e]
        # T(a)^dagger = i^-pa (-1)^{|xa & za|} X^xa Z^za, then T(b), then D
        x, z = xa ^ xb, za ^ zb
        phase = (pb - pa + 2 * ((xa & za).bit_count() + (za & xb).bit_count()
                                + (z & op.x).bit_count())
                 + op.phase + 2 * (b != g.edges[e][0]))
        # i^{|c|} (-1)^{l_a} = i^{|c| + 2 l_a}
        phase += 2 * len(c) - 1 + depth[a] - depth[b]
        stabilizers.append(_hermitian(
            PauliString._raw(n, x ^ op.x, z ^ op.z, phase), "cycle stabilizer"))
    return cycles, stabilizers


def _hermitian(op: PauliString, *what) -> PauliString:
    """``op``, or VerifyError naming it by the words of ``what``, which are
    joined only when it is not Hermitian."""
    if not op.is_hermitian():
        raise VerifyError(" ".join(map(str, what)) + " is not Hermitian")
    return op


def resolve_bases(g: SystemGraph, basis_choice: BasisChoice) -> Dict[int, MajoranaBasis]:
    """Per-vertex basis resolution: a single name, or a map from vertex id
    to a name or an explicit operator label list, whose ``"default"`` key
    covers the vertices it does not name (``jw`` without one); a key that
    is neither is a ParseError.  Vertices with the same registered name
    and degree share one verified basis object."""
    if isinstance(basis_choice, dict):
        rule = "basis keys must be 'default' or a vertex id"
        for key in basis_choice:
            if key != "default" and _integer(key, rule) not in g:
                raise ParseError(f"basis key {key!r} names no vertex")
    out: Dict[int, MajoranaBasis] = {}
    named: Dict[Tuple[str, int], MajoranaBasis] = {}
    for v in g.vertex_ids():
        d = g.degree(v)
        if d == 0:
            out[v] = MajoranaBasis(0, 0, (), "empty")
            continue
        choice = basis_choice
        if isinstance(basis_choice, dict):
            choice = basis_choice.get(v, basis_choice.get("default", "jw"))
        if isinstance(choice, str):
            if (choice, d) in named:
                out[v] = named[(choice, d)]
                continue
            basis = named[(choice, d)] = get_basis(choice, d)
        else:
            try:
                labels = list(choice)
            except TypeError:
                raise ParseError(
                    f"basis for vertex {v} must be a name or a label list, got {choice!r}"
                ) from None
            basis = basis_from_labels(d, labels)
        report = basis_verify(basis)
        if not report.ok:
            raise VerifyError(
                f"basis for vertex {v} is invalid: " + "; ".join(report.violations)
            )
        out[v] = basis
    return out


def build_encoding(g: SystemGraph, basis_choice: BasisChoice = "jw") -> Encoding:
    """Assemble the full encoding for a system graph.

    Qubits are laid out contiguously per vertex in ascending id order.
    Stabilizers are those of a fundamental cycle basis, a basis per
    component of a disconnected graph, and are built with the cycles on
    their first read.  ``ResourceError`` is raised, before any operator is
    embedded, when the tables would exceed ``TABLE_BUDGET``, the cycles
    counted at their bound.
    """
    bases = resolve_bases(g, basis_choice)
    layout: Dict[int, Tuple[int, int]] = {}
    offset = 0
    for v in g.vertex_ids():
        nv = bases[v].n_qubits
        layout[v] = (offset, nv)
        offset += nv
    total = offset
    # a fundamental cycle basis has at most one cycle per edge
    check_table_budget(total, 2 * len(g.edges) + len(layout))

    # port k of v takes v's local Majorana k; edge (a, b) is c_a^p c_b^q on
    # disjoint blocks: an OR of shifts, no cross term in the phase
    xs, zs, phases = [0] * len(g.edges), [0] * len(g.edges), [0] * len(g.edges)
    for v, (off, _) in layout.items():
        for c, eidx in zip(bases[v].ops, g.vertices[v].ports):
            xs[eidx] |= c.x << off
            zs[eidx] |= c.z << off
            phases[eidx] += c.phase
    edge_ops = [_hermitian(PauliString._raw(total, *xzp), "edge operator", eidx)
                for eidx, xzp in enumerate(zip(xs, zs, phases))]

    # vertices sharing a basis object share its product on their block
    products: Dict[int, PauliString] = {}
    vertex_ops: Dict[int, PauliString] = {}
    for v in g.vertex_ids():
        (off, nv), basis = layout[v], bases[v]
        op = products.get(id(basis))
        if op is None:
            op = reduce(mul, basis.ops, PauliString.identity(nv)).with_phase(nv)
            products[id(basis)] = op
        vertex_ops[v] = _hermitian(op.embed(total, off), "vertex operator", v)

    # both cycle tables are built together, on the first read of either
    tables = _LazyTable(lambda: _cycle_tables(g, edge_ops, total))
    return Encoding(
        graph=g,
        total_qubits=total,
        layout=layout,
        local_bases=bases,
        edge_ops=edge_ops,
        vertex_ops=vertex_ops,
        stabilizers=_LazyTable(lambda: tables[1]),
        cycles=_LazyTable(lambda: tables[0]),
    )


# ----------------------------------------------------------------------
# algebra validation


def verify_encoding_algebra(enc: Encoding) -> CheckReport:
    """Check the full operator algebra of an encoding.

    Edge operators anticommute exactly when they share one endpoint;
    vertex operators commute among themselves and anticommute with the
    edge operators at their vertex; stabilizers commute with everything;
    every operator is Hermitian and squares to +I; the stabilizers are
    exactly the loop stabilizers of the cycle basis, in order, each folded
    along its walk by ``loop_stabilizer``.

    The report keeps the first 20 findings.
    """
    rep = CheckReport()
    g = enc.graph

    def note(msg: str) -> None:
        if len(rep.violations) < 20:
            rep.violations.append(msg)

    everything = (
        [("edge", i, op) for i, op in enumerate(enc.edge_ops)]
        + [("vertex", v, enc.vertex_ops[v]) for v in g.vertex_ids()]
        + [("stab", i, op) for i, op in enumerate(enc.stabilizers)]
    )
    for kind, tag, op in everything:
        if op.weight() == 0 and kind != "vertex":
            note(f"{kind} {tag} is trivial")
        if not op.is_hermitian():
            note(f"{kind} {tag} is not Hermitian")
        if (op * op).phase != 0:
            note(f"{kind} {tag} squares to -I")

    # anti[r] bit k: operators r and k of ``everything`` anticommute; the
    # XOR of the operator columns (xcol[q] bit k: op k has X on q) over r's
    # support.  inc[v] bit i: edge i ends at v (parallel edges cancel).
    verts, ops = g.vertex_ids(), [op for _, _, op in everything]
    if any(op.n != enc.total_qubits for op in ops):
        raise DimensionError("encoded operators act on different qubit counts")
    xcol, zcol = [0] * enc.total_qubits, [0] * enc.total_qubits
    for k, op in enumerate(ops):
        for col, mask in ((xcol, op.x), (zcol, op.z)):
            for q in set_bits(mask):
                col[q] |= 1 << k
    anti = [
        reduce(xor, [zcol[q] for q in set_bits(op.x)], 0)
        ^ reduce(xor, [xcol[q] for q in set_bits(op.z)], 0)
        for op in ops
    ]
    ne, nv, inc = len(enc.edge_ops), len(verts), {v: 0 for v in verts}
    emask, vmask = (1 << ne) - 1, (1 << nv) - 1
    for i, (a, b) in enumerate(g.edges):
        inc[a] |= 1 << i
        inc[b] |= 1 << i
    for i, (a, b) in enumerate(g.edges):
        for j in set_bits((anti[i] ^ inc[a] ^ inc[b]) & (emask >> i + 1 << i + 1)):
            note(f"edges {i} and {j} have wrong commutation")
    for vi, v in enumerate(verts):
        for ui in set_bits((anti[ne + vi] >> ne) & (vmask >> vi + 1 << vi + 1)):
            note(f"vertex ops {v} and {verts[ui]} anticommute")
    vbit = {v: 1 << vi for vi, v in enumerate(verts)}
    for i, (a, b) in enumerate(g.edges):
        for vi in set_bits(((anti[i] >> ne) & vmask) ^ vbit[a] ^ vbit[b]):
            note(f"edge {i} vs vertex {verts[vi]}: wrong commutation")
    for si in range(len(enc.stabilizers)):
        for k in set_bits(anti[ne + nv + si]):
            kind, tag, _ = everything[k]
            note(f"stabilizer {si} fails to commute with {kind} {tag}")
    try:
        loops_ok = enc.stabilizers == [
            enc.loop_stabilizer(c) for c in enc.cycles
        ]
    except VerifyError:
        loops_ok = False
    if not loops_ok:
        note("stabilizers are not the loop stabilizers of the cycle basis")
    return rep
