"""Generators for every system-graph geometry used by the toolkit.

Lattice generators use geometric port order (clockwise starting from the
top neighbor); abstract geometries (complete graphs, stars, trees) order
ports by ascending neighbor id.  All generators are deterministic.

Hierarchical geometries (ternary tree, ternary MERA, hyperbolic tiling)
only fill exactly at particular mode counts; other counts are rounded up
and the surplus leaf slots kept as degree-1 virtual vertices, flagged in
``meta["unused_leaves"]``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .encoding import check_table_budget
from .errors import ParseError, ResourceError
from .graph import PHYSICAL, VIRTUAL, SystemGraph, Vertex, _integer

Coord = Tuple[int, int]


#: Neighbor offsets (row, col) of each lattice kind, clockwise from the
#: top; a ``linear`` chain is a single row with ports (left, right).
LATTICE_DIRECTIONS: Dict[str, Tuple[Coord, ...]] = {
    "linear": ((0, -1), (0, 1)),
    "square": ((-1, 0), (0, 1), (1, 0), (0, -1)),
    # axial coordinates: up, up-right, right, down, down-left, left
    "triangular": ((-1, 0), (-1, 1), (0, 1), (1, 0), (1, -1), (0, -1)),
    "square_diag": ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)),
}


def lattice_dims(kind: str, dims) -> Tuple[int, ...]:
    """``dims`` as a tuple of ints: one entry (n) for ``linear`` and
    ``blocked_square``, one or two (n meaning n x n) for the other
    lattices.  Any other count is refused, never truncated, and so is a
    size that is not an integer."""
    try:
        dims = (dims,) if isinstance(dims, str) else tuple(dims)
    except TypeError:
        dims = (dims,)
    most = 1 if kind in ("linear", "blocked_square") else 2
    if not 1 <= len(dims) <= most:
        takes = "1 dim" if most == 1 else "1 or 2 dims"
        raise ParseError(f"{kind} takes {takes} in --dims, got {len(dims)}: {dims!r}")
    return tuple(_integer(d, f"{kind} dims must be an integer") for d in dims)


# ----------------------------------------------------------------------
# regular lattices


def gen_lattice(kind: str, dims, boundary: str = "open") -> SystemGraph:
    """Linear, square, triangular or square_diag (square plus both
    diagonals) lattice of physical modes; site (r, c) is vertex
    r * cols + c.

    Ports run clockwise from the top neighbor (linear chains use
    (left, right)).  A lattice needs at least 2 sites, and a periodic one
    at least 2 along every side that a neighbor offset wraps; a periodic
    side of length 2 produces parallel edges, which are kept.
    """
    if kind not in LATTICE_DIRECTIONS:
        raise ParseError(f"unknown lattice kind {kind!r}")
    if boundary not in ("open", "periodic"):
        raise ParseError(f"unknown boundary {boundary!r}")
    dims = lattice_dims(kind, dims)
    rows, cols = (1, dims[0]) if kind == "linear" else (dims[0], dims[-1])
    g = _grid_graph(rows, cols, LATTICE_DIRECTIONS[kind], boundary == "periodic")
    g.meta = {
        "generator": "lattice",
        "params": {
            "kind": kind,
            "dims": [cols] if kind == "linear" else [rows, cols],
            "boundary": boundary,
        },
    }
    return g


def _grid_graph(
    rows: int, cols: int, directions: Sequence[Coord], periodic: bool
) -> SystemGraph:
    """Each edge is made once, from the site it leaves along a positive
    direction, and fills that direction's port slot at both ends; ports
    follow the order of ``directions``."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ParseError(f"invalid lattice dims {rows}x{cols}: a lattice needs >= 2 sites")
    if periodic and any((dr and rows < 2) or (dc and cols < 2) for dr, dc in directions):
        raise ParseError(f"periodic {rows}x{cols} lattice: a side it wraps needs >= 2 sites")

    back = [directions.index((-dr, -dc)) for dr, dc in directions]
    slots: List[List[Optional[int]]] = [[None] * len(directions) for _ in range(rows * cols)]
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            for i, (dr, dc) in enumerate(directions):
                if (dr, dc) < (0, 0):
                    continue
                tr, tc = r + dr, c + dc
                if periodic:
                    tr, tc = tr % rows, tc % cols
                elif not (0 <= tr < rows and 0 <= tc < cols):
                    continue
                a, b = r * cols + c, tr * cols + tc
                slots[a][i] = slots[b][back[i]] = len(edges)
                edges.append((a, b))
    ports = (tuple(e for e in slot if e is not None) for slot in slots)
    return SystemGraph([Vertex(v, PHYSICAL, p) for v, p in enumerate(ports)], edges)


def gen_square_with_diagonals(rows: int, cols: int, boundary: str = "open") -> SystemGraph:
    """``gen_lattice("square_diag", (rows, cols), boundary)``."""
    return gen_lattice("square_diag", (rows, cols), boundary)


# ----------------------------------------------------------------------
# all-to-all geometries


def gen_syk_geometry(kind: str, n_modes: int) -> SystemGraph:
    """System geometries for all-to-all coupled modes, one per kind of
    ``SYK_GEOMETRIES``: ``complete``, ``linear`` (periodic chain), ``star``
    (one central virtual mode), ``ternary_tree``, ``ternary_mera``,
    ``hyperbolic46``.

    Mode m is vertex m for m < n_modes and every other vertex is virtual.
    ``complete`` past n_modes = 152 raises ``ResourceError`` before any
    edge is built: ``build_encoding`` would refuse its tables.
    """
    n = _integer(n_modes, "n_modes must be an integer")
    if n < 2:
        raise ParseError("need at least 2 modes")
    if kind not in SYK_GEOMETRIES:
        raise ParseError(f"unknown geometry kind {kind!r}")
    edges, params, meta = SYK_GEOMETRIES[kind](n)
    meta = {"generator": "syk", "params": {"kind": kind, "n_modes": n, **params}, **meta}
    if isinstance(edges, SystemGraph):  # linear
        edges.meta = meta
        return edges
    virtual = {v: VIRTUAL for edge in edges for v in edge if v >= n}
    return SystemGraph.from_edges(edges, kinds=virtual, meta=meta)


def _ternary_depth(n: int) -> int:
    depth = 1
    while 3**depth < n:
        depth += 1
    return depth


def _ternary_tree(n: int):
    """Complete ternary tree with the modes at its first n leaves and any
    surplus leaves kept as placeholders.  Interior vertices have degree 4
    (three children plus a parent); the root has degree 3."""
    depth = _ternary_depth(n)
    leaves, internal = 3**depth, (3**depth - 1) // 2

    def vertex(i: int) -> int:
        # node i in BFS order (children 3i+1..3i+3): internal nodes follow
        # the leaves, root first
        return leaves + i if i < internal else i - internal

    edges = [(vertex((i - 1) // 3), vertex(i)) for i in range(1, internal + leaves)]
    return edges, {"depth": depth}, {"unused_leaves": leaves - n}


#: Wiring revision for the MERA-style geometry below; bump when the layer
#: rule changes so serialized graphs remain comparable.
MERA_WIRING_VERSION = 1


def _ternary_mera(n: int):
    """MERA-style hierarchy over a ternary coarse-graining.

    Each layer maps m sites to m/3 through two rows of degree-4 virtual
    vertices: pair vertices that straddle adjacent 3-site blocks
    (connecting the two boundary sites and the two merge vertices above),
    and merge vertices that absorb one block (connecting the middle site,
    the two flanking pair vertices, and one vertex of the next layer).
    Lateral separation l on the bottom row becomes an O(log l) path through
    the hierarchy.  The final three sites meet at a single top vertex.
    """
    depth = _ternary_depth(max(n, 3))
    n_bottom = 3**depth
    next_id = n_bottom
    edges: List[Tuple[int, int]] = []

    level = list(range(n_bottom))
    while len(level) > 3:
        m = len(level)
        nb = m // 3
        pair = list(range(next_id, next_id + nb))
        next_id += nb
        merge = list(range(next_id, next_id + nb))
        next_id += nb
        for i in range(nb):
            edges.append((level[3 * i + 2], pair[i]))
            edges.append((level[(3 * i + 3) % m], pair[i]))
            edges.append((merge[i], pair[(i - 1) % nb]))
            edges.append((merge[i], level[3 * i + 1]))
            edges.append((merge[i], pair[i]))
        level = merge
    edges.extend((s, next_id) for s in level)
    params = {"depth": depth, "wiring_version": MERA_WIRING_VERSION}
    return edges, params, {"unused_leaves": n_bottom - n}


# ----------------------------------------------------------------------
# hyperbolic {4,6} tiling


def _grow_hyperbolic_layer(
    n_vertices: int,
    edges: List[Tuple[int, int]],
    faces: List[Tuple[int, ...]],
    bd: List[int],
    fc: Dict[int, int],
) -> Tuple[int, List[int], Dict[int, int]]:
    """Add one ring of squares so every current boundary vertex becomes an
    interior vertex with 6 incident squares and degree 6.

    Around the boundary, each boundary edge receives one square and each
    boundary vertex v receives 4 - fc[v] further squares fanned around it;
    consecutive squares share one new outer vertex.  Returns the new
    vertex count, boundary walk, and boundary face counts.
    """
    m = len(bd)
    squares: List[Tuple] = []
    for i in range(m):
        u, v = bd[i], bd[(i + 1) % m]
        squares.append(("E", u, v))
        squares.extend([("V", v)] * (4 - fc[v]))
    S = len(squares)

    shared = list(range(n_vertices, n_vertices + S))
    n_vertices += S
    new_bd: List[int] = []
    new_fc: Dict[int, int] = {}

    for t, sq in enumerate(squares):
        left = shared[t - 1]
        right = shared[t]
        base = sq[2] if sq[0] == "E" else sq[1]
        # radial edge shared between square t and square t+1
        edges.append((base, right))
        if sq[0] == "E":
            _, u, v = sq
            edges.append((left, right))
            faces.append((u, left, right, v))
            new_bd.append(left)
        else:
            mid = n_vertices
            n_vertices += 1
            edges.append((left, mid))
            edges.append((mid, right))
            faces.append((sq[1], left, mid, right))
            new_bd.extend([left, mid])
        new_fc[left] = new_fc.get(left, 0) + 1
        new_fc[right] = new_fc.get(right, 0) + 1
        if sq[0] == "V":
            new_fc[mid] = 1
    return n_vertices, new_bd, new_fc


def _hyperbolic46(n: int):
    """Disk of the {4,6} tiling (4-sided faces, interior degree 6) grown
    layer by layer from a central face, with physical modes attached as
    pendant legs spread uniformly around the outermost boundary."""
    n_vertices = 4
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    faces: List[Tuple[int, ...]] = [(0, 1, 2, 3)]
    bd = [0, 1, 2, 3]
    fc = {0: 1, 1: 1, 2: 1, 3: 1}

    grown = 0
    while len(bd) < n:
        if grown > 8:
            raise ResourceError("hyperbolic tiling grew past 8 layers")
        n_vertices, bd, fc = _grow_hyperbolic_layer(n_vertices, edges, faces, bd, fc)
        grown += 1

    # pendant legs, uniformly indexed around the boundary
    m = len(bd)
    leg_anchor = [bd[(i * m) // n] for i in range(n)]
    leg_ids = list(range(n_vertices, n_vertices + n))
    for leg, anchor in zip(leg_ids, leg_anchor):
        edges.append((anchor, leg))

    # remap so physical legs take ids 0..n-1, tiling vertices follow
    remap = {old: i for i, old in enumerate(leg_ids)}
    for old in range(n_vertices):
        remap[old] = n + old
    edges = [(remap[a], remap[b]) for a, b in edges]
    meta = {
        "boundary": [remap[v] for v in bd],
        "faces": [[remap[v] for v in f] for f in faces],
    }
    return edges, {"layers": grown + 1}, meta


def _complete(n: int):
    """All n(n-1)/2 pairs, refused by ``build_encoding``'s budget rule
    before any is built: each vertex takes n // 2 qubits, and the tables
    count n^2 strings (an edge operator and at most one cycle per edge, a
    vertex operator per vertex)."""
    check_table_budget(n * (n // 2), n * n)
    return [(i, j) for i in range(n) for j in range(i + 1, n)], {}, {}


#: The all-to-all geometries in sweep order: kind -> builder of the edges
#: over n modes, the extra params and the extra meta.  ``linear`` builds
#: ``gen_lattice``'s periodic chain instead of edges, whose ports run
#: (left, right) rather than by ascending neighbor.
SYK_GEOMETRIES: Dict[str, Callable[[int], Tuple[object, dict, dict]]] = {
    "complete": _complete,
    "linear": lambda n: (gen_lattice("linear", n, "periodic"), {}, {}),
    "star": lambda n: ([(i, n) for i in range(n)], {}, {}),
    "ternary_tree": _ternary_tree,
    "ternary_mera": _ternary_mera,
    "hyperbolic46": _hyperbolic46,
}


# ----------------------------------------------------------------------
# blocked square lattice


def gen_blocked_square(L: int, blocks: int) -> SystemGraph:
    """L x L lattice partitioned into ``blocks`` square blocks, each block
    internally a chain.

    The top-left modes of the blocks, their heads, form the open square
    lattice of the blocks as ``gen_lattice`` lays it out, ports included
    (degree 5 in the bulk: four lattice neighbors plus the chain); the
    remaining modes of a block hang off its head as a boustrophedon chain.
    Bulk qubit total is L^2 + 2b before boundary corrections.
    """
    L = _integer(L, "L must be an integer")
    blocks = _integer(blocks, "blocks must be an integer")
    if L < 1:
        raise ParseError("L must be positive")
    root = math.isqrt(max(blocks, 0))
    if root < 1 or root * root != blocks or L % root:
        raise ParseError(f"cannot arrange {blocks} blocks on a {L}x{L} lattice")
    side = L // root

    def head(block: int) -> int:
        R, C = divmod(block, root)
        return R * side * L + C * side

    heads = SystemGraph([], [])  # one block has no head lattice
    if root > 1:
        heads = _grid_graph(root, root, LATTICE_DIRECTIONS["square"], False)
    edges = [(head(a), head(b)) for a, b in heads.edges]
    ports = {head(u): v.ports for u, v in heads.vertices.items()}
    verts = []
    for block in range(blocks):
        # head first, then the rest of the block row by row, alternating
        top, left = divmod(head(block), L)
        chain = [
            (top + i) * L + left + (j if i % 2 == 0 else side - 1 - j)
            for i in range(side)
            for j in range(side)
        ]
        first = len(edges)
        edges.extend(zip(chain, chain[1:]))
        for i, v in enumerate(chain):
            links = tuple(first + k for k in (i - 1, i) if 0 <= k < len(chain) - 1)
            verts.append(Vertex(v, PHYSICAL, ports.get(v, ()) + links))
    meta = {
        "generator": "blocked_square",
        "params": {"L": L, "blocks": blocks, "block_dims": [side, side]},
    }
    return SystemGraph(verts, edges, meta)


# ----------------------------------------------------------------------
# heavy-hexagon device geometry

_HH_ROW_LENGTHS = (10, 11, 11, 11, 10)
# rung columns between consecutive rows, alternating offsets
_HH_RUNG_COLS = ((0, 4, 8), (2, 6, 10), (0, 4, 8), (2, 6, 10))
# column offset of each row in the brick-wall alignment
_HH_ROW_OFFSETS = (0, 0, 0, 0, 1)


def heavy_hex_device() -> Tuple[int, List[Tuple[int, int]]]:
    """The 65-qubit heavy-hexagon coupling graph: five rows of qubits
    joined by twelve rung qubits at alternating columns.

    Returns (number of qubits, edge list)."""
    row_start = []
    rung_start = []
    nid = 0
    for r, length in enumerate(_HH_ROW_LENGTHS):
        row_start.append(nid)
        nid += length
        if r < len(_HH_ROW_LENGTHS) - 1:
            rung_start.append(nid)
            nid += len(_HH_RUNG_COLS[r])
    total = nid

    def row_qubit(r: int, col: int) -> int:
        return row_start[r] + (col - _HH_ROW_OFFSETS[r])

    edges = []
    for r, length in enumerate(_HH_ROW_LENGTHS):
        for i in range(length - 1):
            edges.append((row_start[r] + i, row_start[r] + i + 1))
    for r, cols in enumerate(_HH_RUNG_COLS):
        for i, col in enumerate(cols):
            rung = rung_start[r] + i
            edges.append((row_qubit(r, col), rung))
            edges.append((rung, row_qubit(r + 1, col)))
    return total, edges


def gen_heavy_hex() -> SystemGraph:
    """Encode 49 fermionic modes into the 65-qubit heavy-hexagon device.

    Each degree-3 device qubit is grouped with an adjacent row qubit so the
    resulting degree-3 system vertex owns the 2 qubits it needs; all other
    device qubits stand alone as degree <= 2 vertices with 1 qubit.  Each
    system edge joins two groups that share a device coupling.  No map from
    a vertex's encoded qubits to its group's device qubits is fixed yet, so
    an encoded operator may act on device qubits the device does not join.
    """
    n_dev, dev_edges = heavy_hex_device()
    adj: Dict[int, List[int]] = {q: [] for q in range(n_dev)}
    for a, b in dev_edges:
        adj[a].append(b)
        adj[b].append(a)

    deg3 = sorted(q for q in range(n_dev) if len(adj[q]) == 3)
    partner: Dict[int, int] = {}
    for q in deg3:
        # pair with the smaller-id degree-2 row neighbor (degree-1 corners
        # would leave the merged vertex short of its 3 couplings)
        row_nbrs = sorted(u for u in adj[q] if len(adj[u]) == 2 and abs(u - q) == 1)
        if not row_nbrs:
            raise ParseError("heavy-hex pairing failed")
        partner[q] = row_nbrs[0]
    partners = set(partner.values())
    if len(partners) != len(partner):
        raise ParseError("heavy-hex pairing collided")

    # each degree-3 qubit and its partner form one group, placed at the former
    groups = [sorted([q, partner[q]]) if q in partner else [q]
              for q in range(n_dev) if q not in partners]
    group_of = {q: gid for gid, members in enumerate(groups) for q in members}

    edges = set()
    for a, b in dev_edges:
        ga, gb = group_of[a], group_of[b]
        if ga != gb:
            edges.add((min(ga, gb), max(ga, gb)))
    meta = {
        "generator": "heavy_hex",
        "params": {"device_qubits": n_dev},
        "groups": groups,
        "device_edges": [list(e) for e in sorted(dev_edges)],
    }
    return SystemGraph.from_edges(sorted(edges), n_vertices=len(groups), meta=meta)
