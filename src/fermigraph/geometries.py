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
import operator
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ParseError, ResourceError
from .graph import PHYSICAL, VIRTUAL, SystemGraph, Vertex

Coord = Tuple[int, int]


#: Neighbor offsets (row, col) of each lattice kind, clockwise from the
#: top; a ``linear`` chain is a single row with ports (left, right).
_DIRECTIONS: Dict[str, Tuple[Coord, ...]] = {
    "linear": ((0, -1), (0, 1)),
    "square": ((-1, 0), (0, 1), (1, 0), (0, -1)),
    # axial coordinates: up, up-right, right, down, down-left, left
    "triangular": ((-1, 0), (-1, 1), (0, 1), (1, 0), (1, -1), (0, -1)),
    "square_diag": ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)),
}


def _integer(value, what: str) -> int:
    """``value`` as an int: an int or integer-like (``operator.index``),
    never a bool, a float or a string."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


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
    return tuple(_integer(d, f"{kind} dims") for d in dims)


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
    if kind not in _DIRECTIONS:
        raise ParseError(f"unknown lattice kind {kind!r}")
    if boundary not in ("open", "periodic"):
        raise ParseError(f"unknown boundary {boundary!r}")
    dims = lattice_dims(kind, dims)
    rows, cols = (1, dims[0]) if kind == "linear" else (dims[0], dims[-1])
    g = _grid_graph(rows, cols, _DIRECTIONS[kind], boundary == "periodic")
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
    """Edges are created once from each vertex along the positive half of
    ``directions``; ports follow the order of ``directions``."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ParseError(f"invalid lattice dims {rows}x{cols}: a lattice needs >= 2 sites")
    if periodic and any((dr and rows < 2) or (dc and cols < 2) for dr, dc in directions):
        raise ParseError(f"periodic {rows}x{cols} lattice: a side it wraps needs >= 2 sites")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    def resolve(r: int, c: int) -> Optional[Coord]:
        if periodic:
            return r % rows, c % cols
        if 0 <= r < rows and 0 <= c < cols:
            return r, c
        return None

    positive = [d for d in directions if d > (0, 0)]
    edges: List[Tuple[int, int]] = []
    edge_id: Dict[Tuple[int, int, Coord], int] = {}
    for r in range(rows):
        for c in range(cols):
            for d in positive:
                tgt = resolve(r + d[0], c + d[1])
                if tgt is None:
                    continue
                edge_id[(r, c, d)] = len(edges)
                edges.append((vid(r, c), vid(*tgt)))

    verts = []
    for r in range(rows):
        for c in range(cols):
            ports = []
            for d in directions:
                tgt = resolve(r + d[0], c + d[1])
                if tgt is None:
                    continue
                if d > (0, 0):
                    ports.append(edge_id[(r, c, d)])
                else:
                    ports.append(edge_id[(tgt[0], tgt[1], (-d[0], -d[1]))])
            verts.append(Vertex(vid(r, c), PHYSICAL, tuple(ports)))
    return SystemGraph(verts, edges)


def gen_square_with_diagonals(rows: int, cols: int, boundary: str = "open") -> SystemGraph:
    """``gen_lattice("square_diag", (rows, cols), boundary)``."""
    return gen_lattice("square_diag", (rows, cols), boundary)


# ----------------------------------------------------------------------
# all-to-all geometries


def gen_syk_geometry(kind: str, n_modes: int) -> SystemGraph:
    """System geometries for all-to-all coupled modes.

    Kinds: ``complete``, ``linear`` (periodic chain), ``star`` (one central
    virtual mode), ``ternary_tree``, ``ternary_mera``, ``hyperbolic46``.
    """
    n_modes = _integer(n_modes, "n_modes")
    if n_modes < 2:
        raise ParseError("need at least 2 modes")
    if kind == "complete":
        return _gen_complete(n_modes)
    if kind == "linear":
        g = gen_lattice("linear", n_modes, "periodic")
        g.meta = {"generator": "syk", "params": {"kind": "linear", "n_modes": n_modes}}
        return g
    if kind == "star":
        return _gen_star(n_modes)
    if kind == "ternary_tree":
        return _gen_ternary_tree(n_modes)
    if kind == "ternary_mera":
        return _gen_ternary_mera(n_modes)
    if kind == "hyperbolic46":
        return _gen_hyperbolic46(n_modes)
    raise ParseError(f"unknown geometry kind {kind!r}")


def _gen_complete(n: int) -> SystemGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = SystemGraph.from_edges(edges, meta={"generator": "syk", "params": {"kind": "complete", "n_modes": n}})
    return g


def _gen_star(n: int) -> SystemGraph:
    center = n
    edges = [(i, center) for i in range(n)]
    kinds = {center: VIRTUAL}
    return SystemGraph.from_edges(
        edges,
        kinds=kinds,
        meta={"generator": "syk", "params": {"kind": "star", "n_modes": n}},
    )


def _ternary_depth(n: int) -> int:
    depth = 1
    while 3**depth < n:
        depth += 1
    return depth


def _gen_ternary_tree(n: int) -> SystemGraph:
    """Complete ternary tree: physical modes at the first n leaves, any
    surplus leaves kept as virtual placeholders.  Interior vertices have
    degree 4 (three children plus a parent); the root has degree 3."""
    depth = _ternary_depth(n)
    n_leaves = 3**depth
    n_internal = (3**depth - 1) // 2
    # ids: physical leaves 0..n-1, surplus leaves, then internals (root last)
    leaf_ids = list(range(n_leaves))
    internal_ids = [n_leaves + i for i in range(n_internal)]

    # internal nodes in BFS order: index i has children 3i+1, 3i+2, 3i+3
    # (children are internal while < n_internal, else leaves)
    edges = []
    for i in range(n_internal):
        for b in range(3):
            child = 3 * i + 1 + b
            if child < n_internal:
                edges.append((internal_ids[i], internal_ids[child]))
            else:
                leaf = child - n_internal
                edges.append((internal_ids[i], leaf_ids[leaf]))
    kinds = {vid: VIRTUAL for vid in internal_ids}
    for leaf in range(n, n_leaves):
        kinds[leaf] = VIRTUAL
    meta = {
        "generator": "syk",
        "params": {"kind": "ternary_tree", "n_modes": n, "depth": depth},
        "unused_leaves": n_leaves - n,
    }
    return SystemGraph.from_edges(edges, kinds=kinds, meta=meta)


#: Wiring revision for the MERA-style geometry below; bump when the layer
#: rule changes so serialized graphs remain comparable.
MERA_WIRING_VERSION = 1


def _gen_ternary_mera(n: int) -> SystemGraph:
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
    kinds = {vid: VIRTUAL for vid in range(n, n_bottom)}
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
        for vid in pair + merge:
            kinds[vid] = VIRTUAL
        level = merge
    top = next_id
    kinds[top] = VIRTUAL
    for s in level:
        edges.append((s, top))
    meta = {
        "generator": "syk",
        "params": {
            "kind": "ternary_mera",
            "n_modes": n,
            "depth": depth,
            "wiring_version": MERA_WIRING_VERSION,
        },
        "unused_leaves": n_bottom - n,
    }
    return SystemGraph.from_edges(edges, kinds=kinds, meta=meta)


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


def _gen_hyperbolic46(n: int) -> SystemGraph:
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
    kinds = {remap[v]: VIRTUAL for v in range(n_vertices)}
    meta = {
        "generator": "syk",
        "params": {"kind": "hyperbolic46", "n_modes": n, "layers": grown + 1},
        "boundary": [remap[v] for v in bd],
        "faces": [[remap[v] for v in f] for f in faces],
    }
    return SystemGraph.from_edges(edges, kinds=kinds, meta=meta)


# ----------------------------------------------------------------------
# blocked square lattice


def gen_blocked_square(L: int, blocks: int) -> SystemGraph:
    """L x L lattice partitioned into ``blocks`` square blocks, each block
    internally a chain.

    The top-left mode of each block stays on a coarse square lattice of
    block heads (degree 5 in the bulk: four lattice neighbors plus the
    chain); the remaining modes of a block hang off the head as a
    boustrophedon chain.  Bulk qubit total is L^2 + 2b before boundary
    corrections.
    """
    L, blocks = _integer(L, "L"), _integer(blocks, "blocks")
    if L < 1:
        raise ParseError("L must be positive")
    root = math.isqrt(max(blocks, 0))
    if root < 1 or root * root != blocks or L % root:
        raise ParseError(f"cannot arrange {blocks} blocks on a {L}x{L} lattice")
    bh = bw = L // root
    K, M = L // bh, L // bw  # coarse grid

    def vid(r: int, c: int) -> int:
        return r * L + c

    def block_chain(R: int, C: int) -> List[int]:
        """Head first, then the rest of the block in boustrophedon order."""
        out = []
        for i in range(bh):
            r = R * bh + i
            cols = range(bw) if i % 2 == 0 else range(bw - 1, -1, -1)
            out.extend(vid(r, C * bw + j) for j in cols)
        return out

    edges: List[Tuple[int, int]] = []
    head_edge: Dict[Tuple[int, int, str], int] = {}
    for R in range(K):
        for C in range(M):
            head = vid(R * bh, C * bw)
            if C + 1 < M:
                head_edge[(R, C, "right")] = len(edges)
                edges.append((head, vid(R * bh, (C + 1) * bw)))
            if R + 1 < K:
                head_edge[(R, C, "down")] = len(edges)
                edges.append((head, vid((R + 1) * bh, C * bw)))
    chain_edges: Dict[Tuple[int, int], int] = {}
    chains: Dict[Tuple[int, int], List[int]] = {}
    for R in range(K):
        for C in range(M):
            seq = block_chain(R, C)
            chains[(R, C)] = seq
            for a, b in zip(seq, seq[1:]):
                chain_edges[(a, b)] = len(edges)
                edges.append((a, b))

    verts = []
    for R in range(K):
        for C in range(M):
            seq = chains[(R, C)]
            head = seq[0]
            ports = []
            if R > 0:
                ports.append(head_edge[(R - 1, C, "down")])
            if C + 1 < M:
                ports.append(head_edge[(R, C, "right")])
            if R + 1 < K:
                ports.append(head_edge[(R, C, "down")])
            if C > 0:
                ports.append(head_edge[(R, C - 1, "right")])
            if len(seq) > 1:
                ports.append(chain_edges[(seq[0], seq[1])])
            verts.append(Vertex(head, PHYSICAL, tuple(ports)))
            for i in range(1, len(seq)):
                ports = [chain_edges[(seq[i - 1], seq[i])]]
                if i + 1 < len(seq):
                    ports.append(chain_edges[(seq[i], seq[i + 1])])
                verts.append(Vertex(seq[i], PHYSICAL, tuple(ports)))
    meta = {
        "generator": "blocked_square",
        "params": {"L": L, "blocks": K * M, "block_dims": [bh, bw]},
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
    device qubits stand alone as degree <= 2 vertices with 1 qubit.  Every
    system-graph edge corresponds to at least one device coupling between
    the two groups, so encoded operators respect device connectivity.
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
    if len(set(partner.values())) != len(partner):
        raise ParseError("heavy-hex pairing collided")

    group_of: Dict[int, int] = {}
    groups: List[List[int]] = []
    for q in range(n_dev):
        if q in group_of:
            continue
        if q in partner:
            members = sorted([q, partner[q]])
        elif q in partner.values():
            continue  # handled with its degree-3 partner
        else:
            members = [q]
        gid = len(groups)
        groups.append(members)
        for m in members:
            group_of[m] = gid

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
