"""Generator-level checks: degrees, qubit totals, declared patterns."""

import pytest

from fermigraph.errors import ParseError
from fermigraph.geometries import (
    gen_blocked_square,
    gen_heavy_hex,
    gen_lattice,
    gen_square_with_diagonals,
    gen_syk_geometry,
    heavy_hex_device,
)
from fermigraph.graph import PHYSICAL, VIRTUAL, qubit_count


def port_permutation_ok(g):
    for v in g.vertex_ids():
        ports = g.vertices[v].ports
        incident = [i for i, e in enumerate(g.edges) if v in e]
        assert sorted(ports) == sorted(incident)


class TestLattices:
    def test_chain_periodic(self):
        g = gen_lattice("linear", 4, "periodic")
        assert all(g.degree(v) == 2 for v in g.vertex_ids())
        assert qubit_count(g) == 4
        port_permutation_ok(g)

    def test_square_periodic_degree_and_qubits(self):
        for L in (2, 3, 4):
            g = gen_lattice("square", (L, L), "periodic")
            assert all(g.degree(v) == 4 for v in g.vertex_ids())
            assert qubit_count(g) == 2 * L * L

    def test_triangular_bulk_degree(self):
        g = gen_lattice("triangular", (4, 4), "periodic")
        assert all(g.degree(v) == 6 for v in g.vertex_ids())
        assert all(g.qubits_at(v) == 3 for v in g.vertex_ids())

    def test_open_square_corner(self):
        g = gen_lattice("square", (3, 3), "open")
        assert g.degree(0) == 2 and g.degree(4) == 4

    def test_diagonal_lattice_bulk_degree_8(self):
        g = gen_square_with_diagonals(3, 3, "open")
        assert g.degree(4) == 8

    def test_bad_dims(self):
        with pytest.raises(ParseError):
            gen_lattice("linear", 0)
        with pytest.raises(ParseError):
            gen_lattice("square", (1, 4), "periodic")


class TestSykGeometries:
    def test_complete(self):
        g = gen_syk_geometry("complete", 4)
        assert qubit_count(g) == 8  # 4 * ceil(3/2)
        assert len(g.edges) == 6
        assert all(g.vertices[v].kind == PHYSICAL for v in g.vertex_ids())

    def test_linear(self):
        g = gen_syk_geometry("linear", 10)
        assert qubit_count(g) == 10

    def test_star_counts(self):
        g = gen_syk_geometry("star", 8)
        assert qubit_count(g) == 12
        center = [v for v in g.vertex_ids() if g.vertices[v].kind == VIRTUAL]
        assert len(center) == 1 and g.degree(center[0]) == 8
        # ports on the center ascend by leaf id
        assert g.neighbors(center[0]) == list(range(8))

    def test_ternary_tree_pattern(self):
        g = gen_syk_geometry("ternary_tree", 27)
        assert g.meta["unused_leaves"] == 0
        internals = [
            v for v in g.vertex_ids() if g.vertices[v].kind == VIRTUAL
        ]
        degrees = sorted(g.degree(v) for v in internals)
        assert degrees.count(3) == 1  # the root
        assert all(d in (3, 4) for d in degrees)
        leaves = [v for v in g.vertex_ids() if g.vertices[v].kind == PHYSICAL]
        assert len(leaves) == 27 and all(g.degree(v) == 1 for v in leaves)

    def test_ternary_tree_rounds_up(self):
        g = gen_syk_geometry("ternary_tree", 5)
        assert g.meta["unused_leaves"] == 4
        assert len(g.physical_ids()) == 5

    def test_mera_degree_pattern(self):
        g = gen_syk_geometry("ternary_mera", 27)
        phys = set(g.physical_ids())
        assert len(phys) == 27
        top_seen = 0
        for v in g.vertex_ids():
            if v in phys:
                assert g.degree(v) == 1
            elif g.degree(v) == 3:
                top_seen += 1
            elif g.degree(v) != 1:  # unused bottom slots stay degree 1
                assert g.degree(v) == 4, (v, g.degree(v))
        assert top_seen == 1

    def test_hyperbolic_interior(self):
        g = gen_syk_geometry("hyperbolic46", 24)
        boundary = set(g.meta["boundary"])
        legs = set(g.physical_ids())
        for v in g.vertex_ids():
            if v in legs:
                assert g.degree(v) == 1
            elif v not in boundary:
                assert g.degree(v) == 6, (v, g.degree(v))
        assert all(len(f) == 4 for f in g.meta["faces"])

    def test_hyperbolic_grows_to_fit(self):
        g = gen_syk_geometry("hyperbolic46", 40)
        assert len(g.meta["boundary"]) >= 40

    def test_physical_counts(self):
        for kind in ("complete", "linear", "star", "ternary_tree",
                     "ternary_mera", "hyperbolic46"):
            for n in (5, 12):
                g = gen_syk_geometry(kind, n)
                assert len(g.physical_ids()) == n, kind

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            gen_syk_geometry("moebius", 4)


class TestBlockedSquare:
    def test_one_by_one_blocks_is_plain_lattice(self):
        g = gen_blocked_square(4, 16)
        ref = gen_lattice("square", (4, 4), "open")
        assert sorted(g.edges) == sorted(ref.edges)

    def test_single_block_is_chain(self):
        g = gen_blocked_square(4, 1)
        assert all(g.degree(v) <= 2 for v in g.vertex_ids())
        assert len(g.edges) == 15

    def test_two_by_two_blocks_qubits(self):
        g = gen_blocked_square(4, 4)
        # bulk rule L^2 + 2b = 24; every head here is a coarse corner
        # (degree 3 instead of 5), costing one qubit each: 24 - 4 = 20.
        assert qubit_count(g) == 20

    def test_bulk_head_degree_5(self):
        g = gen_blocked_square(6, 9)
        heads = [v for v in g.vertex_ids() if g.degree(v) > 2]
        assert max(g.degree(v) for v in heads) == 5
        # interior head count (K-2)(M-2) with K = M = 3
        assert sum(1 for v in heads if g.degree(v) == 5) == 1

    def test_indivisible(self):
        with pytest.raises(ParseError):
            gen_blocked_square(4, 3)

    @pytest.mark.parametrize("blocks", [0, -4])
    def test_no_blocks(self, blocks):
        with pytest.raises(ParseError, match="cannot arrange"):
            gen_blocked_square(4, blocks)


class TestHeavyHex:
    def test_device_shape(self):
        n, edges = heavy_hex_device()
        assert n == 65 and len(edges) == 72
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        assert sum(1 for d in deg.values() if d == 3) == 16

    def test_modes_and_qubits(self):
        g = gen_heavy_hex()
        assert len(g.vertex_ids()) == 49
        assert qubit_count(g) == 65

    def test_group_sizes_match_allocation(self):
        g = gen_heavy_hex()
        for v in g.vertex_ids():
            assert g.qubits_at(v) == len(g.meta["groups"][v])

    def test_paired_vertices_have_degree_3(self):
        g = gen_heavy_hex()
        paired = [v for v in g.vertex_ids() if len(g.meta["groups"][v]) == 2]
        assert len(paired) == 16
        assert all(g.degree(v) == 3 for v in paired)
        singles = [v for v in g.vertex_ids() if len(g.meta["groups"][v]) == 1]
        assert all(g.degree(v) <= 2 for v in singles)

    def test_edges_realizable_on_device(self):
        """Every system edge is backed by a device coupling between the
        corresponding qubit groups."""
        g = gen_heavy_hex()
        dev = set(map(tuple, g.meta["device_edges"]))
        groups = g.meta["groups"]
        for a, b in g.edges:
            assert any(
                (min(qa, qb), max(qa, qb)) in dev
                for qa in groups[a]
                for qb in groups[b]
            )
