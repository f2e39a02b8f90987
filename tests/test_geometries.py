"""Generator-level checks: degrees, qubit totals, declared patterns."""

import hashlib

import numpy as np
import pytest

from fermigraph.errors import ParseError
from fermigraph.fermion import build_lattice_model
from fermigraph.fileio import graph_to_json
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

    @pytest.mark.parametrize("kind,dims,bc", [
        ("linear", 1, "open"),  # once a 0-qubit graph
        ("linear", 1, "periodic"),
        ("square", (1, 1), "open"),
        ("linear", (4, 6), "open"),  # once silently 4 sites
        ("linear", (), "open"),
        ("square", (2, 3, 4), "open"),
        ("triangular", (2, 3, 4), "periodic"),
        ("hexagonal", 4, "open"),
        ("square", 3, "twisted"),
    ])
    def test_refused(self, kind, dims, bc):
        with pytest.raises(ParseError):
            gen_lattice(kind, dims, bc)

    @pytest.mark.parametrize("make", [
        lambda: gen_lattice("square", (2.5, 3)),
        lambda: gen_lattice("square", "4"),
        lambda: gen_lattice("square", "44"),
        lambda: gen_lattice("linear", True),  # once "1xTrue"
        lambda: gen_lattice("square", (3, False)),
        lambda: gen_lattice("linear", 4.0),
        lambda: gen_lattice("linear", None),
        lambda: gen_square_with_diagonals(3, 2.5),
        lambda: build_lattice_model("chain", 2.5),
        lambda: build_lattice_model("square_nn", (3, "3")),
        lambda: gen_syk_geometry("star", 4.5),
        lambda: gen_syk_geometry("complete", "4"),
        lambda: gen_syk_geometry("linear", True),
        lambda: gen_blocked_square(4, 2.0),
        lambda: gen_blocked_square(True, 1),  # once a 1x1 lattice with L True
    ], ids=["float", "str", "str2", "bool", "bool_col", "whole_float", "none",
            "diag_float", "model_float", "model_str", "syk_float", "syk_str",
            "syk_bool", "blocks_float", "blocked_bool"])
    def test_non_integer_size_refused(self, make):
        """A size that is not an integer is a parse error, once a bare
        TypeError (or, for a bool, a lattice of that many sites)."""
        with pytest.raises(ParseError, match="must be an integer"):
            make()

    def test_integer_likes_are_ints(self):
        """``operator.index`` sizes, such as numpy's, lay out the same
        graph as ints, down to the meta's plain ints in the JSON."""
        pairs = [
            (gen_lattice("square", np.int64(4)), gen_lattice("square", 4)),
            (gen_lattice("square_diag", (np.int64(2), np.int32(3)), "periodic"),
             gen_lattice("square_diag", (2, 3), "periodic")),
            (gen_lattice("linear", np.array([5])), gen_lattice("linear", 5)),
            (gen_syk_geometry("star", np.int64(5)), gen_syk_geometry("star", 5)),
            (gen_syk_geometry("linear", np.int16(6)), gen_syk_geometry("linear", 6)),
            (gen_blocked_square(np.int64(4), np.int64(4)), gen_blocked_square(4, 4)),
        ]
        for got, want in pairs:
            assert graph_to_json(got) == graph_to_json(want)
        model = build_lattice_model("chain", np.int64(4), u=0.5)
        assert model == build_lattice_model("chain", 4, u=0.5)

    @pytest.mark.parametrize("kind,dims", [
        ("square", (1, 4)), ("triangular", (4, 1)), ("square_diag", (1, 4)),
    ])
    def test_periodic_side_of_one(self, kind, dims):
        """Named as such, not left to the self loop it would make."""
        with pytest.raises(ParseError, match="a side it wraps needs >= 2 sites"):
            gen_lattice(kind, dims, "periodic")

    def test_open_single_row_is_allowed(self):
        """Only a side that some offset wraps needs 2 sites: a chain is one
        row, and an open 1 x n square lattice is a chain."""
        assert gen_lattice("square", (1, 4), "open").edges == ((0, 1), (1, 2), (2, 3))

    @pytest.mark.parametrize("dims", [3, (3,), (2, 5)])
    @pytest.mark.parametrize("bc", ["open", "periodic"])
    def test_square_diag_kind(self, dims, bc):
        shape = (dims, dims) if isinstance(dims, int) else dims * (3 - len(dims))
        assert gen_lattice("square_diag", dims, bc) == gen_square_with_diagonals(*shape, bc)


#: sha256 of ``graph_to_json`` for lattices laid out before every kind
#: shared one grid builder; any change to ids, edge order, ports or meta
#: shows here.
LATTICE_GRAPH_SHA256 = [
    ("linear", 2, "open", "f25c53970673faaabe9806e4a219e1d56295dead51e613c3c380778dbe6321c9"),
    ("linear", 2, "periodic", "321b4c55fe01d742242b1abe39a3bb03941e2a563e6819429c15ed16e1a9a055"),
    ("linear", 3, "open", "ca446334dd8298592596f829c62d2dc92ed9e0ecb0cab409b470f616082cc74c"),
    ("linear", 3, "periodic", "14809cb48936f6ac52aad4e0727f056f91bc9eace72ba2869393a42b2ecfe5a1"),
    ("linear", 7, "open", "daf53a9b9f0ea26ccd33d6e7992bde2d5690c029ce37473c10bcacbde16bead5"),
    ("linear", 7, "periodic", "0408e4df1458e7f6c545f99555a14d253b1b6a61126b29aa6394521e90dc6778"),
    ("square", (2, 2), "open", "678ccf55b28df70f6468d49a496dea8d653eb3b55d397fdfa77b91a28641daf3"),
    ("square", (2, 2), "periodic", "24802368015c40646f0dc8c433fc26ab4301610736ce5cb2d529cb3ef9f8d374"),
    ("square", (3, 4), "open", "633c53d70a78b6c3bd1a6b65d60d033c37779a77fbf8eef9fee1d50945f48803"),
    ("square", (3, 4), "periodic", "95ef11dc633bbc5c9588c125995f65356e1ed2ec416d32fa58a7d7a1f427aa91"),
    ("triangular", (2, 2), "open", "cd911183859ca7963e3f5bb4911398a8067a312e7b8e65fad2f2de50cba16329"),
    ("triangular", (2, 2), "periodic", "76940e92034d94e868283d880894af49c62743438d9ee9fdc523719bb5c61fb7"),
    ("triangular", (3, 4), "open", "f459117fb76a0f1fec702b19bd1ce1fee2038396420150a66359a9a8558c0bc8"),
    ("triangular", (3, 4), "periodic", "c52dfd623101a5cdc66174c91cbf94b25f66a55d94250f642d2a4a3ff48b7739"),
    ("square_diag", (2, 2), "open", "bab1353ca6b736a34fc836eed2e4768a1129b9f595b864457e9d5389841014e8"),
    ("square_diag", (2, 2), "periodic", "0214737bbb0c18100471aa9dc8da09869fc5f8f54d30a5ad4a9a9385d5fce9b0"),
    ("square_diag", (3, 4), "open", "2a83d9285d254c5dd39b823047fb8b35303af4622240a9c54ac716ed8f653952"),
    ("square_diag", (3, 4), "periodic", "601f555232cdd4beb1f8440481a8c51f840d587233549eed7b5ee22e16e1f260"),
    # periodic sides of length 2: parallel edges keep their ports
    ("square", (2, 3), "periodic", "960f3cfeb08d0acc18d44dc313e2cdc66f85a919095e9a42c5ba861d22d25ae1"),
    ("triangular", (2, 3), "periodic", "905999b0b600fc5882ab25142b78f27277e26057113cff4bf4ae55132d7c8200"),
    ("square_diag", (2, 3), "periodic", "a2d530d6d1b3843a6b8e1737bdfa114759ea276dea90f78ff926d5f0b0599fc3"),
]

#: sha256 of ``graph_to_json(gen_blocked_square(L, blocks))`` for every
#: valid (L, blocks) with L <= 8.
BLOCKED_SQUARE_GRAPH_SHA256 = [
    (1, 1, "2d02c8f544d7adfdf007a044e62148528e1d70c6434898c6b79f4af4d0ee7753"),
    (2, 1, "db65ae3f8758c963a17b83630d7c9e94ac35ddc3dbda0a4e230ac84ea353a384"),
    (2, 4, "60552a939fc9c54f694384546d9a2d17b5b1c72e110fae392c34b98b19927cbf"),
    (3, 1, "5bfa93b6f5f4ee54dd1cd22ad4737fb5c19980f716b4288720b46a57cb902274"),
    (3, 9, "9b0260daccda4b1593531c1c0967fbc0c0c43d31224c712ac54178119ea5d61c"),
    (4, 1, "05f5f1fa47dbfd647ac508a0dc8066f3edb14ab0ecc974cfdef4abe5e91e515b"),
    (4, 4, "210029f3ace4bbc18df5447cc8531829babd33ec0f4a50922520fc51751c9469"),
    (4, 16, "711ca516378c5a1f2517c1b47315d5a941836d7f550d4d52154d4866a27d6af6"),
    (5, 1, "9d6850898b9e5ae70480e71faf3221b1056bc67391327cf1c12d56f070133432"),
    (5, 25, "ecf9499b8ce7f174b5cf8bcc4ba763312be26b4bff0abae3a15ef5dacc7549cd"),
    (6, 1, "6d98c01767a63bd15c99c9f65375e14910baf77b129018cd03d04ffa9efef662"),
    (6, 4, "415d20d4c07e6c7bed5680332489316d7fb8f7045375df58035242f56ab82ef7"),
    (6, 9, "8fc9f5624ab4691d7f4eb083dd1be35136b269ef7147f9e4550f9baa69a79f1d"),
    (6, 36, "35f29ef4aa55ccaba935b09df15c03249c06c70344f983b572876fa4f87c74f7"),
    (7, 1, "e412210e8f3ae80c843e764eba8653a5652d1a066a2f4ea811761ba8a2471f98"),
    (7, 49, "238bc11beaee75db1b9fde45f89223ad77389455461512d805f10d99f7b73943"),
    (8, 1, "427a5f98da8a70b0fe90528c0f33e1a21cd882e87af28bd2737c1cecaff3a328"),
    (8, 4, "dd9d72756c1c7acf2462b6b3f6a5b88921ff29d67c63454f666fdbb90481424b"),
    (8, 16, "d9c894a36d4388e6761f4f7d693ccb0236723bca3ef6f5f4fa04e3fc89a28857"),
    (8, 64, "07a6717adef4591a1164af6101f65393c4cae45436288dfd63a3061622587a1b"),
]


class TestGraphBytes:
    @pytest.mark.parametrize("kind,dims,bc,digest", LATTICE_GRAPH_SHA256)
    def test_lattice_graph_bytes(self, kind, dims, bc, digest):
        if kind == "square_diag":
            g = gen_square_with_diagonals(*dims, bc)
        else:
            g = gen_lattice(kind, dims, bc)
        assert hashlib.sha256(graph_to_json(g).encode()).hexdigest() == digest

    @pytest.mark.parametrize("L,blocks,digest", BLOCKED_SQUARE_GRAPH_SHA256)
    def test_blocked_square_graph_bytes(self, L, blocks, digest):
        g = gen_blocked_square(L, blocks)
        assert hashlib.sha256(graph_to_json(g).encode()).hexdigest() == digest

    def test_syk_chain_graph_bytes(self):
        g = gen_syk_geometry("linear", 8)
        assert hashlib.sha256(graph_to_json(g).encode()).hexdigest() == (
            "7dbd3cdc8e94076f46c3350b334bc919381eed2437e58dc838c4c554183e271e"
        )


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
