"""Tests for the encoder: operator tables, algebra, routing, stabilizers."""

import copy
import dataclasses
import itertools
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    random_connected_graph,
    reference_algebra_violations,
    reference_tables,
    table_graphs,
)
from fermigraph import encoding
from fermigraph.analytics import SWEEP_GEOMETRIES, weight_stats
from fermigraph.encoding import Encoding, build_encoding, verify_encoding_algebra
from fermigraph.errors import (
    DimensionError,
    ParseError,
    ResourceError,
    RoutingError,
    VerifyError,
)
from fermigraph.fermion import FermionOperator, syk2_monomials
from fermigraph.geometries import gen_heavy_hex, gen_lattice, gen_syk_geometry
from fermigraph.graph import Cycle, SystemGraph
from fermigraph.localbasis import basis_verify
from fermigraph.pauli import PauliString
from fermigraph.transform import _Realizer, transform_hamiltonian, transform_monomials


def L(label, n):
    return PauliString.from_label(label, n)


class TestBuild:
    def test_chain_tables(self):
        """Periodic chain with the Y-first basis: A(j,j+1) = X_j Y_{j+1},
        B(j) = Z_j, stabilizer + all-Z."""
        n = 6
        enc = build_encoding(gen_lattice("linear", n, "periodic"), "jw_yx")
        assert enc.total_qubits == n
        for j in range(n - 1):
            assert enc.edge_operator(j, j + 1) == L(f"X{j+1} Y{j+2}", n)
        for j in range(n):
            assert enc.vertex_operator(j) == L(f"Z{j+1}", n)
        assert len(enc.stabilizers) == 1
        assert enc.stabilizers[0] == L(" ".join(f"Z{q+1}" for q in range(n)), n)

    def test_single_edge_degree_1(self):
        g = SystemGraph.from_edges([(0, 1)])
        enc = build_encoding(g, "jw")
        assert enc.total_qubits == 2
        assert enc.edge_operator(0, 1) == L("X1 X2", 2)

    @pytest.mark.parametrize("choice", [None, 5])
    def test_basis_choice_neither_name_nor_labels(self, choice):
        """Once a bare TypeError from ``list(choice)``."""
        with pytest.raises(ParseError, match=f"basis for vertex 0 .*got {choice!r}"):
            build_encoding(gen_lattice("linear", 3), choice)

    def test_triangular_vertex_op_support(self):
        """Degree-6 vertex under the chain-pattern basis: all-Z on its 3
        qubits (sign (-1)^3 for the X-first pattern, + for Y-first)."""
        g = gen_lattice("triangular", (3, 3), "periodic")
        enc = build_encoding(g, "jw")
        op = enc.vertex_operator(0)
        off, cnt = enc.layout[0]
        assert cnt == 3
        assert op.ops_label() == " ".join(f"Z{off+q+1}" for q in range(3))
        assert op.label_coefficient() == -1
        enc_yx = build_encoding(g, "jw_yx")
        assert enc_yx.vertex_operator(0).label_coefficient() == 1

    @pytest.mark.parametrize("basis", ["jw", "jw_yx", "fenwick", "ternary"])
    def test_tables_equal_the_whole_register_reference(self, basis):
        """Shifted local operators and walk folds give exactly the tables
        that whole-register products of embedded port operators give."""
        for g in table_graphs():
            enc = build_encoding(g, basis)
            edges, vertices, stabilizers = reference_tables(enc)
            assert enc.edge_ops == edges
            assert enc.vertex_ops == vertices
            assert enc.stabilizers == stabilizers

    def test_edge_antisymmetry(self):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw")
        assert enc.edge_operator(1, 0) == -enc.edge_operator(0, 1)

    def test_nonedge_raises(self):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw")
        with pytest.raises(RoutingError):
            enc.edge_operator(0, 2)

    def test_edgeless_walk_raises(self):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw")
        with pytest.raises(RoutingError, match="at least one edge"):
            enc.path_edge_operator(0, 0, path=[0])

    def test_qubit_cap(self):
        """complete/300 (45,000 qubits, 44,850 edges) is over
        ``TABLE_BUDGET``: refused from its graph and bases alone, before
        any operator is embedded.  The graph is built here, since
        ``gen_syk_geometry`` refuses it by the same rule."""
        g = SystemGraph.from_edges(list(itertools.combinations(range(300), 2)))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceError, match="budget"):
                build_encoding(g, "jw")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0, f"refusal took {elapsed:.2f}s"
        assert peak < 50e6, f"held {peak / 1e6:.0f} MB before refusing"

    def test_table_budget_counts_qubits_times_strings(self, monkeypatch):
        """The 4-cycle with ``jw``: 4 qubits x (2 x 4 edges + 4 vertices)
        = 48 units, accepted at a budget of 48 and refused at 47."""
        g = gen_lattice("linear", 4, "periodic")
        monkeypatch.setattr(encoding, "TABLE_BUDGET", 48)
        assert build_encoding(g, "jw").total_qubits == 4
        monkeypatch.setattr(encoding, "TABLE_BUDGET", 47)
        with pytest.raises(ResourceError, match="4 qubits x 12 strings = 48"):
            build_encoding(g, "jw")

    def test_star_leaf_edge_weight(self):
        """Leaf-center edges carry 1 plus at most the center basis weight."""
        enc = build_encoding(gen_syk_geometry("star", 8), "fenwick")
        center_max = max(op.weight() for op in enc.local_bases[8].ops)
        for leaf in range(8):
            assert enc.edge_operator(leaf, 8).weight() <= 1 + center_max

    def test_per_vertex_basis_overrides(self):
        """A dict choice mixes named bases and explicit validated labels."""
        g = gen_syk_geometry("star", 4)
        enc = build_encoding(
            g, {4: "fenwick", "default": "jw", 0: ["Y1", "X1"]}
        )
        assert enc.local_bases[4].name == "fenwick"
        assert enc.local_bases[0].name == "custom"
        assert enc.local_bases[1].name == "jw"
        assert verify_encoding_algebra(enc).ok

    def test_named_basis_built_and_verified_once_per_degree(self, monkeypatch):
        """Vertices with the same registered basis name and degree share
        one verified basis object; label lists are verified per vertex."""
        from fermigraph import encoding

        calls = []

        def counting_verify(basis):
            calls.append((basis.name, basis.degree))
            return basis_verify(basis)

        monkeypatch.setattr(encoding, "basis_verify", counting_verify)
        g = gen_syk_geometry("star", 4)
        labels = ["Y1", "X1"]
        enc = build_encoding(g, {4: "fenwick", "default": "jw", 0: labels, 1: labels})
        assert sorted(calls) == [
            ("custom", 1), ("custom", 1), ("fenwick", 4), ("jw", 1)
        ]
        assert enc.local_bases[2] is enc.local_bases[3]
        assert enc.local_bases[0] is not enc.local_bases[1]

    def test_shared_basis_multiplied_once(self, monkeypatch):
        """complete/24 under ``fenwick``: its 24 vertices share one basis
        of 24 operators, whose product is taken once (24 products) beside
        the basis check's 24, not once per vertex (600 in all)."""
        g = gen_syk_geometry("complete", 24)
        calls = []
        mul = PauliString.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(PauliString, "__mul__", counted)
        enc = build_encoding(g, "fenwick")
        assert len(calls) <= 48
        monkeypatch.undo()
        assert enc == build_encoding(g, "fenwick")

    def test_invalid_override_rejected(self):
        g = gen_syk_geometry("star", 4)
        with pytest.raises(VerifyError):
            build_encoding(g, {0: ["X1", "X1"]})

    @pytest.mark.parametrize("key", ["4", 99, True, 4.0])
    def test_basis_key_naming_no_vertex_rejected(self, key):
        """Keys are ``"default"`` or vertex ids under ``SystemGraph``'s
        integer rule.  Each of these was once ignored without a word, "4"
        and 99 leaving vertex 4 on ``jw``, or read as a vertex id, True
        as vertex 1 and 4.0 as vertex 4."""
        g = gen_syk_geometry("star", 4)
        with pytest.raises(ParseError, match=f"basis key.*{key!r}"):
            build_encoding(g, {key: "fenwick"})


class TestValue:
    def test_fields_are_the_tables(self):
        assert [f.name for f in dataclasses.fields(Encoding)] == [
            "graph", "total_qubits", "layout", "local_bases", "edge_ops",
            "vertex_ops",
        ]

    def test_frozen(self):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw")
        with pytest.raises(dataclasses.FrozenInstanceError):
            enc.total_qubits = 5

    def test_equality_ignores_routing_history(self):
        g = gen_lattice("square", (3, 3), "open")
        routed, fresh = build_encoding(g, "jw"), build_encoding(g, "jw")
        routed.path_edge_operator(0, 4)
        assert routed == fresh

    def test_compile_leaves_the_encoding_unchanged(self):
        """A compile that routes writes nothing into the encoding or the
        bases it holds: its pickled bytes are the same after."""
        enc = build_encoding(gen_syk_geometry("ternary_tree", 9), "fenwick")
        before = pickle.dumps(enc)
        realizer = _Realizer(enc)
        for mono in syk2_monomials(9, seed=1):
            realizer.term(mono)
        assert realizer.router.searches > 0
        assert pickle.dumps(enc) == before

    #: Every function of ``encoding`` that builds the cycle tables, under
    #: its name in this tree and in earlier ones.
    CYCLE_BUILDERS = ("cycle_basis", "_forest_cycles", "_cycle_tables", "_loop_stabilizer")

    @pytest.mark.parametrize("graph", [
        lambda: gen_syk_geometry("complete", 12),
        lambda: gen_syk_geometry("star", 16),
        lambda: gen_lattice("square_diag", (4, 4)),
    ], ids=["complete12", "star16", "square_diag4x4"])
    def test_a_compile_builds_no_cycle_table(self, graph, monkeypatch):
        """Compiling never multiplies by a stabilizer, so building the
        encoding, compiling SYK2 on it and taking its stats never builds
        the cycles or their stabilizers; reading them afterwards does."""
        g = graph()

        def refuse(*args):
            raise AssertionError("a cycle table was built")

        for name in self.CYCLE_BUILDERS:
            monkeypatch.setattr(encoding, name, refuse, raising=False)
        enc = build_encoding(g, "fenwick")
        stats = weight_stats(transform_monomials(syk2_monomials(enc.n_modes, seed=3), enc))
        assert stats.term_count > 0
        monkeypatch.undo()
        assert verify_encoding_algebra(enc).ok
        assert enc == build_encoding(g, "fenwick")

    @staticmethod
    def read_and_unread():
        """Two encodings of one graph: the first with both cycle tables
        read, the second with neither."""
        g = gen_lattice("square", (3, 3), "periodic")
        read = build_encoding(g, "jw_yx")
        assert len(read.stabilizers) == len(read.cycles) == 10
        return read, build_encoding(g, "jw_yx")

    def test_pickle_is_the_same_read_or_unread(self):
        """Reading the cycle tables leaves no trace: an encoding pickles to
        the same bytes read or unread, and a loaded one to the bytes it was
        loaded from."""
        read, unread = self.read_and_unread()
        data = pickle.dumps(unread)
        assert pickle.dumps(read) == data
        again = pickle.loads(data)
        assert again == read
        assert pickle.dumps(again) == data

    @pytest.mark.parametrize("graph", [
        lambda: gen_lattice("square", (3, 3), "periodic"),
        lambda: gen_syk_geometry("hyperbolic46", 12),
    ], ids=["square3x3_periodic", "hyperbolic46_12"])
    def test_whole_encoding_pickle_round_trips_byte_stably(self, graph):
        """A loaded encoding, its graph included, pickles to the bytes it
        was loaded from, whether its cycle tables were read or not."""
        g = graph()
        for read in (False, True):
            enc = build_encoding(g, "jw")
            if read:
                assert len(enc.stabilizers) == len(enc.cycles)
            data = pickle.dumps(enc)
            assert pickle.dumps(pickle.loads(data)) == data

    def test_equal_and_same_repr_read_or_unread(self):
        read, unread = self.read_and_unread()
        assert unread == read and read == unread
        assert repr(unread) == repr(read)
        assert unread.stabilizers == read.stabilizers
        assert unread.cycles == read.cycles

    def test_deepcopy_keeps_equality(self):
        read, unread = self.read_and_unread()
        for enc in (read, unread):
            twin = copy.deepcopy(enc)
            assert twin == enc == read
            assert twin.edge_ops is not enc.edge_ops
            assert pickle.dumps(twin) == pickle.dumps(read)

    def test_a_changed_cycle_changes_no_table(self):
        """Each read of ``cycles`` hands out new ``Cycle`` objects, so
        changing one that was read leaves the encoding as built."""
        g = gen_lattice("square", (3, 3), "periodic")
        enc = build_encoding(g, "jw")
        enc.cycles[0].edges = enc.cycles[1].edges
        assert enc == build_encoding(g, "jw")
        assert enc.stabilizers[0] == enc.loop_stabilizer(enc.cycles[0])

    @pytest.mark.parametrize("table", ["stabilizers", "cycles"])
    def test_cycle_tables_cannot_be_replaced(self, table):
        """The cycle tables are derived, not fields: no table can be
        handed in beside the ones ``build_encoding`` builds."""
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        with pytest.raises(TypeError):
            dataclasses.replace(enc, **{table: getattr(enc, table)[::-1]})

    @pytest.mark.parametrize("kind", SWEEP_GEOMETRIES)
    def test_one_stabilizer_per_independent_cycle(self, kind):
        """E - V + (number of components) fundamental cycles, each with its
        stabilizer, on the sweep kinds."""
        for n in (8, 16):
            g = gen_syk_geometry(kind, n)
            root = {v: v for v in g.vertices}

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for a, b in g.edges:
                root[find(a)] = find(b)
            components = len({find(v) for v in g.vertices})
            enc = build_encoding(g, "jw")
            assert len(enc.stabilizers) == len(enc.cycles) == \
                len(g.edges) - len(g.vertices) + components


def unpaired(enc, v):
    """The unpaired Majorana of odd-degree vertex ``v``: the last operator
    of its local basis, embedded at its block."""
    op = enc.local_bases[v].ops[enc.graph.degree(v)]
    return op.embed(enc.total_qubits, enc.layout[v][0])


class TestUnpaired:
    def test_open_chain_endpoint(self):
        enc = build_encoding(gen_lattice("linear", 3, "open"), "jw")
        u = unpaired(enc, 0)
        assert u == L("Y1", 3)

    def test_heavy_hex_degree3(self):
        g = gen_heavy_hex()
        enc = build_encoding(g, "jw")
        v = next(v for v in g.vertex_ids() if g.degree(v) == 3)
        u = unpaired(enc, v)
        assert u.weight() <= 2
        assert not u.commutes(enc.vertex_operator(v))
        for k in g.neighbors(v):
            assert not u.commutes(enc.edge_operator(v, k))

    def test_commutes_elsewhere(self):
        g = gen_lattice("linear", 4, "open")
        enc = build_encoding(g, "jw")
        u = unpaired(enc, 0)
        for eidx in (1, 2):
            assert u.commutes(enc.edge_ops[eidx])
        for v in (1, 2, 3):
            assert u.commutes(enc.vertex_operator(v))


class TestPaths:
    def test_single_edge_path_equals_edge_op(self):
        enc = build_encoding(gen_lattice("linear", 5, "periodic"), "jw_yx")
        assert enc.path_edge_operator(1, 2) == enc.edge_operator(1, 2)

    def test_chain_distance_two(self):
        n = 6
        enc = build_encoding(gen_lattice("linear", n, "periodic"), "jw_yx")
        raw = enc.edge_operator(0, 1) * enc.edge_operator(1, 2)
        assert raw == L("X1 Z2 Y3", n).with_phase(-1)
        can = enc.path_edge_operator(0, 2, path=[0, 1, 2])
        assert can == L("X1 Z2 Y3", n) == raw.with_phase(1)

    def test_routed_weight_not_above_simple_paths(self, rng):
        """Auto routing never does worse than any simple path."""
        g = gen_lattice("square", (3, 3), "open")
        enc = build_encoding(g, "jw")
        adj = {v: sorted(set(g.neighbors(v))) for v in g.vertex_ids()}

        def simple_paths(j, k):
            stack = [(j, [j])]
            while stack:
                v, path = stack.pop()
                if v == k:
                    yield path
                    continue
                for u in adj[v]:
                    if u not in path:
                        stack.append((u, path + [u]))

        for j, k in [(0, 8), (2, 6), (0, 5)]:
            auto = enc.path_edge_operator(j, k)
            best = min(
                enc.path_edge_operator(j, k, path=p).weight()
                for p in simple_paths(j, k)
            )
            assert auto.weight() <= best

    def test_diagonal_on_sparse_lattice(self):
        g = gen_lattice("square", (3, 3), "open")
        enc = build_encoding(g, "jw")
        op = enc.path_edge_operator(0, 4)
        assert op.is_hermitian() and (op * op).phase == 0

    def test_two_paths_differ_by_stabilizers(self):
        enc = build_encoding(gen_lattice("square", (3, 3), "periodic"), "jw")
        p1 = enc.path_edge_operator(0, 4, path=[0, 1, 4])
        p2 = enc.path_edge_operator(0, 4, path=[0, 3, 4])
        member = enc.stabilizer_group_member(p1 * p2)
        assert member is not None and member == p1 * p2


class TestExplicitPaths:
    """A path given by the caller is checked before it is walked, both
    through ``path_edge_operator`` and through a compile's path map."""

    HOP = FermionOperator.from_terms(
        4, [(1.0, ((0, True), (2, False))), (1.0, ((2, True), (0, False)))])

    @pytest.fixture
    def enc(self):
        return build_encoding(gen_lattice("linear", 4), "jw")

    def test_empty_path_does_not_join(self, enc):
        with pytest.raises(RoutingError, match="explicit path does not join 0 to 2"):
            enc.path_edge_operator(0, 2, [])
        with pytest.raises(RoutingError, match="explicit path does not join 0 to 2"):
            transform_hamiltonian(self.HOP, enc, route={(0, 2): []})

    @pytest.mark.parametrize("path", [[0, None, 2], [0, "1", 2], [0, 1.0, 2],
                                      [0.0, 1, 2], [0, True, 2]],
                             ids=["None", "str", "float", "float_end", "bool"])
    def test_non_integer_vertex_refused(self, enc, path):
        bad = next(v for v in path if type(v) is not int)
        message = f"explicit path vertices must be integers, got {bad!r}"
        with pytest.raises(ParseError) as err:
            enc.path_edge_operator(0, 2, path)
        assert str(err.value) == message
        with pytest.raises(ParseError) as err:
            transform_hamiltonian(self.HOP, enc, route={(0, 2): path})
        assert str(err.value) == message

    def test_numpy_integers_taken(self, enc):
        path = list(np.arange(3))
        assert enc.path_edge_operator(0, 2, path) == enc.path_edge_operator(0, 2, [0, 1, 2])
        assert str(enc.path_edge_operator(0, 2, path)) == "(-1,0) X1 Z2 X3"
        assert transform_hamiltonian(self.HOP, enc, route={(0, 2): path}) == \
            transform_hamiltonian(self.HOP, enc, route={(0, 2): [0, 1, 2]})


class TestStabilizers:
    def test_square_plaquette_commutes_with_everything(self):
        g = gen_lattice("square", (2, 2), "periodic")
        enc = build_encoding(g, "jw")
        for s in enc.stabilizers:
            for op in enc.edge_ops:
                assert s.commutes(op)
            for op in enc.vertex_ops.values():
                assert s.commutes(op)

    def test_triangle_plaquette_weight(self):
        """3-cycle stabilizer on the triangular lattice touches two qubits
        on each of its three corners."""
        g = gen_lattice("triangular", (3, 3), "periodic")
        enc = build_encoding(g, "jw")
        tri = next(c for c in enc.cycles if len(c) == 3)
        s = enc.loop_stabilizer(tri)
        assert s.is_hermitian() and (s * s).phase == 0
        assert s.weight() == 6

    @pytest.mark.parametrize("vertices, edges", [
        ((0, 1), (0, 2)),
        ((0, 1, 2), (0, 2, 3)),
        ((1, 0, 2), (0, 2, 1)),
        ((0, 1), (0, 2, 1)),
        ((0, 1, 2), (0, 2, 7)),
        ((0,), (0,)),
    ], ids=["open_walk", "ends_at_3", "vertices_out_of_order", "vertex_short",
            "no_edge_7", "single_edge"])
    def test_loop_stabilizer_refuses_a_walk_that_is_not_closed(self, vertices, edges):
        """Edge i of a ``Cycle`` joins vertices[i] to vertices[(i+1) % len];
        a caller's walk that breaks that is refused, not folded."""
        g = SystemGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        enc = build_encoding(g, "jw")
        assert enc.loop_stabilizer(Cycle((0, 1, 2), (0, 2, 1))) == enc.stabilizers[0]
        with pytest.raises(ParseError, match="closed walk|does not join"):
            enc.loop_stabilizer(Cycle(vertices, edges))

    def test_open_walk_rejected(self):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw")
        with pytest.raises(RoutingError):
            enc.path_edge_operator(0, 3, path=[0, 1, 3])  # (1,3) is not an edge


class TestAlgebraSuite:
    @pytest.mark.parametrize("basis", ["jw", "fenwick", "ternary"])
    def test_random_graphs(self, basis, rng):
        for _ in range(12):
            g = random_connected_graph(rng)
            enc = build_encoding(g, basis)
            rep = verify_encoding_algebra(enc)
            assert rep.ok, rep.violations

    @pytest.mark.parametrize("basis", ["jw", "fenwick", "ternary"])
    def test_bitset_check_matches_pairwise_reference(self, basis, rng):
        for _ in range(12):
            enc = build_encoding(random_connected_graph(rng), basis)
            rep = verify_encoding_algebra(enc)
            assert rep.violations == reference_algebra_violations(enc) == []

    @pytest.mark.parametrize(
        "tamper",
        [
            "edge",
            "vertex",
            "vertex_pair",
            "every_edge",
            "parallel_edge",
        ],
    )
    def test_tampered_ops_match_pairwise_reference(self, tamper, rng):
        """Each tampering breaks some commutations; the bitset check reports
        the reference's messages in the reference's order, capped at 20.
        A tampered edge operator also shows in the stabilizers derived
        from it."""
        if tamper == "parallel_edge":
            g = SystemGraph.from_edges([(0, 1), (0, 1), (1, 2), (0, 2), (2, 3)])
        else:
            g = gen_lattice("square", (3, 3), "periodic")
        enc = build_encoding(g, "fenwick")
        n = enc.total_qubits

        def hermitian(op):
            return op if op.is_hermitian() else op.with_phase(1)

        def flip(op):
            """op times a Z on one qubit of its support: flips its
            commutation with every operator acting there with an X or a Y."""
            q = op.support()[int(rng.integers(len(op.support())))]
            return hermitian(op * PauliString(n, 0, 1 << q))

        edges, verts = list(enc.edge_ops), dict(enc.vertex_ops)
        if tamper == "edge":
            edges[3] = flip(edges[3])
        elif tamper == "vertex":
            verts[4] = flip(verts[4])
        elif tamper == "vertex_pair":
            # anticommutes with the vertex op at the edge's other end
            verts[4] = hermitian(verts[4] * edges[g.vertices[4].ports[0]])
        elif tamper == "every_edge":
            edges = [edges[0]] * len(edges)
        else:
            edges[1] = flip(edges[1])
        bad = dataclasses.replace(enc, edge_ops=edges, vertex_ops=verts)
        rep = verify_encoding_algebra(bad)
        assert rep.violations == reference_algebra_violations(bad)
        assert any("commut" in v for v in rep.violations)
        if tamper == "every_edge":
            assert len(rep.violations) == 20
        if tamper in ("edge", "parallel_edge"):
            assert any(v.startswith("stab") for v in rep.violations)

    def test_operator_on_another_register_is_rejected(self):
        enc = build_encoding(gen_lattice("square", (2, 2), "open"), "jw")
        op = enc.vertex_ops[0]
        wide = PauliString(enc.total_qubits + 1, op.x, op.z, op.phase)
        bad = dataclasses.replace(enc, vertex_ops={**enc.vertex_ops, 0: wide})
        with pytest.raises(DimensionError):
            reference_algebra_violations(bad)
        with pytest.raises(DimensionError):
            verify_encoding_algebra(bad)

    def test_vertex_op_equals_mode_parity_dense(self):
        """Odd-degree vertex operator (unpaired Majorana included) matches
        its fermionic parity on the codespace via the spectral oracle.
        Covered concretely: B on a degree-3 vertex is all-Z-like on its
        2 qubits and squares to +I."""
        g = SystemGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        enc = build_encoding(g, "jw")
        op = enc.vertex_operator(0)
        assert op.support() == [0, 1]
        assert op.is_hermitian() and (op * op).phase == 0
