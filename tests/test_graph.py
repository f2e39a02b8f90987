"""Tests for the graph model: ports, cycles, routing, qubit counts.

Routing lives in ``encoding.Router``, and ``Encoding.path_edge_operator``
with no path is its one-shot form.  The path tests here pin its behavior on
plain geometries and compare it with the per-pair Dijkstra it replaced
(``conftest.reference_route``)."""

import itertools
import pickle

import numpy as np
import pytest

from conftest import (
    random_connected_graph,
    reference_cycle_basis,
    reference_route,
    table_graphs,
)
from fermigraph.analytics import SWEEP_GEOMETRIES
from fermigraph.encoding import Router, build_encoding
from fermigraph.errors import ParseError, RoutingError
from fermigraph.fermion import syk2_monomials
from fermigraph.fileio import graph_to_json
from fermigraph.graph import Cycle, SystemGraph, Vertex, cycle_basis, qubit_count
from fermigraph.geometries import (
    LATTICE_DIRECTIONS,
    gen_blocked_square,
    gen_heavy_hex,
    gen_lattice,
    gen_syk_geometry,
)
from fermigraph.transform import _Realizer


class TestSystemGraph:
    def test_ports_must_match_incident_edges(self):
        with pytest.raises(ParseError):
            SystemGraph(
                [Vertex(0, "physical", (0,)), Vertex(1, "physical", ())],
                [(0, 1)],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            SystemGraph.from_edges([(0, 0)])

    def test_parallel_edges_kept(self):
        g = SystemGraph.from_edges([(0, 1), (0, 1)])
        assert g.degree(0) == 2 and len(g.edges) == 2

    def test_canonical_edge_order(self):
        g = SystemGraph.from_edges([(2, 1), (0, 1)])
        assert g.edges == ((0, 1), (1, 2))

    def test_port_of_edge_after_renumbering(self):
        """Ports given in input edge numbers follow the canonical edge
        renumbering: input edge 0 = (1,2) becomes edge 1."""
        g = SystemGraph(
            [Vertex(0, "physical", (1,)), Vertex(1, "physical", (0, 1)),
             Vertex(2, "physical", (0,))],
            [(1, 2), (0, 1)],
        )
        assert g.edges == ((0, 1), (1, 2))
        assert g.vertices[1].ports == (1, 0)
        assert [g.port_of_edge(1, e) for e in (0, 1)] == [1, 0]
        assert g.port_of_edge(2, 1) == 0

    @pytest.mark.parametrize("vertices,edges", [
        ([Vertex(0, "physical", (0,)), Vertex(1, "physical", (0,))], [(0.0, 1)]),
        ([Vertex(0, "physical", (0,)), Vertex(1, "physical", (False,))], [(0, 1)]),
        ([Vertex(0, "physical", (0,)), Vertex("1", "physical", (0,))], [(0, 1)]),
    ], ids=["float_endpoint", "bool_port", "string_id"])
    def test_non_integers_refused(self, vertices, edges):
        """Once built (a float endpoint, stored and written as 0.0, or a
        bool port) or a bare TypeError (a string id)."""
        with pytest.raises(ParseError, match="must be integers"):
            SystemGraph(vertices, edges)

    def test_integer_likes_stored_as_int(self):
        """numpy ids once built a graph whose JSON write raised TypeError."""
        g = SystemGraph.from_edges([(np.int64(0), np.int64(1))])
        assert {type(v) for v in g.vertices} == {int}
        assert {type(x) for e in g.edges for x in e} == {int}
        assert {type(p) for v in g.vertices.values() for p in v.ports} == {int}
        assert graph_to_json(g) == graph_to_json(SystemGraph.from_edges([(0, 1)]))

    def test_canonical_edge_tuples_are_kept(self):
        """An edge given as a tuple of plain ints with a < b becomes the
        graph's edge itself, through ``from_edges`` and the constructor
        alike; any other edge is rebuilt as one."""
        given = [(0, 2), (1, 2), (0, 1)]
        for g in (SystemGraph.from_edges(given),
                  SystemGraph([Vertex(v, "physical", p) for v, p in
                               enumerate([(0, 2), (1, 2), (0, 1)])], given)):
            assert g.edges == ((0, 1), (0, 2), (1, 2))
            assert all(any(e is f for f in given) for e in g.edges)
        other = [(2, 0), [1, 2], (np.int64(0), 1)]
        g = SystemGraph.from_edges(other)
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert all(type(e) is tuple and not any(e is f for f in other) for e in g.edges)
        assert {type(x) for e in g.edges for x in e} == {int}

    def test_pickle_round_trips_byte_stably(self):
        """A loaded graph pickles to the bytes it was loaded from: with a
        slotted ``Vertex``, no field name is both an instance-dict key and
        a meta key, whose pickle memo references differ after a load."""
        g = gen_lattice("square", (3, 3), "periodic")
        data = pickle.dumps(g)
        again = pickle.loads(data)
        assert again == g
        assert pickle.dumps(again) == data

    def test_neighbors_in_port_order(self):
        g = gen_lattice("square", (3, 3), "open")
        # center vertex 4: clockwise from top
        assert g.neighbors(4) == [1, 5, 7, 3]


class TestQubitCount:
    def test_cycle_graph(self):
        assert qubit_count(gen_lattice("linear", 6, "periodic")) == 6

    def test_star(self):
        assert qubit_count(gen_syk_geometry("star", 8)) == 12

    def test_isolated_vertex_warns(self):
        g = SystemGraph.from_edges([(0, 1)], n_vertices=3)
        with pytest.warns(UserWarning):
            assert qubit_count(g) == 2

    def test_complete_graph_edges_and_qubits(self):
        g = gen_syk_geometry("complete", 6)
        assert len(g.edges) == 15
        assert qubit_count(g) == 6 * 3  # ceil(5/2) each


class TestCycleBasis:
    def test_tree_has_empty_basis(self):
        g = SystemGraph.from_edges([(0, 1), (1, 2), (1, 3)])
        assert cycle_basis(g) == []

    def test_cycle_graph_single_cycle(self):
        g = gen_lattice("linear", 5, "periodic")
        cycles = cycle_basis(g)
        assert len(cycles) == 1 and len(cycles[0]) == 5

    def test_cycles_carry_no_dict(self):
        """``Cycle`` is slotted: a fundamental cycle is one tracked object
        beside its two tuples, not two."""
        (cycle,) = cycle_basis(gen_lattice("linear", 5, "periodic"))
        assert not hasattr(cycle, "__dict__")
        assert cycle == Cycle((2, 1, 0, 4, 3), (2, 0, 1, 4, 3))

    def test_torus_count(self):
        """L x L periodic square lattice has E - V + 1 independent cycles."""
        for L in (2, 3):
            g = gen_lattice("square", (L, L), "periodic")
            cycles = cycle_basis(g)
            assert len(cycles) == len(g.edges) - L * L + 1 == L * L + 1

    def test_cycles_are_closed_walks(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng)
            for cyc in cycle_basis(g):
                assert len(cyc.vertices) == len(cyc.edges)
                for i, eidx in enumerate(cyc.edges):
                    a = cyc.vertices[i]
                    b = cyc.vertices[(i + 1) % len(cyc.vertices)]
                    assert set(g.edges[eidx]) == {a, b} or (
                        a == b and False
                    )

    def test_spans_cycle_space(self, rng):
        """Every cycle of small graphs is a GF(2) sum of basis cycles."""
        for _ in range(12):
            g = random_connected_graph(rng, max_vertices=6, max_edges=10)
            basis_vecs = []
            for cyc in cycle_basis(g):
                v = 0
                for e in cyc.edges:
                    v ^= 1 << e
                basis_vecs.append(v)

            def reduce(vec):
                for b in basis_vecs:
                    vec = min(vec, vec ^ b)
                return vec

            # enumerate simple cycles via edge subsets with all-even degrees
            ne = len(g.edges)
            if ne > 12:
                continue
            for mask in range(1, 2**ne):
                deg = {}
                for e in range(ne):
                    if (mask >> e) & 1:
                        a, b = g.edges[e]
                        deg[a] = deg.get(a, 0) + 1
                        deg[b] = deg.get(b, 0) + 1
                if all(d % 2 == 0 for d in deg.values()):
                    assert reduce(mask) == 0

    def test_disconnected_graph_gets_spanning_forest(self):
        g = SystemGraph.from_edges([(0, 1), (2, 3)])
        assert cycle_basis(g) == []


def incidence_graphs():
    """``table_graphs``, the sweep kinds at N = 8 and 27, the four lattice
    kinds open and periodic, blocked_square 4/4 and the heavy hexagon."""
    graphs = table_graphs()
    graphs += [gen_syk_geometry(k, n) for k in SWEEP_GEOMETRIES for n in (8, 27)]
    graphs += [
        gen_lattice(kind, 6 if kind == "linear" else (4, 5), bc)
        for kind in LATTICE_DIRECTIONS
        for bc in ("open", "periodic")
    ]
    return graphs + [gen_blocked_square(4, 4), gen_heavy_hex()]


class TestPortsAreTheIncidence:
    """Each vertex's ports are the graph's one incidence: the cycle basis
    and ``port_of_edge`` read them, with no adjacency list or port map."""

    def test_cycle_basis_matches_the_adjacency_list_reference(self):
        for g in incidence_graphs():
            assert cycle_basis(g) == reference_cycle_basis(g), g.meta

    def test_port_of_edge_is_the_position_in_the_ports(self):
        for g in incidence_graphs():
            for v in g.vertices.values():
                for k, e in enumerate(v.ports):
                    assert g.port_of_edge(v.id, e) == k

    @pytest.mark.parametrize("eidx", [2, -1, 5, "0"])
    def test_an_edge_that_is_not_a_port_is_refused(self, eidx):
        """It once raised KeyError from the per-vertex port map."""
        g = gen_lattice("linear", 4, "open")  # vertex 1 has ports (0, 1)
        with pytest.raises(ParseError, match="is not a port of vertex 1"):
            g.port_of_edge(1, eidx)

    def test_a_graph_holds_its_tables_once(self):
        g = gen_lattice("square", (3, 3), "periodic")
        assert set(vars(g)) == {"edges", "vertices", "meta", "_pair_index"}


def reentry_encoding():
    """The graph of ``test_walks_that_reenter_the_destination_are_excluded``
    under ``jw``: from source 1, the search settles a walk through 0 before
    the route to 0, which takes the re-search."""
    ports = {0: (2, 3, 4, 5, 6, 7, 0, 1), 1: (8,), 2: (0, 8), 3: (1, 2)}
    ports.update({v: (v - 1,) for v in range(4, 9)})
    g = SystemGraph(
        [Vertex(v, "physical", p) for v, p in sorted(ports.items())],
        [(0, 2), (0, 3), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2)],
    )
    return build_encoding(g, "jw")


class TestShortestPath:
    """Minimum-cost routes from the encoding's router, as edge index
    sequences."""

    def test_adjacent(self):
        g = gen_lattice("square", (3, 3), "open")
        route = Router(build_encoding(g, "jw")).route(0, 1)
        assert [g.edges[e] for e in route] == [(0, 1)]

    def test_diagonal_goes_through_one_neighbor(self):
        """Both two-hop routes weigh 4; the lexicographically smaller
        vertex sequence 0-1-4 wins the tie."""
        g = gen_lattice("square", (3, 3), "open")
        enc = build_encoding(g, "jw")
        for path in ([0, 1, 4], [0, 3, 4]):
            assert enc.path_edge_operator(0, 4, path=path).weight() == 4
        route = Router(enc).route(0, 4)
        assert [g.edges[e] for e in route] == [(0, 1), (1, 4)]

    def test_no_path(self):
        g = SystemGraph.from_edges([(0, 1), (2, 3)])
        enc = build_encoding(g, "jw")
        with pytest.raises(RoutingError):
            Router(enc).route(0, 3)
        with pytest.raises(RoutingError):
            enc.path_edge_operator(0, 3)

    def test_mera_boundary_path_is_logarithmic(self):
        """Opposite boundary points route through the hierarchy in a
        number of hops bounded by the depth, far below the lateral
        distance along the bottom rows."""
        g = gen_syk_geometry("ternary_mera", 81)  # depth 4
        hops = len(Router(build_encoding(g, "fenwick")).route(0, 40))
        assert hops <= 3 * 4 + 2
        lateral = 2 * 40 // 3  # bottom-row routing costs ~2 hops per 3 sites
        assert hops < lateral

    def test_walks_that_reenter_the_destination_are_excluded(self):
        """The route minimizes the additive cost over walks that meet the
        destination only at their end, not the Pauli weight over all
        walks: 1-2-0 weighs 6, while the walk 1-2-0-3-0 through both
        parallel (0,3) edges weighs 5.  The single-source search pops that
        walk first, so this pair takes the re-search with 0 absorbing,
        also when other destinations of source 1 were routed before."""
        enc = reentry_encoding()
        assert enc.path_edge_operator(1, 0, path=[1, 2, 0, 3, 0]).weight() == 5
        assert Router(enc).route(1, 0) == [8, 0]
        assert enc.path_edge_operator(1, 0).weight() == 6
        router = Router(enc)
        assert router.route(1, 4) == [8, 0, 1, 2, 3] == reference_route(enc, 1, 4)
        assert router.route(1, 0) == [8, 0] == reference_route(enc, 1, 0)
        assert router.cost(1, 0) == 6


class TestRouterMatchesReference:
    """The single-source ``Router`` returns the edge list of the per-pair
    Dijkstra it replaced, pair by pair."""

    @staticmethod
    def assert_same_routes(enc, sources, targets):
        router = Router(enc)
        for j in sources:
            for k in targets:
                if j != k:
                    assert router.route(j, k) == reference_route(enc, j, k), (j, k)

    @pytest.mark.parametrize("kind", SWEEP_GEOMETRIES)
    def test_sweep_geometries(self, kind):
        for n in (8, 16, 32):
            g = gen_syk_geometry(kind, n)
            phys = g.physical_ids()
            # the per-pair reference takes ~15 ms a pair on complete/32, so
            # two sources stand in for all 32 there
            sources = phys[:: n - 1] if kind == "complete" and n == 32 else phys
            for basis in ("fenwick", "jw"):
                self.assert_same_routes(build_encoding(g, basis), sources, phys)

    def test_sources_interleaved(self):
        """Switching source on every call restarts the searches and still
        gives the reference routes."""
        g = gen_syk_geometry("hyperbolic46", 16)
        enc = build_encoding(g, "fenwick")
        router = Router(enc)
        phys = g.physical_ids()
        for k in phys:
            for j in phys:
                if j != k:
                    assert router.route(j, k) == reference_route(enc, j, k), (j, k)

    def test_random_graphs(self):
        """The 50 seeded random graphs of acceptance criterion 5, all
        vertex pairs, under its three bases; the one-shot
        ``path_edge_operator`` gives the string along the reference route."""
        rng = np.random.default_rng(505)
        for _ in range(50):
            g = random_connected_graph(rng)
            for basis in ("jw", "fenwick", "ternary"):
                enc = build_encoding(g, basis)
                ids = g.vertex_ids()
                self.assert_same_routes(enc, ids, ids)
                for j in ids:
                    for k in ids:
                        if j != k:
                            want = enc.walk_operator(j, reference_route(enc, j, k))
                            assert enc.path_edge_operator(j, k) == want


class TestPredictedCost:
    @pytest.mark.parametrize("basis", ["fenwick", "jw", "jw_yx", "ternary"])
    def test_cost_is_the_string_weight(self, basis):
        """On the sweep geometries the cost the router minimized for a
        non-adjacent pair is the Pauli weight of the string multiplied out
        along its route; the phase ``walk_operator`` adds for the canonical
        form leaves the weight alone."""
        for kind in SWEEP_GEOMETRIES:
            for n in (8, 16, 32):
                g = gen_syk_geometry(kind, n)
                enc = build_encoding(g, basis)
                router = Router(enc)
                phys = g.physical_ids()
                for j in phys:
                    for k in phys:
                        if j < k and not g.edges_between(j, k):
                            op = enc.walk_operator(j, router.route(j, k))
                            assert router.cost(j, k) == op.weight(), (kind, n, j, k)


class TestRouterCounters:
    def test_one_search_per_source_of_a_compile(self):
        """SYK2 on hyperbolic46/32 routes each source's couplings one after
        another, so the compile starts one search per routed source and
        searches no pair again."""
        enc = build_encoding(gen_syk_geometry("hyperbolic46", 32), "fenwick")
        realizer = _Realizer(enc)
        for mono in syk2_monomials(32, seed=1):
            realizer.term(mono)
        g, phys = enc.graph, enc.graph.physical_ids()
        sources = {
            phys[p]
            for p in range(32)
            for q in range(p + 1, 32)
            if not g.edges_between(phys[p], phys[q])
        }
        assert len(sources) > 1
        assert realizer.router.searches == len(sources)
        assert realizer.router.re_searches == 0

    def test_a_compile_that_routes_nothing_builds_no_tables(self):
        enc = build_encoding(gen_syk_geometry("complete", 12), "fenwick")
        realizer = _Realizer(enc)
        for mono in syk2_monomials(12, seed=1):
            realizer.term(mono)
        router = realizer.router
        assert router.searches == 0
        assert not router._starts and router._rows == [None] * len(router._rows)

    def test_reentry_counts_one_re_search(self):
        router = Router(reentry_encoding())
        assert (router.searches, router.re_searches) == (0, 0)
        router.route(1, 4)
        router.route(1, 0)
        assert (router.searches, router.re_searches) == (1, 1)
        router.route(1, 0)
        assert (router.searches, router.re_searches) == (1, 1)


class TestRouterOperator:
    """``Router.operator`` builds each routed string from the prefix
    products of its source's search; it must be the string
    ``walk_operator`` multiplies out along the same route."""

    @staticmethod
    def assert_walk_strings(enc, router, pairs):
        for j, k in pairs:
            want = enc.walk_operator(j, router.route(j, k))
            assert router.operator(j, k) == want, (j, k)

    @pytest.mark.parametrize("basis", ["fenwick", "jw", "jw_yx", "ternary"])
    def test_sweep_geometries(self, basis):
        """Every ordered pair, each source's destinations in a shuffled
        order, so the memo is filled out of route order."""
        rng = np.random.default_rng(7)
        for kind in SWEEP_GEOMETRIES:
            for n in (8, 16, 32):
                g = gen_syk_geometry(kind, n)
                enc = build_encoding(g, basis)
                router = Router(enc)
                phys = g.physical_ids()
                for j in phys:
                    dests = [k for k in phys if k != j]
                    rng.shuffle(dests)
                    self.assert_walk_strings(enc, router, [(j, k) for k in dests])

    def test_sources_interleaved(self):
        """Switching source on every call drops the memo with the search."""
        g = gen_syk_geometry("hyperbolic46", 16)
        enc = build_encoding(g, "fenwick")
        router = Router(enc)
        phys = g.physical_ids()
        pairs = [(j, k) for k in phys for j in phys if j != k]
        self.assert_walk_strings(enc, router, pairs)
        assert router.searches == len(pairs)

    def test_reentry_in_every_destination_order(self):
        """The route to 0 from 1 comes from the re-search, whose states
        are labels of another search: it must neither read nor fill the
        memo, whichever destinations came before or after it.  The leaves
        5 to 8 all route 1-2-0-x over the same prefix, so 5 stands for
        them: every order of 0, 2, 3, 4 and 5, then 6, 7 and 8."""
        enc = reentry_encoding()
        router = Router(enc)
        want = {k: enc.walk_operator(1, router.route(1, k)) for k in range(9) if k != 1}
        for order in itertools.permutations([0, 2, 3, 4, 5]):
            order += (6, 7, 8)
            router = Router(enc)
            assert [router.operator(1, k) for k in order] == [want[k] for k in order]
            assert (router.searches, router.re_searches) == (1, 1)
