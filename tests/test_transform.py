"""Tests for the compile pipeline and the dense spectral oracle."""

import numpy as np
import pytest

from conftest import coupling_matrix, parity_matrix
from fermigraph.dense import (
    dense_oracle_check,
    fermion_operator_matrix,
    pauli_sum_to_matrix,
)
from fermigraph.encoding import Router, build_encoding
from fermigraph.errors import DimensionError, ParityError, ParseError, RoutingError
from fermigraph.fermion import (
    FermionOperator,
    MajoranaMonomial,
    build_lattice_model,
    build_syk2,
    monomial_to_ev,
    syk2_couplings,
    syk2_monomials,
)
from fermigraph.geometries import gen_lattice, gen_syk_geometry
from fermigraph.graph import SystemGraph
from fermigraph.pauli import ZERO_THRESHOLD, PauliString, PauliSumBuilder
from fermigraph.transform import _Realizer, transform_hamiltonian, transform_monomials


def chain_encoding(n, bc="periodic", basis="jw_yx"):
    return build_encoding(gen_lattice("linear", n, bc), basis)


class TestChainCompile:
    def test_xy_chain_content(self):
        """Rotated-chain form: (t/2)(XX + YY) per bond, the wrap bond
        carrying the even-sector boundary sign, and U/2 (I - Z) per site."""
        n, t, u = 5, 1.0, 0.7
        enc = chain_encoding(n)
        h = build_lattice_model("chain", n, t=t, u=u, bc="periodic")
        compiled = transform_hamiltonian(h, enc)
        labels = dict(compiled.labeled_terms())
        expected = {"I": n * u / 2}
        for j in range(n):
            expected[f"Z{j+1}"] = -u / 2
        for j in range(n - 1):
            expected[f"X{j+1} X{j+2}"] = t / 2
            expected[f"Y{j+1} Y{j+2}"] = t / 2
        expected[f"X1 X{n}"] = -t / 2
        expected[f"Y1 Y{n}"] = -t / 2
        assert set(labels) == set(expected)
        for k, v in expected.items():
            assert labels[k] == pytest.approx(v), k

    def test_zero_operator(self):
        enc = chain_encoding(4)
        compiled = transform_hamiltonian(
            FermionOperator.from_terms(4, []), enc
        )
        assert len(compiled) == 0

    def test_hermitian_input_gives_real_sum(self, rng):
        enc = build_encoding(gen_syk_geometry("star", 4), "fenwick")
        h = build_syk2(4, seed=9)
        compiled = transform_hamiltonian(h, enc)
        assert all(abs(c.imag) <= ZERO_THRESHOLD for _, c in compiled.labeled_terms())

    def test_parity_violation(self):
        enc = chain_encoding(3)
        f = FermionOperator.from_terms(3, [(1.0, ((0, True),))])
        with pytest.raises(ParityError):
            transform_hamiltonian(f, enc)

    def test_mode_out_of_range(self):
        """g_6 belongs to mode 3, which a 3-mode chain does not host."""
        enc = chain_encoding(3)
        with pytest.raises(ParseError):
            transform_monomials([MajoranaMonomial(1.0, (0, 6))], enc)

    def test_explicit_path_never_applied(self):
        """A 4-chain hopping model couples adjacent modes only, so the path
        for modes 7 and 9 is never taken; it once compiled to 11 terms."""
        enc = build_encoding(gen_lattice("linear", 4, "open"), "jw")
        h = build_lattice_model("chain", 4, t=1.0, u=0.5)
        with pytest.raises(ParseError, match=r"mode pairs \(8, 10\) never applied"):
            transform_hamiltonian(h, enc, route={(7, 9): [1]})

    def test_explicit_paths_are_not_consumed(self):
        """The compile pops the paths it applies from its own copy."""
        enc = build_encoding(gen_lattice("linear", 4, "open"), "jw")
        route = {(0, 2): [0, 1, 2]}
        monos = [MajoranaMonomial(1.0, (0, 4))]
        assert transform_monomials(monos, enc, route) == transform_monomials(
            monos, enc, route)
        assert route == {(0, 2): [0, 1, 2]}

    def test_unroutable(self):
        from fermigraph.graph import SystemGraph

        g = SystemGraph.from_edges([(0, 1), (2, 3)])
        enc = build_encoding(g, "jw")
        f = FermionOperator.from_terms(
            4, [(1.0, ((0, True), (2, False))), (1.0, ((2, True), (0, False)))]
        )
        with pytest.raises(RoutingError):
            transform_hamiltonian(f, enc)


class TestAdjacentPairs:
    def test_adjacent_pair_takes_the_edge_operator(self):
        """The compile takes an edge's stored operator for the two modes it
        joins, although ``Router`` minimizes over all walks and finds a
        lighter one here: on complete/12 ``fenwick``, 30 of the 66 edges
        route elsewhere."""
        enc = build_encoding(gen_syk_geometry("complete", 12), "fenwick")
        router = Router(enc)
        assert router.route(0, 1) == [7, 17] and router.cost(0, 1) == 3
        assert enc.path_edge_operator(0, 1).weight() == 3
        edge = enc.edge_operator(0, 1)
        assert edge.weight() == 6
        elsewhere = [e for e, (a, b) in enumerate(enc.graph.edges)
                     if Router(enc).route(a, b) != [e]]
        assert len(elsewhere) == 30 and len(enc.graph.edges) == 66
        # i g0 g2 = -A(0, 1): the pair's coupling is the edge operator
        s = transform_monomials([MajoranaMonomial(1j, (0, 2))], enc)
        assert list(s.terms()) == [(edge, -1)]


class TestPairFold:
    """``_Realizer.term`` folds each index pair's coupling and parities in
    order; its string and coefficient must be those of the EVTerm product
    (every coupling, then the parities left over)."""

    @pytest.mark.parametrize(
        "g,basis,route",
        [
            (gen_syk_geometry("star", 6), "jw", None),
            (gen_syk_geometry("ternary_mera", 9), "fenwick", None),
            # open chain 0-1-2-3: (0, 2) runs 0-1-2, (0, 3) is given from 3
            # back to 0, (1, 3) runs 1-2-3
            (gen_lattice("linear", 4, "open"), "jw",
             {(0, 2): [0, 1, 2], (0, 3): [3, 2, 1, 0], (1, 3): [1, 2, 3]}),
            # X-type vertex operators, so parities pick up signs in the fold
            (gen_lattice("linear", 5, "open"), {v: ["Z1", "Y1"] for v in range(5)},
             None),
        ],
        ids=["star6", "ternary_mera9", "linear4-explicit", "linear5-zy"],
    )
    def test_equals_the_edge_vertex_product(self, g, basis, route, rng):
        enc = build_encoding(g, basis)
        realizer = _Realizer(enc, route)
        dim = 2 * len(g.physical_ids())
        pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
        assert {(a % 2, b % 2, a // 2 == b // 2) for a, b in pairs} == {
            (0, 0, False), (0, 1, False), (1, 0, False), (1, 1, False), (0, 1, True)
        }
        longer = [tuple(sorted(rng.choice(dim, size, replace=False).tolist()))
                  for size in (4, 6) for _ in range(50)]
        unit = (1, 1j, -1, -1j)
        for idx in [(), *pairs, *longer]:
            mono = MajoranaMonomial(complex(rng.normal(), rng.normal()), idx)
            ev = monomial_to_ev(mono)
            want = PauliString.identity(enc.total_qubits)
            for p, q in ev.edge_factors:
                want = want * realizer.coupling(p, q)
            for p in sorted(ev.vertex_factors):
                want = want * realizer.parity(p)
            coeff, x, z, phase = realizer.term(mono)
            assert (x, z) == (want.x, want.z)
            # a sign the EVTerm puts in its coefficient, the fold keeps in its phase
            assert coeff * unit[phase & 3] == ev.coefficient * unit[want.phase & 3]
            if len(idx) == 2:
                assert coeff == ev.coefficient
                assert PauliString(enc.total_qubits, x, z, phase) == want

    @pytest.mark.parametrize("idx", [(3,), (0, 2, 5)])
    def test_odd_monomial_is_a_parity_error(self, idx):
        """``zip`` alone would take the pairs and drop the last index."""
        enc = build_encoding(gen_lattice("linear", 4, "open"), "jw")
        with pytest.raises(ParityError):
            transform_monomials([MajoranaMonomial(1.0, idx)], enc)


class TestRawAccumulation:
    """``transform_monomials`` folds each string on raw ints and adds it
    unchecked; the sum must be the one that strings multiplied out from
    ``monomial_to_ev`` give through ``PauliSumBuilder.add``, with the same
    coefficients in the same key insertion order."""

    @pytest.mark.parametrize(
        "g,basis",
        [
            (gen_syk_geometry("complete", 6), "fenwick"),
            (gen_lattice("linear", 5, "open"), "jw"),
            # X-type vertex operators, so parities pick up signs in the fold
            (gen_lattice("linear", 5, "open"), {v: ["Z1", "Y1"] for v in range(5)}),
        ],
        ids=["complete6", "linear5", "linear5-zy"],
    )
    def test_equals_the_checked_accumulation(self, g, basis, rng):
        enc = build_encoding(g, basis)
        dim = 2 * len(g.physical_ids())

        def coefficient():
            return complex(rng.normal(), rng.normal())

        # every pair: the four substitution cases across modes, and parities
        monos = [
            MajoranaMonomial(coefficient(), (a, b))
            for a in range(dim)
            for b in range(a + 1, dim)
        ]
        # two strings that cancel below the threshold, then the key again,
        # which goes back in at the end
        c = monos[2].coefficient
        monos.append(MajoranaMonomial(-c * (1 + 1e-15), monos[2].indices))
        assert 0 < abs(c - c * (1 + 1e-15)) < ZERO_THRESHOLD
        monos.append(MajoranaMonomial(coefficient(), monos[2].indices))
        # longer monomials fold their pair images in order; the last two
        # multiply couplings that share a mode
        for idx in [(0, 1, 2, 3), (0, 2, 5, 7), (0, 3, 4, 6, 8, 9), (0, 2, 3, 4),
                    (0, 4, 5, 8)]:
            monos.append(MajoranaMonomial(coefficient(), idx))

        phys = g.physical_ids()
        want = PauliSumBuilder(enc.total_qubits)
        for mono in monos:
            ev = monomial_to_ev(mono)
            op = PauliString.identity(enc.total_qubits)
            for p, q in ev.edge_factors:
                if g.edges_between(phys[p], phys[q]):
                    op = op * enc.edge_operator(phys[p], phys[q])
                else:
                    op = op * enc.path_edge_operator(phys[p], phys[q])
            for p in sorted(ev.vertex_factors):
                op = op * enc.vertex_operator(phys[p])
            want.add(ev.coefficient, op)
        want = want.build()
        got = transform_monomials(monos, enc)
        assert list(got._terms.items()) == list(want._terms.items())
        assert len(got) == len(monos) - 2

    def test_add_checks_the_width(self):
        builder = PauliSumBuilder(3)
        with pytest.raises(DimensionError):
            builder.add(1.0, PauliString.identity(4))
        assert len(builder.build()) == 0


class TestHoppingIdentity:
    def test_pauli_sums_agree(self):
        """Compiled hopping equals -i (A(j,k) B(k) + B(j) A(j,k)) / 2 as a
        Pauli sum."""
        n = 5
        enc = chain_encoding(n)
        for j, k in [(0, 1), (2, 3)]:
            f = FermionOperator.from_terms(
                n,
                [(1.0, ((j, True), (k, False))), (1.0, ((k, True), (j, False)))],
            )
            compiled = transform_hamiltonian(f, enc)
            a = enc.edge_operator(j, k)
            b_j, b_k = enc.vertex_operator(j), enc.vertex_operator(k)
            manual = PauliSumBuilder(n)
            manual.add(-0.5j, a * b_k)
            manual.add(-0.5j, b_j * a)
            assert compiled == manual.build()

    def test_identity_in_reference_rep(self):
        n = 3
        j, k = 0, 2
        hop = fermion_operator_matrix(
            FermionOperator.from_terms(
                n,
                [(1.0, ((j, True), (k, False))), (1.0, ((k, True), (j, False)))],
            )
        )
        a = coupling_matrix(n, j, k)
        rhs = -0.5j * (a @ parity_matrix(n, k) + parity_matrix(n, j) @ a)
        assert np.allclose(hop, rhs)


class TestSykCompile:
    def test_one_edge_lookup_per_coupling(self, monkeypatch):
        """Compiling SYK2 on complete/24 looks each of its 276 couplings
        up in the graph once (552 lookups when the coupling first asked
        whether an edge exists and then fetched its operator by the pair)."""
        enc = build_encoding(gen_syk_geometry("complete", 24), "fenwick")
        monos = syk2_monomials(24, seed=1)
        calls = []
        lookup = SystemGraph.edges_between

        def counted(g, a, b):
            calls.append((a, b))
            return lookup(g, a, b)

        monkeypatch.setattr(SystemGraph, "edges_between", counted)
        compiled = transform_monomials(monos, enc)
        assert len(calls) <= 276
        monkeypatch.undo()
        assert compiled == transform_monomials(monos, enc)

    def test_monomial_and_operator_routes_agree(self):
        n = 4
        enc = build_encoding(gen_syk_geometry("linear", n), "jw")
        j = syk2_couplings(n, seed=2)
        via_op = transform_hamiltonian(build_syk2(n, couplings=j), enc)
        via_mono = transform_monomials(syk2_monomials(n, couplings=j), enc)
        assert via_op == via_mono

    def test_linear_total_weight_matches_per_term_construction(self):
        """Summed weight equals an independent per-coupling walk count."""
        n = 4
        enc = build_encoding(gen_syk_geometry("linear", n), "jw")
        j = syk2_couplings(n, seed=2)
        compiled = transform_monomials(syk2_monomials(n, couplings=j), enc)
        total = sum(p.weight() for p, _ in compiled.terms())

        expected = 0
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                from fermigraph.fermion import MajoranaMonomial, monomial_to_ev

                ev = monomial_to_ev(MajoranaMonomial(-1j * j[a, b], (a, b)))
                op = PauliString.identity(enc.total_qubits)
                for p, q in ev.edge_factors:
                    op = op * enc.path_edge_operator(p, q)
                for p in sorted(ev.vertex_factors):
                    op = op * enc.vertex_operator(p)
                expected += op.weight()
        assert total == expected


class TestDenseOracle:
    def test_two_mode_open_hopping(self):
        enc = chain_encoding(2, bc="open", basis="jw")
        h = build_lattice_model("chain", 2, t=1.0, u=0.0)
        rep = dense_oracle_check(h, enc)
        assert rep.passed and rep.sector == "full"
        # both hopping terms annihilate the empty/full states
        m = pauli_sum_to_matrix(transform_hamiltonian(h, enc))
        evals = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(evals, [-1, 0, 0, 1])

    @pytest.mark.parametrize("basis", ["jw", "jw_yx", "fenwick", "ternary"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_open_chains(self, n, basis):
        enc = chain_encoding(n, bc="open", basis=basis)
        h = build_lattice_model("chain", n, t=1.1, u=0.6)
        rep = dense_oracle_check(h, enc)
        assert rep.passed, rep.messages

    def test_c4_even_sector(self):
        enc = chain_encoding(4)
        h = build_lattice_model("chain", 4, t=1.0, u=0.0, bc="periodic")
        rep = dense_oracle_check(h, enc)
        assert rep.passed and rep.max_spectrum_diff <= 1e-10
        assert rep.sector == "even" and rep.codespace_dim == 8

    def test_torus_2x2(self):
        g = gen_lattice("square", (2, 2), "periodic")
        enc = build_encoding(g, "jw")
        h = build_lattice_model("square_nn", (2, 2), t=1.0, u=0.3, bc="periodic")
        rep = dense_oracle_check(h, enc)
        assert rep.passed and rep.max_spectrum_diff <= 1e-10
        assert enc.total_qubits == 8

    def test_star_multiplicity(self):
        enc = build_encoding(gen_syk_geometry("star", 4), "jw")
        h = build_syk2(4, seed=4)
        rep = dense_oracle_check(h, enc)
        assert rep.passed and rep.sector == "full" and rep.multiplicity == 2

    def test_cap(self, monkeypatch):
        """A register wider than the oracle's int64 basis-state index
        (complete/12 with ``jw``: 72 qubits) is refused before the algebra
        check and the compile run."""
        from fermigraph import dense
        from fermigraph.errors import ResourceError

        def unreachable(*args):
            raise AssertionError("ran before the index check")

        monkeypatch.setattr(dense, "verify_encoding_algebra", unreachable)
        monkeypatch.setattr(dense, "hamiltonian_monomials", unreachable)
        monkeypatch.setattr(dense, "transform_monomials", unreachable)
        enc = build_encoding(gen_syk_geometry("complete", 12), "jw")
        assert enc.total_qubits == 72
        with pytest.raises(ResourceError, match="at most 62 qubits"):
            dense_oracle_check(build_syk2(12, seed=1), enc)
