"""Tests for the signed-permutation matrices and stabilizer-orbit
codespace of the dense oracle, pinned against kron-product references."""

import dataclasses
import functools
import inspect
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    I2,
    XM,
    ZM,
    fermion_kron_matrix,
    reference_block_entries,
    reference_fermion_entries,
    reference_oracle,
    reference_sum_duplicates,
)
from fermigraph import dense
from fermigraph.dense import (
    _block_entries,
    _component_labels,
    _eigvalsh_by_components,
    _gauge_pairs,
    _orbits,
    _reference_entries,
    _scatter,
    codespace_block,
    dense_oracle_check,
    even_sector_states,
    joint_plus_one_basis,
    pauli_sum_to_matrix,
)
from fermigraph.encoding import build_encoding
from fermigraph.errors import ParseError, ResourceError
from fermigraph.fermion import FermionOperator, build_lattice_model, build_syk2
from fermigraph.geometries import (
    gen_heavy_hex,
    gen_lattice,
    gen_square_with_diagonals,
    gen_syk_geometry,
)
from fermigraph.graph import SystemGraph
from fermigraph.pauli import PauliString, PauliSumBuilder
from fermigraph.transform import transform_hamiltonian


def kron_pauli(p: PauliString) -> np.ndarray:
    """i^phase times the kron chain of X^x Z^z factors, qubit 0 leftmost."""
    m = np.eye(1, dtype=complex)
    for q in range(p.n):
        f = I2
        if (p.x >> q) & 1:
            f = XM
        if (p.z >> q) & 1:
            f = f @ ZM
        m = np.kron(m, f)
    return (1j) ** p.phase * m


def kron_projector(n, constraints) -> np.ndarray:
    """Product of (I + S) / 2 over the constraints."""
    proj = np.eye(2**n, dtype=complex)
    for s in constraints:
        proj = proj @ (np.eye(2**n) + kron_pauli(s)) / 2.0
    return proj


def constraints_of(enc):
    return list(enc.stabilizers) + enc.virtual_parity_ops()


def criterion_6_cases():
    """The encodings and Hamiltonians of acceptance criterion 6."""
    cases = []
    for n in (2, 3, 4):
        for basis in ("jw", "fenwick", "ternary"):
            cases.append((
                build_encoding(gen_lattice("linear", n, "open"), basis),
                build_lattice_model("chain", n, t=1.1, u=0.6),
            ))
    cases.append((
        build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx"),
        build_lattice_model("chain", 4, t=1.0, u=0.4, bc="periodic"),
    ))
    cases.append((
        build_encoding(gen_lattice("linear", 3, "periodic"), "jw"),
        build_syk2(3, seed=61),
    ))
    cases.append((
        build_encoding(gen_syk_geometry("star", 4), "jw"), build_syk2(4, seed=62)
    ))
    cases.append((
        build_encoding(gen_lattice("square", (2, 2), "periodic"), "jw"),
        build_lattice_model("square_nn", (2, 2), t=1.0, u=0.5, bc="periodic"),
    ))
    return cases


CRITERION_6 = criterion_6_cases()


def S(label, n):
    return PauliString.from_label(label, n)


def one_term(p: PauliString):
    """The sum whose one term is ``p``, its phase folded in."""
    b = PauliSumBuilder(p.n)
    b.add(1.0, p)
    return b.build()


class TestPauliMatrix:
    def test_matches_kron_chain(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 6))
            p = PauliString(
                n,
                int(rng.integers(0, 2**n)),
                int(rng.integers(0, 2**n)),
                int(rng.integers(0, 4)),
            )
            assert np.array_equal(pauli_sum_to_matrix(one_term(p)), kron_pauli(p)), p

    def test_y_letters_and_all_phases(self):
        for k in range(4):
            p = S("Y1 X2 Z3 Y5", 5).with_phase(k)
            assert np.array_equal(pauli_sum_to_matrix(one_term(p)), kron_pauli(p))

    def test_sum_matches_kron_chain(self, rng):
        b = PauliSumBuilder(4)
        for _ in range(10):
            b.add(
                complex(rng.normal(), rng.normal()),
                PauliString(4, int(rng.integers(0, 16)), int(rng.integers(0, 16))),
            )
        s = b.build()
        expected = sum(c * kron_pauli(p) for p, c in s.terms())
        assert np.allclose(pauli_sum_to_matrix(s), expected, atol=1e-14)


class TestCodespaceBasis:
    @pytest.mark.parametrize("case", range(len(CRITERION_6)))
    def test_projector_matches_kron_product(self, case):
        enc, _ = CRITERION_6[case]
        n, cs = enc.total_qubits, constraints_of(enc)
        basis = joint_plus_one_basis(n, cs)
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert np.allclose(basis @ basis.conj().T, kron_projector(n, cs), atol=1e-12)

    def test_dimension_halves_per_independent_generator(self):
        cs = [S("X1 X2", 4), S("Z1 Z2", 4), S("Z3 Z4", 4)]
        assert joint_plus_one_basis(4, cs).shape == (16, 2)
        assert joint_plus_one_basis(4, []).shape == (16, 16)

    def test_duplicated_generators(self):
        s = S("X1 X2 Z3", 3)
        once = joint_plus_one_basis(3, [s])
        twice = joint_plus_one_basis(3, [s, s])
        assert np.allclose(once @ once.conj().T, twice @ twice.conj().T)
        assert once.shape == twice.shape == (8, 4)

    def test_z_only_generators(self):
        cs = [-S("Z1 Z2", 3), S("Z2 Z3", 3)]
        basis = joint_plus_one_basis(3, cs)
        assert basis.shape == (8, 2)
        assert np.allclose(basis @ basis.conj().T, kron_projector(3, cs))
        # qubits 1, 2 differ and qubits 2, 3 agree: |011> and |100>
        assert sorted(np.flatnonzero(np.abs(basis).sum(axis=1))) == [0b011, 0b100]

    def test_negated_pair_is_empty(self):
        s = S("X1 Z2", 2)
        assert joint_plus_one_basis(2, [s, -s]).shape == (4, 0)
        assert joint_plus_one_basis(2, [-PauliString.identity(2)]).shape == (4, 0)

    def test_anticommuting_or_non_hermitian_is_empty(self):
        assert joint_plus_one_basis(1, [S("X1", 1), S("Z1", 1)]).shape == (2, 0)
        assert joint_plus_one_basis(1, [S("X1", 1).with_phase(1)]).shape == (2, 0)

    def test_even_sector_states(self):
        even = even_sector_states(3)
        assert list(even) == [0b000, 0b011, 0b101, 0b110]
        parity = kron_pauli(S("Z1 Z2 Z3", 3))
        assert np.allclose(np.diag(parity)[even], 1)


class TestCodespaceBlock:
    @pytest.mark.parametrize("case", range(len(CRITERION_6)))
    def test_matches_projected_matrix(self, case):
        enc, h = CRITERION_6[case]
        compiled = transform_hamiltonian(h, enc)
        cs = constraints_of(enc)
        basis = joint_plus_one_basis(enc.total_qubits, cs)
        expected = basis.conj().T @ pauli_sum_to_matrix(compiled) @ basis
        assert np.allclose(codespace_block(compiled, cs), expected, atol=1e-12)

    def test_anticommuting_term_projects_to_zero(self):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        compiled = transform_hamiltonian(
            build_lattice_model("chain", 4, t=1.0, u=0.4, bc="periodic"), enc
        )
        cs = constraints_of(enc)
        stray = S("X1", enc.total_qubits)
        assert not stray.commutes(enc.stabilizers[0])
        b = PauliSumBuilder(enc.total_qubits)
        for p, c in compiled.terms():
            b.add(c, p)
        b.add(0.7, stray)
        with_stray = b.build()
        basis = joint_plus_one_basis(enc.total_qubits, cs)
        expected = basis.conj().T @ pauli_sum_to_matrix(with_stray) @ basis
        block = codespace_block(with_stray, cs)
        assert np.allclose(block, expected, atol=1e-12)
        assert np.allclose(block, codespace_block(compiled, cs), atol=1e-12)

    def test_empty_codespace_fails_the_oracle(self):
        """A virtual mode's parity is fixed to +1 beside the stabilizers,
        so setting it to the negated triangle stabilizer leaves no joint
        +1 eigenspace."""
        g = SystemGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], kinds={3: "virtual"})
        enc = build_encoding(g, "jw_yx")
        (s,) = enc.stabilizers
        broken = dataclasses.replace(enc, vertex_ops={**enc.vertex_ops, 3: -s})
        rep = dense_oracle_check(build_lattice_model("chain", 3, t=1.0, u=0.4), broken)
        assert not rep.passed and rep.codespace_dim == 0
        assert any("not a multiple" in m for m in rep.messages), rep.messages


class TestHermitianInput:
    """``eigvalsh`` reads one triangle, so a non-Hermitian Hamiltonian is
    refused before the compile rather than answered on that triangle."""

    @pytest.mark.parametrize(
        "bc, basis, terms, monomial",
        [
            # both once reported passed=True, max_diff=0
            ("open", "jw", [(1j, ((0, True), (0, False)))], "(0+0.5j) 1 "),
            ("periodic", "jw_yx", [(1.0, ((1, True), (0, False)))], "(-0.25+0j) g1 g3 "),
            # once a "spectrum mismatch" that blamed the encoder
            ("open", "jw", [(1.0, ((0, True), (1, False)))], "(0.25+0j) g1 g3 "),
        ],
        ids=["i_n1", "lone_a2dag_a1", "lone_a1dag_a2"],
    )
    def test_refused_before_the_compile(self, monkeypatch, bc, basis, terms, monomial):
        def unreachable(*args):
            raise AssertionError("compiled a non-Hermitian operator")

        monkeypatch.setattr(dense, "transform_monomials", unreachable)
        enc = build_encoding(gen_lattice("linear", 4, bc), basis)
        f = FermionOperator.from_terms(4, terms)
        with pytest.raises(ParseError, match="not Hermitian") as err:
            dense_oracle_check(f, enc)
        assert f"Majorana monomial {monomial}" in str(err.value)

    def test_tolerance_is_the_oracles(self, monkeypatch):
        """Each monomial is compared with its adjoint within ``dense.TOL``:
        a hopping whose two directions differ by 1e-10 passes at 1e-9 and
        is refused at 1e-11."""
        enc = build_encoding(gen_lattice("linear", 4, "open"), "jw")
        f = build_lattice_model("chain", 4, t=1.0, u=0.5) + FermionOperator.from_terms(
            4, [(1e-10, ((0, True), (1, False)))])
        assert dense.TOL == 1e-9
        assert dense_oracle_check(f, enc).passed
        monkeypatch.setattr(dense, "TOL", 1e-11)
        with pytest.raises(ParseError, match="not Hermitian"):
            dense_oracle_check(f, enc)

    def test_complex_hermitian_hopping_passes(self):
        """t a_1^dag a_2 + conj(t) a_2^dag a_1 with complex t is Hermitian."""
        enc = build_encoding(gen_lattice("linear", 3, "periodic"), "jw")
        t = 0.6 + 0.8j
        f = FermionOperator.from_terms(3, [
            (t, ((0, True), (1, False))), (t.conjugate(), ((1, True), (0, False))),
            (0.3, ((2, True), (2, False))),
        ])
        assert dense_oracle_check(f, enc).passed


def entries_of(m):
    """The nonzero entries of a dense matrix, one per (row, col)."""
    rows, cols = np.nonzero(m)
    return len(m), rows, cols, m[rows, cols]


def component_sizes(entries):
    """Sizes of the components that the nonzero entries link."""
    dim, rows, cols, vals = entries
    nonzero = vals != 0
    labels = _component_labels(dim, rows[nonzero], cols[nonzero])
    return sorted(np.bincount(labels).tolist())


class TestEigvalshByComponents:
    def test_matches_full_eigvalsh(self, rng):
        """Hermitian blocks, scattered by a permutation, give the spectrum
        of the whole matrix, whether they are all complex, all real or
        mixed."""
        for sizes, real in (([3, 1, 4], False), ([3, 3, 3, 1], True), ([2, 2, 5], None)):
            n = sum(sizes)
            m = np.zeros((n, n), dtype=complex)
            start = 0
            for i, k in enumerate(sizes):
                a = rng.normal(size=(k, k))
                if not (real or (real is None and i % 2)):
                    a = a + 1j * rng.normal(size=(k, k))
                m[start:start + k, start:start + k] = a + a.conj().T
                start += k
            perm = rng.permutation(n)
            m = m[np.ix_(perm, perm)]
            entries = entries_of(m)
            assert component_sizes(entries) == sorted(sizes)
            assert np.allclose(_eigvalsh_by_components(entries), np.linalg.eigvalsh(m))
        empty = np.zeros(0, dtype=np.int64)
        assert _eigvalsh_by_components((0, empty, empty, empty + 0j)).shape == (0,)

    def test_labels_match_union_find(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 60))
            links = int(rng.integers(0, 2 * dim))
            rows = rng.integers(0, dim, size=links)
            cols = rng.integers(0, dim, size=links)
            parent = list(range(dim))

            def root(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for r, c in zip(rows, cols):
                parent[max(root(r), root(c))] = min(root(r), root(c))
            roots = [root(v) for v in range(dim)]
            expected = np.unique(roots, return_inverse=True)[1]
            assert np.array_equal(_component_labels(dim, rows, cols), expected)

    def test_unlinked_states_are_zero_eigenvalues(self):
        rows = np.array([1, 3, 1, 3])
        cols = np.array([3, 1, 1, 3])
        vals = np.array([2.0, 2.0, 1.0, 1.0]) + 0j
        assert component_sizes((5, rows, cols, vals)) == [1, 1, 1, 2]
        assert np.allclose(_eigvalsh_by_components((5, rows, cols, vals)), [-1, 0, 0, 0, 3])

    def test_exact_zero_entries_link_nothing(self, monkeypatch):
        """An entry whose value is exactly zero joins no two components:
        the two 2 x 2 blocks stay within a cap of 2."""
        monkeypatch.setattr(dense, "MAX_COMPONENT", 2)
        rows = np.array([0, 1, 2, 3, 0, 2])
        cols = np.array([1, 0, 3, 2, 2, 0])
        vals = np.array([1, 1, 2j, -2j, 0, 0], dtype=complex)
        assert np.allclose(_eigvalsh_by_components((4, rows, cols, vals)), [-2, -1, 1, 2])

    def test_cancelled_entries_link_nothing(self):
        """X1 and -X2 Z3 share the reduced X part X1 under the constraint
        X1 X2, so their block is that of X1 (1 - Z3): the two terms cancel
        on the orbits with qubit 3 at 0, no entry is emitted there, and
        those orbits stay apart."""
        b = PauliSumBuilder(3)
        b.add(1.0, S("X1", 3))
        b.add(-1.0, S("X2 Z3", 3))
        s = b.build()
        cs = [S("X1 X2", 3)]
        entries = _block_entries(s.terms(), _orbits(3, cs))
        dim, rows, cols, vals = entries
        assert dim == 4 and len(rows) == 2 and vals.all()
        assert component_sizes(entries) == [1, 1, 2]
        assert np.allclose(_eigvalsh_by_components(entries), [-2, 0, 0, 2])
        basis = joint_plus_one_basis(3, cs)
        expected = basis.conj().T @ pauli_sum_to_matrix(s) @ basis
        assert np.allclose(_scatter(entries), expected, atol=1e-12)

    def test_cancelled_reference_terms_link_nothing(self):
        """n_1 - n_1 n_2 on two modes is n_1 (1 - n_2): the two terms share
        flip mask 0 and cancel on |11>, which then links nothing."""
        f = FermionOperator.from_terms(2, [
            (1.0, ((0, True), (0, False))),
            (-1.0, ((0, True), (0, False), (1, True), (1, False))),
        ])
        entries = _reference_entries(f, even=False)
        assert entries[0] == 4 and entries[1].tolist() == [2]
        assert np.allclose(_scatter(entries), fermion_kron_matrix(f), atol=1e-12)

    def test_cancellation_keeps_the_chain_block_split(self):
        """The periodic jw_yx chain's codespace block has cancelling
        entries; summed, it splits into the even particle-number sectors,
        C(10, N) states each, not into one 512-state part."""
        enc = build_encoding(gen_lattice("linear", 10, "periodic"), "jw_yx")
        h = build_lattice_model("chain", 10, t=1.3, u=0.8, bc="periodic")
        orbits = _orbits(enc.total_qubits, constraints_of(enc))
        block = _block_entries(transform_hamiltonian(h, enc).terms(), orbits)
        assert block[0] == 512
        assert component_sizes(block) == [1, 1, 45, 45, 210, 210]


class TestReferenceEntries:
    @staticmethod
    def random_operator(rng, n):
        terms = []
        for length in (0, 1, 2, 3, 4):
            for _ in range(4):
                modes = rng.integers(0, n, size=length)
                daggers = rng.integers(0, 2, size=length)
                terms.append((
                    complex(rng.normal(), rng.normal()),
                    tuple((int(m), bool(d)) for m, d in zip(modes, daggers)),
                ))
        return FermionOperator.from_terms(n, terms)

    def test_matches_kron_chain(self, rng):
        """Full and even sectors agree with the kron-chain reference; terms
        with an odd factor count have no even-sector entries."""
        for n in range(1, 7):
            for _ in range(3):
                f = self.random_operator(rng, n)
                expected = fermion_kron_matrix(f)
                full = _scatter(_reference_entries(f, even=False))
                assert np.allclose(full, expected, atol=1e-12)
                even = even_sector_states(n)
                assert np.allclose(
                    _scatter(_reference_entries(f, even=True)),
                    expected[np.ix_(even, even)], atol=1e-12,
                )

    def test_no_modes(self):
        f = FermionOperator.from_terms(0, [(0.5, ()), (0.25, ())])
        for even in (False, True):
            assert np.allclose(_scatter(_reference_entries(f, even)), [[0.75]])

    def test_independent_of_the_encoder(self):
        """The reference path reaches nothing from the Pauli, encoding or
        transform modules."""
        encoder = {"fermigraph.pauli", "fermigraph.encoding", "fermigraph.transform"}
        seen, todo = set(), [dense._reference_entries, dense.fermion_operator_matrix]
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for obj in inspect.getclosurevars(fn).globals.values():
                assert getattr(obj, "__module__", None) not in encoder, (fn, obj)
                if inspect.isfunction(obj) and obj.__module__ == dense.__name__:
                    todo.append(obj)
        assert dense.even_sector_states in seen


def heavy_hex_patch():
    """One heavy-hex cell of ``gen_heavy_hex`` (a 9-vertex cycle) with two
    pendant edges, so that two of its vertices have degree 3."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 9), (9, 13), (12, 13), (11, 12),
             (8, 11), (0, 8), (3, 4), (12, 18)]
    assert set(edges) <= set(gen_heavy_hex().edges)
    ids = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    return SystemGraph.from_edges([(ids[a], ids[b]) for a, b in edges])


def heavy_hex_hopping():
    """Hopping on the patch's bonds and a staggered onsite potential."""
    g = heavy_hex_patch()
    n = len(g.vertex_ids())
    terms = []
    for i, (a, b) in enumerate(g.edges):
        t = 1.0 + 0.1 * i
        terms += [(t, ((a, True), (b, False))), (t, ((b, True), (a, False)))]
    terms += [(0.3 * (j % 3), ((j, True), (j, False))) for j in range(n)]
    return FermionOperator.from_terms(n, terms)


#: (graph, basis, Hamiltonian, qubits) of oracle cases whose 2^n x 2^n
#: matrices the kron-based oracle could not afford.
BEYOND_KRON = {
    "star8_jw": (lambda: gen_syk_geometry("star", 8), "jw",
                 lambda: build_syk2(8, seed=81), 12),
    "square3x3_open_fenwick": (
        lambda: gen_lattice("square", (3, 3), "open"), "fenwick",
        lambda: build_lattice_model("square_nn", (3, 3), t=1.0, u=0.5), 14),
    "star6_fenwick": (lambda: gen_syk_geometry("star", 6), "fenwick",
                      lambda: build_syk2(6, seed=61), 9),
    "square3x4_open_jw": (
        lambda: gen_lattice("square", (3, 4), "open"), "jw",
        lambda: build_lattice_model("square_nn", (3, 4), t=1.0, u=0.5), 20),
    "square3x4_periodic_jw": (
        lambda: gen_lattice("square", (3, 4), "periodic"), "jw",
        lambda: build_lattice_model("square_nn", (3, 4), t=1.0, u=0.5,
                                    bc="periodic"), 24),
    "heavy_hex_patch_jw": (heavy_hex_patch, "jw", heavy_hex_hopping, 13),
    "square_diag3x3_periodic_jw": (
        lambda: gen_square_with_diagonals(3, 3, "periodic"), "jw",
        lambda: build_lattice_model("square_nn_diag", 3, t=1.0, t_diag=0.5,
                                    u=0.3, bc="periodic"), 36),
    "complete6_jw": (lambda: gen_syk_geometry("complete", 6), "jw",
                     lambda: build_syk2(6, seed=1), 18),
}


class TestOracleBeyondKronReach:
    """Cases whose 2^n x 2^n matrices and projector eigh the kron-based
    oracle could not afford, several of them wider than 24 qubits; each
    must pass at 1e-9 within 5 s and 200 MB of numpy buffers."""

    @pytest.mark.parametrize("make_graph, basis, ham, qubits",
                             list(BEYOND_KRON.values()), ids=list(BEYOND_KRON))
    def test_passes_quickly(self, make_graph, basis, ham, qubits):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            enc = build_encoding(make_graph(), basis)
            rep = dense_oracle_check(ham(), enc)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert enc.total_qubits == qubits
        assert rep.passed, rep.messages
        assert elapsed < 5.0, f"oracle took {elapsed:.2f}s"
        assert peak < 200e6, f"oracle held {peak / 1e6:.0f} MB"

    def test_cycle_free_register_over_budget(self):
        """An open 24-mode chain has no stabilizers, so its codespace is
        the whole 2^24-state register: refused before the entries are
        allocated."""
        enc = build_encoding(gen_lattice("linear", 24, "open"), "jw")
        h = build_lattice_model("chain", 24, t=1.0, u=0.5)
        assert enc.total_qubits == 24
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="budget"):
                dense_oracle_check(h, enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"held {peak / 1e6:.0f} MB before refusing"

    def test_reference_budget_counts_kept_terms(self):
        """The budget caps kept terms x sector states.  Twelve modes with
        1,100 odd-length terms and 4 even ones fit in the 2,048-state even
        sector, where the odd ones have no entries; the same operator on
        the full 4,096-state register is refused (the budget allows 512
        terms there)."""
        terms = [(1.0, ((j % 12, True),)) for j in range(1100)]
        terms += [(0.5, ((j, True), (j, False))) for j in range(4)]
        f = FermionOperator.from_terms(12, terms)
        dim, rows, _, _ = _reference_entries(f, even=True)
        # the four n_j share flip mask 0; their sum vanishes on the 128
        # even states with modes 0-3 empty
        assert dim == 2048 and len(rows) == 1920
        with pytest.raises(ResourceError, match="budget"):
            _reference_entries(f, even=False)

    def test_component_over_cap(self, monkeypatch):
        monkeypatch.setattr(dense, "MAX_COMPONENT", 100)
        enc = build_encoding(gen_lattice("linear", 10, "periodic"), "jw_yx")
        h = build_lattice_model("chain", 10, t=1.3, u=0.8, bc="periodic")
        with pytest.raises(ResourceError, match="component"):
            dense_oracle_check(h, enc)


def periodic_chain(n, basis):
    return (build_encoding(gen_lattice("linear", n, "periodic"), basis),
            build_lattice_model("chain", n, t=1.0, u=0.4, bc="periodic"))


#: () -> (encoding, Hamiltonian) for the oracle cases of the tests, open
#: ``jw_yx`` chains and periodic ``jw``, ``jw_yx`` and ``fenwick`` chains.
SUMMED_CASES = {
    **{f"criterion6_{i}": (lambda case=case: case) for i, case in enumerate(CRITERION_6)},
    **{f"open_chain{n}_jw_yx": (lambda n=n: (
        build_encoding(gen_lattice("linear", n, "open"), "jw_yx"),
        build_lattice_model("chain", n, t=1.1, u=0.6))) for n in (2, 3, 4)},
    **{name: (lambda g=g, basis=basis, h=h: (build_encoding(g(), basis), h()))
       for name, (g, basis, h, _) in BEYOND_KRON.items()},
    "chain4_periodic_jw": lambda: periodic_chain(4, "jw"),
    "chain6_periodic_jw_yx": lambda: periodic_chain(6, "jw_yx"),
    "chain5_periodic_fenwick": lambda: periodic_chain(5, "fenwick"),
}


def entry_difference(new, ref) -> float:
    """Largest |new - ref| over the (row, col) pairs of either entry
    list: the sparse form of comparing their scatters.  ``new`` must hold
    one entry per (row, col)."""
    dim, rows, cols, vals = new
    assert len(np.unique(rows * dim + cols)) == len(rows)
    assert ref[0] == dim
    both = (dim, np.concatenate([rows, ref[1]]), np.concatenate([cols, ref[2]]),
            np.concatenate([vals, -ref[3]]))
    return float(np.abs(reference_sum_duplicates(both)[3]).max(initial=0))


class TestSummedEntries:
    """Both oracle sides emit one entry per (row, col), equal within 1e-12
    to the unsummed construction they replaced, summed afterwards."""

    @pytest.mark.parametrize("case", list(SUMMED_CASES))
    def test_block_entries_equal_the_reference(self, case):
        enc, h = SUMMED_CASES[case]()
        orbits = _orbits(enc.total_qubits, constraints_of(enc))
        compiled = transform_hamiltonian(h, enc)
        new = _block_entries(compiled.terms(), orbits)
        assert entry_difference(new, reference_block_entries(compiled, orbits)) <= 1e-12

    @pytest.mark.parametrize("case", list(SUMMED_CASES))
    def test_reference_entries_equal_the_reference(self, case):
        _, h = SUMMED_CASES[case]()
        for even in (True, False):
            new = _reference_entries(h, even)
            assert entry_difference(new, reference_fermion_entries(h, even)) <= 1e-12

    @pytest.mark.parametrize("case", ["square_diag3x3_periodic_jw", "complete6_jw"])
    def test_terms_meet_several_pivots(self, case):
        """Some commuting terms of these cases hold two or more pivot bits
        in their X parts, so the comparison above covers phases that
        several pivot elements multiply in.  (The periodic chains' one
        stabilizer is pure Z: they have no pivots.)"""
        enc, h = SUMMED_CASES[case]()
        orbits = _orbits(enc.total_qubits, constraints_of(enc))
        tops = [g.x.bit_length() - 1 for g in orbits.pivots]
        compiled = transform_hamiltonian(h, enc)
        hits = [sum(q.x >> t & 1 for t in tops)
                for q in (dense._index_order(p) for p, _ in compiled.terms())
                if all(q.commutes(g) for g in orbits.pivots + orbits.z_type)]
        assert max(hits) >= 2

    def test_a_wrong_reduced_phase_fails(self, monkeypatch):
        """One reduced term with its phase off by i no longer matches (the
        2x2 torus of criterion 6: 3 pivots)."""
        enc, h = SUMMED_CASES["criterion6_12"]()
        orbits = _orbits(enc.total_qubits, constraints_of(enc))
        compiled = transform_hamiltonian(h, enc)
        reduce, mutated = dense._reduce, []

        def wrong(q, pivots):
            r = reduce(q, pivots)
            if r.x != q.x and not mutated:
                mutated.append(q)
                return r.with_phase(1)
            return r

        monkeypatch.setattr(dense, "_reduce", wrong)
        new = _block_entries(compiled.terms(), orbits)
        assert mutated
        assert entry_difference(new, reference_block_entries(compiled, orbits)) > 0.1


N1 = FermionOperator.from_terms(4, [(1.0, ((0, True), (0, False)))])

#: Hamiltonians with logical Pauli symmetries: their commutant holds more
#: gauge pairs than the codespace has copies of the sector, 2^k > mult.
LOGICAL_SYMMETRY = {
    "n1_open_chain4_jw": lambda: (
        build_encoding(gen_lattice("linear", 4, "open"), "jw"), N1),
    "n1_star4_jw": lambda: (
        build_encoding(gen_syk_geometry("star", 4), "jw"), N1),
    "hopping_periodic_chain4_jw_yx": lambda: (
        build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx"),
        FermionOperator.from_terms(
            4, [(1.0, ((0, True), (1, False))), (1.0, ((1, True), (0, False)))])),
}

GAUGE_CASES = {**SUMMED_CASES, **LOGICAL_SYMMETRY}

#: k, the gauge pairs of each ``BEYOND_KRON`` case's commutant.
GAUGE_PAIRS = {
    "star8_jw": 3, "square3x3_open_fenwick": 1, "star6_fenwick": 2,
    "square3x4_open_jw": 2, "square3x4_periodic_jw": 0, "heavy_hex_patch_jw": 1,
    "square_diag3x3_periodic_jw": 0, "complete6_jw": 2,
}


@functools.lru_cache(maxsize=None)
def gauge_case(case):
    """(encoding, Hamiltonian, compiled sum, oracle report) of a case."""
    enc, h = GAUGE_CASES[case]()
    return enc, h, transform_hamiltonian(h, enc), dense_oracle_check(h, enc)


def symplectic_rows(enc, compiled):
    """The rows the oracle hands ``_gauge_pairs``: the compiled terms and
    the constraints, X and Z halves swapped."""
    n = enc.total_qubits
    ops = [p for p, _ in compiled.terms()] + constraints_of(enc)
    return [p.z | p.x << n for p in ops]


def pauli_of(v, n):
    return PauliString(n, v & ((1 << n) - 1), v >> n)


def flip_one_sign(s, which=1):
    """``s`` with the sign of its ``which``-th term (sorted) flipped."""
    b = PauliSumBuilder(s.n)
    for i, (p, c) in enumerate(s.terms()):
        b.add(-c if i == which else c, p)
    return b.build()


class TestCommutantGauge:
    """The oracle diagonalizes one gauge sector of the codespace block;
    its report equals the one that diagonalized the whole block."""

    @pytest.mark.parametrize("case", list(GAUGE_CASES))
    def test_report_equals_the_ungauged_reference(self, case):
        enc, h, compiled, rep = gauge_case(case)
        passed, dim, mult, diff = reference_oracle(h, enc, compiled)
        assert rep.passed and passed, rep.messages
        assert (rep.codespace_dim, rep.multiplicity) == (dim, mult)
        assert abs(rep.max_spectrum_diff - diff) <= 1e-12

    @pytest.mark.parametrize("case", list(GAUGE_PAIRS))
    def test_pair_count(self, case):
        assert gauge_case(case)[3].gauge_pairs == GAUGE_PAIRS[case]

    @pytest.mark.parametrize("case", list(GAUGE_CASES))
    def test_pairs_are_symplectic_and_commute_with_everything(self, case):
        """Checked with ``PauliString.commutes``; the count does not depend
        on the order of the rows, which changes the basis."""
        enc, _, compiled, rep = gauge_case(case)
        n = enc.total_qubits
        rows = symplectic_rows(enc, compiled)
        pairs = _gauge_pairs(rows, n)
        assert len(pairs) == rep.gauge_pairs == len(_gauge_pairs(rows[::-1], n))
        ops = [p for p, _ in compiled.terms()] + constraints_of(enc)
        gs = [pauli_of(g, n) for g, _ in pairs]
        us = [pauli_of(u, n) for _, u in pairs]
        for v in gs + us:
            assert v.x | v.z and all(v.commutes(p) for p in ops)
        for i, g in enumerate(gs):
            assert all(g.commutes(h) for h in gs)
            assert [not g.commutes(u) for u in us] == [j == i for j in range(len(us))]

    def test_symmetries_can_outnumber_the_copies(self):
        """Logical symmetries of the Hamiltonian are gauge pairs too: on
        these inputs 2^k exceeds the multiplicity, so the sector holds
        less than one copy of the reference spectrum."""
        for case in LOGICAL_SYMMETRY:
            rep = gauge_case(case)[3]
            assert 1 << rep.gauge_pairs > rep.multiplicity, case

    @pytest.mark.parametrize(
        "case", ["star8_jw", "square3x4_open_jw", "star6_fenwick", "complete6_jw"])
    def test_a_flipped_term_sign_fails(self, monkeypatch, case):
        """One compiled term with its sign flipped fails, by the max
        deviation the whole block gives."""
        enc, h, compiled, _ = gauge_case(case)
        mutant = flip_one_sign(compiled)
        monkeypatch.setattr(dense, "transform_monomials", lambda *args: mutant)
        rep = dense_oracle_check(h, enc)
        passed, _, _, diff = reference_oracle(h, enc, mutant)
        assert not rep.passed and not passed
        assert any("spectrum mismatch" in m for m in rep.messages), rep.messages
        assert diff > 1e-3 and abs(rep.max_spectrum_diff - diff) <= 1e-9

    @pytest.mark.parametrize("corrupt, message", [
        (lambda pairs: [(pairs[0][0], pairs[1][1]), (pairs[1][0], pairs[0][1])]
         + pairs[2:], "G0 and pair 0 are not symplectic"),
        (lambda pairs: [(pairs[0][0] ^ 1, pairs[0][1])] + pairs[1:],
         "G0 anticommutes with a term or constraint"),
    ], ids=["swapped_partners", "g_times_x1"])
    def test_broken_pairs_fail_the_report(self, monkeypatch, corrupt, message):
        """The pairs are checked exactly before they are used: a failed
        check fails the report, which falls back to the whole codespace."""
        enc, h, _, good = gauge_case("star8_jw")
        monkeypatch.setattr(dense, "_gauge_pairs", lambda rows, n: corrupt(_gauge_pairs(rows, n)))
        rep = dense_oracle_check(h, enc)
        assert not rep.passed and f"gauge: {message}" in rep.messages, rep.messages
        assert rep.gauge_pairs == 0 and rep.codespace_dim == good.codespace_dim
        assert rep.max_spectrum_diff <= 1e-9
