"""Tests for the signed-permutation matrices and stabilizer-orbit
codespace of the dense oracle, pinned against kron-product references."""

import dataclasses
import inspect
import time
import tracemalloc

import numpy as np
import pytest

from conftest import I2, XM, ZM, fermion_kron_matrix
from fermigraph import dense
from fermigraph.dense import (
    _block_entries,
    _component_labels,
    _eigvalsh_by_components,
    _orbits,
    _reference_entries,
    _scatter,
    _sum_duplicates,
    codespace_block,
    dense_oracle_check,
    even_sector_states,
    joint_plus_one_basis,
    pauli_sum_to_matrix,
    pauli_to_matrix,
)
from fermigraph.encoding import build_encoding
from fermigraph.errors import ResourceError
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
            assert np.array_equal(pauli_to_matrix(p), kron_pauli(p)), p

    def test_y_letters_and_all_phases(self):
        for k in range(4):
            p = S("Y1 X2 Z3 Y5", 5).with_phase(k)
            assert np.array_equal(pauli_to_matrix(p), kron_pauli(p))

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
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        s = enc.stabilizers[0]
        broken = dataclasses.replace(enc, stabilizers=[s, -s])
        rep = dense_oracle_check(
            build_lattice_model("chain", 4, t=1.0, u=0.4, bc="periodic"), broken
        )
        assert not rep.passed and rep.codespace_dim == 0
        assert any("not a multiple" in m for m in rep.messages), rep.messages


def entries_of(m):
    """The nonzero entries of a dense matrix, each split into two halves
    so that the duplicates have to be summed."""
    rows, cols = np.nonzero(m)
    vals = m[rows, cols] / 2
    return (len(m), np.tile(rows, 2), np.tile(cols, 2), np.tile(vals, 2))


def component_sizes(entries):
    dim, rows, cols, _ = _sum_duplicates(entries)
    return sorted(np.bincount(_component_labels(dim, rows, cols)).tolist())


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

    def test_cancelled_entries_link_nothing(self):
        """+a and -a at one (row, col) sum to nothing, so the two 2 x 2
        blocks they would join stay two components."""
        a = 0.37 + 0.2j
        rows = np.array([0, 1, 0, 1, 2, 3, 2, 3, 0, 0, 2, 2])
        cols = np.array([0, 1, 1, 0, 2, 3, 3, 2, 2, 2, 0, 0])
        vals = np.array([1, -1, 0.5, 0.5, 2, 0, 1j, -1j, a, -a,
                         a.conjugate(), -a.conjugate()])
        entries = (4, rows, cols, vals)
        assert component_sizes(entries) == [2, 2]
        assert len(_sum_duplicates(entries)[1]) == 7  # the zero diagonal went too
        assert np.allclose(
            _eigvalsh_by_components(entries), np.linalg.eigvalsh(_scatter(entries))
        )

    def test_cancellation_keeps_the_chain_block_split(self):
        """The periodic jw_yx chain's codespace block has cancelling
        entries; summed, it splits into the even particle-number sectors,
        C(10, N) states each, not into one 512-state part."""
        enc = build_encoding(gen_lattice("linear", 10, "periodic"), "jw_yx")
        h = build_lattice_model("chain", 10, t=1.3, u=0.8, bc="periodic")
        orbits = _orbits(enc.total_qubits, constraints_of(enc))
        block = _block_entries(transform_hamiltonian(h, enc), orbits)
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


class TestOracleBeyondKronReach:
    """Cases whose 2^n x 2^n matrices and projector eigh the kron-based
    oracle could not afford, several of them wider than 24 qubits; each
    must pass at 1e-9 within 5 s and 200 MB of numpy buffers."""

    @pytest.mark.parametrize(
        "make_graph, basis, ham, qubits",
        [
            (lambda: gen_syk_geometry("star", 8), "jw",
             lambda: build_syk2(8, seed=81), 12),
            (lambda: gen_lattice("square", (3, 3), "open"), "fenwick",
             lambda: build_lattice_model("square_nn", (3, 3), t=1.0, u=0.5), 14),
            (lambda: gen_syk_geometry("star", 6), "fenwick",
             lambda: build_syk2(6, seed=61), 9),
            (lambda: gen_lattice("square", (3, 4), "open"), "jw",
             lambda: build_lattice_model("square_nn", (3, 4), t=1.0, u=0.5), 20),
            (lambda: gen_lattice("square", (3, 4), "periodic"), "jw",
             lambda: build_lattice_model("square_nn", (3, 4), t=1.0, u=0.5,
                                         bc="periodic"), 24),
            (heavy_hex_patch, "jw", heavy_hex_hopping, 13),
            (lambda: gen_square_with_diagonals(3, 3, "periodic"), "jw",
             lambda: build_lattice_model("square_nn_diag", 3, t=1.0, t_diag=0.5,
                                         u=0.3, bc="periodic"), 36),
            (lambda: gen_syk_geometry("complete", 6), "jw",
             lambda: build_syk2(6, seed=1), 18),
        ],
        ids=["star8_jw", "square3x3_open_fenwick", "star6_fenwick",
             "square3x4_open_jw", "square3x4_periodic_jw", "heavy_hex_patch_jw",
             "square_diag3x3_periodic_jw", "complete6_jw"],
    )
    def test_passes_quickly(self, make_graph, basis, ham, qubits):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            enc = build_encoding(make_graph(), basis)
            rep = dense_oracle_check(ham(), enc, tol=1e-9)
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
        assert dim == 2048 and len(rows) == 4 * 1024
        with pytest.raises(ResourceError, match="budget"):
            _reference_entries(f, even=False)

    def test_component_over_cap(self, monkeypatch):
        monkeypatch.setattr(dense, "MAX_COMPONENT", 100)
        enc = build_encoding(gen_lattice("linear", 10, "periodic"), "jw_yx")
        h = build_lattice_model("chain", 10, t=1.3, u=0.8, bc="periodic")
        with pytest.raises(ResourceError, match="component"):
            dense_oracle_check(h, enc)
