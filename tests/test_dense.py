"""Tests for the signed-permutation matrices and stabilizer-orbit
codespace of the dense oracle, pinned against kron-product references."""

import dataclasses
import time

import numpy as np
import pytest

from conftest import I2, XM, ZM
from fermigraph.dense import (
    _eigvalsh_by_components,
    codespace_block,
    dense_oracle_check,
    even_sector_states,
    joint_plus_one_basis,
    pauli_sum_to_matrix,
    pauli_to_matrix,
)
from fermigraph.encoding import build_encoding
from fermigraph.fermion import build_lattice_model, build_syk2
from fermigraph.geometries import gen_lattice, gen_syk_geometry
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


class TestEigvalshByComponents:
    def test_matches_full_eigvalsh(self, rng):
        """Three Hermitian blocks, scattered by a permutation, give the
        spectrum of the whole matrix."""
        sizes = [3, 1, 4]
        m = np.zeros((8, 8), dtype=complex)
        start = 0
        for k in sizes:
            a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            m[start:start + k, start:start + k] = a + a.conj().T
            start += k
        perm = rng.permutation(8)
        m = m[np.ix_(perm, perm)]
        assert np.allclose(_eigvalsh_by_components(m), np.linalg.eigvalsh(m))
        assert _eigvalsh_by_components(np.zeros((0, 0))).shape == (0,)


class TestOracleBeyondKronReach:
    """Cases whose 2^n x 2^n matrices and projector eigh the kron-based
    oracle could not afford; each must pass at 1e-9 within 5 s."""

    @pytest.mark.parametrize(
        "make_graph, basis, ham, cap, qubits",
        [
            (lambda: gen_syk_geometry("star", 8), "jw",
             lambda: build_syk2(8, seed=81), {}, 12),
            (lambda: gen_lattice("square", (3, 3), "open"), "fenwick",
             lambda: build_lattice_model("square_nn", (3, 3), t=1.0, u=0.5),
             {"qubit_cap": 14}, 14),
            (lambda: gen_syk_geometry("star", 6), "fenwick",
             lambda: build_syk2(6, seed=61), {}, 9),
        ],
        ids=["star8_jw", "square3x3_open_fenwick", "star6_fenwick"],
    )
    def test_passes_quickly(self, make_graph, basis, ham, cap, qubits):
        start = time.perf_counter()
        enc = build_encoding(make_graph(), basis)
        rep = dense_oracle_check(ham(), enc, tol=1e-9, **cap)
        elapsed = time.perf_counter() - start
        assert enc.total_qubits == qubits
        assert rep.passed, rep.messages
        assert elapsed < 5.0, f"oracle took {elapsed:.2f}s"
