"""Dense-matrix oracle: exact spectra for small instances.

Everything here is built directly from numpy kron products and the
standard chain representation of fermionic operators, independently of
the encoder, so agreement between the two sides is a real check.

Register convention: qubit 0 is the first (leftmost) tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .encoding import Encoding, verify_encoding_algebra
from .errors import ResourceError
from .fermion import FermionOperator, MajoranaMonomial
from .pauli import PauliString, PauliSum
from .transform import transform_hamiltonian

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MAT = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, including its exact phase."""
    m = np.eye(1, dtype=complex)
    for q in range(p.n):
        f = _I
        if (p.x >> q) & 1:
            f = _X
        if (p.z >> q) & 1:
            f = f @ _Z
        m = np.kron(m, f)
    return (1j) ** (p.phase % 4) * m


def pauli_sum_to_matrix(s: PauliSum) -> np.ndarray:
    m = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for p, c in s.terms():
        m += c * pauli_to_matrix(p)
    return m


# ----------------------------------------------------------------------
# reference fermionic matrices (chain representation)


def majorana_matrix(n_modes: int, index: int) -> np.ndarray:
    """g_{2m} = Z..Z X_m, g_{2m+1} = Z..Z Y_m on mode qubits 0..n-1."""
    mode, imag = index // 2, index % 2
    m = np.eye(1, dtype=complex)
    for q in range(n_modes):
        if q < mode:
            f = _Z
        elif q == mode:
            f = _Y if imag else _X
        else:
            f = _I
        m = np.kron(m, f)
    return m


def monomial_matrix(n_modes: int, mono: MajoranaMonomial) -> np.ndarray:
    m = np.eye(2**n_modes, dtype=complex)
    for g in mono.indices:
        m = m @ majorana_matrix(n_modes, g)
    return mono.coefficient * m


def mode_matrix(n_modes: int, mode: int, dagger: bool) -> np.ndarray:
    real = majorana_matrix(n_modes, 2 * mode)
    imag = majorana_matrix(n_modes, 2 * mode + 1)
    return 0.5 * (real + (-1j if dagger else 1j) * imag)


def fermion_operator_matrix(f: FermionOperator) -> np.ndarray:
    dim = 2**f.n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in f.terms:
        m = np.eye(dim, dtype=complex)
        for mode, dagger in factors:
            m = m @ mode_matrix(f.n_modes, mode, dagger)
        out += coeff * m
    return out


def coupling_matrix(n_modes: int, p: int, q: int) -> np.ndarray:
    """A(p,q) = -i g_{2p} g_{2q}."""
    return -1j * majorana_matrix(n_modes, 2 * p) @ majorana_matrix(n_modes, 2 * q)


def parity_matrix(n_modes: int, p: int) -> np.ndarray:
    """B(p) = -i g_{2p} g_{2p+1}."""
    return -1j * majorana_matrix(n_modes, 2 * p) @ majorana_matrix(n_modes, 2 * p + 1)


def ev_term_matrix(n_modes: int, ev) -> np.ndarray:
    """Dense image of an edge/vertex term in the reference representation."""
    m = np.eye(2**n_modes, dtype=complex)
    for p, q in ev.edge_factors:
        m = m @ coupling_matrix(n_modes, p, q)
    for p in sorted(ev.vertex_factors):
        m = m @ parity_matrix(n_modes, p)
    return ev.coefficient * m


# ----------------------------------------------------------------------
# codespace machinery


def joint_plus_one_basis(
    n_qubits: int, constraints: Sequence[PauliString]
) -> np.ndarray:
    """Orthonormal basis (columns) of the joint +1 eigenspace."""
    dim = 2**n_qubits
    proj = np.eye(dim, dtype=complex)
    for s in constraints:
        proj = proj @ (np.eye(dim) + pauli_to_matrix(s)) / 2.0
    if not constraints:
        return np.eye(dim, dtype=complex)
    evals, evecs = np.linalg.eigh((proj + proj.conj().T) / 2.0)
    keep = evals > 0.5
    return evecs[:, keep]


def even_sector_basis(n_modes: int) -> np.ndarray:
    dim = 2**n_modes
    par = np.eye(1, dtype=complex)
    for _ in range(n_modes):
        par = np.kron(par, _Z)
    evals, evecs = np.linalg.eigh(par)
    return evecs[:, evals > 0.5]


# ----------------------------------------------------------------------
# the check itself


@dataclass
class OracleReport:
    passed: bool
    total_qubits: int
    codespace_dim: int
    sector: str
    multiplicity: int
    max_spectrum_diff: float
    algebra_ok: bool
    messages: List[str] = field(default_factory=list)


def dense_oracle_check(
    f: FermionOperator,
    enc: Encoding,
    tol: float = 1e-9,
    qubit_cap: int = 12,
) -> OracleReport:
    """Compare the compiled Hamiltonian, restricted to the codespace,
    against the exact fermionic spectrum in the matching sector.

    The codespace is the joint +1 eigenspace of the cycle stabilizers and
    of the vertex operators of virtual modes.  With no odd-degree
    physical vertex the codespace hosts the even-parity sector; unpaired
    Majoranas on odd-degree physical vertices open up the odd sector as
    well, and each surplus pair of unpaired Majoranas doubles every
    level, so the expected spectrum is the appropriate sector multiset
    repeated codespace_dim / sector_dim times.  The encoding's operator
    algebra is validated along the way.
    """
    if enc.total_qubits > qubit_cap:
        raise ResourceError(
            f"dense check needs {enc.total_qubits} qubits, above the cap of {qubit_cap}"
        )
    messages: List[str] = []
    algebra = verify_encoding_algebra(enc)
    if not algebra.ok:
        messages.extend("algebra: " + v for v in algebra.violations)

    compiled = transform_hamiltonian(f, enc)
    h_enc = pauli_sum_to_matrix(compiled)

    constraints = list(enc.stabilizers) + enc.virtual_parity_ops()
    basis = joint_plus_one_basis(enc.total_qubits, constraints)
    code_dim = basis.shape[1]
    spec_enc = np.sort(
        np.linalg.eigvalsh(basis.conj().T @ h_enc @ basis).real
    )

    n = f.n_modes
    h_exact = fermion_operator_matrix(f)
    odd_physical = [
        v for v in enc.graph.physical_ids() if enc.graph.degree(v) % 2 == 1
    ]
    if odd_physical:
        sector = "full"
        spec_ref = np.sort(np.linalg.eigvalsh(h_exact).real)
    else:
        sector = "even"
        eb = even_sector_basis(n)
        spec_ref = np.sort(np.linalg.eigvalsh(eb.conj().T @ h_exact @ eb).real)

    mult, rem = divmod(code_dim, len(spec_ref))
    if rem or mult < 1:
        messages.append(
            f"codespace dim {code_dim} is not a multiple of the {sector}-sector dim {len(spec_ref)}"
        )
        return OracleReport(
            False, enc.total_qubits, code_dim, sector, 0, float("inf"),
            algebra.ok, messages,
        )
    expected = np.sort(np.repeat(spec_ref, mult))
    diff = float(np.max(np.abs(expected - spec_enc))) if code_dim else 0.0
    ok = algebra.ok and diff <= tol
    if diff > tol:
        messages.append(f"spectrum mismatch: max deviation {diff:.3e} > {tol:.1e}")
    return OracleReport(
        ok, enc.total_qubits, code_dim, sector, mult, diff, algebra.ok, messages
    )
