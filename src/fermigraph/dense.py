"""Dense-matrix oracle: exact spectra for small instances.

A Pauli string acts on a computational basis state as a signed
permutation,

    P |b> = i^phase (-1)^{|b & z|} |b ^ x>,

so every matrix here is filled by index/sign scatter at O(2^n) work per
term instead of being multiplied out of single-qubit kron factors.

The codespace (the joint +1 eigenspace of commuting Hermitian
constraints) has a basis indexed by stabilizer orbits.  Reducing the
constraints over GF(2) by their X parts, highest set bit as pivot, leaves
pivot elements with independent X parts and pure-Z elements.  Each orbit
of basis states under the pivots has one representative r with every
pivot bit zero; the orbit carries a codespace vector, the normalized
P_code |r>, exactly when every pure-Z element acts as +1 on r.  The
oracle builds the d x d codespace block of the compiled Hamiltonian on
these vectors directly and diagonalizes it one decoupled part at a time,
so it holds O(d^2) numbers for the block plus O(4^m) for the m-mode
reference, instead of O(4^n) for the n-qubit encoded matrix and its
projector; no projector is formed or diagonalized.

The reference side uses the standard chain representation
g_{2m} = Z..Z X_m, g_{2m+1} = Z..Z Y_m and nothing from the Pauli,
encoding or transform modules, so agreement between the two sides is a
real check of the encoder.

Register convention: qubit 0 is the first (leftmost) tensor factor, i.e.
the most significant bit of a basis-state index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .encoding import Encoding, verify_encoding_algebra
from .errors import ResourceError
from .fermion import FermionOperator
from .pauli import PauliString, PauliSum
from .transform import transform_hamiltonian

#: i^k for k = 0..3, indexed by an integer phase exponent mod 4.
_IPOW = np.array([1, 1j, -1, -1j])


def _parity(v: np.ndarray) -> np.ndarray:
    """0/1 parity of the set bits of each entry, as int64."""
    return (np.bitwise_count(v) & 1).astype(np.int64)


def _index_order(p: PauliString) -> PauliString:
    """``p`` with its masks bit-reversed, so that bit j of ``x``/``z``
    is bit j of a basis-state index (qubit 0 is the top bit)."""
    n = p.n

    def rev(v: int) -> int:
        return int(format(v, f"0{n}b")[::-1], 2) if n else 0

    return PauliString(n, rev(p.x), rev(p.z), p.phase)


def _phase_exponents(q: PauliString, b: np.ndarray) -> np.ndarray:
    """k with q |b> = i^k |b ^ q.x>, for index-ordered ``q``."""
    return q.phase + 2 * _parity(b & q.z)


def _add_pauli(m: np.ndarray, c: complex, p: PauliString) -> None:
    """m += c * P, one entry per column."""
    q = _index_order(p)
    b = np.arange(len(m))
    m[b ^ q.x, b] += c * _IPOW[_phase_exponents(q, b) % 4]


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, including its exact phase."""
    m = np.zeros((2**p.n, 2**p.n), dtype=complex)
    _add_pauli(m, 1.0, p)
    return m


def pauli_sum_to_matrix(s: PauliSum) -> np.ndarray:
    m = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for p, c in s.terms():
        _add_pauli(m, c, p)
    return m


# ----------------------------------------------------------------------
# reference fermionic matrices (chain representation)


def fermion_operator_matrix(f: FermionOperator) -> np.ndarray:
    """Dense matrix of ``f`` in the chain representation.

    There a_m = Z..Z |0><1|_m and a_m^dag = Z..Z |1><0|_m, so each term is
    a signed partial permutation of the basis states: the factors are
    applied right to left to every column at once, killing the columns
    they annihilate, at O(factors * 2^m) work per term."""
    n = f.n_modes
    dim = 2**n
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in f.terms:
        state = cols.copy()
        sign = np.ones(dim, dtype=np.int64)
        alive = np.ones(dim, dtype=bool)
        for mode, dagger in reversed(factors):
            bit = 1 << (n - 1 - mode)
            occupied = (state & bit) != 0
            alive &= ~occupied if dagger else occupied
            # the Z string on modes before ``mode``: the bits above ``bit``
            sign *= 1 - 2 * _parity(state & -(bit << 1))
            state = state ^ bit
        out[state[alive], cols[alive]] += coeff * sign[alive]
    return out


def even_sector_states(n_modes: int) -> np.ndarray:
    """Indices of the even-occupation basis states, where the parity
    Z..Z is +1."""
    return np.flatnonzero(_parity(np.arange(2**n_modes)) == 0)


# ----------------------------------------------------------------------
# codespace machinery


@dataclass
class _Orbits:
    """Stabilizer orbits of the basis states (index-ordered operators).

    ``pivots`` holds the X-reduced generators, highest pivot bit first;
    ``reps`` holds, ascending, the orbit representatives (pivot bits zero)
    whose orbit carries a codespace vector."""

    pivots: List[PauliString]
    reps: np.ndarray


def _orbits(n_qubits: int, constraints: Sequence[PauliString]) -> _Orbits:
    none = _Orbits([], np.zeros(0, dtype=np.int64))
    # a non-Hermitian constraint has no +1 eigenvalue, and two
    # anticommuting ones share no +1 eigenvector
    if not all(s.is_hermitian() for s in constraints):
        return none
    if not all(s.commutes(t) for i, s in enumerate(constraints)
               for t in constraints[:i]):
        return none
    pivot_of = {}
    z_type = []
    for s in constraints:
        g = _index_order(s)
        while g.x and g.x.bit_length() - 1 in pivot_of:
            g = g * pivot_of[g.x.bit_length() - 1]
        if g.x:
            pivot_of[g.x.bit_length() - 1] = g
        else:
            z_type.append(g)
    reps = np.zeros(1, dtype=np.int64)
    for bit in range(n_qubits):
        if bit not in pivot_of:
            reps = np.concatenate([reps, reps | (1 << bit)])
    for g in z_type:  # includes -I, which keeps no representative
        reps = reps[_phase_exponents(g, reps) % 4 == 0]
    return _Orbits([pivot_of[b] for b in sorted(pivot_of, reverse=True)], reps)


def joint_plus_one_basis(
    n_qubits: int, constraints: Sequence[PauliString]
) -> np.ndarray:
    """Orthonormal basis (columns) of the joint +1 eigenspace.

    Column j is P_code |r_j> normalized, for the j-th orbit representative
    r_j in ascending order: the equal-weight sum, with the group's phases,
    of the 2^rank basis states in the orbit of r_j.  With no common +1
    eigenvector (for instance when the constraints generate -I) the
    result has no columns."""
    orbits = _orbits(n_qubits, constraints)
    reps = orbits.reps
    elements = [PauliString.identity(n_qubits)]
    for p in orbits.pivots:
        elements += [e * p for e in elements]
    basis = np.zeros((2**n_qubits, len(reps)), dtype=complex)
    cols = np.arange(len(reps))
    scale = 1.0 / np.sqrt(len(elements))
    for e in elements:
        basis[reps ^ e.x, cols] = scale * _IPOW[_phase_exponents(e, reps) % 4]
    return basis


def codespace_block(s: PauliSum, constraints: Sequence[PauliString]) -> np.ndarray:
    """B^dag S B for B = ``joint_plus_one_basis(s.n, constraints)``,
    built without B or the 2^n x 2^n matrix of ``s``.

    A term that commutes with every constraint maps the vector of orbit r
    to a phase times the vector of the orbit of its image r ^ x; the image
    is walked back to its representative with the pivot elements, which
    act as +1 on the codespace, collecting their phases.  A term that
    anticommutes with a constraint has a zero block."""
    orbits = _orbits(s.n, constraints)
    reps = orbits.reps
    cols = np.arange(len(reps))
    block = np.zeros((len(reps), len(reps)), dtype=complex)
    for p, c in s.terms():
        if not all(p.commutes(t) for t in constraints):
            continue
        q = _index_order(p)
        state = reps ^ q.x
        k = _phase_exponents(q, reps)
        for g in orbits.pivots:
            hit = (state >> (g.x.bit_length() - 1)) & 1
            k = k + hit * _phase_exponents(g, state)
            state = state ^ (hit * g.x)
        block[np.searchsorted(reps, state), cols] += c * _IPOW[k % 4]
    return block


def _eigvalsh_by_components(m: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the Hermitian ``m``, one ``eigvalsh`` per
    connected component of its nonzero pattern: a symmetric permutation
    makes ``m`` block diagonal over them.  Conserved quantities split both
    oracle sides this way: the fermion parity splits the codespace block,
    and the particle number splits a number-conserving reference."""
    linked = (m != 0) | (m.T != 0)
    unseen = np.ones(len(m), dtype=bool)
    evals = [np.zeros(0)]
    while unseen.any():
        reach = np.zeros(len(m), dtype=bool)
        frontier = np.flatnonzero(unseen)[:1]
        while frontier.size:
            reach[frontier] = True
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~reach)
        unseen &= ~reach
        part = np.flatnonzero(reach)
        evals.append(np.linalg.eigvalsh(m[np.ix_(part, part)]))
    return np.sort(np.concatenate(evals).real)


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
    of the vertex operators of virtual modes.  The compiled Hamiltonian's
    block on it is built orbit by orbit (``codespace_block``); only that
    d x d block and the reference matrix are diagonalized, each one
    decoupled part at a time.  With no odd-degree physical vertex
    the codespace hosts the even-parity sector; unpaired Majoranas on
    odd-degree physical vertices open up the odd sector as well, and each
    surplus pair of unpaired Majoranas doubles every level, so the
    expected spectrum is the appropriate sector multiset repeated
    codespace_dim / sector_dim times.  An empty codespace is reported as
    a failed check.  The encoding's operator algebra is validated along
    the way.  ``qubit_cap`` bounds the total qubit count.
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
    constraints = list(enc.stabilizers) + enc.virtual_parity_ops()
    block = codespace_block(compiled, constraints)
    code_dim = block.shape[0]

    h_exact = fermion_operator_matrix(f)
    odd_physical = [
        v for v in enc.graph.physical_ids() if enc.graph.degree(v) % 2 == 1
    ]
    if odd_physical:
        sector = "full"
    else:
        sector = "even"
        even = even_sector_states(f.n_modes)
        h_exact = h_exact[np.ix_(even, even)]
    spec_ref = _eigvalsh_by_components(h_exact)

    mult, rem = divmod(code_dim, len(spec_ref))
    if rem or mult < 1:
        messages.append(
            f"codespace dim {code_dim} is not a multiple of the {sector}-sector dim {len(spec_ref)}"
        )
        return OracleReport(
            False, enc.total_qubits, code_dim, sector, 0, float("inf"),
            algebra.ok, messages,
        )
    spec_enc = _eigvalsh_by_components(block)
    expected = np.sort(np.repeat(spec_ref, mult))
    diff = float(np.max(np.abs(expected - spec_enc)))
    ok = algebra.ok and diff <= tol
    if diff > tol:
        messages.append(f"spectrum mismatch: max deviation {diff:.3e} > {tol:.1e}")
    return OracleReport(
        ok, enc.total_qubits, code_dim, sector, mult, diff, algebra.ok, messages
    )
