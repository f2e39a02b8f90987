"""Dense-matrix oracle: exact spectra for small instances.

A Pauli string acts on a computational basis state as a signed
permutation,

    P |b> = i^phase (-1)^{|b & z|} |b ^ x>,

and a product of creation and annihilation operators in the chain
representation acts the same way, except that it also kills the states
it annihilates.  So both sides of the oracle are built as entry arrays
(rows, cols, vals): every term has one value per basis state, zero where
it kills the state, and a batch of terms is one (terms x states) array
operation.  Terms with one X part (flip mask) move every state to the
same row, so their values are summed before any entry is emitted: each
side emits one entry per (row, col), and no duplicate is sorted.

The codespace (the joint +1 eigenspace of commuting Hermitian
constraints) has a basis indexed by stabilizer orbits.  Reducing the
constraints over GF(2) by their X parts, highest set bit as pivot, leaves
pivot elements with independent X parts and pure-Z elements.  Each orbit
of basis states under the pivots has one representative r with every
pivot bit zero; the orbit carries a codespace vector, the normalized
P_code |r>, exactly when every pure-Z element acts as +1 on r.  The
oracle builds the entries of the compiled Hamiltonian's d x d codespace
block on these vectors directly; no projector and no 2^n x 2^n matrix
is formed.  Each commuting term is reduced by the pivots once, on its
Pauli string, so that its X part maps representatives to
representatives.

Each entry list is split into the connected components of its nonzero
pattern, exact zeros (cancelled sums) dropped so that they link nothing;
each component is scattered into a dense m x m matrix for ``eigvalsh``,
in real arithmetic when its imaginary part is exactly zero.
Conserved quantities keep the components small: fermion parity splits
the codespace block, and particle number splits a number-conserving
Hamiltonian on both sides.  Memory is O(kept terms x d) transient values
plus O(distinct X parts x d) entries, and O(m^2) per component.

Isospectral copies are not built at all.  Extra local Majoranas (odd-degree
vertices, virtual vertices) and logical Pauli symmetries of the
Hamiltonian make the codespace block a direct sum of 2^k exactly
isospectral gauge sectors.  The Paulis that commute with every compiled
term and every constraint form the commutant, the GF(2) null space of the
symplectic form on their ``x | z << n`` vectors; symplectic Gram-Schmidt
splits it, up to its center, into pairs (G_i, U_i).  U_i commutes with
the Hamiltonian and the constraints and flips only G_i, so it maps the
G_i = +1 sector onto the -1 sector.  The oracle fixes every G_i to +1 as
one more constraint and builds and diagonalizes that sector alone; its
spectrum repeated 2^k times is the block's spectrum exactly, with no
floats involved, so the comparison against the reference is the one the
whole block would give.  The pairs are checked exactly before use.

The work is bounded by what is allocated, not by the qubit count:
``ENTRY_BUDGET`` caps kept terms x basis states (the sector's orbits on
the codespace side) on either side and is checked before any value is
allocated (a value is 16 bytes, and an entry, an int64 row, an int64
column and a value, 32 bytes, so at most 64 MiB of entries per side at
the budget), and ``MAX_COMPONENT`` caps the dimension of a dense
component.  A non-Hermitian operator is refused before the compile:
``eigvalsh`` reads one triangle and would answer on it.
Basis states are int64 bit masks, so registers wider than 62 qubits are
refused before any work.  Exceeding a bound raises ``ResourceError``.
The budget refuses some inputs a dense 2^m x 2^m reference would take:
on the 4,096 states of 12 modes it allows 512 terms.  The dense matrices
of Pauli strings and sums are the same entries with no constraints.

The reference side uses the standard chain representation
g_{2m} = Z..Z X_m, g_{2m+1} = Z..Z Y_m and nothing from the Pauli,
encoding or transform modules, so agreement between the two sides is a
real check of the encoder.

Register convention: qubit 0 is the first (leftmost) tensor factor, i.e.
the most significant bit of a basis-state index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .encoding import Encoding, verify_encoding_algebra
from .errors import ParseError, ResourceError
from .fermion import FermionOperator, MajoranaMonomial
from .localbasis import gf2_pivots, gf2_reduce
from .pauli import PauliString, PauliSum, PauliSumBuilder
from .transform import hamiltonian_monomials, transform_monomials

#: i^k for k = 0..3, indexed by an integer phase exponent mod 4.
_IPOW = np.array([1, 1j, -1, -1j])

#: Most (term, basis state) entries either side of the oracle may build.
ENTRY_BUDGET = 1 << 21
#: Largest connected component that is diagonalized as a dense matrix.
MAX_COMPONENT = 4096
#: Largest spectrum deviation, and monomial-to-adjoint deviation, accepted.
TOL = 1e-9
#: Basis-state indices are int64 bit masks.
_MAX_INDEX_BITS = 62

#: (dim, rows, cols, vals) of a dim x dim matrix, one entry per (row, col).
Entries = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


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


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, including its exact phase."""
    one = PauliSumBuilder(p.n)
    one.add(1.0, p)
    return pauli_sum_to_matrix(one.build())


def pauli_sum_to_matrix(s: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli sum: its codespace block under no
    constraints, where every basis state is an orbit of its own."""
    return codespace_block(s, [])


def _check_budget(states: int, terms: int, what: str) -> None:
    """Refuse a (terms x states) batch larger than ``ENTRY_BUDGET``."""
    if states * max(terms, 1) > ENTRY_BUDGET:
        raise ResourceError(
            f"dense check needs {terms} terms x {states} {what} = "
            f"{terms * states} entries, above the budget of {ENTRY_BUDGET}"
        )


def _scatter(entries: Entries) -> np.ndarray:
    dim, rows, cols, vals = entries
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, cols] = vals
    return out


def _sum_by_key(
    keys: np.ndarray, vals: np.ndarray, image: Callable[[np.ndarray], np.ndarray]
) -> Entries:
    """Entries of a (terms x dim) value array whose term t takes column c
    to row ``image(keys)[t, c]``, one per (row, col).

    Terms that share a key share their rows, so their value rows are summed
    in term order (a stable sort by key, then one row reduction per key)
    before ``image`` maps the distinct keys; terms with different keys take
    a column to different rows.  Exact zeros, such as cancelled sums, are
    dropped: they must not link two components."""
    dim = vals.shape[1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are masks, >= 0
    summed = np.empty((len(starts), dim), dtype=complex)
    for out, group in zip(summed, np.split(order, starts[1:])):
        np.add.reduce(vals[group], axis=0, out=out)
    nonzero = summed != 0
    rows = image(keys[starts])[nonzero]
    cols = np.broadcast_to(np.arange(dim), summed.shape)[nonzero]
    return dim, rows, cols, summed[nonzero]


# ----------------------------------------------------------------------
# reference fermionic matrices (chain representation)


def _reference_entries(f: FermionOperator, even: bool) -> Entries:
    """Entries of ``f`` in the chain representation, on every basis state
    or, with ``even``, on the even-occupation ones in ascending order.

    There a_m = Z..Z |0><1|_m and a_m^dag = Z..Z |1><0|_m, so each term is
    a signed partial permutation of the basis states: it takes a state it
    keeps to the state with its flip mask (the XOR of its modes' bits)
    applied.  Terms are batched by their factor count: factor i of every
    term in a batch is applied, right to left, to a (terms x states) array
    at once, and a state it annihilates gets the value 0.  The value rows
    of terms with one flip mask are then summed across batches.  The even
    states are the ones of 2j, 2j + 1 with even parity, so state s sits at
    position s >> 1 among them; a term with an odd factor count leaves the
    even sector and has no entries there."""
    n = f.n_modes
    dim = 2**n >> 1 if even and n else 2**n
    kept = [(c, fs) for c, fs in f.terms if not (even and len(fs) % 2)]
    _check_budget(dim, len(kept), "basis states")
    states = even_sector_states(n) if even else np.arange(dim)
    by_length: Dict[int, List[Tuple[complex, Sequence]]] = {}
    for coeff, factors in kept:
        by_length.setdefault(len(factors), []).append((coeff, factors))
    masks = [np.zeros(0, np.int64)]
    values = [np.zeros((0, dim), complex)]
    for length, group in sorted(by_length.items()):
        coeff = np.array([c for c, _ in group], dtype=complex)
        modes = np.array([[m for m, _ in fs] for _, fs in group], np.int64)
        dagger = np.array([[d for _, d in fs] for _, fs in group], bool)
        bits = 1 << (n - 1 - modes)
        state = np.tile(states, (len(group), 1))
        alive = np.ones(state.shape, dtype=bool)
        flips = np.zeros(state.shape, dtype=np.int64)
        for i in reversed(range(length)):
            bit = bits[:, i, None]
            alive &= ((state & bit) == 0) == dagger[:, i, None]
            # the Z string on modes before ``mode``: the bits above ``bit``
            flips += np.bitwise_count(state & -(bit << 1))
            state ^= bit
        masks.append(np.bitwise_xor.reduce(bits, axis=1))
        values.append(coeff[:, None] * np.where(alive, 1 - 2 * (flips & 1), 0))
    shift = 1 if even else 0
    return _sum_by_key(np.concatenate(masks), np.concatenate(values),
                       lambda m: (states ^ m[:, None]) >> shift)


def fermion_operator_matrix(f: FermionOperator) -> np.ndarray:
    """Dense matrix of ``f`` in the chain representation: the scatter of
    its reference entries on the full register."""
    return _scatter(_reference_entries(f, even=False))


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
    ``z_type`` the pure-Z ones, each of which must act as +1 on an
    orbit's representative for the orbit to carry a codespace vector."""

    n: int
    pivots: List[PauliString]
    z_type: List[PauliString]

    def count(self) -> int:
        """Number of orbits, before the pure-Z elements select among them."""
        return 1 << (self.n - len(self.pivots))

    def representatives(self) -> np.ndarray:
        """Ascending representatives (pivot bits zero) of the orbits that
        carry a codespace vector."""
        tops = {g.x.bit_length() - 1 for g in self.pivots}
        reps = np.zeros(1, dtype=np.int64)
        for bit in range(self.n):
            if bit not in tops:
                reps = np.concatenate([reps, reps | (1 << bit)])
        for g in self.z_type:  # includes -I, which keeps no representative
            reps = reps[_phase_exponents(g, reps) % 4 == 0]
        return reps

    def fixing(self, more: Iterable[PauliString]) -> "_Orbits":
        """These orbits with the Hermitian strings ``more``, which commute
        with the constraints and with one another, also fixed to +1: each
        is reduced by the pivots and becomes a pivot or a pure-Z element."""
        pivot_of = {g.x.bit_length() - 1: g for g in self.pivots}
        z_type = list(self.z_type)
        for s in more:
            g = _index_order(s)
            while g.x and g.x.bit_length() - 1 in pivot_of:
                g = g * pivot_of[g.x.bit_length() - 1]
            if g.x:
                pivot_of[g.x.bit_length() - 1] = g
            else:
                z_type.append(g)
        pivots = [pivot_of[b] for b in sorted(pivot_of, reverse=True)]
        return _Orbits(self.n, pivots, z_type)


def _orbits(n_qubits: int, constraints: Sequence[PauliString]) -> Optional[_Orbits]:
    """The orbit structure, or None when the constraints visibly share no
    +1 eigenvector: a non-Hermitian constraint has no +1 eigenvalue, and
    two anticommuting ones share no +1 eigenvector."""
    if n_qubits > _MAX_INDEX_BITS:
        raise ResourceError(
            f"dense check indexes basis states of at most {_MAX_INDEX_BITS} "
            f"qubits, not {n_qubits}"
        )
    if not all(s.is_hermitian() for s in constraints):
        return None
    if not all(s.commutes(t) for i, s in enumerate(constraints)
               for t in constraints[:i]):
        return None
    return _Orbits(n_qubits, [], []).fixing(constraints)


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
    if orbits is None:
        return np.zeros((2**n_qubits, 0), dtype=complex)
    reps = orbits.representatives()
    elements = [PauliString.identity(n_qubits)]
    for p in orbits.pivots:
        elements += [e * p for e in elements]
    basis = np.zeros((2**n_qubits, len(reps)), dtype=complex)
    cols = np.arange(len(reps))
    scale = 1.0 / np.sqrt(len(elements))
    for e in elements:
        basis[reps ^ e.x, cols] = scale * _IPOW[_phase_exponents(e, reps) % 4]
    return basis


def _reduce(q: PauliString, pivots: Sequence[PauliString]) -> PauliString:
    """``q`` times each pivot element whose top bit its X part holds,
    highest first, with exact phases: no pivot bit is left in its X part.
    For ``q`` commuting with the pivots, which act as +1 on the codespace,
    this is the same operator there."""
    for g in pivots:
        if q.x >> (g.x.bit_length() - 1) & 1:
            q = q * g
    return q


def _block_entries(
    terms: Iterable[Tuple[PauliString, complex]], orbits: Optional[_Orbits]
) -> Entries:
    """Entries of B^dag S B for the sum S of the (string, coefficient)
    ``terms``, B = ``joint_plus_one_basis(n, constraints)`` and ``orbits =
    _orbits(n, constraints)``, built without B or the 2^n x 2^n matrix of S.

    A term that commutes with every constraint is first reduced by the
    pivots (``_reduce``).  The reduced term q maps the vector of orbit r to
    i^phase (-1)^{|r & q.z|} times the vector of orbit r ^ q.x, which is
    already a representative since neither holds a pivot bit.  Terms with
    one reduced X part share their rows, so their value rows, one (terms x
    d) array, are summed per X part.  A term that anticommutes with a
    constraint has a zero block."""
    empty = np.zeros(0, dtype=np.int64)
    if orbits is None:
        return 0, empty, empty, np.zeros(0, dtype=complex)
    terms = [(_index_order(p), c) for p, c in terms]
    tx = np.array([q.x for q, _ in terms], dtype=np.int64)
    tz = np.array([q.z for q, _ in terms], dtype=np.int64)
    cons = orbits.pivots + orbits.z_type
    cx = np.array([t.x for t in cons], dtype=np.int64)
    cz = np.array([t.z for t in cons], dtype=np.int64)
    anti = np.bitwise_count(tx[:, None] & cz) + np.bitwise_count(tz[:, None] & cx)
    keep = np.flatnonzero(~(anti & 1).any(axis=1))
    _check_budget(orbits.count(), len(keep), "orbits")
    reps = orbits.representatives()
    reduced = [(_reduce(terms[t][0], orbits.pivots), terms[t][1]) for t in keep]
    x = np.array([q.x for q, _ in reduced], dtype=np.int64)
    z = np.array([q.z for q, _ in reduced], dtype=np.int64)
    coeff = np.array([c * _IPOW[q.phase] for q, c in reduced], dtype=complex)
    vals = np.where(_parity(reps & z[:, None]), -coeff[:, None], coeff[:, None])
    return _sum_by_key(x, vals, lambda x: np.searchsorted(reps, reps ^ x[:, None]))


def codespace_block(s: PauliSum, constraints: Sequence[PauliString]) -> np.ndarray:
    """B^dag S B for B = ``joint_plus_one_basis(s.n, constraints)``: the
    scatter of the block entries (see ``_block_entries``)."""
    return _scatter(_block_entries(s.terms(), _orbits(s.n, constraints)))


# ----------------------------------------------------------------------
# components of an entry list


def _component_labels(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Component number of each of ``dim`` states under the links
    rows[i] -- cols[i], numbered 0, 1, ... in order of their least state.

    Label propagation with pointer jumping: every label points at a state
    of its own component, no higher than itself.  Each round hooks the
    root of each link's larger label onto the smaller label, then jumps
    every pointer to its root; it stops when no link joins two roots."""
    label = np.arange(dim)
    while True:
        lr, lc = label[rows], label[cols]
        if np.array_equal(lr, lc):
            return np.unique(label, return_inverse=True)[1]
        low = np.minimum(lr, lc)
        np.minimum.at(label, lr, low)
        np.minimum.at(label, lc, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _eigvalsh_by_components(entries: Entries) -> np.ndarray:
    """Sorted eigenvalues of the Hermitian matrix with these entries, one
    dense ``eigvalsh`` per connected component of its nonzero pattern: a
    symmetric permutation makes the matrix block diagonal over them.
    Exact zeros are dropped first, so that a cancelled entry links
    nothing.  A component whose imaginary part is exactly zero is
    diagonalized in real arithmetic."""
    dim, rows, cols, vals = entries
    nonzero = vals != 0
    rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    comp = _component_labels(dim, rows, cols)
    sizes = np.bincount(comp)
    if dim and sizes.max() > MAX_COMPONENT:
        raise ResourceError(
            f"dense check needs a {sizes.max()}-dimensional component, "
            f"above the cap of {MAX_COMPONENT}"
        )
    # position of each state within its component, and the entries
    # grouped by component
    order = np.argsort(comp, kind="stable")
    local = np.empty(dim, dtype=np.int64)
    local[order] = np.arange(dim) - (np.cumsum(sizes) - sizes)[comp[order]]
    entry_comp = comp[rows]
    by = np.argsort(entry_comp, kind="stable")
    counts = np.bincount(entry_comp, minlength=len(sizes))
    ends = np.cumsum(counts)
    rows, cols, vals = local[rows[by]], local[cols[by]], vals[by]
    evals = [np.zeros(0)]
    for size, a, b in zip(sizes, ends - counts, ends):
        m = np.zeros((size, size), dtype=complex)
        m[rows[a:b], cols[a:b]] = vals[a:b]
        evals.append(np.linalg.eigvalsh(m if m.imag.any() else m.real))
    return np.sort(np.concatenate(evals))


# ----------------------------------------------------------------------
# the commutant gauge


def _symplectic_row(v: int, n: int) -> int:
    """The row r with |w & r| = <w, v> (mod 2), the symplectic form, for
    every ``x | z << n`` vector w: ``v`` with its X and Z halves swapped.
    So w commutes with v exactly when |w & r| is even."""
    return v >> n | (v & ((1 << n) - 1)) << n


def _gauge_pairs(rows: Sequence[int], n: int) -> List[Tuple[int, int]]:
    """Symplectic pairs (G_i, U_i), as ``x | z << n`` vectors, that span
    the commutant of the operators with symplectic rows ``rows`` up to its
    center: every G_i and U_i commutes with every operator, G_i
    anticommutes with U_j exactly when i = j, and the G_i commute with one
    another, as do the U_i.

    The commutant is the GF(2) null space of the rows: from their reduced
    echelon form it has one basis vector per free column.  Symplectic
    Gram-Schmidt then takes a vector G, pairs it with a remaining U that it
    anticommutes with, and clears both from the rest (w gains G when it
    anticommutes with U, and U when with G); a vector that anticommutes
    with none of the rest is central and pairs with nothing.  The number
    of pairs is half the rank of the symplectic form on the commutant, so
    it does not depend on the basis."""
    pivots = gf2_pivots(rows)
    leads = {row.bit_length() - 1: gf2_reduce(row, pivots[i + 1:])[0]
             for i, (row, _) in enumerate(pivots)}
    rest = [sum((1 << lead for lead, row in leads.items() if row >> free & 1),
                1 << free)
            for free in range(2 * n) if free not in leads]
    pairs = []
    while rest:
        g = rest.pop()
        g_row = _symplectic_row(g, n)
        u = next((w for w in rest if (w & g_row).bit_count() & 1), None)
        if u is None:
            continue
        rest.remove(u)
        u_row = _symplectic_row(u, n)
        rest = [w ^ (g if (w & u_row).bit_count() & 1 else 0)
                ^ (u if (w & g_row).bit_count() & 1 else 0) for w in rest]
        pairs.append((g, u))
    return pairs


def _gauge_violations(
    pairs: Sequence[Tuple[int, int]], rows: Sequence[int], n: int
) -> List[str]:
    """What keeps ``pairs`` from splitting the codespace into 2^k
    isospectral sectors, checked exactly: an element that anticommutes
    with an operator of ``rows``, two G's that anticommute, or a G_i that
    anticommutes with U_j for i != j or commutes with U_i."""
    out = []
    for i, (g, u) in enumerate(pairs):
        for name, v in (("G", g), ("U", u)):
            if any((v & r).bit_count() & 1 for r in rows):
                out.append(f"gauge: {name}{i} anticommutes with a term or constraint")
        g_row = _symplectic_row(g, n)
        for j, (h, w) in enumerate(pairs):
            if (h & g_row).bit_count() & 1 or ((w & g_row).bit_count() & 1) != (i == j):
                out.append(f"gauge: G{i} and pair {j} are not symplectic")
    return out


def _hermitian_string(v: int, n: int) -> PauliString:
    """X^x Z^z times i^|x & z| for the ``x | z << n`` vector ``v``: the
    Hermitian string, with eigenvalues +1 and -1."""
    x, z = v & ((1 << n) - 1), v >> n
    return PauliString._raw(n, x, z, (x & z).bit_count())


# ----------------------------------------------------------------------
# the check itself


def _check_hermitian(monomials: Sequence[MajoranaMonomial]) -> None:
    """Refuse a non-Hermitian operator, which ``eigvalsh`` would answer on
    whichever triangle of each side it reads.  The adjoint of c g_I with
    |I| = k is (-1)^{k(k-1)/2} conj(c) g_I, so each monomial must equal
    that within ``TOL``."""
    for m in monomials:
        k, c = len(m.indices), complex(m.coefficient)
        if abs(c - (-1) ** (k * (k - 1) // 2) * c.conjugate()) > TOL:
            word = " ".join(f"g{i + 1}" for i in m.indices) or "1"
            raise ParseError(
                f"Hamiltonian is not Hermitian: Majorana monomial ({c:.6g}) {word} "
                "(1-based, as in .fham files) is not its own adjoint"
            )


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
    #: k, the symplectic pairs of the commutant: the block was diagonalized
    #: on one of its 2^k isospectral gauge sectors.
    gauge_pairs: int = 0


def dense_oracle_check(f: FermionOperator, enc: Encoding) -> OracleReport:
    """Compare the compiled Hamiltonian, restricted to the codespace,
    against the exact fermionic spectrum in the matching sector.

    The codespace is the joint +1 eigenspace of the cycle stabilizers and
    of the vertex operators of virtual modes.  With no odd-degree
    physical vertex the codespace hosts the even-parity sector; unpaired
    Majoranas on odd-degree physical vertices open up the odd sector as
    well, and each surplus pair of unpaired Majoranas doubles every level,
    so the expected spectrum is the appropriate sector multiset repeated
    ``multiplicity`` = codespace_dim / sector_dim times.  An empty
    codespace is reported as a failed check.  The encoding's operator
    algebra is validated along the way.

    Only one copy is built.  The commutant of the compiled terms and the
    constraints splits into k symplectic pairs (G_i, U_i)
    (``_gauge_pairs``), checked exactly (``_gauge_violations``; a
    violation fails the report).  U_i flips G_i alone and commutes with
    the Hamiltonian, so the 2^k joint sectors of the G's are isospectral.
    The sector where every G_i is +1 is built as entry arrays orbit by
    orbit, the reference in the chain representation the same way, and
    each is diagonalized one connected component at a time.  The check is
    unchanged: the sector spectrum repeated 2^k times, which is the whole
    block's spectrum by construction, is compared with the reference
    repeated ``multiplicity`` times, on the full codespace dimension
    (sector dim x 2^k).  2^k may exceed ``multiplicity``: logical Pauli
    symmetries of the Hamiltonian are gauge pairs too.  Memory is O(kept
    terms x d) transient values plus O(distinct X parts x d) entries, for
    d the sector dimension, and O(m^2) per m-dimensional component.

    ``ParseError`` is raised before the algebra check and the compile
    when a Majorana monomial of ``f`` differs from its adjoint by more
    than ``TOL``: a non-Hermitian operator has no spectrum to compare.
    ``ResourceError`` is raised before that when the register is wider
    than 62 qubits, the int64 basis-state index; before the entries are
    allocated when commuting terms x sector orbits or kept terms x sector
    states exceed ``ENTRY_BUDGET``; and when a component is larger than
    ``MAX_COMPONENT``.
    """
    n = enc.total_qubits
    constraints = list(enc.stabilizers) + enc.virtual_parity_ops()
    orbits = _orbits(n, constraints)
    monomials = hamiltonian_monomials(f, enc)
    _check_hermitian(monomials)
    messages: List[str] = []
    algebra = verify_encoding_algebra(enc)
    if not algebra.ok:
        messages.extend("algebra: " + v for v in algebra.violations)

    terms = list(transform_monomials(monomials, enc).terms())
    pairs: List[Tuple[int, int]] = []
    broken: List[str] = []
    if orbits is not None:
        rows = [p.z | p.x << n for p in [q for q, _ in terms] + constraints]
        pairs = _gauge_pairs(rows, n)
        broken = _gauge_violations(pairs, rows, n)
        if broken:  # fall back to the whole codespace; the report fails
            messages.extend(broken)
            pairs = []
        orbits = orbits.fixing(_hermitian_string(g, n) for g, _ in pairs)
    k = len(pairs)
    block = _block_entries(terms, orbits)
    code_dim = block[0] << k

    odd_physical = [
        v for v in enc.graph.physical_ids() if enc.graph.degree(v) % 2 == 1
    ]
    sector = "full" if odd_physical else "even"
    spec_ref = _eigvalsh_by_components(_reference_entries(f, sector == "even"))

    mult, rem = divmod(code_dim, len(spec_ref))
    if rem or mult < 1:
        messages.append(
            f"codespace dim {code_dim} is not a multiple of the {sector}-sector dim {len(spec_ref)}"
        )
        return OracleReport(
            False, n, code_dim, sector, 0, float("inf"), algebra.ok, messages, k
        )
    # repeats of sorted spectra are sorted
    spec_enc = np.repeat(_eigvalsh_by_components(block), 1 << k)
    diff = float(np.max(np.abs(np.repeat(spec_ref, mult) - spec_enc)))
    if diff > TOL:
        messages.append(f"spectrum mismatch: max deviation {diff:.3e} > {TOL:.1e}")
    ok = algebra.ok and diff <= TOL and not broken
    return OracleReport(ok, n, code_dim, sector, mult, diff, algebra.ok, messages, k)
