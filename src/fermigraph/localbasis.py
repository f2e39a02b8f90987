"""Local Majorana bases: anticommuting Pauli sets on a vertex's qubits.

A vertex of degree d owns n = ceil(d/2) qubits and carries 2n Pauli
operators that square to +1, pairwise anticommute, and generate the full
Pauli group on those qubits.  The first d operators are assigned to the
vertex's ports in order; when d is odd the final operator is the vertex's
unpaired Majorana.

Four constructions are provided.  The first three are one pair rule
(Seeley, Richard & Love, arXiv:1208.5986): mode m of the n qubits carries
the pair X_U X_m Z_P, X_U Y_m Z_R for its update set U, parity set P and
remainder set R, and only the sets differ.

``jw``        Jordan-Wigner: U empty, P = R = the qubits below m, so the
              chain pattern X1, Y1, Z1 X2, Z1 Y2, ...; weight grows
              linearly with the qubit index.
``jw_yx``     same strings with each (X, Y) pair swapped, so the first
              operator on each qubit is the Y-type one.  This is the
              variant that makes encoded chain vertex operators come out
              as +Z.
``fenwick``   the sets of a binary indexed tree (Bravyi-Kitaev); weight
              at most floor(log2 n) + 1.
``ternary``   root-to-leaf strings of a balanced ternary tree with weight
              at most ceil(log3(2n + 1)); the discarded (2n+1)-th string
              is the all-Z descent.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import ParseError
from .graph import _integer
from .pauli import PauliString


@dataclass(frozen=True)
class MajoranaBasis:
    degree: int
    n_qubits: int
    ops: Tuple[PauliString, ...]
    name: str = "custom"


@dataclass
class CheckReport:
    """What a check (``basis_verify``, ``verify_encoding_algebra``) found."""

    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_degree(d: int) -> int:
    if d < 1:
        raise ParseError(f"degree must be >= 1, got {d}")
    return (d + 1) // 2


def _pair_basis(
    d: int, name: str, masks: Callable[[int], List[Tuple[int, int, int]]], yx: bool = False
) -> MajoranaBasis:
    """Mode m maps to the pair X_U X_m Z_P, X_U Y_m Z_R of its (U, P, R)
    qubit masks from ``masks(n)``; ``yx`` swaps each pair."""
    n = _check_degree(d)
    ops = []
    for m, (u, p, r) in enumerate(masks(n)):
        pair = [PauliString(n, u | 1 << m, p, 0), PauliString(n, u | 1 << m, r | 1 << m, 1)]
        ops.extend(pair[::-1] if yx else pair)
    return MajoranaBasis(d, n, tuple(ops), name)


def _chain_sets(n: int) -> List[Tuple[int, int, int]]:
    """Jordan-Wigner's (U, P, R): no update set, every lower qubit in P and R."""
    return [(0, (1 << m) - 1, (1 << m) - 1) for m in range(n)]


def _bit_sets(n: int) -> List[Tuple[int, int, int]]:
    """(U, P, R) qubit masks per mode for a binary indexed tree over n
    positions: U the tree ancestors, P the prefix-parity set, R = P minus
    the mode's children.  1-based tree nodes are mapped to 0-based qubits.
    """
    out = []
    for m in range(n):
        node = m + 1
        update = 0
        j = node + (node & -node)
        while j <= n:
            update |= 1 << (j - 1)
            j += j & -j
        parity = 0
        j = m
        while j > 0:
            parity |= 1 << (j - 1)
            j -= j & -j
        children = 0
        low = node & -node
        step = 1
        while step < low:
            children |= 1 << (node - step - 1)
            step <<= 1
        out.append((update, parity, parity & ~children))
    return out


def basis_jw(d: int) -> MajoranaBasis:
    """Chain-pattern basis: op 2m-1 = Z...Z X_m, op 2m = Z...Z Y_m."""
    return _pair_basis(d, "jw", _chain_sets)


def basis_jw_yx(d: int) -> MajoranaBasis:
    """Chain pattern with Y before X in every pair (op 2m-1 = Z...Z Y_m)."""
    return _pair_basis(d, "jw_yx", _chain_sets, yx=True)


def basis_fenwick(d: int) -> MajoranaBasis:
    """Tree-structured strings with weight at most floor(log2 n) + 1."""
    return _pair_basis(d, "fenwick", _bit_sets)


# ----------------------------------------------------------------------
# ternary tree construction


def _ternary_strings(n: int) -> List[PauliString]:
    """All 2n+1 root-to-slot strings of the balanced ternary tree on n
    qubits (node i has children 3i+1, 3i+2, 3i+3), in depth-first order
    with branches visited X, Y, Z; a Y adds 1 to the phase."""
    out: List[PauliString] = []

    def visit(node: int, x: int, z: int, phase: int) -> None:
        bit = 1 << node
        for b, (xb, zb, yb) in enumerate(((bit, 0, 0), (bit, bit, 1), (0, bit, 0))):
            child = 3 * node + 1 + b
            if child < n:
                visit(child, x | xb, z | zb, phase + yb)
            else:
                out.append(PauliString(n, x | xb, z | zb, phase + yb))

    visit(0, 0, 0, 0)
    return out


def basis_ternary_tree(d: int) -> MajoranaBasis:
    """Balanced ternary-tree strings; weight at most ceil(log3(2n + 1)).

    Of the 2n+1 pairwise-anticommuting strings, the all-Z descent (the last
    in depth-first order) is discarded.
    """
    n = _check_degree(d)
    strings = _ternary_strings(n)
    return MajoranaBasis(d, n, tuple(strings[:-1]), "ternary")


def basis_from_labels(d: int, labels: Sequence[str]) -> MajoranaBasis:
    """Explicit per-vertex basis from textual labels; caller should verify."""
    n = _check_degree(d)
    if len(labels) != 2 * n:
        raise ParseError(f"need {2 * n} operators for degree {d}, got {len(labels)}")
    ops = tuple(PauliString.from_label(lbl, n) for lbl in labels)
    return MajoranaBasis(d, n, ops, "custom")


BASIS_BUILDERS: Dict[str, Callable[[int], MajoranaBasis]] = {
    "jw": basis_jw,
    "jw_yx": basis_jw_yx,
    "fenwick": basis_fenwick,
    "ternary": basis_ternary_tree,
}


def get_basis(name: str, d: int) -> MajoranaBasis:
    try:
        builder = BASIS_BUILDERS[name]
    except KeyError:
        raise ParseError(f"unknown basis {name!r}") from None
    return builder(_integer(d, "basis degree must be an integer"))


# ----------------------------------------------------------------------
# validation


def gf2_reduce(
    row: int, pivots: Sequence[Tuple[int, int]], mask: int = 0
) -> Tuple[int, int]:
    """Reduce a GF(2) row by ``pivots`` (highest leading bit first),
    tracking in ``mask`` which input rows were added."""
    for prow, pmask in pivots:
        if (row ^ prow) < row:
            row, mask = row ^ prow, mask ^ pmask
    return row, mask


def gf2_pivots(rows: Sequence[int]) -> List[Tuple[int, int]]:
    """Row-reduce GF(2) bit-vector rows to (row, mask) pivots with distinct
    leading bits, sorted high to low; bit i of a mask marks input row i.
    The number of pivots is the rank."""
    pivots: List[Tuple[int, int]] = []
    for i, row in enumerate(rows):
        row, mask = gf2_reduce(row, pivots, 1 << i)
        if row:  # a new leading bit: insert it in place, high to low
            insort(pivots, (row, mask), key=lambda pivot: -pivot[0])
    return pivots


def basis_verify(b: MajoranaBasis) -> CheckReport:
    """Check Hermiticity, squaring to +I, pairwise anticommutation, and
    full symplectic rank.  An empty report means the basis is valid."""
    report = CheckReport()
    n = b.n_qubits
    if len(b.ops) != 2 * n:
        report.violations.append(
            f"expected {2 * n} operators on {n} qubits, got {len(b.ops)}"
        )
    for i, op in enumerate(b.ops):
        if op.n != n:
            report.violations.append(f"op {i} acts on {op.n} qubits, expected {n}")
            return report
        if not op.is_hermitian():
            report.violations.append(f"op {i} is not Hermitian")
        sq = op * op
        if sq.phase != 0:
            report.violations.append(f"op {i} squares to -I")
    for i in range(len(b.ops)):
        for j in range(i + 1, len(b.ops)):
            if b.ops[i].commutes(b.ops[j]):
                report.violations.append(f"ops {i} and {j} commute")
    rows = [op.x | (op.z << n) for op in b.ops]
    rank = len(gf2_pivots(rows))
    if rank != 2 * n:
        report.violations.append(
            f"symplectic rank {rank} < {2 * n}: operators do not generate the Pauli group"
        )
    return report
