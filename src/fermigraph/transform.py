"""Compile fermionic operators into Pauli sums over an encoding.

Each Hamiltonian term runs through the pipeline

    second-quantized -> Majorana normal form -> pair images -> Paulis

An even monomial g_{i1} g_{i2} ... is read two indices at a time; an odd
monomial is a parity error.  A pair (a, b) is read off its index bits: it
acts on modes a >> 1 and b >> 1, its coefficient factor is ``_PAIR_FACTOR``
at its bit class, and its image is the coupling of the two modes, then the
parity of each mode whose index is odd, or one parity when the modes are
equal (``fermion``'s substitution identities).  The term's string is the
product of the pair images in order, the first image taken as it is and
the rest multiplied in on raw (x, z, phase) ints, and it is added through
``PauliSumBuilder._add_raw``, the unchecked step of ``PauliSumBuilder.add``.
A coupling is the stored edge operator when an edge joins its two modes.
Otherwise it is ``Router``'s min-weight routed string, or, given a path
map, the string along the map's vertex path; a path no coupling took is a
parse error.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .encoding import Encoding, Router
from .errors import ParityError, ParseError, RoutingError
from .fermion import FermionOperator, MajoranaMonomial, to_majorana_normal_form
from .pauli import PauliString, PauliSum, PauliSumBuilder

#: The coefficient factor of g_a g_b, a < b on modes p < q, at bit class
#: (a & 1) << 1 | b & 1; ``fermion``'s substitution identities.
_PAIR_FACTOR = (1j, -1, -1, -1j)


class _Realizer:
    """Folds each monomial's pair images into one raw string, caching the
    image of each coupling and parity.  One ``Router`` serves every routed
    coupling, building each source's strings from shared prefix products.
    Given a path map, ``paths`` holds its paths not yet applied, and
    ``coupling`` pops each one as it applies it."""

    def __init__(self, enc: Encoding, route: Optional[Mapping] = None):
        self.enc = enc
        self.paths = None if route is None else dict(route)
        self.router = Router(enc)
        self.physical = enc.graph.physical_ids()
        self._coupling: Dict[Tuple[int, int], PauliString] = {}
        self._parity: Dict[int, PauliString] = {}

    def vertex(self, mode: int) -> int:
        """Physical vertex carrying fermionic mode ``mode`` (physical
        vertices in ascending id order)."""
        if not 0 <= mode < len(self.physical):
            raise ParseError(
                f"mode {mode} out of range for {len(self.physical)} physical modes"
            )
        return self.physical[mode]

    def coupling(self, p: int, q: int) -> PauliString:
        key = (p, q)
        if key not in self._coupling:
            enc = self.enc
            vp, vq = self.vertex(p), self.vertex(q)
            cands = enc.graph.edges_between(vp, vq)
            if cands:  # the lowest of parallel edges, as ``edge_operator`` takes
                op = enc.directed_edge_operator(cands[0], vp)
            elif self.paths is None:
                op = self.router.operator(vp, vq)
            elif key not in self.paths:
                raise RoutingError(
                    f"no explicit path for 1-based mode pair ({p + 1}, {q + 1})")
            else:
                path = list(self.paths.pop(key))
                if path and path[0] == vq and path[-1] == vp:
                    # reversed orientation; the coupling is antisymmetric
                    op = -enc.path_edge_operator(vq, vp, path=path)
                else:
                    op = enc.path_edge_operator(vp, vq, path=path)
            self._coupling[key] = op
        return self._coupling[key]

    def parity(self, p: int) -> PauliString:
        if p not in self._parity:
            op = self.enc.vertex_operator(self.vertex(p))
            if op.weight() == 0:
                raise RoutingError(
                    f"mode {p} sits on a degree-0 vertex and has no parity operator"
                )
            self._parity[p] = op
        return self._parity[p]

    def term(self, mono: MajoranaMonomial) -> Tuple[complex, int, int, int]:
        """(coefficient, x, z, phase) of the string realizing ``mono``.  Each
        index pair (a, b) in order, on modes p = a >> 1 and q = b >> 1,
        gives its bit class's factor and the coupling of (p, q), then p's
        parity if a is odd and q's if b is odd; the parity alone when p == q.
        The first image is the running product; the rest multiply into it
        on raw ints."""
        idx = mono.indices
        if len(idx) % 2:
            raise ParityError(f"odd Majorana monomial with indices {idx}")
        couplings, parities = self._coupling, self._parity
        coeff, x, z, phase = mono.coefficient, 0, 0, 0
        for i in range(0, len(idx), 2):
            a, b = idx[i], idx[i + 1]
            p, q = a >> 1, b >> 1
            if p == q:  # g_{2p} g_{2p+1} = i B(p)
                coeff *= 1j
                op = parities.get(p) or self.parity(p)
            else:
                coeff *= _PAIR_FACTOR[(a & 1) << 1 | b & 1]
                op = couplings.get((p, q)) or self.coupling(p, q)
            if x or z:
                phase += op.phase + 2 * (z & op.x).bit_count()
                x, z = x ^ op.x, z ^ op.z
            else:  # the product so far is a phase: take the image's own ints
                x, z, phase = op.x, op.z, phase + op.phase
            if p != q:
                if a & 1:
                    op = parities.get(p) or self.parity(p)
                    phase += op.phase + 2 * (z & op.x).bit_count()
                    x, z = x ^ op.x, z ^ op.z
                if b & 1:
                    op = parities.get(q) or self.parity(q)
                    phase += op.phase + 2 * (z & op.x).bit_count()
                    x, z = x ^ op.x, z ^ op.z
        return coeff, x, z, phase


def transform_monomials(
    monomials: Iterable[MajoranaMonomial],
    enc: Encoding,
    route: Optional[Mapping[Tuple[int, int], Sequence[int]]] = None,
) -> PauliSum:
    """Compile a list of even Majorana monomials.  ``route`` maps (p, q)
    mode pairs, p < q, to vertex paths; None routes by min weight."""
    realizer = _Realizer(enc, route)
    builder = PauliSumBuilder(enc.total_qubits)
    add, term = builder._add_raw, realizer.term
    for mono in monomials:
        add(*term(mono))
    if realizer.paths:
        pairs = ", ".join(f"({p + 1}, {q + 1})" for p, q in sorted(realizer.paths))
        raise ParseError(f"explicit paths for 1-based mode pairs {pairs} never "
                         "applied: no term couples them through a routed string")
    return builder.build()


def hamiltonian_monomials(f: FermionOperator, enc: Encoding) -> List[MajoranaMonomial]:
    """The Majorana normal form of a fermionic operator that ``enc`` can
    compile: a parity error on odd terms, a parse error on a mode count
    other than the encoding's."""
    if not f.is_parity_preserving():
        raise ParityError("Hamiltonian contains odd-parity terms")
    if f.n_modes != enc.n_modes:
        raise ParseError(
            f"operator has {f.n_modes} modes but the encoding hosts {enc.n_modes}"
        )
    return to_majorana_normal_form(f)


def transform_hamiltonian(
    f: FermionOperator,
    enc: Encoding,
    route: Optional[Mapping[Tuple[int, int], Sequence[int]]] = None,
) -> PauliSum:
    """Compile a parity-preserving fermionic operator into a Pauli sum.

    Raises a parity error on odd terms, a routing error on a coupling the
    graph cannot realize and a parse error on a path no coupling took."""
    return transform_monomials(hamiltonian_monomials(f, enc), enc, route)
