"""Compile fermionic operators into Pauli sums over an encoding.

Each Hamiltonian term runs through the pipeline

    second-quantized -> Majorana normal form -> edge/vertex term -> Paulis

with every edge factor realized either by the stored edge operator (when
the two modes share a system-graph edge) or by a canonical routed string
(``Router.operator``), and every vertex factor by the encoded vertex
operator.  A quadratic monomial (every SYK2 and hopping term) skips the
edge/vertex term and goes straight to its substitution identity.  Each
term's string is multiplied out on raw (x, z, phase) ints and added
through ``PauliSumBuilder._add_raw``, the unchecked step of
``PauliSumBuilder.add``; no ``PauliString`` is built per term.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple, Union

from .encoding import Encoding, Router
from .errors import ParityError, ParseError, RoutingError
from .fermion import (
    FermionOperator,
    MajoranaMonomial,
    monomial_to_ev,
    pair_substitution,
    to_majorana_normal_form,
)
from .pauli import PauliString, PauliSum, PauliSumBuilder

#: route="auto" uses min-weight routing; an explicit dict maps (j, k) mode
#: pairs to vertex paths.
Routing = Union[str, Dict[Tuple[int, int], Sequence[int]]]


class _Realizer:
    """Caches the Pauli image of each coupling generator and parity; one
    ``Router`` serves every routed coupling of the compile, building each
    source's strings from shared prefix products."""

    def __init__(self, enc: Encoding, route: Routing = "auto"):
        self.enc = enc
        self.route = route
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
            if enc.graph.edges_between(vp, vq):
                op = enc.edge_operator(vp, vq)
            elif isinstance(self.route, dict):
                if key not in self.route:
                    raise RoutingError(f"no explicit path given for modes {key}")
                path = list(self.route[key])
                if path and path[0] == vq and path[-1] == vp:
                    # reversed orientation; the coupling is antisymmetric
                    op = -enc.path_edge_operator(vq, vp, path=path)
                else:
                    op = enc.path_edge_operator(vp, vq, path=path)
            elif self.route == "auto":
                op = self.router.operator(vp, vq)
            else:
                raise ParseError(f"unknown routing policy {self.route!r}")
            self._coupling[key] = op
        return self._coupling[key]

    def parity(self, p: int) -> PauliString:
        if p not in self._parity:
            enc = self.enc
            v = self.vertex(p)
            op = enc.vertex_operator(v)
            if op.weight() == 0:
                raise RoutingError(
                    f"mode {p} sits on a degree-0 vertex and has no parity operator"
                )
            self._parity[p] = op
        return self._parity[p]

    def term(self, mono: MajoranaMonomial) -> Tuple[complex, int, int, int]:
        """(coefficient, x, z, phase) of the string realizing ``mono``: its
        couplings, then its parities, multiplied on raw ints in that order.
        A quadratic monomial goes straight to its substitution identity,
        with no ``EVTerm``."""
        if len(mono.indices) == 2:
            factor, edges, verts = pair_substitution(*mono.indices)
            coeff = mono.coefficient * factor
        else:
            ev = monomial_to_ev(mono)
            coeff, edges = ev.coefficient, ev.edge_factors
            verts = sorted(ev.vertex_factors)
        couplings, parities = self._coupling, self._parity
        x = z = phase = 0
        # the fold is written out per factor kind, so no factor list is built;
        # a zero mask takes the factor's own int, where XOR would copy it
        for e in edges:
            op = couplings[e] if e in couplings else self.coupling(*e)
            phase += op.phase + 2 * (z & op.x).bit_count()
            x, z = x ^ op.x if x else op.x, z ^ op.z if z else op.z
        for v in verts:
            op = parities[v] if v in parities else self.parity(v)
            phase += op.phase + 2 * (z & op.x).bit_count()
            x, z = x ^ op.x if x else op.x, z ^ op.z if z else op.z
        return coeff, x, z, phase


def transform_monomials(
    monomials: Iterable[MajoranaMonomial],
    enc: Encoding,
    route: Routing = "auto",
) -> PauliSum:
    """Compile a list of Majorana monomials (must all be even)."""
    realizer = _Realizer(enc, route)
    builder = PauliSumBuilder(enc.total_qubits)
    add, term = builder._add_raw, realizer.term
    for mono in monomials:
        add(*term(mono))
    return builder.build()


def transform_hamiltonian(
    f: FermionOperator,
    enc: Encoding,
    route: Routing = "auto",
) -> PauliSum:
    """Compile a parity-preserving fermionic operator into a Pauli sum.

    Raises a parity error on odd terms and a routing error when a
    required coupling cannot be realized on the encoding's graph.
    """
    if not f.is_parity_preserving():
        raise ParityError("Hamiltonian contains odd-parity terms")
    if f.n_modes != enc.n_modes:
        raise ParseError(
            f"operator has {f.n_modes} modes but the encoding hosts {enc.n_modes}"
        )
    return transform_monomials(to_majorana_normal_form(f), enc, route)
