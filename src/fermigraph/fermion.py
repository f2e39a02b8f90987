"""Second-quantized operators and their Majorana / edge-vertex forms.

Modes are 0-based.  Mode m splits into Majorana indices 2m (the "real"
half, gamma-odd in 1-based texts) and 2m+1 (the "imaginary" half):

    a_m      = (g_{2m} + i g_{2m+1}) / 2
    a_m^dag  = (g_{2m} - i g_{2m+1}) / 2
    {g_j, g_k} = 2 delta_jk

Quadratic building blocks:

    A(p,q) = -i g_{2p} g_{2q}     coupling generator between modes p < q
    B(p)   = -i g_{2p} g_{2p+1}   parity of mode p, equal to 1 - 2 n_p

Every parity-preserving operator is a polynomial in these.  The four
quadratic substitution identities, derived from the anticommutation
relations and pinned by a dense oracle in the tests, are

    g_{2p}   g_{2q}    =  i A(p,q)
    g_{2p}   g_{2p+1}  =  i B(p)
    g_{2p}   g_{2q+1}  = -A(p,q) B(q)
    g_{2p+1} g_{2q}    = -A(p,q) B(p)     (= +B(p) A(p,q))
    g_{2p+1} g_{2q+1}  = -i A(p,q) B(p) B(q)

with p < q throughout and edge factors stored before vertex factors.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass
from numbers import Number
from operator import ge
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DimensionError, ParityError, ParseError
from .geometries import gen_lattice
from .graph import SystemGraph, _integer
from .pauli import ZERO_THRESHOLD, set_bits

if TYPE_CHECKING:
    import numpy as np

Factor = Tuple[int, bool]  # (mode, dagger)
Word = Tuple[complex, Tuple[Factor, ...]]  # coefficient * product of factors


def _coefficient(c, what: str = "coefficient") -> complex:
    """``c`` as a complex if it is a finite number: an int, float or
    complex, numpy scalars included, never a bool, a str or None, which
    raise ParseError, as a non-finite value does."""
    if type(c) is not complex:
        if isinstance(c, bool) or not isinstance(c, Number):
            raise ParseError(f"{what} must be an int, float or complex, got {c!r}")
        c = complex(c)
    if not cmath.isfinite(c):
        raise ParseError(f"non-finite {what} {c}")
    return c


def _is_numpy_bool(value) -> bool:
    """True for a ``numpy.bool_``; a program that never loaded numpy holds
    none, so numpy is not imported to ask."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.bool_)


@dataclass(frozen=True)
class FermionOperator:
    """Sum of products of creation/annihilation operators."""

    n_modes: int
    terms: Tuple[Word, ...]

    def __post_init__(self):
        n = _integer(self.n_modes, "n_modes must be an integer")
        if n < 0:
            raise ParseError(f"n_modes must be non-negative, got {n}")
        object.__setattr__(self, "n_modes", n)
        for c, factors in self.terms:
            _coefficient(c)
            for mode, dagger in factors:
                if not 0 <= _integer(mode, "modes must be integers") < n:
                    raise DimensionError(
                        f"mode {mode} out of range for n_modes={self.n_modes}"
                    )
                if type(dagger) is not bool and not _is_numpy_bool(dagger):
                    raise ParseError(
                        f"dagger flag must be a bool, got {dagger!r} in factor {(mode, dagger)!r}"
                    )

    @classmethod
    def from_terms(
        cls, n_modes: int, terms: Iterable[Tuple[complex, Sequence[Factor]]]
    ) -> "FermionOperator":
        return cls(n_modes, tuple((_coefficient(c), tuple(f)) for c, f in terms))

    def is_parity_preserving(self) -> bool:
        return all(len(f) % 2 == 0 for _, f in self.terms)

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if other.n_modes != self.n_modes:
            raise DimensionError("mode count mismatch")
        return FermionOperator(self.n_modes, self.terms + other.terms)


@dataclass(frozen=True, slots=True)
class MajoranaMonomial:
    """coefficient * g_{i1} g_{i2} ... with strictly increasing
    non-negative indices."""

    coefficient: complex
    indices: Tuple[int, ...]

    def __post_init__(self):
        _coefficient(self.coefficient)
        indices = [_integer(i, "Majorana indices must be integers") for i in self.indices]
        if indices and indices[0] < 0:
            raise ParseError(f"Majorana indices must be non-negative, got {indices[0]}")
        if any(map(ge, indices, indices[1:])):
            raise ParseError("Majorana indices must be strictly increasing")

    @classmethod
    def _raw(cls, coefficient: complex, indices: Tuple[int, ...]) -> "MajoranaMonomial":
        """Unchecked constructor for indices increasing by construction, as
        ``syk2_monomials`` and ``to_majorana_normal_form`` make them.  It
        sets the fields through the slot descriptors' ``__set__``, past the
        frozen ``__setattr__``."""
        m = object.__new__(cls)
        _set_coefficient(m, coefficient)
        _set_indices(m, indices)
        return m


_set_coefficient = MajoranaMonomial.coefficient.__set__
_set_indices = MajoranaMonomial.indices.__set__


@dataclass(frozen=True)
class EVTerm:
    """coefficient * (edge factors in order) * (vertex factors).

    Edge factors are (p, q) mode pairs with p < q; vertex factors are a
    set of modes (their operators commute and square to one)."""

    coefficient: complex
    edge_factors: Tuple[Tuple[int, int], ...]
    vertex_factors: frozenset

    def __post_init__(self):
        for p, q in self.edge_factors:
            if p == q:
                raise ParseError("edge factor endpoints must differ")


# ----------------------------------------------------------------------
# Majorana normal form


def to_majorana_normal_form(f: FermionOperator) -> List[MajoranaMonomial]:
    """Expand into Majorana monomials with strictly increasing indices.

    Each word is kept ordered, as a bit mask of its indices: appending g_j
    moves it past the set indices above j (g_a g_b = -g_b g_a for a != b)
    and then cancels or sets bit j (g_j g_j = 1).  Like monomials are
    combined; coefficients of magnitude at most ``ZERO_THRESHOLD`` are
    dropped, and one that overflows to a non-finite value is a ParseError.
    The result is sorted by (length, indices) for determinism.
    """
    acc: Dict[int, complex] = {}
    for coeff, factors in f.terms:
        words: List[Tuple[complex, int, int]] = [(coeff, 0, 1)]  # (c, mask, sign)
        for mode, dagger in factors:
            nxt: List[Tuple[complex, int, int]] = []
            half = -0.5j if dagger else 0.5j
            j = 2 * mode
            for c, m, sign in words:
                s0 = -sign if (m >> j + 1).bit_count() & 1 else sign
                s1 = -sign if (m >> j + 2).bit_count() & 1 else sign
                nxt.append((c * 0.5, m ^ 1 << j, s0))
                nxt.append((c * half, m ^ 2 << j, s1))
            words = nxt
        for c, m, sign in words:
            acc[m] = acc.get(m, 0.0) + sign * c
    out = []
    for m, c in acc.items():
        if not cmath.isfinite(c):
            word = " ".join(f"g{i + 1}" for i in set_bits(m)) or "1"
            raise ParseError(f"Majorana monomial {word} (1-based) sums to the non-finite {c}")
        if abs(c) > ZERO_THRESHOLD:
            out.append(MajoranaMonomial._raw(c, tuple(set_bits(m))))
    out.sort(key=lambda m: (len(m.indices), m.indices))
    return out


# ----------------------------------------------------------------------
# edge/vertex decomposition


def pair_substitution(
    i1: int, i2: int
) -> Tuple[complex, Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """The substitution identity for g_{i1} g_{i2}, i1 < i2: its
    coefficient factor, its edge factors (none or one) and its vertex
    factors in ascending order.  ``monomial_to_ev`` and
    ``interaction_graph_from_hamiltonian`` read it; the compile
    (``transform._Realizer.term``) reads the same identities off the
    index bits."""
    p, q = i1 // 2, i2 // 2
    if p == q:
        return 1j, (), (p,)
    if i1 % 2 == 0:
        return (1j, ((p, q),), ()) if i2 % 2 == 0 else (-1, ((p, q),), (q,))
    return (-1, ((p, q),), (p,)) if i2 % 2 == 0 else (-1j, ((p, q),), (p, q))


def monomial_to_ev(m: MajoranaMonomial) -> EVTerm:
    """Decompose an even monomial by pairing adjacent sorted indices.

    Pair terms are multiplied left to right, edge factors ahead of vertex
    factors.  Moving an incoming edge factor past the accumulated vertex
    factors costs no sign: a pair leaves a parity only on a mode both of
    whose Majorana indices are at most its own last one, so no later pair
    of the strictly increasing indices couples that mode.
    """
    if len(m.indices) % 2:
        raise ParityError("cannot decompose an odd Majorana monomial")
    coeff = m.coefficient
    edges: List[Tuple[int, int]] = []
    verts: frozenset = frozenset()
    for a, b in zip(m.indices[::2], m.indices[1::2]):
        factor, pair_edges, pair_verts = pair_substitution(a, b)
        coeff *= factor
        edges.extend(pair_edges)
        verts = verts ^ frozenset(pair_verts)
    return EVTerm(coeff, tuple(edges), verts)


def interaction_graph_from_hamiltonian(f: FermionOperator) -> SystemGraph:
    """One vertex per mode; an edge wherever the substitution identity of
    some adjacent index pair of a term needs a coupling generator."""
    if not f.is_parity_preserving():
        raise ParityError("Hamiltonian contains odd-parity terms")
    edges = set()
    for mono in to_majorana_normal_form(f):
        for a, b in zip(mono.indices[::2], mono.indices[1::2]):
            edges.update(pair_substitution(a, b)[1])
    return SystemGraph.from_edges(sorted(edges), n_vertices=f.n_modes)


# ----------------------------------------------------------------------
# model builders


def check_seed(seed) -> int:
    """``seed`` as a plain int if it is a non-negative integer, else ParseError."""
    rule = "seed must be a non-negative integer"
    seed = _integer(seed, rule)
    if seed < 0:
        raise ParseError(f"{rule}, got {seed}")
    return seed


def syk2_couplings(n_modes: int, seed: int) -> np.ndarray:
    """Gaussian couplings J[j,k] (j < k) over the 2N Majoranas, with
    variance 1/(2N); the lower triangle is zero."""
    import numpy as np

    n_modes = _integer(n_modes, "n_modes must be an integer")
    if n_modes < 1:
        raise ParseError(f"need at least 1 mode, got {n_modes}")
    rng = np.random.default_rng(check_seed(seed))
    dim = 2 * n_modes
    j = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, dim))
    return np.triu(j, k=1)


def syk2_monomials(
    n_modes: int,
    couplings: Optional[np.ndarray] = None,
    seed: Optional[int] = None,
) -> List[MajoranaMonomial]:
    """The quadratic Majorana Hamiltonian -i sum_{j<k} J_jk g_j g_k as a
    monomial list; couplings that are not numbers (a bool, str or object
    dtype) and a non-finite or complex (non-Hermitian) coupling are refused."""
    import numpy as np

    if couplings is None:
        if seed is None:
            raise ParseError("give couplings or a seed")
        couplings = syk2_couplings(n_modes, seed)
    couplings = np.asarray(couplings)
    if couplings.dtype.kind not in "iufc":
        raise ParseError(f"couplings must be numbers, got dtype {couplings.dtype}")
    dim = 2 * n_modes
    if couplings.shape != (dim, dim):
        raise DimensionError(
            f"couplings must be {dim}x{dim}, got {couplings.shape}"
        )
    rows = couplings.tolist()
    upper = np.triu(couplings, k=1)
    for what, bad in (("non-finite", ~np.isfinite(upper)), ("complex", upper.imag != 0)):
        if bad.any():
            j, k = np.argwhere(bad)[0].tolist()  # the first in row order
            raise ParseError(f"{what} coupling J[{j}, {k}] = {rows[j][k]}")
    raw = MajoranaMonomial._raw
    return [
        raw(-1j * c, (j, k))
        for j, row in enumerate(rows)
        for k, c in enumerate(row[j + 1:], j + 1)
        if c != 0.0
    ]


def majorana_to_ladder(words: List[Word], index: int) -> List[Word]:
    """Append Majorana g_index (0-based) to each word as ladder factors,
    via g_{2m} = a_m + a_m^dag and g_{2m+1} = i(a_m^dag - a_m)."""
    mode = index // 2
    if index % 2:
        return [
            (c * z, fs + ((mode, dag),))
            for c, fs in words
            for z, dag in ((1j, True), (-1j, False))
        ]
    return [(c, fs + ((mode, dag),)) for c, fs in words for dag in (False, True)]


def build_syk2(
    n_modes: int,
    couplings: Optional[np.ndarray] = None,
    seed: Optional[int] = None,
) -> FermionOperator:
    """Same Hamiltonian as ``syk2_monomials`` but as a FermionOperator,
    expanded by ``majorana_to_ladder``."""
    terms: List[Word] = []
    for m in syk2_monomials(n_modes, couplings, seed):
        words: List[Word] = [(m.coefficient, ())]
        for g in m.indices:
            words = majorana_to_ladder(words, g)
        terms.extend(words)
    return FermionOperator.from_terms(n_modes, terms)


#: The lattice each model kind lives on.
_MODEL_LATTICES = {"chain": "linear", "square_nn": "square", "square_nn_diag": "square_diag"}


def build_lattice_model(
    kind: str,
    dims,
    t: float = 1.0,
    t_diag: float = 0.0,
    u: float = 0.0,
    bc: str = "open",
) -> FermionOperator:
    """Hopping plus onsite-potential Hamiltonians on small lattices.

    Kinds: ``chain``, ``square_nn``, ``square_nn_diag`` (adds t_diag
    hopping across both square diagonals), laid out by ``gen_lattice`` as
    ``linear``, ``square`` and ``square_diag``: mode m is vertex m of that
    graph, and ``dims`` and ``bc`` follow its rules.  Each edge (j, k) is a
    bond contributing t (a_j^dag a_k + a_k^dag a_j), t_diag where j and k
    differ in both row and column; each site contributes u a_j^dag a_j.
    """
    if kind not in _MODEL_LATTICES:
        raise ParseError(f"unknown lattice model {kind!r}")
    t, t_diag, u = _coefficient(t, "t"), _coefficient(t_diag, "t_diag"), _coefficient(u, "u")
    g = gen_lattice(_MODEL_LATTICES[kind], dims, bc)
    cols = g.meta["params"]["dims"][-1]
    terms: List[Word] = []
    for j, k in g.edges:
        amp = t_diag if j // cols != k // cols and j % cols != k % cols else t
        if amp != 0.0:
            terms.append((amp, ((j, True), (k, False))))
            terms.append((amp, ((k, True), (j, False))))
    n = len(g.vertices)
    if u != 0.0:
        for j in range(n):
            terms.append((u, ((j, True), (j, False))))
    return FermionOperator.from_terms(n, terms)
