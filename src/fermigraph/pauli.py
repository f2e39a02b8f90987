"""Phase-exact Pauli operator algebra in symplectic (x, z) form.

An n-qubit Pauli operator is stored as a pair of length-n bit vectors
(packed into Python integers) together with an integer phase exponent:

    P = i^phase * prod_q X_q^{x_q} Z_q^{z_q}

Bit q of ``x`` (``z``) is set when the operator acts with X (Z) on qubit q.
The single-qubit cases are

    (x_q, z_q) = (0,0) -> I,  (1,0) -> X,  (0,1) -> Z,  (1,1) -> XZ = -iY

so the standard Hermitian Y on qubit q is stored as x_q = z_q = 1 with a
phase factor of i.  The phase is tracked exactly as an integer mod 4; no
floating point enters the group algebra.  Multiplication follows from
Z^a X^b = (-1)^{ab} X^b Z^a applied qubit-wise:

    A * B = i^{pa+pb} (-1)^{|z_A & x_B|} X^{x_A^x_B} Z^{z_A^z_B}

A Pauli string is Hermitian exactly when phase = |x & z| (mod 2), where
|x & z| counts qubits carrying both an X and a Z factor.

Qubit indices are 0-based internally.  Textual labels ("X1 Z2 Y3") are
1-based and use the Hermitian letters I, X, Y, Z; the phase implied by Y
letters is folded in and out during parsing/printing so that a printed
coefficient multiplies the ordinary Hermitian Pauli product.

``PauliString`` and ``PauliSum`` are immutable values; all operations are
pure functions, so instances may be shared freely across workers.  Sums
are assembled with ``PauliSumBuilder``.

Strings made from outside input (``PauliString(...)``, ``identity``,
``from_label``) are checked: integer fields (``graph._integer``'s rule,
so a bool, float or str is a ParseError), ``n >= 0``, masks within n bits,
no qubit named twice in a label.  The algebra (``*``, ``with_phase``, ``-``,
``adjoint``, ``embed``), ``PauliSum.terms``, the encoding's table building
and its walk folds (``_walk_product``, ``Router.operator``) skip that check
through ``PauliString._raw``.  Their masks always fit: XORs or range-checked
shifts of checked masks, keys a builder took from checked strings, basis
masks shifted within the layout, or XORs of edge operator masks.  ``_raw``
sets the four fields with ``object.__setattr__``, as the dataclass's own
``__init__`` does, so no instance carries a dict object of its own.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import DimensionError, ParseError
from .graph import _integer

#: Coefficients with magnitude below this are dropped from sums.
ZERO_THRESHOLD = 1e-12

#: The letter of a qubit's (x, z) bits, at index x | z << 1.
_LETTERS = "IXZY"

_TOKEN_RE = re.compile(r"([IXYZixyz])(\d+)")
_TERM_RE = re.compile(r"^\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)\s*(.*)$")


def set_bits(v: int) -> List[int]:
    """Ascending positions of the set bits of ``v >= 0``."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


@dataclass(frozen=True)
class PauliString:
    """A single phase-tracked Pauli operator on ``n`` qubits."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        for name in ("n", "x", "z", "phase"):
            value = getattr(self, name)
            if type(value) is not int:
                rule = f"Pauli string {name} must be an integer"
                object.__setattr__(self, name, _integer(value, rule))
        if self.n < 0:
            raise DimensionError("negative qubit count")
        mask = (1 << self.n) - 1
        if (self.x & ~mask) or (self.z & ~mask):
            raise DimensionError("bit vector exceeds qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def _raw(cls, n: int, x: int, z: int, phase: int) -> "PauliString":
        """Unchecked constructor; see the module docstring."""
        p = object.__new__(cls)
        # not through ``p.__dict__``, which would give each instance a
        # full dict of its own
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "x", x)
        object.__setattr__(p, "z", z)
        object.__setattr__(p, "phase", phase & 3)
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, n: int) -> "PauliString":
        """Parse a 1-based textual label such as ``"X1 Z2 Y3"`` or ``"I"``."""
        return cls(n, *_parse_label(label, n))

    # ------------------------------------------------------------------
    # algebra

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise DimensionError(
                f"cannot multiply operators on {self.n} and {other.n} qubits"
            )
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliString._raw(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def commutes(self, other: "PauliString") -> bool:
        """True iff the symplectic inner product vanishes mod 2."""
        if self.n != other.n:
            raise DimensionError(
                f"cannot compare operators on {self.n} and {other.n} qubits"
            )
        return ((self.x & other.z) ^ (self.z & other.x)).bit_count() % 2 == 0

    def weight(self) -> int:
        """Number of qubits acted on nontrivially."""
        return (self.x | self.z).bit_count()

    def is_hermitian(self) -> bool:
        return self.phase % 2 == (self.x & self.z).bit_count() % 2

    def adjoint(self) -> "PauliString":
        return PauliString._raw(
            self.n, self.x, self.z, -self.phase + 2 * (self.x & self.z).bit_count()
        )

    def with_phase(self, k: int) -> "PauliString":
        """Multiply by the global phase i^k."""
        return PauliString._raw(self.n, self.x, self.z, self.phase + k)

    def __neg__(self) -> "PauliString":
        return PauliString._raw(self.n, self.x, self.z, self.phase + 2)

    # ------------------------------------------------------------------
    # structure helpers

    def support(self) -> List[int]:
        """Acted-on qubits in ascending order."""
        return set_bits(self.x | self.z)

    def embed(self, n_total: int, offset: int) -> "PauliString":
        """Place this operator into a larger register starting at ``offset``."""
        if offset < 0 or offset + self.n > n_total:
            raise DimensionError("embedding range out of bounds")
        x, z = self.x << offset, self.z << offset
        return PauliString._raw(n_total, x, z, self.phase)

    def key(self) -> Tuple[int, int]:
        """Canonical (x, z) key with the phase stripped."""
        return (self.x, self.z)

    # ------------------------------------------------------------------
    # text

    def label_coefficient(self) -> complex:
        """Coefficient c such that self == c * (Hermitian letter product).

        The letter product treats every (1,1) qubit as the standard Y, so
        c = i^(phase - |x & z|); it is +1 or -1 for Hermitian strings.
        """
        return _letter_coefficient(self.x, self.z, self.phase)

    def ops_label(self) -> str:
        """The 1-based letter part of the label, e.g. ``"X1 Z2"`` or ``"I"``."""
        return _format_label(self.x, self.z)

    def __str__(self) -> str:
        return format_term(self.label_coefficient(), self.ops_label())

    def __repr__(self) -> str:
        return f"PauliString({self})"


def _parse_label(label: str, n: int) -> Tuple[int, int, int]:
    """(x, z, y) of a 1-based label such as ``"x1 Z2 Y3"`` or ``"I"``: its
    masks and its number of Y's.  A bad token, an index below 1 or a qubit
    named twice (``I<k>`` names qubit k) is a ParseError at its token; a
    qubit beyond n is a DimensionError after the last token."""
    label = label.strip()
    if label == "I":
        return 0, 0, 0
    x = z = y = 0
    seen: Dict[int, None] = {}  # 1-based indices in token order
    for token in label.split():
        m = _TOKEN_RE.fullmatch(token)
        if not m:
            raise ParseError(f"bad Pauli token {token!r}")
        idx = _parse_int(m.group(2))
        if idx < 1:
            raise ParseError(f"qubit index {idx} must be 1-based")
        if idx in seen:
            raise ParseError(f"qubit {idx} named twice in {label!r}")
        seen[idx] = None
        if idx <= n:
            b = _LETTERS.index(m.group(1).upper())
            x, z, y = x | (b & 1) << idx - 1, z | (b >> 1) << idx - 1, y + (b == 3)
    beyond = [idx for idx in seen if idx > n]
    if beyond:
        raise DimensionError(f"qubit {beyond[0] - 1} out of range for n={n}")
    return x, z, y


def _format_label(x: int, z: int) -> str:
    """The 1-based letter label of the masks (x, z); ``"I"`` when both are 0."""
    parts = [f"{_LETTERS[(x >> q & 1) | (z >> q & 1) << 1]}{q + 1}" for q in set_bits(x | z)]
    return " ".join(parts) if parts else "I"


def _letter_coefficient(x: int, z: int, phase: int) -> complex:
    """``PauliString.label_coefficient`` of i^phase X^x Z^z."""
    return (1, 1j, -1, -1j)[(phase - (x & z).bit_count()) % 4]


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ParseError(f"cannot write the non-finite coefficient component {v}")
    if v == 0:
        v = 0.0  # normalize -0.0
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _parse_int(digits: str) -> int:
    """``int(digits)``; past Python's integer-string limit, a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long") from None


def _parse_number(tok: str) -> float:
    try:
        v = float(tok)
    except ValueError as exc:
        raise ParseError(f"bad coefficient component {tok!r}") from exc
    if not math.isfinite(v):
        raise ParseError(f"non-finite coefficient component {tok!r}")
    return v


class PauliSum:
    """A complex-weighted sum of Pauli strings on a fixed register.

    Terms are keyed by the canonical (x, z) pair; the phase of any string
    accumulated into the sum is folded into its coefficient.  Coefficients
    of magnitude below ``ZERO_THRESHOLD`` are dropped.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int):
        self.n = n
        self._terms: Dict[Tuple[int, int], complex] = {}

    def __len__(self) -> int:
        return len(self._terms)

    def weights(self) -> List[int]:
        """Pauli weight of each term, read off the (x, z) keys, unordered."""
        return [(x | z).bit_count() for x, z in self._terms]

    def coefficient(self, p: PauliString) -> complex:
        """Coefficient of p's canonical form (p's own phase folded in)."""
        c = self._terms.get(p.key(), 0.0)
        return c * (1, -1j, -1, 1j)[p.phase % 4] if c else 0.0

    def terms(self) -> Iterator[Tuple[PauliString, complex]]:
        """Iterate (canonical string with phase 0, coefficient), sorted."""
        for key in sorted(self._terms):
            yield PauliString._raw(self.n, key[0], key[1], 0), self._terms[key]

    def labeled_terms(self) -> Iterator[Tuple[str, complex]]:
        """Iterate (letter label, coefficient of the Hermitian letter product)."""
        for (x, z), c in sorted(self._terms.items()):
            yield _format_label(x, z), c * _letter_coefficient(x, z, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum) or other.n != self.n:
            return NotImplemented
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= ZERO_THRESHOLD
            for k in keys
        )

    def __str__(self) -> str:
        return "\n".join(format_term(c, label) for label, c in self.labeled_terms())


class PauliSumBuilder:
    """The one accumulator for sums: ``add`` terms, then ``build`` once."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int):
        self.n = n
        self._terms: Dict[Tuple[int, int], complex] = {}

    def add(self, coeff: complex, p: PauliString) -> None:
        if p.n != self.n:
            raise DimensionError(
                f"cannot accumulate a {p.n}-qubit term into a {self.n}-qubit sum"
            )
        self._add_raw(coeff, p.x, p.z, p.phase)

    def _add_raw(self, coeff: complex, x: int, z: int, phase: int) -> None:
        """Unchecked ``add`` of coeff * i^phase X^x Z^z; the masks must fit
        the register, as those of a string ``add`` has checked do."""
        terms, key = self._terms, (x, z)
        add = coeff * (1, 1j, -1, -1j)[phase & 3]
        if abs(add) >= ZERO_THRESHOLD:
            # a new key is hashed once, by an insert that leaves a present
            # key's own value; 0.0 + add, a new object, is the sum the
            # general path would store
            new = 0.0 + add
            if terms.setdefault(key, new) is new:
                return
        new = terms.get(key, 0.0) + add
        if abs(new) < ZERO_THRESHOLD:
            terms.pop(key, None)
        else:
            terms[key] = new

    def build(self) -> PauliSum:
        # ``add`` drops small coefficients as they land; dict() keeps hashes
        out = PauliSum(self.n)
        out._terms = dict(self._terms)
        return out


# ----------------------------------------------------------------------
# textual term formats (.pauli files)


def format_term(coeff: complex, label: str) -> str:
    return f"({_fmt_float(coeff.real)},{_fmt_float(coeff.imag)}) {label}"


def parse_term(line: str) -> Tuple[complex, str]:
    """Parse ``(re,im) <ops>`` into (coefficient, ops label)."""
    m = _TERM_RE.match(line.strip())
    if not m:
        raise ParseError(f"bad term line {line!r}")
    re_part, im_part, label = m.groups()
    return complex(_parse_number(re_part), _parse_number(im_part)), label.strip()


def pauli_sum_to_lines(s: PauliSum) -> List[str]:
    lines = [f"qubits {s.n}"]
    lines.extend(format_term(c, label) for label, c in s.labeled_terms())
    return lines


def _term_lines(lines: Iterable[str], word: str, what: str) -> Tuple[int, Iterator[str]]:
    """The n of a term file's ``<word> <n>`` header and an iterator over
    its term lines, stripped; blank and ``#`` lines are skipped.  A file
    whose first such line is not the header, or that has none, is a
    ParseError naming it as a ``what`` file."""
    body = (line for line in map(str.strip, lines) if line and not line.startswith("#"))
    header = next(body, None)
    if header is None:
        raise ParseError(f"empty {what} file")
    m = re.fullmatch(rf"{word}\s+(\d+)", header)
    if not m:
        raise ParseError(f"{what} file must start with '{word} <n>'")
    return _parse_int(m.group(1)), body


def pauli_sum_from_lines(lines: Iterable[str]) -> PauliSum:
    """The sum of a ``.pauli`` file's terms; a label whose coefficients sum
    to a non-finite value (finite terms that overflow) is a ParseError."""
    n, body = _term_lines(lines, "qubits", "pauli sum")
    builder = PauliSumBuilder(n)
    for line in body:
        coeff, label = parse_term(line)
        builder._add_raw(coeff, *_parse_label(label, n))
    for (x, z), c in builder._terms.items():
        if not cmath.isfinite(c):
            raise ParseError(f"coefficients of {_format_label(x, z)} sum to a non-finite value")
    return builder.build()
