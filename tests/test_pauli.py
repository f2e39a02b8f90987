"""Tests for the phase-exact Pauli algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import string_matrix
from fermigraph.errors import DimensionError, ParseError
from fermigraph.pauli import (
    ZERO_THRESHOLD,
    PauliString,
    PauliSum,
    PauliSumBuilder,
    parse_term,
    pauli_sum_from_lines,
    pauli_sum_to_lines,
)


def S(label, n):
    return PauliString.from_label(label, n)


def build_sum(n, terms) -> PauliSum:
    b = PauliSumBuilder(n)
    for c, p in terms:
        b.add(c, p)
    return b.build()


class TestMultiply:
    def test_involution(self):
        x = S("X1", 1)
        assert x * x == PauliString.identity(1)

    def test_xz_is_minus_i_y(self):
        """X*Z stored as phase-0 XZ equals -iY; checked against 2x2 matrices."""
        x, z, y = S("X1", 1), S("Z1", 1), S("Y1", 1)
        prod = x * z
        assert prod.phase == 0
        assert np.allclose(string_matrix(prod), string_matrix(x) @ string_matrix(z))
        assert np.allclose(string_matrix(prod), -1j * string_matrix(y))

    def test_two_qubit_pairwise_cancellation(self):
        """(Y1 X2)(X1 Y2) resolves to +Z1 Z2, fixed by the 4x4 oracle."""
        a, b = S("Y1 X2", 2), S("X1 Y2", 2)
        prod = a * b
        assert np.allclose(string_matrix(prod), string_matrix(a) @ string_matrix(b))
        assert prod == S("Z1 Z2", 2)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            S("X1", 1) * S("X1", 2)

    def test_random_products_match_matrices(self, rng):
        """Associativity, sign of exchange, squares, and 64x64 oracle match."""
        for _ in range(120):
            n = int(rng.integers(1, 7))
            ops = []
            for _ in range(3):
                x = int(rng.integers(0, 2**n))
                z = int(rng.integers(0, 2**n))
                ops.append(PauliString(n, x, z, int(rng.integers(0, 4))))
            a, b, c = ops
            assert (a * b) * c == a * (b * c)
            ab, ba = a * b, b * a
            if a.commutes(b):
                assert ab == ba
            else:
                assert ab == -ba
            sq = a * a
            assert sq.x == 0 and sq.z == 0 and sq.phase in (0, 2)
            assert np.array_equal(string_matrix(ab), string_matrix(a) @ string_matrix(b))
            assert ab.weight() <= a.weight() + b.weight()


class TestCommutes:
    def test_disjoint_support(self):
        assert S("X1", 2).commutes(S("Z2", 2))

    def test_single_qubit_anticommutation(self):
        assert not S("X1", 1).commutes(S("Z1", 1))

    def test_two_collisions_cancel(self):
        a, b = S("X1 Z2", 2), S("Z1 X2", 2)
        assert a.commutes(b)
        ma, mb = string_matrix(a), string_matrix(b)
        assert np.allclose(ma @ mb, mb @ ma)


class TestWeight:
    def test_identity(self):
        assert PauliString.identity(5).weight() == 0

    def test_string(self):
        assert S("X1 Z2 Y3", 5).weight() == 3

    def test_all_z(self):
        n = 7
        assert S(" ".join(f"Z{q+1}" for q in range(n)), n).weight() == n

    def test_support_is_the_acted_on_qubits_in_order(self, rng):
        assert PauliString.identity(5).support() == []
        for _ in range(100):
            n = int(rng.integers(1, 130))
            x = int(rng.integers(0, 2**62)) << int(rng.integers(0, n)) & ((1 << n) - 1)
            z = int(rng.integers(0, 2**62)) << int(rng.integers(0, n)) & ((1 << n) - 1)
            p = PauliString(n, x, z)
            letters = {int(t[1:]) - 1: t[0] for t in p.ops_label().split() if t != "I"}
            assert p.support() == [q for q in range(n) if letters.get(q, "I") != "I"]
            assert len(p.support()) == p.weight()


class TestHermitian:
    def test_y_is_hermitian(self):
        y = S("Y1", 1)
        assert y.phase == 1 and y.is_hermitian()

    def test_i_x_is_not(self):
        assert not S("X1", 1).with_phase(1).is_hermitian()

    def test_i_yx_is_not(self):
        p = S("Y1 X2", 2).with_phase(1)
        assert not p.is_hermitian()
        m = string_matrix(p)
        assert not np.allclose(m, m.conj().T)

    def test_matches_adjoint(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            p = PauliString(
                n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)),
                int(rng.integers(0, 4)),
            )
            m = string_matrix(p)
            assert p.is_hermitian() == np.allclose(m, m.conj().T)
            assert np.allclose(string_matrix(p.adjoint()), m.conj().T)


class TestUncheckedConstructor:
    """The algebra builds its results unchecked; each must equal the string
    the checked constructor makes from the same fields."""

    @staticmethod
    def random_string(rng, n):
        x = int(rng.integers(0, 2**62)) << int(rng.integers(0, n)) & ((1 << n) - 1)
        z = int(rng.integers(0, 2**62)) << int(rng.integers(0, n)) & ((1 << n) - 1)
        return PauliString(n, x, z, int(rng.integers(-9, 9)))

    @staticmethod
    def same(got, want):
        assert type(got) is PauliString
        assert got == want and hash(got) == hash(want)
        assert got.__dict__ == want.__dict__ and 0 <= got.phase < 4

    def test_results_equal_the_checked_constructor(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 130))
            a, b = self.random_string(rng, n), self.random_string(rng, n)
            k = int(rng.integers(-9, 9))
            self.same(a * b, PauliString(
                n, a.x ^ b.x, a.z ^ b.z, a.phase + b.phase + 2 * (a.z & b.x).bit_count()
            ))
            self.same(a.with_phase(k), PauliString(n, a.x, a.z, a.phase + k))
            self.same(-a, PauliString(n, a.x, a.z, a.phase + 2))
            self.same(a.adjoint(), PauliString(
                n, a.x, a.z, -a.phase + 2 * (a.x & a.z).bit_count()
            ))
            off = int(rng.integers(0, 9))
            self.same(a.embed(n + off + 3, off),
                      PauliString(n + off + 3, a.x << off, a.z << off, a.phase))

    def test_sum_terms_equal_the_checked_constructor(self, rng):
        n = 70
        strings = [self.random_string(rng, n) for _ in range(30)]
        s = build_sum(n, [(1.5, p) for p in strings])
        for p, _ in s.terms():
            self.same(p, PauliString(n, p.x, p.z))

    @pytest.mark.parametrize("n", [0, 1, 5, 64, 129])
    def test_public_constructors_still_check(self, n):
        with pytest.raises(DimensionError):
            PauliString(n, 1 << n, 0)
        with pytest.raises(DimensionError):
            PauliString(n, 0, 1 << n)
        with pytest.raises(DimensionError):
            PauliString(-1, 0, 0)
        with pytest.raises(DimensionError):
            PauliString.identity(-1)
        with pytest.raises(DimensionError):
            PauliString.from_label(f"Z{n + 1}", n)
        with pytest.raises(DimensionError):
            PauliString.identity(n) * PauliString.identity(n + 1)
        with pytest.raises(DimensionError):
            PauliString.identity(n).embed(n, 1)

    def test_sum_takes_terms_only_from_a_builder(self):
        with pytest.raises(TypeError):
            PauliSum(2, {(1, 0): 1.0})
        assert len(PauliSum(2)) == 0


class TestSum:
    def test_merge(self):
        b = PauliSumBuilder(2)
        b.add(0.5, S("X1", 2))
        b.add(0.5, S("X1", 2))
        s = b.build()
        assert len(s) == 1
        assert s.coefficient(S("X1", 2)) == pytest.approx(1.0)

    def test_cancellation(self):
        b = PauliSumBuilder(2)
        b.add(1.0, S("X1", 2))
        b.add(-1.0, S("X1", 2))
        assert len(b.build()) == 0

    def test_phase_folding(self):
        """Accumulating i*X with coefficient c stores i*c on the X key."""
        s = build_sum(1, [(2.0, S("X1", 1).with_phase(1))])
        assert s.coefficient(S("X1", 1)) == pytest.approx(2j)

    def test_order_independence(self, rng):
        terms = []
        for _ in range(25):
            n = 3
            p = PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                            int(rng.integers(0, 4)))
            terms.append((complex(rng.normal(), rng.normal()), p))
        assert build_sum(3, terms) == build_sum(3, reversed(terms))

    def test_exact_accumulation_rule(self):
        """The builder keeps exactly what a two-step accumulator keeps: for
        each term in order, the stored coefficient (0.0 if absent) plus
        c * i^phase, popped when below ``ZERO_THRESHOLD`` and stored
        otherwise.  Keys and complex values (their reprs, so the sign of a
        zero too) are compared exactly, over repeated keys, cancellations
        below the threshold, re-adds after a drop and tiny terms into
        present and absent keys."""
        rng = np.random.default_rng(7)
        n, terms = 4, []
        for _ in range(600):
            p = PauliString(n, int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                            int(rng.integers(0, 4)))
            c = complex(rng.normal(), rng.normal())
            move = rng.integers(0, 4)
            if move == 1:  # cancel to a residue below the threshold
                terms += [(c, p), (-c + 1e-13, p)]
            elif move == 2:  # a term that is below the threshold by itself
                terms.append((c * 1e-14, p))
            elif move == 3:  # real: times i^phase, a -0.0 part where c < 0
                terms.append((c.real, p))
            else:
                terms.append((c, p))

        ref, seen, dropped = {}, set(), set()
        for c, p in terms:
            key = (p.x, p.z)
            present = key in ref
            new = ref.get(key, 0.0) + c * (1, 1j, -1, -1j)[p.phase]
            if abs(new) < ZERO_THRESHOLD:
                ref.pop(key, None)
                seen.add("drop" if present else "tiny into absent")
                dropped.add(key)
            else:
                ref[key] = new
                if abs(c) < ZERO_THRESHOLD:
                    seen.add("tiny into present")
                elif present:
                    seen.add("repeat")
                elif key in dropped:
                    seen.add("re-add after drop")
        assert seen == {"drop", "tiny into absent", "tiny into present", "repeat",
                        "re-add after drop"}

        got = build_sum(n, terms)._terms
        assert list(got) == list(ref)
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in ref.items()}

    def test_xy_chain_term_multiset(self):
        """(t/2) XX and YY per bond assemble into the rotated-chain sum."""
        t = 0.8
        b = PauliSumBuilder(3)
        for j in (1, 2):
            b.add(t / 2, S(f"X{j} X{j+1}", 3))
            b.add(t / 2, S(f"Y{j} Y{j+1}", 3))
        labels = dict(b.build().labeled_terms())
        assert labels == {
            "X1 X2": pytest.approx(0.4), "Y1 Y2": pytest.approx(0.4),
            "X2 X3": pytest.approx(0.4), "Y2 Y3": pytest.approx(0.4),
        }


class TestText:
    def test_parse_term(self):
        coeff, label = parse_term("(0.5,-1) X1 Z2 Y3")
        assert coeff == 0.5 - 1j and label == "X1 Z2 Y3"

    def test_roundtrip(self, rng):
        b = PauliSumBuilder(4)
        for _ in range(10):
            p = PauliString(4, int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                            int(rng.integers(0, 4)))
            b.add(complex(rng.normal(), rng.normal()), p)
        s = b.build()
        lines = pauli_sum_to_lines(s)
        assert pauli_sum_from_lines(lines) == s

    @pytest.mark.parametrize(
        "line", ["(nan,0) X1", "(inf,0) X1", "(0,-inf) X1", "(1,NaN) Z2"]
    )
    def test_non_finite_coefficient_rejected(self, line):
        with pytest.raises(ParseError):
            parse_term(line)
        with pytest.raises(ParseError):
            pauli_sum_from_lines(["qubits 2", line])

    def test_overflowing_sum_refused(self):
        """Finite terms whose sum overflows once read as an ``inf`` term."""
        with pytest.raises(ParseError, match="coefficients of Y2 sum to a non-finite value"):
            pauli_sum_from_lines(["qubits 2", "(1,0) X1", "(1.7e308,0) Y2", "(1.7e308,0) Y2"])

    def test_non_finite_sum_is_not_written(self):
        """A builder may hold the overflowed sum, but printing it once raised
        a bare OverflowError."""
        s = build_sum(2, [(1.7e308, S("X1", 2))] * 2)
        with pytest.raises(ParseError, match="non-finite coefficient component inf"):
            str(s)
        with pytest.raises(ParseError, match="non-finite"):
            pauli_sum_to_lines(s)

    def test_str_is_the_file_line(self):
        """``str`` of a string and of a sum print the term lines that a
        ``.pauli`` file holds."""
        p = PauliString(3, 0b011, 0b110, 1)
        assert str(p) == "(1,0) X1 Y2 Z3"
        assert str(PauliString(2, 0b01, 0b01, 0)) == "(0,-1) Y1"
        s = build_sum(3, [(-0.5j, p), (0.25 - 0.0j, PauliString.identity(3)),
                          (1e20 + 1j, PauliString(3, 4, 0, 0)),
                          (-1 / 3, PauliString(3, 0, 2, 0))])
        assert str(s) == (
            "(0.25,0) I\n(-0.3333333333333333,0) Z2\n(0,-0.5) X1 Y2 Z3\n(1e+20,1) X3"
        )
        assert str(s).splitlines() == pauli_sum_to_lines(s)[1:]

    def test_identity_prints_as_I(self):
        s = build_sum(3, [(2.5, PauliString.identity(3))])
        assert pauli_sum_to_lines(s)[1] == "(2.5,0) I"


class TestLabelCodec:
    """The label reader's results and its error precedence: a bad token,
    an index below 1 or a qubit named twice is reported at its token,
    before any qubit beyond n."""

    @pytest.mark.parametrize("label, n, error, message", [
        ("I1 X1", 2, ParseError, "qubit 1 named twice in 'I1 X1'"),
        ("X5 Q1", 4, ParseError, "bad Pauli token 'Q1'"),
        ("X9 X9", 4, ParseError, "qubit 9 named twice in 'X9 X9'"),
        ("I9", 4, DimensionError, "qubit 8 out of range for n=4"),
        ("X1 Z7 Y5", 4, DimensionError, "qubit 6 out of range for n=4"),
        ("X0", 2, ParseError, "qubit index 0 must be 1-based"),
    ])
    def test_refusals(self, label, n, error, message):
        with pytest.raises(error) as err:
            PauliString.from_label(label, n)
        assert str(err.value) == message

    @pytest.mark.parametrize("label, n, want", [
        ("x1 y2", 2, PauliString(2, 0b11, 0b10, 1)),
        ("X1 Y2", 2, PauliString(2, 0b11, 0b10, 1)),
        ("z2 I1", 2, PauliString(2, 0, 0b10, 0)),
        ("I", 3, PauliString.identity(3)),
        ("", 3, PauliString.identity(3)),
        ("  ", 0, PauliString.identity(0)),
    ])
    def test_reads(self, label, n, want):
        assert PauliString.from_label(label, n) == want

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip(self, data):
        """A label read back gives the masks it was written from, a term
        line the string, and a ``.pauli`` text read back its own lines."""
        n = data.draw(st.integers(0, 130))
        mask, phase = st.integers(0, (1 << n) - 1), st.integers(0, 3)
        p = PauliString(n, data.draw(mask), data.draw(mask), data.draw(phase))
        assert PauliString.from_label(p.ops_label(), n).key() == p.key()
        coeff, label = parse_term(str(p))
        assert PauliString.from_label(label, n).with_phase(
            (1, 1j, -1, -1j).index(coeff)) == p
        terms = data.draw(st.lists(st.tuples(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            mask, mask, phase), max_size=6))
        b = PauliSumBuilder(n)
        for c, x, z, k in terms:
            b.add(c, PauliString(n, x, z, k))
        lines = pauli_sum_to_lines(b.build())
        assert pauli_sum_to_lines(pauli_sum_from_lines(lines)) == lines
