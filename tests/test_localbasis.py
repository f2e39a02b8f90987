"""Tests for the local Majorana basis constructors."""

import hashlib
import math

import pytest

from fermigraph.errors import ParseError
from fermigraph.localbasis import (
    BASIS_BUILDERS,
    basis_fenwick,
    basis_from_labels,
    basis_jw,
    basis_jw_yx,
    basis_ternary_tree,
    basis_verify,
    get_basis,
)
from fermigraph.pauli import PauliString

ALL = [basis_jw, basis_jw_yx, basis_fenwick, basis_ternary_tree]


class TestPatterns:
    def test_jw_d2(self):
        assert [str(o) for o in basis_jw(2).ops] == ["(1,0) X1", "(1,0) Y1"]

    def test_jw_d4(self):
        assert [str(o) for o in basis_jw(4).ops] == [
            "(1,0) X1", "(1,0) Y1", "(1,0) Z1 X2", "(1,0) Z1 Y2",
        ]

    def test_jw_d6_max_weight(self):
        b = basis_jw(6)
        assert b.n_qubits == 3
        assert max(op.weight() for op in b.ops) == 3

    def test_jw_yx_swaps_pairs(self):
        assert [str(o) for o in basis_jw_yx(2).ops] == ["(1,0) Y1", "(1,0) X1"]

    def test_fenwick_d2_degenerates(self):
        assert [str(o) for o in basis_fenwick(2).ops] == ["(1,0) X1", "(1,0) Y1"]

    def test_ternary_d2_drops_z(self):
        b = basis_ternary_tree(2)
        assert [str(o) for o in b.ops] == ["(1,0) X1", "(1,0) Y1"]

    def test_ternary_d6_weights(self):
        b = basis_ternary_tree(6)
        assert all(op.weight() <= 2 for op in b.ops)

    def test_d0_rejected(self):
        for make in ALL:
            with pytest.raises(ParseError):
                make(0)


#: sha256 of the op strings of degrees 1-64, one line per degree.
OPS_SHA256 = {
    "jw": "767f7d1da648498df44dceaf87a602f8efd929a849bf5dd1b61cd02ea92fa30a",
    "jw_yx": "4cbb601eca755c892e0f74cabb1ebf1d30401548e086404cc6e72837bf8dcf97",
    "fenwick": "c4d42f791cb97dd09b6f7e3d6f1948c56a99890220b556cfab47014463f73466",
}


@pytest.mark.parametrize("name", sorted(OPS_SHA256))
def test_pair_rule_op_strings(name):
    text = "".join(
        " ".join(str(op) for op in get_basis(name, d).ops) + "\n" for d in range(1, 65)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == OPS_SHA256[name]


class TestWeightBounds:
    def test_fenwick_log_bound(self):
        for n in range(1, 33):
            b = basis_fenwick(2 * n)
            assert max(op.weight() for op in b.ops) <= math.floor(math.log2(n)) + 1

    def test_fenwick_d8(self):
        assert max(op.weight() for op in basis_fenwick(8).ops) <= 3

    def test_fenwick_d64(self):
        assert max(op.weight() for op in basis_fenwick(64).ops) <= 6

    def test_ternary_log3_bound(self):
        for n in range(1, 33):
            b = basis_ternary_tree(2 * n)
            assert max(op.weight() for op in b.ops) <= math.ceil(
                math.log(2 * n + 1, 3)
            )

    def test_ternary_d26(self):
        assert max(op.weight() for op in basis_ternary_tree(26).ops) == 3


class TestRoutingWeights:
    """``Router`` settles its search a cost bucket at a time, which needs
    every step to cost at least 1: every single-operator weight and every
    pair weight of two different ports."""

    @staticmethod
    def assert_steps_cost_at_least_one(b):
        ports = b.ops[: b.degree]
        assert min(op.weight() for op in b.ops) >= 1, b.name
        assert all(
            (a * c).weight() >= 1
            for p, a in enumerate(ports)
            for q, c in enumerate(ports)
            if p != q
        ), b.name

    @pytest.mark.parametrize("name", sorted(BASIS_BUILDERS))
    def test_registered_bases(self, name):
        for d in range(1, 17):
            self.assert_steps_cost_at_least_one(get_basis(name, d))

    def test_custom_label_basis(self):
        b = basis_from_labels(4, ["X1 Z2", "Y1 Z2", "X2", "Y2"])
        assert basis_verify(b).ok
        self.assert_steps_cost_at_least_one(b)


class TestVerify:
    @pytest.mark.parametrize("make", ALL)
    def test_constructors_valid_up_to_64(self, make):
        for d in range(1, 65):
            b = make(d)
            assert len(b.ops) == 2 * ((d + 1) // 2)
            rep = basis_verify(b)
            assert rep.ok, (make.__name__, d, rep.violations)

    def test_duplicate_op_fails(self):
        b = basis_from_labels(2, ["X1", "X1"])
        rep = basis_verify(b)
        assert any("commute" in v for v in rep.violations)

    def test_rank_failure(self):
        """{X1, Y1} claimed on 2 qubits spans rank 2 < 4."""
        b = basis_from_labels(3, ["X1", "Y1", "X2", "Y2"][:4])
        bad = basis_from_labels(3, ["X1", "Y1", "X1 X2", "Y1 X2"])
        rep = basis_verify(bad)
        assert any("rank" in v for v in rep.violations)

    def test_unpaired_only_for_odd_degree(self):
        assert basis_jw(3).ops[3] == PauliString.from_label("Z1 Y2", 2)


class TestCrossConstructor:
    def test_anticommutation_multiset_identical(self):
        """All constructors realize the same pairwise relation pattern."""
        for d in (2, 5, 8):
            patterns = []
            for make in ALL:
                b = make(d)
                patterns.append(
                    sorted(
                        b.ops[i].commutes(b.ops[j])
                        for i in range(len(b.ops))
                        for j in range(i + 1, len(b.ops))
                    )
                )
            assert all(p == patterns[0] for p in patterns)

    def test_ops_on_different_vertices_commute(self):
        b1 = basis_fenwick(6)
        b2 = basis_ternary_tree(4)
        total = b1.n_qubits + b2.n_qubits
        for a in b1.ops:
            for b in b2.ops:
                assert a.embed(total, 0).commutes(b.embed(total, b1.n_qubits))

    def test_full_product_is_all_z_up_to_sign(self):
        """prod of all 2n ops times i^n gives +/- the all-Z string: + for
        the Y-first pattern at every n, (-1)^n for the X-first pattern."""
        for n in (1, 2, 3, 4):
            for make, sign in ((basis_jw, (-1) ** n), (basis_jw_yx, 1)):
                b = make(2 * n)
                prod = PauliString.identity(n)
                for op in b.ops:
                    prod = prod * op
                prod = prod.with_phase(n)
                allz = PauliString(n, 0, (1 << n) - 1, 0 if sign == 1 else 2)
                assert prod == allz, (make.__name__, n)

    def test_get_basis_unknown(self):
        with pytest.raises(ParseError):
            get_basis("bogus", 2)
