"""Tests for the second-quantized front end and its dense oracles."""

import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import ev_term_matrix, majorana_matrix, monomial_matrix, parity_matrix
from fermigraph.dense import dense_oracle_check, fermion_operator_matrix
from fermigraph.encoding import build_encoding
from fermigraph.errors import ParityError, ParseError
from fermigraph.fermion import (
    EVTerm,
    FermionOperator,
    MajoranaMonomial,
    build_lattice_model,
    build_syk2,
    interaction_graph_from_hamiltonian,
    monomial_to_ev,
    pair_substitution,
    syk2_couplings,
    syk2_monomials,
    to_majorana_normal_form,
)
from fermigraph.fileio import fermion_from_lines
from fermigraph.geometries import gen_lattice
from fermigraph.graph import SystemGraph


def dense_of_monomials(n, monomials):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for m in monomials:
        out += monomial_matrix(n, m)
    return out


class TestMajoranaReference:
    def test_anticommutation(self):
        n = 3
        for i in range(2 * n):
            for j in range(2 * n):
                gi, gj = majorana_matrix(n, i), majorana_matrix(n, j)
                anti = gi @ gj + gj @ gi
                expect = 2 * np.eye(2**n) if i == j else np.zeros((2**n,) * 2)
                assert np.allclose(anti, expect)

    def test_parity_is_one_minus_two_n(self):
        n = 2
        for p in range(n):
            num = fermion_operator_matrix(
                FermionOperator.from_terms(n, [(1.0, ((p, True), (p, False)))])
            )
            assert np.allclose(parity_matrix(n, p), np.eye(4) - 2 * num)


class TestFromTerms:
    @pytest.mark.parametrize(
        "coeff", [float("nan"), float("inf"), complex(0, float("-inf")), complex(1, float("nan"))]
    )
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ParseError):
            FermionOperator.from_terms(2, [(1.0, ((0, True), (1, False))), (coeff, ())])

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), complex(1, float("nan"))])
    def test_direct_constructor_refuses_non_finite(self, coeff):
        """A NaN hopping once compiled the pair to an empty sum: the normal
        form dropped the NaN monomials and the finite h.c. term with them."""
        with pytest.raises(ParseError, match="non-finite"):
            FermionOperator(2, ((coeff, ((0, True), (1, False))), (1.0, ((1, True), (0, False)))))


class TestNormalForm:
    def test_number_operator(self):
        """a'a = 1/2 + (i/2) g0 g1 = (1 - B)/2 since g0 g1 = i B."""
        f = FermionOperator.from_terms(1, [(1.0, ((0, True), (0, False)))])
        monos = to_majorana_normal_form(f)
        assert {m.indices: m.coefficient for m in monos} == {
            (): pytest.approx(0.5),
            (0, 1): pytest.approx(0.5j),
        }
        num = fermion_operator_matrix(f)
        assert np.allclose(num, (np.eye(2) - parity_matrix(1, 0)) / 2)

    def test_nilpotency(self):
        f = FermionOperator.from_terms(1, [(1.0, ((0, False), (0, False)))])
        assert to_majorana_normal_form(f) == []

    def test_hopping_monomials(self):
        f = FermionOperator.from_terms(
            2, [(1.0, ((0, True), (1, False))), (1.0, ((1, True), (0, False)))]
        )
        monos = {m.indices: m.coefficient for m in to_majorana_normal_form(f)}
        assert monos == {
            (0, 3): pytest.approx(0.5j),
            (1, 2): pytest.approx(-0.5j),
        }

    def test_overflowing_sum_refused(self):
        """Two finite terms whose sum overflows once made an ``inf``
        monomial, which the compile turned into a NaN traceback."""
        f = fermion_from_lines(["modes 2", "(1.7e308,0) g1 g3", "(1.7e308,0) g1 g3"])
        with pytest.raises(ParseError, match=r"Majorana monomial g1 g3 \(1-based\) sums "
                                             r"to the non-finite"):
            to_majorana_normal_form(f)

    def test_matches_dense_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            terms = []
            for _ in range(int(rng.integers(1, 5))):
                length = int(rng.integers(0, 5))
                fs = tuple(
                    (int(rng.integers(0, n)), bool(rng.integers(0, 2)))
                    for _ in range(length)
                )
                terms.append((complex(rng.normal(), rng.normal()), fs))
            f = FermionOperator.from_terms(n, terms)
            lhs = fermion_operator_matrix(f)
            rhs = dense_of_monomials(n, to_majorana_normal_form(f))
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestPairToEV:
    """``monomial_to_ev`` on quadratic monomials."""

    def test_odd_odd(self):
        ev = monomial_to_ev(MajoranaMonomial(1.0, (0, 2)))
        assert ev.coefficient == 1j
        assert ev.edge_factors == ((0, 1),) and not ev.vertex_factors

    def test_same_mode(self):
        ev = monomial_to_ev(MajoranaMonomial(1.0, (0, 1)))
        assert ev.coefficient == 1j
        assert not ev.edge_factors and ev.vertex_factors == {0}

    def test_even_even_sign_fixed_by_oracle(self):
        mono = MajoranaMonomial(1.0, (1, 3))
        ev = monomial_to_ev(mono)
        assert ev.coefficient == -1j
        assert np.allclose(monomial_matrix(2, mono), ev_term_matrix(2, ev))

    @pytest.mark.parametrize("pair", list(itertools.combinations(range(6), 2)))
    def test_all_pairs_against_dense(self, pair):
        mono = MajoranaMonomial(0.7 - 0.2j, pair)
        ev = monomial_to_ev(mono)
        assert np.allclose(monomial_matrix(3, mono), ev_term_matrix(3, ev))


class TestMonomialToEV:
    def test_quadratic_delegates(self):
        mono = MajoranaMonomial(2.0, (0, 3))
        factor, edges, verts = pair_substitution(0, 3)
        assert monomial_to_ev(mono) == EVTerm(2.0 * factor, edges, frozenset(verts))

    def test_double_parity(self):
        """g1 g2 g3 g4 over two modes composes to -B(0) B(1)."""
        ev = monomial_to_ev(MajoranaMonomial(1.0, (0, 1, 2, 3)))
        assert ev.coefficient == pytest.approx(-1)
        assert not ev.edge_factors and ev.vertex_factors == {0, 1}

    def test_odd_length_rejected(self):
        with pytest.raises(ParityError):
            monomial_to_ev(MajoranaMonomial(1.0, (0, 1, 2)))

    def test_quartics_against_dense(self, rng):
        n = 3
        for combo in itertools.combinations(range(2 * n), 4):
            mono = MajoranaMonomial(complex(rng.normal(), rng.normal()), combo)
            ev = monomial_to_ev(mono)
            assert len(ev.edge_factors) <= 2
            assert np.allclose(monomial_matrix(n, mono), ev_term_matrix(n, ev))

    def test_no_coupling_meets_an_earlier_parity(self):
        """In a strictly increasing monomial no pair's coupling touches a
        mode on which an earlier pair left a parity, so ``monomial_to_ev``
        moves each edge factor ahead of the vertex factors with no sign:
        every increasing index tuple of even length 2 to 8 over 14 indices."""
        tuples = 0
        for length in (2, 4, 6, 8):
            for combo in itertools.combinations(range(14), length):
                verts = set()
                for a, b in zip(combo[::2], combo[1::2]):
                    _, edges, pair_verts = pair_substitution(a, b)
                    assert not any(verts & set(e) for e in edges), combo
                    verts ^= set(pair_verts)
                tuples += 1
        assert tuples == 7098

    def test_sextic_against_dense(self):
        mono = MajoranaMonomial(1.5, (0, 1, 2, 4, 5, 7))
        ev = monomial_to_ev(mono)
        assert np.allclose(monomial_matrix(4, mono), ev_term_matrix(4, ev))


class TestInteractionGraph:
    def test_pbc_chain_is_cycle(self):
        f = build_lattice_model("chain", 5, t=1.0, u=0.5, bc="periodic")
        ig = interaction_graph_from_hamiltonian(f)
        assert ig.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_onsite_only_has_no_edges(self):
        f = build_lattice_model("chain", 4, t=0.0, u=1.0)
        ig = interaction_graph_from_hamiltonian(f)
        assert ig.edges == ()

    def test_syk2_is_complete(self):
        f = build_syk2(4, seed=3)
        ig = interaction_graph_from_hamiltonian(f)
        assert ig.edges == tuple(
            (i, j) for i in range(4) for j in range(i + 1, 4)
        )

    def test_parity_violation(self):
        f = FermionOperator.from_terms(2, [(1.0, ((0, True),))])
        with pytest.raises(ParityError):
            interaction_graph_from_hamiltonian(f)

    @pytest.mark.parametrize("f", [
        build_lattice_model("chain", 5, t=1.0, u=0.5, bc="periodic"),
        build_syk2(4, seed=3),
    ], ids=["chain5_periodic", "syk2_4"])
    def test_strictly_local_code(self, f):
        """The interaction graph is a system graph with one vertex per
        mode, and the Hamiltonian compiled on it needs no routing and
        passes the dense oracle."""
        g = interaction_graph_from_hamiltonian(f)
        assert isinstance(g, SystemGraph)
        assert g.vertex_ids() == list(range(f.n_modes))
        report = dense_oracle_check(f, build_encoding(g, "jw"))
        assert report.passed, report.messages


class TestUncheckedMonomials:
    """``MajoranaMonomial._raw`` skips the index check for the monomials
    the program generates; they equal and hash like checked ones."""

    @pytest.mark.parametrize("monos", [
        lambda: syk2_monomials(6, seed=3),
        lambda: to_majorana_normal_form(
            build_lattice_model("chain", 4, t=1.0, u=0.5, bc="periodic")),
    ], ids=["syk2", "normal_form"])
    def test_equal_and_hash_like_checked(self, monos):
        raw = monos()
        checked = [MajoranaMonomial(m.coefficient, m.indices) for m in raw]
        assert raw and raw == checked
        assert [hash(m) for m in raw] == [hash(m) for m in checked]
        assert set(raw) == set(checked)

    def test_raw_equals_the_checked_constructor(self, rng):
        for _ in range(100):
            size = int(rng.integers(0, 7))
            indices = tuple(sorted(rng.choice(40, size, replace=False).tolist()))
            coeff = complex(rng.normal(), rng.normal())
            raw, checked = MajoranaMonomial._raw(coeff, indices), MajoranaMonomial(coeff, indices)
            assert type(raw) is MajoranaMonomial
            assert raw == checked and hash(raw) == hash(checked)
            assert (raw.coefficient, raw.indices) == (checked.coefficient, checked.indices)

    def test_instances_carry_no_dict(self):
        """Monomials are slotted: neither constructor gives one a dict."""
        for m in (MajoranaMonomial(1.0, (0, 3)), MajoranaMonomial._raw(1.0, (0, 3)),
                  *syk2_monomials(2, seed=1)):
            assert not hasattr(m, "__dict__")

    def test_public_constructor_still_checks(self):
        for indices in ((2, 1), (1, 1), (0, 3, 3)):
            with pytest.raises(ParseError, match="strictly increasing"):
                MajoranaMonomial(1.0, indices)

    @pytest.mark.parametrize("coeff", [float("nan"), float("-inf"), complex(float("inf"), 0)])
    def test_public_constructor_refuses_non_finite(self, coeff):
        """A NaN monomial once compiled to a NaN term that ``weight_stats``
        counted as a normal one."""
        with pytest.raises(ParseError, match="non-finite"):
            MajoranaMonomial(coeff, (0, 2))


class TestBuilders:
    def test_syk2_single_coupling(self):
        """-i J g0 g1 with J = 1 is the parity 1 - 2n, fixed by the
        2-dim oracle."""
        j = np.zeros((2, 2))
        j[0, 1] = 1.0
        f = build_syk2(1, couplings=j)
        m = fermion_operator_matrix(f)
        num = fermion_operator_matrix(
            FermionOperator.from_terms(1, [(1.0, ((0, True), (0, False)))])
        )
        assert np.allclose(m, parity_matrix(1, 0))
        assert np.allclose(m, np.eye(2) - 2 * num)

    def test_syk2_zero(self):
        f = build_syk2(2, couplings=np.zeros((4, 4)))
        assert to_majorana_normal_form(f) == []

    def test_syk2_monomial_count(self):
        monos = syk2_monomials(8, seed=11)
        assert len(monos) == 120  # C(16, 2)

    def test_build_matches_monomials(self):
        """The operator route and the direct monomial route agree."""
        j = syk2_couplings(3, seed=5)
        f = build_syk2(3, couplings=j)
        lhs = fermion_operator_matrix(f)
        rhs = dense_of_monomials(3, syk2_monomials(3, couplings=j))
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_syk2_non_finite_coupling_refused(self, bad):
        """Once a NaN compiled silently into a 15-term sum with one NaN
        coefficient; ``build_syk2`` refused the same matrix already."""
        j = syk2_couplings(3, 1).astype(complex if isinstance(bad, complex) else float)
        j[0, 3] = bad
        with pytest.raises(ParseError, match=r"non-finite coupling J\[0, 3\]"):
            syk2_monomials(3, couplings=j)
        with pytest.raises(ParseError):
            build_syk2(3, couplings=j)

    @pytest.mark.parametrize("couplings, dtype", [
        ([["a"] * 4] * 4, "<U1"),
        (np.array([[None] * 4] * 4), "object"),
        ([[True] * 4] * 4, "bool"),
    ], ids=["str", "none", "bool"])
    def test_syk2_non_numeric_couplings_refused(self, couplings, dtype):
        """Strings and None once escaped as numpy's bare TypeError from
        ``isfinite``, and bools were read as ones (6 monomials for N = 2)."""
        with pytest.raises(ParseError, match=f"couplings must be numbers, got dtype {dtype}"):
            syk2_monomials(2, couplings)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32, np.complex64])
    def test_syk2_numeric_dtypes_taken(self, dtype):
        j = np.zeros((4, 4), dtype=dtype)
        j[0, 3] = 2
        assert syk2_monomials(2, j) == [MajoranaMonomial(-2j, (0, 3))]

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", None, True])
    def test_syk2_couplings_need_a_seed(self, seed):
        """A negative seed once escaped as numpy's ValueError, and a float,
        string or None as a TypeError."""
        with pytest.raises(ParseError, match="seed must be a non-negative integer"):
            syk2_couplings(4, seed)

    def test_syk2_complex_coupling_refused(self):
        """A complex coupling is a non-Hermitian H; its imaginary part was
        once kept without a word, and the compile accepted it."""
        j = np.zeros((4, 4), dtype=complex)
        j[0, 2], j[1, 3] = 0.5, 2j
        with pytest.raises(ParseError, match=r"complex coupling J\[1, 3\] = 2j"):
            syk2_monomials(2, j)
        with pytest.raises(ParseError, match="complex coupling"):
            syk2_monomials(2, 1j * np.ones((4, 4)))
        assert len(syk2_monomials(2, j.real)) == 1

    @pytest.mark.parametrize("n, match", [
        (0, "at least 1 mode"), (-1, "at least 1 mode"),
        (2.5, "must be an integer"), ("3", "must be an integer"),
        (True, "must be an integer"),
    ])
    def test_syk2_couplings_need_a_mode(self, n, match):
        """Once a numpy divide-by-zero warning (0), a ValueError (-1) or a
        bare TypeError (2.5, "3")."""
        with pytest.raises(ParseError, match=match):
            syk2_couplings(n, 1)
        with pytest.raises(ParseError, match=match):
            syk2_monomials(n, seed=1)

    def test_chain_term_count(self):
        f = build_lattice_model("chain", 4, t=1.0, u=0.5, bc="periodic")
        hop = [t for t in f.terms if len(t[1]) == 2 and t[1][0][0] != t[1][1][0]]
        onsite = [t for t in f.terms if t[1][0][0] == t[1][1][0]]
        assert len(hop) == 8 and len(onsite) == 4

    def test_diag_lattice_interaction_degree(self):
        f = build_lattice_model("square_nn_diag", (3, 3), t=1.0, t_diag=0.5)
        ig = interaction_graph_from_hamiltonian(f)
        deg = {}
        for a, b in ig.edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        assert deg[4] == 8  # bulk vertex couples to all 8 neighbors

    def test_t_zero_is_diagonal(self):
        f = build_lattice_model("chain", 3, t=0.0, u=2.0)
        assert all(fs[0][0] == fs[1][0] for _, fs in f.terms)


#: lattice model kind -> the gen_lattice kind it is laid out on
MODEL_LATTICE = {"chain": "linear", "square_nn": "square", "square_nn_diag": "square_diag"}

LATTICE_CASES = [
    pytest.param(kind, dims, bc, id=f"{kind}-{dims}-{bc}".replace(" ", ""))
    for kind in MODEL_LATTICE
    for dims in list(range(6)) + [(n,) for n in range(1, 4)]
    + list(itertools.product(range(1, 6), repeat=2))
    for bc in ("open", "periodic")
]


def _built(make):
    try:
        return make()
    except ParseError:
        return None


class TestLatticeModels:
    @pytest.mark.parametrize("kind,dims,bc", LATTICE_CASES)
    def test_bonds_are_graph_edges(self, kind, dims, bc):
        """Each bond of the model, as (min, max, amplitude), is an edge of
        the lattice graph, t_diag on edges whose ends differ in both row
        and column; a model is refused exactly when its graph is."""
        t, t_diag = 1.25, 0.5
        f = _built(lambda: build_lattice_model(kind, dims, t=t, t_diag=t_diag, u=0.75, bc=bc))
        g = _built(lambda: gen_lattice(MODEL_LATTICE[kind], dims, bc))
        assert (f is None) == (g is None)
        if f is None:
            return
        assert f.n_modes == len(g.vertex_ids())
        bonds = Counter(
            (min(j, k), max(j, k), c)
            for c, ((j, _), (k, _)) in f.terms if j != k
        )
        cols = g.meta["params"]["dims"][-1]

        def amp(a, b):
            return t_diag if a // cols != b // cols and a % cols != b % cols else t

        edges = Counter((a, b, amp(a, b)) for a, b in g.edges)
        assert bonds == edges + edges  # a_j^dag a_k and a_k^dag a_j
        onsite = [(c, j) for c, ((j, _), (k, _)) in f.terms if j == k]
        assert onsite == [(0.75, j) for j in range(f.n_modes)]

    @pytest.mark.parametrize("kind,dims,bc", [
        ("square_nn", (1, 4), "periodic"),  # once a 2t n_j self-bond per site
        ("square_nn_diag", (4, 1), "periodic"),
        ("square_nn", (2, 3, 4), "open"),  # once a bare ValueError
        ("chain", (4, 6), "open"),  # once silently 4 sites
        ("chain", 1, "open"),
        ("chain", 4, "twisted"),
        ("ladder", 4, "open"),
    ])
    def test_refused(self, kind, dims, bc):
        with pytest.raises(ParseError):
            build_lattice_model(kind, dims, bc=bc)

    def test_diagonal_amplitude_across_the_wrap(self):
        """On a periodic 3x3 lattice the wrapped diagonals get t_diag and
        the wrapped straight bonds t."""
        f = build_lattice_model("square_nn_diag", 3, t=1.0, t_diag=0.5, bc="periodic")
        amps = {(j, k): c for c, ((j, _), (k, _)) in f.terms}
        assert amps[(0, 2)] == amps[(0, 6)] == 1.0  # row and column wraps
        assert amps[(0, 8)] == amps[(2, 6)] == 0.5  # corner-to-corner wraps
