"""Tests for weight statistics, sweeps, and scaling fits."""

import pytest

from fermigraph.analytics import (
    BenchRecord,
    WeightStats,
    loglog_slope,
    records_to_csv,
    sweep_syk_geometries,
    weight_stats,
    CSV_HEADER,
)
from fermigraph.encoding import build_encoding
from fermigraph.errors import ParseError, ResourceError
from fermigraph.fermion import build_lattice_model
from fermigraph.geometries import gen_lattice
from fermigraph.pauli import PauliString, PauliSum, PauliSumBuilder
from fermigraph.transform import transform_hamiltonian


def synthetic_records(values):
    return [
        BenchRecord("x", n, 1, WeightStats(1, int(v), float(v), 1, 1), 0.0)
        for n, v in sorted(values.items())
    ]


class TestWeightStats:
    def test_xy_chain(self):
        """Compiled periodic 4-chain: 8 two-qubit bonds + 4 single-Z terms,
        identity excluded."""
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        h = build_lattice_model("chain", 4, t=1.0, u=1.0, bc="periodic")
        st = weight_stats(transform_hamiltonian(h, enc))
        assert st.term_count == 12
        assert st.max_term_weight == 2
        assert st.total_weight == 8 * 2 + 4

    def test_equals_the_terms_definition(self, rng):
        """Weights read off the sum's keys give the stats of the weights of
        the strings ``terms()`` yields, identity excluded."""
        for _ in range(40):
            n = int(rng.integers(1, 100))
            b = PauliSumBuilder(n)
            for _ in range(int(rng.integers(0, 30))):
                mask = (1 << n) - 1
                x = int(rng.integers(0, 2**62)) << int(rng.integers(0, n)) & mask
                z = int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62)) & mask
                b.add(complex(rng.normal(), rng.normal()), PauliString(n, x, z))
            if rng.integers(2):
                b.add(1.0, PauliString.identity(n))
            h = b.build()
            weights = [p.weight() for p, _ in h.terms() if p.weight() > 0]
            assert sorted(h.weights()) == sorted(p.weight() for p, _ in h.terms())
            want = (
                WeightStats(max(weights), sum(weights), sum(weights) / len(weights),
                            len(weights), n)
                if weights else WeightStats(0, 0, 0.0, 0, n)
            )
            assert weight_stats(h) == want

    def test_empty(self):
        st = weight_stats(PauliSum(3))
        assert st == WeightStats(0, 0, 0.0, 0, 3)

    def test_syk_linear_n4_max_weight(self):
        """Worst-case weight on the 4-site loop equals an independent
        per-pair string construction over all C(8,2) couplings.  The wrap
        edge caps routed strings at distance 2, so the maximum is 3."""
        from fermigraph.fermion import (
            MajoranaMonomial,
            monomial_to_ev,
            syk2_couplings,
            syk2_monomials,
        )
        from fermigraph.geometries import gen_syk_geometry
        from fermigraph.pauli import PauliString
        from fermigraph.transform import transform_monomials

        n = 4
        enc = build_encoding(gen_syk_geometry("linear", n), "fenwick")
        j = syk2_couplings(n, seed=6)
        compiled = transform_monomials(syk2_monomials(n, couplings=j), enc)
        st = weight_stats(compiled)

        brute = 0
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                ev = monomial_to_ev(MajoranaMonomial(-1j * j[a, b], (a, b)))
                op = PauliString.identity(enc.total_qubits)
                for p, q in ev.edge_factors:
                    op = op * enc.path_edge_operator(p, q)
                for p in sorted(ev.vertex_factors):
                    op = op * enc.vertex_operator(p)
                brute = max(brute, op.weight())
        assert st.max_term_weight == brute == 3


class TestSlope:
    def test_exact_cubic(self):
        slope, err = loglog_slope(
            synthetic_records({n: n**3 for n in (8, 16, 32, 64)})
        )
        assert slope == pytest.approx(3.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_binomial(self):
        values = {n: n * (n - 1) // 2 for n in (16, 32, 64, 128)}
        slope, _ = loglog_slope(synthetic_records(values))
        assert abs(slope - 2.0) < 0.05

    def test_needs_four_points(self):
        with pytest.raises(ParseError):
            loglog_slope(synthetic_records({2: 1, 4: 2, 8: 3}))

    def test_mean_weight_field(self):
        vals = {n: 3.0 * n**2.5 for n in (4, 8, 16, 32)}
        slope, _ = loglog_slope(synthetic_records(vals), "mean_weight")
        assert slope == pytest.approx(2.5, abs=1e-9)


class TestSweep:
    def test_row_counts_and_header(self):
        recs = sweep_syk_geometries(["linear", "star"], [4, 6, 8], seed=1)
        assert len(recs) == 6
        csv = records_to_csv(recs)
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7

    def test_qubit_columns(self):
        recs = sweep_syk_geometries(["complete", "linear", "star"], [4, 8], seed=1)
        by = {(r.geometry, r.n_modes): r for r in recs}
        assert by[("linear", 8)].qubits == 8
        assert by[("star", 8)].qubits == 12
        assert by[("complete", 8)].qubits == 8 * 4

    def test_reproducible_stats(self):
        a = sweep_syk_geometries(["star"], [6], seed=7)[0]
        b = sweep_syk_geometries(["star"], [6], seed=7)[0]
        assert a.stats == b.stats

    def test_qubit_guard(self):
        """A sweep point over the encoding's table budget is refused."""
        with pytest.raises(ResourceError, match="budget"):
            sweep_syk_geometries(["complete"], [300], seed=1)

    def test_stats_consistency(self):
        from fermigraph.graph import qubit_count
        from fermigraph.geometries import gen_syk_geometry

        recs = sweep_syk_geometries(["ternary_tree"], [6], seed=3)
        r = recs[0]
        assert r.qubits == qubit_count(gen_syk_geometry("ternary_tree", 6))
        assert r.stats.max_term_weight <= r.qubits
        assert r.stats.total_weight == pytest.approx(
            r.stats.mean_weight * r.stats.term_count
        )

    def test_unknown_geometry(self):
        with pytest.raises(ParseError):
            sweep_syk_geometries(["klein_bottle"], [4], seed=1)
