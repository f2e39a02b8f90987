"""Acceptance suite: one test per criterion, each timed against its budget
and printing a PASS/FAIL line (run with ``pytest -s`` to see them)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fermigraph.analytics import (
    loglog_slope,
    sweep_syk_geometries,
    weight_stats,
)
from fermigraph.dense import (
    dense_oracle_check,
    joint_plus_one_basis,
)
from fermigraph.encoding import build_encoding, verify_encoding_algebra
from fermigraph.fermion import build_lattice_model, build_syk2
from fermigraph.geometries import (
    gen_blocked_square,
    gen_heavy_hex,
    gen_lattice,
    gen_square_with_diagonals,
    gen_syk_geometry,
)
from fermigraph.graph import qubit_count
from fermigraph.localbasis import basis_fenwick, basis_ternary_tree
from fermigraph.pauli import PauliString
from fermigraph.transform import transform_hamiltonian

from conftest import random_connected_graph, string_matrix


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s > {budget_s}s"
    print(f"ACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s)")


def test_criterion_1_xy_chain_recovery():
    """Chain Hamiltonians on the N-cycle compile to the rotated-chain form:
    (t/2)(XX + YY) on every bond (the wrap bond carries the even-sector
    boundary sign pinned by the spectral oracle), U/2 (I - Z) on every
    site, and the single stabilizer +Z...Z."""
    with criterion(1, "XY-chain recovery on C_N, N=4..10", 1.0):
        t, u = 1.0, 0.7
        for n in range(4, 11):
            enc = build_encoding(gen_lattice("linear", n, "periodic"), "jw_yx")
            h = build_lattice_model("chain", n, t=t, u=u, bc="periodic")
            labels = dict(transform_hamiltonian(h, enc).labeled_terms())
            expected = {"I": n * u / 2}
            for j in range(n):
                expected[f"Z{j+1}"] = -u / 2
            for j in range(n - 1):
                expected[f"X{j+1} X{j+2}"] = t / 2
                expected[f"Y{j+1} Y{j+2}"] = t / 2
            expected[f"X1 X{n}"] = -t / 2
            expected[f"Y1 Y{n}"] = -t / 2
            assert set(labels) == set(expected), n
            for key, val in expected.items():
                assert labels[key] == pytest.approx(val), (n, key)
            allz = PauliString.from_label(
                " ".join(f"Z{q+1}" for q in range(n)), n
            )
            assert enc.stabilizers == [allz]


def test_criterion_2_jw_string_formula():
    """Raw path products on the chain, the canonical strings times
    i^-(n-1), reproduce (-i)^(n-1) X Z..Z Y."""
    with criterion(2, "JW-string formula, separations 1..10", 1.0):
        size = 12
        enc = build_encoding(gen_lattice("linear", size, "periodic"), "jw_yx")
        for n in range(1, 11):
            path = list(range(n + 1))
            zpart = " ".join(f"Z{q}" for q in range(2, n + 1))
            label = f"X1 {zpart} Y{n+1}" if zpart else f"X1 Y{n+1}"
            expect = PauliString.from_label(label, size).with_phase(-(n - 1))
            canonical = enc.path_edge_operator(0, n, path=path)
            assert canonical.with_phase(-(n - 1)) == expect, n
            assert canonical.is_hermitian()


def test_criterion_3_qubit_count_formulas():
    """Complete graph N(N-1)/2 in the even-degree idealized count (the
    ceiling allocation adds N/2 for even N); linear N; star ceil(1.5 N);
    blocked square L^2 + 2b minus one qubit per boundary head; heavy
    hexagon 49 modes in 65 qubits."""
    with criterion(3, "qubit-count formulas", 1.0):
        for n in range(4, 65, 2):
            g = gen_syk_geometry("complete", n)
            assert len(g.edges) == n * (n - 1) // 2
            assert qubit_count(g) == n * (n - 1) // 2 + n // 2
        for n in (4, 9, 16, 33, 64):
            assert qubit_count(gen_syk_geometry("linear", n)) == n
            assert qubit_count(gen_syk_geometry("star", n)) == -(-3 * n // 2)
        for L, b in ((4, 4), (6, 9), (8, 4), (8, 16)):
            g = gen_blocked_square(L, b)
            k = int(round(b ** 0.5))
            boundary_heads = b - max(k - 2, 0) ** 2
            assert qubit_count(g) == L * L + 2 * b - boundary_heads, (L, b)
        hh = gen_heavy_hex()
        assert len(hh.vertex_ids()) == 49
        assert qubit_count(hh) == 65


def test_criterion_4_scaling_reproduction():
    """Desk-scale sweep, N in {16,24,32,48,64,96}: summed Pauli weight
    slope 3.0 +- 0.3 for the chain geometry, within [2.0, 2.6] for star,
    ternary tree, MERA, and hyperbolic; complete-graph qubit slope
    2.0 +- 0.05."""
    with criterion(4, "scaling sweep slopes", 600.0):
        n_list = [16, 24, 32, 48, 64, 96]
        geometries = ["complete", "linear", "star", "ternary_tree",
                      "ternary_mera", "hyperbolic46"]
        records = sweep_syk_geometries(geometries, n_list, seed=1)
        by_geom = {}
        for r in records:
            by_geom.setdefault(r.geometry, []).append(r)
        slope, _ = loglog_slope(by_geom["linear"], "total_weight")
        assert 2.7 <= slope <= 3.3, slope
        for kind in ("star", "ternary_tree", "ternary_mera", "hyperbolic46"):
            slope, _ = loglog_slope(by_geom[kind], "total_weight")
            assert 2.0 <= slope <= 2.6, (kind, slope)
        qslope, _ = loglog_slope(by_geom["complete"], "qubits")
        assert abs(qslope - 2.0) <= 0.05, qslope
        for r in records:
            assert r.stats.max_term_weight <= r.qubits


def test_criterion_5_algebra_property_suite():
    """50 seeded random connected graphs x 3 bases: every Hermiticity,
    squares-to-identity, commutation, stabilizer-centrality, and edge
    antisymmetry check holds."""
    with criterion(5, "algebra suite on 50 random graphs x 3 bases", 60.0):
        rng = np.random.default_rng(505)
        graphs = [random_connected_graph(rng) for _ in range(50)]
        for g in graphs:
            for basis in ("jw", "fenwick", "ternary"):
                enc = build_encoding(g, basis)
                rep = verify_encoding_algebra(enc)
                assert rep.ok, (basis, rep.violations)


def test_criterion_6_oracle_spectrum_equivalence():
    """Dense spectral equivalence at 1e-9 for open chains N=2,3,4 under
    all three selectable bases, the 4-cycle, the triangle, the 4-mode
    star, and the 2x2 periodic square lattice."""
    with criterion(6, "dense oracle spectrum equivalence", 120.0):
        for n in (2, 3, 4):
            for basis in ("jw", "fenwick", "ternary"):
                enc = build_encoding(gen_lattice("linear", n, "open"), basis)
                h = build_lattice_model("chain", n, t=1.1, u=0.6)
                rep = dense_oracle_check(h, enc)
                assert rep.passed, (n, basis, rep.messages)
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        h = build_lattice_model("chain", 4, t=1.0, u=0.4, bc="periodic")
        rep = dense_oracle_check(h, enc)
        assert rep.passed, rep.messages
        enc = build_encoding(gen_lattice("linear", 3, "periodic"), "jw")
        rep = dense_oracle_check(build_syk2(3, seed=61), enc)
        assert rep.passed, rep.messages
        enc = build_encoding(gen_syk_geometry("star", 4), "jw")
        rep = dense_oracle_check(build_syk2(4, seed=62), enc)
        assert rep.passed, rep.messages
        g = gen_lattice("square", (2, 2), "periodic")
        assert qubit_count(g) == 8
        enc = build_encoding(g, "jw")
        h = build_lattice_model("square_nn", (2, 2), t=1.0, u=0.5, bc="periodic")
        rep = dense_oracle_check(h, enc)
        assert rep.passed, rep.messages


def test_criterion_7_quasi_locality_win():
    """Diagonal couplings on the 4x4 lattice: compiled on the
    diagonal-omitted degree-4 system graph they are strictly lighter than
    on the degree-8 graph, and nearest-neighbor edge and vertex operators
    are lighter as well."""
    with criterion(7, "quasi-local beats strictly local on diagonals", 10.0):
        sparse = build_encoding(gen_lattice("square", (4, 4), "open"), "jw")
        dense_g = build_encoding(gen_square_with_diagonals(4, 4, "open"), "jw")
        h_diag = build_lattice_model(
            "square_nn_diag", (4, 4), t=0.0, t_diag=1.0, u=0.0
        )
        w_sparse = weight_stats(transform_hamiltonian(h_diag, sparse))
        w_dense = weight_stats(transform_hamiltonian(h_diag, dense_g))
        assert w_sparse.max_term_weight < w_dense.max_term_weight

        nn_dense = [
            dense_g.edge_ops[i].weight()
            for i, (a, b) in enumerate(dense_g.graph.edges)
            if abs(a - b) in (1, 4)
        ]
        assert max(op.weight() for op in sparse.edge_ops) < max(nn_dense)
        assert max(op.weight() for op in sparse.vertex_ops.values()) < max(
            op.weight() for op in dense_g.vertex_ops.values()
        )


def _two_simple_paths(g, j, k, rng, cap=4000):
    """First two distinct simple vertex paths from j to k (DFS, seeded
    neighbor order), or None."""
    adj = {v: sorted(set(g.neighbors(v))) for v in g.vertex_ids()}
    found = []
    budget = cap
    stack = [(j, [j])]
    while stack and budget:
        budget -= 1
        v, path = stack.pop()
        if v == k:
            found.append(path)
            if len(found) == 2:
                return found
            continue
        nbrs = list(adj[v])
        rng.shuffle(nbrs)
        for u in nbrs:
            if u not in path:
                stack.append((u, path + [u]))
    return None


def test_criterion_8_path_independence():
    """100 seeded endpoint pairs across lattice and MERA graphs: operators
    from two distinct routed paths agree on the codespace (dense check on
    small registers, exact stabilizer-group membership otherwise)."""
    with criterion(8, "path independence over 100 endpoint pairs", 120.0):
        rng = np.random.default_rng(808)
        cases = [
            (build_encoding(gen_lattice("square", (4, 4), "open"), "jw"), 40),
            (build_encoding(gen_lattice("square", (3, 3), "periodic"), "jw"), 20),
            (build_encoding(gen_syk_geometry("ternary_mera", 9), "jw"), 20),
            (build_encoding(gen_lattice("square", (2, 3), "open"), "jw"), 10),
            (build_encoding(gen_lattice("square", (2, 2), "periodic"), "jw"), 10),
        ]
        checked = 0
        for enc, quota in cases:
            g = enc.graph
            ids = g.vertex_ids()
            dense_ok = enc.total_qubits <= 12
            basis = None
            if dense_ok:
                constraints = list(enc.stabilizers) + enc.virtual_parity_ops()
                basis = joint_plus_one_basis(enc.total_qubits, constraints)
            done = 0
            attempts = 0
            while done < quota:
                attempts += 1
                assert attempts < 50 * quota, "could not find enough path pairs"
                j, k = (int(v) for v in rng.choice(ids, size=2, replace=False))
                paths = _two_simple_paths(g, j, k, rng)
                if paths is None:
                    continue
                p1 = enc.path_edge_operator(j, k, path=paths[0])
                p2 = enc.path_edge_operator(j, k, path=paths[1])
                if dense_ok:
                    m1 = string_matrix(p1) @ basis
                    m2 = string_matrix(p2) @ basis
                    assert np.allclose(m1, m2, atol=1e-10), (j, k)
                else:
                    member = enc.stabilizer_group_member(p1 * p2)
                    assert member is not None, (j, k)
                    assert member == p1 * p2, (j, k)
                done += 1
            checked += done
        assert checked == 100


def test_criterion_9_basis_weight_bounds():
    """Tree-structured bases meet their logarithmic weight bounds for
    every qubit count up to 32."""
    with criterion(9, "local basis weight bounds", 1.0):
        for n in range(1, 33):
            fw = max(op.weight() for op in basis_fenwick(2 * n).ops)
            assert fw <= int(np.floor(np.log2(n))) + 1, n
            tw = max(op.weight() for op in basis_ternary_tree(2 * n).ops)
            assert tw <= int(np.ceil(np.log(2 * n + 1) / np.log(3))), n
