"""Byte-stability pins: the sha256 of the .graph, .enc and .pauli files for
five fixed compile cases, of the .enc texts of 112 encodings, and of the
SYK sweep CSV with the wall-time column removed.  Refactors must leave
every value unchanged; a change in output format or routing order shows
up here first."""

import hashlib

import pytest

from fermigraph import fileio
from fermigraph.analytics import SWEEP_GEOMETRIES, records_to_csv, sweep_syk_geometries
from fermigraph.encoding import build_encoding
from fermigraph.fermion import FermionOperator, build_lattice_model, build_syk2
from fermigraph.geometries import (
    gen_blocked_square,
    gen_heavy_hex,
    gen_lattice,
    gen_syk_geometry,
)
from fermigraph.transform import transform_hamiltonian


def _square3_quartic() -> FermionOperator:
    """Hopping with diagonals plus 0.7 n_a n_b on every edge of the open
    3x3 square: 49 quadratic, 12 quartic and 1 constant monomials."""
    edges = gen_lattice("square", (3, 3), "open").edges
    density = [(0.7, ((a, True), (a, False), (b, True), (b, False))) for a, b in edges]
    hopping = build_lattice_model("square_nn_diag", 3, t=1.0, t_diag=0.5, u=0.3)
    return hopping + FermionOperator.from_terms(9, density)


CASES = {
    # open 4x4 square graph; the diagonal hops are routed strings
    "square4_diag_jw": (
        lambda: gen_lattice("square", (4, 4), "open"),
        "jw",
        lambda: build_lattice_model("square_nn_diag", 4, t=1.0, t_diag=0.5, u=0.3),
    ),
    "star6_fenwick": (
        lambda: gen_syk_geometry("star", 6), "fenwick", lambda: build_syk2(6, seed=3)
    ),
    "hyperbolic46_12_ternary": (
        lambda: gen_syk_geometry("hyperbolic46", 12),
        "ternary",
        lambda: build_syk2(12, seed=5),
    ),
    "heavyhex_jw": (gen_heavy_hex, "jw", lambda: build_syk2(49, seed=7)),
    # quartic density terms; the diagonal hops are routed strings
    "square3_quartic_fenwick": (
        lambda: gen_lattice("square", (3, 3), "open"), "fenwick", _square3_quartic
    ),
}

FILE_SHA256 = {
    ("square4_diag_jw", "graph"): "7a2a204388d3d72a4b196ef58ff6a31b9d560791162f11457f2b68529e626f7d",
    ("square4_diag_jw", "enc"): "a34a1dcdb8339abef0b7dde168b53de39e1ceb91e65fcad3759a50a88497678a",
    ("square4_diag_jw", "pauli"): "09113bf8b468a8c3f1e6de366bd9b2030a49baa4186a99210367423aa60d8410",
    ("star6_fenwick", "graph"): "26432ec4c5f0569db47af0ab10cc2e82bf5987f15b8804b005bb8d8490765dfa",
    ("star6_fenwick", "enc"): "408d8ec85e0b876cbb66ad16b0ac65b13f1a7a8dc6ea3da9726142ca96bea00d",
    ("star6_fenwick", "pauli"): "2e442bf00d11f4d56f945b32ac3905cfdfa29a93e41d3260351ac7cbb1850f70",
    ("hyperbolic46_12_ternary", "graph"): "adf790ecc0f337307b35544c22f8c6ecf1978eeca90b9b8cbb16b78049f7ae75",
    ("hyperbolic46_12_ternary", "enc"): "26e969e4af898a65a0d71c406c435ef0e57f6974e836a77c930bad97afed6dc5",
    ("hyperbolic46_12_ternary", "pauli"): "25476d7a945cb46d4b6a64e574fff3079eb483b443d87af110eb0b8d270c8e13",
    ("heavyhex_jw", "graph"): "d502d827190dff25e8dbe1c8915eb852dc33be0c071d71e0b738456fb5d3d85b",
    ("heavyhex_jw", "enc"): "1fcd728305f8f39a5811589f8940c045cc52a3669b23f027a0e34a104085e588",
    ("heavyhex_jw", "pauli"): "a22323cac7c48befddbe7017dd6c54c771b82ba260592da00915ce36aeca28f7",
    ("square3_quartic_fenwick", "graph"): "53d1577c91a0af5221b3e528fab8a99a50cd50cde903dd32032dd80da1e833e4",
    ("square3_quartic_fenwick", "enc"): "a5927e181aed51419f10c5965b75b6406c16eabd9e5b97c05e154cd4d2604668",
    ("square3_quartic_fenwick", "pauli"): "3a9f209658269d8652e3842b065f8a8c52f83f952303fba5609078ed5abe6d38",
}

#: The ``encoding_to_json`` texts of ``_enc_digest_encodings()``, concatenated.
ENC_DIGEST_SHA256 = "a5aecc63264a3ca5f4dddec4194d7676f5da17d40e7c5e33b92692de226ffc9e"

#: sweep_syk_geometries(SWEEP_GEOMETRIES, [8, 16], seed=1) as CSV, each
#: line cut before its final (seconds) column, joined with newlines.
SWEEP_ROWS_SHA256 = "84412d6de49fca00eb65095dc02be9f55fc1898daee41780ae8d1961d193c6e2"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_files_are_byte_stable(tmp_path, case):
    make_graph, basis, make_ham = CASES[case]
    g = make_graph()
    enc = build_encoding(g, basis)
    compiled = transform_hamiltonian(make_ham(), enc)
    fileio.write_graph(str(tmp_path / "x.graph"), g)
    fileio.write_encoding(str(tmp_path / "x.enc"), enc)
    fileio.write_pauli_sum(str(tmp_path / "x.pauli"), compiled)
    got = {ext: _sha256(tmp_path / f"x.{ext}") for ext in ("graph", "enc", "pauli")}
    assert got == {ext: FILE_SHA256[(case, ext)] for ext in got}


def _enc_digest_encodings():
    """112 encodings, graph-major, in the bases jw, jw_yx, fenwick and
    ternary: the six sweep kinds at N = 8, 16, 32, complete/96, the 6x6
    square, triangular and square_diag lattices (open, then periodic), the
    2x2 periodic square, the heavy-hex device and the 4-block 4x4 square."""
    graphs = [gen_syk_geometry(kind, n) for kind in SWEEP_GEOMETRIES for n in (8, 16, 32)]
    graphs.append(gen_syk_geometry("complete", 96))
    graphs += [gen_lattice(kind, (6, 6), boundary)
               for kind in ("square", "triangular", "square_diag")
               for boundary in ("open", "periodic")]
    graphs += [gen_lattice("square", (2, 2), "periodic"), gen_heavy_hex(),
               gen_blocked_square(4, 4)]
    for g in graphs:
        for basis in ("jw", "jw_yx", "fenwick", "ternary"):
            yield build_encoding(g, basis)


def test_encoding_texts_are_byte_stable():
    """Every table of 112 encodings, the cycles and stabilizers included,
    as written to .enc files."""
    digest = hashlib.sha256()
    count = 0
    for enc in _enc_digest_encodings():
        digest.update(fileio.encoding_to_json(enc).encode())
        count += 1
    assert count == 112
    assert digest.hexdigest() == ENC_DIGEST_SHA256


def test_sweep_rows_are_byte_stable():
    csv = records_to_csv(sweep_syk_geometries(SWEEP_GEOMETRIES, [8, 16], seed=1))
    rows = "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines())
    assert hashlib.sha256(rows.encode()).hexdigest() == SWEEP_ROWS_SHA256
