"""Round-trip and byte-stability tests for the file formats."""

import json

import numpy as np
import pytest

from fermigraph import fileio
from fermigraph.dense import fermion_operator_matrix
from fermigraph.encoding import build_encoding
from fermigraph.errors import ParseError
from fermigraph.fermion import (
    build_lattice_model,
    build_syk2,
    syk2_couplings,
    syk2_monomials,
)
from fermigraph.geometries import gen_heavy_hex, gen_lattice, gen_syk_geometry
from fermigraph.graph import SystemGraph
from fermigraph.pauli import PauliString, PauliSumBuilder, format_term, parse_term
from fermigraph.transform import transform_hamiltonian


class TestGraphFiles:
    @pytest.mark.parametrize(
        "graph",
        [
            gen_lattice("linear", 5, "periodic"),
            gen_lattice("square", (2, 2), "periodic"),  # parallel edges
            gen_syk_geometry("star", 6),
            gen_syk_geometry("hyperbolic46", 8),
            gen_heavy_hex(),
        ],
        ids=["chain", "torus22", "star", "hyperbolic", "heavyhex"],
    )
    def test_roundtrip(self, tmp_path, graph):
        path = str(tmp_path / "g.graph")
        fileio.write_graph(path, graph)
        back = fileio.read_graph(path)
        assert back == graph

    def test_byte_stable(self, tmp_path):
        g = gen_syk_geometry("ternary_tree", 7)
        a = fileio.graph_to_json(g)
        b = fileio.graph_to_json(fileio.graph_from_json(a))
        assert a == b

    def test_bad_file(self):
        with pytest.raises(ParseError):
            fileio.graph_from_json("{not json")

    @pytest.mark.parametrize("field,value", [
        ("endpoint", 0.0), ("endpoint", True), ("endpoint", "0"),
        ("port", 0.0), ("port", False), ("port", "0"),
    ])
    def test_non_integer_endpoint_or_port_refused(self, field, value):
        """An edge endpoint or a port equal to an int but typed float, bool
        or string once loaded and was written back as that value."""
        doc = json.loads(fileio.graph_to_json(gen_lattice("linear", 3, "open")))
        if field == "endpoint":
            doc["edges"][0][0] = value
        else:
            doc["vertices"][0]["ports"][0] = value
        with pytest.raises(ParseError, match="must be integers"):
            fileio.graph_from_json(json.dumps(doc))


class TestEncodingFiles:
    def test_roundtrip(self, tmp_path):
        enc = build_encoding(gen_lattice("square", (2, 3), "periodic"), "fenwick")
        path = str(tmp_path / "e.enc")
        fileio.write_encoding(path, enc)
        back = fileio.read_encoding(path)
        assert fileio.encodings_equal(enc, back)

    def test_operator_text_is_exact(self, tmp_path):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        text = fileio.encoding_to_json(enc)
        again = fileio.encoding_to_json(
            fileio.encoding_from_json(text)
        )
        assert text == again


def _negate(text):
    coeff, label = parse_term(text)
    return format_term(-coeff, label)


def _tamper(doc, table):
    """Change one stored table of a 4-cycle jw_yx encoding."""
    if table == "edge_ops":
        doc["edge_ops"][0] = _negate(doc["edge_ops"][0])
    elif table == "stabilizers":  # [s, -s]: generates -I
        doc["stabilizers"].append(_negate(doc["stabilizers"][0]))
    elif table == "vertex_ops":
        doc["vertex_ops"]["0"] = _negate(doc["vertex_ops"]["0"])
    elif table == "basis_ops":  # the jw order under the name jw_yx
        ops = doc["basis_ops"]["0"]
        ops[0], ops[1] = ops[1], ops[0]
    elif table == "layout":
        for entry in doc["layout"]:
            entry[1] = (entry[1] + 1) % 4
    else:
        doc["total_qubits"] += 1


class TestEncodingTampering:
    """Each stored table, tampered alone, makes the file differ from the
    encoding rebuilt from its graph and bases."""

    @pytest.mark.parametrize(
        "table",
        ["edge_ops", "stabilizers", "vertex_ops", "basis_ops", "layout",
         "total_qubits"],
    )
    def test_tampered_table_refused(self, tmp_path, table):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        doc = json.loads(fileio.encoding_to_json(enc))
        _tamper(doc, table)
        path = str(tmp_path / "t.enc")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ParseError, match=table):
            fileio.read_encoding(path)

    def test_untampered_reads_back(self, tmp_path):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        path = str(tmp_path / "t.enc")
        with open(path, "w") as fh:
            json.dump(json.loads(fileio.encoding_to_json(enc)), fh)
        assert fileio.read_encoding(path) == enc

    def test_mixed_bases_with_custom_labels_round_trip(self, tmp_path):
        g = gen_syk_geometry("star", 4)
        enc = build_encoding(g, {4: "fenwick", "default": "jw", 0: ["Y1", "X1"]})
        path = str(tmp_path / "m.enc")
        fileio.write_encoding(path, enc)
        back = fileio.read_encoding(path)
        assert fileio.encodings_equal(enc, back)
        assert [back.local_bases[v].name for v in (0, 1, 4)] == [
            "custom", "jw", "fenwick"]

    def test_isolated_vertex_round_trip(self, tmp_path):
        g = SystemGraph.from_edges([(0, 1), (1, 2), (0, 2)], n_vertices=4)
        enc = build_encoding(g, "ternary")
        assert enc.local_bases[3].name == "empty"
        path = str(tmp_path / "i.enc")
        fileio.write_encoding(path, enc)
        assert fileio.encodings_equal(enc, fileio.read_encoding(path))

    @pytest.mark.parametrize("tamper", [
        lambda g: [g],
        lambda g: {k: v for k, v in g.items() if k != "edges"},
        lambda g: {**g, "vertices": [{**g["vertices"][0], "id": "0"}] + g["vertices"][1:]},
        lambda g: {**g, "vertices": [{**g["vertices"][0], "ports": [99]}] + g["vertices"][1:]},
        lambda g: {**g, "edges": [[0, 0]] + g["edges"][1:]},
        lambda g: {**g, "edges": [[0.0, 1]] + g["edges"][1:]},
        lambda g: {**g, "vertices": [{**g["vertices"][0], "ports": [True, 0]}] + g["vertices"][1:]},
    ], ids=["not_a_dict", "no_edges", "string_id", "port_naming_no_edge", "self_loop",
            "float_endpoint", "bool_port"])
    def test_bad_graph_refused_as_in_a_graph_file(self, tmp_path, tamper):
        """The graph inside an ``.enc`` goes through the ``.graph`` parser:
        each malformed graph is refused with the same message."""
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        doc = json.loads(fileio.encoding_to_json(enc))
        doc["graph"] = tamper(doc["graph"])
        with pytest.raises(ParseError) as as_graph:
            fileio.graph_from_json(json.dumps(doc["graph"]))
        path = str(tmp_path / "g.enc")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ParseError) as in_enc:
            fileio.read_encoding(path)
        assert str(in_enc.value) == str(as_graph.value)

    def test_invalid_custom_basis_is_a_parse_error(self, tmp_path):
        g = gen_syk_geometry("star", 4)
        doc = json.loads(fileio.encoding_to_json(
            build_encoding(g, {"default": "jw", 0: ["Y1", "X1"]})))
        doc["basis_ops"]["0"] = ["(1,0) X1", "(1,0) X1"]
        path = str(tmp_path / "c.enc")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ParseError):
            fileio.read_encoding(path)


class TestHamiltonianFiles:
    def test_roundtrip(self, tmp_path):
        f = build_lattice_model("chain", 4, t=0.5, u=0.25, bc="periodic")
        path = str(tmp_path / "h.fham")
        fileio.write_fermion(path, f)
        back = fileio.read_fermion(path)
        assert np.allclose(
            fermion_operator_matrix(f), fermion_operator_matrix(back)
        )

    def test_majorana_factors(self, tmp_path):
        """g tokens expand to the matching mode operators."""
        path = str(tmp_path / "h.fham")
        with open(path, "w") as fh:
            fh.write("modes 2\n(0,-1) g1 g3\n")  # -i g1 g3 = A(0,1), 1-based
        f = fileio.read_fermion(path)
        from conftest import coupling_matrix

        assert np.allclose(fermion_operator_matrix(f), coupling_matrix(2, 0, 1))

    def test_majorana_lines_match_build_syk2(self, tmp_path):
        """A quadratic SYK Hamiltonian written as g<k> lines reads back to
        exactly the terms build_syk2 expands it into."""
        couplings = syk2_couplings(5, seed=11)
        path = tmp_path / "syk.fham"
        lines = ["modes 5"] + [
            format_term(m.coefficient, " ".join(f"g{g + 1}" for g in m.indices))
            for m in syk2_monomials(5, couplings)
        ]
        path.write_text("\n".join(lines) + "\n")
        f = fileio.read_fermion(str(path))
        assert f.terms == build_syk2(5, couplings).terms

    def test_identity_line(self, tmp_path):
        path = str(tmp_path / "h.fham")
        with open(path, "w") as fh:
            fh.write("modes 1\n(2.5,0) 1\n")
        f = fileio.read_fermion(path)
        assert np.allclose(fermion_operator_matrix(f), 2.5 * np.eye(2))

    @pytest.mark.parametrize("coeff", ["(nan,0)", "(1,inf)", "(-inf,0)"])
    def test_non_finite_coefficient_rejected(self, tmp_path, coeff):
        path = str(tmp_path / "h.fham")
        with open(path, "w") as fh:
            fh.write(f"modes 2\n(1,0) a+1 a-2\n{coeff} a+2 a-1\n")
        with pytest.raises(ParseError):
            fileio.read_fermion(path)

    def test_bad_token(self, tmp_path):
        path = str(tmp_path / "h.fham")
        with open(path, "w") as fh:
            fh.write("modes 2\n(1,0) b3\n")
        with pytest.raises(ParseError):
            fileio.read_fermion(path)


class TestPauliFiles:
    def test_roundtrip(self, tmp_path):
        enc = build_encoding(gen_lattice("linear", 4, "periodic"), "jw_yx")
        h = build_lattice_model("chain", 4, t=1.0, u=0.3, bc="periodic")
        s = transform_hamiltonian(h, enc)
        path = str(tmp_path / "h.pauli")
        fileio.write_pauli_sum(path, s)
        assert fileio.read_pauli_sum(path) == s

    def test_refused_write_keeps_the_old_file(self, tmp_path):
        """Writing an overflowed sum once raised an OverflowError after the
        target was opened, which left it empty."""
        b = PauliSumBuilder(2)
        for _ in range(2):
            b.add(1.7e308, PauliString.from_label("X1", 2))
        path = tmp_path / "h.pauli"
        path.write_text("qubits 2\n(1,0) Z1\n")
        with pytest.raises(ParseError, match="non-finite"):
            fileio.write_pauli_sum(str(path), b.build())
        assert path.read_text() == "qubits 2\n(1,0) Z1\n"

    def test_complex_coefficients(self, tmp_path):
        b = PauliSumBuilder(2)
        b.add(0.25 - 1.5j, PauliString.from_label("Y1 X2", 2))
        s = b.build()
        path = str(tmp_path / "c.pauli")
        fileio.write_pauli_sum(path, s)
        assert fileio.read_pauli_sum(path) == s
