"""Error and verification branches of the public entry points: each call
below is refused with its own category and message, and a broken table
is reported by the algebra check."""

import dataclasses

import numpy as np
import pytest

from fermigraph.analytics import BenchRecord, WeightStats, loglog_slope, sweep_syk_geometries
from fermigraph.encoding import Router, build_encoding, verify_encoding_algebra
from fermigraph.errors import DimensionError, ParseError, RoutingError
from fermigraph.fermion import (
    FermionOperator,
    MajoranaMonomial,
    build_lattice_model,
    syk2_monomials,
)
from fermigraph.geometries import gen_blocked_square, gen_lattice, gen_syk_geometry
from fermigraph.graph import SystemGraph, Vertex
from fermigraph.localbasis import basis_from_labels, get_basis
from fermigraph.pauli import PauliString, pauli_sum_from_lines
from fermigraph.transform import transform_hamiltonian


def chain4():
    return build_encoding(gen_lattice("linear", 4), "jw")


def number(n_modes, mode):
    return FermionOperator.from_terms(n_modes, [(1.0, ((mode, True), (mode, False)))])


def records(zero_at):
    stats = [WeightStats(1, 0 if n == zero_at else n, 1.0, 1, 1) for n in (4, 8, 16, 32)]
    return [BenchRecord("linear", n, n, s, 0.0) for n, s in zip((4, 8, 16, 32), stats)]


CASES = {
    "edge_to_itself": (lambda: chain4().edge_operator(1, 1),
                       ParseError, "edge endpoints must differ"),
    "unknown_vertex_operator": (lambda: chain4().vertex_operator(99),
                                ParseError, "unknown vertex 99"),
    "route_unknown_endpoint": (lambda: Router(chain4()).route(0, 99),
                               RoutingError, "unknown endpoint 99"),
    "route_to_itself": (lambda: Router(chain4()).route(1, 1),
                        RoutingError, "path endpoints must differ"),
    "path_reversed": (lambda: chain4().path_edge_operator(2, 0, [0, 1, 2]),
                      RoutingError, "explicit path does not join 2 to 0"),
    "parity_on_degree_0": (
        lambda: transform_hamiltonian(
            number(3, 2), build_encoding(SystemGraph.from_edges([(0, 1)], n_vertices=3))),
        RoutingError, "mode 2 sits on a degree-0 vertex and has no parity operator"),
    "operator_mode_count": (lambda: transform_hamiltonian(number(3, 0), chain4()),
                            ParseError, "operator has 3 modes but the encoding hosts 4"),
    "fermion_mode_range": (lambda: FermionOperator(2, ((1.0, ((5, True),)),)),
                           DimensionError, "mode 5 out of range for n_modes=2"),
    "fermion_add_mode_count": (lambda: number(2, 0) + number(3, 0),
                               DimensionError, "mode count mismatch"),
    "syk_no_couplings_or_seed": (lambda: syk2_monomials(4),
                                 ParseError, "give couplings or a seed"),
    "syk_coupling_shape": (lambda: syk2_monomials(4, np.zeros((3, 3))),
                           DimensionError, "couplings must be 8x8, got (3, 3)"),
    "graph_duplicate_ids": (lambda: SystemGraph([Vertex(0), Vertex(0)], []),
                            ParseError, "duplicate vertex ids"),
    "graph_unknown_endpoint": (lambda: SystemGraph([Vertex(0), Vertex(1)], [(0, 5)]),
                               ParseError, "edge (0,5) references unknown vertex"),
    "graph_vertex_kind": (lambda: SystemGraph([Vertex(0, "ghost")], []),
                          ParseError, "unknown vertex kind 'ghost'"),
    "basis_label_count": (lambda: basis_from_labels(2, ["X1"]),
                          ParseError, "need 2 operators for degree 2, got 1"),
    "syk_geometry_one_mode": (lambda: gen_syk_geometry("star", 1),
                              ParseError, "need at least 2 modes"),
    "blocked_square_size": (lambda: gen_blocked_square(0, 1),
                            ParseError, "L must be positive"),
    "slope_zero_field": (lambda: loglog_slope(records(zero_at=8)),
                         ParseError, "non-positive total_weight value in records"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES)
def test_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


#: Constructor arguments that were accepted, written out or refused with a
#: bare TypeError or ValueError: integers follow ``graph._integer``'s rule,
#: coefficients are finite ints, floats or complexes, never a bool.
INTAKE = {
    "fermion_float_mode_count": (lambda: FermionOperator.from_terms(2.5, []),
                                 "n_modes must be an integer, got 2.5"),
    "fermion_float_mode": (lambda: FermionOperator.from_terms(2, [(1.0, ((1.0, True),))]),
                           "modes must be integers, got 1.0"),
    "fermion_none_mode": (lambda: FermionOperator.from_terms(2, [(1.0, ((None, True),))]),
                          "modes must be integers, got None"),
    "fermion_str_coefficient": (lambda: FermionOperator.from_terms(2, [("x", ())]),
                                "coefficient must be an int, float or complex, got 'x'"),
    "fermion_bool_coefficient": (lambda: FermionOperator(2, ((True, ()),)),
                                 "coefficient must be an int, float or complex, got True"),
    "monomial_float_index": (lambda: MajoranaMonomial(1.0, (0, 1.5)),
                             "Majorana indices must be integers, got 1.5"),
    "monomial_str_index": (lambda: MajoranaMonomial(1.0, ("a", "b")),
                           "Majorana indices must be integers, got 'a'"),
    "monomial_none_coefficient": (lambda: MajoranaMonomial(None, (0, 1)),
                                  "coefficient must be an int, float or complex, got None"),
    "pauli_str_size": (lambda: PauliString("a", 0, 0),
                       "Pauli string n must be an integer, got 'a'"),
    "pauli_float_mask": (lambda: PauliString(2, 1.5, 0),
                         "Pauli string x must be an integer, got 1.5"),
    "graph_str_endpoint": (lambda: SystemGraph.from_edges([(0, "1")]),
                           "vertex ids, edge endpoints and ports must be integers, got '1'"),
    "graph_float_vertex_count": (lambda: SystemGraph.from_edges([(0, 1)], n_vertices=2.5),
                                 "n_vertices must be an integer, got 2.5"),
    "basis_float_degree": (lambda: get_basis("jw", 2.5),
                           "basis degree must be an integer, got 2.5"),
    "sweep_str_mode_count": (lambda: sweep_syk_geometries(["star"], ["a"]),
                             "mode counts must be integers, got 'a'"),
    "lattice_model_str_t": (lambda: build_lattice_model("chain", 4, t="a"),
                            "t must be an int, float or complex, got 'a'"),
    "lattice_model_none_t": (lambda: build_lattice_model("chain", 4, t=None),
                             "t must be an int, float or complex, got None"),
    "lattice_model_bool_u": (lambda: build_lattice_model("chain", 4, u=True),
                             "u must be an int, float or complex, got True"),
}


@pytest.mark.parametrize("call, message", INTAKE.values(), ids=INTAKE)
def test_constructor_intake_refused(call, message):
    with pytest.raises(ParseError) as err:
        call()
    assert str(err.value) == message


def test_constructor_intake_takes_numpy_numbers():
    """numpy integers and scalars pass the intake rules, as before."""
    f = FermionOperator.from_terms(np.int64(2), [(np.float32(0.5), ((np.int64(1), True),))])
    assert f.n_modes == 2 and type(f.n_modes) is int and f.terms[0][0] == 0.5
    assert MajoranaMonomial(np.complex128(1j), (np.int64(0), 1)).indices == (0, 1)
    assert PauliString(np.int64(2), np.int64(1), 0) == PauliString(2, 1, 0)
    assert build_lattice_model("chain", 3, t=np.float64(2.0)) == build_lattice_model("chain", 3, t=2)


def test_pauli_comment_after_header_is_skipped():
    with_comment = pauli_sum_from_lines(["qubits 2", "# a comment", "(1,0) X1"])
    assert with_comment == pauli_sum_from_lines(["qubits 2", "(1,0) X1"])
    assert str(with_comment) == "(1,0) X1"


def test_algebra_check_reports_broken_edges():
    """Edge 0 replaced by the identity and edge 1 multiplied by i: the
    check names each fault."""
    enc = build_encoding(gen_lattice("square", (2, 3), "open"), "jw")
    ops = list(enc.edge_ops)
    ops[0] = PauliString.identity(enc.total_qubits)
    ops[1] = ops[1].with_phase(1)
    report = verify_encoding_algebra(dataclasses.replace(enc, edge_ops=ops))
    assert not report.ok
    for fault in ("edge 0 is trivial", "edge 1 is not Hermitian", "edge 1 squares to -I"):
        assert fault in report.violations
