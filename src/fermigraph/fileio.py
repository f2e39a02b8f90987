"""Stable on-disk formats.

.graph  JSON: {"vertices": [{"id", "kind", "ports"}], "edges": [[a, b]],
        "meta": {...}}.  Ports are edge indices into the canonically
        sorted edge list (sorted lexicographically; parallel copies keep
        construction order), so equal graphs serialize byte-identically.

.enc    JSON envelope carrying the graph, layout, per-vertex basis names,
        and every operator table in the textual term format, edges in
        index order and cycles in basis order.

.fham   line format: ``modes N`` header then ``(re,im) factor...`` with
        factors ``a+<mode>`` / ``a-<mode>`` (1-based creation and
        annihilation) or ``g<index>`` (1-based Majorana, substituted at
        parse time).

.pauli  line format: ``qubits N`` header then one term per line,
        ``(re,im) <op><qubit>...`` with 1-based qubits; identity terms
        print as ``(c,0) I``.
"""

from __future__ import annotations

import json
import re
from typing import List

from .encoding import Encoding
from .errors import ParseError
from .fermion import FermionOperator, Word, majorana_to_ladder
from .graph import SystemGraph, Vertex
from .localbasis import MajoranaBasis
from .pauli import (
    PauliString,
    PauliSum,
    format_term,
    parse_term,
    pauli_sum_from_lines,
    pauli_sum_to_lines,
)

_JSON_KW = dict(indent=1, sort_keys=True, separators=(",", ": "))


# ----------------------------------------------------------------------
# graphs


def graph_to_json(g: SystemGraph) -> str:
    doc = {
        "vertices": [
            {"id": v.id, "kind": v.kind, "ports": list(v.ports)}
            for v in (g.vertices[i] for i in g.vertex_ids())
        ],
        "edges": [list(e) for e in g.edges],
        "meta": g.meta,
    }
    return json.dumps(doc, **_JSON_KW) + "\n"


def graph_from_json(text: str) -> SystemGraph:
    try:
        doc = json.loads(text)
        verts = [
            Vertex(v["id"], v["kind"], tuple(v["ports"])) for v in doc["vertices"]
        ]
        edges = [tuple(e) for e in doc["edges"]]
        meta = doc.get("meta", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph file: {exc}") from exc
    return SystemGraph(verts, edges, meta)


def write_graph(path: str, g: SystemGraph) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_json(g))


def read_graph(path: str) -> SystemGraph:
    with open(path) as fh:
        return graph_from_json(fh.read())


# ----------------------------------------------------------------------
# encodings


def _op_text(p: PauliString) -> str:
    c = p.label_coefficient()
    return format_term(c, p.ops_label())


def _op_parse(text: str, n: int) -> PauliString:
    coeff, label = parse_term(text)
    p = PauliString.from_label(label, n)
    phases = {1: 0, 1j: 1, -1: 2, -1j: 3}
    key = complex(round(coeff.real), round(coeff.imag))
    if key not in phases or abs(coeff - key) > 1e-12:
        raise ParseError(f"operator coefficient {coeff} is not a power of i")
    return p.with_phase(phases[key])


def encoding_to_json(enc: Encoding) -> str:
    doc = {
        "graph": json.loads(graph_to_json(enc.graph)),
        "total_qubits": enc.total_qubits,
        "layout": [
            [v, enc.layout[v][0], enc.layout[v][1]] for v in enc.graph.vertex_ids()
        ],
        "bases": {str(v): enc.basis_names[v] for v in enc.graph.vertex_ids()},
        "basis_ops": {
            str(v): [_op_text(op) for op in enc.local_bases[v].ops]
            for v in enc.graph.vertex_ids()
        },
        "edge_ops": [_op_text(op) for op in enc.edge_ops],
        "vertex_ops": {
            str(v): _op_text(enc.vertex_ops[v]) for v in enc.graph.vertex_ids()
        },
        "stabilizers": [_op_text(op) for op in enc.stabilizers],
    }
    return json.dumps(doc, **_JSON_KW) + "\n"


def encoding_from_json(text: str) -> Encoding:
    from .encoding import Encoding as Enc
    from .graph import cycle_basis

    try:
        doc = json.loads(text)
        g = graph_from_json(json.dumps(doc["graph"]))
        total = doc["total_qubits"]
        layout = {v: (off, cnt) for v, off, cnt in doc["layout"]}
        names = {int(v): name for v, name in doc["bases"].items()}
        local = {}
        port_ops = {}
        for key, labels in doc["basis_ops"].items():
            v = int(key)
            nv = layout[v][1]
            ops = tuple(_op_parse(t, nv) for t in labels)
            local[v] = MajoranaBasis(g.degree(v), nv, ops, names[v])
            off = layout[v][0]
            port_ops[v] = tuple(op.embed(total, off) for op in ops)
        edge_ops = [_op_parse(t, total) for t in doc["edge_ops"]]
        vertex_ops = {int(v): _op_parse(t, total) for v, t in doc["vertex_ops"].items()}
        stabs = [_op_parse(t, total) for t in doc["stabilizers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad encoding file: {exc}") from exc
    return Enc(
        graph=g,
        total_qubits=total,
        layout=layout,
        basis_names=names,
        local_bases=local,
        port_ops=port_ops,
        edge_ops=edge_ops,
        vertex_ops=vertex_ops,
        stabilizers=stabs,
        cycles=cycle_basis(g),
    )


def write_encoding(path: str, enc: Encoding) -> None:
    with open(path, "w") as fh:
        fh.write(encoding_to_json(enc))


def read_encoding(path: str) -> Encoding:
    with open(path) as fh:
        return encoding_from_json(fh.read())


def encodings_equal(a: Encoding, b: Encoding) -> bool:
    return (
        a.graph == b.graph
        and a.total_qubits == b.total_qubits
        and a.layout == b.layout
        and a.basis_names == b.basis_names
        and {v: bb.ops for v, bb in a.local_bases.items()}
        == {v: bb.ops for v, bb in b.local_bases.items()}
        and a.edge_ops == b.edge_ops
        and a.vertex_ops == b.vertex_ops
        and a.stabilizers == b.stabilizers
    )


# ----------------------------------------------------------------------
# fermionic operators

_FACTOR_RE = re.compile(r"^(a[+-]|g)(\d+)$")


def fermion_to_lines(f: FermionOperator) -> List[str]:
    lines = [f"modes {f.n_modes}"]
    for coeff, factors in f.terms:
        toks = " ".join(
            f"a{'+' if dag else '-'}{m + 1}" for m, dag in factors
        )
        lines.append(format_term(coeff, toks if toks else "1"))
    return lines


def fermion_from_lines(lines) -> FermionOperator:
    n = None
    terms: List[Word] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = re.fullmatch(r"modes\s+(\d+)", line)
            if not m:
                raise ParseError("hamiltonian file must start with 'modes <n>'")
            n = int(m.group(1))
            continue
        coeff, rest = parse_term(line)
        words: List[Word] = [(coeff, ())]
        if rest != "1":
            for tok in rest.split():
                m = _FACTOR_RE.match(tok)
                if not m:
                    raise ParseError(f"bad factor {tok!r}")
                kind, idx = m.group(1), int(m.group(2)) - 1
                if idx < 0:
                    raise ParseError(f"factor index in {tok!r} must be 1-based")
                if kind == "g":
                    if idx // 2 >= n:
                        raise ParseError(f"Majorana index {tok!r} out of range")
                    words = majorana_to_ladder(words, idx)
                else:
                    if idx >= n:
                        raise ParseError(f"mode index {tok!r} out of range")
                    words = [
                        (c, fs + ((idx, kind == "a+"),)) for c, fs in words
                    ]
        terms.extend(words)
    if n is None:
        raise ParseError("empty hamiltonian file")
    return FermionOperator.from_terms(n, terms)


def write_fermion(path: str, f: FermionOperator) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(fermion_to_lines(f)) + "\n")


def read_fermion(path: str) -> FermionOperator:
    with open(path) as fh:
        return fermion_from_lines(fh.readlines())


# ----------------------------------------------------------------------
# pauli sums


def write_pauli_sum(path: str, s: PauliSum) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(pauli_sum_to_lines(s)) + "\n")


def read_pauli_sum(path: str) -> PauliSum:
    with open(path) as fh:
        return pauli_sum_from_lines(fh.readlines())
