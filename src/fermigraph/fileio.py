"""Stable on-disk formats.

.graph  JSON: {"vertices": [{"id", "kind", "ports"}], "edges": [[a, b]],
        "meta": {...}}.  Ports are edge indices into the canonically
        sorted edge list (sorted lexicographically; parallel copies keep
        construction order), so equal graphs serialize byte-identically.

.enc    JSON envelope carrying the graph, layout, per-vertex basis names,
        and every operator table in the textual term format, edges in
        index order and cycles in basis order.  Reading rebuilds the
        encoding from the graph and the bases (a registered name, else the
        stored basis operators) and refuses the file with a ParseError
        naming the first stored table that differs from the rebuilt one.

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

from .encoding import Encoding, build_encoding
from .errors import ParseError, VerifyError
from .fermion import FermionOperator, Word, majorana_to_ladder
from .graph import SystemGraph, Vertex
from .localbasis import BASIS_BUILDERS
from .pauli import (
    PauliSum,
    _term_lines,
    format_term,
    parse_term,
    pauli_sum_from_lines,
    pauli_sum_to_lines,
)

_JSON_KW = dict(indent=1, sort_keys=True, separators=(",", ": "))


# ----------------------------------------------------------------------
# graphs


def _graph_doc(g: SystemGraph) -> dict:
    """The ``.graph`` document of ``g``, also the ``graph`` of an ``.enc``."""
    return {
        "vertices": [
            {"id": v.id, "kind": v.kind, "ports": list(v.ports)}
            for v in (g.vertices[i] for i in g.vertex_ids())
        ],
        "edges": [list(e) for e in g.edges],
        "meta": g.meta,
    }


def _graph_from_doc(doc) -> SystemGraph:
    """The graph of a parsed ``.graph`` document, or ParseError."""
    try:
        verts = [Vertex(v["id"], v["kind"], v["ports"]) for v in doc["vertices"]]
        return SystemGraph(verts, doc["edges"], doc.get("meta", {}))
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"bad graph file: {exc}") from exc


def graph_to_json(g: SystemGraph) -> str:
    return json.dumps(_graph_doc(g), **_JSON_KW) + "\n"


def graph_from_json(text: str) -> SystemGraph:
    try:
        doc = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad graph file: {exc}") from exc
    return _graph_from_doc(doc)


def write_graph(path: str, g: SystemGraph) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_json(g))


def read_graph(path: str) -> SystemGraph:
    with open(path) as fh:
        return graph_from_json(fh.read())


# ----------------------------------------------------------------------
# encodings


def _encoding_doc(enc: Encoding) -> dict:
    # vertices of one degree share a named basis: format its ops once
    shared = {id(b): b for b in enc.local_bases.values()}
    ops = {key: [str(op) for op in b.ops] for key, b in shared.items()}
    return {
        "graph": _graph_doc(enc.graph),
        "total_qubits": enc.total_qubits,
        "layout": [
            [v, enc.layout[v][0], enc.layout[v][1]] for v in enc.graph.vertex_ids()
        ],
        "bases": {str(v): enc.local_bases[v].name for v in enc.graph.vertex_ids()},
        "basis_ops": {
            str(v): ops[id(enc.local_bases[v])] for v in enc.graph.vertex_ids()
        },
        "edge_ops": [str(op) for op in enc.edge_ops],
        "vertex_ops": {
            str(v): str(enc.vertex_ops[v]) for v in enc.graph.vertex_ids()
        },
        "stabilizers": [str(op) for op in enc.stabilizers],
    }


def encoding_to_json(enc: Encoding) -> str:
    return json.dumps(_encoding_doc(enc), **_JSON_KW) + "\n"


def encoding_from_json(text: str) -> Encoding:
    """Rebuild the encoding from the stored graph and per-vertex bases; a
    registered basis name is rebuilt by name, any other (``custom``,
    ``empty``) from the letters of its stored operators.  Every stored
    table but the graph must equal the text ``encoding_to_json`` writes for
    the rebuilt encoding."""
    try:
        doc = json.loads(text)
        g = _graph_from_doc(doc["graph"])
        choice = {}
        for v in g.vertex_ids():
            name = doc["bases"][str(v)]
            choice[v] = name if name in BASIS_BUILDERS else [
                parse_term(t)[1] for t in doc["basis_ops"][str(v)]
            ]
        enc = build_encoding(g, choice)
    except (KeyError, TypeError, ValueError, VerifyError) as exc:
        raise ParseError(f"bad encoding file: {exc}") from exc
    for key, table in _encoding_doc(enc).items():
        if key != "graph" and doc.get(key) != table:
            raise ParseError(
                f"bad encoding file: stored {key} differ from the tables "
                "rebuilt from its graph and bases"
            )
    return enc


def write_encoding(path: str, enc: Encoding) -> None:
    with open(path, "w") as fh:
        fh.write(encoding_to_json(enc))


def read_encoding(path: str) -> Encoding:
    with open(path) as fh:
        return encoding_from_json(fh.read())


def encodings_equal(a: Encoding, b: Encoding) -> bool:
    """Table-by-table equality; an encoding holds nothing but its tables."""
    return a == b


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
    n, body = _term_lines(lines, "modes", "hamiltonian")
    terms: List[Word] = []
    for line in body:
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
