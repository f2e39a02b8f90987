"""The three benchmark workloads.

Each workload is closed loop: one process, one caller, and a repetition
starts only when the previous one has ended.  Inputs are made from the
seed before timing starts.  The seed sets coefficients only, so every seed
gives the same amount of work per repetition.

A workload provides

    make_inputs(seed, workdir, warm)  inputs; ``warm`` selects the small
                                      warm-up set.  ``inputs["items"]`` maps
                                      each item's label to its input.
    run_item(inputs, label, tracer)   compile (or check) one item; a
                                      repetition runs every item once
    check(inputs, out)                (checks attempted, failure messages)
                                      for one repetition's outputs
    terms(inputs, out)                Pauli terms compiled per repetition
    counts(inputs, out)               per-layer work counts of a repetition
    breakdown(inputs, tracer)         extra traced calls, once per traced run;
                                      returns further per-layer counts

Untraced, ``run_item`` makes the calls the program makes.  Traced, it also
routes every coupling before the transform, to time routing apart; see
``_route``.  Spans are named after the fermigraph module whose public
function they wrap.  ``graph``, ``localbasis`` and ``pauli`` have no spans
of their own: their time falls inside the spans of the modules that call
them.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from fermigraph import dense, fileio
from fermigraph.analytics import (
    SWEEP_BASIS,
    SWEEP_GEOMETRIES,
    BenchRecord,
    WeightStats,
    weight_stats,
)
from fermigraph.encoding import Encoding, build_encoding, verify_encoding_algebra
from fermigraph.fermion import (
    FermionOperator,
    MajoranaMonomial,
    build_lattice_model,
    build_syk2,
    interaction_graph_from_hamiltonian,
    monomial_to_ev,
    syk2_couplings,
    syk2_monomials,
    to_majorana_normal_form,
)
from fermigraph.geometries import gen_lattice, gen_square_with_diagonals, gen_syk_geometry
from fermigraph.graph import SystemGraph
from fermigraph.pauli import ZERO_THRESHOLD, PauliSum
from fermigraph.transform import transform_hamiltonian, transform_monomials

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _route(enc: Encoding, mode_pairs, tracer, item: str) -> int:
    """Route every coupling whose modes sit on non-adjacent vertices and
    return how many were routed.  Only the traced run calls this.

    The program routes inside ``transform_monomials``.  This pass fills the
    encoding's route memo first, so the transform that follows only looks
    up routes, realizes and accumulates.  The memo keeps edge sequences, not
    strings, so each routed string is multiplied out twice in a traced
    repetition; ``trace.overhead_s`` includes that.  A router that keeps its
    memo outside the encoding changes this split, and must be measured
    again.
    """
    phys = enc.graph.physical_ids()
    routed = 0
    with tracer.span("encoding.route", item):
        for p, q in mode_pairs:
            if not enc.graph.edges_between(phys[p], phys[q]):
                enc.path_edge_operator(phys[p], phys[q])
                routed += 1
    return routed


def _all_real(s: PauliSum) -> bool:
    """Every coefficient of the Hermitian letter product is real.

    The same test as ``PauliSum.is_real``, which also spells out each
    term's label: 11 s for the 4608-qubit sum, against 0.1 s here."""
    return all(
        abs((c * (1, -1j, -1, 1j)[(p.x & p.z).bit_count() % 4]).imag) <= ZERO_THRESHOLD
        for p, c in s.terms()
    )


def _pauli_products(monos: Sequence[MajoranaMonomial]) -> int:
    """Pauli multiplications the realizer makes: one per edge or vertex
    factor of each term."""
    total = 0
    for m in monos:
        ev = monomial_to_ev(m)
        total += len(ev.edge_factors) + len(ev.vertex_factors)
    return total


class Workload:
    name = ""

    def breakdown(self, inputs, tracer) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# syk_route: routing is almost all of the work


#: The six sweep geometries at N in {16, 32} from acceptance criterion 4's
#: list, where routing dominates, plus the complete graph at N=96 (4608
#: qubits and no routing), which loads build_encoding instead.  A pass takes
#: about 3 s on 2 cores, so a run repeats every item several times.
SYK_ITEMS: Tuple[Tuple[str, int], ...] = tuple(
    (kind, n) for kind in SWEEP_GEOMETRIES for n in (16, 32)
) + (("complete", 96),)
SYK_WARM_ITEMS = tuple((kind, 8) for kind in SWEEP_GEOMETRIES)


@dataclass
class SykItem:
    kind: str
    n: int
    qubits: int
    monos: List[MajoranaMonomial]
    compiled: PauliSum
    stats: WeightStats
    routed: int

    def row(self) -> str:
        """The bench CSV row without its wall-time column."""
        rec = BenchRecord(self.kind, self.n, self.qubits, self.stats, 0.0)
        return rec.csv_row().rsplit(",", 1)[0]


class SykRoute(Workload):
    """Seeded quadratic all-to-all model compiled with the sweep basis.

    Couplings at (seed, N) are drawn as ``sweep_syk_geometries`` draws
    them.  The CSV rows do not depend on the seed, so one golden set
    serves every seed.
    """

    name = "syk_route"

    def __init__(self, golden_rows: Optional[Sequence[str]] = None,
                 items: Sequence[Tuple[str, int]] = SYK_ITEMS):
        if golden_rows is None:
            golden_rows = load_golden()["syk_route_rows"]
        self.golden = {"/".join(row.split(",")[:2]): row for row in golden_rows}
        self.items = tuple(items)

    def make_inputs(self, seed: int, workdir: str, warm: bool) -> dict:
        items = SYK_WARM_ITEMS if warm else self.items
        ns = sorted({n for _, n in items})
        return {
            "items": {f"{kind}/{n}": (kind, n) for kind, n in items},
            "couplings": {n: syk2_couplings(n, seed + n) for n in ns},
            "pairs": {n: [(p, q) for p in range(n) for q in range(p + 1, n)] for n in ns},
        }

    def run_item(self, inputs: dict, item: str, tr) -> SykItem:
        kind, n = inputs["items"][item]
        with tr.span("item", item):
            with tr.span("geometries.gen", item):
                g = gen_syk_geometry(kind, n)
            with tr.span("encoding.build", item):
                enc = build_encoding(g, SWEEP_BASIS)
            with tr.span("fermion.normal_form", item):
                monos = syk2_monomials(n, inputs["couplings"][n])
            routed = _route(enc, inputs["pairs"][n], tr, item) if tr.active else 0
            with tr.span("transform", item):
                compiled = transform_monomials(monos, enc)
            with tr.span("analytics.weight_stats", item):
                stats = weight_stats(compiled)
        return SykItem(kind, n, enc.total_qubits, monos, compiled, stats, routed)

    def check(self, inputs: dict, out: List[SykItem]) -> Tuple[int, List[str]]:
        failures = []
        for r in out:
            tag = f"{r.kind}/{r.n}"
            want = self.golden.get(tag)
            if r.row() != want:
                failures.append(f"{tag}: row {r.row()!r} differs from golden {want!r}")
            if r.stats.term_count != r.n * (2 * r.n - 1):
                failures.append(f"{tag}: {r.stats.term_count} terms, not N(2N-1)")
            if not _all_real(r.compiled):
                failures.append(f"{tag}: complex coefficient in the compiled sum")
            if r.stats.max_term_weight > r.qubits:
                failures.append(f"{tag}: max weight above the qubit count")
        return 4 * len(out), failures

    def terms(self, inputs: dict, out: List[SykItem]) -> int:
        return sum(len(r.compiled) for r in out)

    def counts(self, inputs: dict, out: List[SykItem]) -> Dict[str, float]:
        return {
            "encoding.route_pairs": sum(r.routed for r in out),
            "encoding.qubits": sum(r.qubits for r in out),
            "fermion.monomials": sum(len(r.monos) for r in out),
            "transform.pauli_products": sum(_pauli_products(r.monos) for r in out),
            "transform.terms_out": self.terms(inputs, out),
        }


# ----------------------------------------------------------------------
# lattice_io: the file-based transform and verify path


#: Side of the open square lattice.  At L=16 the O(E^2) algebra check on
#: the degree-8 graph and the text I/O outweigh routing; L=24 would make
#: the algebra check alone about 5x longer.
LATTICE_L = 16
LATTICE_WARM_L = 4
LATTICE_BASIS = "jw"


def lattice_model(L: int, rng: np.random.Generator) -> FermionOperator:
    """Open L x L lattice: nearest-neighbour and diagonal hopping, onsite
    u, and seeded nearest-neighbour density-density terms."""
    h = build_lattice_model("square_nn_diag", L, t=1.0, t_diag=0.5, u=0.3)
    terms = list(h.terms)
    for r in range(L):
        for c in range(L):
            j = r * L + c
            for k in ([j + 1] if c + 1 < L else []) + ([j + L] if r + 1 < L else []):
                v = float(rng.uniform(0.5, 1.5))
                terms.append((v, ((j, True), (j, False), (k, True), (k, False))))
    return FermionOperator.from_terms(L * L, terms)


@dataclass
class LatticeItem:
    graph: str
    enc: Encoding
    monos: Optional[List[MajoranaMonomial]]  # traced run only
    compiled: PauliSum
    read_back: PauliSum
    enc_back: Encoding
    algebra_ok: bool
    routed: int
    pauli_path: str


class LatticeIO(Workload):
    """Two system graphs for one lattice model: the plain square lattice,
    where each diagonal hop is routed over 2 edges, and the square lattice
    with diagonals, where nothing is routed."""

    name = "lattice_io"

    def make_inputs(self, seed: int, workdir: str, warm: bool) -> dict:
        L = LATTICE_WARM_L if warm else LATTICE_L
        f = lattice_model(L, np.random.default_rng(seed))
        fham = os.path.join(workdir, f"lattice{L}.fham")
        fileio.write_fermion(fham, f)
        graphs = {}
        for name, g in (("square", gen_lattice("square", (L, L), "open")),
                        ("square_diag", gen_square_with_diagonals(L, L, "open"))):
            graphs[name] = os.path.join(workdir, f"{name}{L}")
            fileio.write_graph(graphs[name] + ".graph", g)
        return {
            "items": graphs,
            "fham": fham,
            "pairs": interaction_graph_from_hamiltonian(f).edges,
        }

    def run_item(self, inputs: dict, item: str, tr) -> LatticeItem:
        stem = inputs["items"][item]
        with tr.span("item", item):
            with tr.span("fileio.read_graph", item):
                g = fileio.read_graph(stem + ".graph")
            with tr.span("fileio.read_fham", item):
                f = fileio.read_fermion(inputs["fham"])
            with tr.span("encoding.build", item):
                enc = build_encoding(g, LATTICE_BASIS)
            if tr.active:
                # transform_hamiltonian is these two calls after its parity
                # and mode-count checks; calling them apart times each layer
                with tr.span("fermion.normal_form", item):
                    monos = to_majorana_normal_form(f)
                routed = _route(enc, inputs["pairs"], tr, item)
                with tr.span("transform", item):
                    compiled = transform_monomials(monos, enc)
            else:
                monos, routed = None, 0
                compiled = transform_hamiltonian(f, enc)
            with tr.span("fileio.write_pauli", item):
                fileio.write_pauli_sum(stem + ".pauli", compiled)
            with tr.span("fileio.read_pauli", item):
                read_back = fileio.read_pauli_sum(stem + ".pauli")
            with tr.span("analytics.weight_stats", item):
                weight_stats(read_back)
            with tr.span("fileio.write_enc", item):
                fileio.write_encoding(stem + ".enc", enc)
            with tr.span("fileio.read_enc", item):
                enc_back = fileio.read_encoding(stem + ".enc")
            with tr.span("encoding.verify_algebra", item):
                algebra_ok = verify_encoding_algebra(enc_back).ok
        return LatticeItem(item, enc, monos, compiled, read_back, enc_back,
                           algebra_ok, routed, stem + ".pauli")

    def check(self, inputs: dict, out: List[LatticeItem]) -> Tuple[int, List[str]]:
        failures = []
        for r in out:
            if r.read_back != r.compiled:
                failures.append(f"{r.graph}: .pauli read-back differs from the compiled sum")
            if not fileio.encodings_equal(r.enc, r.enc_back):
                failures.append(f"{r.graph}: .enc round trip changed the encoding")
            if not r.algebra_ok:
                failures.append(f"{r.graph}: algebra check of the read-back encoding failed")
        return 3 * len(out), failures

    def terms(self, inputs: dict, out: List[LatticeItem]) -> int:
        return sum(len(r.compiled) for r in out)

    def counts(self, inputs: dict, out: List[LatticeItem]) -> Dict[str, float]:
        return {
            "encoding.route_pairs": sum(r.routed for r in out),
            "encoding.qubits": sum(r.enc.total_qubits for r in out),
            "fermion.monomials": sum(len(r.monos) for r in out),
            "transform.pauli_products": sum(_pauli_products(r.monos) for r in out),
            "transform.terms_out": self.terms(inputs, out),
            "fileio.pauli_bytes": sum(os.path.getsize(r.pauli_path) for r in out),
        }


# ----------------------------------------------------------------------
# oracle_small: the dense layer does the work


@dataclass
class OracleCase:
    name: str
    make_graph: Callable[[], SystemGraph]
    basis: str
    ham: FermionOperator


def oracle_cases(seed: int, warm: bool) -> List[OracleCase]:
    """8 to 11 qubits.  The 12-qubit star takes ~90 s, too long to repeat."""
    rng = np.random.default_rng(seed)

    def amp() -> float:
        return float(rng.uniform(0.5, 1.5))

    if warm:
        return [OracleCase("chain4_open_jw", partial(gen_lattice, "linear", 4, "open"), "jw",
                           build_lattice_model("chain", 4, t=amp(), u=amp()))]
    return [
        # 11 qubits: Pauli->matrix and the projector eigh share the time
        OracleCase("star7_jw", partial(gen_syk_geometry, "star", 7), "jw",
                   build_syk2(7, seed=seed)),
        # 10 qubits: the reference fermion_operator_matrix dominates
        OracleCase("chain10_periodic_jw_yx", partial(gen_lattice, "linear", 10, "periodic"),
                   "jw_yx",
                   build_lattice_model("chain", 10, t=amp(), u=amp(), bc="periodic")),
        OracleCase("star6_jw", partial(gen_syk_geometry, "star", 6), "jw",
                   build_syk2(6, seed=seed + 1)),
        OracleCase("square2x3_open_jw", partial(gen_lattice, "square", (2, 3), "open"), "jw",
                   build_lattice_model("square_nn", (2, 3), t=amp(), u=amp())),
    ]


class OracleSmall(Workload):
    name = "oracle_small"

    def __init__(self, golden_dims: Optional[Dict[str, int]] = None,
                 cases: Optional[Sequence[str]] = None):
        if golden_dims is None:
            golden_dims = load_golden()["oracle_codespace_dim"]
        self.golden = dict(golden_dims)
        self.case_names = cases

    def make_inputs(self, seed: int, workdir: str, warm: bool) -> dict:
        cases = oracle_cases(seed, warm)
        if not warm and self.case_names is not None:
            cases = [c for c in cases if c.name in self.case_names]
        return {"items": {c.name: c for c in cases}}

    def run_item(self, inputs: dict, item: str, tr):
        case = inputs["items"][item]
        with tr.span("item", item):
            with tr.span("geometries.gen", item):
                g = case.make_graph()
            with tr.span("encoding.build", item):
                enc = build_encoding(g, case.basis)
            with tr.span("dense.oracle", item):
                report = dense.dense_oracle_check(case.ham, enc)
        return case, enc, report

    def check(self, inputs: dict, out: list) -> Tuple[int, List[str]]:
        failures = []
        for case, _, report in out:
            if not report.passed:
                failures.append(f"{case.name}: oracle failed: {report.messages}")
            if report.codespace_dim != self.golden.get(case.name):
                failures.append(
                    f"{case.name}: codespace dim {report.codespace_dim} differs from "
                    f"the recorded {self.golden.get(case.name)}"
                )
        return 2 * len(out), failures

    def _compiled(self, out: list) -> List[Tuple[OracleCase, Encoding, PauliSum]]:
        return [(case, enc, transform_hamiltonian(case.ham, enc)) for case, enc, _ in out]

    def terms(self, inputs: dict, out: list) -> int:
        return sum(len(s) for _, _, s in self._compiled(out))

    def counts(self, inputs: dict, out: list) -> Dict[str, float]:
        compiled = self._compiled(out)
        monos = [to_majorana_normal_form(case.ham) for case, _, _ in compiled]
        return {
            "encoding.qubits": sum(enc.total_qubits for _, enc, _ in compiled),
            "fermion.monomials": sum(len(m) for m in monos),
            "transform.pauli_products": sum(_pauli_products(m) for m in monos),
            "transform.terms_out": sum(len(s) for _, _, s in compiled),
            "dense.codespace_dim": sum(rep.codespace_dim for _, _, rep in out),
        }

    def breakdown(self, inputs: dict, tr) -> Dict[str, float]:
        """Time the oracle's three dense builds and its algebra check, each
        called on its own on the same case as ``dense_oracle_check``.

        Returns ``dense.h_matrix_bytes_computed``: the most memory that
        ``pauli_sum_to_matrix`` holds at once, as tracemalloc sees it (numpy
        reports its buffers there), summed over the cases.  It is taken in a
        call of its own, outside the timed spans, since tracemalloc slows
        every allocation."""
        peak_bytes = 0
        for case in inputs["items"].values():
            enc = build_encoding(case.make_graph(), case.basis)
            compiled = transform_hamiltonian(case.ham, enc)
            constraints = list(enc.stabilizers) + enc.virtual_parity_ops()
            with tr.span("item", case.name):
                with tr.span("encoding.verify_algebra", case.name):
                    verify_encoding_algebra(enc)
                with tr.span("dense.h_matrix", case.name):
                    dense.pauli_sum_to_matrix(compiled)
                with tr.span("dense.codespace", case.name):
                    dense.joint_plus_one_basis(enc.total_qubits, constraints)
                with tr.span("dense.reference", case.name):
                    dense.fermion_operator_matrix(case.ham)
            tracemalloc.start()
            try:
                dense.pauli_sum_to_matrix(compiled)
                peak_bytes += tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return {"dense.h_matrix_bytes_computed": peak_bytes}


WORKLOADS = {w.name: w for w in (SykRoute, LatticeIO, OracleSmall)}
