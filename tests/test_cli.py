"""End-to-end tests of the command line interface."""

import argparse
import dataclasses
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fermigraph
from fermigraph import cli, fileio
from fermigraph.dense import OracleReport
from fermigraph.encoding import Encoding, Router
from fermigraph.analytics import SWEEP_GEOMETRIES
from fermigraph.cli import build_parser, main
from fermigraph.errors import ParseError
from fermigraph.fermion import build_lattice_model
from fermigraph.geometries import (
    LATTICE_DIRECTIONS,
    SYK_GEOMETRIES,
    gen_lattice,
    gen_square_with_diagonals,
    gen_syk_geometry,
)
from fermigraph.graph import SystemGraph
from fermigraph.localbasis import BASIS_BUILDERS, CheckReport

#: A decimal integer past Python's 4,300-digit string limit: ``int`` of it
#: raises ValueError, which once escaped the CLI as a traceback.
LONG = "9" * 5000


class TestGenEncode:
    def test_chain_encode_counts(self, tmp_path, capsys):
        g = str(tmp_path / "chain4.graph")
        e = str(tmp_path / "enc.enc")
        assert main(["gen", "--geometry", "linear", "--dims", "4",
                     "--bc", "periodic", "--out", g]) == 0
        assert main(["encode", "--graph", g, "--basis", "jw", "--out", e]) == 0
        out = capsys.readouterr().out
        assert "4 qubits, 4 edge ops, 4 vertex ops, 1 stabilizers" in out
        enc = fileio.read_encoding(e)
        assert enc.total_qubits == 4

    def test_heavy_hex(self, tmp_path, capsys):
        g = str(tmp_path / "hh.graph")
        assert main(["gen", "--geometry", "heavy_hex", "--out", g]) == 0
        assert "49 vertices" in capsys.readouterr().out

    @pytest.mark.parametrize("geometry,dims,bc,expect", [
        ("square_diag", "3x4", "periodic", lambda: gen_square_with_diagonals(3, 4, "periodic")),
        ("square_diag", "3", None, lambda: gen_square_with_diagonals(3, 3, "open")),
        ("triangular", "2x3", "periodic", lambda: gen_lattice("triangular", (2, 3), "periodic")),
        ("linear", "5", None, lambda: gen_lattice("linear", 5, "open")),
    ])
    def test_lattice_files(self, tmp_path, geometry, dims, bc, expect):
        """Every lattice kind writes the library's graph, byte for byte."""
        g = tmp_path / "x.graph"
        argv = ["gen", "--geometry", geometry, "--dims", dims, "--out", str(g)]
        assert main(argv + (["--bc", bc] if bc else [])) == 0
        assert g.read_text() == fileio.graph_to_json(expect())

    @pytest.mark.parametrize("geometry,dims", [
        ("linear", "1"), ("square", "1x4"), ("square_diag", "4x1"),
    ])
    def test_lattice_too_small(self, tmp_path, capsys, geometry, dims):
        """A 1-site chain, and a periodic lattice with a wrapped side of 1
        site, are parse errors."""
        g = tmp_path / "x.graph"
        bc = "open" if geometry == "linear" else "periodic"
        assert main(["gen", "--geometry", geometry, "--dims", dims, "--bc", bc,
                     "--out", str(g)]) == 2
        assert "error: parse:" in capsys.readouterr().err
        assert not g.exists()

    def test_byte_identical_outputs(self, tmp_path):
        a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
        for path in (a, b):
            assert main(["gen", "--geometry", "ternary_mera", "--n", "9",
                         "--out", path]) == 0
        assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()


class TestTransform:
    def test_pipeline(self, tmp_path, capsys):
        g = str(tmp_path / "c.graph")
        h = str(tmp_path / "h.fham")
        out = str(tmp_path / "h.pauli")
        main(["gen", "--geometry", "linear", "--dims", "4", "--bc", "periodic",
              "--out", g])
        from fermigraph.fermion import build_lattice_model

        fileio.write_fermion(h, build_lattice_model("chain", 4, t=1.0, u=0.5,
                                                    bc="periodic"))
        assert main(["transform", "--graph", g, "--hamiltonian", h,
                     "--basis", "jw_yx", "--out", out]) == 0
        s = fileio.read_pauli_sum(out)
        assert len(s) == 13  # identity + 4 Z + 8 bond terms

    def test_explicit_routing(self, tmp_path):
        """Forced paths reproduce auto routing on a 3x3 lattice diagonal,
        in either path orientation."""
        g = str(tmp_path / "sq.graph")
        h = str(tmp_path / "h.fham")
        routes = str(tmp_path / "routes.txt")
        main(["gen", "--geometry", "square", "--dims", "3x3", "--out", g])
        from fermigraph.fermion import FermionOperator

        fileio.write_fermion(
            h,
            FermionOperator.from_terms(
                9,
                [(1.0, ((0, True), (4, False))), (1.0, ((4, True), (0, False)))],
            ),
        )
        out_auto = str(tmp_path / "auto.pauli")
        assert main(["transform", "--graph", g, "--hamiltonian", h,
                     "--out", out_auto]) == 0
        for line, suffix in (("path 1 5 0 1 4", "fwd"), ("path 1 5 4 1 0", "rev")):
            with open(routes, "w") as fh:
                fh.write(line + "\n")
            out = str(tmp_path / f"explicit_{suffix}.pauli")
            assert main(["transform", "--graph", g, "--hamiltonian", h,
                         "--route", f"explicit:{routes}", "--out", out]) == 0
            assert fileio.read_pauli_sum(out) == fileio.read_pauli_sum(out_auto)

    def test_stats(self, tmp_path, capsys):
        g = str(tmp_path / "c.graph")
        h = str(tmp_path / "h.fham")
        out = str(tmp_path / "h.pauli")
        main(["gen", "--geometry", "linear", "--dims", "4", "--bc", "periodic",
              "--out", g])
        from fermigraph.fermion import build_lattice_model

        fileio.write_fermion(h, build_lattice_model("chain", 4, t=1.0, u=1.0,
                                                    bc="periodic"))
        main(["transform", "--graph", g, "--hamiltonian", h, "--basis", "jw_yx",
              "--out", out])
        capsys.readouterr()
        assert main(["stats", "--in", out]) == 0
        text = capsys.readouterr().out
        assert "max_weight 2" in text and "terms 12" in text


    def test_square4_open(self, tmp_path, capsys):
        """The 4x4 open square lattice (28 qubits) encodes and compiles
        with default settings."""
        g = str(tmp_path / "sq.graph")
        h = str(tmp_path / "h.fham")
        main(["gen", "--geometry", "square", "--dims", "4x4", "--out", g])
        fileio.write_fermion(h, build_lattice_model("square_nn", (4, 4), t=1.0,
                                                    u=0.5))
        capsys.readouterr()
        assert main(["encode", "--graph", g, "--out", str(tmp_path / "sq.enc")]) == 0
        assert "28 qubits" in capsys.readouterr().out
        assert main(["transform", "--graph", g, "--hamiltonian", h,
                     "--out", str(tmp_path / "sq.pauli")]) == 0


class TestBench:
    def test_row_count_and_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (a, b):
            assert main(["bench", "--geometries", "linear,star",
                         "--n", "8,16,32", "--seed", "1", "--out", path]) == 0
        rows_a = (tmp_path / "a.csv").read_text().strip().split("\n")
        rows_b = (tmp_path / "b.csv").read_text().strip().split("\n")
        assert len(rows_a) == 7  # header + 6 records
        strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
        assert strip(rows_a) == strip(rows_b)  # all but the seconds column


class TestVerify:
    def test_triangle_dense_pass(self, tmp_path, capsys):
        g = str(tmp_path / "tri.graph")
        main(["gen", "--geometry", "linear", "--dims", "3", "--bc", "periodic",
              "--out", g])
        assert main(["verify", "--graph", g, "--basis", "jw", "--dense"]) == 0
        assert "verify pass" in capsys.readouterr().out

    def test_star_dense_pass(self, tmp_path):
        g = str(tmp_path / "star.graph")
        main(["gen", "--geometry", "star", "--n", "4", "--out", g])
        assert main(["verify", "--graph", g, "--basis", "jw", "--dense"]) == 0

    def test_dense_reports_gauge_pairs(self, tmp_path, capsys):
        """The oracle line names the commutant's gauge pairs: the 6-star
        in ``fenwick`` has 2, so one of its 4 isospectral sectors is
        diagonalized."""
        g = str(tmp_path / "star6.graph")
        main(["gen", "--geometry", "star", "--n", "6", "--out", g])
        capsys.readouterr()
        assert main(["verify", "--graph", g, "--basis", "fenwick", "--dense"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("dense oracle:"))
        assert "codespace_dim=256 multiplicity=4 gauge_pairs=2 " in line


class TestModuleEntry:
    def test_python_m_gen_then_cold_dense_verify(self, tmp_path):
        """``python -m fermigraph`` runs the command line from the source
        tree with no install, and a fresh process's ``verify --dense``
        loads the dense oracle when it reaches it."""
        src = Path(fileio.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "fermigraph", *argv],
                                  capture_output=True, text=True, env=env, cwd=tmp_path)

        g = tmp_path / "chain4.graph"
        gen = run("gen", "--geometry", "linear", "--dims", "4", "--out", str(g))
        assert gen.returncode == 0, gen.stderr
        assert g.read_text() == fileio.graph_to_json(gen_lattice("linear", 4))
        verify = run("verify", "--graph", str(g), "--dense")
        assert verify.returncode == 0, verify.stderr
        lines = verify.stdout.splitlines()
        assert any(line.startswith("dense oracle: ") for line in lines)
        assert lines[-1] == "verify pass"


class TestErrors:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        assert main(["gen", "--geometry", "nonsense",
                     "--out", str(tmp_path / "x.graph")]) == 2
        assert "error: parse:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "geometry,dims,takes",
        [
            ("linear", "4x6", "1 dim"),
            ("square_diag", "3x4x5", "1 or 2 dims"),
            ("blocked_square", "4x8", "1 dim"),
            ("square", "3x4x5", "1 or 2 dims"),
        ],
    )
    def test_extra_dims_exit_code(self, tmp_path, capsys, geometry, dims, takes):
        """A --dims entry the geometry has no use for is refused, not
        dropped: each of these once wrote a smaller graph with exit 0."""
        out = tmp_path / "x.graph"
        argv = ["gen", "--geometry", geometry, "--dims", dims, "--out", str(out)]
        if geometry == "blocked_square":
            argv += ["--blocks", "4"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: parse:" in err
        assert f"{geometry} takes {takes} in --dims, got {len(dims.split('x'))}" in err
        assert not out.exists()

    def test_resource_error_exit_code(self, tmp_path, capsys):
        """complete/300 (45,000 qubits) is over the encoding's table
        budget in every verb that builds an encoding.  The graph is built
        here, since ``gen`` refuses it by the same rule."""
        g = str(tmp_path / "k.graph")
        fileio.write_graph(g, SystemGraph.from_edges(
            list(itertools.combinations(range(300), 2))))
        h = tmp_path / "h.fham"
        h.write_text("modes 300\n(1,0) a+1 a-2\n(1,0) a+2 a-1\n")
        for argv in (
            ["encode", "--graph", g, "--out", str(tmp_path / "k.enc")],
            ["transform", "--graph", g, "--hamiltonian", str(h),
             "--out", str(tmp_path / "k.pauli")],
            ["bench", "--geometries", "complete", "--n", "300",
             "--out", str(tmp_path / "k.csv")],
        ):
            assert main(argv) == 5, argv[0]
            assert "error: resource:" in capsys.readouterr().err

    def test_gen_refuses_complete_over_budget(self, tmp_path, capsys):
        """complete/600 once took 5.8 s and 137 MB to write; now refused
        before any edge is built, with nothing written."""
        out = tmp_path / "k.graph"
        start = time.perf_counter()
        assert main(["gen", "--geometry", "complete", "--n", "600",
                     "--out", str(out)]) == 5
        assert time.perf_counter() - start < 1.0
        assert "error: resource:" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_register_too_large_exit_code(self, tmp_path, capsys):
        """An open 20-mode chain has no stabilizers, so its codespace is
        the whole 2^20-state register: the oracle's entry budget refuses
        it at once instead of allocating a 2^20 x 2^20 block."""
        g = str(tmp_path / "chain20.graph")
        main(["gen", "--geometry", "linear", "--dims", "20", "--bc", "open",
              "--out", g])
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["verify", "--graph", g, "--dense"]) == 5
        assert time.perf_counter() - start < 1.0
        assert "error: resource:" in capsys.readouterr().err

    def test_route_error_exit_code(self, tmp_path, capsys):
        from fermigraph.fermion import build_lattice_model
        from fermigraph.graph import SystemGraph

        g = str(tmp_path / "d.graph")
        fileio.write_graph(g, SystemGraph.from_edges([(0, 1), (2, 3)]))
        h = str(tmp_path / "h.fham")
        from fermigraph.fermion import FermionOperator

        fileio.write_fermion(
            h,
            FermionOperator.from_terms(
                4,
                [(1.0, ((0, True), (2, False))), (1.0, ((2, True), (0, False)))],
            ),
        )
        assert main(["transform", "--graph", g, "--hamiltonian", h,
                     "--out", str(tmp_path / "o.pauli")]) == 3
        assert "error: route:" in capsys.readouterr().err

    def test_non_finite_pauli_coefficient_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.pauli"
        path.write_text("qubits 2\n(1,0) Z1\n(nan,0) X1\n")
        assert main(["stats", "--in", str(path)]) == 2
        assert "error: parse:" in capsys.readouterr().err

    def test_non_finite_fham_coefficient_exit_code(self, tmp_path, capsys):
        g = str(tmp_path / "c.graph")
        main(["gen", "--geometry", "linear", "--dims", "2", "--bc", "open",
              "--out", g])
        h = tmp_path / "inf.fham"
        h.write_text("modes 2\n(inf,0) a+1 a-2\n(inf,0) a+2 a-1\n")
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--out", str(tmp_path / "o.pauli")]) == 2
        assert "error: parse:" in capsys.readouterr().err

    def test_non_hermitian_dense_hamiltonian_exit_code(self, tmp_path, capsys):
        """``verify --dense`` once passed i n_1 on the open 4-chain with
        max_diff=0; it is refused as a parse error naming the monomial."""
        g = str(tmp_path / "c.graph")
        main(["gen", "--geometry", "linear", "--dims", "4", "--bc", "open",
              "--out", g])
        h = tmp_path / "h.fham"
        h.write_text("modes 4\n(0,1) a+1 a-1\n")
        capsys.readouterr()
        assert main(["verify", "--graph", g, "--basis", "jw", "--dense",
                     "--hamiltonian", str(h)]) == 2
        err = capsys.readouterr().err
        assert "error: parse:" in err and "Majorana monomial (0+0.5j) 1 " in err

    def test_repeated_pauli_qubit_exit_code(self, tmp_path, capsys):
        """A label naming one qubit twice once merged into its last letter."""
        for label in ("X1 X1", "X1 Z1"):
            path = tmp_path / "dup.pauli"
            path.write_text(f"qubits 2\n(1,0) {label}\n")
            assert main(["stats", "--in", str(path)]) == 2, label
            assert "named twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--hamiltonian", "missing.fham"],
            ["--seed", "5"],
            ["--dense", "--hamiltonian", "missing.fham"],
            ["--dense", "--hamiltonian", "h.fham", "--seed", "5"],
        ],
    )
    def test_verify_flags_are_read(self, tmp_path, capsys, flags):
        """``--hamiltonian`` and ``--seed`` without ``--dense``, and
        ``--seed`` beside ``--hamiltonian``, once passed unread with exit
        0; under ``--dense`` a missing Hamiltonian file is opened and
        refused."""
        g = str(tmp_path / "c4.graph")
        main(["gen", "--geometry", "linear", "--dims", "4", "--bc", "periodic",
              "--out", g])
        fileio.write_fermion(str(tmp_path / "h.fham"),
                             build_lattice_model("chain", 4, t=1.0, u=0.5, bc="periodic"))
        capsys.readouterr()
        flags = [str(tmp_path / f) if f.endswith(".fham") else f for f in flags]
        assert main(["verify", "--graph", g, *flags]) == 2
        captured = capsys.readouterr()
        assert "error: parse:" in captured.err
        assert "verify pass" not in captured.out

    def test_verify_dense_seed(self, tmp_path, capsys):
        g = str(tmp_path / "c4.graph")
        main(["gen", "--geometry", "linear", "--dims", "4", "--bc", "periodic",
              "--out", g])
        assert main(["verify", "--graph", g, "--dense", "--seed", "5"]) == 0
        assert "verify pass" in capsys.readouterr().out

    def test_explicit_path_with_a_non_integer_exit_code(self, tmp_path, capsys):
        g = str(tmp_path / "sq.graph")
        main(["gen", "--geometry", "square", "--dims", "3x3", "--out", g])
        h = tmp_path / "h.fham"
        h.write_text("modes 9\n(1,0) a+1 a-5\n(1,0) a+5 a-1\n")
        routes = tmp_path / "routes.txt"
        routes.write_text("path 1 x 2 3\n")
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--route", f"explicit:{routes}",
                     "--out", str(tmp_path / "o.pauli")]) == 2
        assert "error: parse: bad path line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,pairs",
        [
            ("path 1 99 0 1 2", "(1, 99)"),  # mode 99 of 9
            ("path 5 5 4 1 4", "(5, 5)"),  # the same mode twice
            ("path 1 2 0 1", "(1, 2)"),  # modes 1 and 2 share an edge
            ("path 3 7 2 1 0 3 6", "(3, 7)"),  # a pair no term couples
        ],
    )
    def test_explicit_path_never_applied_exit_code(self, tmp_path, capsys, line, pairs):
        """Beside the applied path for modes 1 and 5, a path the compile
        cannot apply once passed unread with exit 0."""
        g = str(tmp_path / "sq.graph")
        main(["gen", "--geometry", "square", "--dims", "3x3", "--out", g])
        h = tmp_path / "h.fham"
        h.write_text("modes 9\n(1,0) a+1 a-5\n(1,0) a+5 a-1\n"
                     "(1,0) a+1 a-2\n(1,0) a+2 a-1\n")
        routes = tmp_path / "routes.txt"
        routes.write_text(f"path 1 5 0 1 4\n{line}\n")
        out = tmp_path / "o.pauli"
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--route", f"explicit:{routes}", "--out", str(out)]) == 2
        assert f"error: parse: explicit paths for 1-based mode pairs {pairs} never" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_missing_explicit_path_exit_code(self, tmp_path, capsys):
        """The refusal names the pair as the route file does, 1-based."""
        g = str(tmp_path / "sq.graph")
        main(["gen", "--geometry", "square", "--dims", "3x3", "--out", g])
        h = tmp_path / "h.fham"
        h.write_text("modes 9\n(1,0) a+1 a-5\n(1,0) a+5 a-1\n")
        routes = tmp_path / "routes.txt"
        routes.write_text("path 3 7 2 1 0 3 6\n")
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--route", f"explicit:{routes}",
                     "--out", str(tmp_path / "o.pauli")]) == 3
        assert "error: route: no explicit path for 1-based mode pair (1, 5)" \
            in capsys.readouterr().err

    def test_second_explicit_path_for_a_pair_exit_code(self, tmp_path, capsys):
        """Two paths for modes 1 and 5 once compiled along the last one."""
        g = str(tmp_path / "sq.graph")
        main(["gen", "--geometry", "square", "--dims", "3x3", "--out", g])
        h = tmp_path / "h.fham"
        h.write_text("modes 9\n(1,0) a+1 a-5\n(1,0) a+5 a-1\n")
        routes = tmp_path / "routes.txt"
        routes.write_text("path 1 5 0 1 4\npath 1 5 0 3 4\n")
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--route", f"explicit:{routes}",
                     "--out", str(tmp_path / "o.pauli")]) == 2
        assert "error: parse: second path for modes 1 and 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--geometry", "complete", "--n", "4", "--dims", "3x3"],
            ["--geometry", "complete", "--n", "4", "--bc", "periodic"],
            ["--geometry", "complete", "--n", "4", "--blocks", "7"],
            ["--geometry", "heavy_hex", "--n", "9"],
            ["--geometry", "heavy_hex", "--dims", "2"],
            ["--geometry", "heavy_hex", "--bc", "open"],
            ["--geometry", "square", "--dims", "3", "--n", "4"],
            ["--geometry", "square", "--dims", "3", "--blocks", "2"],
            ["--geometry", "blocked_square", "--dims", "4", "--blocks", "4",
             "--bc", "open"],
            ["--geometry", "blocked_square", "--dims", "4", "--blocks", "4",
             "--n", "4"],
        ],
    )
    def test_gen_flags_are_read(self, tmp_path, capsys, flags):
        """The last flag of each once passed unread with exit 0: ``--n`` is
        for the SYK geometries, ``--dims`` for the lattices and
        blocked_square, ``--blocks`` for blocked_square, ``--bc`` for the
        lattices."""
        out = tmp_path / "x.graph"
        assert main(["gen", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: parse: {flags[1]} does not take {flags[-2]}" in err
        assert not out.exists()

    def test_bench_n_with_a_non_integer_exit_code(self, tmp_path, capsys):
        assert main(["bench", "--geometries", "linear", "--n", "4,x",
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "error: parse: bad --n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect", ["unknown_port", "string_id", "string_ids", "float_endpoint", "bool_port"])
    def test_malformed_graph_exit_code(self, tmp_path, capsys, defect):
        """A port naming no edge, or vertex ids that are not integers, once
        raised a traceback (the first two) or loaded (all ids strings); an
        endpoint 0.0 or a port true once loaded and encoded."""
        doc = json.loads(fileio.graph_to_json(gen_syk_geometry("star", 4)))
        if defect == "unknown_port":
            doc["vertices"][0]["ports"][0] = 99
        elif defect == "string_id":
            doc["vertices"][1]["id"] = "1"
        elif defect == "float_endpoint":
            doc["edges"][0][0] = 0.0
        elif defect == "bool_port":
            doc["vertices"][1]["ports"][0] = True
        else:
            for v in doc["vertices"]:
                v["id"] = str(v["id"])
            doc["edges"] = [[str(a), str(b)] for a, b in doc["edges"]]
        g = tmp_path / "bad.graph"
        g.write_text(json.dumps(doc))
        assert main(["encode", "--graph", str(g),
                     "--out", str(tmp_path / "x.enc")]) == 2
        assert "error: parse: bad graph file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(1,0) a+1 a-2\n", "hamiltonian file must start with 'modes <n>'"),
            ("modes 4\n(1,0) a+0 a-2\n", "factor index in 'a+0' must be 1-based"),
            ("modes 4\n(1,0) g9 g1\n", "Majorana index 'g9' out of range"),
            ("modes 4\n(1,0) a+5 a-1\n", "mode index 'a+5' out of range"),
            ("# hopping\n# on a chain\n", "empty hamiltonian file"),
            (f"modes 4\n(1,0) a+{LONG} a-1\n", "number of 5000 digits is too long"),
        ],
        ids=["no_header", "mode_0", "majorana_9_of_8", "mode_5_of_4", "only_comments",
             "mode_past_the_int_limit"],
    )
    def test_bad_fham_exit_code(self, tmp_path, capsys, text, message):
        g = str(tmp_path / "c.graph")
        main(["gen", "--geometry", "linear", "--dims", "4", "--out", g])
        h = tmp_path / "h.fham"
        h.write_text(text)
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--out", str(tmp_path / "o.pauli")]) == 2
        assert capsys.readouterr().err == f"error: parse: {message}\n"

    def test_fham_comment_after_header(self, tmp_path, capsys):
        """A ``#`` line after the header is skipped like a blank one."""
        g = str(tmp_path / "c.graph")
        main(["gen", "--geometry", "linear", "--dims", "4", "--out", g])
        terms = "(1,0) a+1 a-2\n(1,0) a+2 a-1\n"
        outs = []
        for i, text in enumerate(("modes 4\n# hopping\n" + terms, "modes 4\n" + terms)):
            h, out = tmp_path / f"h{i}.fham", tmp_path / f"o{i}.pauli"
            h.write_text(text)
            assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                         "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("qubits 2\n(1,0) Q1\n", "bad Pauli token 'Q1'"),
            ("qubits 2\n(1,0) X0\n", "qubit index 0 must be 1-based"),
            ("(1,0) X1\n", "pauli sum file must start with 'qubits <n>'"),
            ("", "empty pauli sum file"),
            ("qubits 2\n1 X1\n", "bad term line '1 X1'"),
            ("qubits 2\n(one,0) X1\n", "bad coefficient component 'one'"),
            (f"qubits 2\n(1,0) X{LONG}\n", "number of 5000 digits is too long"),
            (f"qubits {LONG}\n(1,0) X1\n", "number of 5000 digits is too long"),
            ("qubits 2\n(1.7e308,0) X1\n(1.7e308,0) X1\n",
             "coefficients of X1 sum to a non-finite value"),
        ],
        ids=["letter_Q", "qubit_0", "no_header", "empty", "bare_number", "word_coefficient",
             "qubit_past_the_int_limit", "header_past_the_int_limit", "overflowing_sum"],
    )
    def test_bad_pauli_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.pauli"
        path.write_text(text)
        assert main(["stats", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: parse: {message}\n"

    @pytest.mark.parametrize(
        "line,message",
        [
            ("route 1 5 0 1 4", "bad path line 'route 1 5 0 1 4'"),
            ("path 0 5 0 1 4", "path modes are 1-based"),
            (None, "unknown routing policy 'bogus'"),
        ],
        ids=["route_line", "mode_0", "unknown_policy"],
    )
    def test_bad_route_policy_exit_code(self, tmp_path, capsys, line, message):
        g = str(tmp_path / "sq.graph")
        main(["gen", "--geometry", "square", "--dims", "3x3", "--out", g])
        h = tmp_path / "h.fham"
        h.write_text("modes 9\n(1,0) a+1 a-5\n(1,0) a+5 a-1\n")
        policy = "bogus"
        if line is not None:
            routes = tmp_path / "routes.txt"
            routes.write_text(line + "\n")
            policy = f"explicit:{routes}"
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--route", policy, "--out", str(tmp_path / "o.pauli")]) == 2
        assert capsys.readouterr().err == f"error: parse: {message}\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--geometry", "square"], "--dims is required for lattice geometries"),
            (["--geometry", "star"], "--n is required for all-to-all geometries"),
            (["--geometry", "blocked_square", "--dims", "4"],
             "blocked_square needs --dims L and --blocks b"),
        ],
        ids=["square_no_dims", "star_no_n", "blocked_square_no_blocks"],
    )
    def test_gen_missing_size_exit_code(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.graph"
        assert main(["gen", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: parse: {message}\n"
        assert not out.exists()

    def test_verify_algebra_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        """No valid graph fails the algebra check, so the check is made to."""
        g = str(tmp_path / "c.graph")
        main(["gen", "--geometry", "linear", "--dims", "4", "--out", g])
        monkeypatch.setattr(cli, "verify_encoding_algebra",
                            lambda enc: CheckReport(["edges 0 and 1 commute", "x"]))
        capsys.readouterr()
        assert main(["verify", "--graph", g]) == 6
        captured = capsys.readouterr()
        assert captured.err == (
            "algebra: edges 0 and 1 commute\nalgebra: x\n"
            "error: verify-fail: operator algebra check failed\n"
        )
        assert "verify pass" not in captured.out

    def test_verify_oracle_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        """No valid input fails the dense oracle, so its report is made to."""
        from fermigraph import dense

        check = dense.dense_oracle_check
        monkeypatch.setattr(dense, "dense_oracle_check", lambda f, enc: dataclasses.replace(
            check(f, enc), passed=False, messages=["spectra differ"]))
        g = str(tmp_path / "c.graph")
        main(["gen", "--geometry", "linear", "--dims", "4", "--out", g])
        capsys.readouterr()
        assert main(["verify", "--graph", g, "--dense"]) == 6
        captured = capsys.readouterr()
        assert captured.err == (
            "oracle: spectra differ\nerror: verify-fail: dense oracle check failed\n"
        )
        assert "verify pass" not in captured.out

    def test_stats_out_writes_what_it_prints(self, tmp_path, capsys):
        path = tmp_path / "s.pauli"
        path.write_text("qubits 3\n(1,0) X1 Z2\n(0.5,0) Y3\n")
        out = tmp_path / "s.txt"
        assert main(["stats", "--in", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed
        assert printed.splitlines()[:4] == [
            "qubits 3", "terms 2", "max_weight 2", "total_weight 3"]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["encode", "--graph", str(tmp_path / "none.graph"),
                     "--out", str(tmp_path / "x.enc")]) == 2


def _chain2(tmp_path):
    g = str(tmp_path / "c2.graph")
    assert main(["gen", "--geometry", "linear", "--dims", "2", "--out", g]) == 0
    return g


class TestRefusedNumbers:
    """Finite coefficients whose sum overflows and bad SYK seeds are parse
    errors, not tracebacks or wrong answers."""

    OVERFLOW_FHAM = "modes 2\n(1.7e308,0) g1 g3\n(1.7e308,0) g1 g3\n"

    def test_overflowing_fham_keeps_the_old_output(self, tmp_path, capsys):
        """``transform`` once exited 1 with a NaN traceback and left its
        ``--out`` file empty."""
        g = _chain2(tmp_path)
        h, out = tmp_path / "h.fham", tmp_path / "o.pauli"
        h.write_text(self.OVERFLOW_FHAM)
        out.write_text("qubits 2\n(1,0) Z1\n")
        capsys.readouterr()
        assert main(["transform", "--graph", g, "--hamiltonian", str(h),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse: Majorana monomial g1 g3 (1-based) sums to")
        assert out.read_text() == "qubits 2\n(1,0) Z1\n"

    def test_overflowing_fham_dense_names_the_overflow(self, tmp_path, capsys):
        """``verify --dense`` once called the same file non-Hermitian."""
        g = _chain2(tmp_path)
        h = tmp_path / "h.fham"
        h.write_text(self.OVERFLOW_FHAM)
        capsys.readouterr()
        assert main(["verify", "--graph", g, "--dense", "--hamiltonian", str(h)]) == 2
        err = capsys.readouterr().err
        assert "error: parse: Majorana monomial g1 g3 (1-based) sums to the non-finite" in err

    def test_negative_dense_seed(self, tmp_path, capsys):
        """Once numpy's ValueError traceback, exit 1."""
        g = _chain2(tmp_path)
        assert main(["verify", "--graph", g, "--dense", "--seed", "-5"]) == 2
        assert ("error: parse: seed must be a non-negative integer, got -5"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("n, seed", [("4", "-10"), ("4,5", "-1")])
    def test_negative_bench_seed(self, tmp_path, capsys, n, seed):
        """``--seed -10`` once raised numpy's ValueError; ``--n 4,5 --seed -1``
        exited 0, drawing with seed + N."""
        out = tmp_path / "b.csv"
        assert main(["bench", "--geometries", "linear", "--n", n, "--seed", seed,
                     "--out", str(out)]) == 2
        assert (f"error: parse: seed must be a non-negative integer, got {seed}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestInputsBeforeEncoding:
    """A bad seed, a missing ``.fham`` file and a bad route are refused
    before the encoding is built: ``verify --dense --seed -5`` once printed
    ``algebra ok: ...`` and then exited 2."""

    CASES = {
        "verify_negative_seed": ["verify", "--dense", "--seed", "-5"],
        "verify_missing_fham": ["verify", "--dense", "--hamiltonian", "{tmp}/missing.fham"],
        "transform_missing_fham": ["transform", "--hamiltonian", "{tmp}/missing.fham",
                                   "--out", "{tmp}/o.pauli"],
        "transform_unknown_route": ["transform", "--hamiltonian", "{tmp}/h.fham",
                                    "--route", "bogus", "--out", "{tmp}/o.pauli"],
        "transform_missing_route_file": ["transform", "--hamiltonian", "{tmp}/h.fham",
                                         "--route", "explicit:{tmp}/missing",
                                         "--out", "{tmp}/o.pauli"],
    }

    @pytest.mark.parametrize("argv", CASES.values(), ids=CASES)
    def test_refused_before_the_encoding(self, tmp_path, capsys, monkeypatch, argv):
        g = _chain2(tmp_path)
        (tmp_path / "h.fham").write_text("modes 2\n(1,0) a+1 a-2\n(1,0) a+2 a-1\n")
        capsys.readouterr()
        built = []
        monkeypatch.setattr(cli, "build_encoding", lambda *a: built.append(a))
        argv = [tok.format(tmp=tmp_path) for tok in argv[:1] + ["--graph", g] + argv[1:]]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: parse: ")
        assert built == []
        assert not (tmp_path / "o.pauli").exists()


class TestDocs:
    def test_basis_help_names_every_registered_basis(self, monkeypatch):
        """The ``--basis`` help is read from ``BASIS_BUILDERS``, so a basis
        registered there is offered with no edit to the parser."""
        monkeypatch.setitem(BASIS_BUILDERS, "jw_copy", BASIS_BUILDERS["jw"])
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for verb in ("encode", "transform", "verify"):
            basis = next(a for a in subparsers.choices[verb]._actions
                         if "--basis" in a.option_strings)
            assert basis.help.split(" | ") == list(BASIS_BUILDERS)

    def test_readme_documents_every_option(self):
        """The long options of every subcommand are exactly the ``--flag``
        tokens of README's "Command line" and "Conventions" sections, so
        neither can gain or lose a flag alone."""
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {
            opt
            for sub in subparsers.choices.values()
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sections = re.findall(r"^## (Command line|Conventions.*?)$\n(.*?)(?=^## |\Z)",
                              readme, flags=re.M | re.S)
        assert [name for name, _ in sections] == ["Command line",
                                                  "Conventions worth knowing"]
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                                    "".join(text for _, text in sections)))
        assert documented == options

    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_readme_tour_runs(self):
        """README's library tour is the one ``python`` block; it runs."""
        blocks = re.findall(r"^```python\n(.*?)^```", self.README.read_text(),
                            flags=re.M | re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})

    def test_readme_names_resolve(self):
        """Every backquoted ``Class.attr`` or ``module.NAME`` README gives
        for these classes and modules exists: on the class, as a dataclass
        field, or on an instance (``Router.searches`` is set in
        ``__init__``)."""
        enc = fermigraph.build_encoding(gen_lattice("linear", 3), "jw")
        owners = {
            "Encoding": (Encoding, enc), "Router": (Router, Router(enc)),
            "OracleReport": (OracleReport, None),
            **{m: (importlib.import_module(f"fermigraph.{m}"), None)
               for m in ("dense", "encoding", "geometries", "analytics", "fermion")},
        }
        names = re.findall(rf"`({'|'.join(owners)})\.([A-Za-z_]\w*)",
                           self.README.read_text())
        assert len(names) >= 13
        missing = [
            f"{owner}.{attr}" for owner, attr in names
            if not any(hasattr(o, attr) for o in owners[owner])
            and attr not in getattr(owners[owner][0], "__dataclass_fields__", {})
        ]
        assert missing == []


def test_geometry_kinds_agree(tmp_path):
    """``SWEEP_GEOMETRIES`` are the kinds ``gen_syk_geometry`` accepts, and
    ``gen --geometry`` offers every lattice and all-to-all kind (its linear
    is the lattice chain) plus blocked_square and heavy_hex."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    gen = subparsers.choices["gen"]
    text = next(a.help for a in gen._actions if "--geometry" in a.option_strings)
    offered = text.removeprefix("one of ").split(", ")
    assert sorted(offered) == sorted(
        {*LATTICE_DIRECTIONS, *SWEEP_GEOMETRIES, "blocked_square", "heavy_hex"})
    assert SWEEP_GEOMETRIES == tuple(SYK_GEOMETRIES)
    for kind in SWEEP_GEOMETRIES:
        g = gen_syk_geometry(kind, 5)
        assert g.meta["params"]["kind"] == kind
        if kind not in LATTICE_DIRECTIONS:
            out = tmp_path / f"{kind}.graph"
            assert main(["gen", "--geometry", kind, "--n", "5", "--out", str(out)]) == 0
            assert out.read_text() == fileio.graph_to_json(g)
    for kind in set(offered) - set(SWEEP_GEOMETRIES):
        with pytest.raises(ParseError, match="unknown geometry kind"):
            gen_syk_geometry(kind, 5)
