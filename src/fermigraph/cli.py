"""Command line front end: one verb per pipeline stage.

    gen        geometry generator -> .graph
    encode     .graph + basis -> .enc (layout, operator tables)
    transform  .graph + .fham -> .pauli
    stats      .pauli -> weight statistics
    bench      geometry sweep -> .csv
    verify     algebra checks, optionally the dense spectral oracle

Failures exit non-zero with a machine-readable category on stderr
(parse=2, route=3, parity=4, resource=5, verify-fail=6).  No verb takes
a size option: resource=5 comes from the bounds on what is allocated.
Every verb that builds an encoding refuses one whose tables exceed
``encoding.TABLE_BUDGET`` (qubits x table strings, about 100 MB at the
budget), and ``verify --dense`` also refuses an oracle over
``dense.ENTRY_BUDGET`` values (64 MiB of entries per side) or
``dense.MAX_COMPONENT``, and refuses a non-Hermitian Hamiltonian (parse=2).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import analytics, fileio
from .encoding import build_encoding, verify_encoding_algebra
from .errors import FermigraphError, ParseError, VerifyError
from .fermion import build_syk2, check_seed
from .geometries import (
    LATTICE_DIRECTIONS,
    SYK_GEOMETRIES,
    gen_blocked_square,
    gen_heavy_hex,
    gen_lattice,
    gen_syk_geometry,
    lattice_dims,
)
from .graph import qubit_count
from .localbasis import BASIS_BUILDERS
from .transform import transform_hamiltonian

EXIT_CODES = {"parse": 2, "route": 3, "parity": 4, "resource": 5, "verify-fail": 6}

_LATTICES = tuple(LATTICE_DIRECTIONS)
# gen's linear is the lattice chain (--dims, --bc), bench's the periodic one
_SYK = tuple(k for k in SYK_GEOMETRIES if k not in LATTICE_DIRECTIONS)
_GEOMETRIES = _LATTICES + _SYK + ("blocked_square", "heavy_hex")


def _ints(tokens: List[str], what: str) -> List[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError(f"bad {what}") from None


def _dims(text: str) -> List[int]:
    return _ints(text.split("x"), f"dims {text!r}; use e.g. 4 or 4x6")


def _cmd_gen(args) -> int:
    kind = args.geometry
    if kind not in _GEOMETRIES:
        raise ParseError(f"unknown geometry {kind!r}")
    for flag, takers in (("n", _SYK), ("dims", _LATTICES + ("blocked_square",)),
                         ("blocks", ("blocked_square",)), ("bc", _LATTICES)):
        if getattr(args, flag) is not None and kind not in takers:
            raise ParseError(f"{kind} does not take --{flag}")
    if kind in _LATTICES:
        if not args.dims:
            raise ParseError("--dims is required for lattice geometries")
        g = gen_lattice(kind, _dims(args.dims), args.bc or "open")
    elif kind in _SYK:
        if args.n is None:
            raise ParseError("--n is required for all-to-all geometries")
        g = gen_syk_geometry(kind, args.n)
    elif kind == "blocked_square":
        if not args.dims or args.blocks is None:
            raise ParseError("blocked_square needs --dims L and --blocks b")
        g = gen_blocked_square(lattice_dims(kind, _dims(args.dims))[0], args.blocks)
    else:
        g = gen_heavy_hex()
    fileio.write_graph(args.out, g)
    print(f"wrote {args.out}: {len(g.vertex_ids())} vertices, "
          f"{len(g.edges)} edges, {qubit_count(g)} qubits")
    return 0


def _encoding(args):
    """The encoding of the ``--graph`` file under ``--basis``."""
    return build_encoding(fileio.read_graph(args.graph), args.basis)


def _cmd_encode(args) -> int:
    enc = _encoding(args)
    fileio.write_encoding(args.out, enc)
    print(
        f"wrote {args.out}: {enc.total_qubits} qubits, {len(enc.edge_ops)} edge ops, "
        f"{len(enc.vertex_ops)} vertex ops, {len(enc.cycles)} stabilizers"
    )
    return 0


def _cmd_transform(args) -> int:
    f = fileio.read_fermion(args.hamiltonian)
    route = _route_policy(args.route)
    compiled = transform_hamiltonian(f, _encoding(args), route)
    fileio.write_pauli_sum(args.out, compiled)
    stats = analytics.weight_stats(compiled)
    print(
        f"wrote {args.out}: {stats.term_count} terms, max weight "
        f"{stats.max_term_weight}, total weight {stats.total_weight}"
    )
    return 0


def _route_policy(policy: str):
    if policy == "auto":
        return None
    if policy.startswith("explicit:"):
        # one line per coupling: ``path <mode j> <mode k> <vertex ids...>``
        # with 1-based modes (as in .fham files) and vertex ids as written
        # in the .graph file; a path the compile does not apply is refused
        paths = {}
        with open(policy.split(":", 1)[1]) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                toks = line.split()
                if toks[0] != "path" or len(toks) < 5:
                    raise ParseError(f"bad path line {line!r}")
                j, k, *path = _ints(toks[1:], f"path line {line!r}")
                if j < 1 or k < 1:
                    raise ParseError("path modes are 1-based")
                key = (min(j, k) - 1, max(j, k) - 1)
                if key in paths:
                    raise ParseError(f"second path for modes {j} and {k}: {line!r}")
                paths[key] = path
        return paths
    raise ParseError(f"unknown routing policy {policy!r}")


def _cmd_stats(args) -> int:
    s = fileio.read_pauli_sum(args.infile)
    st = analytics.weight_stats(s)
    lines = [
        f"qubits {st.qubit_total}",
        f"terms {st.term_count}",
        f"max_weight {st.max_term_weight}",
        f"total_weight {st.total_weight}",
        f"mean_weight {st.mean_weight!r}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        fileio.write_text(args.out, text)
    print(text, end="")
    return 0


def _cmd_bench(args) -> int:
    geometries = args.geometries.split(",")
    n_list = _ints(args.n.split(","), f"--n {args.n!r}")
    records = analytics.sweep_syk_geometries(geometries, n_list, seed=args.seed)
    fileio.write_text(args.out, analytics.records_to_csv(records))
    print(f"wrote {args.out}: {len(records)} rows")
    return 0


def _cmd_verify(args) -> int:
    if args.hamiltonian is not None and not args.dense:
        raise ParseError("--hamiltonian is read only with --dense")
    if args.seed is not None and (args.hamiltonian is not None or not args.dense):
        raise ParseError("--seed seeds the Hamiltonian --dense draws without --hamiltonian")
    # read the inputs first: a bad one costs no encoding build and no "ok" line
    f = seed = None
    if args.hamiltonian is not None:
        f = fileio.read_fermion(args.hamiltonian)
    elif args.dense:
        seed = check_seed(1 if args.seed is None else args.seed)
    enc = _encoding(args)
    rep = verify_encoding_algebra(enc)
    if not rep.ok:
        for v in rep.violations:
            print("algebra:", v, file=sys.stderr)
        raise VerifyError("operator algebra check failed")
    print(f"algebra ok: {len(enc.edge_ops)} edge ops, {len(enc.cycles)} stabilizers")
    if args.dense:
        from .dense import dense_oracle_check

        if f is None:
            f = build_syk2(enc.n_modes, seed=seed)
        report = dense_oracle_check(f, enc)
        print(
            f"dense oracle: sector={report.sector} codespace_dim={report.codespace_dim} "
            f"multiplicity={report.multiplicity} gauge_pairs={report.gauge_pairs} "
            f"max_diff={report.max_spectrum_diff:.3e}"
        )
        if not report.passed:
            for m in report.messages:
                print("oracle:", m, file=sys.stderr)
            raise VerifyError("dense oracle check failed")
    print("verify pass")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fermigraph", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    # the encoding that encode writes and transform and verify compile
    encoded = argparse.ArgumentParser(add_help=False)
    encoded.add_argument("--graph", required=True, help="system graph (.graph)")
    encoded.add_argument("--basis", default="jw", help=" | ".join(BASIS_BUILDERS))

    p = sub.add_parser("gen", help="generate a system graph")
    p.add_argument("--geometry", required=True,
                   help=f"one of {', '.join(_GEOMETRIES)}")
    p.add_argument("--dims", help="lattice dims, e.g. 4 or 4x6")
    p.add_argument("--n", type=int, help="mode count for all-to-all geometries")
    p.add_argument("--blocks", type=int, help="block count for blocked_square")
    p.add_argument("--bc", choices=("open", "periodic"), help="lattices; default open")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("encode", parents=[encoded], help="build the encoded operator tables")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("transform", parents=[encoded], help="compile a Hamiltonian to Paulis")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--route", default="auto", help="auto | explicit:<path-file>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("stats", help="weight statistics of a .pauli file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bench", help="geometry sweep to CSV")
    p.add_argument("--geometries", required=True, help="comma list, e.g. linear,star")
    p.add_argument("--n", required=True, help="comma list of mode counts")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", parents=[encoded], help="algebra and oracle checks")
    p.add_argument("--dense", action="store_true")
    p.add_argument("--hamiltonian",
                   help="with --dense; defaults to a seeded quadratic Hamiltonian")
    p.add_argument("--seed", type=int, help="with --dense; default 1")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FermigraphError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_CODES["parse"]

